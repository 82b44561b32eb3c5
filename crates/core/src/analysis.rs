//! Static UDA analysis by abstract interpretation (the backend of the
//! `symple-lint` tool).
//!
//! The analyzer runs a UDA's `update` **once per event variant** in the
//! [`SymCtx::analysis`] mode, starting every state field from the abstract
//! "top" symbolic value (exactly what [`make_state_symbolic`] produces for
//! a non-first chunk). Analysis mode forks like symbolic mode, so the
//! explored paths *are* the per-record path tree of the executor — but the
//! analyzer keeps the per-op footprint instead of caring about the results.
//!
//! From one abstract run per variant it derives:
//!
//! * the **branching factor** `B` (paths per record) and the post-merge
//!   count `M`, giving the worst-case path-growth matrix per
//!   [`MergePolicy`];
//! * per-field write behaviour, recovered by diffing [`FieldFacts`] before
//!   and after each path (growing accumulators, rebinds, predicate-window
//!   growth, vector accumulation);
//! * **liveness**: a field is live if a guard or predicate read it (the
//!   footprint), a vector element references it, or perturbing it in the
//!   initial state changes `result` on any of a family of short concrete
//!   replays. Written-but-dead fields are the `SY005` lint.
//!
//! Soundness note: because the abstract start state is "top" — the least
//! constrained state the executor can ever be in — every runtime path tree
//! for a record of variant `v` is a pruned subtree of the analysis tree
//! for `v`. Hence the runtime per-record branching never exceeds the
//! analysis `B`, which is what makes [`UdaAnalysis::predicted_max_live`] a
//! true upper bound (checked by property tests in `symple-analyze`).

use crate::ctx::{OpKind, SymCtx};
use crate::engine::merge::merge_paths;
use crate::engine::{EngineConfig, MergePolicy};
use crate::state::{make_state_symbolic, FieldFacts, SymState};
use crate::uda::Uda;

/// Paths explored per variant before the analyzer gives up and reports the
/// variant as exploding. Matches the executor's default per-record bound,
/// so "exploded here" implies "refused there" under the default config.
pub const ANALYSIS_PATH_BOUND: usize = 64;

/// Backstop on `update` re-executions per variant (error paths do not
/// count toward [`ANALYSIS_PATH_BOUND`], so a variant whose paths all fail
/// would otherwise spin).
const ANALYSIS_RUN_BOUND: usize = 4 * ANALYSIS_PATH_BOUND;

/// What one event variant did to one state field, joined over all of the
/// variant's abstract paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldDelta {
    /// Some path changed the field's canonical form.
    pub wrote: bool,
    /// Some path rebound the field to a concrete value (affine `a = 0`,
    /// an enum/bool binding, or a predicate `set`).
    pub rebound: bool,
    /// Largest `|b|` among paths that left the field as `x + b` with
    /// `b ≠ 0` — the growth step of an unguarded accumulator.
    pub growth_step: u64,
    /// Some path left a transfer with `|a| > 1` (multiplicative growth).
    pub multiplicative: bool,
    /// Largest predicate decision-window length reached on any path.
    pub pred_window_growth: usize,
    /// Some path grew the decision window *and* left the predicate value
    /// unknown — the window keeps growing on every further record.
    pub pred_left_unknown: bool,
    /// Largest number of elements any path appended to a vector field.
    pub pushed: usize,
    /// Largest number of *symbolic* elements any path appended.
    pub pushed_symbolic: usize,
}

impl FieldDelta {
    /// Joins the facts-diff of one abstract path into the delta.
    fn absorb(&mut self, base: &FieldFacts, post: &FieldFacts) {
        match post.kind {
            "int" => {
                if post.affine != base.affine {
                    self.wrote = true;
                }
                if let Some((a, b)) = post.affine {
                    if a == 0 {
                        self.rebound = true;
                    }
                    if a == 1 && b != 0 {
                        self.growth_step = self.growth_step.max(b.unsigned_abs());
                    }
                    if a.unsigned_abs() > 1 {
                        self.multiplicative = true;
                    }
                }
            }
            "pred" => {
                if post.concrete {
                    // `make_symbolic` leaves predicates unknown, so a
                    // concrete value here means the path called `set`.
                    self.wrote = true;
                    self.rebound = true;
                }
                let d = post.decisions.unwrap_or(0);
                self.pred_window_growth = self.pred_window_growth.max(d);
                if d > 0 && !post.concrete {
                    self.pred_left_unknown = true;
                }
            }
            "vector" => {
                let len = post.len.unwrap_or(0);
                if len > 0 {
                    self.wrote = true;
                }
                self.pushed = self.pushed.max(len);
                self.pushed_symbolic = self.pushed_symbolic.max(post.symbolic_elems.unwrap_or(0));
            }
            _ => {
                if post != base {
                    self.wrote = true;
                }
                if post.concrete && !base.concrete {
                    self.rebound = true;
                }
            }
        }
    }
}

/// The abstract interpretation of one event variant.
#[derive(Debug, Clone)]
pub struct VariantAnalysis {
    /// The variant's display name (e.g. `"Push"`, `"session_end"`).
    pub name: &'static str,
    /// Paths the variant's `update` produces from the top state (`B`).
    pub branching: usize,
    /// Paths remaining after [`merge_paths`] (`M ≤ B`).
    pub merged: usize,
    /// The variant hit [`ANALYSIS_PATH_BOUND`] with choices outstanding.
    pub exploded: bool,
    /// First error any abstract path latched (e.g. a predicate window
    /// bound hit under the abstract state).
    pub error: Option<String>,
    /// Per-field behaviour, indexed like [`SymState::fields_ref`].
    pub deltas: Vec<FieldDelta>,
}

/// One state field's behaviour joined over every variant, plus liveness.
#[derive(Debug, Clone)]
pub struct FieldReport {
    /// Declared field name (dotted for flattened nested structs).
    pub name: String,
    /// Type family from [`FieldFacts::kind`].
    pub kind: &'static str,
    /// Declared bit width (integer fields).
    pub width: Option<u8>,
    /// Configured decision-window bound (predicate fields).
    pub max_decisions: Option<usize>,
    /// Some variant writes the field.
    pub written: bool,
    /// Some variant path rebinds the field to a concrete value.
    pub rebound: bool,
    /// A guard or predicate evaluation read the field (footprint).
    pub guard_read: bool,
    /// Perturbing the field's initial value changes `result` on some
    /// concrete replay — or the field cannot be perturbed, which the
    /// analyzer conservatively treats as "read".
    pub result_read: bool,
    /// A vector element references the field symbolically.
    pub vector_ref: bool,
    /// Largest unguarded accumulator step over all variants.
    pub growth_step: u64,
    /// Some variant leaves a multiplicative transfer.
    pub multiplicative: bool,
    /// Largest predicate decision window reached by a single record.
    pub pred_window_growth: usize,
    /// The window grows without the value ever binding.
    pub pred_left_unknown: bool,
    /// Largest per-record element append to this vector field.
    pub pushed: usize,
    /// Largest per-record *symbolic* element append.
    pub pushed_symbolic: usize,
}

impl FieldReport {
    /// Whether anything observable reads the field.
    pub fn live(&self) -> bool {
        self.guard_read || self.result_read || self.vector_ref
    }

    /// Written but never read: the `SY005` condition.
    pub fn dead(&self) -> bool {
        self.written && !self.live()
    }
}

/// The full static analysis of one UDA.
#[derive(Debug, Clone)]
pub struct UdaAnalysis {
    /// Per-field reports, in [`SymState::fields_ref`] order.
    pub fields: Vec<FieldReport>,
    /// Per-variant reports, in the caller's variant order.
    pub variants: Vec<VariantAnalysis>,
}

impl UdaAnalysis {
    /// Worst per-record branching factor over all variants (≥ 1).
    pub fn max_branching(&self) -> usize {
        self.variants
            .iter()
            .map(|v| v.branching)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Worst post-merge path count over all variants (≥ 1).
    pub fn max_merged(&self) -> usize {
        self.variants
            .iter()
            .map(|v| v.merged)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Whether any variant exceeded the analysis path bound.
    pub fn any_exploded(&self) -> bool {
        self.variants.iter().any(|v| v.exploded)
    }

    /// First abstract-run error over all variants.
    pub fn first_error(&self) -> Option<&str> {
        self.variants.iter().find_map(|v| v.error.as_deref())
    }

    /// The per-record live-path growth factor under a merge policy.
    fn growth_factor(&self, policy: MergePolicy) -> usize {
        match policy {
            MergePolicy::Never => self.max_branching(),
            MergePolicy::Eager | MergePolicy::HighWater => self.max_merged(),
        }
    }

    /// Worst-case live paths after `0..=horizon` records under `policy`,
    /// ignoring the restart fallback (the raw growth matrix).
    pub fn path_growth(&self, policy: MergePolicy, horizon: usize) -> Vec<u64> {
        let g = self.growth_factor(policy) as u64;
        let mut out = Vec::with_capacity(horizon + 1);
        let mut p = 1u64;
        out.push(p);
        for _ in 0..horizon {
            p = p.saturating_mul(g);
            out.push(p);
        }
        out
    }

    /// Upper bound on [`crate::engine::ExploreStats::max_live_paths`] for
    /// any input stream made of the analyzed variants, under `cfg`.
    ///
    /// The restart fallback guarantees at most `max_total_paths` live
    /// paths enter a record, and the analysis `B` bounds the per-path
    /// fan-out; the post-record peak is their product. `u64::MAX` when a
    /// variant exploded (its true `B` is unknown).
    pub fn predicted_max_live(&self, cfg: &EngineConfig) -> u64 {
        if self.any_exploded() {
            return u64::MAX;
        }
        (cfg.max_total_paths.max(1) as u64).saturating_mul(self.max_branching() as u64)
    }

    /// Whether the analyzer predicts the executor will refuse (report
    /// [`crate::Error::PathExplosion`]) on adversarial streams of the
    /// analyzed variants under `cfg`.
    ///
    /// This is a prediction, not a proof: the simulation assumes the
    /// worst variant repeats and that runtime merging does no better than
    /// the analysis `M`. It is used to skip doomed configurations (the
    /// oracle's `--analyze-first`), where a false negative merely runs
    /// the doomed cell anyway.
    pub fn predicts_refusal(&self, cfg: &EngineConfig) -> bool {
        if self.variants.is_empty() {
            return false;
        }
        if self.any_exploded() && cfg.max_paths_per_record <= ANALYSIS_PATH_BOUND {
            return true;
        }
        let b = self.max_branching() as u128;
        let m = (self.growth_factor(cfg.merge_policy) as u128).min(b);
        if m <= 1 {
            return false;
        }
        // Simulate the executor's live-path loop; with m ≥ 2 the restart
        // cycle repeats within ~log2(max_total) records, so 128 rounds
        // decide it.
        let mut live = 1u128;
        for _ in 0..128 {
            if live.saturating_mul(b) > cfg.max_paths_per_record as u128 {
                return true;
            }
            live = live.saturating_mul(m);
            if live > cfg.max_total_paths as u128 {
                live = 1;
            }
        }
        false
    }
}

impl EngineConfig {
    /// Derives engine tuning from a static analysis.
    ///
    /// * `B ≤ 1`: the UDA never forks — merging is pure overhead, so
    ///   `Never`.
    /// * `M < B`: sibling paths of a single record already merge;
    ///   `Eager` when they collapse completely (`M == 1`), the paper's
    ///   `HighWater` heuristic otherwise.
    /// * `M == B > 1` but some path rebinds a field: single-record
    ///   siblings stay distinct, yet rebinding paths from *different*
    ///   records converge (the Figure 3 max pattern) — `HighWater`.
    /// * otherwise nothing ever merges (the restart-prone shape): `Never`
    ///   and rely on the restart fallback.
    ///
    /// The path bounds are pre-sized from the same numbers: enough
    /// headroom for `B`-way fan-out of a full complement of live paths,
    /// clamped to sane defaults.
    pub fn from_analysis(analysis: &UdaAnalysis) -> EngineConfig {
        let b = analysis.max_branching();
        let m = analysis.max_merged();
        let rebinds = analysis.fields.iter().any(|f| f.rebound);
        let merge_policy = if b <= 1 {
            MergePolicy::Never
        } else if m == 1 {
            MergePolicy::Eager
        } else if m < b || rebinds {
            MergePolicy::HighWater
        } else {
            MergePolicy::Never
        };
        let max_total_paths = (b * m).clamp(4, 64);
        let max_paths_per_record = (max_total_paths * b).clamp(16, 1024);
        EngineConfig {
            max_paths_per_record,
            max_total_paths,
            merge_policy,
        }
    }
}

/// Abstractly interprets `uda`'s `update` once per event variant and
/// probes result liveness, producing the full [`UdaAnalysis`].
///
/// `variants` supplies one representative event per control-flow variant
/// of the UDA's event type (for an enum-of-ops event, one per op; for a
/// numeric event, representatives of the magnitude classes). The variant
/// events are also replayed concretely — in isolation, in ordered pairs
/// and concatenated twice — for the perturbation-based liveness probe.
pub fn analyze_uda<U>(uda: &U, variants: &[(&'static str, U::Event)]) -> UdaAnalysis
where
    U: Uda,
    U::Output: std::fmt::Debug,
{
    let init = uda.init();
    let names = init.field_names();
    let n = names.len();
    let mut top = init.clone();
    make_state_symbolic(&mut top);
    let base: Vec<FieldFacts> = top.fields_ref().iter().map(|f| f.facts()).collect();

    let mut guard_read = vec![false; n];
    let mut vector_ref = vec![false; n];
    let mut out_variants = Vec::with_capacity(variants.len());

    for (vname, event) in variants {
        let mut ctx = SymCtx::analysis();
        let mut paths: Vec<U::State> = Vec::new();
        let mut deltas = vec![FieldDelta::default(); n];
        let mut exploded = false;
        let mut error: Option<String> = None;
        let mut runs = 0usize;
        loop {
            runs += 1;
            let mut s = top.clone();
            ctx.begin_run();
            uda.update(&mut s, &mut ctx, event);
            for op in ctx.take_footprint() {
                if matches!(op.kind, OpKind::Guard | OpKind::PredEval) {
                    if let Some(f) = op.field {
                        if f.index() < n {
                            guard_read[f.index()] = true;
                        }
                    }
                }
            }
            match ctx.take_error() {
                Some(e) => {
                    error.get_or_insert_with(|| e.to_string());
                }
                None => {
                    for (i, (fld, b)) in s.fields_ref().iter().zip(&base).enumerate() {
                        let post = fld.facts();
                        deltas[i].absorb(b, &post);
                        for r in &post.refs {
                            if r.index() < n {
                                vector_ref[r.index()] = true;
                            }
                        }
                    }
                    paths.push(s);
                }
            }
            if paths.len() >= ANALYSIS_PATH_BOUND || runs >= ANALYSIS_RUN_BOUND {
                exploded = ctx.advance();
                break;
            }
            if !ctx.advance() {
                break;
            }
        }
        let branching = paths.len().max(1);
        merge_paths(&mut paths);
        let merged = paths.len().max(1);
        out_variants.push(VariantAnalysis {
            name: vname,
            branching,
            merged,
            exploded,
            error,
            deltas,
        });
    }

    let result_read = probe_result_reads(uda, variants, n);

    let fields = (0..n)
        .map(|i| {
            let mut r = FieldReport {
                name: names[i].clone(),
                kind: base[i].kind,
                width: base[i].width,
                max_decisions: base[i].max_decisions,
                written: false,
                rebound: false,
                guard_read: guard_read[i],
                result_read: result_read[i],
                vector_ref: vector_ref[i],
                growth_step: 0,
                multiplicative: false,
                pred_window_growth: 0,
                pred_left_unknown: false,
                pushed: 0,
                pushed_symbolic: 0,
            };
            for v in &out_variants {
                let d = &v.deltas[i];
                r.written |= d.wrote;
                r.rebound |= d.rebound;
                r.growth_step = r.growth_step.max(d.growth_step);
                r.multiplicative |= d.multiplicative;
                r.pred_window_growth = r.pred_window_growth.max(d.pred_window_growth);
                r.pred_left_unknown |= d.pred_left_unknown;
                r.pushed = r.pushed.max(d.pushed);
                r.pushed_symbolic = r.pushed_symbolic.max(d.pushed_symbolic);
            }
            r
        })
        .collect();

    UdaAnalysis {
        fields,
        variants: out_variants,
    }
}

/// Perturbation-based result liveness: field `i` is result-read if
/// perturbing it in the initial state changes the concrete output of any
/// sample replay. Fields that cannot be perturbed count as read.
fn probe_result_reads<U>(uda: &U, variants: &[(&'static str, U::Event)], n: usize) -> Vec<bool>
where
    U: Uda,
    U::Output: std::fmt::Debug,
{
    let mut seqs: Vec<Vec<&U::Event>> = vec![Vec::new()];
    for (_, e) in variants {
        seqs.push(vec![e]);
    }
    for (_, a) in variants {
        for (_, b) in variants {
            seqs.push(vec![a, b]);
        }
    }
    let all: Vec<&U::Event> = variants.iter().map(|(_, e)| e).collect();
    let mut twice = all.clone();
    twice.extend(all.iter().copied());
    seqs.push(twice);

    (0..n)
        .map(|i| {
            let mut probe = uda.init();
            if !probe.field_mut_at(i).perturb() {
                return true; // Unperturbable → conservatively read.
            }
            seqs.iter().any(|seq| {
                let baseline = replay(uda, uda.init(), seq);
                let mut init = uda.init();
                init.field_mut_at(i).perturb();
                replay(uda, init, seq) != baseline
            })
        })
        .collect()
}

/// Concrete replay for the liveness probe; `None` when the run errors.
fn replay<U>(uda: &U, mut s: U::State, seq: &[&U::Event]) -> Option<String>
where
    U: Uda,
    U::Output: std::fmt::Debug,
{
    let mut ctx = SymCtx::concrete();
    for e in seq {
        uda.update(&mut s, &mut ctx, e);
        if ctx.has_error() {
            return None;
        }
    }
    let out = uda.result(&s, &mut ctx);
    if ctx.take_error().is_some() {
        return None;
    }
    Some(format!("{out:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SymbolicExecutor;
    use crate::error::Result;
    use crate::impl_sym_state;
    use crate::state::{FieldId, SymField};
    use crate::types::scalar::ScalarTransfer;
    use crate::types::sym_bool::SymBool;
    use crate::types::sym_int::SymInt;
    use crate::types::sym_vector::SymVector;
    use crate::wire::WireError;

    struct MaxUda;

    #[derive(Clone, Debug)]
    struct MaxState {
        max: SymInt,
    }
    impl_sym_state!(MaxState { max });

    impl Uda for MaxUda {
        type State = MaxState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> MaxState {
            MaxState {
                max: SymInt::new(i64::MIN),
            }
        }
        fn update(&self, s: &mut MaxState, ctx: &mut SymCtx, e: &i64) {
            if s.max.lt(ctx, *e) {
                s.max.assign(*e);
            }
        }
        fn result(&self, s: &MaxState, _ctx: &mut SymCtx) -> i64 {
            s.max.concrete_value().unwrap_or(i64::MIN)
        }
    }

    #[test]
    fn max_uda_branching_and_liveness() {
        let a = analyze_uda(&MaxUda, &[("event", 10)]);
        assert_eq!(a.max_branching(), 2, "lt forks once from top");
        assert_eq!(a.max_merged(), 2, "assign vs identity cannot merge");
        assert!(!a.any_exploded());
        let f = &a.fields[0];
        assert_eq!(f.name, "max");
        assert_eq!(f.kind, "int");
        assert!(f.written && f.rebound);
        assert!(f.guard_read, "lt is a guard read");
        assert!(f.result_read, "result returns the max");
        assert!(!a.fields.iter().any(FieldReport::dead));
        // Rebinding paths converge across records → HighWater.
        let cfg = EngineConfig::from_analysis(&a);
        assert_eq!(cfg.merge_policy, MergePolicy::HighWater);
        assert_eq!(cfg.max_total_paths, 4);
        assert_eq!(cfg.max_paths_per_record, 16);
    }

    struct DeadFieldUda;

    #[derive(Clone, Debug)]
    struct DeadState {
        used: SymInt,
        unused: SymInt,
    }
    impl_sym_state!(DeadState { used, unused });

    impl Uda for DeadFieldUda {
        type State = DeadState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> DeadState {
            DeadState {
                used: SymInt::new(0),
                unused: SymInt::new(0),
            }
        }
        fn update(&self, s: &mut DeadState, ctx: &mut SymCtx, e: &i64) {
            s.used.add(ctx, *e);
            s.unused += 1;
        }
        fn result(&self, s: &DeadState, _ctx: &mut SymCtx) -> i64 {
            s.used.concrete_value().unwrap_or(0)
        }
    }

    #[test]
    fn dead_field_detected() {
        let a = analyze_uda(&DeadFieldUda, &[("event", 3)]);
        assert_eq!(a.max_branching(), 1);
        let unused = &a.fields[1];
        assert!(unused.written && !unused.guard_read && !unused.result_read);
        assert!(unused.dead());
        assert!(!a.fields[0].dead());
        assert_eq!(a.fields[0].growth_step, 3, "used grows by the event");
        assert_eq!(unused.growth_step, 1);
        // No forks → merging is wasted work.
        let cfg = EngineConfig::from_analysis(&a);
        assert_eq!(cfg.merge_policy, MergePolicy::Never);
    }

    struct ExplodingUda;

    #[derive(Clone, Debug)]
    struct ManyBools {
        b0: SymBool,
        b1: SymBool,
        b2: SymBool,
        b3: SymBool,
        b4: SymBool,
        b5: SymBool,
        b6: SymBool,
    }
    impl_sym_state!(ManyBools {
        b0,
        b1,
        b2,
        b3,
        b4,
        b5,
        b6
    });

    impl Uda for ExplodingUda {
        type State = ManyBools;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> ManyBools {
            ManyBools {
                b0: SymBool::new(false),
                b1: SymBool::new(false),
                b2: SymBool::new(false),
                b3: SymBool::new(false),
                b4: SymBool::new(false),
                b5: SymBool::new(false),
                b6: SymBool::new(false),
            }
        }
        fn update(&self, s: &mut ManyBools, ctx: &mut SymCtx, _e: &i64) {
            // 2^7 = 128 paths per record: hopeless.
            let _ = s.b0.get(ctx);
            let _ = s.b1.get(ctx);
            let _ = s.b2.get(ctx);
            let _ = s.b3.get(ctx);
            let _ = s.b4.get(ctx);
            let _ = s.b5.get(ctx);
            let _ = s.b6.get(ctx);
        }
        fn result(&self, _s: &ManyBools, _ctx: &mut SymCtx) -> i64 {
            0
        }
    }

    #[test]
    fn explosion_flagged_at_bound() {
        let a = analyze_uda(&ExplodingUda, &[("event", 0)]);
        assert!(a.any_exploded());
        assert_eq!(a.max_branching(), ANALYSIS_PATH_BOUND);
        assert_eq!(a.predicted_max_live(&EngineConfig::default()), u64::MAX);
        assert!(a.predicts_refusal(&EngineConfig::default()));
    }

    struct UnmergeableUda;

    #[derive(Clone, Debug)]
    struct UnmergeableState {
        v: SymInt,
    }
    impl_sym_state!(UnmergeableState { v });

    impl Uda for UnmergeableUda {
        type State = UnmergeableState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> UnmergeableState {
            UnmergeableState { v: SymInt::new(0) }
        }
        fn update(&self, s: &mut UnmergeableState, ctx: &mut SymCtx, _e: &i64) {
            if s.v.lt(ctx, 0) {
                s.v += 1;
            } else {
                s.v += 2;
            }
        }
        fn result(&self, s: &UnmergeableState, _ctx: &mut SymCtx) -> i64 {
            s.v.concrete_value().unwrap_or(0)
        }
    }

    #[test]
    fn refusal_prediction_tracks_config() {
        let a = analyze_uda(&UnmergeableUda, &[("event", 0)]);
        assert_eq!(a.max_branching(), 2);
        assert_eq!(a.max_merged(), 2, "distinct +1/+2 transfers never merge");
        // Tiny per-record bound, huge total bound: the doubling trips it.
        let doomed = EngineConfig {
            max_paths_per_record: 4,
            max_total_paths: 1_000,
            merge_policy: MergePolicy::Never,
        };
        assert!(a.predicts_refusal(&doomed));
        // Restart fallback keeps the same UDA inside a generous bound.
        let fine = EngineConfig {
            max_paths_per_record: 1_024,
            max_total_paths: 8,
            merge_policy: MergePolicy::Never,
        };
        assert!(!a.predicts_refusal(&fine));
        // Unmergeable, nothing rebinds → Never.
        let cfg = EngineConfig::from_analysis(&a);
        assert_eq!(cfg.merge_policy, MergePolicy::Never);
    }

    struct VecRefUda;

    #[derive(Clone, Debug)]
    struct VecRefState {
        n: SymInt,
        out: SymVector<i64>,
    }
    impl_sym_state!(VecRefState { n, out });

    impl Uda for VecRefUda {
        type State = VecRefState;
        type Event = i64;
        type Output = Vec<i64>;
        fn init(&self) -> VecRefState {
            VecRefState {
                n: SymInt::new(0),
                out: SymVector::new(),
            }
        }
        fn update(&self, s: &mut VecRefState, ctx: &mut SymCtx, e: &i64) {
            s.n.add(ctx, *e);
            if s.n.gt(ctx, 10) {
                s.out.push_int(&s.n);
                s.n.assign(0);
            }
        }
        fn result(&self, s: &VecRefState, _ctx: &mut SymCtx) -> Vec<i64> {
            s.out.concrete_elems().unwrap_or_default()
        }
    }

    #[test]
    fn vector_refs_keep_source_field_live() {
        let a = analyze_uda(&VecRefUda, &[("event", 4)]);
        let n = &a.fields[0];
        assert!(n.vector_ref, "n flows into the vector symbolically");
        assert!(n.rebound, "assign(0) rebinds n");
        let out = &a.fields[1];
        assert_eq!(out.kind, "vector");
        assert!(out.pushed >= 1 && out.pushed_symbolic >= 1);
        assert!(!a.fields.iter().any(FieldReport::dead));
    }

    #[test]
    fn predicted_max_live_bounds_observed_peak() {
        // Deterministic spot check of the bound the symple-analyze
        // proptest hammers with random streams.
        let a = analyze_uda(&UnmergeableUda, &[("event", 0)]);
        let cfg = EngineConfig {
            max_paths_per_record: 1_024,
            max_total_paths: 8,
            merge_policy: MergePolicy::Never,
        };
        let mut exec = SymbolicExecutor::new(&UnmergeableUda, cfg);
        for e in 0..12 {
            exec.feed(&e).unwrap();
        }
        let (_, stats) = exec.finish();
        assert!(stats.max_live_paths as u64 <= a.predicted_max_live(&cfg));
    }

    /// A field type outside the bundled set: keeps the trait's default
    /// `facts`/`perturb`, so the analyzer must fall back to conservative
    /// treatment (opaque kind, never reported dead).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct OpaqueField {
        v: i64,
    }

    impl SymField for OpaqueField {
        fn make_symbolic(&mut self, _id: FieldId) {}
        fn is_concrete(&self) -> bool {
            true
        }
        fn transfer_eq(&self, other: &dyn SymField) -> bool {
            crate::state::downcast::<OpaqueField>(other).is_some_and(|o| o == self)
        }
        fn constraint_eq(&self, _other: &dyn SymField) -> bool {
            true
        }
        fn constraint_overlaps(&self, _other: &dyn SymField) -> bool {
            true
        }
        fn union_constraint(&mut self, _other: &dyn SymField) -> bool {
            true
        }
        fn compose_onto(
            &mut self,
            _prev: &dyn SymField,
            _transfers: &crate::state::Transfers<'_>,
        ) -> Result<bool> {
            Ok(true)
        }
        fn transfer(&self) -> Option<ScalarTransfer> {
            None
        }
        fn encode_field(&self, _prev: Option<&dyn SymField>, _buf: &mut Vec<u8>) {}
        fn decode_field(
            &mut self,
            _buf: &mut &[u8],
            _id: FieldId,
            _prev: Option<&dyn SymField>,
        ) -> Result<(), WireError> {
            Ok(())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn describe(&self) -> String {
            format!("opaque({})", self.v)
        }
    }

    struct OpaqueUda;

    #[derive(Clone, Debug)]
    struct OpaqueState {
        o: OpaqueField,
    }
    impl_sym_state!(OpaqueState { o });

    impl Uda for OpaqueUda {
        type State = OpaqueState;
        type Event = i64;
        type Output = i64;
        fn init(&self) -> OpaqueState {
            OpaqueState {
                o: OpaqueField { v: 0 },
            }
        }
        fn update(&self, s: &mut OpaqueState, _ctx: &mut SymCtx, e: &i64) {
            s.o.v += *e;
        }
        fn result(&self, _s: &OpaqueState, _ctx: &mut SymCtx) -> i64 {
            0
        }
    }

    #[test]
    fn opaque_fields_are_conservative() {
        let a = analyze_uda(&OpaqueUda, &[("event", 1)]);
        let f = &a.fields[0];
        assert_eq!(f.kind, "opaque");
        // The default facts snapshot carries no canonical form, so the
        // write is invisible — conservative in the right direction (an
        // undetected write can never produce a dead-field lint).
        assert!(!f.written);
        assert!(f.result_read, "unperturbable → treated as read");
        assert!(!f.dead());
        assert!(!a.fields.iter().any(FieldReport::dead));
    }

    #[test]
    fn opaque_fields_never_agree_for_update() {
        let o = OpaqueField { v: 3 };
        // Not even with an equal copy: the trait default keeps a type the
        // engine cannot see into out of every batch window's group.
        assert!(!o.agrees_for_update(&o.clone()));
    }

    #[test]
    fn path_growth_matrix_shapes() {
        let a = analyze_uda(&UnmergeableUda, &[("event", 0)]);
        assert_eq!(a.path_growth(MergePolicy::Never, 4), vec![1, 2, 4, 8, 16]);
        let b = analyze_uda(&DeadFieldUda, &[("event", 1)]);
        assert_eq!(b.path_growth(MergePolicy::Never, 3), vec![1, 1, 1, 1]);
    }
}
