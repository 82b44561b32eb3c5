//! Validity-preserving program mutation.
//!
//! Coverage guidance only works if a program that moved an engine metric
//! can be *perturbed* rather than regenerated from scratch. Every mutation
//! here preserves well-typedness by construction (field references are
//! never retargeted across kinds; enum constants stay in domain), and the
//! result is re-checked with [`Program::typecheck`] — if a mutation ever
//! produces an ill-typed program (e.g. `wrap-if` exceeding the nesting
//! bound after repeated application), the original is returned unchanged
//! instead.

use crate::ast::{CmpOp, Cond, FieldDecl, IntArg, IntOpKind, Program, Stmt, MAX_STMTS};
use symple_core::rng::Rng64;

use super::gen::{gen_cond, gen_stmt, GenConfig};

/// Deltas applied to integer constants: small nudges to cross guard
/// boundaries, plus width-scale jumps to provoke checked-arithmetic
/// failures.
const DELTAS: [i64; 7] = [-1, 1, -2, 2, 16, 127, -128];

/// Mutates `p` into a new well-typed program.
///
/// Picks one of seven mutation operators at random and retries (with
/// fresh randomness) when the chosen operator does not apply to this
/// program shape; falls back to a verbatim clone if nothing applies.
pub fn mutate(rng: &mut Rng64, p: &Program, cfg: &GenConfig) -> Program {
    for _ in 0..8 {
        let mut out = p.clone();
        let applied = match rng.gen_range(0u32..7) {
            0 => tweak_const(rng, &mut out),
            1 => flip_op(rng, &mut out),
            2 => add_stmt(rng, &mut out, cfg),
            3 => remove_stmt(rng, &mut out),
            4 => swap_stmts(rng, &mut out),
            5 => wrap_if(rng, &mut out),
            _ => change_width(rng, &mut out),
        };
        if applied {
            match out.typecheck() {
                Ok(()) => return out,
                // Only nesting/size overflows can land here (repeated
                // wrap-if / add-stmt on a corpus program); treat the
                // operator as inapplicable and retry. Anything else is a
                // mutator bug.
                Err(e) => debug_assert!(
                    e.contains("too deep") || e.contains("too many"),
                    "mutation broke typing: {e}"
                ),
            }
        }
    }
    p.clone()
}

fn walk(block: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in block.iter_mut() {
        f(s);
        if let Stmt::If { then, els, .. } = s {
            walk(then, f);
            walk(els, f);
        }
    }
}

/// Nudges one integer constant (an [`IntArg::Const`], an
/// [`IntArg::EventMod`] modulus, or a guard threshold). Enum-domain
/// constants are deliberately excluded: nudging them would need a domain
/// clamp and adds nothing the guard thresholds don't already cover.
fn tweak_const(rng: &mut Rng64, p: &mut Program) -> bool {
    // Pass 1: count tweakable slots.
    let mut slots = 0usize;
    let count_arg = |slots: &mut usize, a: &IntArg| {
        if matches!(a, IntArg::Const(_) | IntArg::EventMod(_)) {
            *slots += 1;
        }
    };
    walk(&mut p.body.clone(), &mut |s| match s {
        Stmt::IntOp { arg, .. }
        | Stmt::IntSet { arg, .. }
        | Stmt::MinMaxUpd { arg, .. }
        | Stmt::MinMaxSet { arg, .. }
        | Stmt::PredSet { arg, .. }
        | Stmt::VecPush { arg, .. } => count_arg(&mut slots, arg),
        Stmt::If { cond, .. } => match cond {
            Cond::Int { .. } | Cond::MinMax { .. } | Cond::Event { .. } => slots += 1,
            Cond::Pred { arg, .. } => count_arg(&mut slots, arg),
            Cond::Bool { .. } | Cond::Enum { .. } => {}
        },
        Stmt::BoolSet { .. } | Stmt::EnumSet { .. } | Stmt::VecPushInt { .. } => {}
    });
    if slots == 0 {
        return false;
    }

    // Pass 2: rewrite the chosen slot.
    let target = rng.gen_range(0usize..slots);
    let delta = DELTAS[rng.gen_range(0usize..DELTAS.len())];
    let mut idx = 0usize;
    let tweak_arg = |idx: &mut usize, a: &mut IntArg| match a {
        IntArg::Const(c) => {
            if *idx == target {
                *c = c.wrapping_add(delta);
            }
            *idx += 1;
        }
        IntArg::EventMod(k) => {
            if *idx == target {
                *k = k.wrapping_add(delta).clamp(1, 16);
            }
            *idx += 1;
        }
        IntArg::Event => {}
    };
    walk(&mut p.body, &mut |s| match s {
        Stmt::IntOp { arg, .. }
        | Stmt::IntSet { arg, .. }
        | Stmt::MinMaxUpd { arg, .. }
        | Stmt::MinMaxSet { arg, .. }
        | Stmt::PredSet { arg, .. }
        | Stmt::VecPush { arg, .. } => tweak_arg(&mut idx, arg),
        Stmt::If { cond, .. } => match cond {
            Cond::Int { k, .. } | Cond::MinMax { k, .. } | Cond::Event { k, .. } => {
                if idx == target {
                    *k = k.wrapping_add(delta);
                }
                idx += 1;
            }
            Cond::Pred { arg, .. } => tweak_arg(&mut idx, arg),
            Cond::Bool { .. } | Cond::Enum { .. } => {}
        },
        Stmt::BoolSet { .. } | Stmt::EnumSet { .. } | Stmt::VecPushInt { .. } => {}
    });
    true
}

fn next_cmp(op: CmpOp, order_only: bool) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Le,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Ge,
        CmpOp::Ge if order_only => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Eq,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Lt,
    }
}

/// Rotates one operator: an arithmetic op, or a comparison in a guard.
/// MinMax guards rotate within the order operators only (`Eq`/`Ne` are
/// ill-typed there).
fn flip_op(rng: &mut Rng64, p: &mut Program) -> bool {
    let mut slots = 0usize;
    walk(&mut p.body.clone(), &mut |s| match s {
        Stmt::IntOp { .. } => slots += 1,
        Stmt::If { cond, .. } => {
            if matches!(
                cond,
                Cond::Int { .. } | Cond::MinMax { .. } | Cond::Event { .. } | Cond::Enum { .. }
            ) {
                slots += 1;
            }
        }
        _ => {}
    });
    if slots == 0 {
        return false;
    }
    let target = rng.gen_range(0usize..slots);
    let mut idx = 0usize;
    walk(&mut p.body, &mut |s| match s {
        Stmt::IntOp { op, .. } => {
            if idx == target {
                *op = match op {
                    IntOpKind::Add => IntOpKind::Sub,
                    IntOpKind::Sub => IntOpKind::Mul,
                    IntOpKind::Mul => IntOpKind::Rsub,
                    IntOpKind::Rsub => IntOpKind::Add,
                };
            }
            idx += 1;
        }
        Stmt::If { cond, .. } => match cond {
            Cond::Int { op, .. } | Cond::Event { op, .. } => {
                if idx == target {
                    *op = next_cmp(*op, false);
                }
                idx += 1;
            }
            Cond::MinMax { op, .. } => {
                if idx == target {
                    *op = next_cmp(*op, true);
                }
                idx += 1;
            }
            Cond::Enum { eq, .. } => {
                if idx == target {
                    *eq = !*eq;
                }
                idx += 1;
            }
            Cond::Bool { .. } | Cond::Pred { .. } => {}
        },
        _ => {}
    });
    true
}

/// Inserts a freshly generated statement at a random top-level position.
fn add_stmt(rng: &mut Rng64, p: &mut Program, cfg: &GenConfig) -> bool {
    if p.body.len() >= cfg.max_stmts.clamp(1, MAX_STMTS) {
        return false;
    }
    let s = gen_stmt(rng, &p.fields, cfg.max_depth.saturating_sub(1));
    let at = rng.gen_range(0usize..=p.body.len());
    p.body.insert(at, s);
    true
}

/// Drops a random top-level statement (never the last one — an empty body
/// is a degenerate program the generator never produces).
fn remove_stmt(rng: &mut Rng64, p: &mut Program) -> bool {
    if p.body.len() < 2 {
        return false;
    }
    let at = rng.gen_range(0usize..p.body.len());
    p.body.remove(at);
    true
}

/// Swaps two top-level statements — statement order is semantically
/// significant (resets vs accumulation), so this probes order bugs.
fn swap_stmts(rng: &mut Rng64, p: &mut Program) -> bool {
    if p.body.len() < 2 {
        return false;
    }
    let a = rng.gen_range(0usize..p.body.len());
    let b = rng.gen_range(0usize..p.body.len());
    if a == b {
        return false;
    }
    p.body.swap(a, b);
    true
}

/// Guards a random top-level statement with a fresh condition, turning an
/// unconditional update into a forking one.
fn wrap_if(rng: &mut Rng64, p: &mut Program) -> bool {
    if p.body.is_empty() {
        return false;
    }
    let at = rng.gen_range(0usize..p.body.len());
    let cond = gen_cond(rng, &p.fields);
    let old = p.body[at].clone();
    p.body[at] = Stmt::If {
        cond,
        then: vec![old],
        els: Vec::new(),
    };
    true
}

/// Re-declares one int field at a different width. Narrowing a width is
/// the cheapest way to turn a benign accumulator into an overflow-prone
/// one (and vice versa); declared inits are small, so any width fits.
fn change_width(rng: &mut Rng64, p: &mut Program) -> bool {
    let ints: Vec<usize> = p
        .fields
        .iter()
        .enumerate()
        .filter(|(_, d)| matches!(d, FieldDecl::Int { .. }))
        .map(|(i, _)| i)
        .collect();
    if ints.is_empty() {
        return false;
    }
    let f = ints[rng.gen_range(0usize..ints.len())];
    let FieldDecl::Int { width, init } = p.fields[f] else {
        unreachable!()
    };
    const WIDTHS: [u8; 4] = [8, 16, 32, 64];
    let new = WIDTHS[rng.gen_range(0usize..WIDTHS.len())];
    if new == width {
        return false;
    }
    // Clamp the init into the new width so the declaration stays valid
    // even for corpus programs with unusual inits.
    let bound = if new == 64 {
        i64::MAX
    } else {
        (1i64 << (new - 1)) - 1
    };
    p.fields[f] = FieldDecl::Int {
        width: new,
        init: init.clamp(-bound - 1, bound),
    };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::gen_program;

    #[test]
    fn mutation_preserves_well_typedness() {
        let cfg = GenConfig::default();
        let mut rng = Rng64::seed_from_u64(21);
        for _ in 0..100 {
            let p = gen_program(&mut rng, &cfg);
            let mut q = p.clone();
            // Chains of mutations stay well-typed, not just single steps.
            for _ in 0..10 {
                q = mutate(&mut rng, &q, &cfg);
                q.typecheck().expect("mutation must preserve typing");
            }
        }
    }

    #[test]
    fn mutation_is_deterministic_and_usually_changes_the_program() {
        let cfg = GenConfig::default();
        let mut gen_rng = Rng64::seed_from_u64(3);
        let p = gen_program(&mut gen_rng, &cfg);
        let mut a = Rng64::seed_from_u64(9);
        let mut b = Rng64::seed_from_u64(9);
        let mut changed = 0;
        for _ in 0..50 {
            let qa = mutate(&mut a, &p, &cfg);
            let qb = mutate(&mut b, &p, &cfg);
            assert_eq!(qa, qb);
            if qa != p {
                changed += 1;
            }
        }
        assert!(
            changed >= 40,
            "only {changed}/50 mutations changed anything"
        );
    }

    #[test]
    fn single_statement_single_field_program_still_mutates() {
        // The smallest generator output: every operator must either apply
        // or cleanly report inapplicable (no panic, no type break).
        let p = Program::parse_token("fields[i8=0] body[(iadd 0 ev)]").unwrap();
        let cfg = GenConfig::default();
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..50 {
            mutate(&mut rng, &p, &cfg).typecheck().unwrap();
        }
    }
}
