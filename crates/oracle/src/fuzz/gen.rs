//! Random well-typed [`Program`] generation.
//!
//! Programs are correct *by construction*: every statement and guard is
//! generated against the field table it references, so [`Program::typecheck`]
//! always passes (asserted in debug builds and re-checked by the proptest
//! suite). The distribution is deliberately skewed toward the shapes the
//! engine finds hard — narrow-width accumulators that overflow, forking
//! guards over symbolic state, resets that truncate summaries, and vector
//! pushes of still-symbolic integers.

use crate::ast::{CmpOp, Cond, FieldDecl, IntArg, IntOpKind, PredKind, Program, Stmt, MAX_STMTS};
use symple_core::rng::Rng64;

/// Size bounds for generated programs.
///
/// The defaults are intentionally small: SYMPLE's interesting behavior
/// (forks, merges, restarts, refusals) shows up within a handful of
/// statements, and small programs keep every sweep cell fast and every
/// shrunk artifact readable.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Fields per program (at least 1 is always generated).
    pub max_fields: usize,
    /// Top-level statements per program.
    pub max_stmts: usize,
    /// Branch-nesting depth.
    pub max_depth: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_fields: 4,
            max_stmts: 8,
            max_depth: 2,
        }
    }
}

/// Integer widths the generator draws from. Narrow widths are the
/// overflow-prone accumulators the issue calls for; the engine refuses
/// them conservatively under symbolic execution, which is itself a
/// behavior class worth covering.
const WIDTHS: [u8; 4] = [8, 16, 32, 64];

/// One program in this many opens with the gap detector behind B1, B2
/// and R3: a predicate guard that pushes the event to a vector, then the
/// predicate takes the event. From the second record on its two paths
/// differ only in that vector and in the guard's first decision, so a
/// batch window runs them once and replays the vector's tail onto the
/// other; the rest of the body is random as usual.
const GAP_SHAPE_ONE_IN: u32 = 4;

/// Generates one random well-typed program.
pub fn gen_program(rng: &mut Rng64, cfg: &GenConfig) -> Program {
    let gap_shape = cfg.max_fields >= 2 && rng.gen_range(0..GAP_SHAPE_ONE_IN) == 0;
    let nfields = rng.gen_range(1 + usize::from(gap_shape)..=cfg.max_fields.max(1));
    let mut fields: Vec<FieldDecl> = (0..nfields).map(|_| gen_field(rng)).collect();
    let mut body = Vec::new();
    if gap_shape {
        fields[0] = gen_pred(rng);
        fields[1] = FieldDecl::Vec;
        body.push(Stmt::If {
            cond: Cond::Pred {
                f: 0,
                arg: IntArg::Event,
            },
            then: vec![Stmt::VecPush {
                f: 1,
                arg: IntArg::Event,
            }],
            els: Vec::new(),
        });
        body.push(Stmt::PredSet {
            f: 0,
            arg: IntArg::Event,
        });
    }

    let nstmts = rng.gen_range(1..=cfg.max_stmts.clamp(1, MAX_STMTS));
    body.extend((0..nstmts).map(|_| gen_stmt(rng, &fields, cfg.max_depth)));

    let p = Program { fields, body };
    debug_assert!(p.typecheck().is_ok(), "generator broke typing: {p:?}");
    p
}

fn gen_field(rng: &mut Rng64) -> FieldDecl {
    // Ints dominate: checked arithmetic over narrow widths is the richest
    // bug surface (overflow, conservative refusal, salvage).
    match rng.gen_range(0u32..8) {
        0..=2 => FieldDecl::Int {
            width: WIDTHS[rng.gen_range(0usize..WIDTHS.len())],
            init: rng.gen_range(-4i64..=4),
        },
        3 => FieldDecl::Bool {
            init: rng.gen_bool(0.5),
        },
        4 => {
            let domain = rng.gen_range(2u32..=8);
            FieldDecl::Enum {
                domain,
                init: rng.gen_range(0u32..domain),
            }
        }
        5 => FieldDecl::MinMax {
            max: rng.gen_bool(0.5),
        },
        6 => gen_pred(rng),
        _ => FieldDecl::Vec,
    }
}

fn gen_pred(rng: &mut Rng64) -> FieldDecl {
    FieldDecl::Pred {
        kind: match rng.gen_range(0u32..3) {
            0 => PredKind::Lt,
            1 => PredKind::Le,
            _ => PredKind::Gt,
        },
        window: rng.gen_range(2usize..=4),
    }
}

/// A random operand: mostly the event (data-dependent updates are what
/// make summaries non-trivial), sometimes a reduced event or a constant.
pub(crate) fn gen_arg(rng: &mut Rng64) -> IntArg {
    match rng.gen_range(0u32..6) {
        0..=2 => IntArg::Event,
        3 => IntArg::EventMod(rng.gen_range(2i64..=9)),
        _ => IntArg::Const(rng.gen_range(-8i64..=8)),
    }
}

fn gen_cmp(rng: &mut Rng64, order_only: bool) -> CmpOp {
    let n = if order_only { 4 } else { 6 };
    match rng.gen_range(0u32..n) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        4 => CmpOp::Eq,
        _ => CmpOp::Ne,
    }
}

/// A random guard that is well-typed against `fields`.
pub(crate) fn gen_cond(rng: &mut Rng64, fields: &[FieldDecl]) -> Cond {
    // Event guards never fork; state guards usually do. Bias toward state
    // guards — forks are the behavior under test.
    if rng.gen_bool(0.25) {
        return Cond::Event {
            op: gen_cmp(rng, false),
            k: rng.gen_range(-8i64..=8),
        };
    }
    let f = rng.gen_range(0usize..fields.len());
    match fields[f] {
        FieldDecl::Int { .. } => Cond::Int {
            f,
            op: gen_cmp(rng, false),
            k: rng.gen_range(-8i64..=8),
        },
        FieldDecl::MinMax { .. } => Cond::MinMax {
            f,
            op: gen_cmp(rng, true),
            k: rng.gen_range(-8i64..=8),
        },
        FieldDecl::Bool { .. } => Cond::Bool { f },
        FieldDecl::Enum { domain, .. } => Cond::Enum {
            f,
            eq: rng.gen_bool(0.5),
            c: rng.gen_range(0u32..domain),
        },
        FieldDecl::Pred { .. } => Cond::Pred {
            f,
            arg: gen_arg(rng),
        },
        // Vectors have no guard form; fall back to an event guard.
        FieldDecl::Vec => Cond::Event {
            op: gen_cmp(rng, false),
            k: rng.gen_range(-8i64..=8),
        },
    }
}

/// A random statement that is well-typed against `fields`. `depth` bounds
/// further `if` nesting.
pub(crate) fn gen_stmt(rng: &mut Rng64, fields: &[FieldDecl], depth: usize) -> Stmt {
    if depth > 0 && rng.gen_bool(0.25) {
        let then_n = rng.gen_range(1usize..=2);
        let els_n = rng.gen_range(0usize..=2);
        return Stmt::If {
            cond: gen_cond(rng, fields),
            then: (0..then_n)
                .map(|_| gen_stmt(rng, fields, depth - 1))
                .collect(),
            els: (0..els_n)
                .map(|_| gen_stmt(rng, fields, depth - 1))
                .collect(),
        };
    }

    let f = rng.gen_range(0usize..fields.len());
    match fields[f] {
        FieldDecl::Int { .. } => {
            // Arithmetic dominates; resets are the rarer (but summary-
            // truncating, so important) shape.
            if rng.gen_bool(0.8) {
                Stmt::IntOp {
                    f,
                    op: match rng.gen_range(0u32..8) {
                        0..=4 => IntOpKind::Add,
                        5 => IntOpKind::Sub,
                        6 => IntOpKind::Mul,
                        _ => IntOpKind::Rsub,
                    },
                    arg: gen_arg(rng),
                }
            } else {
                Stmt::IntSet {
                    f,
                    arg: gen_arg(rng),
                }
            }
        }
        FieldDecl::Bool { .. } => Stmt::BoolSet {
            f,
            v: rng.gen_bool(0.5),
        },
        FieldDecl::Enum { domain, .. } => Stmt::EnumSet {
            f,
            c: rng.gen_range(0u32..domain),
        },
        FieldDecl::MinMax { .. } => {
            if rng.gen_bool(0.85) {
                Stmt::MinMaxUpd {
                    f,
                    arg: gen_arg(rng),
                }
            } else {
                Stmt::MinMaxSet {
                    f,
                    arg: gen_arg(rng),
                }
            }
        }
        FieldDecl::Pred { .. } => Stmt::PredSet {
            f,
            arg: gen_arg(rng),
        },
        FieldDecl::Vec => {
            // Prefer pushing a (possibly symbolic) int field when one
            // exists: symbolic vector elements stress summary substitution.
            let ints: Vec<usize> = fields
                .iter()
                .enumerate()
                .filter(|(_, d)| matches!(d, FieldDecl::Int { .. }))
                .map(|(i, _)| i)
                .collect();
            if !ints.is_empty() && rng.gen_bool(0.6) {
                Stmt::VecPushInt {
                    f,
                    src: ints[rng.gen_range(0usize..ints.len())],
                }
            } else {
                Stmt::VecPush {
                    f,
                    arg: gen_arg(rng),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_typecheck_and_round_trip() {
        let cfg = GenConfig::default();
        let mut rng = Rng64::seed_from_u64(11);
        for _ in 0..200 {
            let p = gen_program(&mut rng, &cfg);
            p.typecheck().expect("generated program must typecheck");
            let reparsed = Program::parse_token(&p.to_token()).expect("token must parse");
            assert_eq!(p, reparsed);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let mut a = Rng64::seed_from_u64(5);
        let mut b = Rng64::seed_from_u64(5);
        for _ in 0..50 {
            assert_eq!(gen_program(&mut a, &cfg), gen_program(&mut b, &cfg));
        }
    }

    #[test]
    fn generator_reaches_every_field_kind_and_branches() {
        let cfg = GenConfig {
            max_fields: 6,
            ..GenConfig::default()
        };
        let mut rng = Rng64::seed_from_u64(1);
        let mut kinds = std::collections::BTreeSet::new();
        let mut saw_if = false;
        for _ in 0..300 {
            let p = gen_program(&mut rng, &cfg);
            for f in &p.fields {
                kinds.insert(f.kind_str());
            }
            saw_if |= p.body.iter().any(|s| matches!(s, Stmt::If { .. }));
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            vec!["bool", "enum", "int", "minmax", "pred", "vec"]
        );
        assert!(saw_if, "300 programs with no branch — distribution broken");
    }
}
