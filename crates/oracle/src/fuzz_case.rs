//! Fuzz cases: generated [`Program`] UDAs paired with adversarial input
//! generators, exposed through the same [`DynCase`] interface as the
//! registry cases so the sweep driver, shrinker, and artifact replayer
//! work on them unchanged.
//!
//! Unlike registry cases, a fuzz case cannot be looked up by id — there
//! are infinitely many of them — so its artifact embeds the serialized
//! program (`program:` key) and the input-generator token (`input-kind:`
//! key). [`replay_case`] rebuilds the exact case from those two tokens.

use symple_core::rng::Rng64;

use crate::ast::{AstUda, Program};
use crate::case::{DynCase, UdaCase};

/// Case id shared by every generated case (the program token, not the
/// id, is what identifies a fuzz case).
pub const FUZZ_CASE_ID: &str = "FUZZ";

/// Adversarial event-stream shapes the fuzzer drives programs with.
///
/// Each shape targets a different class of engine bug: skew stresses
/// merge dedup, boundaries stress checked arithmetic and width clamping,
/// near-empty streams stress empty-chunk summarization and composition
/// identities, and sorted/reversed streams stress order-sensitive
/// accumulators (min/max, latching predicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Small uniform values — the baseline shape.
    Uniform,
    /// 90% drawn from `{0, 1}`, 10% huge (±2⁴⁰) outliers.
    Skewed,
    /// Values drawn from an extremes pool (`i64::MAX`, width boundaries,
    /// 0, ±1, …).
    Boundary,
    /// At most two events regardless of requested length, so multi-chunk
    /// cells summarize mostly-empty chunks.
    EmptyChunk,
    /// Uniform values in ascending order.
    Sorted,
    /// Uniform values in descending order.
    Reversed,
}

impl InputKind {
    /// Every shape, in the order the fuzzer cycles through them.
    pub const ALL: [InputKind; 6] = [
        InputKind::Uniform,
        InputKind::Skewed,
        InputKind::Boundary,
        InputKind::EmptyChunk,
        InputKind::Sorted,
        InputKind::Reversed,
    ];

    /// Stable artifact token.
    pub fn as_str(self) -> &'static str {
        match self {
            InputKind::Uniform => "uniform",
            InputKind::Skewed => "skewed",
            InputKind::Boundary => "boundary",
            InputKind::EmptyChunk => "empty-chunk",
            InputKind::Sorted => "sorted",
            InputKind::Reversed => "reversed",
        }
    }

    /// Parses an artifact token.
    pub fn parse(s: &str) -> Option<InputKind> {
        InputKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Per-shape seed salt, so the same case seed yields independent
    /// streams per shape.
    fn salt(self) -> u64 {
        // Arbitrary distinct odd constants; never change them — committed
        // corpus artifacts depend on the streams they select.
        match self {
            InputKind::Uniform => 0x9e37_79b9_7f4a_7c15,
            InputKind::Skewed => 0xbf58_476d_1ce4_e5b9,
            InputKind::Boundary => 0x94d0_49bb_1331_11eb,
            InputKind::EmptyChunk => 0x2545_f491_4f6c_dd1d,
            InputKind::Sorted => 0xd6e8_feb8_6659_fd93,
            InputKind::Reversed => 0xca5a_8263_95ee_4d6f,
        }
    }

    /// Deterministically generates the event stream for `(seed, len)`.
    pub fn generate(self, seed: u64, len: usize) -> Vec<i64> {
        let mut rng = Rng64::seed_from_u64(seed ^ self.salt());
        let uniform = |rng: &mut Rng64, n: usize| -> Vec<i64> {
            (0..n).map(|_| rng.gen_range(-64i64..=64)).collect()
        };
        match self {
            InputKind::Uniform => uniform(&mut rng, len),
            InputKind::Skewed => (0..len)
                .map(|_| {
                    if rng.gen_bool(0.9) {
                        i64::from(rng.gen_bool(0.5))
                    } else {
                        let huge = 1i64 << 40;
                        if rng.gen_bool(0.5) {
                            huge
                        } else {
                            -huge
                        }
                    }
                })
                .collect(),
            InputKind::Boundary => {
                // Signed-width boundaries for every generated int width,
                // plus the values most likely to trip checked arithmetic.
                const POOL: [i64; 14] = [
                    i64::MAX,
                    i64::MIN + 1,
                    i64::MAX / 2,
                    0,
                    1,
                    -1,
                    2,
                    127,
                    -128,
                    128,
                    32_767,
                    -32_768,
                    i32::MAX as i64,
                    i32::MIN as i64,
                ];
                (0..len)
                    .map(|_| POOL[rng.gen_range(0usize..POOL.len())])
                    .collect()
            }
            InputKind::EmptyChunk => uniform(&mut rng, len.min(2)),
            InputKind::Sorted => {
                let mut v = uniform(&mut rng, len);
                v.sort_unstable();
                v
            }
            InputKind::Reversed => {
                let mut v = uniform(&mut rng, len);
                v.sort_unstable_by(|a, b| b.cmp(a));
                v
            }
        }
    }
}

/// Wraps a generated program and input shape as a sweepable case: an
/// [`AstUda`] behind the standard [`UdaCase`] machinery, carrying the two
/// artifact tokens that make it replayable.
///
/// The tree-composition opt-out is decided *deterministically from the
/// program itself* (via the static analyzer): any program whose abstract
/// update can branch opts out of [`crate::cell::ExecutorKind::ChunkedTree`]
/// cells, because symbolic composition of restart-heavy multi-summary
/// chains is exponential — those cells would hang, not disagree. Replay
/// re-derives the same decision from the embedded token, so a shrunk
/// artifact always re-runs the cells the fuzzer ran.
pub fn program_case(
    program: Program,
    kind: InputKind,
) -> std::result::Result<Box<dyn DynCase>, String> {
    program.typecheck()?;
    let token = program.to_token();
    let variants = program.variants();
    let uda = AstUda::new(program);
    let analysis = symple_core::analyze_uda(&uda, &variants);
    let mut case = UdaCase::new(FUZZ_CASE_ID, uda, move |seed, len| kind.generate(seed, len))
        .with_variants(variants)
        .with_tokens(token, kind.as_str());
    if analysis.max_branching() > 1 || analysis.any_exploded() {
        case = case.without_tree_compose();
    }
    Ok(Box::new(case))
}

/// Rebuilds a fuzz case from artifact tokens (`program:` plus optional
/// `input-kind:`, defaulting to [`InputKind::Uniform`]).
pub fn replay_case(
    program_token: &str,
    input_kind: Option<&str>,
) -> std::result::Result<Box<dyn DynCase>, String> {
    let program = Program::parse_token(program_token)?;
    let kind = match input_kind {
        None => InputKind::Uniform,
        Some(s) => InputKind::parse(s).ok_or_else(|| format!("unknown input kind {s:?}"))?,
    };
    program_case(program, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, ExecutorKind};

    #[test]
    fn input_kind_tokens_round_trip() {
        for k in InputKind::ALL {
            assert_eq!(InputKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(InputKind::parse("bogus"), None);
    }

    #[test]
    fn generators_are_deterministic_and_shaped() {
        for k in InputKind::ALL {
            assert_eq!(k.generate(7, 40), k.generate(7, 40), "{k:?}");
            assert_ne!(
                InputKind::Uniform.generate(7, 40),
                InputKind::Uniform.generate(8, 40)
            );
        }
        let sorted = InputKind::Sorted.generate(3, 50);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let reversed = InputKind::Reversed.generate(3, 50);
        assert!(reversed.windows(2).all(|w| w[0] >= w[1]));
        assert!(InputKind::EmptyChunk.generate(3, 50).len() <= 2);
        assert_eq!(InputKind::Boundary.generate(3, 50).len(), 50);
        // Distinct kinds see distinct streams for the same seed.
        assert_ne!(
            InputKind::Uniform.generate(7, 40),
            InputKind::Sorted.generate(7, 40)
        );
    }

    #[test]
    fn straight_line_program_keeps_tree_cells() {
        let p = Program::parse_token("fields[i64=0] body[(iadd 0 ev)]").unwrap();
        let case = program_case(p, InputKind::Uniform).unwrap();
        let tree = Cell {
            executor: ExecutorKind::ChunkedTree,
            ..Cell::default_chunked(3)
        };
        assert!(case.supports(&tree));
        assert_eq!(case.id(), FUZZ_CASE_ID);
        assert_eq!(case.input_kind_token().as_deref(), Some("uniform"));
    }

    #[test]
    fn branching_program_opts_out_of_tree_cells() {
        let p =
            Program::parse_token("fields[i64=0] body[(if (igt 0 5) [(iset 0 0)] [(iadd 0 ev)])]")
                .unwrap();
        let case = program_case(p, InputKind::Skewed).unwrap();
        let tree = Cell {
            executor: ExecutorKind::ChunkedTree,
            ..Cell::default_chunked(3)
        };
        assert!(!case.supports(&tree));
        // And replay from the embedded tokens derives the same decision.
        let replayed = replay_case(
            &case.program_token().unwrap(),
            case.input_kind_token().as_deref(),
        )
        .unwrap();
        assert!(!replayed.supports(&tree));
    }

    #[test]
    fn replay_rejects_bad_tokens() {
        assert!(replay_case("fields[", None).is_err());
        assert!(replay_case("fields[i64=0] body[]", Some("bogus")).is_err());
    }
}
