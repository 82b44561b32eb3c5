//! Delta-debugging shrinker: reduces a failing `(input, cell)` pair to a
//! minimal reproducer.
//!
//! Input minimization is ddmin over *kept indices* into the seed-generated
//! event stream — the artifact then stores `(seed, len, kept)` instead of
//! raw events and stays self-contained. Config minimization follows:
//! each knob is reset toward the simplest value that still fails, and the
//! chunk count is lowered to the smallest failing value.

use crate::case::CaseInput;
use crate::cell::{Cell, ExecutorKind, FaultKind};
use symple_core::engine::MergePolicy;

/// The failure predicate: `true` means "(input, cell) still reproduces
/// the disagreement". Must be deterministic.
pub type Fails<'p> = &'p dyn Fn(&CaseInput, &Cell) -> bool;

fn with_kept(input: &CaseInput, kept: Vec<usize>) -> CaseInput {
    CaseInput {
        kept: Some(kept),
        ..input.clone()
    }
}

/// ddmin-style reduction of the kept-index set.
fn shrink_input(input: &CaseInput, cell: &Cell, fails: Fails) -> CaseInput {
    let mut kept: Vec<usize> = input
        .kept
        .clone()
        .unwrap_or_else(|| (0..input.len).collect());

    // Coarse pass: repeatedly try dropping contiguous blocks, halving the
    // block size whenever no block can be dropped. Terminates because
    // every iteration either shrinks `kept` or shrinks `block`, and a
    // dropless singles pass (block == 1) is a fixpoint. An already-empty
    // kept set is a fixpoint too — nothing to drop.
    let mut block = kept.len().div_ceil(2).max(1);
    while !kept.is_empty() {
        let mut start = 0;
        let mut dropped_any = false;
        while start < kept.len() {
            let end = (start + block).min(kept.len());
            let candidate: Vec<usize> = kept[..start].iter().chain(&kept[end..]).copied().collect();
            if fails(&with_kept(input, candidate.clone()), cell) {
                kept = candidate;
                dropped_any = true;
                // Retry the same position: the next block slid into it.
            } else {
                start = end;
            }
        }
        if !dropped_any {
            if block == 1 {
                break;
            }
            block /= 2;
        }
        // After drops, `kept` may now be shorter than `block`; the inner
        // pass clamps `end`, so an oversized block degrades to one
        // drop-everything attempt rather than an out-of-bounds slice.
    }
    with_kept(input, kept)
}

/// Resets each config knob toward its simplest value, keeping a change
/// only when the failure persists, then minimizes the chunk count.
fn shrink_cell(input: &CaseInput, cell: &Cell, fails: Fails) -> Cell {
    let mut best = *cell;

    let try_cell = |candidate: Cell, best: &mut Cell| {
        if candidate != *best && fails(input, &candidate) {
            *best = candidate;
        }
    };

    try_cell(
        Cell {
            faults: FaultKind::None,
            ..best
        },
        &mut best,
    );
    try_cell(
        Cell {
            executor: ExecutorKind::ChunkedSymbolic,
            faults: FaultKind::None,
            ..best
        },
        &mut best,
    );
    try_cell(
        Cell {
            merge_policy: MergePolicy::HighWater,
            ..best
        },
        &mut best,
    );
    try_cell(
        Cell {
            max_total_paths: 8,
            ..best
        },
        &mut best,
    );
    try_cell(
        Cell {
            first_segment_concrete: true,
            ..best
        },
        &mut best,
    );
    for chunks in 1..best.chunks {
        let candidate = Cell { chunks, ..best };
        if fails(input, &candidate) {
            best = candidate;
            break;
        }
    }
    best
}

/// Shrinks a failing pair to a minimal reproducer. The returned pair is
/// guaranteed to still satisfy `fails` (the original is returned if no
/// reduction helps).
pub fn shrink_case(input: &CaseInput, cell: &Cell, fails: Fails) -> (CaseInput, Cell) {
    debug_assert!(fails(input, cell), "shrink_case needs a failing start");
    let input = shrink_input(input, cell, fails);
    let cell = shrink_cell(&input, cell, fails);
    // Config changes can unlock further input reduction (e.g. fewer
    // chunks → fewer boundary events needed); one more input pass is
    // cheap and often pays.
    let input = shrink_input(&input, &cell, fails);
    (input, cell)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_of(input: &CaseInput) -> Vec<usize> {
        input.filter((0..input.len).collect())
    }

    #[test]
    fn shrinks_to_single_culprit() {
        // Fails iff event 13 is present.
        let fails = |i: &CaseInput, _c: &Cell| events_of(i).contains(&13);
        let input = CaseInput::full(0, 100);
        let cell = Cell::default_chunked(4);
        let (min_input, _) = shrink_case(&input, &cell, &fails);
        assert_eq!(min_input.kept, Some(vec![13]));
    }

    #[test]
    fn shrinks_to_interacting_pair() {
        // Fails iff both 5 and 70 survive — ddmin's classic case.
        let fails = |i: &CaseInput, _c: &Cell| {
            let e = events_of(i);
            e.contains(&5) && e.contains(&70)
        };
        let input = CaseInput::full(0, 90);
        let cell = Cell::default_chunked(2);
        let (min_input, _) = shrink_case(&input, &cell, &fails);
        assert_eq!(min_input.kept, Some(vec![5, 70]));
    }

    #[test]
    fn minimizes_config_knobs() {
        // Fails whenever ≥ 2 chunks, regardless of everything else.
        let fails = |_i: &CaseInput, c: &Cell| c.chunks >= 2;
        let input = CaseInput::full(0, 10);
        let cell = Cell {
            executor: ExecutorKind::ChunkedTree,
            chunks: 8,
            merge_policy: MergePolicy::Never,
            max_total_paths: 2,
            first_segment_concrete: false,
            faults: FaultKind::FailTwice,
        };
        let (_, min_cell) = shrink_case(&input, &cell, &fails);
        assert_eq!(min_cell.chunks, 2);
        assert_eq!(min_cell.executor, ExecutorKind::ChunkedSymbolic);
        assert_eq!(min_cell.faults, FaultKind::None);
        assert_eq!(min_cell.merge_policy, MergePolicy::HighWater);
        assert_eq!(min_cell.max_total_paths, 8);
        assert!(min_cell.first_segment_concrete);
    }

    #[test]
    fn zero_length_input_terminates_immediately() {
        // A generated case can fail on the empty stream (e.g. a result
        // extractor that errors on init state). There is nothing to drop
        // and nothing to loop on.
        let calls = std::cell::Cell::new(0u32);
        let fails = |_: &CaseInput, _: &Cell| {
            calls.set(calls.get() + 1);
            true
        };
        let (min_input, min_cell) =
            shrink_case(&CaseInput::full(1, 0), &Cell::default_chunked(4), &fails);
        assert_eq!(min_input.effective_len(), 0);
        assert_eq!(min_cell.chunks, 1);
        // Knob minimization probes a handful of cells; the input passes
        // must not contribute unbounded work.
        assert!(calls.get() < 32, "shrinker looped: {} calls", calls.get());
    }

    #[test]
    fn already_empty_kept_set_is_a_fixpoint() {
        let fails = |_: &CaseInput, _: &Cell| true;
        let start = CaseInput {
            seed: 5,
            len: 40,
            kept: Some(vec![]),
        };
        let (min_input, _) = shrink_case(&start, &Cell::default_chunked(3), &fails);
        assert_eq!(min_input.kept, Some(vec![]));
    }

    #[test]
    fn single_chunk_cell_skips_chunk_minimization() {
        // chunks == 1 leaves the chunk loop with an empty range; the cell
        // must come back untouched rather than looping or panicking.
        let fails = |i: &CaseInput, _: &Cell| events_of(i).contains(&0);
        let cell = Cell::default_chunked(1);
        let (min_input, min_cell) = shrink_case(&CaseInput::full(0, 8), &cell, &fails);
        assert_eq!(min_cell.chunks, 1);
        assert_eq!(min_input.kept, Some(vec![0]));
    }

    #[test]
    fn already_minimal_repro_terminates_without_change() {
        // Fails only when *every* event is present: no subset can be
        // dropped, so ddmin must converge to the full kept set after one
        // dropless singles pass — bounded work, no infinite loop.
        let calls = std::cell::Cell::new(0u32);
        let fails = |i: &CaseInput, _c: &Cell| {
            calls.set(calls.get() + 1);
            events_of(i).len() == 6
        };
        let (min_input, _) = shrink_case(&CaseInput::full(2, 6), &Cell::default_chunked(2), &fails);
        assert_eq!(min_input.effective_len(), 6);
        // Worst case is O(n²) probes for n=6 plus knob probes — anything
        // runaway (the old dead-block structure risked re-looping) blows
        // well past this.
        assert!(calls.get() < 200, "shrinker looped: {} calls", calls.get());
    }

    #[test]
    fn empty_failure_shrinks_to_empty_input() {
        // Always fails: minimal input is no events at all.
        let fails = |_: &CaseInput, _: &Cell| true;
        let (min_input, min_cell) =
            shrink_case(&CaseInput::full(3, 50), &Cell::default_chunked(5), &fails);
        assert_eq!(min_input.kept, Some(vec![]));
        assert_eq!(min_cell.chunks, 1);
    }
}
