//! Cross-checks between the matrices, the case registry, and the
//! comparison rule — the oracle's own meta-invariants.

use symple_oracle::{
    all_cases, deep_matrix, smoke_matrix, CaseInput, Cell, ExecutorKind, FaultKind, Sabotage,
};

#[test]
fn deep_matrix_strictly_extends_smoke() {
    let deep = deep_matrix();
    // Deep varies every knob the smoke matrix pins.
    assert!(deep.iter().any(|c| c.chunks >= 8));
    assert!(deep.iter().any(|c| c.max_total_paths == 2));
    assert!(deep.iter().any(|c| c.max_total_paths == 64));
    assert!(deep.iter().any(|c| c.faults == FaultKind::FailTwice));
    for cell in smoke_matrix() {
        // Same shape of cell; deep need not contain the exact smoke cells
        // but must cover each smoke executor with faults on and off.
        assert!(deep.iter().any(|d| d.executor == cell.executor));
    }
}

#[test]
fn every_case_supports_the_full_smoke_sweep_modulo_tree() {
    // supports() may only ever exclude tree-composition cells — every
    // other cell must run for every case, or the matrix quietly thins out.
    for case in all_cases() {
        for cell in smoke_matrix().iter().chain(deep_matrix().iter()) {
            if cell.executor != ExecutorKind::ChunkedTree {
                assert!(
                    case.supports(cell),
                    "case {} rejects non-tree cell {}",
                    case.id(),
                    cell.describe()
                );
            }
        }
    }
}

#[test]
fn empty_input_agrees_everywhere() {
    // Zero events is the classic executor edge case: chunk arithmetic,
    // segment splitting, and group extraction all see nothing.
    let input = CaseInput::full(7, 0);
    for case in all_cases() {
        let expected = case.run_reference(&input);
        for cell in smoke_matrix() {
            if !case.supports(&cell) {
                continue;
            }
            let actual = case.run_cell(&input, &cell, Sabotage::None);
            assert!(
                symple_oracle::case::outputs_agree(&expected, &actual, &input),
                "case {} cell {}: {expected} vs {actual}",
                case.id(),
                cell.describe()
            );
        }
    }
}

#[test]
fn single_event_agrees_everywhere() {
    let input = CaseInput::full(3, 1);
    for case in all_cases() {
        let expected = case.run_reference(&input);
        for cell in smoke_matrix() {
            if !case.supports(&cell) {
                continue;
            }
            let actual = case.run_cell(&input, &cell, Sabotage::None);
            assert!(
                symple_oracle::case::outputs_agree(&expected, &actual, &input),
                "case {} cell {}: {expected} vs {actual}",
                case.id(),
                cell.describe()
            );
        }
    }
}

#[test]
fn more_chunks_than_events_agrees() {
    let input = CaseInput::full(11, 4);
    let cell = Cell::default_chunked(9);
    for case in all_cases() {
        let expected = case.run_reference(&input);
        let actual = case.run_cell(&input, &cell, Sabotage::None);
        assert!(
            symple_oracle::case::outputs_agree(&expected, &actual, &input),
            "case {}: {expected} vs {actual}",
            case.id()
        );
    }
}
