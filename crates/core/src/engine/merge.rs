//! Path merging (§3.5 of the paper).
//!
//! When two explored paths have the **same transfer function** (including
//! identical accumulated output), they behave identically from that point
//! on, so their path constraints can be merged — provided the disjunction
//! stays representable in the canonical forms.
//!
//! Path constraints here are conjunctions of independent per-field
//! constraints, so `(A₁∧B₁) ∨ (A₂∧B₂)` is representable exactly when the
//! two paths differ in **at most one** field's constraint and that field's
//! union is canonical (interval union for `SymInt`, always for `SymEnum`,
//! decision-list simplification for `SymPred`).

use crate::state::SymState;

/// Attempts to merge path `b` into path `a`.
///
/// Returns `true` (mutating `a`'s constraint) when the merge is sound:
/// all transfer functions equal and the constraints differ in at most one
/// field whose union is canonical.
fn try_merge_into<S: SymState>(a: &mut S, b: &S) -> bool {
    let n = a.field_count();
    debug_assert_eq!(n, b.field_count());
    if !(0..n).all(|i| a.field_ref_at(i).transfer_eq(b.field_ref_at(i))) {
        return false;
    }
    let mut diffs = (0..n).filter(|&i| !a.field_ref_at(i).constraint_eq(b.field_ref_at(i)));
    match (diffs.next(), diffs.next()) {
        (None, _) => true, // Identical paths: `b` is redundant.
        (Some(i), None) => a.field_mut_at(i).union_constraint(b.field_ref_at(i)),
        (Some(_), Some(_)) => false,
    }
}

/// Merges paths pairwise to a fixpoint, returning the number of merges.
///
/// Quadratic in the number of live paths, which the engine bounds at a
/// small constant (§5.2, default 8).
pub fn merge_paths<S: SymState>(paths: &mut Vec<S>) -> u64 {
    let mut merges = 0;
    let mut changed = true;
    while changed {
        changed = false;
        'outer: for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                // Split so we can mutate `paths[i]` while reading `paths[j]`.
                let (head, tail) = paths.split_at_mut(j);
                if try_merge_into(&mut head[i], &tail[0]) {
                    paths.remove(j);
                    merges += 1;
                    changed = true;
                    break 'outer;
                }
            }
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::SymCtx;
    use crate::impl_sym_state;
    use crate::interval::Interval;
    use crate::state::make_state_symbolic;
    use crate::types::sym_int::SymInt;
    use crate::types::sym_vector::SymVector;

    #[derive(Clone, Debug)]
    struct S {
        v: SymInt,
        out: SymVector<i64>,
    }
    impl_sym_state!(S { v, out });

    fn path(lb: i64, ub: i64, assign: Option<i64>, pushes: &[i64]) -> S {
        let mut s = S {
            v: SymInt::new(0),
            out: SymVector::new(),
        };
        make_state_symbolic(&mut s);
        let mut ctx = SymCtx::symbolic();
        if ub != i64::MAX {
            assert!(s.v.le(&mut ctx, ub));
        }
        if lb != i64::MIN {
            assert!(s.v.ge(&mut ctx, lb));
        }
        if let Some(a) = assign {
            s.v.assign(a);
        }
        for p in pushes {
            s.out.push(*p);
        }
        s
    }

    #[test]
    fn figure3_merge() {
        // §3.5: x < 5 ⇒ 10 and 5 ≤ x ≤ 10 ⇒ 10 merge to x ≤ 10 ⇒ 10;
        // x > 10 ⇒ x stays separate.
        let mut paths = vec![
            path(i64::MIN, 4, Some(10), &[]),
            path(5, 10, Some(10), &[]),
            path(11, i64::MAX, None, &[]),
        ];
        let merges = merge_paths(&mut paths);
        assert_eq!(merges, 1);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].v.constraint(), Interval::new(i64::MIN, 10));
        assert_eq!(paths[0].v.concrete_value(), Some(10));
    }

    #[test]
    fn different_transfers_do_not_merge() {
        let mut paths = vec![path(i64::MIN, 4, Some(10), &[]), path(5, 10, Some(11), &[])];
        assert_eq!(merge_paths(&mut paths), 0);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn different_outputs_do_not_merge() {
        let mut paths = vec![
            path(i64::MIN, 4, Some(10), &[1]),
            path(5, 10, Some(10), &[2]),
        ];
        assert_eq!(merge_paths(&mut paths), 0);
    }

    #[test]
    fn gap_prevents_merge() {
        let mut paths = vec![path(0, 4, Some(1), &[]), path(8, 10, Some(1), &[])];
        assert_eq!(merge_paths(&mut paths), 0);
    }

    #[test]
    fn cascading_merges_reach_fixpoint() {
        // Three adjacent intervals with the same transfer collapse to one.
        let mut paths = vec![
            path(0, 4, Some(1), &[]),
            path(5, 9, Some(1), &[]),
            path(10, 14, Some(1), &[]),
        ];
        assert_eq!(merge_paths(&mut paths), 2);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].v.constraint(), Interval::new(0, 14));
    }

    #[test]
    fn identical_paths_deduplicate() {
        let mut paths = vec![path(0, 4, Some(1), &[7]), path(0, 4, Some(1), &[7])];
        assert_eq!(merge_paths(&mut paths), 1);
        assert_eq!(paths.len(), 1);
    }

    #[derive(Clone, Debug)]
    struct Two {
        a: SymInt,
        b: SymInt,
    }
    impl_sym_state!(Two { a, b });

    #[test]
    fn two_differing_fields_do_not_merge() {
        // (A₁∧B₁) ∨ (A₂∧B₂) with both fields differing is not a conjunction
        // of per-field unions — merging it would be unsound.
        let mk = |alo: i64, ahi: i64, blo: i64, bhi: i64| {
            let mut s = Two {
                a: SymInt::new(0),
                b: SymInt::new(0),
            };
            make_state_symbolic(&mut s);
            let mut ctx = SymCtx::symbolic();
            assert!(s.a.ge(&mut ctx, alo));
            assert!(s.a.le(&mut ctx, ahi));
            assert!(s.b.ge(&mut ctx, blo));
            assert!(s.b.le(&mut ctx, bhi));
            s.a.assign(0);
            s.b.assign(0);
            s
        };
        let mut paths = vec![mk(0, 4, 0, 4), mk(5, 9, 5, 9)];
        assert_eq!(merge_paths(&mut paths), 0);
        // One differing field merges fine.
        let mut paths = vec![mk(0, 4, 0, 4), mk(0, 4, 5, 9)];
        assert_eq!(merge_paths(&mut paths), 1);
        assert_eq!(paths[0].b.constraint(), Interval::new(0, 9));
    }
}
