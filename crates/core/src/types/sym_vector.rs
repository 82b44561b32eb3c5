//! Append-only symbolic vectors (§4.5 of the paper).
//!
//! Inspired by Cilk reducer hyperobjects, a [`SymVector`] captures the
//! *output* of a UDA: each chunk appends to a local vector, and summary
//! composition stitches the locals together in input order. Elements may be
//! symbolic — e.g. a count `x + 5` appended before the chunk's input
//! dependence resolved — and are concretized during composition once the
//! referenced field's value becomes known.
//!
//! The append-only restriction is essential: the UDA can never *read* the
//! vector, so the unknown prefix produced by earlier chunks cannot affect
//! control flow and needs no constraint.
//!
//! The executor leans on the same contract: a vector always
//! [agrees for update](SymField::agrees_for_update), so live paths that
//! differ only in their output share one run per record inside a batch
//! window, and the others take the lead's appended elements when it commits
//! ([`SymField::replay_from`]). An `update` that branched on `len()` (or on
//! anything else it read back from a vector) would break this contract and
//! with it the summaries of every path that was replayed.
//!
//! Internally the vector is a **persistent list of cells**: path
//! exploration clones the whole aggregation state once per explored run,
//! and a `Vec` payload would make that clone — and therefore the whole
//! engine — quadratic in the output size. Structural sharing makes clones
//! `O(1)` and lets sibling paths share their common prefix, which also makes
//! the merge-time equality check `O(divergence)` instead of `O(length)`.
//!
//! A cell holds up to `NODE_CAP` (64) consecutive elements (the first
//! inline, the others in a `Vec`), so a long output costs an allocation, a
//! free and a pointer chase per *cell*, not per element, and a cell that
//! stays at one element costs what a one-element node did. The one rule that
//! keeps this sound: **a cell is grown in place only while exactly one
//! handle, and no `prev` link, refers to it** (`Arc::get_mut` on the tail
//! succeeds). Whoever else could see a cell — a clone, a forked sibling, a
//! batch window's snapshot, a younger cell chained onto it — holds a
//! reference to it, so the test fails and the push opens a cell of its own
//! instead. Every holder of a cell therefore sees all of it, for as long as
//! it holds it: no per-handle "visible length" is needed, and two handles at
//! the same cell hold equal lists.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::state::{downcast, FieldFacts, FieldId, SymField, Transfers};
use crate::types::scalar::{ScalarTransfer, SymScalar};
use crate::types::sym_enum::SymEnum;
use crate::types::sym_int::SymInt;
use crate::wire::{self, Wire, WireError};

/// Element types storable in a [`SymVector`].
///
/// `from_i64` converts a concretized symbolic scalar back into the element
/// type; types that cannot hold symbolic elements return `None` (and must
/// only ever be appended concretely).
pub trait VecElem: Clone + PartialEq + std::fmt::Debug + Send + Sync + Wire + 'static {
    /// Converts a concretized symbolic scalar into the element type.
    fn from_i64(v: i64) -> Option<Self>;
}

impl VecElem for i64 {
    fn from_i64(v: i64) -> Option<Self> {
        Some(v)
    }
}
impl VecElem for u64 {
    fn from_i64(v: i64) -> Option<Self> {
        u64::try_from(v).ok()
    }
}
impl VecElem for u32 {
    fn from_i64(v: i64) -> Option<Self> {
        u32::try_from(v).ok()
    }
}
impl VecElem for i32 {
    fn from_i64(v: i64) -> Option<Self> {
        i32::try_from(v).ok()
    }
}
impl VecElem for String {
    fn from_i64(_v: i64) -> Option<Self> {
        None
    }
}
impl VecElem for (i64, i64) {
    fn from_i64(_v: i64) -> Option<Self> {
        None
    }
}

/// One element of a [`SymVector`]: concrete, or an affine function of a
/// state field's initial symbolic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Elem<T> {
    /// A known value.
    Concrete(T),
    /// A still-symbolic scalar (always the `Affine` variant).
    Sym(SymScalar),
}

impl<T> Elem<T> {
    fn is_sym(&self) -> bool {
        matches!(self, Elem::Sym(_))
    }
}

/// Elements per cell. Large enough that a long output pays for a cell a few
/// times per hundred elements, small enough that the elements a push may
/// have to leave behind in a shared cell (and the one reservation a hostile
/// run header can cause) stay a couple of kilobytes.
const NODE_CAP: usize = 64;

/// A persistent cons cell; `prev` points toward the front of the vector.
#[derive(Debug)]
struct Node<T> {
    /// The element that opened the cell, its oldest. Inline, so that a cell
    /// that never gets a second element — most cells, where sibling paths
    /// push in turn — is one allocation, as a one-element node was.
    first: Elem<T>,
    /// Up to `NODE_CAP - 1` elements after `first`, oldest first. Grown only
    /// through `Arc::get_mut`, that is never while anyone else can see it.
    rest: Vec<Elem<T>>,
    prev: Option<Arc<Node<T>>>,
}

impl<T> Node<T> {
    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// The elements, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Elem<T>> {
        std::iter::once(&self.first).chain(&self.rest)
    }
}

/// Reads a list newest element first, a slice of a cell at a time — the one
/// walk behind equality, the wire encoder and back-reference decoding.
struct Cursor<'a, T> {
    /// The cell being read; `None` past the oldest element.
    cell: Option<&'a Arc<Node<T>>>,
    /// How many of `cell`'s elements, counted from its oldest, are still to
    /// come.
    left: usize,
}

impl<'a, T> Cursor<'a, T> {
    fn new(tail: &'a Option<Arc<Node<T>>>) -> Cursor<'a, T> {
        Cursor {
            cell: tail.as_ref(),
            left: tail.as_ref().map_or(0, |cell| cell.len()),
        }
    }

    /// Whether both cursors stand at the same place in the same physical
    /// cell (or both at the end): what is still to come is then one shared
    /// list, equal without being read. Cursors that walk in step get here
    /// by entering a shared cell together.
    fn shares_rest_with(&self, other: &Cursor<'_, T>) -> bool {
        self.left == other.left
            && match (self.cell, other.cell) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }

    /// How many of the elements still to come lie in one slice: what is left
    /// of the cell's `rest`, then its `first`.
    fn contiguous(&self) -> usize {
        match self.left {
            0 | 1 => self.left,
            left => left - 1,
        }
    }

    /// The next elements — at most `max`, contiguous in one cell, oldest
    /// first within the slice — or `None` if `max` is 0 or the oldest
    /// element is behind.
    fn next_slice(&mut self, max: usize) -> Option<&'a [Elem<T>]> {
        let cell = self.cell.filter(|_| max > 0)?;
        let n = self.contiguous().min(max);
        let slice = match self.left - 1 {
            0 => std::slice::from_ref(&cell.first),
            rest => &cell.rest[rest - n..rest],
        };
        self.left -= n;
        if self.left == 0 {
            *self = Cursor::new(&cell.prev);
        }
        Some(slice)
    }

    /// The next `n` elements in append order: collected as at most two
    /// slices per cell touched (not one entry per element), oldest first.
    fn oldest_first(mut self, mut n: usize) -> impl Iterator<Item = &'a Elem<T>> + Clone {
        let mut slices = Vec::new();
        while let Some(slice) = self.next_slice(n) {
            n -= slice.len();
            slices.push(slice);
        }
        slices.reverse();
        slices.into_iter().flatten()
    }
}

/// An append-only vector of possibly-symbolic elements with `O(1)` clone.
///
/// # Examples
///
/// ```
/// use symple_core::SymVector;
///
/// let mut out: SymVector<i64> = SymVector::new();
/// out.push(3);
/// out.push(5);
/// assert_eq!(out.concrete_elems().unwrap(), vec![3, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct SymVector<T: VecElem> {
    tail: Option<Arc<Node<T>>>,
    len: usize,
    sym_len: usize,
    id: Option<FieldId>,
}

impl<T: VecElem> Default for SymVector<T> {
    fn default() -> Self {
        SymVector::new()
    }
}

impl<T: VecElem> Drop for SymVector<T> {
    fn drop(&mut self) {
        // Unlink cell by cell: the default recursive drop of a long cons
        // chain would overflow the stack. A cell that is still shared
        // stops the walk — its remaining chain stays alive with the other
        // owner, whose own drop will continue the work.
        let mut cur = self.tail.take();
        while let Some(node) = cur {
            match Arc::try_unwrap(node) {
                Ok(mut n) => cur = n.prev.take(),
                Err(_) => break,
            }
        }
    }
}

impl<T: VecElem> PartialEq for SymVector<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.sym_len == other.sym_len && lists_eq(self, other)
    }
}

/// Element-wise equality of two lists of one length, with a
/// structural-sharing shortcut: once both cursors reach the same cell, the
/// remaining prefix is shared and equal.
fn lists_eq<T: VecElem>(a: &SymVector<T>, b: &SymVector<T>) -> bool {
    let (mut x, mut y) = (Cursor::new(&a.tail), Cursor::new(&b.tail));
    while !x.shares_rest_with(&y) {
        let n = x.contiguous().min(y.contiguous());
        if n == 0 || x.next_slice(n) != y.next_slice(n) {
            return false;
        }
    }
    true
}

/// How many trailing (newest) elements two lists have in common. Reaching
/// a cell both lists share ends the walk: everything older is shared too.
fn common_tail_len<T: VecElem>(a: &SymVector<T>, b: &SymVector<T>) -> usize {
    let (mut x, mut y) = (Cursor::new(&a.tail), Cursor::new(&b.tail));
    let mut common = 0;
    loop {
        if x.shares_rest_with(&y) {
            return a.len;
        }
        let n = x.contiguous().min(y.contiguous());
        let (Some(xs), Some(ys)) = (x.next_slice(n), y.next_slice(n)) else {
            return common;
        };
        let same = xs
            .iter()
            .rev()
            .zip(ys.iter().rev())
            .take_while(|(p, q)| p == q)
            .count();
        common += same;
        if same < n {
            return common;
        }
    }
}

impl<T: VecElem> SymVector<T> {
    /// Creates an empty vector.
    pub fn new() -> SymVector<T> {
        SymVector {
            tail: None,
            len: 0,
            sym_len: 0,
            id: None,
        }
    }

    /// The cells, newest first.
    fn nodes(&self) -> impl Iterator<Item = &Node<T>> {
        std::iter::successors(self.tail.as_deref(), |n| n.prev.as_deref())
    }

    /// The elements in append order.
    fn iter(&self) -> impl Iterator<Item = &Elem<T>> + Clone {
        Cursor::new(&self.tail).oldest_first(self.len)
    }

    fn push_elem(&mut self, elem: Elem<T>) {
        self.push_sized(elem, 1);
    }

    /// Appends `elem`: in place when this handle is the tail cell's only
    /// holder and the cell has room, into a new cell with room for `expect`
    /// elements otherwise. Either way the tail cell is this handle's alone
    /// afterwards.
    fn push_sized(&mut self, elem: Elem<T>, expect: usize) {
        self.sym_len += usize::from(elem.is_sym());
        self.len += 1;
        match self.tail.as_mut().and_then(Arc::get_mut) {
            Some(cell) if cell.len() < NODE_CAP => cell.rest.push(elem),
            _ => {
                let cell = Node {
                    first: elem,
                    rest: Vec::with_capacity(expect.clamp(1, NODE_CAP) - 1),
                    prev: self.tail.take(),
                };
                self.tail = Some(Arc::new(cell));
            }
        }
    }

    /// Appends `n` elements drawn from `next`, stopping at its first error;
    /// what was drawn before it stays appended. The writable cell is looked
    /// up once per cell filled, not once per element. `room` caps what is
    /// reserved ahead of the elements actually arriving — an `n` read off
    /// the wire promises nothing.
    fn extend<E>(
        &mut self,
        n: usize,
        room: usize,
        mut next: impl FnMut() -> std::result::Result<Elem<T>, E>,
    ) -> std::result::Result<(), E> {
        let mut left = n;
        while left > 0 {
            self.push_sized(next()?, left.min(room));
            left -= 1;
            let cell = self
                .tail
                .as_mut()
                .and_then(Arc::get_mut)
                .expect("a push leaves the tail cell to this handle alone");
            let fill = left.min(NODE_CAP - cell.len());
            cell.rest.reserve(fill.min(room));
            for _ in 0..fill {
                let elem = next()?;
                self.sym_len += usize::from(elem.is_sym());
                self.len += 1;
                cell.rest.push(elem);
            }
            left -= fill;
        }
        Ok(())
    }

    /// Whether this vector's list physically shares its newest cell with
    /// `other` (diagnostics: lets tests pin that clones are O(1)
    /// structure-sharing snapshots rather than deep copies).
    pub fn shares_storage_with(&self, other: &SymVector<T>) -> bool {
        match (&self.tail, &other.tail) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// How many cells (allocations) this vector's list is chained from,
    /// shared ones included (diagnostics: lets tests pin that output costs
    /// per cell, not per element).
    pub fn cells(&self) -> usize {
        self.nodes().count()
    }

    /// Appends a concrete element.
    pub fn push(&mut self, v: T) {
        self.push_elem(Elem::Concrete(v));
    }

    /// Appends the current value of a symbolic scalar.
    ///
    /// # Panics
    ///
    /// Panics if the scalar is symbolic but `T` cannot represent symbolic
    /// elements (`T::from_i64` is `None` for all inputs) — pushing a
    /// symbolic integer into, say, a `SymVector<String>` is a UDA type
    /// error.
    pub fn push_scalar(&mut self, s: SymScalar) {
        match s {
            SymScalar::Concrete(v) => {
                let v =
                    T::from_i64(v).expect("concrete scalar does not fit the vector element type");
                self.push_elem(Elem::Concrete(v));
            }
            sym @ SymScalar::Affine { .. } => {
                assert!(
                    T::from_i64(0).is_some(),
                    "vector element type cannot hold symbolic scalars"
                );
                self.push_elem(Elem::Sym(sym));
            }
        }
    }

    /// Appends the current value of a [`SymInt`].
    ///
    /// # Panics
    ///
    /// See [`SymVector::push_scalar`].
    pub fn push_int(&mut self, v: &SymInt) {
        self.push_scalar(v.as_scalar());
    }

    /// Appends the current value of a [`SymEnum`].
    ///
    /// # Panics
    ///
    /// See [`SymVector::push_scalar`].
    pub fn push_enum(&mut self, v: &SymEnum) {
        match v.concrete_value() {
            Some(c) => self.push_scalar(SymScalar::Concrete(i64::from(c))),
            None => {
                let field = v.field_id().expect("symbolic SymEnum outside engine state");
                self.push_scalar(SymScalar::Affine { field, a: 1, b: 0 });
            }
        }
    }

    /// Number of elements appended so far (including any stitched prefix).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no element has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements in append order (allocates; diagnostics and tests).
    pub fn elems(&self) -> Vec<Elem<T>> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter().cloned());
        out
    }

    /// Extracts the elements, requiring all of them to be concrete.
    ///
    /// Used by `Result` functions, which run on a fully concretized state.
    pub fn concrete_elems(&self) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.len);
        for elem in self.iter() {
            match elem {
                Elem::Concrete(v) => out.push(v.clone()),
                Elem::Sym(_) => {
                    return Err(Error::Uda(
                        "vector still holds symbolic elements; result extraction requires a \
                         fully concrete state"
                            .into(),
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// Rewrites one symbolic element of a later path through the earlier
/// path's `transfers` (see [`SymField::compose_onto`]).
fn substitute<T: VecElem>(s: SymScalar, transfers: &Transfers<'_>) -> Result<Elem<T>> {
    let SymScalar::Affine { field, .. } = s else {
        unreachable!("Sym elements are always affine");
    };
    let t = transfers(field.index()).ok_or_else(|| {
        Error::Uda(format!(
            "vector element references field {} which has no scalar transfer (was the value \
             reported before it was ever set?)",
            field.0
        ))
    })?;
    Ok(match s.substitute(t)? {
        SymScalar::Concrete(v) => Elem::Concrete(
            T::from_i64(v)
                .ok_or_else(|| Error::Uda("concretized element does not fit type".into()))?,
        ),
        sym => Elem::Sym(sym),
    })
}

impl<T: VecElem> SymVector<T> {
    /// Replaces `self` with `base`'s list followed by one path's vector read
    /// off the wire — the one element loop behind both decoders.
    ///
    /// [`SymField::decode_field`] passes an empty `base` and no `transfers`
    /// and gets the path's own vector. [`SymField::decode_onto`] passes the
    /// running state's vector and its transfers: every symbolic element is
    /// substituted as it is pushed, so the list is allocated once, already
    /// stitched. `prev` is the previous path's vector as this function left
    /// it over the same `base`, so its own elements — all a back-reference
    /// may name — are whatever follows `base`'s.
    ///
    /// The inner result is the first substitution failure. The element that
    /// failed is pushed as it was read, so the list keeps its length and a
    /// sibling whose back-reference covers it fails the same way.
    fn decode_after(
        &mut self,
        buf: &mut &[u8],
        prev: Option<&dyn SymField>,
        base: &SymVector<T>,
        transfers: Option<&Transfers<'_>>,
    ) -> Result<Result<()>, WireError> {
        let header = wire::get_len(buf)?;
        let mut out = base.clone();
        let mut held = Ok(());
        let mut stitch = |e: Elem<T>| match (e, transfers) {
            (Elem::Sym(s), Some(t)) => substitute(s, t).unwrap_or_else(|err| {
                if held.is_ok() {
                    held = Err(err);
                }
                Elem::Sym(s)
            }),
            (e, _) => e,
        };
        for _ in 0..header >> 1 {
            let run = wire::get_len(buf)?;
            // An element is a byte on the wire at least: a run header sizes
            // no reservation beyond what is left of the buffer.
            let (n, room) = (run >> 1, buf.len());
            if run & 1 != 0 {
                out.extend(n, room, || {
                    SymScalar::decode_affine(buf).map(|s| stitch(Elem::Sym(s)))
                })?;
            } else {
                out.extend(n, room, || T::decode(buf).map(Elem::Concrete))?;
            }
        }
        if header & 1 != 0 {
            let n = wire::get_uvarint(buf)?;
            let prev = prev.and_then(downcast::<SymVector<T>>);
            let available = prev.map_or(0, |p| p.len.saturating_sub(base.len) as u64);
            let Some(prev) = prev.filter(|_| n <= available) else {
                return Err(WireError::BackReference { len: n, available });
            };
            // Under `transfers` a symbolic element past `base`'s is one that
            // failed to substitute; only a clean sibling is shared.
            let clean = transfers.is_none() || prev.sym_len == base.sym_len;
            if out.len == base.len && n == available && clean {
                // The whole of it: share the list instead of copying it.
                out = prev.clone();
            } else {
                let n = n as usize; // at most `prev.len`
                let mut shared = Cursor::new(&prev.tail).oldest_first(n);
                out.extend(n, n, || {
                    let elem = shared.next().expect("checked against prev.len above");
                    Ok::<_, WireError>(stitch(elem.clone()))
                })?;
            }
        }
        *self = out;
        Ok(held)
    }
}

impl<T: VecElem> SymField for SymVector<T> {
    fn make_symbolic(&mut self, id: FieldId) {
        // The unknown prefix lives in earlier chunks; the local vector
        // starts empty (hyperobject-style, §4.5).
        *self = SymVector::new(); // dropped cell by cell, not recursively
        self.id = Some(id);
    }

    fn is_concrete(&self) -> bool {
        self.sym_len == 0
    }

    fn is_aggregate(&self) -> bool {
        true
    }

    fn transfer_eq(&self, other: &dyn SymField) -> bool {
        downcast::<SymVector<T>>(other).is_some_and(|o| self == o)
    }

    fn constraint_eq(&self, _other: &dyn SymField) -> bool {
        true // Vectors carry no path constraint.
    }

    fn constraint_overlaps(&self, _other: &dyn SymField) -> bool {
        true
    }

    fn union_constraint(&mut self, _other: &dyn SymField) -> bool {
        true
    }

    fn compose_onto(&mut self, prev: &dyn SymField, transfers: &Transfers<'_>) -> Result<bool> {
        let prev = downcast::<SymVector<T>>(prev)
            .ok_or_else(|| Error::Uda("field type mismatch".into()))?;
        // Start from the earlier chunk's (shared) list and append our own
        // elements, substituting symbolic references through the earlier
        // path's transfers.
        let mut stitched = prev.clone();
        for e in self.iter() {
            stitched.push_elem(match e {
                Elem::Sym(s) => substitute(*s, transfers)?,
                concrete => concrete.clone(),
            });
        }
        *self = stitched;
        Ok(true)
    }

    fn transfer(&self) -> Option<ScalarTransfer> {
        None
    }

    /// Always: `update` never reads a vector (the module doc's contract),
    /// so two paths' vectors cannot make their runs differ.
    fn agrees_for_update(&self, other: &dyn SymField) -> bool {
        downcast::<SymVector<T>>(other).is_some()
    }

    fn replay_mark(&self) -> usize {
        self.len
    }

    /// Appends what `lead` appended since `mark`: `sym_len` follows the
    /// elements, and the whole window costs this handle at most one cell
    /// per `NODE_CAP` elements.
    fn replay_from(&mut self, lead: &dyn SymField, mark: usize) {
        let Some(lead) = downcast::<SymVector<T>>(lead) else {
            return;
        };
        let n = lead.len - mark;
        let mut tail = Cursor::new(&lead.tail).oldest_first(n);
        self.extend(n, n, || Ok(tail.next().expect("n ≤ lead.len").clone()))
            .unwrap_or_else(|never: std::convert::Infallible| match never {});
    }

    /// Wire v2: `(runs << 1) | has_tail`, then the path's own leading
    /// elements as runs — `(len << 1) | symbolic`, then `len` concrete
    /// elements or `len` affine `(field, a, b)` triples — then, with
    /// `has_tail`, how many trailing elements of the previous path's vector
    /// follow them. Sibling paths that diverged early and then appended the
    /// same output write that output once.
    fn encode_field(&self, prev: Option<&dyn SymField>, buf: &mut Vec<u8>) {
        let shared = prev
            .and_then(downcast::<SymVector<T>>)
            .map_or(0, |p| common_tail_len(self, p));
        let own = self.iter().take(self.len - shared);
        let (mut runs, mut kind) = (0u64, None);
        for e in own.clone() {
            if kind != Some(e.is_sym()) {
                kind = Some(e.is_sym());
                runs += 1;
            }
        }
        wire::put_uvarint(buf, runs << 1 | u64::from(shared > 0));
        let mut rest = own;
        while let Some(first) = rest.clone().next() {
            let symbolic = first.is_sym();
            let run = rest.clone().take_while(|e| e.is_sym() == symbolic).count();
            wire::put_uvarint(buf, (run as u64) << 1 | u64::from(symbolic));
            for e in rest.by_ref().take(run) {
                match e {
                    Elem::Concrete(v) => v.encode(buf),
                    Elem::Sym(SymScalar::Affine { field, a, b }) => {
                        SymScalar::encode_affine(*field, *a, *b, buf)
                    }
                    Elem::Sym(SymScalar::Concrete(_)) => {
                        unreachable!("Sym elements are always affine")
                    }
                }
            }
        }
        if shared > 0 {
            wire::put_uvarint(buf, shared as u64);
        }
    }

    fn decode_field(
        &mut self,
        buf: &mut &[u8],
        id: FieldId,
        prev: Option<&dyn SymField>,
    ) -> Result<(), WireError> {
        let mut empty = SymVector::new();
        empty.id = Some(id);
        self.decode_after(buf, prev, &empty, None).map(drop)
    }

    fn decode_onto(
        &mut self,
        buf: &mut &[u8],
        _id: FieldId,
        prev: Option<&dyn SymField>,
        base: &dyn SymField,
        transfers: &Transfers<'_>,
    ) -> Result<Result<bool>, WireError> {
        let Some(base) = downcast::<SymVector<T>>(base) else {
            return Ok(Err(Error::Uda("field type mismatch".into())));
        };
        let stitched = self.decode_after(buf, prev, base, Some(transfers))?;
        Ok(stitched.map(|()| true))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn facts(&self) -> FieldFacts {
        let mut refs: Vec<FieldId> = self
            .nodes()
            .flat_map(Node::iter)
            .filter_map(|e| match e {
                Elem::Sym(SymScalar::Affine { field, .. }) => Some(*field),
                _ => None,
            })
            .collect();
        refs.sort_unstable();
        refs.dedup();
        FieldFacts {
            kind: "vector",
            concrete: self.sym_len == 0,
            len: Some(self.len),
            symbolic_elems: Some(self.sym_len),
            refs,
            ..FieldFacts::default()
        }
    }

    fn perturb(&mut self) -> bool {
        // Append a sentinel element so any result that reads the vector
        // observes the change. Element types that cannot be fabricated
        // from an i64 stay unperturbed (the analyzer then assumes live).
        match T::from_i64(1) {
            Some(v) => {
                self.push(v);
                true
            }
            None => false,
        }
    }

    fn describe(&self) -> String {
        let items: Vec<String> = self
            .iter()
            .map(|e| match e {
                Elem::Concrete(v) => format!("{v:?}"),
                Elem::Sym(SymScalar::Affine { field, a, b }) => {
                    format!("{a}·x{}+{b}", field.0)
                }
                Elem::Sym(SymScalar::Concrete(v)) => format!("{v}"),
            })
            .collect();
        format!("[{}]", items.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::sym_pred::SymPred;
    use proptest::prelude::*;

    #[test]
    fn push_and_extract_concrete() {
        let mut v: SymVector<i64> = SymVector::new();
        v.push(1);
        v.push(2);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.concrete_elems().unwrap(), vec![1, 2]);
        assert!(v.is_concrete());
    }

    #[test]
    fn clone_is_structural_sharing() {
        let mut a: SymVector<i64> = SymVector::new();
        for i in 0..100 {
            a.push(i);
        }
        let mut b = a.clone();
        b.push(100);
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 101);
        assert_eq!(a.concrete_elems().unwrap(), (0..100).collect::<Vec<_>>());
        assert_eq!(b.concrete_elems().unwrap(), (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn equality_with_and_without_sharing() {
        let mut a: SymVector<i64> = SymVector::new();
        a.push(1);
        a.push(2);
        let b = a.clone();
        assert_eq!(a, b);
        // Built independently: still equal.
        let mut c: SymVector<i64> = SymVector::new();
        c.push(1);
        c.push(2);
        assert_eq!(a, c);
        let mut d = a.clone();
        d.push(3);
        assert_ne!(a, d);
        // Divergent tails over a shared prefix.
        let mut e = a.clone();
        e.push(9);
        let mut f = a.clone();
        f.push(8);
        assert_ne!(e, f);
    }

    #[test]
    fn push_symbolic_int() {
        let mut count = SymInt::new(0);
        count.make_symbolic(FieldId(0));
        count += 5;
        let mut v: SymVector<i64> = SymVector::new();
        v.push_int(&count);
        assert!(!v.is_concrete());
        assert!(v.concrete_elems().is_err());
        assert_eq!(
            v.elems()[0],
            Elem::Sym(SymScalar::Affine {
                field: FieldId(0),
                a: 1,
                b: 5
            })
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold symbolic scalars")]
    fn push_symbolic_into_string_vector_panics() {
        let mut count = SymInt::new(0);
        count.make_symbolic(FieldId(0));
        let mut v: SymVector<String> = SymVector::new();
        v.push_int(&count);
    }

    #[test]
    fn push_enum() {
        let mut e = SymEnum::new(4, 1);
        let mut v: SymVector<i64> = SymVector::new();
        v.push_enum(&e);
        e.make_symbolic(FieldId(2));
        v.push_enum(&e);
        assert_eq!(v.elems()[0], Elem::Concrete(1));
        assert_eq!(
            v.elems()[1],
            Elem::Sym(SymScalar::Affine {
                field: FieldId(2),
                a: 1,
                b: 0
            })
        );
    }

    #[test]
    fn compose_stitches_and_concretizes() {
        // Earlier path: count ended as x + 2 (symbolic), vector [7].
        let mut prev_count = SymInt::new(0);
        prev_count.make_symbolic(FieldId(0));
        prev_count += 2;
        let mut prev_vec: SymVector<i64> = SymVector::new();
        prev_vec.make_symbolic(FieldId(1));
        prev_vec.push(7);

        // Later path: pushed its own symbolic count y·2 then a concrete 1.
        let mut later: SymVector<i64> = SymVector::new();
        later.make_symbolic(FieldId(1));
        later.push_scalar(SymScalar::Affine {
            field: FieldId(0),
            a: 2,
            b: 0,
        });
        later.push(1);

        let prev_all = |i| [prev_count.transfer(), None][i];
        assert!(later.compose_onto(&prev_vec, &prev_all).unwrap());
        assert_eq!(
            later.elems(),
            vec![
                Elem::Concrete(7),
                // 2·y with y = x + 2 ⇒ 2x + 4.
                Elem::Sym(SymScalar::Affine {
                    field: FieldId(0),
                    a: 2,
                    b: 4
                }),
                Elem::Concrete(1),
            ]
        );

        // Composing again onto a concrete earlier state concretizes fully.
        let concrete_count = SymInt::new(10);
        let mut concrete_vec: SymVector<i64> = SymVector::new();
        concrete_vec.push(0);
        let prev_all = |i| [concrete_count.transfer(), None][i];
        let mut fin = later.clone();
        assert!(fin.compose_onto(&concrete_vec, &prev_all).unwrap());
        assert_eq!(fin.concrete_elems().unwrap(), vec![0, 7, 24, 1]);
    }

    #[test]
    fn compose_unset_pred_reference_errors() {
        let unset: SymPred<i64> = SymPred::new(|a, b| a < b);
        let mut prev_vec: SymVector<i64> = SymVector::new();
        prev_vec.make_symbolic(FieldId(1));
        let mut later: SymVector<i64> = SymVector::new();
        later.make_symbolic(FieldId(1));
        later.push_scalar(SymScalar::Affine {
            field: FieldId(0),
            a: 1,
            b: 0,
        });
        let prev_all = |_| unset.transfer();
        assert!(later.compose_onto(&prev_vec, &prev_all).is_err());
    }

    #[test]
    fn replay_appends_exactly_the_leads_tail() {
        let sym = |b| {
            Elem::Sym(SymScalar::Affine {
                field: FieldId(0),
                a: -1,
                b,
            })
        };
        let push = |v: &mut SymVector<i64>, e: &Elem<i64>| v.push_elem(e.clone());
        let mut lead: SymVector<i64> = SymVector::new();
        lead.make_symbolic(FieldId(1));
        push(&mut lead, &sym(4));
        // The follower differs in what it holds, not in what is to come.
        let mut follower = lead.clone();
        push(&mut lead, &Elem::Concrete(9));
        assert!(lead.agrees_for_update(&follower));
        let mark = lead.replay_mark();
        let window: Vec<Elem<i64>> = (0..150)
            .map(|i| {
                if i % 3 == 0 {
                    sym(i)
                } else {
                    Elem::Concrete(i)
                }
            })
            .collect();
        for e in &window {
            push(&mut lead, e);
        }
        let cells = follower.cells();
        follower.replay_from(&lead, mark);
        let want: Vec<_> = [sym(4)].into_iter().chain(window.iter().cloned()).collect();
        assert_eq!(follower.elems(), want);
        assert_eq!(follower.len(), 151);
        assert_eq!(
            follower.sym_len, 51,
            "one symbolic element in three, plus the first"
        );
        assert!(!follower.is_concrete());
        // The follower's tail cell is the lead's too, so the tail goes into
        // new cells, one per NODE_CAP elements.
        assert_eq!(follower.cells() - cells, 150usize.div_ceil(NODE_CAP));
        // An empty tail appends nothing.
        let before = follower.elems();
        follower.replay_from(&lead, lead.replay_mark());
        assert_eq!(follower.elems(), before);
    }

    #[test]
    fn make_symbolic_clears_local() {
        let mut v: SymVector<i64> = SymVector::new();
        v.push(1);
        v.make_symbolic(FieldId(0));
        assert!(v.is_empty());
        assert!(v.is_aggregate());
    }

    #[test]
    fn transfer_eq_compares_contents() {
        let mut a: SymVector<i64> = SymVector::new();
        let mut b: SymVector<i64> = SymVector::new();
        assert!(a.transfer_eq(&b));
        a.push(1);
        assert!(!a.transfer_eq(&b));
        b.push(1);
        assert!(a.transfer_eq(&b));
        assert!(a.constraint_eq(&b));
        assert!(a.constraint_overlaps(&b));
        assert!(a.union_constraint(&b));
    }

    #[test]
    fn wire_roundtrip() {
        let mut v: SymVector<i64> = SymVector::new();
        v.push(5);
        v.push_scalar(SymScalar::Affine {
            field: FieldId(0),
            a: -1,
            b: 3,
        });
        let mut buf = Vec::new();
        v.encode_field(None, &mut buf);
        let mut back: SymVector<i64> = SymVector::new();
        let mut rd = &buf[..];
        back.decode_field(&mut rd, FieldId(9), None).unwrap();
        assert!(rd.is_empty());
        assert_eq!(back.elems(), v.elems());
        assert!(!back.is_concrete(), "sym_len restored by decode");
    }

    /// Encodes `v` against `prev`, decodes it against `prev`, and returns
    /// the bytes after checking the round trip.
    fn roundtrip_after(v: &SymVector<i64>, prev: Option<&SymVector<i64>>) -> Vec<u8> {
        let prev = prev.map(|p| p as &dyn SymField);
        let mut buf = Vec::new();
        v.encode_field(prev, &mut buf);
        let mut back: SymVector<i64> = SymVector::new();
        let mut rd = &buf[..];
        back.decode_field(&mut rd, FieldId(0), prev).unwrap();
        assert!(rd.is_empty());
        assert_eq!(&back, v);
        buf
    }

    fn sym(a: i64, b: i64) -> SymScalar {
        SymScalar::Affine {
            field: FieldId(0),
            a,
            b,
        }
    }

    #[test]
    fn wire_tags_runs_not_elements() {
        let mut v: SymVector<i64> = SymVector::new();
        assert_eq!(roundtrip_after(&v, None), [0], "empty: one byte");
        for i in 0..10 {
            v.push(i);
        }
        // Header, one run header, ten one-byte elements.
        assert_eq!(roundtrip_after(&v, None).len(), 12);
        v.push_scalar(sym(1, 0));
        v.push_scalar(sym(-1, 7));
        v.push(3);
        // Three runs: 10 concrete, 2 symbolic (3 bytes each), 1 concrete.
        assert_eq!(
            roundtrip_after(&v, None).len(),
            1 + (1 + 10) + (1 + 6) + (1 + 1)
        );
    }

    #[test]
    fn wire_writes_a_tail_shared_with_the_previous_path_once() {
        // The gap-detector shape: two paths whose outputs differ only in
        // their first elements.
        let mut quiet: SymVector<i64> = SymVector::new();
        let mut gap: SymVector<i64> = SymVector::new();
        gap.push_scalar(sym(1, 0));
        gap.push_scalar(sym(-1, 500));
        for ts in 0..40 {
            quiet.push(1_000_000 + ts);
            gap.push(1_000_000 + ts);
        }
        let alone = roundtrip_after(&gap, None).len();
        let after = roundtrip_after(&gap, Some(&quiet));
        // Header, one symbolic run of two elements, the back-reference.
        assert_eq!(after.len(), 1 + 1 + (3 + 4) + 1, "{after:?}");
        assert!(after.len() * 10 < alone);

        // Own prefix longer than the shared tail, and no own prefix at all
        // (the whole list is shared, whether or not the nodes are).
        let mut long_prefix = SymVector::new();
        for i in 0..9 {
            long_prefix.push(i);
        }
        long_prefix.push(1_000_039);
        assert_eq!(
            roundtrip_after(&long_prefix, Some(&quiet)).len(),
            1 + 10 + 1
        );
        assert_eq!(roundtrip_after(&quiet.clone(), Some(&quiet)), [1, 40]);
        let mut rebuilt = SymVector::new();
        for ts in 0..40 {
            rebuilt.push(1_000_000 + ts);
        }
        assert_eq!(roundtrip_after(&rebuilt, Some(&quiet)), [1, 40]);
        // A previous path that is a strict suffix, and one that is longer.
        assert_eq!(roundtrip_after(&quiet, Some(&gap)), [1, 40]);
        let mut short = SymVector::new();
        short.push(1_000_039);
        assert_eq!(
            roundtrip_after(&quiet, Some(&short)).len(),
            1 + 1 + 39 * 3 + 1
        );
        // Nothing in common: no back-reference is written.
        let mut other = SymVector::new();
        other.push(5);
        assert_eq!(roundtrip_after(&other, Some(&quiet)), [2, 2, 10]);
    }

    #[test]
    fn wire_decoding_the_whole_previous_list_shares_it() {
        let mut prev: SymVector<i64> = SymVector::new();
        for i in 0..100 {
            prev.push(i);
        }
        let mut back: SymVector<i64> = SymVector::new();
        back.decode_field(&mut &[1u8, 100][..], FieldId(0), Some(&prev))
            .unwrap();
        assert!(back.shares_storage_with(&prev));
    }

    #[test]
    fn wire_rejects_hostile_back_references() {
        let mut prev: SymVector<i64> = SymVector::new();
        prev.push(1);
        prev.push(2);
        let decode = |bytes: &[u8], prev: Option<&SymVector<i64>>| {
            let mut back: SymVector<i64> = SymVector::new();
            back.decode_field(
                &mut &bytes[..],
                FieldId(0),
                prev.map(|p| p as &dyn SymField),
            )
        };
        // Longer than the previous path's vector — by one, and by far more
        // than could ever be allocated.
        assert_eq!(
            decode(&[1, 3], Some(&prev)),
            Err(WireError::BackReference {
                len: 3,
                available: 2
            })
        );
        let mut huge = vec![1u8];
        wire::put_uvarint(&mut huge, u64::MAX);
        assert_eq!(
            decode(&huge, Some(&prev)),
            Err(WireError::BackReference {
                len: u64::MAX,
                available: 2
            })
        );
        // In a summary's first path there is nothing to refer back to.
        assert_eq!(
            decode(&[1, 0], None),
            Err(WireError::BackReference {
                len: 0,
                available: 0
            })
        );
        // A run that promises more elements than the buffer holds: by a
        // hundred, and by 2^31 — which must fail on the missing bytes, not
        // on a 48 GiB reservation.
        assert_eq!(decode(&[2, 200, 1, 2], None), Err(WireError::UnexpectedEof));
        let mut long_run = vec![2u8];
        wire::put_uvarint(&mut long_run, 1 << 32);
        long_run.extend([1, 2]);
        assert_eq!(decode(&long_run, None), Err(WireError::UnexpectedEof));
        // A 2^62-element run header and a run count of `u64::MAX >> 1` are
        // no lengths at all.
        let mut huge_run = vec![2u8];
        wire::put_uvarint(&mut huge_run, 1 << 63);
        assert_eq!(
            decode(&huge_run, None),
            Err(WireError::LengthOverflow(1 << 63))
        );
        let mut many_runs = Vec::new();
        wire::put_uvarint(&mut many_runs, u64::MAX - 1);
        assert_eq!(
            decode(&many_runs, None),
            Err(WireError::LengthOverflow(u64::MAX - 1))
        );
        // … and one that is a length, 2^31 runs, ends where the bytes do.
        let mut runs = Vec::new();
        wire::put_uvarint(&mut runs, 1 << 32);
        runs.extend([2, 7]);
        assert_eq!(decode(&runs, None), Err(WireError::UnexpectedEof));
    }

    proptest! {
        /// Any vector after any previous path's vector: the round trip is
        /// exact and never longer than writing the vector out alone.
        #[test]
        fn wire_roundtrips_against_any_previous_path(
            own in prop::collection::vec(elem(), 0..12),
            prev_own in prop::collection::vec(elem(), 0..12),
            common in prop::collection::vec(elem(), 0..12),
        ) {
            let build = |parts: [&Vec<Elem<i64>>; 2]| {
                let mut v: SymVector<i64> = SymVector::new();
                for e in parts.into_iter().flatten() {
                    v.push_elem(e.clone());
                }
                v
            };
            let (v, prev) = (build([&own, &common]), build([&prev_own, &common]));
            let alone = roundtrip_after(&v, None);
            let after = roundtrip_after(&v, Some(&prev));
            prop_assert!(after.len() <= alone.len());
        }
    }

    fn elem() -> impl Strategy<Value = Elem<i64>> {
        prop_oneof![
            any::<i64>().prop_map(Elem::Concrete),
            (-3i64..3).prop_map(Elem::Concrete),
            (any::<i64>(), any::<i64>()).prop_map(|(a, b)| Elem::Sym(SymScalar::Affine {
                field: FieldId(1),
                a,
                b
            })),
        ]
    }

    proptest! {
        /// Up to six live handles under random interleavings of push (one
        /// element, or a burst that crosses cell boundaries), clone —
        /// so the next push on either side is a push on a clone — and
        /// drop, each against a plain `Vec` of its own. After every step
        /// every handle still reads as its model: a push through one
        /// handle never shows through another, which is what "a cell two
        /// handles share never grows" means.
        #[test]
        fn handles_behave_like_independent_vecs(
            ops in prop::collection::vec((0u8..5, any::<usize>(), 1usize..80, elem()), 1..60),
        ) {
            let mut live: Vec<(SymVector<i64>, Vec<Elem<i64>>)> =
                vec![(SymVector::new(), Vec::new())];
            for (op, at, burst, e) in ops {
                let at = at % live.len();
                match op {
                    0 | 1 => {
                        live[at].0.push_elem(e.clone());
                        live[at].1.push(e);
                    }
                    2 => {
                        for k in 0..burst {
                            let e = if k % 7 == 0 { e.clone() } else { Elem::Concrete(k as i64 % 3) };
                            live[at].0.push_elem(e.clone());
                            live[at].1.push(e);
                        }
                    }
                    3 if live.len() < 6 => {
                        let copy = live[at].clone();
                        live.push(copy);
                    }
                    _ if live.len() > 1 => drop(live.swap_remove(at)),
                    _ => {}
                }
                for (i, (v, model)) in live.iter().enumerate() {
                    prop_assert_eq!(&v.elems(), model);
                    prop_assert_eq!(v.len(), model.len());
                    prop_assert_eq!(v.is_concrete(), !model.iter().any(Elem::is_sym));
                    prop_assert!(v.cells() <= model.len());
                    for (other, other_model) in &live {
                        prop_assert_eq!(v == other, model == other_model);
                    }
                    let prev = &live[(i + 1) % live.len()].0;
                    roundtrip_after(v, Some(prev));
                }
            }
        }
    }

    #[test]
    fn ten_thousand_pushes_on_a_sole_owner_cost_a_cell_per_64() {
        let mut v: SymVector<i64> = SymVector::new();
        for i in 0..10_000 {
            v.push(i);
        }
        assert!(
            v.cells() <= 10_000usize.div_ceil(NODE_CAP) + 1,
            "{}",
            v.cells()
        );
        assert_eq!(v.concrete_elems().unwrap(), (0..10_000).collect::<Vec<_>>());
        // A clone that comes and goes does not end in-place growth.
        let before = v.cells();
        drop(v.clone());
        v.push(10_000);
        assert_eq!(v.cells(), before);
    }

    #[test]
    fn forked_siblings_own_one_cell_each_and_share_the_rest() {
        let mut base: SymVector<i64> = SymVector::new();
        for i in 0..100 {
            base.push(i);
        }
        let (mut a, mut b) = (base.clone(), base.clone());
        a.push(7);
        b.push(8);
        for sibling in [&a, &b] {
            assert_eq!(sibling.cells(), base.cells() + 1);
            let own = sibling.tail.as_ref().unwrap();
            assert_eq!(own.len(), 1, "the shared cell did not grow");
            assert!(Arc::ptr_eq(
                own.prev.as_ref().unwrap(),
                base.tail.as_ref().unwrap()
            ));
        }
        assert_eq!(base.len(), 100);
        assert_eq!(base.concrete_elems().unwrap(), (0..100).collect::<Vec<_>>());
        // Each sibling's own cell is its alone: the next push stays in it.
        a.push(9);
        assert_eq!(a.cells(), base.cells() + 1);
        assert_eq!(a.concrete_elems().unwrap()[99..], [99, 7, 9]);
        assert_eq!(b.concrete_elems().unwrap()[99..], [99, 8]);
    }

    #[test]
    fn string_vector_concrete_roundtrip() {
        let mut v: SymVector<String> = SymVector::new();
        v.push("abc".to_string());
        let mut buf = Vec::new();
        v.encode_field(None, &mut buf);
        let mut back: SymVector<String> = SymVector::new();
        back.decode_field(&mut &buf[..], FieldId(0), None).unwrap();
        assert_eq!(back.concrete_elems().unwrap(), vec!["abc".to_string()]);
    }

    #[test]
    fn describe_shows_symbolic_elements() {
        let mut v: SymVector<i64> = SymVector::new();
        v.push(5);
        v.push_scalar(SymScalar::Affine {
            field: FieldId(0),
            a: 2,
            b: 1,
        });
        assert_eq!(v.describe(), "[5, 2·x0+1]");
    }

    #[test]
    fn deep_list_drop_does_not_overflow_stack() {
        // A naive recursive Drop on the cons list would blow the stack.
        // Cloning before each push keeps the tail shared, so every element
        // opens a cell: 200 000 cells, not 3 125.
        let mut v: SymVector<i64> = SymVector::new();
        for i in 0..200_000 {
            let held = v.clone();
            v.push(i);
            drop(held);
        }
        assert_eq!(v.cells(), 200_000);
        let mut reset = v.clone();
        drop(v);
        reset.make_symbolic(FieldId(0)); // the last owner, dropped by assignment
    }
}
