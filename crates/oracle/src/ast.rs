//! Generated UDAs: a bounded, serializable AST over the symbolic data
//! types, plus an independent concrete reference interpreter.
//!
//! The fuzzer ([`crate::fuzz`]) generates random well-typed
//! [`Program`]s, wraps them in [`AstUda`] — an ordinary [`Uda`] whose
//! state is a dynamic field list — and differential-checks every
//! executor against [`eval_concrete`], which evaluates the same AST over
//! plain `i64`s with hand-written checked arithmetic. The two
//! implementations share *no* evaluation code: `AstUda` goes through
//! `SymInt`/`SymBool`/`SymEnum`/`SymMinMax`/`SymPred`/`SymVector` (and
//! therefore through path exploration, merging, and composition), while
//! the reference is a direct fold. Any disagreement on any input is a
//! soundness finding in one of them.
//!
//! Programs serialize to a compact single-line token (see
//! [`Program::to_token`]) so a repro artifact can embed the exact UDA it
//! failed on and replay it against any future tree: [`crate::fuzz_case`]
//! parses the token on replay.

use std::sync::Arc;

use symple_core::ctx::SymCtx;
use symple_core::error::{Error, Result};
use symple_core::state::{SymField, SymState};
use symple_core::types::sym_bool::SymBool;
use symple_core::types::sym_enum::SymEnum;
use symple_core::types::sym_int::SymInt;
use symple_core::types::sym_minmax::{Extremum, SymMinMax};
use symple_core::types::sym_pred::SymPred;
use symple_core::types::sym_vector::SymVector;
use symple_core::uda::Uda;

/// Maximum number of state fields a [`Program`] may declare.
pub const MAX_FIELDS: usize = 16;
/// Maximum number of statements (counting nested ones) in a body.
pub const MAX_STMTS: usize = 96;
/// Maximum `if` nesting depth.
pub const MAX_DEPTH: usize = 8;
/// Maximum enum domain generated programs use (kept small so constraint
/// sets stay readable in artifacts; the engine itself supports 256).
pub const MAX_DOMAIN: u32 = 64;
/// Maximum predicate decision window.
pub const MAX_WINDOW: usize = 16;

/// The black-box predicate shape of a generated [`SymPred`] field.
///
/// Closures do not serialize, so generated predicates are drawn from a
/// fixed family: `pred(held, arg) = held OP arg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredKind {
    /// `held < arg`.
    Lt,
    /// `held ≤ arg`.
    Le,
    /// `held > arg`.
    Gt,
}

impl PredKind {
    fn apply(self, held: i64, arg: i64) -> bool {
        match self {
            PredKind::Lt => held < arg,
            PredKind::Le => held <= arg,
            PredKind::Gt => held > arg,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            PredKind::Lt => "lt",
            PredKind::Le => "le",
            PredKind::Gt => "gt",
        }
    }

    fn parse(s: &str) -> Option<PredKind> {
        Some(match s {
            "lt" => PredKind::Lt,
            "le" => PredKind::Le,
            "gt" => PredKind::Gt,
            _ => return None,
        })
    }
}

/// One state-field declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldDecl {
    /// A [`SymInt`] of the given bit width (8–64). Narrow widths make
    /// overflow-prone accumulators — a deliberate part of the fuzz space.
    Int {
        /// Bit width, 8..=64.
        width: u8,
        /// Initial concrete value (must fit the width).
        init: i64,
    },
    /// A [`SymBool`].
    Bool {
        /// Initial value.
        init: bool,
    },
    /// A [`SymEnum`] over `0..domain`.
    Enum {
        /// Domain size, 1..=[`MAX_DOMAIN`].
        domain: u32,
        /// Initial value (< domain).
        init: u32,
    },
    /// A [`SymMinMax`] running extremum.
    MinMax {
        /// `true` = running maximum, `false` = running minimum.
        max: bool,
    },
    /// A [`SymPred`] holding an `i64` with a [`PredKind`] predicate.
    Pred {
        /// The predicate family.
        kind: PredKind,
        /// Decision-window bound (`with_max_decisions`).
        window: usize,
    },
    /// An append-only [`SymVector`] of `i64` (the output aggregate).
    Vec,
}

impl FieldDecl {
    /// Short kind tag, used in field names and diagnostics.
    pub fn kind_str(&self) -> &'static str {
        match self {
            FieldDecl::Int { .. } => "int",
            FieldDecl::Bool { .. } => "bool",
            FieldDecl::Enum { .. } => "enum",
            FieldDecl::MinMax { .. } => "minmax",
            FieldDecl::Pred { .. } => "pred",
            FieldDecl::Vec => "vec",
        }
    }
}

/// An integer operand: a constant, the raw event, or the event reduced
/// modulo a constant. All three are concrete `i64`s at update time (the
/// event is always concrete; only *state* is symbolic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntArg {
    /// A literal constant.
    Const(i64),
    /// The event value itself.
    Event,
    /// `event mod k` (Euclidean, so the result is in `0..k`); `k ≥ 1`.
    EventMod(i64),
}

impl IntArg {
    /// The operand's concrete value for event `e`.
    pub fn value(&self, e: i64) -> i64 {
        match *self {
            IntArg::Const(c) => c,
            IntArg::Event => e,
            IntArg::EventMod(k) => e.rem_euclid(k.max(1)),
        }
    }
}

/// Comparison operators for guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
    /// `==` (three-way fork on a symbolic [`SymInt`]).
    Eq,
    /// `!=` (three-way fork on a symbolic [`SymInt`]).
    Ne,
}

impl CmpOp {
    fn apply(self, v: i64, k: i64) -> bool {
        match self {
            CmpOp::Lt => v < k,
            CmpOp::Le => v <= k,
            CmpOp::Gt => v > k,
            CmpOp::Ge => v >= k,
            CmpOp::Eq => v == k,
            CmpOp::Ne => v != k,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
        }
    }

    fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            _ => return None,
        })
    }
}

/// Checked arithmetic operators on a [`SymInt`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntOpKind {
    /// `field += arg`
    Add,
    /// `field -= arg`
    Sub,
    /// `field *= arg`
    Mul,
    /// `field = arg − field`
    Rsub,
}

impl IntOpKind {
    fn as_str(self) -> &'static str {
        match self {
            IntOpKind::Add => "iadd",
            IntOpKind::Sub => "isub",
            IntOpKind::Mul => "imul",
            IntOpKind::Rsub => "irsub",
        }
    }
}

/// A guard condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// Compare a [`SymInt`] field against a constant (may fork).
    Int {
        /// Field index.
        f: usize,
        /// Operator.
        op: CmpOp,
        /// The constant.
        k: i64,
    },
    /// Compare a [`SymMinMax`] field against a constant; only the order
    /// operators exist ([`CmpOp::Eq`]/[`CmpOp::Ne`] are rejected by
    /// [`Program::typecheck`]).
    MinMax {
        /// Field index.
        f: usize,
        /// Operator (Lt/Le/Gt/Ge).
        op: CmpOp,
        /// The constant.
        k: i64,
    },
    /// Read a [`SymBool`] field (forks while symbolic).
    Bool {
        /// Field index.
        f: usize,
    },
    /// Test a [`SymEnum`] field against a domain constant.
    Enum {
        /// Field index.
        f: usize,
        /// `true` = equality, `false` = inequality.
        eq: bool,
        /// The constant (< domain).
        c: u32,
    },
    /// Evaluate a [`SymPred`] field against an operand (forks and records
    /// a decision while the held value is unknown).
    Pred {
        /// Field index.
        f: usize,
        /// The predicate argument.
        arg: IntArg,
    },
    /// Compare the (always concrete) event against a constant — never
    /// forks; partitions the input space instead of the state space.
    Event {
        /// Operator.
        op: CmpOp,
        /// The constant.
        k: i64,
    },
}

/// One update statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Checked arithmetic on a [`SymInt`] field.
    IntOp {
        /// Field index.
        f: usize,
        /// Operator.
        op: IntOpKind,
        /// Operand.
        arg: IntArg,
    },
    /// Rebind a [`SymInt`] field to a concrete value (a reset).
    IntSet {
        /// Field index.
        f: usize,
        /// Operand.
        arg: IntArg,
    },
    /// Assign a [`SymBool`] field.
    BoolSet {
        /// Field index.
        f: usize,
        /// New value.
        v: bool,
    },
    /// Assign a [`SymEnum`] field a domain constant.
    EnumSet {
        /// Field index.
        f: usize,
        /// New value (< domain).
        c: u32,
    },
    /// Fold an operand into a [`SymMinMax`] field.
    MinMaxUpd {
        /// Field index.
        f: usize,
        /// Operand.
        arg: IntArg,
    },
    /// Overwrite a [`SymMinMax`] field (a reset).
    MinMaxSet {
        /// Field index.
        f: usize,
        /// Operand.
        arg: IntArg,
    },
    /// Bind a [`SymPred`] field's held value.
    PredSet {
        /// Field index.
        f: usize,
        /// Operand.
        arg: IntArg,
    },
    /// Append a concrete operand to a [`SymVector`] field.
    VecPush {
        /// Field index.
        f: usize,
        /// Operand.
        arg: IntArg,
    },
    /// Append a (possibly symbolic) [`SymInt`] field's value to a
    /// [`SymVector`] field.
    VecPushInt {
        /// Vector field index.
        f: usize,
        /// Source integer field index.
        src: usize,
    },
    /// A branch.
    If {
        /// Guard.
        cond: Cond,
        /// Taken when the guard holds.
        then: Vec<Stmt>,
        /// Taken otherwise.
        els: Vec<Stmt>,
    },
}

/// A generated UDA: field declarations plus an update body.
///
/// `init` is the declared initial values, `update` interprets `body`
/// once per event, and `result` reports one `Vec<i64>` per field (scalar
/// fields contribute a singleton; vector fields their elements).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// State-field declarations, in [`symple_core::state::FieldId`] order.
    pub fields: Vec<FieldDecl>,
    /// Update statements, run in order for every event.
    pub body: Vec<Stmt>,
}

// ---------------------------------------------------------------------------
// Typechecking
// ---------------------------------------------------------------------------

impl Program {
    /// Structural well-formedness: every field reference is in range and
    /// kind-correct, every constant is in domain, and the size bounds
    /// hold. Generated and mutated programs must always pass; the token
    /// parser re-checks so artifacts cannot smuggle ill-typed programs.
    pub fn typecheck(&self) -> std::result::Result<(), String> {
        if self.fields.is_empty() {
            return Err("program has no fields".into());
        }
        if self.fields.len() > MAX_FIELDS {
            return Err(format!("too many fields ({})", self.fields.len()));
        }
        for (i, f) in self.fields.iter().enumerate() {
            match *f {
                FieldDecl::Int { width, init } => {
                    if !(8..=64).contains(&width) {
                        return Err(format!("field {i}: int width {width} outside 8..=64"));
                    }
                    if !fits_width(init, width) {
                        return Err(format!("field {i}: init {init} does not fit i{width}"));
                    }
                }
                FieldDecl::Enum { domain, init } => {
                    if domain == 0 || domain > MAX_DOMAIN {
                        return Err(format!("field {i}: enum domain {domain} outside 1..=64"));
                    }
                    if init >= domain {
                        return Err(format!("field {i}: enum init {init} outside 0..{domain}"));
                    }
                }
                FieldDecl::Pred { window, .. } => {
                    if window == 0 || window > MAX_WINDOW {
                        return Err(format!("field {i}: pred window {window} outside 1..=16"));
                    }
                }
                FieldDecl::Bool { .. } | FieldDecl::MinMax { .. } | FieldDecl::Vec => {}
            }
        }
        let mut count = 0usize;
        self.check_block(&self.body, 0, &mut count)?;
        if count > MAX_STMTS {
            return Err(format!("too many statements ({count})"));
        }
        Ok(())
    }

    fn check_block(
        &self,
        block: &[Stmt],
        depth: usize,
        count: &mut usize,
    ) -> std::result::Result<(), String> {
        if depth > MAX_DEPTH {
            return Err("if-nesting too deep".into());
        }
        for s in block {
            *count += 1;
            match s {
                Stmt::IntOp { f, .. } | Stmt::IntSet { f, .. } => {
                    self.expect_kind(*f, "int")?;
                }
                Stmt::BoolSet { f, .. } => self.expect_kind(*f, "bool")?,
                Stmt::EnumSet { f, c } => {
                    self.expect_kind(*f, "enum")?;
                    if let FieldDecl::Enum { domain, .. } = self.fields[*f] {
                        if *c >= domain {
                            return Err(format!("enum const {c} outside 0..{domain}"));
                        }
                    }
                }
                Stmt::MinMaxUpd { f, .. } | Stmt::MinMaxSet { f, .. } => {
                    self.expect_kind(*f, "minmax")?;
                }
                Stmt::PredSet { f, .. } => self.expect_kind(*f, "pred")?,
                Stmt::VecPush { f, .. } => self.expect_kind(*f, "vec")?,
                Stmt::VecPushInt { f, src } => {
                    self.expect_kind(*f, "vec")?;
                    self.expect_kind(*src, "int")?;
                }
                Stmt::If { cond, then, els } => {
                    self.check_cond(cond)?;
                    self.check_block(then, depth + 1, count)?;
                    self.check_block(els, depth + 1, count)?;
                }
            }
        }
        check_args(block)
    }

    fn check_cond(&self, cond: &Cond) -> std::result::Result<(), String> {
        match cond {
            Cond::Int { f, .. } => self.expect_kind(*f, "int"),
            Cond::MinMax { f, op, .. } => {
                if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    return Err("minmax guards support only order comparisons".into());
                }
                self.expect_kind(*f, "minmax")
            }
            Cond::Bool { f } => self.expect_kind(*f, "bool"),
            Cond::Enum { f, c, .. } => {
                self.expect_kind(*f, "enum")?;
                if let FieldDecl::Enum { domain, .. } = self.fields[*f] {
                    if *c >= domain {
                        return Err(format!("enum const {c} outside 0..{domain}"));
                    }
                }
                Ok(())
            }
            Cond::Pred { f, arg } => {
                self.expect_kind(*f, "pred")?;
                check_arg(arg)
            }
            Cond::Event { .. } => Ok(()),
        }
    }

    fn expect_kind(&self, f: usize, kind: &str) -> std::result::Result<(), String> {
        match self.fields.get(f) {
            Some(d) if d.kind_str() == kind => Ok(()),
            Some(d) => Err(format!("field {f} is {}, expected {kind}", d.kind_str())),
            None => Err(format!("field {f} out of range")),
        }
    }
}

fn check_arg(arg: &IntArg) -> std::result::Result<(), String> {
    match *arg {
        IntArg::EventMod(k) if k < 1 => Err(format!("event modulus {k} must be ≥ 1")),
        _ => Ok(()),
    }
}

fn check_args(block: &[Stmt]) -> std::result::Result<(), String> {
    for s in block {
        match s {
            Stmt::IntOp { arg, .. }
            | Stmt::IntSet { arg, .. }
            | Stmt::MinMaxUpd { arg, .. }
            | Stmt::MinMaxSet { arg, .. }
            | Stmt::PredSet { arg, .. }
            | Stmt::VecPush { arg, .. } => check_arg(arg)?,
            _ => {}
        }
    }
    Ok(())
}

fn fits_width(v: i64, width: u8) -> bool {
    if width >= 64 {
        return true;
    }
    let half = 1i64 << (width - 1);
    (-half..half).contains(&v)
}

// ---------------------------------------------------------------------------
// Concrete reference interpreter
// ---------------------------------------------------------------------------

/// One field's concrete value in the reference interpreter.
#[derive(Debug, Clone, PartialEq)]
enum CVal {
    Int { width: u8, v: i64 },
    Bool(bool),
    Enum { domain: u32, v: u32 },
    MinMax { max: bool, acc: i64 },
    Pred { kind: PredKind, held: Option<i64> },
    Vec(Vec<i64>),
}

impl CVal {
    fn init(decl: &FieldDecl) -> CVal {
        match *decl {
            FieldDecl::Int { width, init } => CVal::Int { width, v: init },
            FieldDecl::Bool { init } => CVal::Bool(init),
            FieldDecl::Enum { domain, init } => CVal::Enum { domain, v: init },
            // The fold identity mirrors `SymMinMax::new` (`INT_MIN` for Max).
            FieldDecl::MinMax { max } => CVal::MinMax {
                max,
                acc: if max { i64::MIN } else { i64::MAX },
            },
            FieldDecl::Pred { kind, .. } => CVal::Pred { kind, held: None },
            FieldDecl::Vec => CVal::Vec(Vec::new()),
        }
    }
}

/// Runs the program's checked integer op, mirroring [`SymInt`] concrete
/// semantics exactly: `i64` overflow and declared-width overflow both
/// report [`Error::ArithmeticOverflow`] with the same op tag.
fn int_op(width: u8, v: i64, op: IntOpKind, k: i64) -> Result<i64> {
    let (r, tag) = match op {
        IntOpKind::Add => (v.checked_add(k), "add"),
        IntOpKind::Sub => (v.checked_sub(k), "sub"),
        IntOpKind::Mul => (v.checked_mul(k), "mul"),
        IntOpKind::Rsub => (k.checked_sub(v), "rsub"),
    };
    match r {
        Some(r) if fits_width(r, width) => Ok(r),
        _ => Err(Error::ArithmeticOverflow { op: tag }),
    }
}

fn eval_cond_concrete(fields: &[CVal], cond: &Cond, e: i64) -> Result<bool> {
    Ok(match cond {
        Cond::Int { f, op, k } => match fields[*f] {
            CVal::Int { v, .. } => op.apply(v, *k),
            _ => unreachable!("typechecked"),
        },
        Cond::MinMax { f, op, k } => match fields[*f] {
            CVal::MinMax { acc, .. } => op.apply(acc, *k),
            _ => unreachable!("typechecked"),
        },
        Cond::Bool { f } => match fields[*f] {
            CVal::Bool(v) => v,
            _ => unreachable!("typechecked"),
        },
        Cond::Enum { f, eq, c } => match fields[*f] {
            CVal::Enum { v, .. } => (v == *c) == *eq,
            _ => unreachable!("typechecked"),
        },
        // Mirrors `SymPred::eval`: unset → the initial outcome (false).
        Cond::Pred { f, arg } => match &fields[*f] {
            CVal::Pred { kind, held } => match held {
                Some(h) => kind.apply(*h, arg.value(e)),
                None => false,
            },
            _ => unreachable!("typechecked"),
        },
        Cond::Event { op, k } => op.apply(e, *k),
    })
}

fn exec_block_concrete(fields: &mut Vec<CVal>, block: &[Stmt], e: i64) -> Result<()> {
    for s in block {
        match s {
            Stmt::IntOp { f, op, arg } => {
                if let CVal::Int { width, v } = &mut fields[*f] {
                    *v = int_op(*width, *v, *op, arg.value(e))?;
                }
            }
            Stmt::IntSet { f, arg } => {
                // A reset must respect the declared width like every other
                // write: the symbolic domain constrains an `i<w>` field's
                // unknown chunk-entry value to the width range, so letting
                // a rebind smuggle in an out-of-width value breaks the
                // invariant that range encodes (found by the fuzzer as an
                // Ok-vs-IncompleteSummary divergence).
                if let CVal::Int { width, v } = &mut fields[*f] {
                    let val = arg.value(e);
                    if !fits_width(val, *width) {
                        return Err(Error::ArithmeticOverflow { op: "set" });
                    }
                    *v = val;
                }
            }
            Stmt::BoolSet { f, v } => {
                if let CVal::Bool(b) = &mut fields[*f] {
                    *b = *v;
                }
            }
            Stmt::EnumSet { f, c } => {
                if let CVal::Enum { domain, v } = &mut fields[*f] {
                    if *c >= *domain {
                        return Err(Error::EnumOutOfDomain {
                            value: i64::from(*c),
                            domain: *domain,
                        });
                    }
                    *v = *c;
                }
            }
            Stmt::MinMaxUpd { f, arg } => {
                if let CVal::MinMax { max, acc } = &mut fields[*f] {
                    let x = arg.value(e);
                    *acc = if *max { (*acc).max(x) } else { (*acc).min(x) };
                }
            }
            Stmt::MinMaxSet { f, arg } => {
                if let CVal::MinMax { acc, .. } = &mut fields[*f] {
                    *acc = arg.value(e);
                }
            }
            Stmt::PredSet { f, arg } => {
                if let CVal::Pred { held, .. } = &mut fields[*f] {
                    *held = Some(arg.value(e));
                }
            }
            Stmt::VecPush { f, arg } => {
                if let CVal::Vec(v) = &mut fields[*f] {
                    v.push(arg.value(e));
                }
            }
            Stmt::VecPushInt { f, src } => {
                let x = match fields[*src] {
                    CVal::Int { v, .. } => v,
                    _ => unreachable!("typechecked"),
                };
                if let CVal::Vec(v) = &mut fields[*f] {
                    v.push(x);
                }
            }
            Stmt::If { cond, then, els } => {
                let taken = eval_cond_concrete(fields, cond, e)?;
                let block = if taken { then } else { els };
                exec_block_concrete(fields, block, e)?;
            }
        }
    }
    Ok(())
}

/// The sentinel a never-set predicate field reports in the output (there
/// is no held value to show).
pub const UNSET: i64 = i64::MIN;

/// Evaluates a program concretely over `events` — the reference
/// semantics [`AstUda`] (and with it every parallel executor) must
/// reproduce exactly. Shares no evaluation code with the symbolic types.
pub fn eval_concrete(program: &Program, events: &[i64]) -> Result<Vec<Vec<i64>>> {
    debug_assert!(program.typecheck().is_ok());
    let mut fields: Vec<CVal> = program.fields.iter().map(CVal::init).collect();
    for &e in events {
        exec_block_concrete(&mut fields, &program.body, e)?;
    }
    Ok(fields
        .into_iter()
        .map(|f| match f {
            CVal::Int { v, .. } => vec![v],
            CVal::Bool(b) => vec![i64::from(b)],
            CVal::Enum { v, .. } => vec![i64::from(v)],
            CVal::MinMax { acc, .. } => vec![acc],
            CVal::Pred { held, .. } => vec![held.unwrap_or(UNSET)],
            CVal::Vec(v) => v,
        })
        .collect())
}

// ---------------------------------------------------------------------------
// The symbolic-typed state and Uda impl
// ---------------------------------------------------------------------------

/// One field of an [`AstState`]: a tagged union over the symbolic types.
#[derive(Debug, Clone)]
pub enum AstField {
    /// A [`SymInt`].
    Int(SymInt),
    /// A [`SymBool`].
    Bool(SymBool),
    /// A [`SymEnum`].
    Enum(SymEnum),
    /// A [`SymMinMax`].
    MinMax(SymMinMax),
    /// A [`SymPred`] over `i64`.
    Pred(SymPred<i64>),
    /// A [`SymVector`] of `i64`.
    Vec(SymVector<i64>),
}

impl AstField {
    fn as_field_ref(&self) -> &dyn SymField {
        match self {
            AstField::Int(x) => x,
            AstField::Bool(x) => x,
            AstField::Enum(x) => x,
            AstField::MinMax(x) => x,
            AstField::Pred(x) => x,
            AstField::Vec(x) => x,
        }
    }

    fn as_field_mut(&mut self) -> &mut dyn SymField {
        match self {
            AstField::Int(x) => x,
            AstField::Bool(x) => x,
            AstField::Enum(x) => x,
            AstField::MinMax(x) => x,
            AstField::Pred(x) => x,
            AstField::Vec(x) => x,
        }
    }

    fn kind_str(&self) -> &'static str {
        match self {
            AstField::Int(_) => "int",
            AstField::Bool(_) => "bool",
            AstField::Enum(_) => "enum",
            AstField::MinMax(_) => "minmax",
            AstField::Pred(_) => "pred",
            AstField::Vec(_) => "vec",
        }
    }
}

/// The dynamic-field aggregation state of an [`AstUda`].
///
/// Every hand-written UDA uses [`symple_core::impl_sym_state!`] over a struct;
/// this is the one state in the tree that implements [`SymState`] by
/// hand, over a `Vec` of fields whose shape is decided at runtime by the
/// program's declarations. Field order is declaration order, matching
/// [`symple_core::state::FieldId`] indices everywhere else.
#[derive(Debug, Clone)]
pub struct AstState {
    fields: Vec<AstField>,
}

impl SymState for AstState {
    fn field_count(&self) -> usize {
        self.fields.len()
    }

    fn field_ref_at(&self, i: usize) -> &dyn SymField {
        self.fields[i].as_field_ref()
    }

    fn field_mut_at(&mut self, i: usize) -> &mut dyn SymField {
        self.fields[i].as_field_mut()
    }

    fn field_names(&self) -> Vec<String> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("{}{i}", f.kind_str()))
            .collect()
    }
}

/// A generated [`Program`] as an ordinary [`Uda`], runnable through
/// every executor in the tree.
pub struct AstUda {
    program: Arc<Program>,
}

impl AstUda {
    /// Wraps a (typechecked) program.
    pub fn new(program: Program) -> AstUda {
        debug_assert!(
            program.typecheck().is_ok(),
            "AstUda needs a well-typed program"
        );
        AstUda {
            program: Arc::new(program),
        }
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn eval_cond(&self, s: &mut AstState, ctx: &mut SymCtx, cond: &Cond, e: i64) -> bool {
        match cond {
            Cond::Int { f, op, k } => match &mut s.fields[*f] {
                AstField::Int(x) => match op {
                    CmpOp::Lt => x.lt(ctx, *k),
                    CmpOp::Le => x.le(ctx, *k),
                    CmpOp::Gt => x.gt(ctx, *k),
                    CmpOp::Ge => x.ge(ctx, *k),
                    CmpOp::Eq => x.eq_c(ctx, *k),
                    CmpOp::Ne => x.ne_c(ctx, *k),
                },
                _ => unreachable!("typechecked"),
            },
            Cond::MinMax { f, op, k } => match &mut s.fields[*f] {
                AstField::MinMax(x) => match op {
                    CmpOp::Lt => x.lt(ctx, *k),
                    CmpOp::Le => x.le(ctx, *k),
                    CmpOp::Gt => x.gt(ctx, *k),
                    _ => x.ge(ctx, *k),
                },
                _ => unreachable!("typechecked"),
            },
            Cond::Bool { f } => match &mut s.fields[*f] {
                AstField::Bool(x) => x.get(ctx),
                _ => unreachable!("typechecked"),
            },
            Cond::Enum { f, eq, c } => match &mut s.fields[*f] {
                AstField::Enum(x) => {
                    if *eq {
                        x.eq_c(ctx, *c)
                    } else {
                        x.ne_c(ctx, *c)
                    }
                }
                _ => unreachable!("typechecked"),
            },
            Cond::Pred { f, arg } => match &mut s.fields[*f] {
                AstField::Pred(x) => x.eval(ctx, &arg.value(e)),
                _ => unreachable!("typechecked"),
            },
            Cond::Event { op, k } => op.apply(e, *k),
        }
    }

    fn exec_block(&self, s: &mut AstState, ctx: &mut SymCtx, block: &[Stmt], e: i64) {
        for stmt in block {
            match stmt {
                Stmt::IntOp { f, op, arg } => {
                    if let AstField::Int(x) = &mut s.fields[*f] {
                        let k = arg.value(e);
                        match op {
                            IntOpKind::Add => x.add(ctx, k),
                            IntOpKind::Sub => x.sub(ctx, k),
                            IntOpKind::Mul => x.mul(ctx, k),
                            IntOpKind::Rsub => x.rsub(ctx, k),
                        }
                    }
                }
                Stmt::IntSet { f, arg } => {
                    if let AstField::Int(x) = &mut s.fields[*f] {
                        // Width invariant — see the reference interpreter's
                        // `IntSet` arm: an out-of-width rebind must fail,
                        // not store a value the field's symbolic range can
                        // never cover.
                        let FieldDecl::Int { width, .. } = self.program.fields[*f] else {
                            unreachable!("typechecked")
                        };
                        let val = arg.value(e);
                        if fits_width(val, width) {
                            x.assign(val);
                        } else {
                            ctx.fail(Error::ArithmeticOverflow { op: "set" });
                        }
                    }
                }
                Stmt::BoolSet { f, v } => {
                    if let AstField::Bool(x) = &mut s.fields[*f] {
                        x.assign(*v);
                    }
                }
                Stmt::EnumSet { f, c } => {
                    if let AstField::Enum(x) = &mut s.fields[*f] {
                        x.assign(ctx, *c);
                    }
                }
                Stmt::MinMaxUpd { f, arg } => {
                    if let AstField::MinMax(x) = &mut s.fields[*f] {
                        x.update(arg.value(e));
                    }
                }
                Stmt::MinMaxSet { f, arg } => {
                    if let AstField::MinMax(x) = &mut s.fields[*f] {
                        x.assign(arg.value(e));
                    }
                }
                Stmt::PredSet { f, arg } => {
                    if let AstField::Pred(x) = &mut s.fields[*f] {
                        x.set(arg.value(e));
                    }
                }
                Stmt::VecPush { f, arg } => {
                    if let AstField::Vec(x) = &mut s.fields[*f] {
                        x.push(arg.value(e));
                    }
                }
                Stmt::VecPushInt { f, src } => {
                    // Split-borrow: read the source int before the vector.
                    let scalar = match &s.fields[*src] {
                        AstField::Int(x) => x.as_scalar(),
                        _ => unreachable!("typechecked"),
                    };
                    if let AstField::Vec(x) = &mut s.fields[*f] {
                        x.push_scalar(scalar);
                    }
                }
                Stmt::If { cond, then, els } => {
                    let taken = self.eval_cond(s, ctx, cond, e);
                    let block = if taken { then } else { els };
                    self.exec_block(s, ctx, block, e);
                }
            }
        }
    }
}

impl Uda for AstUda {
    type State = AstState;
    type Event = i64;
    type Output = Vec<Vec<i64>>;

    fn init(&self) -> AstState {
        let fields = self
            .program
            .fields
            .iter()
            .map(|d| match *d {
                FieldDecl::Int { width, init } => AstField::Int(SymInt::with_width(width, init)),
                FieldDecl::Bool { init } => AstField::Bool(SymBool::new(init)),
                FieldDecl::Enum { domain, init } => AstField::Enum(SymEnum::new(domain, init)),
                FieldDecl::MinMax { max } => AstField::MinMax(SymMinMax::new(if max {
                    Extremum::Max
                } else {
                    Extremum::Min
                })),
                FieldDecl::Pred { kind, window } => AstField::Pred(
                    SymPred::new(move |h: &i64, a: &i64| kind.apply(*h, *a))
                        .with_max_decisions(window),
                ),
                FieldDecl::Vec => AstField::Vec(SymVector::new()),
            })
            .collect();
        AstState { fields }
    }

    fn update(&self, s: &mut AstState, ctx: &mut SymCtx, e: &i64) {
        // Clone the Arc, not the body: `exec_block` borrows `self`
        // immutably and the program is immutable anyway.
        let program = Arc::clone(&self.program);
        self.exec_block(s, ctx, &program.body, *e);
    }

    fn result(&self, s: &AstState, ctx: &mut SymCtx) -> Vec<Vec<i64>> {
        // Any still-symbolic field here means composition failed to
        // resolve the state — itself a soundness finding, surfaced as an
        // `Err(Uda)` that can never match the concrete reference.
        let fail = |ctx: &mut SymCtx, what: &str| {
            ctx.fail(Error::Uda(format!("non-concrete {what} at result time")));
            UNSET
        };
        s.fields
            .iter()
            .map(|f| match f {
                AstField::Int(x) => {
                    vec![x.concrete_value().unwrap_or_else(|| fail(ctx, "int"))]
                }
                AstField::Bool(x) => vec![x
                    .concrete_value()
                    .map(i64::from)
                    .unwrap_or_else(|| fail(ctx, "bool"))],
                AstField::Enum(x) => vec![x
                    .concrete_value()
                    .map(i64::from)
                    .unwrap_or_else(|| fail(ctx, "enum"))],
                AstField::MinMax(x) => {
                    vec![x.concrete_value().unwrap_or_else(|| fail(ctx, "minmax"))]
                }
                AstField::Pred(x) => vec![if x.is_unknown() {
                    fail(ctx, "pred")
                } else {
                    x.value().copied().unwrap_or(UNSET)
                }],
                AstField::Vec(x) => match x.concrete_elems() {
                    Ok(v) => v,
                    Err(e) => {
                        ctx.fail(e);
                        Vec::new()
                    }
                },
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Analyzer event variants
// ---------------------------------------------------------------------------

/// Static names for derived analyzer variants (the analyzer API wants
/// `&'static str` names; values are derived per program).
const VARIANT_NAMES: [&str; 12] = [
    "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11",
];

impl Program {
    /// Representative event values for the static analyzer: one variant
    /// per behaviorally distinct region of the event space, derived from
    /// the constants the body compares the event against.
    ///
    /// Always includes `0`, `1`, and `-1`; adds `k−1`, `k`, `k+1` around
    /// every [`Cond::Event`] constant until the fixed name pool runs out.
    pub fn variants(&self) -> Vec<(&'static str, i64)> {
        let mut values = vec![0i64, 1, -1];
        collect_event_cuts(&self.body, &mut values);
        values.dedup();
        let mut out = Vec::new();
        for (i, v) in values.into_iter().enumerate() {
            if i >= VARIANT_NAMES.len() {
                break;
            }
            if out.iter().any(|(_, x)| *x == v) {
                continue;
            }
            out.push((VARIANT_NAMES[out.len()], v));
        }
        out
    }
}

fn collect_event_cuts(block: &[Stmt], out: &mut Vec<i64>) {
    for s in block {
        if let Stmt::If { cond, then, els } = s {
            if let Cond::Event { k, .. } = cond {
                out.push(k.saturating_sub(1));
                out.push(*k);
                out.push(k.saturating_add(1));
            }
            collect_event_cuts(then, out);
            collect_event_cuts(els, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Token serialization
// ---------------------------------------------------------------------------

impl Program {
    /// Serializes the program as a compact single-line token, e.g.
    ///
    /// ```text
    /// fields[i32=0 vec] body[(iadd 0 ev) (if (xgt 5) [(vpushi 1 0)] [])]
    /// ```
    ///
    /// The token embeds in one `program:` line of a repro artifact;
    /// [`Program::parse_token`] round-trips it.
    pub fn to_token(&self) -> String {
        let mut s = String::from("fields[");
        for (i, f) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            match *f {
                FieldDecl::Int { width, init } => s.push_str(&format!("i{width}={init}")),
                FieldDecl::Bool { init } => s.push_str(&format!("b={}", u8::from(init))),
                FieldDecl::Enum { domain, init } => s.push_str(&format!("n{domain}={init}")),
                FieldDecl::MinMax { max } => s.push_str(if max { "mmax" } else { "mmin" }),
                FieldDecl::Pred { kind, window } => {
                    s.push_str(&format!("p{window}={}", kind.as_str()))
                }
                FieldDecl::Vec => s.push_str("vec"),
            }
        }
        s.push_str("] body");
        render_block(&self.body, &mut s);
        s
    }

    /// Parses a [`Program::to_token`] string and typechecks the result.
    pub fn parse_token(text: &str) -> std::result::Result<Program, String> {
        let toks = tokenize(text);
        let mut p = Parser { toks, pos: 0 };
        p.expect("fields")?;
        p.expect("[")?;
        let mut fields = Vec::new();
        while p.peek() != Some("]") {
            fields.push(parse_field(p.next_tok()?)?);
        }
        p.expect("]")?;
        p.expect("body")?;
        let body = p.parse_block()?;
        if p.pos != p.toks.len() {
            return Err(format!("trailing tokens at {}", p.pos));
        }
        let program = Program { fields, body };
        program.typecheck()?;
        Ok(program)
    }
}

fn render_arg(arg: &IntArg, s: &mut String) {
    match *arg {
        IntArg::Const(c) => s.push_str(&c.to_string()),
        IntArg::Event => s.push_str("ev"),
        IntArg::EventMod(k) => s.push_str(&format!("ev%{k}")),
    }
}

fn render_cond(cond: &Cond, s: &mut String) {
    s.push('(');
    match cond {
        Cond::Int { f, op, k } => s.push_str(&format!("i{} {f} {k}", op.as_str())),
        Cond::MinMax { f, op, k } => s.push_str(&format!("m{} {f} {k}", op.as_str())),
        Cond::Bool { f } => s.push_str(&format!("bget {f}")),
        Cond::Enum { f, eq, c } => {
            s.push_str(&format!("n{} {f} {c}", if *eq { "eq" } else { "ne" }))
        }
        Cond::Pred { f, arg } => {
            s.push_str(&format!("peval {f} "));
            render_arg(arg, s);
        }
        Cond::Event { op, k } => s.push_str(&format!("x{} {k}", op.as_str())),
    }
    s.push(')');
}

fn render_block(block: &[Stmt], s: &mut String) {
    s.push('[');
    for (i, stmt) in block.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        render_stmt(stmt, s);
    }
    s.push(']');
}

fn render_stmt(stmt: &Stmt, s: &mut String) {
    s.push('(');
    match stmt {
        Stmt::IntOp { f, op, arg } => {
            s.push_str(&format!("{} {f} ", op.as_str()));
            render_arg(arg, s);
        }
        Stmt::IntSet { f, arg } => {
            s.push_str(&format!("iset {f} "));
            render_arg(arg, s);
        }
        Stmt::BoolSet { f, v } => s.push_str(&format!("bset {f} {}", u8::from(*v))),
        Stmt::EnumSet { f, c } => s.push_str(&format!("nset {f} {c}")),
        Stmt::MinMaxUpd { f, arg } => {
            s.push_str(&format!("mupd {f} "));
            render_arg(arg, s);
        }
        Stmt::MinMaxSet { f, arg } => {
            s.push_str(&format!("mset {f} "));
            render_arg(arg, s);
        }
        Stmt::PredSet { f, arg } => {
            s.push_str(&format!("pset {f} "));
            render_arg(arg, s);
        }
        Stmt::VecPush { f, arg } => {
            s.push_str(&format!("vpush {f} "));
            render_arg(arg, s);
        }
        Stmt::VecPushInt { f, src } => s.push_str(&format!("vpushi {f} {src}")),
        Stmt::If { cond, then, els } => {
            s.push_str("if ");
            render_cond(cond, s);
            s.push(' ');
            render_block(then, s);
            s.push(' ');
            render_block(els, s);
        }
    }
    s.push(')');
}

fn tokenize(text: &str) -> Vec<String> {
    let mut spaced = String::with_capacity(text.len() + 16);
    for c in text.chars() {
        match c {
            '(' | ')' | '[' | ']' => {
                spaced.push(' ');
                spaced.push(c);
                spaced.push(' ');
            }
            _ => spaced.push(c),
        }
    }
    spaced.split_whitespace().map(str::to_string).collect()
}

struct Parser {
    toks: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next_tok(&mut self) -> std::result::Result<&str, String> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| "unexpected end of program token".to_string())?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &str) -> std::result::Result<(), String> {
        let got = self.next_tok()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected {want:?}, got {got:?}"))
        }
    }

    fn parse_usize(&mut self) -> std::result::Result<usize, String> {
        let t = self.next_tok()?;
        t.parse().map_err(|_| format!("bad index {t:?}"))
    }

    fn parse_i64(&mut self) -> std::result::Result<i64, String> {
        let t = self.next_tok()?;
        t.parse().map_err(|_| format!("bad integer {t:?}"))
    }

    fn parse_u32(&mut self) -> std::result::Result<u32, String> {
        let t = self.next_tok()?;
        t.parse().map_err(|_| format!("bad constant {t:?}"))
    }

    fn parse_arg(&mut self) -> std::result::Result<IntArg, String> {
        let t = self.next_tok()?;
        if t == "ev" {
            return Ok(IntArg::Event);
        }
        if let Some(k) = t.strip_prefix("ev%") {
            let k: i64 = k.parse().map_err(|_| format!("bad modulus {t:?}"))?;
            return Ok(IntArg::EventMod(k));
        }
        t.parse()
            .map(IntArg::Const)
            .map_err(|_| format!("bad operand {t:?}"))
    }

    fn parse_block(&mut self) -> std::result::Result<Vec<Stmt>, String> {
        self.expect("[")?;
        let mut out = Vec::new();
        while self.peek() != Some("]") {
            out.push(self.parse_stmt()?);
        }
        self.expect("]")?;
        Ok(out)
    }

    fn parse_cond(&mut self) -> std::result::Result<Cond, String> {
        self.expect("(")?;
        let head = self.next_tok()?.to_string();
        let cond = match head.as_str() {
            "bget" => Cond::Bool {
                f: self.parse_usize()?,
            },
            "peval" => Cond::Pred {
                f: self.parse_usize()?,
                arg: self.parse_arg()?,
            },
            "neq" | "nne" => Cond::Enum {
                eq: head == "neq",
                f: self.parse_usize()?,
                c: self.parse_u32()?,
            },
            _ => {
                let (family, op) = head.split_at(1);
                let op = CmpOp::parse(op).ok_or_else(|| format!("bad guard {head:?}"))?;
                match family {
                    "i" => Cond::Int {
                        f: self.parse_usize()?,
                        op,
                        k: self.parse_i64()?,
                    },
                    "m" => Cond::MinMax {
                        f: self.parse_usize()?,
                        op,
                        k: self.parse_i64()?,
                    },
                    "x" => Cond::Event {
                        op,
                        k: self.parse_i64()?,
                    },
                    _ => return Err(format!("bad guard {head:?}")),
                }
            }
        };
        self.expect(")")?;
        Ok(cond)
    }

    fn parse_stmt(&mut self) -> std::result::Result<Stmt, String> {
        self.expect("(")?;
        let head = self.next_tok()?.to_string();
        let stmt = match head.as_str() {
            "iadd" | "isub" | "imul" | "irsub" => Stmt::IntOp {
                op: match head.as_str() {
                    "iadd" => IntOpKind::Add,
                    "isub" => IntOpKind::Sub,
                    "imul" => IntOpKind::Mul,
                    _ => IntOpKind::Rsub,
                },
                f: self.parse_usize()?,
                arg: self.parse_arg()?,
            },
            "iset" => Stmt::IntSet {
                f: self.parse_usize()?,
                arg: self.parse_arg()?,
            },
            "bset" => Stmt::BoolSet {
                f: self.parse_usize()?,
                v: self.parse_i64()? != 0,
            },
            "nset" => Stmt::EnumSet {
                f: self.parse_usize()?,
                c: self.parse_u32()?,
            },
            "mupd" => Stmt::MinMaxUpd {
                f: self.parse_usize()?,
                arg: self.parse_arg()?,
            },
            "mset" => Stmt::MinMaxSet {
                f: self.parse_usize()?,
                arg: self.parse_arg()?,
            },
            "pset" => Stmt::PredSet {
                f: self.parse_usize()?,
                arg: self.parse_arg()?,
            },
            "vpush" => Stmt::VecPush {
                f: self.parse_usize()?,
                arg: self.parse_arg()?,
            },
            "vpushi" => Stmt::VecPushInt {
                f: self.parse_usize()?,
                src: self.parse_usize()?,
            },
            "if" => {
                let cond = self.parse_cond()?;
                let then = self.parse_block()?;
                let els = self.parse_block()?;
                Stmt::If { cond, then, els }
            }
            other => return Err(format!("bad statement {other:?}")),
        };
        self.expect(")")?;
        Ok(stmt)
    }
}

fn parse_field(tok: &str) -> std::result::Result<FieldDecl, String> {
    if tok == "vec" {
        return Ok(FieldDecl::Vec);
    }
    if tok == "mmax" {
        return Ok(FieldDecl::MinMax { max: true });
    }
    if tok == "mmin" {
        return Ok(FieldDecl::MinMax { max: false });
    }
    let bad = || format!("bad field {tok:?}");
    let (head, val) = tok.split_once('=').ok_or_else(bad)?;
    match head.chars().next() {
        Some('i') => Ok(FieldDecl::Int {
            width: head[1..].parse().map_err(|_| bad())?,
            init: val.parse().map_err(|_| bad())?,
        }),
        Some('b') if head == "b" => Ok(FieldDecl::Bool { init: val != "0" }),
        Some('n') => Ok(FieldDecl::Enum {
            domain: head[1..].parse().map_err(|_| bad())?,
            init: val.parse().map_err(|_| bad())?,
        }),
        Some('p') => Ok(FieldDecl::Pred {
            window: head[1..].parse().map_err(|_| bad())?,
            kind: PredKind::parse(val).ok_or_else(bad)?,
        }),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::engine::EngineConfig;
    use symple_core::uda::{run_chunked_symbolic, run_sequential};

    /// A forky session-counter exercising every field kind. The int field
    /// is full-width: narrower ints trip the engine's conservative
    /// `check_width` on symbolic state (see
    /// `narrow_width_chunked_refuses_conservatively`), which would turn
    /// the strict-equality assertions below into refusal checks.
    fn kitchen_sink() -> Program {
        Program {
            fields: vec![
                FieldDecl::Int { width: 64, init: 0 },
                FieldDecl::Bool { init: false },
                FieldDecl::Enum { domain: 4, init: 0 },
                FieldDecl::MinMax { max: true },
                FieldDecl::Pred {
                    kind: PredKind::Lt,
                    window: 4,
                },
                FieldDecl::Vec,
            ],
            body: vec![
                Stmt::MinMaxUpd {
                    f: 3,
                    arg: IntArg::Event,
                },
                Stmt::If {
                    cond: Cond::Event {
                        op: CmpOp::Eq,
                        k: 0,
                    },
                    then: vec![
                        Stmt::BoolSet { f: 1, v: true },
                        Stmt::IntSet {
                            f: 0,
                            arg: IntArg::Const(0),
                        },
                        Stmt::EnumSet { f: 2, c: 1 },
                    ],
                    els: vec![Stmt::If {
                        cond: Cond::Bool { f: 1 },
                        then: vec![
                            Stmt::IntOp {
                                f: 0,
                                op: IntOpKind::Add,
                                arg: IntArg::EventMod(7),
                            },
                            Stmt::If {
                                cond: Cond::Int {
                                    f: 0,
                                    op: CmpOp::Gt,
                                    k: 9,
                                },
                                then: vec![
                                    Stmt::VecPushInt { f: 5, src: 0 },
                                    Stmt::IntSet {
                                        f: 0,
                                        arg: IntArg::Const(0),
                                    },
                                    Stmt::EnumSet { f: 2, c: 2 },
                                ],
                                els: vec![],
                            },
                        ],
                        els: vec![Stmt::If {
                            cond: Cond::Pred {
                                f: 4,
                                arg: IntArg::Event,
                            },
                            then: vec![Stmt::VecPush {
                                f: 5,
                                arg: IntArg::Const(-1),
                            }],
                            els: vec![Stmt::PredSet {
                                f: 4,
                                arg: IntArg::Event,
                            }],
                        }],
                    }],
                },
            ],
        }
    }

    fn sink_events() -> Vec<i64> {
        vec![5, 3, 0, 4, 6, 2, 9, 0, 1, 8, 8, 8, 7, -2, 0, 6, 6]
    }

    #[test]
    fn kitchen_sink_typechecks_and_round_trips() {
        let p = kitchen_sink();
        p.typecheck().unwrap();
        let token = p.to_token();
        assert!(!token.contains('\n'), "token must be single-line");
        let back = Program::parse_token(&token).unwrap();
        assert_eq!(back, p);
        // And re-rendering is stable.
        assert_eq!(back.to_token(), token);
    }

    #[test]
    fn concrete_reference_matches_uda_sequential() {
        let p = kitchen_sink();
        let events = sink_events();
        let reference = eval_concrete(&p, &events).unwrap();
        let uda = AstUda::new(p);
        let sequential = run_sequential(&uda, events.iter()).unwrap();
        assert_eq!(reference, sequential);
    }

    #[test]
    fn chunked_symbolic_matches_reference_all_splits() {
        let p = kitchen_sink();
        let events = sink_events();
        let expect = eval_concrete(&p, &events).unwrap();
        let uda = AstUda::new(p);
        for chunks in 1..=6 {
            for policy in crate::cell::POLICIES {
                let cfg = EngineConfig {
                    merge_policy: policy,
                    ..EngineConfig::default()
                };
                let got = run_chunked_symbolic(&uda, &events, chunks, &cfg).unwrap();
                assert_eq!(got, expect, "chunks={chunks} policy={policy:?}");
            }
        }
    }

    #[test]
    fn narrow_width_chunked_refuses_conservatively() {
        // An unguarded add on a width-16 accumulator: `check_width` fails
        // whenever *any* feasible symbolic initial value would leave the
        // range, so symbolic chunks refuse with ArithmeticOverflow even
        // though every concrete trace stays far below the bound. The
        // sequential run (all-concrete) succeeds. Differential harnesses
        // must treat the overflow report as a conservative refusal.
        let p = Program {
            fields: vec![FieldDecl::Int { width: 16, init: 0 }],
            body: vec![Stmt::IntOp {
                f: 0,
                op: IntOpKind::Add,
                arg: IntArg::EventMod(7),
            }],
        };
        p.typecheck().unwrap();
        let events: Vec<i64> = (0..12).collect();
        let reference = eval_concrete(&p, &events).unwrap();
        let uda = AstUda::new(p);
        assert_eq!(run_sequential(&uda, events.iter()).unwrap(), reference);
        // Two chunks: the second starts from symbolic state and refuses.
        let chunked = run_chunked_symbolic(&uda, &events, 2, &EngineConfig::default());
        assert!(
            matches!(chunked, Err(Error::ArithmeticOverflow { .. })),
            "{chunked:?}"
        );
    }

    #[test]
    fn out_of_width_reset_fails_in_both_semantics() {
        // `iset` is width-checked like every other write: storing an
        // out-of-range value into an `i16` field would otherwise leave
        // state the field's symbolic range can never cover, which the
        // fuzzer surfaced as an Ok-vs-IncompleteSummary divergence
        // (program `fields[i16=0] body[(iset 0 ev)]`, a boundary event).
        let p = Program {
            fields: vec![FieldDecl::Int { width: 16, init: 0 }],
            body: vec![Stmt::IntSet {
                f: 0,
                arg: IntArg::Event,
            }],
        };
        p.typecheck().unwrap();
        let events = vec![3, i64::MAX / 2];
        let reference = eval_concrete(&p, &events);
        assert!(
            matches!(reference, Err(Error::ArithmeticOverflow { op: "set" })),
            "{reference:?}"
        );
        let uda = AstUda::new(p.clone());
        let seq = run_sequential(&uda, events.iter());
        assert!(
            matches!(seq, Err(Error::ArithmeticOverflow { op: "set" })),
            "{seq:?}"
        );
        // In-width resets still behave as plain rebinds.
        let ok = eval_concrete(&p, &[5, -7]).unwrap();
        assert_eq!(ok, vec![vec![-7]]);
        assert_eq!(run_sequential(&uda, [5, -7].iter()).unwrap(), ok);
    }

    #[test]
    fn transient_i64_overflow_is_never_a_wrong_ok() {
        // Fuzzer catch: `(iadd 0 ev)` then `(iset 0 ev)` on a width-64
        // field. Sequential execution traps mid-record when the entry
        // value plus a huge event overflows i64 — but the overflowing sum
        // is immediately overwritten, so the chunk summary's final
        // transfer looks innocent. Before `check_width` refined width-64
        // constraints, the 2-chunk run returned a wrong `Ok`; now the
        // trapping entry value is covered by no path and the engine
        // refuses (IncompleteSummary) instead.
        let p = Program {
            fields: vec![FieldDecl::Int { width: 64, init: 0 }],
            body: vec![
                Stmt::IntOp {
                    f: 0,
                    op: IntOpKind::Add,
                    arg: IntArg::Event,
                },
                Stmt::IntSet {
                    f: 0,
                    arg: IntArg::Event,
                },
            ],
        };
        p.typecheck().unwrap();
        let huge = i64::MAX / 2 + 1;
        let events = vec![huge, huge];
        assert!(matches!(
            eval_concrete(&p, &events),
            Err(Error::ArithmeticOverflow { .. })
        ));
        let uda = AstUda::new(p.clone());
        assert!(run_sequential(&uda, events.iter()).is_err());
        let chunked = run_chunked_symbolic(&uda, &events, 2, &EngineConfig::default());
        assert!(
            matches!(
                chunked,
                Err(Error::IncompleteSummary) | Err(Error::ArithmeticOverflow { .. })
            ),
            "wrong Ok resurfaced: {chunked:?}"
        );
        // Entry values that do NOT trap still get the exact answer.
        let small = vec![7, -9, 4, 30];
        let expect = eval_concrete(&p, &small).unwrap();
        assert_eq!(
            run_chunked_symbolic(&uda, &small, 2, &EngineConfig::default()).unwrap(),
            expect
        );
    }

    #[test]
    fn overflow_matches_reference() {
        // An 8-bit accumulator adding 100 per event overflows on the
        // second event in both interpreters, with the same variant.
        let p = Program {
            fields: vec![FieldDecl::Int { width: 8, init: 0 }],
            body: vec![Stmt::IntOp {
                f: 0,
                op: IntOpKind::Add,
                arg: IntArg::Const(100),
            }],
        };
        p.typecheck().unwrap();
        let events = [1i64, 1, 1];
        let reference = eval_concrete(&p, &events);
        let sequential = run_sequential(&AstUda::new(p), events.iter());
        assert!(matches!(reference, Err(Error::ArithmeticOverflow { .. })));
        assert!(matches!(sequential, Err(Error::ArithmeticOverflow { .. })));
    }

    #[test]
    fn typecheck_rejects_bad_programs() {
        // Out-of-range field reference.
        let p = Program {
            fields: vec![FieldDecl::Bool { init: false }],
            body: vec![Stmt::IntSet {
                f: 0,
                arg: IntArg::Const(1),
            }],
        };
        assert!(p.typecheck().is_err());
        // Enum constant outside the domain.
        let p = Program {
            fields: vec![FieldDecl::Enum { domain: 3, init: 0 }],
            body: vec![Stmt::EnumSet { f: 0, c: 3 }],
        };
        assert!(p.typecheck().is_err());
        // Eq on a minmax guard.
        let p = Program {
            fields: vec![FieldDecl::MinMax { max: true }],
            body: vec![Stmt::If {
                cond: Cond::MinMax {
                    f: 0,
                    op: CmpOp::Eq,
                    k: 0,
                },
                then: vec![],
                els: vec![],
            }],
        };
        assert!(p.typecheck().is_err());
        // Zero event modulus.
        let p = Program {
            fields: vec![FieldDecl::Vec],
            body: vec![Stmt::VecPush {
                f: 0,
                arg: IntArg::EventMod(0),
            }],
        };
        assert!(p.typecheck().is_err());
        // No fields at all.
        assert!(Program {
            fields: vec![],
            body: vec![],
        }
        .typecheck()
        .is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Program::parse_token("").is_err());
        assert!(Program::parse_token("fields[] body[]").is_err());
        assert!(Program::parse_token("fields[i32=0] body[(bogus 0 1)]").is_err());
        assert!(Program::parse_token("fields[i32=0] body[(iadd 0 ev) trailing").is_err());
        // Ill-typed but syntactically fine: parser must typecheck.
        assert!(Program::parse_token("fields[b=0] body[(iadd 0 1)]").is_err());
    }

    #[test]
    fn variants_cover_event_cuts() {
        let p = kitchen_sink();
        let vs = p.variants();
        assert!(vs.len() >= 3 && vs.len() <= 12);
        let values: Vec<i64> = vs.iter().map(|(_, v)| *v).collect();
        for needed in [0, 1, -1] {
            assert!(values.contains(&needed), "{needed} missing from {values:?}");
        }
        // Names are unique (the analyzer keys reports by name).
        let mut names: Vec<&str> = vs.iter().map(|(n, _)| *n).collect();
        names.dedup();
        assert_eq!(names.len(), vs.len());
    }

    #[test]
    fn analyzer_runs_on_generated_state() {
        let p = kitchen_sink();
        let variants = p.variants();
        let uda = AstUda::new(p);
        let a = symple_core::analysis::analyze_uda(&uda, &variants);
        assert_eq!(a.fields.len(), 6);
        assert!(a.max_branching() >= 1);
    }

    /// `AstState` is the one `SymState` written by hand rather than by
    /// `impl_sym_state!`: `field_ref_at(i)` and `field_mut_at(i)` must be
    /// `fields_ref()[i]` — same field (checked by address), same order.
    #[test]
    fn indexed_access_agrees_with_the_field_list() {
        fn addr(f: &dyn SymField) -> *const () {
            f as *const dyn SymField as *const ()
        }
        let mut s = AstUda::new(kitchen_sink()).init();
        let listed: Vec<_> = s.fields_ref().into_iter().map(addr).collect();
        assert_eq!(s.field_count(), listed.len());
        assert_eq!(listed.len(), 6);
        for (i, want) in listed.into_iter().enumerate() {
            assert_eq!(addr(s.field_ref_at(i)), want, "field_ref_at({i})");
            assert_eq!(addr(s.field_mut_at(i)), want, "field_mut_at({i})");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn indexed_access_past_the_end_panics() {
        AstUda::new(kitchen_sink()).init().field_ref_at(6);
    }
}
