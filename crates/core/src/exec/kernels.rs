//! Vectorized columnar predicate & expression kernels.
//!
//! The expression generators (§5.2, [`crate::exec::expr`]) compile algebraic
//! expressions into per-tuple closures; even with batched morsels every
//! selection then pays a `Value` match and two virtual calls per tuple. This
//! module adds the column-at-a-time alternative: at *prepare* time the
//! planner ([`plan_predicate`]) classifies each selection conjunct as
//! **kernel-eligible** (comparisons, `+`/`-`/`*` arithmetic, `AND`/`OR`/`NOT`
//! conjunction, `IS NULL`, string equality/ordering/`contains` against
//! literals — all over typed scan slots) or **closure-fallback**
//! (record/list/regex-shaped expressions, `If`, division, nested paths). The
//! eligible part becomes a [`KernelPred`] evaluated by dense, branch-free
//! loops over the typed morsel columns ([`proteus_plugins::TypedColumn`]),
//! producing a packed 64-bit bitmask ([`crate::exec::mask`]) — one word per
//! 64 rows, `AND`/`OR`/`NOT` and null propagation word-wise — that is
//! compress-stored into the next selection vector by `trailing_zeros`
//! iteration; the residual (if any) stays a compiled closure.
//!
//! Semantics contract: a kernel must agree **exactly** with the compiled
//! closure it replaces, including the quirks —
//!
//! * comparisons follow [`Value::total_cmp`]: numerics compare by their
//!   *float view* (`i64 as f64`, so giant integers legally collide), floats
//!   by `f64::total_cmp` (`-0.0 < 0.0`, NaN sorts last);
//! * null comparisons are false except `Neq` against exactly one null;
//! * integer `+`/`-`/`*` wrap; mixed int/float arithmetic widens per
//!   operand (not per subtree);
//! * `NOT x` is "x is not `Bool(true)`", so `NOT (null < 5)` is true.
//!
//! Equivalence is enforced by the seed-sweep property tests at the bottom of
//! this file and by `tests/kernel_equivalence.rs`.
//!
//! # The aggregation tier
//!
//! Since the vectorized-aggregation rework the kernels no longer stop at the
//! selection vector: the aggregate sink — a group-by, or a reduce as a
//! group-by over zero keys — is classified once ([`plan_sink`]).
//! Kernel-eligible aggregate inputs — the [`NumExpr`] subset for
//! `sum`/`min`/`max`/`avg`, predicate shapes for `and`/`or`, nothing at all
//! for `count` — are rendered columnwise once per batch
//! ([`SinkKernel::render`]) and folded into typed group lanes by dense loops
//! that mirror `Accumulator::merge` bit for bit (running f64 sums in row
//! order, `f64::total_cmp` strict-replace min/max, nulls skipped exactly
//! where the closure skips them). A kernel-eligible sink *predicate* folds
//! into the same pass as a mask, so `SUM(x) WHERE p` never calls a closure.
//! A keyless sink folds every row into group 0 with no id at all; a
//! group-by reads its key components straight from the
//! typed columns ([`TypedKeys`]): bounded `i64` keys map straight to dense
//! group ids ([`TypedKeys::dense_ids`], bounds from [`plan_dense_keys`]);
//! other keys are hashed lane-wise (via the `Value::stable_hash_*` component
//! helpers) and resolved to group ids against the table's key store — the
//! join's key columns, compared lane to stored column by the join's compare
//! ([`TypedKeys::eq_store`]) under the group null rule
//! ([`TypedKeys::resolve_groups`]); a key is stored only when its group is
//! first inserted — and each aggregate then folds in one loop
//! over `(group id, row)` into its typed group lane
//! ([`RenderedAggs::fold_groups`]). Collection monoids
//! (bag/set/list) and ineligible expressions stay on the closure path,
//! spec by spec.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use proteus_algebra::{BinaryOp, Expr, Monoid, ReduceSpec, UnaryOp, Value};
use proteus_plugins::zonemap::ZoneEntry;
use proteus_plugins::{ColumnStats, TypedColumn, TypedKind, ZoneMap};

use crate::exec::batch::BindingBatch;
use crate::exec::expr::BindingLayout;
use crate::exec::mask;
use crate::exec::radix::{
    AggLane, BuildStore, DenseKey, KeyHash, LaneKind, RadixGroupTable, StoreColumn,
    DENSE_MAX_SLOTS, GROUP_NULLS,
};

// ---------------------------------------------------------------------------
// The kernel plan.
// ---------------------------------------------------------------------------

/// Comparison operators (a subset of [`BinaryOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn from_binary(op: BinaryOp) -> Option<CmpOp> {
        Some(match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::Neq => CmpOp::Neq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::Le => CmpOp::Le,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The operator with its operands swapped (`lit < slot` → `slot > lit`).
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Applies the comparison to a total ordering (the [`Value::total_cmp`]
    /// derivation used by `eval_binary`).
    #[inline]
    fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Neq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Arithmetic operators eligible for kernels (`/` and `%` keep their
/// error-on-zero closure semantics and stay on the fallback path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
}

/// A numeric vector expression over typed slots and literals.
#[derive(Debug, Clone)]
pub enum NumExpr {
    /// An `i64` typed slot.
    SlotI64(usize),
    /// An `f64` typed slot.
    SlotF64(usize),
    /// An integer literal.
    ConstI64(i64),
    /// A float literal (also date literals, via their float view).
    ConstF64(f64),
    /// Arithmetic over two numeric subexpressions.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<NumExpr>,
        /// Right operand.
        rhs: Box<NumExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<NumExpr>),
}

impl NumExpr {
    /// True when the expression is integer-typed end to end (closure
    /// semantics: `Int ∘ Int` stays `Int` with wrapping ops; anything
    /// involving a float widens *that* operation to float).
    fn is_int(&self) -> bool {
        match self {
            NumExpr::SlotI64(_) | NumExpr::ConstI64(_) => true,
            NumExpr::SlotF64(_) | NumExpr::ConstF64(_) => false,
            NumExpr::Arith { lhs, rhs, .. } => lhs.is_int() && rhs.is_int(),
            NumExpr::Neg(inner) => inner.is_int(),
        }
    }

    fn collect_slots(&self, out: &mut Vec<usize>) {
        match self {
            NumExpr::SlotI64(s) | NumExpr::SlotF64(s) => out.push(*s),
            NumExpr::ConstI64(_) | NumExpr::ConstF64(_) => {}
            NumExpr::Arith { lhs, rhs, .. } => {
                lhs.collect_slots(out);
                rhs.collect_slots(out);
            }
            NumExpr::Neg(inner) => inner.collect_slots(out),
        }
    }
}

/// A kernel-evaluable predicate over the typed columns of one batch.
#[derive(Debug, Clone)]
pub enum KernelPred {
    /// Numeric comparison.
    CmpNum {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: NumExpr,
        /// Right operand.
        rhs: NumExpr,
    },
    /// String slot compared against a string literal (pool-wise: each unique
    /// string of the morsel is compared once).
    CmpStr {
        /// Operator.
        op: CmpOp,
        /// The string slot.
        slot: usize,
        /// The literal.
        lit: String,
    },
    /// `contains(slot, needle)` over an interned string slot.
    StrContains {
        /// The string slot.
        slot: usize,
        /// The constant needle.
        needle: String,
    },
    /// Bool slot compared against a bool literal.
    CmpBool {
        /// Operator.
        op: CmpOp,
        /// The bool slot.
        slot: usize,
        /// The literal.
        lit: bool,
    },
    /// A bare bool slot used as a predicate (`true` iff the value is
    /// non-null `true`).
    BoolSlot(usize),
    /// `slot IS NULL`.
    IsNull(usize),
    /// Logical negation.
    Not(Box<KernelPred>),
    /// Conjunction.
    And(Vec<KernelPred>),
    /// Disjunction.
    Or(Vec<KernelPred>),
    /// A constant predicate.
    Const(bool),
}

impl KernelPred {
    /// Every typed slot the predicate reads.
    pub fn slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_slots(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_slots(&self, out: &mut Vec<usize>) {
        match self {
            KernelPred::CmpNum { lhs, rhs, .. } => {
                lhs.collect_slots(out);
                rhs.collect_slots(out);
            }
            KernelPred::CmpStr { slot, .. }
            | KernelPred::StrContains { slot, .. }
            | KernelPred::CmpBool { slot, .. }
            | KernelPred::BoolSlot(slot)
            | KernelPred::IsNull(slot) => out.push(*slot),
            KernelPred::Not(inner) => inner.collect_slots(out),
            KernelPred::And(parts) | KernelPred::Or(parts) => {
                for p in parts {
                    p.collect_slots(out);
                }
            }
            KernelPred::Const(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The planner: Expr → KernelPred classification.
// ---------------------------------------------------------------------------

/// What the planner produced for one selection predicate.
pub struct PlannedPredicate {
    /// The kernel-eligible part (conjunction of eligible conjuncts).
    pub kernel: KernelPred,
    /// The conjuncts that must stay on the closure path, if any.
    pub residual: Option<Expr>,
    /// Typed slots the kernel reads (the scan must activate their fills).
    pub used_slots: Vec<usize>,
}

/// Classifies a selection predicate against the typed slots a scan can
/// serve. Splits the top-level conjunction: eligible conjuncts become one
/// [`KernelPred`], the rest are re-conjoined as the closure residual.
/// Returns `None` when no conjunct is kernel-eligible.
pub fn plan_predicate(
    predicate: &Expr,
    layout: &BindingLayout,
    typed_slots: &HashMap<usize, TypedKind>,
) -> Option<PlannedPredicate> {
    let mut eligible = Vec::new();
    let mut residual = Vec::new();
    for conjunct in predicate.split_conjunction() {
        match plan_pred(&conjunct, layout, typed_slots) {
            Some(kernel) => eligible.push(kernel),
            None => residual.push(conjunct),
        }
    }
    if eligible.is_empty() {
        return None;
    }
    let kernel = if eligible.len() == 1 {
        eligible.pop()?
    } else {
        KernelPred::And(eligible)
    };
    let used_slots = kernel.slots();
    Some(PlannedPredicate {
        kernel,
        residual: (!residual.is_empty()).then(|| Expr::conjunction(residual)),
        used_slots,
    })
}

/// The typed slot a path resolves to, provided it is an *exact* slot (no
/// residual navigation) with a live typed kind.
fn typed_slot_of(
    expr: &Expr,
    layout: &BindingLayout,
    typed_slots: &HashMap<usize, TypedKind>,
) -> Option<(usize, TypedKind)> {
    let Expr::Path(path) = expr else { return None };
    let (slot, residual) = layout.resolve(path)?;
    if !residual.is_empty() {
        return None;
    }
    typed_slots.get(&slot).map(|kind| (slot, *kind))
}

fn plan_pred(
    expr: &Expr,
    layout: &BindingLayout,
    typed: &HashMap<usize, TypedKind>,
) -> Option<KernelPred> {
    match expr {
        Expr::Literal(Value::Bool(b)) => Some(KernelPred::Const(*b)),
        Expr::Path(_) => match typed_slot_of(expr, layout, typed)? {
            (slot, TypedKind::Bool) => Some(KernelPred::BoolSlot(slot)),
            _ => None,
        },
        Expr::Unary { op, expr: inner } => match op {
            UnaryOp::Not => Some(KernelPred::Not(Box::new(plan_pred(inner, layout, typed)?))),
            UnaryOp::IsNull => {
                let (slot, _) = typed_slot_of(inner, layout, typed)?;
                Some(KernelPred::IsNull(slot))
            }
            UnaryOp::Neg => None,
        },
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And => Some(KernelPred::And(vec![
                plan_pred(left, layout, typed)?,
                plan_pred(right, layout, typed)?,
            ])),
            BinaryOp::Or => Some(KernelPred::Or(vec![
                plan_pred(left, layout, typed)?,
                plan_pred(right, layout, typed)?,
            ])),
            _ => {
                let cmp = CmpOp::from_binary(*op)?;
                plan_cmp(cmp, left, right, layout, typed)
            }
        },
        Expr::Contains {
            expr: inner,
            needle,
        } => match typed_slot_of(inner, layout, typed)? {
            (slot, TypedKind::Str) => Some(KernelPred::StrContains {
                slot,
                needle: needle.clone(),
            }),
            _ => None,
        },
        _ => None,
    }
}

fn plan_cmp(
    op: CmpOp,
    left: &Expr,
    right: &Expr,
    layout: &BindingLayout,
    typed: &HashMap<usize, TypedKind>,
) -> Option<KernelPred> {
    // Numeric vs numeric.
    if let (Some(lhs), Some(rhs)) = (
        plan_num(left, layout, typed),
        plan_num(right, layout, typed),
    ) {
        return Some(KernelPred::CmpNum { op, lhs, rhs });
    }
    // String slot vs string literal (either side).
    if let (Some((slot, TypedKind::Str)), Expr::Literal(Value::Str(lit))) =
        (typed_slot_of(left, layout, typed), right)
    {
        return Some(KernelPred::CmpStr {
            op,
            slot,
            lit: lit.clone(),
        });
    }
    if let (Expr::Literal(Value::Str(lit)), Some((slot, TypedKind::Str))) =
        (left, typed_slot_of(right, layout, typed))
    {
        return Some(KernelPred::CmpStr {
            op: op.flipped(),
            slot,
            lit: lit.clone(),
        });
    }
    // Bool slot vs bool literal.
    if let (Some((slot, TypedKind::Bool)), Expr::Literal(Value::Bool(lit))) =
        (typed_slot_of(left, layout, typed), right)
    {
        return Some(KernelPred::CmpBool {
            op,
            slot,
            lit: *lit,
        });
    }
    if let (Expr::Literal(Value::Bool(lit)), Some((slot, TypedKind::Bool))) =
        (left, typed_slot_of(right, layout, typed))
    {
        return Some(KernelPred::CmpBool {
            op: op.flipped(),
            slot,
            lit: *lit,
        });
    }
    None
}

fn plan_num(
    expr: &Expr,
    layout: &BindingLayout,
    typed: &HashMap<usize, TypedKind>,
) -> Option<NumExpr> {
    match expr {
        Expr::Literal(Value::Int(v)) => Some(NumExpr::ConstI64(*v)),
        Expr::Literal(Value::Float(v)) => Some(NumExpr::ConstF64(*v)),
        // Date literals compare through their float view in eval_binary's
        // mixed-type arithmetic/comparison, so ConstF64 reproduces both.
        Expr::Literal(Value::Date(d)) => Some(NumExpr::ConstF64(*d as f64)),
        Expr::Path(_) => match typed_slot_of(expr, layout, typed)? {
            (slot, TypedKind::I64) => Some(NumExpr::SlotI64(slot)),
            (slot, TypedKind::F64) => Some(NumExpr::SlotF64(slot)),
            _ => None,
        },
        Expr::Binary { op, left, right } => {
            let op = match op {
                BinaryOp::Add => ArithOp::Add,
                BinaryOp::Sub => ArithOp::Sub,
                BinaryOp::Mul => ArithOp::Mul,
                _ => return None,
            };
            Some(NumExpr::Arith {
                op,
                lhs: Box::new(plan_num(left, layout, typed)?),
                rhs: Box::new(plan_num(right, layout, typed)?),
            })
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr: inner,
        } => {
            // The closure's Neg only negates Int/Float *values*; a bare Date
            // literal under Neg evaluates to Null there, so it is not
            // kernel-eligible. (Date *slots* are fine: the typed fills
            // already render date fields as plain ints.)
            if matches!(inner.as_ref(), Expr::Literal(Value::Date(_))) {
                return None;
            }
            Some(NumExpr::Neg(Box::new(plan_num(inner, layout, typed)?)))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Selectivity-ordered planning (zone-map statistics feeding the planner).
// ---------------------------------------------------------------------------

/// Like [`plan_predicate`], but orders the kernel-eligible conjuncts by
/// estimated selectivity (most selective first) before packing them into the
/// [`KernelPred::And`]. Combined with the conjunction evaluator's dead-mask
/// early exit, the most selective compare renders first and the remaining
/// kernels often see an already-dead mask and never run. `slot_stats` pairs
/// typed slots with the per-column statistics the scan's zone maps
/// aggregated; conjuncts whose selectivity cannot be estimated keep their
/// source order at the back (the sort is stable). The reorder is bit-exact:
/// `AND` over packed masks is commutative.
pub fn plan_predicate_with_stats(
    predicate: &Expr,
    layout: &BindingLayout,
    typed_slots: &HashMap<usize, TypedKind>,
    slot_stats: &[(usize, ColumnStats)],
) -> Option<PlannedPredicate> {
    let mut planned = plan_predicate(predicate, layout, typed_slots)?;
    if slot_stats.is_empty() {
        return Some(planned);
    }
    if let KernelPred::And(parts) = &mut planned.kernel {
        let mut keyed: Vec<(f64, KernelPred)> = parts
            .drain(..)
            .map(|p| (estimate_selectivity(&p, slot_stats), p))
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        parts.extend(keyed.into_iter().map(|(_, p)| p));
    }
    Some(planned)
}

/// Estimated fraction of rows one kernel conjunct passes, from the scan's
/// observed column bounds. Only bare slot-vs-literal numeric comparisons are
/// estimated; everything else reports 1.0 (kept at the back, source order).
fn estimate_selectivity(pred: &KernelPred, slot_stats: &[(usize, ColumnStats)]) -> f64 {
    let KernelPred::CmpNum { op, lhs, rhs } = pred else {
        return 1.0;
    };
    let (op, slot, bound) = match (lhs, rhs) {
        (NumExpr::SlotI64(s) | NumExpr::SlotF64(s), NumExpr::ConstI64(c)) => {
            (*op, *s, Value::Int(*c))
        }
        (NumExpr::SlotI64(s) | NumExpr::SlotF64(s), NumExpr::ConstF64(c)) => {
            (*op, *s, Value::Float(*c))
        }
        (NumExpr::ConstI64(c), NumExpr::SlotI64(s) | NumExpr::SlotF64(s)) => {
            (op.flipped(), *s, Value::Int(*c))
        }
        (NumExpr::ConstF64(c), NumExpr::SlotI64(s) | NumExpr::SlotF64(s)) => {
            (op.flipped(), *s, Value::Float(*c))
        }
        _ => return 1.0,
    };
    let Some((_, stats)) = slot_stats.iter().find(|(s, _)| *s == slot) else {
        return 1.0;
    };
    match op {
        CmpOp::Lt | CmpOp::Le => stats.selectivity_lt(&bound),
        CmpOp::Gt | CmpOp::Ge => 1.0 - stats.selectivity_lt(&bound),
        CmpOp::Eq => stats.selectivity_eq(),
        CmpOp::Neq => 1.0 - stats.selectivity_eq(),
    }
}

// ---------------------------------------------------------------------------
// Zone-map classification: morsel skipping before any lanes render.
// ---------------------------------------------------------------------------

/// What a morsel's zone entries prove about a kernel predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneVerdict {
    /// No row of the morsel can pass: skip it without running its typed
    /// fills.
    NonePass,
    /// Every row of the morsel passes: fill it, then short-circuit the
    /// compare kernels to an identity selection.
    AllPass,
    /// The zone bounds straddle the predicate: run the compare kernels.
    Ambiguous,
}

/// Classifies one morsel of a scan against a kernel predicate using
/// per-morsel zone maps (`zones` pairs typed slots with their column's
/// [`ZoneMap`]). Sound by construction: a verdict other than
/// [`ZoneVerdict::Ambiguous`] is returned only when the zone bounds — kept in
/// the same `f64` total order the compare kernels evaluate in — prove the
/// kernel mask would come out all-zero (`NonePass`) or all-one (`AllPass`)
/// over the morsel's rows, nulls included. Anything the zones cannot prove
/// (string/bool compares over non-degenerate zones, arithmetic,
/// slot-vs-slot, missing maps) is `Ambiguous`.
pub fn classify_morsel(
    pred: &KernelPred,
    zones: &[(usize, Arc<ZoneMap>)],
    morsel: usize,
) -> ZoneVerdict {
    use ZoneVerdict::*;
    let entry = |slot: usize| -> Option<&ZoneEntry> {
        zones
            .iter()
            .find(|(s, _)| *s == slot)
            .and_then(|(_, zm)| zm.entry(morsel))
    };
    match pred {
        KernelPred::Const(b) => {
            if *b {
                AllPass
            } else {
                NonePass
            }
        }
        KernelPred::IsNull(slot) => match entry(*slot) {
            Some(e) if e.all_null() => AllPass,
            Some(e) if e.null_count == 0 => NonePass,
            _ => Ambiguous,
        },
        // Null bool lanes and null haystacks evaluate to false.
        KernelPred::BoolSlot(slot) | KernelPred::StrContains { slot, .. } => match entry(*slot) {
            Some(e) if e.all_null() => NonePass,
            _ => Ambiguous,
        },
        // The evaluator's null rule: `Neq` against a null is true, every
        // other comparison false — decidable only for all-null zones.
        KernelPred::CmpBool { op, slot, .. } | KernelPred::CmpStr { op, slot, .. } => {
            match entry(*slot) {
                Some(e) if e.all_null() => {
                    if *op == CmpOp::Neq {
                        AllPass
                    } else {
                        NonePass
                    }
                }
                _ => Ambiguous,
            }
        }
        KernelPred::CmpNum { op, lhs, rhs } => {
            let (op, slot, c) = match (lhs, rhs) {
                (NumExpr::SlotI64(s) | NumExpr::SlotF64(s), NumExpr::ConstI64(c)) => {
                    (*op, *s, *c as f64)
                }
                (NumExpr::SlotI64(s) | NumExpr::SlotF64(s), NumExpr::ConstF64(c)) => (*op, *s, *c),
                (NumExpr::ConstI64(c), NumExpr::SlotI64(s) | NumExpr::SlotF64(s)) => {
                    (op.flipped(), *s, *c as f64)
                }
                (NumExpr::ConstF64(c), NumExpr::SlotI64(s) | NumExpr::SlotF64(s)) => {
                    (op.flipped(), *s, *c)
                }
                _ => return Ambiguous,
            };
            match entry(slot) {
                Some(e) => classify_cmp_zone(op, e, c),
                None => Ambiguous,
            }
        }
        KernelPred::Not(inner) => match classify_morsel(inner, zones, morsel) {
            AllPass => NonePass,
            NonePass => AllPass,
            Ambiguous => Ambiguous,
        },
        KernelPred::And(parts) => {
            let mut all = AllPass;
            for part in parts {
                match classify_morsel(part, zones, morsel) {
                    NonePass => return NonePass,
                    Ambiguous => all = Ambiguous,
                    AllPass => {}
                }
            }
            all
        }
        KernelPred::Or(parts) => {
            let mut none = NonePass;
            for part in parts {
                match classify_morsel(part, zones, morsel) {
                    AllPass => return AllPass,
                    Ambiguous => none = Ambiguous,
                    NonePass => {}
                }
            }
            none
        }
    }
}

/// `slot op c` against one zone's `[min, max]` bounds, in the `f64` total
/// order of [`eval_cmp_num`] (so `-0.0 < 0.0` and NaN sorts last, exactly
/// as the kernels compare).
fn classify_cmp_zone(op: CmpOp, e: &ZoneEntry, c: f64) -> ZoneVerdict {
    use Ordering::*;
    use ZoneVerdict::*;
    if e.all_null() {
        // A null lane compares false, except under `Neq`.
        return if op == CmpOp::Neq { AllPass } else { NonePass };
    }
    if !e.numeric {
        return Ambiguous;
    }
    let lo = e.min.total_cmp(&c);
    let hi = e.max.total_cmp(&c);
    // "Every non-null row passes" upgrades to AllPass only when the zone has
    // no nulls to drag the mask down (`Neq` is the exception: nulls pass).
    let nulls = e.null_count > 0;
    let all_unless_nulls = |cond: bool, none: bool| {
        if cond && !nulls {
            AllPass
        } else if none {
            NonePass
        } else {
            Ambiguous
        }
    };
    match op {
        CmpOp::Lt => all_unless_nulls(hi == Less, lo != Less),
        CmpOp::Le => all_unless_nulls(hi != Greater, lo == Greater),
        CmpOp::Gt => all_unless_nulls(lo == Greater, hi != Greater),
        CmpOp::Ge => all_unless_nulls(lo != Less, hi == Less),
        CmpOp::Eq => all_unless_nulls(lo == Equal && hi == Equal, lo == Greater || hi == Less),
        CmpOp::Neq => {
            if lo == Greater || hi == Less {
                // Out-of-range values differ from the literal, and nulls pass
                // `Neq` too.
                AllPass
            } else if lo == Equal && hi == Equal && !nulls {
                NonePass
            } else {
                Ambiguous
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation: dense mask kernels + compress-store selection update.
// ---------------------------------------------------------------------------

/// Float-reduction semantics of the kernel tier: kernel folds reproduce the
/// closure engine's row-order f64 additions bit for bit, so every tier gives
/// one answer per query.
///
/// Kept only so the benchmark harness's `Compiler::with_numeric_mode` call
/// still compiles; it goes with that call (ROADMAP 3(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericMode {
    /// Bit-exact: kernel folds reproduce a row-order sequence of
    /// `Accumulator::merge` calls exactly.
    #[default]
    Strict,
}

/// Recycled per-worker scratch buffers for masks and arithmetic temporaries.
#[derive(Default)]
pub struct Scratch {
    masks: Vec<Vec<u64>>,
    i64s: Vec<Vec<i64>>,
    f64s: Vec<Vec<f64>>,
    sels: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    values: Vec<Vec<Value>>,
    /// The typed unnest's parent index and element lanes, recycled across
    /// morsels.
    expand: proteus_plugins::ExpandOutput,
}

impl Scratch {
    /// Fresh scratch (buffers allocate lazily and are recycled).
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Borrows a recycled packed bitmask buffer (see [`crate::exec::mask`]).
    pub(crate) fn take_mask(&mut self) -> Vec<u64> {
        self.masks.pop().unwrap_or_default()
    }

    /// Returns a bitmask buffer to the pool.
    pub(crate) fn put_mask(&mut self, mut v: Vec<u64>) {
        v.clear();
        self.masks.push(v);
    }

    fn take_i64s(&mut self) -> Vec<i64> {
        self.i64s.pop().unwrap_or_default()
    }

    fn put_i64s(&mut self, mut v: Vec<i64>) {
        v.clear();
        self.i64s.push(v);
    }

    fn take_f64s(&mut self) -> Vec<f64> {
        self.f64s.pop().unwrap_or_default()
    }

    fn put_f64s(&mut self, mut v: Vec<f64>) {
        v.clear();
        self.f64s.push(v);
    }

    /// Borrows a recycled row-index buffer (the sink's masked selection).
    pub(crate) fn take_sel(&mut self) -> Vec<u32> {
        self.sels.pop().unwrap_or_default()
    }

    /// Returns a row-index buffer to the pool.
    pub(crate) fn put_sel(&mut self, mut v: Vec<u32>) {
        v.clear();
        self.sels.push(v);
    }

    /// Borrows a recycled `u64` buffer (the columnwise key hashes).
    pub(crate) fn take_u64s(&mut self) -> Vec<u64> {
        self.u64s.pop().unwrap_or_default()
    }

    /// Returns a `u64` buffer to the pool.
    pub(crate) fn put_u64s(&mut self, mut v: Vec<u64>) {
        v.clear();
        self.u64s.push(v);
    }

    /// Borrows a recycled `Value` buffer (the nest fallback's scratch key).
    pub(crate) fn take_values(&mut self) -> Vec<Value> {
        self.values.pop().unwrap_or_default()
    }

    /// Returns a `Value` buffer to the pool.
    pub(crate) fn put_values(&mut self, mut v: Vec<Value>) {
        v.clear();
        self.values.push(v);
    }

    /// Borrows the recycled expand output (the typed unnest stage refills
    /// it every morsel).
    pub(crate) fn take_expand(&mut self) -> proteus_plugins::ExpandOutput {
        std::mem::take(&mut self.expand)
    }

    /// Returns the expand output to the scratch.
    pub(crate) fn put_expand(&mut self, out: proteus_plugins::ExpandOutput) {
        self.expand = out;
    }
}

/// Applies a kernel predicate to the batch: evaluates the packed bitmask
/// densely over all `rows` and compresses the selection in place
/// (`trailing_zeros` iteration on the identity-selection fast path).
pub fn apply_filter(pred: &KernelPred, batch: &mut BindingBatch, scratch: &mut Scratch) {
    let rows = batch.rows();
    let mut mask = scratch.take_mask();
    eval_pred(pred, batch, rows, &mut mask, scratch);
    batch.compress_sel(&mask);
    scratch.put_mask(mask);
}

// Invariant: the planners only emit kernels (and typed build columns) over
// slots whose typed fills they activated, so the column is always live here.
#[allow(clippy::expect_used)]
pub(crate) fn typed(batch: &BindingBatch, slot: usize) -> &TypedColumn {
    batch
        .typed_col(slot)
        .expect("a typed read of a slot without a live typed column")
}

/// Evaluates `pred` over rows `0..rows` into the packed bitmask `mask`
/// (see [`crate::exec::mask`] for the representation and its zero-tail
/// invariant). Every arm is word-at-a-time: comparisons pack 64 verdicts
/// per word with branch-free shift/or loops, the logic connectives combine
/// whole words, and null propagation `OR`s/`AND NOT`s the columns' own
/// packed null bitmaps straight into the mask.
pub(crate) fn eval_pred(
    pred: &KernelPred,
    batch: &BindingBatch,
    rows: usize,
    mask: &mut Vec<u64>,
    scratch: &mut Scratch,
) {
    match pred {
        KernelPred::Const(b) => mask::fill(mask, rows, *b),
        KernelPred::BoolSlot(slot) => {
            let col = typed(batch, *slot);
            mask::pack_slice(mask, &col.bool_values()[..rows], |v| v);
            mask_out_nulls(col, mask, false);
        }
        KernelPred::IsNull(slot) => {
            let col = typed(batch, *slot);
            mask::copy_from(mask, rows, col.null_words());
        }
        KernelPred::CmpBool { op, slot, lit } => {
            let col = typed(batch, *slot);
            let (op, lit) = (*op, *lit);
            mask::pack_slice(mask, &col.bool_values()[..rows], |v| op.holds(v.cmp(&lit)));
            // eval_binary null rule: `Neq` against one null is true, every
            // other comparison with a null is false.
            mask_out_nulls(col, mask, op == CmpOp::Neq);
        }
        KernelPred::CmpStr { op, slot, lit } => {
            let col = typed(batch, *slot);
            let (ids, pool) = col.str_parts();
            // Compare each *unique* string of the morsel once.
            let per_id: Vec<bool> = pool
                .iter()
                .map(|s| op.holds(s.as_ref().cmp(lit.as_str())))
                .collect();
            mask::pack_slice(mask, &ids[..rows], |id| per_id[id as usize]);
            mask_out_nulls(col, mask, *op == CmpOp::Neq);
        }
        KernelPred::StrContains { slot, needle } => {
            let col = typed(batch, *slot);
            let (ids, pool) = col.str_parts();
            let per_id: Vec<bool> = pool.iter().map(|s| s.contains(needle.as_str())).collect();
            mask::pack_slice(mask, &ids[..rows], |id| per_id[id as usize]);
            // The compiled Contains treats non-strings (incl. null) as false.
            mask_out_nulls(col, mask, false);
        }
        KernelPred::CmpNum { op, lhs, rhs } => {
            eval_cmp_num(*op, lhs, rhs, batch, rows, mask, scratch);
        }
        KernelPred::Not(inner) => {
            eval_pred(inner, batch, rows, mask, scratch);
            mask::not(mask, rows);
        }
        KernelPred::And(parts) => {
            eval_pred(&parts[0], batch, rows, mask, scratch);
            let mut tmp = scratch.take_mask();
            for part in &parts[1..] {
                // A dead conjunction stays dead: further `AND`s cannot set
                // bits, so stop rendering the remaining compares. With the
                // stats-ordered planner the most selective conjunct runs
                // first, making this exit the common case on selective scans.
                if mask.iter().all(|w| *w == 0) {
                    break;
                }
                eval_pred(part, batch, rows, &mut tmp, scratch);
                mask::and(mask, &tmp);
            }
            scratch.put_mask(tmp);
        }
        KernelPred::Or(parts) => {
            eval_pred(&parts[0], batch, rows, mask, scratch);
            let mut tmp = scratch.take_mask();
            for part in &parts[1..] {
                eval_pred(part, batch, rows, &mut tmp, scratch);
                mask::or(mask, &tmp);
            }
            scratch.put_mask(tmp);
        }
    }
}

/// Rewrites mask bits at null rows to `value_when_null`: a word-wise
/// `OR`/`AND NOT` against the column's packed null bitmap (no-op when the
/// column has no nulls; the bitmap may be shorter than the mask).
fn mask_out_nulls(col: &TypedColumn, mask: &mut [u64], value_when_null: bool) {
    if !col.has_nulls() {
        return;
    }
    if value_when_null {
        mask::or(mask, col.null_words());
    } else {
        mask::and_not(mask, col.null_words());
    }
}

/// A numeric operand rendered for one morsel: either a borrowed column, a
/// computed temporary, or a broadcast constant.
enum NumVec<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    TmpI64(Vec<i64>),
    TmpF64(Vec<f64>),
    ConstI64(i64),
    ConstF64(f64),
}

impl NumVec<'_> {
    /// The float view of lane `i` (the comparison domain of `total_cmp`).
    #[inline]
    fn f64_at(&self, i: usize) -> f64 {
        match self {
            NumVec::I64(v) => v[i] as f64,
            NumVec::F64(v) => v[i],
            NumVec::TmpI64(v) => v[i] as f64,
            NumVec::TmpF64(v) => v[i],
            NumVec::ConstI64(c) => *c as f64,
            NumVec::ConstF64(c) => *c,
        }
    }

    /// Lane `i` of an integer-typed expression (callers guard on
    /// [`NumExpr::is_int`]).
    #[inline]
    fn i64_at(&self, i: usize) -> i64 {
        match self {
            NumVec::I64(v) => v[i],
            NumVec::TmpI64(v) => v[i],
            NumVec::ConstI64(c) => *c,
            _ => unreachable!("integer lane over a float operand"),
        }
    }
}

fn eval_cmp_num(
    op: CmpOp,
    lhs: &NumExpr,
    rhs: &NumExpr,
    batch: &BindingBatch,
    rows: usize,
    mask: &mut Vec<u64>,
    scratch: &mut Scratch,
) {
    let l = eval_num(lhs, batch, rows, scratch);
    let r = eval_num(rhs, batch, rows, scratch);

    // Comparison loops: `eval_binary` compares two numerics with
    // `as_float().total_cmp()`, so every kernel comparison goes through the
    // f64 total order. Operands normalize to a dense lane view first —
    // computed temporaries compare through the same specialized loops as
    // borrowed columns, and constants pre-widen to their float view — so
    // every shape packs verdicts 64 per mask word with a branch-free
    // byte-compare + movemask loop over direct lane loads.
    enum Lanes<'v> {
        I64(&'v [i64]),
        F64(&'v [f64]),
        Const(f64),
    }
    fn view<'v>(v: &'v NumVec<'_>, rows: usize) -> Lanes<'v> {
        match v {
            NumVec::I64(a) => Lanes::I64(&a[..rows]),
            NumVec::TmpI64(a) => Lanes::I64(&a[..rows]),
            NumVec::F64(a) => Lanes::F64(&a[..rows]),
            NumVec::TmpF64(a) => Lanes::F64(&a[..rows]),
            NumVec::ConstI64(c) => Lanes::Const(*c as f64),
            NumVec::ConstF64(c) => Lanes::Const(*c),
        }
    }
    match (view(&l, rows), view(&r, rows)) {
        (Lanes::I64(a), Lanes::Const(c)) => {
            mask::pack_slice(mask, a, |x| op.holds((x as f64).total_cmp(&c)));
        }
        (Lanes::F64(a), Lanes::Const(c)) => {
            mask::pack_slice(mask, a, |x| op.holds(x.total_cmp(&c)));
        }
        (Lanes::Const(c), Lanes::I64(a)) => {
            mask::pack_slice(mask, a, |x| op.holds(c.total_cmp(&(x as f64))));
        }
        (Lanes::Const(c), Lanes::F64(a)) => {
            mask::pack_slice(mask, a, |x| op.holds(c.total_cmp(&x)));
        }
        (Lanes::I64(a), Lanes::I64(b)) => {
            mask::pack_zip(mask, a, b, |x, y| {
                op.holds((x as f64).total_cmp(&(y as f64)))
            });
        }
        (Lanes::F64(a), Lanes::F64(b)) => {
            mask::pack_zip(mask, a, b, |x, y| op.holds(x.total_cmp(&y)));
        }
        (Lanes::I64(a), Lanes::F64(b)) => {
            mask::pack_zip(mask, a, b, |x, y| op.holds((x as f64).total_cmp(&y)));
        }
        (Lanes::F64(a), Lanes::I64(b)) => {
            mask::pack_zip(mask, a, b, |x, y| op.holds(x.total_cmp(&(y as f64))));
        }
        (Lanes::Const(a), Lanes::Const(b)) => {
            mask::fill(mask, rows, op.holds(a.total_cmp(&b)));
        }
    }

    // Null propagation: a null operand makes the comparison false, except
    // `Neq` against exactly one null. Arithmetic over a null is null. All
    // word-wise over the packed null unions.
    let lhs_nulls = null_mask(lhs, batch, rows, scratch);
    let rhs_nulls = null_mask(rhs, batch, rows, scratch);
    let neq = op == CmpOp::Neq;
    match (&lhs_nulls, &rhs_nulls) {
        (None, None) => {}
        (Some(nulls), None) | (None, Some(nulls)) => {
            if neq {
                mask::or(mask, nulls);
            } else {
                mask::and_not(mask, nulls);
            }
        }
        (Some(ln), Some(rn)) => {
            // Rows with any null operand become `neq && (exactly one null)`;
            // the rest keep their comparison verdict.
            let on_neq = if neq { !0u64 } else { 0 };
            for ((m, &l_word), &r_word) in mask.iter_mut().zip(ln.iter()).zip(rn.iter()) {
                *m = (*m & !(l_word | r_word)) | ((l_word ^ r_word) & on_neq);
            }
        }
    }
    if let Some(v) = lhs_nulls {
        scratch.put_mask(v);
    }
    if let Some(v) = rhs_nulls {
        scratch.put_mask(v);
    }
    release(l, scratch);
    release(r, scratch);
}

fn release(v: NumVec<'_>, scratch: &mut Scratch) {
    match v {
        NumVec::TmpI64(buf) => scratch.put_i64s(buf),
        NumVec::TmpF64(buf) => scratch.put_f64s(buf),
        _ => {}
    }
}

/// The union of the packed null bitmaps of every slot a numeric expression
/// reads, sized to `rows` (`None` when no referenced slot has nulls — the
/// common case). A single-slot union is a word copy; multi-slot unions are
/// word-wise `OR`s.
fn null_mask(
    expr: &NumExpr,
    batch: &BindingBatch,
    rows: usize,
    scratch: &mut Scratch,
) -> Option<Vec<u64>> {
    let mut slots = Vec::new();
    expr.collect_slots(&mut slots);
    let mut out: Option<Vec<u64>> = None;
    for slot in slots {
        let col = typed(batch, slot);
        if !col.has_nulls() {
            continue;
        }
        let mask = out.get_or_insert_with(|| {
            let mut v = scratch.take_mask();
            v.resize(mask::words_for(rows), 0);
            v
        });
        mask::or(mask, col.null_words());
    }
    out
}

/// Renders a numeric expression for the morsel. Slots borrow their typed
/// columns; arithmetic computes into recycled temporaries (integer ops wrap,
/// mirroring `eval_binary`; mixed int/float widens per operation).
fn eval_num<'a>(
    expr: &NumExpr,
    batch: &'a BindingBatch,
    rows: usize,
    scratch: &mut Scratch,
) -> NumVec<'a> {
    match expr {
        NumExpr::SlotI64(slot) => NumVec::I64(typed(batch, *slot).i64_values()),
        NumExpr::SlotF64(slot) => NumVec::F64(typed(batch, *slot).f64_values()),
        NumExpr::ConstI64(c) => NumVec::ConstI64(*c),
        NumExpr::ConstF64(c) => NumVec::ConstF64(*c),
        NumExpr::Neg(inner) => {
            let v = eval_num(inner, batch, rows, scratch);
            if inner.is_int() {
                let mut out = scratch.take_i64s();
                // Plain `-` mirrors the closure's `Value::Int(-i)` exactly:
                // both panic on i64::MIN in debug and wrap in release.
                match &v {
                    NumVec::I64(a) => out.extend(a[..rows].iter().map(|x| -x)),
                    NumVec::TmpI64(a) => out.extend(a[..rows].iter().map(|x| -x)),
                    NumVec::ConstI64(c) => out.resize(rows, -c),
                    _ => unreachable!("int Neg over a float operand"),
                }
                release(v, scratch);
                NumVec::TmpI64(out)
            } else {
                let mut out = scratch.take_f64s();
                out.extend((0..rows).map(|i| -v.f64_at(i)));
                release(v, scratch);
                NumVec::TmpF64(out)
            }
        }
        NumExpr::Arith { op, lhs, rhs } => {
            let l = eval_num(lhs, batch, rows, scratch);
            let r = eval_num(rhs, batch, rows, scratch);
            let int = lhs.is_int() && rhs.is_int();
            let result = if int {
                let mut out = scratch.take_i64s();
                let l_at = |v: &NumVec<'_>, i: usize| -> i64 {
                    match v {
                        NumVec::I64(a) => a[i],
                        NumVec::TmpI64(a) => a[i],
                        NumVec::ConstI64(c) => *c,
                        _ => unreachable!("int arith over a float operand"),
                    }
                };
                match op {
                    ArithOp::Add => {
                        out.extend((0..rows).map(|i| l_at(&l, i).wrapping_add(l_at(&r, i))))
                    }
                    ArithOp::Sub => {
                        out.extend((0..rows).map(|i| l_at(&l, i).wrapping_sub(l_at(&r, i))))
                    }
                    ArithOp::Mul => {
                        out.extend((0..rows).map(|i| l_at(&l, i).wrapping_mul(l_at(&r, i))))
                    }
                }
                NumVec::TmpI64(out)
            } else {
                let mut out = scratch.take_f64s();
                match op {
                    ArithOp::Add => out.extend((0..rows).map(|i| l.f64_at(i) + r.f64_at(i))),
                    ArithOp::Sub => out.extend((0..rows).map(|i| l.f64_at(i) - r.f64_at(i))),
                    ArithOp::Mul => out.extend((0..rows).map(|i| l.f64_at(i) * r.f64_at(i))),
                }
                NumVec::TmpF64(out)
            };
            release(l, scratch);
            release(r, scratch);
            result
        }
    }
}

// ---------------------------------------------------------------------------
// The aggregation tier: kernel plans for reduce / group-by sinks.
// ---------------------------------------------------------------------------

/// One kernel-classified aggregate input.
#[derive(Debug, Clone)]
pub enum AggKernel {
    /// `count`: the fold ignores its input entirely, so no expression is
    /// evaluated (and nothing is hydrated) — the kernel just counts the
    /// surviving rows, exactly like `Accumulator::merge` counts every merged
    /// value regardless of its shape.
    Count,
    /// `sum`/`min`/`max`/`avg` over a numeric vector expression.
    Num(NumExpr),
    /// `and`/`or` over a predicate-shaped boolean expression (a mask:
    /// `Bool(true)` lanes are `true`, everything else — incl. nulls — is
    /// `false`, matching `Value::as_bool`'s null collapse under merge).
    Bool(KernelPred),
}

impl AggKernel {
    fn collect_slots(&self, out: &mut Vec<usize>) {
        match self {
            AggKernel::Count => {}
            AggKernel::Num(expr) => expr.collect_slots(out),
            AggKernel::Bool(pred) => pred.collect_slots(out),
        }
    }
}

/// The kernel plan of one reduce or group-by sink.
#[derive(Debug, Clone)]
pub struct SinkKernel {
    /// Per output spec (parallel to the sink's `(monoid, expr)` list):
    /// the kernel, or `None` when that spec stays on the closure path.
    pub aggs: Vec<Option<AggKernel>>,
    /// Kernel part of the sink-level predicate; the residual (if any) stays
    /// a compiled closure applied after this mask.
    pub predicate: Option<KernelPred>,
    /// Typed slots serving the group-by key components, in key order
    /// (empty for reduce sinks).
    pub key_slots: Vec<usize>,
    /// The keys' compile-time bounds when every key is an `i64` slot whose
    /// zone-map totals fit [`plan_dense_keys`]: group ids are then dense
    /// offsets ([`TypedKeys::dense_ids`]) instead of hashed.
    pub dense: Option<Vec<DenseKey>>,
}

impl SinkKernel {
    /// Number of kernel-classified output specs.
    pub fn kernel_specs(&self) -> usize {
        self.aggs.iter().filter(|a| a.is_some()).count()
    }

    /// The typed group-state lane of each output spec (parallel to
    /// `monoids`): kernel-classified specs get one — extremes keep their
    /// input's integer-ness — closure-fallback specs none.
    pub fn lane_kinds(&self, monoids: &[Monoid]) -> Vec<Option<LaneKind>> {
        self.aggs
            .iter()
            .zip(monoids)
            .map(|(agg, &monoid)| {
                Some(match (agg.as_ref()?, monoid) {
                    (_, Monoid::Count) => LaneKind::Count,
                    (_, Monoid::Sum) => LaneKind::Sum,
                    (_, Monoid::Avg) => LaneKind::Avg,
                    (AggKernel::Num(expr), Monoid::Max | Monoid::Min) => LaneKind::Extreme {
                        max: monoid == Monoid::Max,
                        int: expr.is_int(),
                    },
                    (_, Monoid::And | Monoid::Or) => LaneKind::Bool {
                        or: monoid == Monoid::Or,
                    },
                    _ => unreachable!("{monoid} classified as an aggregate kernel"),
                })
            })
            .collect()
    }

    /// Renders every kernel-classified aggregate input for one batch:
    /// numeric expressions evaluate to dense lanes (plus their null union),
    /// boolean expressions to masks. Costs nothing per closure-fallback spec.
    pub fn render<'a>(
        &self,
        batch: &'a BindingBatch,
        rows: usize,
        scratch: &mut Scratch,
    ) -> RenderedAggs<'a> {
        let slots = self
            .aggs
            .iter()
            .map(|agg| {
                agg.as_ref().map(|agg| match agg {
                    AggKernel::Count => RenderedAgg::Count,
                    AggKernel::Num(expr) => RenderedAgg::Num {
                        vec: eval_num(expr, batch, rows, scratch),
                        nulls: null_mask(expr, batch, rows, scratch),
                        int: expr.is_int(),
                    },
                    AggKernel::Bool(pred) => {
                        let mut mask = scratch.take_mask();
                        eval_pred(pred, batch, rows, &mut mask, scratch);
                        RenderedAgg::Bool(mask)
                    }
                })
            })
            .collect();
        RenderedAggs { slots }
    }
}

/// One rendered aggregate input (see [`SinkKernel::render`]). Boolean
/// inputs and null unions are packed bitmasks ([`crate::exec::mask`]).
enum RenderedAgg<'a> {
    Count,
    Num {
        vec: NumVec<'a>,
        nulls: Option<Vec<u64>>,
        int: bool,
    },
    Bool(Vec<u64>),
}

/// The rendered kernel aggregate inputs of one batch.
pub struct RenderedAggs<'a> {
    slots: Vec<Option<RenderedAgg<'a>>>,
}

/// Calls `f(at, value)` for every `(at, row)` pair whose row is non-null in
/// the rendered numeric input, in order, with the float view of the lane
/// (the shared walk of the grouped `Sum`/`Avg` folds; dense `f64`/`i64`
/// inputs skip the per-row null test and lane dispatch).
#[inline]
fn for_each_non_null(
    vec: &NumVec<'_>,
    nulls: &Option<Vec<u64>>,
    pairs: impl Iterator<Item = (usize, usize)>,
    mut f: impl FnMut(usize, f64),
) {
    match (vec, nulls) {
        (NumVec::F64(v), None) => pairs.for_each(|(at, i)| f(at, v[i])),
        (NumVec::I64(v), None) => pairs.for_each(|(at, i)| f(at, v[i] as f64)),
        (vec, nulls) => {
            for (at, i) in pairs {
                if !null_at(nulls, i) {
                    f(at, vec.f64_at(i));
                }
            }
        }
    }
}

#[inline]
fn null_at(nulls: &Option<Vec<u64>>, i: usize) -> bool {
    nulls.as_ref().is_some_and(|n| mask::get(n, i))
}

/// The state slot a row of group `g` folds into: group `g`'s slot of the
/// lane, or — `ONE`, a keyless table — `local`, the copy of group 0's slot
/// that [`fold_lane`] keeps on the stack, so the running value stays in a
/// register instead of taking a store and a reload per row.
#[inline(always)]
fn slot<'a, const ONE: bool, T>(local: &'a mut T, lane: &'a mut [T], g: usize) -> &'a mut T {
    if ONE {
        local
    } else {
        &mut lane[g]
    }
}

/// Group 0's slot of a lane, copied out before a `ONE` fold (a zero
/// otherwise, and unused).
#[inline(always)]
fn lift<const ONE: bool, T: Copy + Default>(lane: &[T]) -> T {
    if ONE {
        lane[0]
    } else {
        T::default()
    }
}

/// Writes a `ONE` fold's local copy back to group 0's slot, once per morsel.
#[inline(always)]
fn settle<const ONE: bool, T>(lane: &mut [T], local: T) {
    if ONE {
        lane[0] = local;
    }
}

/// The one fold body per lane kind: `(group, row)` pairs in row order (see
/// [`RenderedAggs::fold_groups`]). `ONE` folds every row into group 0 over
/// local copies of its slots ([`slot`]).
#[inline(always)]
fn fold_lane<const ONE: bool>(
    rendered: &RenderedAgg<'_>,
    lane: &mut AggLane,
    pairs: impl Iterator<Item = (usize, usize)>,
) {
    match (rendered, lane) {
        (RenderedAgg::Count, AggLane::Count(counts)) => {
            let mut one = lift::<ONE, _>(counts);
            for (g, _) in pairs {
                *slot::<ONE, _>(&mut one, counts, g) += 1;
            }
            settle::<ONE, _>(counts, one);
        }
        (RenderedAgg::Num { vec, nulls, .. }, AggLane::Sum(sums)) => {
            let mut one = lift::<ONE, _>(sums);
            for_each_non_null(vec, nulls, pairs, |g, value| {
                *slot::<ONE, _>(&mut one, sums, g) += value
            });
            settle::<ONE, _>(sums, one);
        }
        (RenderedAgg::Num { vec, nulls, .. }, AggLane::Avg { sums, counts }) => {
            let (mut sum, mut count) = (lift::<ONE, _>(sums), lift::<ONE, _>(counts));
            for_each_non_null(vec, nulls, pairs, |g, value| {
                *slot::<ONE, _>(&mut sum, sums, g) += value;
                *slot::<ONE, _>(&mut count, counts, g) += 1;
            });
            settle::<ONE, _>(sums, sum);
            settle::<ONE, _>(counts, count);
        }
        (
            RenderedAgg::Num { vec, nulls, int },
            AggLane::Extreme {
                max,
                int: lane_int,
                values,
                present,
            },
        ) => {
            debug_assert_eq!(int, lane_int);
            let want = if *max {
                Ordering::Greater
            } else {
                Ordering::Less
            };
            // The lane keeps the raw extreme; a `ONE` fold keeps group 0's
            // running float view and the row that set it, and reads the
            // raw value once, after the morsel.
            let raw = |i: usize, view: f64| {
                if *int {
                    vec.i64_at(i) as u64
                } else {
                    view.to_bits()
                }
            };
            let mut best = lift::<ONE, _>(present).then(|| AggLane::extreme_view(*int, values[0]));
            let mut best_row = None;
            for (g, i) in pairs {
                if null_at(nulls, i) {
                    continue;
                }
                let view = vec.f64_at(i);
                let current = if ONE {
                    best
                } else {
                    present[g].then(|| AggLane::extreme_view(*int, values[g]))
                };
                if current.is_none_or(|current| view.total_cmp(&current) == want) {
                    if ONE {
                        (best, best_row) = (Some(view), Some(i));
                    } else {
                        values[g] = raw(i, view);
                        present[g] = true;
                    }
                }
            }
            if let (Some(i), Some(view)) = (best_row, best) {
                values[0] = raw(i, view);
                present[0] = true;
            }
        }
        (RenderedAgg::Bool(bits), AggLane::Bool { or, bits: lane }) => {
            let mut one = lift::<ONE, _>(lane);
            for (g, i) in pairs {
                let bit = mask::get(bits, i);
                let state = slot::<ONE, _>(&mut one, lane, g);
                *state = if *or { *state || bit } else { *state && bit };
            }
            settle::<ONE, _>(lane, one);
        }
        _ => unreachable!("rendered aggregate does not match its lane"),
    }
}

impl RenderedAggs<'_> {
    /// True when output spec `spec` was kernel-classified.
    pub fn is_kernel(&self, spec: usize) -> bool {
        self.slots[spec].is_some()
    }

    /// The fold of output spec `spec` into its typed lane ([`AggLane`], one
    /// slot per group of a [`RadixGroupTable`]): row `rows_idx[j]` folds
    /// into group `gids[j]`, or — with no ids, a keyless table — every row
    /// into group 0. One dispatch on the spec's shape per morsel, then a
    /// tight loop over `(group, row)` — each arm is one `Accumulator::merge`
    /// over a flat lane, so every group sees exactly the sequence of updates
    /// a row-at-a-time ingest into its `Accumulator` gives it (float adds in
    /// row order, strict-replace extremes compared through the float view,
    /// first-seen ties kept).
    ///
    /// [`RadixGroupTable`]: crate::exec::radix::RadixGroupTable
    pub fn fold_groups(
        &self,
        spec: usize,
        lane: &mut AggLane,
        gids: Option<&[u32]>,
        rows_idx: &[u32],
    ) {
        let Some(rendered) = &self.slots[spec] else {
            unreachable!("fold_groups on a closure-fallback spec");
        };
        match gids {
            Some(gids) => {
                debug_assert_eq!(gids.len(), rows_idx.len());
                let pairs = gids
                    .iter()
                    .zip(rows_idx)
                    .map(|(&gid, &r)| (gid as usize, r as usize));
                fold_lane::<false>(rendered, lane, pairs);
            }
            None => {
                let pairs = rows_idx.iter().map(|&r| (0, r as usize));
                fold_lane::<true>(rendered, lane, pairs);
            }
        }
    }

    /// Returns the rendered buffers to the scratch pools.
    pub fn release(self, scratch: &mut Scratch) {
        for slot in self.slots {
            match slot {
                Some(RenderedAgg::Num { vec, nulls, .. }) => {
                    release(vec, scratch);
                    if let Some(n) = nulls {
                        scratch.put_mask(n);
                    }
                }
                Some(RenderedAgg::Bool(bits)) => scratch.put_mask(bits),
                Some(RenderedAgg::Count) | None => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed keys: hash + compare straight from the columns.
// ---------------------------------------------------------------------------

/// A key reader bound to one batch's typed columns, for group-bys and join
/// probes alike. Hashes key components lane-wise — string pools are
/// pre-hashed once per morsel — and compares rows against the key columns
/// of a [`BuildStore`] by the store's one rule
/// ([`key_eq`](crate::exec::radix::key_eq): numerics through their float
/// view), so the typed paths group and join exactly like the hydrated
/// closure paths.
pub struct TypedKeys<'a> {
    comps: Vec<(&'a TypedColumn, Vec<u64>)>,
}

impl<'a> TypedKeys<'a> {
    /// Binds the key slots to the batch's live typed columns.
    pub fn bind(slots: &[usize], batch: &'a BindingBatch) -> TypedKeys<'a> {
        let comps = slots
            .iter()
            .map(|&slot| {
                let col = typed(batch, slot);
                let pool_hashes = match col.kind() {
                    TypedKind::Str => {
                        let (_, pool) = col.str_parts();
                        pool.iter().map(|s| Value::stable_hash_str(s)).collect()
                    }
                    _ => Vec::new(),
                };
                (col, pool_hashes)
            })
            .collect();
        TypedKeys { comps }
    }

    /// The stable hash of one key component at `row` — the single source of
    /// truth for lane↔`Value` hash parity (the nullable arm of
    /// [`TypedKeys::hash_rows`] goes through here; its dense loops are
    /// per-kind specializations of this dispatch).
    #[inline]
    fn component_hash(col: &TypedColumn, pool_hashes: &[u64], row: usize) -> u64 {
        if col.is_null(row) {
            return Value::stable_hash_null();
        }
        match col.kind() {
            TypedKind::I64 => Value::stable_hash_numeric(col.i64_values()[row] as f64),
            TypedKind::F64 => Value::stable_hash_numeric(col.f64_values()[row]),
            TypedKind::Bool => Value::stable_hash_bool(col.bool_values()[row]),
            TypedKind::Str => pool_hashes[col.str_parts().0[row] as usize],
        }
    }

    /// Columnwise batch hashing: `out[j]` becomes the key hash of row
    /// `rows_idx[j]`, identical to
    /// [`hash_key_components`](crate::exec::radix::hash_key_components) over
    /// the hydrated key values. The kind
    /// dispatch runs once per *component* instead of once per row, leaving
    /// dense mix loops over the raw lanes.
    pub fn hash_rows(&self, rows_idx: &[u32], out: &mut Vec<u64>) {
        out.clear();
        out.resize(rows_idx.len(), KeyHash::seed(self.comps.len()));
        for (col, pool_hashes) in &self.comps {
            if col.has_nulls() {
                // Nullable columns take the per-row branchy path.
                for (h, &r) in out.iter_mut().zip(rows_idx) {
                    *h = KeyHash::mix(*h, Self::component_hash(col, pool_hashes, r as usize));
                }
                continue;
            }
            match col.kind() {
                TypedKind::I64 => {
                    let lanes = col.i64_values();
                    for (h, &r) in out.iter_mut().zip(rows_idx) {
                        *h = KeyHash::mix(*h, Value::stable_hash_numeric(lanes[r as usize] as f64));
                    }
                }
                TypedKind::F64 => {
                    let lanes = col.f64_values();
                    for (h, &r) in out.iter_mut().zip(rows_idx) {
                        *h = KeyHash::mix(*h, Value::stable_hash_numeric(lanes[r as usize]));
                    }
                }
                TypedKind::Bool => {
                    let lanes = col.bool_values();
                    for (h, &r) in out.iter_mut().zip(rows_idx) {
                        *h = KeyHash::mix(*h, Value::stable_hash_bool(lanes[r as usize]));
                    }
                }
                TypedKind::Str => {
                    let (ids, _) = col.str_parts();
                    for (h, &r) in out.iter_mut().zip(rows_idx) {
                        *h = KeyHash::mix(*h, pool_hashes[ids[r as usize] as usize]);
                    }
                }
            }
        }
    }

    /// The typed group-by ingest, step one: `gids[j]` becomes the id of the
    /// group of row `rows_idx[j]` in `table`, given the rows' key hashes
    /// from [`TypedKeys::hash_rows`]. Each row finds its group through the
    /// table's one resolve, compared lane to stored column by
    /// [`TypedKeys::eq_store`] under the group null rule; a new group's key
    /// is appended to the key columns from the lanes (strings as `Value`s,
    /// confirmed by content: each morsel interns its own pool).
    pub fn resolve_groups(
        &self,
        table: &mut RadixGroupTable,
        rows_idx: &[u32],
        hashes: &[u64],
        gids: &mut Vec<u32>,
    ) {
        debug_assert_eq!(rows_idx.len(), hashes.len());
        gids.clear();
        gids.extend(rows_idx.iter().zip(hashes).map(|(&r, &hash)| {
            table.resolve(
                hash,
                |store, group| self.eq_store(r as usize, store, group, GROUP_NULLS),
                |store| {
                    for (comp, (col, _)) in self.comps.iter().enumerate() {
                        store.key_mut(comp).extend_rows(col, &[r]);
                    }
                },
            )
        }));
    }

    /// The dense group-by ingest: `gids[j]` becomes the offset of row
    /// `rows_idx[j]`'s key within `keys` (the last key varies fastest; a
    /// null takes its key's slot after `max`). Fails — without a word of the
    /// offsets trusted — when a component is not an `i64` lane or a lane
    /// lies outside its compiled bound: a wrong group would be silent.
    pub fn dense_ids(
        &self,
        keys: &[DenseKey],
        rows_idx: &[u32],
        gids: &mut Vec<u32>,
    ) -> Result<(), String> {
        debug_assert_eq!(keys.len(), self.comps.len());
        gids.clear();
        gids.resize(rows_idx.len(), 0);
        for (comp, ((col, _), key)) in self.comps.iter().zip(keys).enumerate() {
            if col.kind() != TypedKind::I64 {
                return Err(format!("group key {comp} is not an i64 lane"));
            }
            let values = col.i64_values();
            let span = key.span() as u32;
            let range = key.max.abs_diff(key.min);
            let mut out_of_bounds = false;
            if col.has_nulls() {
                for (gid, &r) in gids.iter_mut().zip(rows_idx) {
                    let r = r as usize;
                    let digit = if col.is_null(r) {
                        out_of_bounds |= !key.nullable;
                        range + 1
                    } else {
                        let digit = values[r].wrapping_sub(key.min) as u64;
                        out_of_bounds |= digit > range;
                        digit
                    };
                    *gid = gid.wrapping_mul(span).wrapping_add(digit as u32);
                }
            } else {
                for (gid, &r) in gids.iter_mut().zip(rows_idx) {
                    let digit = values[r as usize].wrapping_sub(key.min) as u64;
                    out_of_bounds |= digit > range;
                    *gid = gid.wrapping_mul(span).wrapping_add(digit as u32);
                }
            }
            if out_of_bounds {
                return Err(format!(
                    "group key {comp} has a lane outside its compiled bound [{}, {}]{}",
                    key.min,
                    key.max,
                    if key.nullable {
                        " or null"
                    } else {
                        " (no nulls)"
                    }
                ));
            }
        }
        Ok(())
    }

    /// The lane-vs-stored-key compare: whether row `row` of the bound typed
    /// columns and entry `entry` of a [`BuildStore`] are one key —
    /// componentwise [`key_eq`](crate::exec::radix::key_eq) under the null
    /// rule (`JOIN_NULLS` for a join probe, `GROUP_NULLS` for a group-by).
    /// A typed key column is compared lane to lane, a `Value` one against
    /// the stored component, and no lane becomes a `Value`.
    pub fn eq_store(&self, row: usize, store: &BuildStore, entry: u32, nulls_equal: bool) -> bool {
        debug_assert_eq!(store.arity(), self.comps.len());
        self.comps
            .iter()
            .enumerate()
            .all(|(comp, (col, _))| store.key(comp).eq_lane(entry, col, row, nulls_equal))
    }

    /// The single-numeric-key probe fast path: when the key is exactly one
    /// `i64`/`f64` column and the build key is an `i64`/`f64` lane, probes
    /// every selected row with its lane's float view hoisted out of the
    /// candidate compares (and the same lookahead prefetch as the generic
    /// loop). Parity with [`TypedKeys::eq_store`] under the join null rule,
    /// row by row: a null lane matches nothing (and is not probed), a
    /// numeric lane matches the non-null entries whose float view it equals
    /// by `total_cmp`. Returns `false` when ineligible — the caller runs the
    /// generic loop instead.
    pub fn probe_rows_numeric(
        &self,
        table: &crate::exec::radix::RadixHashTable,
        sel: &[u32],
        hashes: &[u64],
        on_match: impl FnMut(u32, u32),
    ) -> bool {
        let [(col, _)] = self.comps.as_slice() else {
            return false;
        };
        let StoreColumn::Lanes(build) = table.store().key(0) else {
            return false;
        };
        match (col.kind(), build.kind()) {
            (TypedKind::I64, TypedKind::I64) => {
                let (p, b) = (col.i64_values(), build.i64_values());
                probe_numeric(table, sel, hashes, col, p, build, b, on_match)
            }
            (TypedKind::I64, TypedKind::F64) => {
                let (p, b) = (col.i64_values(), build.f64_values());
                probe_numeric(table, sel, hashes, col, p, build, b, on_match)
            }
            (TypedKind::F64, TypedKind::I64) => {
                let (p, b) = (col.f64_values(), build.i64_values());
                probe_numeric(table, sel, hashes, col, p, build, b, on_match)
            }
            (TypedKind::F64, TypedKind::F64) => {
                let (p, b) = (col.f64_values(), build.f64_values());
                probe_numeric(table, sel, hashes, col, p, build, b, on_match)
            }
            _ => return false,
        }
        true
    }
}

/// A numeric key lane's float view: what `Value::value_eq` compares.
trait FloatView: Copy {
    fn view(self) -> f64;
}

impl FloatView for i64 {
    #[inline]
    fn view(self) -> f64 {
        self as f64
    }
}

impl FloatView for f64 {
    #[inline]
    fn view(self) -> f64 {
        self
    }
}

/// The loop of [`TypedKeys::probe_rows_numeric`], monomorphised per pair of
/// lane kinds: `probe` and `build` are the two key columns, `probe_lane`
/// and `build_lane` their values.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn probe_numeric<P: FloatView, B: FloatView>(
    table: &crate::exec::radix::RadixHashTable,
    sel: &[u32],
    hashes: &[u64],
    probe: &TypedColumn,
    probe_lane: &[P],
    build: &TypedColumn,
    build_lane: &[B],
    mut on_match: impl FnMut(u32, u32),
) {
    let build_nulls = build.has_nulls();
    for (i, (&r, &hash)) in sel.iter().zip(hashes).enumerate() {
        if let Some(&ahead) = hashes.get(i + crate::exec::radix::PROBE_LOOKAHEAD) {
            table.prefetch(ahead);
        }
        let row = r as usize;
        if probe.is_null(row) {
            continue;
        }
        let lane = probe_lane[row].view();
        table.probe_hashed(
            hash,
            |entry| {
                let entry = entry as usize;
                !(build_nulls && build.is_null(entry))
                    && lane.total_cmp(&build_lane[entry].view()) == Ordering::Equal
            },
            |entry| on_match(entry, r),
        );
    }
}

// ---------------------------------------------------------------------------
// The sink planner: ReduceSpec / group-by → SinkKernel classification.
// ---------------------------------------------------------------------------

/// What the planner produced for one reduce or group-by sink.
pub struct PlannedSink {
    /// The kernel plan (per-spec aggs, kernel predicate part, key slots).
    pub kernel: SinkKernel,
    /// Predicate conjuncts that must stay on the closure path, if any.
    pub pred_residual: Option<Expr>,
    /// Typed slots the kernel reads (the scan must activate their fills).
    pub used_slots: Vec<usize>,
}

/// Resolves every key expression (group-by keys, join equi-keys) to an exact
/// typed slot, or `None` when any key must stay on the closure path — key
/// classification is all-or-nothing, because every component of one key must
/// hash/compare through the same tier for hash parity. Nested paths,
/// computed keys and untyped slots are the expressions this refuses.
pub fn plan_key_slots(
    keys: &[Expr],
    layout: &BindingLayout,
    typed_slots: &HashMap<usize, TypedKind>,
) -> Option<Vec<usize>> {
    keys.iter()
        .map(|key| typed_slot_of(key, layout, typed_slots).map(|(slot, _)| slot))
        .collect()
}

/// Classifies a sink against the typed slots a scan can serve.
///
/// * Every output spec is classified independently ([`AggKernel`]); specs
///   the kernels cannot serve (collection monoids, record/list-shaped or
///   untyped expressions, division) fall back to their compiled closure.
/// * A group-by (`group_by` non-empty) is all-or-nothing on its **keys**:
///   every key expression must resolve to an exact typed slot, otherwise
///   the whole sink stays on the closure path.
/// * The sink predicate splits like a selection: eligible conjuncts become
///   the kernel mask, the rest are re-conjoined as the closure residual.
///
/// Returns `None` when nothing would run on the kernel path.
pub fn plan_sink(
    outputs: &[ReduceSpec],
    group_by: &[Expr],
    predicate: Option<&Expr>,
    layout: &BindingLayout,
    typed_slots: &HashMap<usize, TypedKind>,
) -> Option<PlannedSink> {
    let key_slots = plan_key_slots(group_by, layout, typed_slots)?;
    let aggs: Vec<Option<AggKernel>> = outputs
        .iter()
        .map(|output| plan_agg(output.monoid, &output.expr, layout, typed_slots))
        .collect();
    let (kernel_pred, pred_residual) = match predicate {
        Some(p) => match plan_predicate(p, layout, typed_slots) {
            Some(planned) => (Some(planned.kernel), planned.residual),
            None => (None, Some(p.clone())),
        },
        None => (None, None),
    };
    // A reduce sink engages when at least one spec or the predicate runs on
    // the kernel path; a group-by with typed keys always engages (the typed
    // key ingest alone removes the per-row key allocation).
    if group_by.is_empty() && aggs.iter().all(Option::is_none) && kernel_pred.is_none() {
        return None;
    }
    let mut used_slots = key_slots.clone();
    for agg in aggs.iter().flatten() {
        agg.collect_slots(&mut used_slots);
    }
    if let Some(pred) = &kernel_pred {
        pred.collect_slots(&mut used_slots);
    }
    used_slots.sort_unstable();
    used_slots.dedup();
    Some(PlannedSink {
        kernel: SinkKernel {
            aggs,
            predicate: kernel_pred,
            key_slots,
            dense: None,
        },
        pred_residual,
        used_slots,
    })
}

/// Largest key magnitude whose integers the `f64` view still tells apart:
/// within ±2⁵³ grouping by the float view (what `Value::value_eq` does) is
/// grouping by the integer.
const EXACT_INT_VIEW: u64 = 1 << 53;

/// Dense group ids for keys whose totals (one [`ColumnStats`] per key, from
/// the zone maps) bound them: every key needs integer bounds within ±2⁵³,
/// and the product of the spans — each key's values plus one null slot when
/// its map counts nulls — may exceed neither [`DENSE_MAX_SLOTS`] nor the
/// scan's `row_count`. `None` keeps the hashed ids.
pub fn plan_dense_keys(stats: &[&ColumnStats], row_count: u64) -> Option<Vec<DenseKey>> {
    if stats.is_empty() {
        return None;
    }
    let mut slots = 1u64;
    let mut keys = Vec::with_capacity(stats.len());
    for s in stats {
        let (Value::Int(min), Value::Int(max)) = (&s.min, &s.max) else {
            return None;
        };
        if min.unsigned_abs() > EXACT_INT_VIEW || max.unsigned_abs() > EXACT_INT_VIEW {
            return None;
        }
        let key = DenseKey {
            min: *min,
            max: *max,
            nullable: s.nulls > 0,
        };
        slots = slots.saturating_mul(key.span() as u64);
        if slots > DENSE_MAX_SLOTS {
            return None;
        }
        keys.push(key);
    }
    (slots <= row_count).then_some(keys)
}

/// Classifies one aggregate output spec.
fn plan_agg(
    monoid: Monoid,
    expr: &Expr,
    layout: &BindingLayout,
    typed: &HashMap<usize, TypedKind>,
) -> Option<AggKernel> {
    match monoid {
        // `count` never looks at the merged value (`Accumulator::merge`
        // increments unconditionally), so it is eligible regardless of the
        // expression's shape — and its inputs are never evaluated.
        Monoid::Count => Some(AggKernel::Count),
        Monoid::Sum | Monoid::Avg | Monoid::Min | Monoid::Max => {
            plan_num(expr, layout, typed).map(AggKernel::Num)
        }
        Monoid::And | Monoid::Or => plan_pred(expr, layout, typed).map(AggKernel::Bool),
        // Collection monoids materialize their inputs value-wise.
        Monoid::Bag | Monoid::Set | Monoid::List => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::compile_predicate;
    use proteus_algebra::monoid::Accumulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: u64 = 64;

    /// Slots: 0 = `t.i` (I64), 1 = `t.f` (F64), 2 = `t.b` (Bool),
    /// 3 = `t.s` (Str).
    fn layout() -> BindingLayout {
        let mut layout = BindingLayout::new();
        layout.slot_for("t.i");
        layout.slot_for("t.f");
        layout.slot_for("t.b");
        layout.slot_for("t.s");
        layout
    }

    fn typed_map() -> HashMap<usize, TypedKind> {
        [
            (0, TypedKind::I64),
            (1, TypedKind::F64),
            (2, TypedKind::Bool),
            (3, TypedKind::Str),
        ]
        .into_iter()
        .collect()
    }

    /// Builds a batch holding the same random rows in both representations:
    /// typed columns (with a null bitmap) and row-major `Value`s — exactly
    /// the state after a typed scan plus hydration.
    fn random_batch(rng: &mut StdRng, rows: usize) -> BindingBatch {
        let mut batch = BindingBatch::new();
        batch.reset(4, rows);
        batch.typed_col_mut(0).begin(TypedKind::I64, rows);
        batch.typed_col_mut(1).begin(TypedKind::F64, rows);
        batch.typed_col_mut(2).begin(TypedKind::Bool, rows);
        batch.typed_col_mut(3).begin(TypedKind::Str, rows);
        let words = ["", "fox", "quick fox", "lazy", "zebra", "ant"];
        let mut values: Vec<[Value; 4]> = Vec::with_capacity(rows);
        for _ in 0..rows {
            let null_roll = rng.gen_range(0u32..10);
            let i_val = (null_roll != 0).then(|| rng.gen_range(-50i64..50));
            let f_val = (null_roll != 1).then(|| {
                let raw = rng.gen_range(-40.0f64..40.0);
                // Exercise -0.0 and NaN-free odd values.
                if rng.gen_range(0u32..20) == 0 {
                    -0.0
                } else {
                    (raw * 4.0).round() / 4.0
                }
            });
            let b_val = (null_roll != 2).then(|| rng.gen_range(0u32..2) == 1);
            let s_val = (null_roll != 3).then(|| words[rng.gen_range(0usize..words.len())]);
            values.push([
                i_val.map(Value::Int).unwrap_or(Value::Null),
                f_val.map(Value::Float).unwrap_or(Value::Null),
                b_val.map(Value::Bool).unwrap_or(Value::Null),
                s_val.map(Value::str).unwrap_or(Value::Null),
            ]);
            let col = batch.typed_col_mut(0);
            match i_val {
                Some(v) => col.push_i64(v),
                None => col.push_null(),
            }
            let col = batch.typed_col_mut(1);
            match f_val {
                Some(v) => col.push_f64(v),
                None => col.push_null(),
            }
            let col = batch.typed_col_mut(2);
            match b_val {
                Some(v) => col.push_bool(v),
                None => col.push_null(),
            }
            let col = batch.typed_col_mut(3);
            match s_val {
                Some(v) => col.push_str(v),
                None => col.push_null(),
            }
        }
        for (row, vals) in values.into_iter().enumerate() {
            for (slot, v) in vals.into_iter().enumerate() {
                batch.put(row, slot, v);
            }
        }
        batch
    }

    /// One random conjunct drawn from the fig05–fig12 predicate shapes
    /// (threshold selections, conjunctions over numeric columns, string
    /// predicates) plus the null/negation/disjunction edge shapes. Shapes
    /// 10+ are deliberately closure-only (fallback coverage).
    fn random_conjunct(rng: &mut StdRng) -> Expr {
        let ops = [
            BinaryOp::Eq,
            BinaryOp::Neq,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
        ];
        let op = ops[rng.gen_range(0usize..ops.len())];
        let words = ["", "fox", "quick fox", "lazy", "zebra", "nope"];
        match rng.gen_range(0u32..13) {
            // fig07/fig08-style threshold comparisons.
            0 => Expr::binary(op, Expr::path("t.i"), Expr::int(rng.gen_range(-30i64..30))),
            1 => Expr::binary(
                op,
                Expr::path("t.f"),
                Expr::float(rng.gen_range(-20.0f64..20.0)),
            ),
            // Literal-first (flipped) comparisons.
            2 => Expr::binary(op, Expr::int(rng.gen_range(-30i64..30)), Expr::path("t.i")),
            // Column-vs-column, mixed int/float.
            3 => Expr::binary(op, Expr::path("t.i"), Expr::path("t.f")),
            // Arithmetic inside the comparison (fig05-style computed
            // projections used as filters).
            4 => Expr::binary(
                op,
                Expr::binary(
                    BinaryOp::Mul,
                    Expr::path("t.i"),
                    Expr::int(rng.gen_range(1i64..4)),
                ),
                Expr::int(rng.gen_range(-40i64..40)),
            ),
            5 => Expr::binary(
                op,
                Expr::binary(BinaryOp::Add, Expr::path("t.f"), Expr::path("t.i")),
                Expr::float(rng.gen_range(-30.0f64..30.0)),
            ),
            // String predicates (Symantec Q12/Q13-style).
            6 => Expr::binary(
                op,
                Expr::path("t.s"),
                Expr::string(words[rng.gen_range(0usize..words.len())]),
            ),
            7 => Expr::Contains {
                expr: Box::new(Expr::path("t.s")),
                needle: ["fox", "qu", "z", "xyz"][rng.gen_range(0usize..4)].into(),
            },
            // Bool column, bare and compared.
            8 => Expr::path("t.b"),
            9 => Expr::binary(
                op,
                Expr::path("t.b"),
                Expr::boolean(rng.gen_range(0u32..2) == 1),
            ),
            // IS NULL / negation / disjunction.
            10 => Expr::Unary {
                op: UnaryOp::IsNull,
                expr: Box::new(Expr::path(
                    ["t.i", "t.f", "t.b", "t.s"][rng.gen_range(0usize..4)],
                )),
            },
            11 => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(Expr::binary(
                    op,
                    Expr::path("t.i"),
                    Expr::int(rng.gen_range(-30i64..30)),
                )),
            },
            _ => Expr::binary(op, Expr::path("t.i"), Expr::int(rng.gen_range(-30i64..30))).or(
                Expr::binary(
                    op,
                    Expr::path("t.f"),
                    Expr::float(rng.gen_range(-20.0f64..20.0)),
                ),
            ),
        }
    }

    /// A conjunct the planner must refuse: division, conditionals, record
    /// shapes. These exercise the residual (closure-fallback) split.
    fn fallback_conjunct(rng: &mut StdRng) -> Expr {
        match rng.gen_range(0u32..3) {
            0 => Expr::binary(
                BinaryOp::Lt,
                Expr::binary(BinaryOp::Div, Expr::path("t.i"), Expr::int(2)),
                Expr::int(rng.gen_range(-10i64..10)),
            ),
            1 => Expr::If {
                cond: Box::new(Expr::path("t.b")),
                then: Box::new(Expr::boolean(true)),
                otherwise: Box::new(Expr::binary(BinaryOp::Gt, Expr::path("t.i"), Expr::int(0))),
            },
            _ => Expr::binary(BinaryOp::Mod, Expr::path("t.i"), Expr::int(3)).eq(Expr::int(0)),
        }
    }

    fn selections_match(seed: u64, with_fallback: bool, empty_selection: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = layout();
        let typed = typed_map();
        let rows = rng.gen_range(1usize..200);
        let conjuncts: usize = rng.gen_range(1usize..4);
        let mut parts: Vec<Expr> = (0..conjuncts).map(|_| random_conjunct(&mut rng)).collect();
        if with_fallback {
            parts.push(fallback_conjunct(&mut rng));
        }
        let predicate = Expr::conjunction(parts);

        let planned = plan_predicate(&predicate, &layout, &typed);
        let Some(planned) = planned else {
            assert!(
                with_fallback && conjuncts == 0,
                "seed {seed}: no conjunct was kernel-eligible for {predicate}"
            );
            return;
        };
        if with_fallback {
            assert!(
                planned.residual.is_some(),
                "seed {seed}: fallback conjunct was not split out of {predicate}"
            );
        }

        // Two identical batches from the same derived seed.
        let batch_seed = rng.gen_range(0u64..u64::MAX / 2);
        let mut kernel_batch = random_batch(&mut StdRng::seed_from_u64(batch_seed), rows);
        let mut closure_batch = random_batch(&mut StdRng::seed_from_u64(batch_seed), rows);
        if empty_selection {
            let none = vec![0u64; mask::words_for(rows)];
            kernel_batch.compress_sel(&none);
            closure_batch.compress_sel(&none);
        }

        let mut scratch = Scratch::new();
        apply_filter(&planned.kernel, &mut kernel_batch, &mut scratch);
        if let Some(residual) = &planned.residual {
            let pred = compile_predicate(residual, &layout).unwrap();
            kernel_batch.retain(|row| pred(row));
        }
        let full = compile_predicate(&predicate, &layout).unwrap();
        closure_batch.retain(|row| full(row));

        assert_eq!(
            kernel_batch.sel(),
            closure_batch.sel(),
            "seed {seed}: kernel and closure selections diverge for {predicate}"
        );
    }

    #[test]
    fn kernel_selection_equals_closure_selection() {
        for seed in 0..CASES {
            selections_match(seed, false, false);
        }
    }

    #[test]
    fn kernel_plus_residual_equals_full_closure() {
        for seed in 0..CASES {
            selections_match(seed, true, false);
        }
    }

    #[test]
    fn kernels_handle_empty_selections() {
        for seed in 0..CASES / 4 {
            selections_match(seed, false, true);
        }
    }

    /// Bitmask edge shapes: every predicate class at morsel sizes that
    /// straddle the 64-row word boundary (single word, exact words, one-over
    /// tails), against the compiled closure as the reference. Covers the
    /// all-zero/all-one constant words, `NOT` at a partial tail word, the
    /// `Neq`-vs-null rule (null words flow *into* the mask word-wise), and
    /// `IS NULL` (the mask *is* the column's packed null bitmap).
    #[test]
    fn bitmask_word_tails_and_null_words() {
        let layout = layout();
        let typed = typed_map();
        let predicates: Vec<Expr> = vec![
            Expr::boolean(true),
            Expr::boolean(false),
            Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(Expr::boolean(false)),
            },
            // Neq against a literal: one-null rows must come out true.
            Expr::binary(BinaryOp::Neq, Expr::path("t.i"), Expr::int(3)),
            // Neq between two nullable columns: exactly-one-null is true.
            Expr::binary(BinaryOp::Neq, Expr::path("t.i"), Expr::path("t.f")),
            Expr::binary(BinaryOp::Lt, Expr::path("t.i"), Expr::path("t.f")),
            Expr::Unary {
                op: UnaryOp::IsNull,
                expr: Box::new(Expr::path("t.i")),
            },
            Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(Expr::binary(BinaryOp::Ge, Expr::path("t.i"), Expr::int(0))),
            },
            Expr::path("t.b").and(Expr::path("t.i").lt(Expr::int(10))),
            Expr::path("t.b").or(Expr::binary(
                BinaryOp::Eq,
                Expr::path("t.s"),
                Expr::string("fox"),
            )),
        ];
        for rows in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            for (p, predicate) in predicates.iter().enumerate() {
                let planned = plan_predicate(predicate, &layout, &typed)
                    .unwrap_or_else(|| panic!("predicate {p} must be kernel-eligible"));
                assert!(planned.residual.is_none(), "predicate {p} split a residual");
                let seed = 0x5eed ^ (rows as u64) << 8 ^ p as u64;
                let mut kernel_batch = random_batch(&mut StdRng::seed_from_u64(seed), rows);
                let mut closure_batch = random_batch(&mut StdRng::seed_from_u64(seed), rows);
                let mut scratch = Scratch::new();
                apply_filter(&planned.kernel, &mut kernel_batch, &mut scratch);
                let pred = compile_predicate(predicate, &layout).unwrap();
                closure_batch.retain(|row| pred(row));
                assert_eq!(
                    kernel_batch.sel(),
                    closure_batch.sel(),
                    "rows={rows} predicate {p}: bitmask filter diverges from closure"
                );
            }
        }
    }

    /// Compress-store parity: packing an arbitrary boolean verdict vector
    /// into mask words and compressing must keep exactly the rows a
    /// per-row `retain` keeps, both from the identity selection (the
    /// `trailing_zeros` fast path) and from an already-shrunk one (the
    /// bit-test path).
    #[test]
    fn compress_store_matches_boolean_reference() {
        for rows in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ (rows as u64) << 32);
                let verdicts: Vec<bool> = (0..rows).map(|_| rng.gen_range(0u32..3) > 0).collect();
                let mut bits = Vec::new();
                mask::pack_slice(&mut bits, &verdicts, |b| b);

                // Identity selection.
                let mut packed = BindingBatch::new();
                packed.reset(1, rows);
                let mut reference = BindingBatch::new();
                reference.reset(1, rows);
                packed.compress_sel(&bits);
                let mut i = 0;
                reference.retain(|_| {
                    let keep = verdicts[i];
                    i += 1;
                    keep
                });
                assert_eq!(packed.sel(), reference.sel(), "rows={rows} seed={seed}");

                // Pre-shrunk selection: keep every other row first.
                let mut even = Vec::new();
                mask::pack_rows(&mut even, rows, |i| i % 2 == 0);
                let mut packed = BindingBatch::new();
                packed.reset(1, rows);
                packed.compress_sel(&even);
                let expected: Vec<u32> = (0..rows as u32)
                    .filter(|&r| r % 2 == 0 && verdicts[r as usize])
                    .collect();
                packed.compress_sel(&bits);
                assert_eq!(
                    packed.sel(),
                    &expected[..],
                    "rows={rows} seed={seed} (pre-shrunk)"
                );
            }
        }
    }

    #[test]
    fn planner_rejects_untyped_and_nested_shapes() {
        let layout = layout();
        let typed = typed_map();
        // Nested path below a typed slot → not eligible.
        assert!(
            plan_predicate(&Expr::path("t.s.inner").eq(Expr::int(1)), &layout, &typed).is_none()
        );
        // Unknown slot → not eligible.
        assert!(plan_predicate(&Expr::path("ghost.x").lt(Expr::int(1)), &layout, &typed).is_none());
        // Division keeps its closure semantics.
        assert!(plan_predicate(
            &Expr::binary(BinaryOp::Div, Expr::path("t.i"), Expr::int(0)).lt(Expr::int(1)),
            &layout,
            &typed
        )
        .is_none());
        // Eligible + ineligible conjunction splits.
        let planned = plan_predicate(
            &Expr::path("t.i")
                .lt(Expr::int(5))
                .and(Expr::binary(BinaryOp::Div, Expr::path("t.i"), Expr::int(2)).lt(Expr::int(1))),
            &layout,
            &typed,
        )
        .unwrap();
        assert!(planned.residual.is_some());
        assert_eq!(planned.used_slots, vec![0]);
    }

    // -- aggregation-tier property tests ------------------------------------

    use crate::exec::expr::{compile_expr, CompiledExpr, CompiledPredicate};
    use crate::exec::radix::{hash_key_components, RadixGroupTable, JOIN_NULLS};

    /// Row `row`'s key components as `Value`s: the closure tier's view of
    /// the typed key.
    fn hydrated(keys: &TypedKeys<'_>, row: u32) -> Vec<Value> {
        keys.comps
            .iter()
            .map(|(col, _)| col.value_at(row as usize))
            .collect()
    }

    /// A kernel-eligible numeric aggregate input (fig05/fig11 shapes:
    /// plain columns, computed expressions, literals).
    fn random_num_input(rng: &mut StdRng) -> Expr {
        match rng.gen_range(0u32..6) {
            0 => Expr::path("t.i"),
            1 => Expr::path("t.f"),
            2 => Expr::int(rng.gen_range(-5i64..5)),
            3 => Expr::binary(
                BinaryOp::Mul,
                Expr::path("t.i"),
                Expr::int(rng.gen_range(1i64..4)),
            ),
            4 => Expr::binary(BinaryOp::Add, Expr::path("t.f"), Expr::path("t.i")),
            _ => Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::path("t.i")),
            },
        }
    }

    /// One kernel-eligible output spec.
    fn random_agg_spec(rng: &mut StdRng, alias: usize) -> ReduceSpec {
        let monoid = [
            Monoid::Sum,
            Monoid::Count,
            Monoid::Min,
            Monoid::Max,
            Monoid::Avg,
            Monoid::And,
            Monoid::Or,
        ][rng.gen_range(0usize..7)];
        let expr = match monoid {
            Monoid::And | Monoid::Or => random_conjunct(rng),
            _ => random_num_input(rng),
        };
        ReduceSpec::new(monoid, expr, format!("a{alias}"))
    }

    /// A spec the planner must leave on the closure path: division inputs,
    /// conditional bool inputs, collection monoids.
    fn fallback_agg_spec(rng: &mut StdRng, alias: usize) -> ReduceSpec {
        match rng.gen_range(0u32..3) {
            0 => ReduceSpec::new(
                [Monoid::Sum, Monoid::Min, Monoid::Max, Monoid::Avg][rng.gen_range(0usize..4)],
                Expr::binary(BinaryOp::Div, Expr::path("t.i"), Expr::int(2)),
                format!("a{alias}"),
            ),
            1 => ReduceSpec::new(
                [Monoid::And, Monoid::Or][rng.gen_range(0usize..2)],
                Expr::If {
                    cond: Box::new(Expr::path("t.b")),
                    then: Box::new(Expr::boolean(true)),
                    otherwise: Box::new(Expr::binary(
                        BinaryOp::Gt,
                        Expr::path("t.i"),
                        Expr::int(0),
                    )),
                },
                format!("a{alias}"),
            ),
            _ => ReduceSpec::new(
                [Monoid::Bag, Monoid::Set, Monoid::List][rng.gen_range(0usize..3)],
                Expr::path("t.i"),
                format!("a{alias}"),
            ),
        }
    }

    /// Emulates the pipeline's masked-selection build: current selection ∧
    /// kernel predicate mask ∧ closure residual.
    fn masked_rows(
        planned: &PlannedSink,
        residual: Option<&CompiledPredicate>,
        batch: &BindingBatch,
        scratch: &mut Scratch,
    ) -> Vec<u32> {
        let mut masked: Vec<u32> = match &planned.kernel.predicate {
            Some(pred) => {
                let mut bits = scratch.take_mask();
                eval_pred(pred, batch, batch.rows(), &mut bits, scratch);
                let rows = batch
                    .sel()
                    .iter()
                    .copied()
                    .filter(|&r| mask::get(&bits, r as usize))
                    .collect();
                scratch.put_mask(bits);
                rows
            }
            None => batch.sel().to_vec(),
        };
        if let Some(pred) = residual {
            masked.retain(|&r| pred(batch.row(r)));
        }
        masked
    }

    /// Kernel-path vs closure-path aggregation over one random batch:
    /// matching accumulators for the keyless fold (a reduce), matching
    /// finished groups for nest.
    fn aggregates_match(seed: u64, with_fallback: bool, empty_selection: bool, grouped: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = layout();
        let typed = typed_map();
        let rows = rng.gen_range(1usize..200);
        let mut outputs: Vec<ReduceSpec> = (0..rng.gen_range(1usize..4))
            .map(|i| random_agg_spec(&mut rng, i))
            .collect();
        if with_fallback {
            let alias = outputs.len();
            outputs.push(fallback_agg_spec(&mut rng, alias));
        }
        let group_by: Vec<Expr> = if grouped {
            let names = ["t.i", "t.f", "t.b", "t.s"];
            (0..rng.gen_range(1usize..4))
                .map(|_| Expr::path(names[rng.gen_range(0usize..names.len())]))
                .collect()
        } else {
            Vec::new()
        };
        let predicate = match rng.gen_range(0u32..3) {
            0 => None,
            1 => Some(random_conjunct(&mut rng)),
            _ => Some(random_conjunct(&mut rng).and(fallback_conjunct(&mut rng))),
        };

        let planned = plan_sink(&outputs, &group_by, predicate.as_ref(), &layout, &typed)
            .expect("sink with kernel-eligible parts must classify");
        if with_fallback {
            assert!(
                planned.kernel.aggs.last().unwrap().is_none()
                    // Count is eligible regardless of its input expression.
                    || outputs.last().unwrap().monoid == Monoid::Count,
                "seed {seed}: fallback spec classified as kernel"
            );
        }

        let exprs: Vec<CompiledExpr> = outputs
            .iter()
            .map(|o| compile_expr(&o.expr, &layout).unwrap())
            .collect();
        let monoids: Vec<Monoid> = outputs.iter().map(|o| o.monoid).collect();
        let full_pred = predicate
            .as_ref()
            .map(|p| compile_predicate(p, &layout).unwrap());
        let residual = planned
            .pred_residual
            .as_ref()
            .map(|p| compile_predicate(p, &layout).unwrap());
        let mut scratch = Scratch::new();

        if grouped {
            // Reference: the closure ingest (hydrated keys and values).
            // Kernel: the typed ingest — batch-hash, resolve group ids, fold
            // columnwise. Three morsels feed the same pair of tables, so
            // later batches meet groups an earlier one created (whose
            // strings a different pool interned).
            let key_exprs: Vec<CompiledExpr> = group_by
                .iter()
                .map(|g| compile_expr(g, &layout).unwrap())
                .collect();
            let lanes = planned.kernel.lane_kinds(&monoids);
            let mut expected = RadixGroupTable::new(group_by.len(), monoids.clone());
            let key_kinds: Vec<Option<TypedKind>> = planned
                .kernel
                .key_slots
                .iter()
                .map(|slot| typed.get(slot).copied())
                .collect();
            let mut got = RadixGroupTable::hashed(&key_kinds, monoids.clone(), &lanes);
            for morsel in 0..3u64 {
                let rows = rng.gen_range(1usize..200);
                let mut batch = random_batch(&mut rng, rows);
                if empty_selection {
                    batch.compress_sel(&vec![0u64; mask::words_for(rows)]);
                }
                batch.for_each_selected(|row| {
                    if let Some(pred) = &full_pred {
                        if !pred(row) {
                            return;
                        }
                    }
                    let key: Vec<Value> = key_exprs.iter().map(|k| k(row)).collect();
                    let values: Vec<Value> = exprs.iter().map(|e| e(row)).collect();
                    expected.merge(key, values);
                });

                let masked = masked_rows(&planned, residual.as_ref(), &batch, &mut scratch);
                let typed_keys = TypedKeys::bind(&planned.kernel.key_slots, &batch);
                let mut hashes = Vec::new();
                typed_keys.hash_rows(&masked, &mut hashes);
                for (&r, &hash) in masked.iter().zip(&hashes) {
                    assert_eq!(
                        hash,
                        hash_key_components(&hydrated(&typed_keys, r)),
                        "seed {seed}: typed key hash diverges from component hash"
                    );
                }
                let mut gids = Vec::new();
                typed_keys.resolve_groups(&mut got, &masked, &hashes, &mut gids);
                let rendered = planned.kernel.render(&batch, rows, &mut scratch);
                for spec in 0..monoids.len() {
                    if let Some(lane) = got.lane_mut(spec) {
                        rendered.fold_groups(spec, lane, Some(&gids), &masked);
                    }
                }
                for (&gid, &r) in gids.iter().zip(&masked) {
                    got.fold_group(gid, morsel, |accumulators, acc_monoids| {
                        let fallback = (0..monoids.len()).filter(|&s| !rendered.is_kernel(s));
                        for ((acc, monoid), spec) in
                            accumulators.iter_mut().zip(acc_monoids).zip(fallback)
                        {
                            let _ = acc.merge(*monoid, exprs[spec](batch.row(r)));
                        }
                    });
                }
                rendered.release(&mut scratch);
            }
            let rows_of = |table: RadixGroupTable| {
                table.into_rows(|key, outputs| (key.to_vec(), outputs.to_vec()))
            };
            // Bit-exact, including float sums and the emission order.
            assert_eq!(
                rows_of(got),
                rows_of(expected),
                "seed {seed}: typed group ingest diverges from closure ingest"
            );
        } else {
            // Reference: `Accumulator::merge` row by row over the closure
            // batch. Kernel: a keyless table — kernel specs fold into group
            // 0 with no ids, fallback specs into its accumulators.
            let batch_seed = rng.gen_range(0u64..u64::MAX / 2);
            let mut kernel_batch = random_batch(&mut StdRng::seed_from_u64(batch_seed), rows);
            let mut closure_batch = random_batch(&mut StdRng::seed_from_u64(batch_seed), rows);
            if empty_selection {
                let none = vec![0u64; mask::words_for(rows)];
                kernel_batch.compress_sel(&none);
                closure_batch.compress_sel(&none);
            }
            let masked = masked_rows(&planned, residual.as_ref(), &kernel_batch, &mut scratch);
            let rendered = planned.kernel.render(&kernel_batch, rows, &mut scratch);
            let mut expected: Vec<Accumulator> =
                monoids.iter().map(|m| Accumulator::zero(*m)).collect();
            closure_batch.for_each_selected(|row| {
                if let Some(pred) = &full_pred {
                    if !pred(row) {
                        return;
                    }
                }
                for ((monoid, expr), acc) in monoids.iter().zip(&exprs).zip(expected.iter_mut()) {
                    let _ = acc.merge(*monoid, expr(row));
                }
            });
            let lanes = planned.kernel.lane_kinds(&monoids);
            let mut got = RadixGroupTable::dense(Vec::new(), monoids.clone(), &lanes);
            got.allocate();
            for (spec, expected) in expected.iter().enumerate() {
                if let Some(lane) = got.lane_mut(spec) {
                    rendered.fold_groups(spec, lane, None, &masked);
                    // Bit-exact, including float sums: the kernels fold in
                    // the same row order into the same running state.
                    assert_eq!(
                        format!("{:?}", group_zero(lane)),
                        format!("{expected:?}"),
                        "seed {seed}: spec {spec}: keyless fold diverges from closure merge"
                    );
                }
            }
            got.fold_group(0, 0, |accumulators, acc_monoids| {
                let fallback = (0..monoids.len()).filter(|&s| !rendered.is_kernel(s));
                for ((acc, monoid), spec) in accumulators.iter_mut().zip(acc_monoids).zip(fallback)
                {
                    for &r in &masked {
                        let _ = acc.merge(*monoid, exprs[spec](kernel_batch.row(r)));
                    }
                }
            });
            rendered.release(&mut scratch);
            let finished: Vec<Value> = monoids
                .iter()
                .zip(expected)
                .map(|(m, acc)| acc.finish(*m))
                .collect();
            let rows = got.into_rows(|key, outputs| (key.to_vec(), outputs.to_vec()));
            assert_eq!(
                format!("{rows:?}"),
                format!("{:?}", [(Vec::<Value>::new(), finished)]),
                "seed {seed}: keyless table finishes apart from closure merge"
            );
        }
    }

    /// Group 0 of a lane as the accumulator state it mirrors.
    fn group_zero(lane: &AggLane) -> Accumulator {
        match lane {
            AggLane::Count(counts) => Accumulator::Int(counts[0]),
            AggLane::Sum(sums) => Accumulator::Float(sums[0]),
            AggLane::Avg { sums, counts } => Accumulator::AvgState {
                sum: sums[0],
                count: counts[0],
            },
            AggLane::Extreme {
                int,
                values,
                present,
                ..
            } => Accumulator::Extreme(present[0].then(|| {
                if *int {
                    Value::Int(values[0] as i64)
                } else {
                    Value::Float(f64::from_bits(values[0]))
                }
            })),
            AggLane::Bool { bits, .. } => Accumulator::Bool(bits[0]),
        }
    }

    #[test]
    fn aggregate_kernels_equal_closure_merge() {
        for seed in 0..CASES {
            aggregates_match(seed, false, false, false);
        }
    }

    #[test]
    fn aggregate_kernels_with_fallback_specs() {
        for seed in 0..CASES {
            aggregates_match(seed, true, false, false);
        }
    }

    #[test]
    fn aggregate_kernels_handle_empty_selections() {
        for seed in 0..CASES / 4 {
            aggregates_match(seed, false, true, false);
        }
    }

    #[test]
    fn typed_group_ingest_equals_closure_ingest() {
        for seed in 0..CASES {
            aggregates_match(seed, false, false, true);
        }
    }

    #[test]
    fn typed_group_ingest_with_fallback_specs() {
        for seed in 0..CASES {
            aggregates_match(seed, true, false, true);
        }
    }

    #[test]
    fn dense_keys_need_integer_bounds_within_the_slot_and_row_caps() {
        let stats = |min: Value, max: Value, nulls: u64| ColumnStats {
            min,
            max,
            distinct: 0,
            nulls,
        };
        let int = |min: i64, max: i64| stats(Value::Int(min), Value::Int(max), 0);
        let plan = |keys: &[ColumnStats], rows: u64| {
            plan_dense_keys(&keys.iter().collect::<Vec<_>>(), rows)
        };
        let rows = 1 << 20;
        // 1 000 × 16 slots; a null adds one slot to its key's span.
        let keys = plan(&[int(0, 999), int(0, 15)], rows).unwrap();
        assert_eq!(keys.iter().map(DenseKey::span).product::<usize>(), 16_000);
        let nullable = plan(&[stats(Value::Int(-3), Value::Int(3), 1)], rows).unwrap();
        assert_eq!(nullable[0].span(), 8);
        // Exactly 65 536 slots fit, 65 537 do not — with or without a null.
        assert!(plan(&[int(0, 65_535)], rows).is_some());
        assert!(plan(&[int(-1, 65_535)], rows).is_none());
        assert!(plan(&[stats(Value::Int(0), Value::Int(65_535), 2)], rows).is_none());
        assert!(plan(&[int(0, 255), int(0, 255)], rows).is_some());
        assert!(plan(&[int(0, 255), int(0, 256)], rows).is_none());
        // No more slots than the scan has rows.
        assert!(plan(&[int(0, 99)], 100).is_some());
        assert!(plan(&[int(0, 99)], 99).is_none());
        // Bounds within ±2⁵³ only, and integer ones.
        let two_53 = 1i64 << 53;
        assert!(plan(&[int(two_53 - 10, two_53)], rows).is_some());
        assert!(plan(&[int(two_53 - 10, two_53 + 1)], rows).is_none());
        assert!(plan(&[int(-two_53 - 1, -two_53 + 10)], rows).is_none());
        assert!(plan(&[stats(Value::Float(0.0), Value::Float(9.0), 0)], rows).is_none());
        assert!(plan(&[stats(Value::Null, Value::Null, 5)], rows).is_none());
        assert!(plan(&[], rows).is_none());
    }

    #[test]
    fn dense_ids_are_offsets_and_refuse_lanes_outside_their_bounds() {
        let rows = 300;
        let batch = random_batch(&mut StdRng::seed_from_u64(31), rows);
        let col = typed(&batch, 0);
        let lanes: Vec<i64> = (0..rows)
            .filter(|&r| !col.is_null(r))
            .map(|r| col.i64_values()[r])
            .collect();
        let (min, max) = (*lanes.iter().min().unwrap(), *lanes.iter().max().unwrap());
        assert!(lanes.len() < rows, "the fixture has null keys");
        let bound = |min, max, nullable| [DenseKey { min, max, nullable }];
        let sel: Vec<u32> = (0..rows as u32).collect();
        let keys = TypedKeys::bind(&[0], &batch);
        let mut gids = Vec::new();
        // Exact bounds: a lane's id is its offset from `min`, a null takes
        // the slot after `max`.
        keys.dense_ids(&bound(min, max, true), &sel, &mut gids)
            .unwrap();
        for (r, &gid) in gids.iter().enumerate() {
            let expected = match col.is_null(r) {
                true => max - min + 1,
                false => col.i64_values()[r] - min,
            };
            assert_eq!(gid as i64, expected, "row {r}");
        }
        // A bound one short on either side, or a null without its slot,
        // must fail rather than fold a row into a neighbour's group.
        for wrong in [
            bound(min + 1, max, true),
            bound(min, max - 1, true),
            bound(min, max, false),
        ] {
            assert!(
                keys.dense_ids(&wrong, &sel, &mut gids).is_err(),
                "{wrong:?}"
            );
        }
        // Only `i64` lanes have dense ids.
        let floats = TypedKeys::bind(&[1], &batch);
        assert!(floats
            .dense_ids(&bound(min, max, true), &sel, &mut gids)
            .is_err());
    }

    // -- join-tier property tests --------------------------------------------

    use crate::exec::radix::{BuildStore, RadixHashTable};

    /// One random build-side key: drawn from the probe batch's own rows
    /// (so matches occur, with ints often re-rendered as floats to exercise
    /// the numeric `value_eq` collapse) or fully random (misses, nulls,
    /// cross-kind keys that must never match).
    fn random_build_key(
        rng: &mut StdRng,
        typed_keys: &TypedKeys<'_>,
        rows: usize,
        arity: usize,
    ) -> Vec<Value> {
        if rng.gen_range(0u32..4) == 0 {
            let words = ["", "fox", "quick fox", "lazy", "zebra", "ant"];
            (0..arity)
                .map(|_| match rng.gen_range(0u32..5) {
                    0 => Value::Null,
                    1 => Value::Int(rng.gen_range(-50i64..50)),
                    2 => Value::Float((rng.gen_range(-40.0f64..40.0) * 4.0).round() / 4.0),
                    3 => Value::Bool(rng.gen_range(0u32..2) == 1),
                    _ => Value::str(words[rng.gen_range(0usize..words.len())]),
                })
                .collect()
        } else {
            let mut key = hydrated(typed_keys, rng.gen_range(0u32..rows as u32));
            for v in key.iter_mut() {
                if rng.gen_range(0u32..3) == 0 {
                    if let Value::Int(i) = v {
                        // Int keys stored as their float view must still
                        // match (hash and eq parity across numeric kinds).
                        *v = Value::Float(*i as f64);
                    }
                }
            }
            key
        }
    }

    /// Kernel probe (columnwise hashing + lane-vs-stored compares) vs the
    /// closure probe (hydrated components, `hash_key_components` +
    /// componentwise `value_eq`) over one random batch and build store:
    /// identical match lists, in identical order.
    fn join_probes_match(seed: u64, empty_selection: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(1usize..200);
        let mut batch = random_batch(&mut rng, rows);
        if empty_selection {
            batch.compress_sel(&vec![0u64; mask::words_for(rows)]);
        }
        let arity = rng.gen_range(1usize..3);
        // Key slots may repeat (t.i = both key components) — the planner
        // never produces that shape, but the probe must not care.
        let slots: Vec<usize> = (0..arity).map(|_| rng.gen_range(0usize..4)).collect();
        let typed_keys = TypedKeys::bind(&slots, &batch);

        let mut store = BuildStore::new(arity, vec![0]);
        for i in 0..rng.gen_range(0usize..120) {
            let key = random_build_key(&mut rng, &typed_keys, rows, arity);
            store.push_entry(&key, &[Value::Int(i as i64)]);
        }
        let table = RadixHashTable::build(store);

        let mut hashes = Vec::new();
        typed_keys.hash_rows(batch.sel(), &mut hashes);
        let mut kernel_matches: Vec<(u32, u32)> = Vec::new();
        for (&r, &hash) in batch.sel().iter().zip(&hashes) {
            assert_eq!(
                hash,
                hash_key_components(&hydrated(&typed_keys, r)),
                "seed {seed}: probe hash diverges from component hash"
            );
            table.probe_hashed(
                hash,
                |entry| typed_keys.eq_store(r as usize, table.store(), entry, JOIN_NULLS),
                |entry| kernel_matches.push((r, entry)),
            );
        }
        let mut closure_matches: Vec<(u32, u32)> = Vec::new();
        for &r in batch.sel() {
            let key = hydrated(&typed_keys, r);
            table.probe_components(&key, |entry| closure_matches.push((r, entry)));
        }
        assert_eq!(
            kernel_matches, closure_matches,
            "seed {seed}: kernel probe diverges from closure probe"
        );
        // The single-numeric-key fast loop (when eligible) must reproduce
        // the generic compares match for match, in order.
        let mut fast_matches: Vec<(u32, u32)> = Vec::new();
        if typed_keys.probe_rows_numeric(&table, batch.sel(), &hashes, |entry, r| {
            fast_matches.push((r, entry))
        }) {
            assert_eq!(
                fast_matches, kernel_matches,
                "seed {seed}: numeric fast probe diverges from generic probe"
            );
        }
    }

    #[test]
    fn join_kernel_probe_equals_closure_probe() {
        for seed in 0..CASES {
            join_probes_match(seed, false);
        }
    }

    #[test]
    fn join_kernels_handle_empty_selections() {
        for seed in 0..CASES / 4 {
            join_probes_match(seed, true);
        }
    }

    #[test]
    fn join_key_planner_rules() {
        let layout = layout();
        let typed = typed_map();
        // Every key must resolve to an exact typed slot.
        assert_eq!(
            plan_key_slots(&[Expr::path("t.i"), Expr::path("t.s")], &layout, &typed),
            Some(vec![0, 3])
        );
        // Computed keys stay closures (all-or-nothing).
        assert!(plan_key_slots(
            &[
                Expr::path("t.i"),
                Expr::binary(BinaryOp::Add, Expr::path("t.i"), Expr::int(1)),
            ],
            &layout,
            &typed
        )
        .is_none());
        // Nested paths below a typed slot stay closures.
        assert!(plan_key_slots(&[Expr::path("t.s.inner")], &layout, &typed).is_none());
        // Unknown slots stay closures.
        assert!(plan_key_slots(&[Expr::path("ghost.x")], &layout, &typed).is_none());
    }

    #[test]
    fn sink_planner_classification_rules() {
        let layout = layout();
        let typed = typed_map();
        // Count is eligible no matter the input shape, and reads no slots.
        let planned = plan_sink(
            &[ReduceSpec::new(
                Monoid::Count,
                Expr::binary(BinaryOp::Div, Expr::path("t.i"), Expr::int(0)),
                "c",
            )],
            &[],
            None,
            &layout,
            &typed,
        )
        .unwrap();
        assert!(matches!(planned.kernel.aggs[0], Some(AggKernel::Count)));
        assert!(planned.used_slots.is_empty());
        // Division keeps its closure semantics; a sum over it cannot engage.
        assert!(plan_sink(
            &[ReduceSpec::new(
                Monoid::Sum,
                Expr::binary(BinaryOp::Div, Expr::path("t.i"), Expr::int(2)),
                "s",
            )],
            &[],
            None,
            &layout,
            &typed,
        )
        .is_none());
        // Group-by keys are all-or-nothing: one untyped key kills the plan.
        assert!(plan_sink(
            &[ReduceSpec::new(Monoid::Count, Expr::int(1), "c")],
            &[Expr::path("t.i"), Expr::path("ghost.x")],
            None,
            &layout,
            &typed,
        )
        .is_none());
        // Collection monoids stay on the closure path, spec by spec.
        let planned = plan_sink(
            &[
                ReduceSpec::new(Monoid::List, Expr::path("t.i"), "l"),
                ReduceSpec::new(Monoid::Sum, Expr::path("t.f"), "s"),
            ],
            &[],
            None,
            &layout,
            &typed,
        )
        .unwrap();
        assert!(planned.kernel.aggs[0].is_none());
        assert!(planned.kernel.aggs[1].is_some());
        assert_eq!(planned.used_slots, vec![1]);
        // A kernel-eligible reduce predicate engages even without aggs.
        let planned = plan_sink(
            &[ReduceSpec::new(Monoid::Bag, Expr::path("t.s"), "b")],
            &[],
            Some(&Expr::path("t.i").lt(Expr::int(3))),
            &layout,
            &typed,
        )
        .unwrap();
        assert!(planned.kernel.predicate.is_some());
        assert!(planned.pred_residual.is_none());
    }

    #[test]
    fn interned_string_kernels_compare_pooled_uniques() {
        let mut batch = BindingBatch::new();
        batch.reset(4, 6);
        for (slot, kind) in [
            (0, TypedKind::I64),
            (1, TypedKind::F64),
            (2, TypedKind::Bool),
        ] {
            let col = batch.typed_col_mut(slot);
            col.begin(kind, 6);
            for _ in 0..6 {
                col.push_null();
            }
        }
        let col = batch.typed_col_mut(3);
        col.begin(TypedKind::Str, 6);
        for s in ["a", "b", "a", "c", "b", "a"] {
            col.push_str(s);
        }
        let (ids, pool) = batch.typed_col(3).unwrap().str_parts();
        assert_eq!(pool.len(), 3, "pool holds unique strings only");
        assert_eq!(ids, &[0, 1, 0, 2, 1, 0]);

        let mut scratch = Scratch::new();
        let pred = KernelPred::CmpStr {
            op: CmpOp::Eq,
            slot: 3,
            lit: "a".into(),
        };
        apply_filter(&pred, &mut batch, &mut scratch);
        assert_eq!(batch.sel(), &[0, 2, 5]);
    }

    #[test]
    fn stats_ordered_planner_puts_selective_conjunct_first() {
        use proteus_plugins::ColumnStats;
        let layout = layout();
        let typed = typed_map();
        // t.i < 90 passes ~90% of [0, 100); t.f < 10.0 passes ~10%.
        let pred = Expr::path("t.i")
            .lt(Expr::int(90))
            .and(Expr::path("t.f").lt(Expr::float(10.0)));
        let stats = vec![
            (
                0usize,
                ColumnStats {
                    min: Value::Int(0),
                    max: Value::Int(100),
                    distinct: 100,
                    nulls: 0,
                },
            ),
            (
                1usize,
                ColumnStats {
                    min: Value::Float(0.0),
                    max: Value::Float(100.0),
                    distinct: 100,
                    nulls: 0,
                },
            ),
        ];
        let planned = plan_predicate_with_stats(&pred, &layout, &typed, &stats).unwrap();
        let KernelPred::And(parts) = &planned.kernel else {
            panic!("expected a conjunction");
        };
        // The float conjunct (10% estimated) must render before the int one.
        assert!(matches!(
            &parts[0],
            KernelPred::CmpNum {
                lhs: NumExpr::SlotF64(1),
                ..
            }
        ));
        // Without stats the source order is preserved.
        let planned = plan_predicate_with_stats(&pred, &layout, &typed, &[]).unwrap();
        let KernelPred::And(parts) = &planned.kernel else {
            panic!("expected a conjunction");
        };
        assert!(matches!(
            &parts[0],
            KernelPred::CmpNum {
                lhs: NumExpr::SlotI64(0),
                ..
            }
        ));
    }

    fn zone_fixture() -> Vec<(usize, Arc<ZoneMap>)> {
        use proteus_storage::ColumnData;
        // Slot 0: zone 0 holds 0..1024, zone 1 holds 1024..2048.
        let zm = ZoneMap::from_column(&ColumnData::Int((0..2048).collect()));
        vec![(0usize, Arc::new(zm))]
    }

    fn cmp(op: CmpOp, lit: i64) -> KernelPred {
        KernelPred::CmpNum {
            op,
            lhs: NumExpr::SlotI64(0),
            rhs: NumExpr::ConstI64(lit),
        }
    }

    #[test]
    fn zone_classification_skips_and_short_circuits() {
        use ZoneVerdict::*;
        let zones = zone_fixture();
        // Zone 0 = [0, 1023], zone 1 = [1024, 2047].
        assert_eq!(classify_morsel(&cmp(CmpOp::Lt, 1024), &zones, 0), AllPass);
        assert_eq!(classify_morsel(&cmp(CmpOp::Lt, 1024), &zones, 1), NonePass);
        assert_eq!(classify_morsel(&cmp(CmpOp::Lt, 500), &zones, 0), Ambiguous);
        assert_eq!(classify_morsel(&cmp(CmpOp::Ge, 1024), &zones, 1), AllPass);
        assert_eq!(classify_morsel(&cmp(CmpOp::Le, 1023), &zones, 0), AllPass);
        assert_eq!(classify_morsel(&cmp(CmpOp::Gt, 2047), &zones, 1), NonePass);
        assert_eq!(classify_morsel(&cmp(CmpOp::Eq, 5000), &zones, 0), NonePass);
        assert_eq!(classify_morsel(&cmp(CmpOp::Eq, 5), &zones, 0), Ambiguous);
        assert_eq!(classify_morsel(&cmp(CmpOp::Neq, 5000), &zones, 1), AllPass);
        // Literal-first comparisons flip: `2000 < slot` over zone 0 is empty.
        let flipped = KernelPred::CmpNum {
            op: CmpOp::Lt,
            lhs: NumExpr::ConstI64(2000),
            rhs: NumExpr::SlotI64(0),
        };
        assert_eq!(classify_morsel(&flipped, &zones, 0), NonePass);
        assert_eq!(classify_morsel(&flipped, &zones, 1), Ambiguous);
        // Connectives fold verdicts.
        let and = KernelPred::And(vec![cmp(CmpOp::Lt, 1024), cmp(CmpOp::Ge, 0)]);
        assert_eq!(classify_morsel(&and, &zones, 0), AllPass);
        assert_eq!(classify_morsel(&and, &zones, 1), NonePass);
        let or = KernelPred::Or(vec![cmp(CmpOp::Lt, 500), cmp(CmpOp::Ge, 0)]);
        assert_eq!(classify_morsel(&or, &zones, 0), AllPass);
        assert_eq!(
            classify_morsel(&KernelPred::Not(Box::new(cmp(CmpOp::Lt, 1024))), &zones, 0),
            NonePass
        );
        // No zone map / no entry for the morsel → run the kernels.
        assert_eq!(classify_morsel(&cmp(CmpOp::Lt, 1024), &zones, 9), Ambiguous);
        let unmapped = KernelPred::CmpNum {
            op: CmpOp::Lt,
            lhs: NumExpr::SlotI64(7),
            rhs: NumExpr::ConstI64(3),
        };
        assert_eq!(classify_morsel(&unmapped, &zones, 0), Ambiguous);
        // IsNull over a null-free zone is statically empty.
        assert_eq!(classify_morsel(&KernelPred::IsNull(0), &zones, 0), NonePass);
    }

    #[test]
    fn zone_classification_handles_nulls() {
        use proteus_plugins::{TypedColumn, TypedFill, TypedKind};
        use ZoneVerdict::*;
        // Zone 0: values 0..1024 with every third row null; zone 1 all null.
        let fill: TypedFill = Arc::new(|start, count, sel: &[u32], out: &mut TypedColumn| {
            out.fill_selected(TypedKind::I64, count, sel, |out, row| {
                let oid = start + u64::from(row);
                if oid >= 1024 || oid % 3 == 0 {
                    out.push_null();
                } else {
                    out.push_i64(oid as i64);
                }
            });
        });
        let zm = Arc::new(ZoneMap::from_typed_fill(2048, TypedKind::I64, &fill));
        let zones = vec![(0usize, zm)];
        // All non-null rows pass, but nulls fail: cannot short-circuit.
        assert_eq!(classify_morsel(&cmp(CmpOp::Lt, 5000), &zones, 0), Ambiguous);
        // No row can pass regardless of nulls: still skippable.
        assert_eq!(classify_morsel(&cmp(CmpOp::Gt, 5000), &zones, 0), NonePass);
        // Nulls pass `Neq`, so an out-of-range literal short-circuits.
        assert_eq!(classify_morsel(&cmp(CmpOp::Neq, 5000), &zones, 0), AllPass);
        // The all-null zone: comparisons fail, `Neq` and `IsNull` pass.
        assert_eq!(classify_morsel(&cmp(CmpOp::Lt, 5000), &zones, 1), NonePass);
        assert_eq!(classify_morsel(&cmp(CmpOp::Neq, 0), &zones, 1), AllPass);
        assert_eq!(classify_morsel(&KernelPred::IsNull(0), &zones, 1), AllPass);
        assert_eq!(
            classify_morsel(&KernelPred::IsNull(0), &zones, 0),
            Ambiguous
        );
    }
}
