//! The input plug-in API (Table 2 of the paper).
//!
//! Plug-ins serve two kinds of consumers:
//!
//! 1. The *generated query pipelines* of `proteus-core`. When a scan operator
//!    "triggers" a plug-in, the plug-in inspects the query's field-of-interest
//!    list and the dataset instance and returns [`ScanAccessors`]: one
//!    [`FieldFill`] per requested field (the reproduction of the paper's
//!    generated data-access code) — a raw column, a typed filler, or a
//!    `Value` filler for fields with no typed form. The scan calls it once
//!    per (field, morsel), with no per-tuple dispatch; both execution tiers'
//!    inputs are derived from that one fill.
//!    Nested collections go the same way: [`InputPlugin::generate_expand`]
//!    returns a morsel expander ([`TypedExpand`]) that renders the element
//!    leaves a query reads as typed lanes plus a parent-row index — the
//!    paper's `unnestInit/HasNext/GetNext`, generated and typed.
//! 2. The *interpreted baseline engines* and the expression generators, which
//!    use the generic `read_value`/`read_path` entry points.
//!
//! Every data object a plug-in exposes is identified by an [`Oid`] — a row
//! counter for flat data, an object index for JSON — which later calls use to
//! re-access values lazily.

use std::sync::Arc;

use proteus_algebra::{Schema, Value};
use proteus_storage::SourceFormat;

use crate::error::Result;
use crate::stats::{CostProfile, DatasetStats};

/// Identifier of one data object ("tuple") within a dataset.
pub type Oid = u64;

/// How the textual plug-ins (CSV/JSON) treat rows that fail to parse —
/// garbled lines, truncated objects, text that is not valid for the
/// field's declared type.
///
/// The policy is applied at registration time, when the plug-ins build
/// their structural indexes (so query hot paths never re-validate):
/// `Fail` rejects the dataset with a row-numbered error, `Skip` removes
/// the offending rows from the scan, `Null` keeps them with every typed
/// field read as `Value::Null`. Skipped/nulled rows are counted and
/// surface as `ExecutionMetrics::bad_rows` on queries over the dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BadRowPolicy {
    /// Reject the dataset at registration with a row-numbered error.
    #[default]
    Fail,
    /// Drop bad rows from the scan entirely.
    Skip,
    /// Keep bad rows; their typed fields read as null.
    Null,
}

/// A morsel filler for one field: writes the values of objects
/// `start..start + count` into a row-major batch buffer, value `i` landing at
/// `out[base + i * stride]`. [`FieldFill::values`] derives it for every
/// field.
pub type BatchFill = Arc<dyn Fn(Oid, usize, &mut [Value], usize, usize) + Send + Sync>;

/// Builds the columnar fast-path filler: a direct strided copy out of a
/// shared raw column, one virtual call per (field, morsel): the row-major
/// form of [`FieldFill::Column`].
fn column_batch_fill(column: Arc<proteus_storage::ColumnData>) -> BatchFill {
    Arc::new(move |start, count, out: &mut [Value], base, stride| {
        column.fill_values(start as usize, count, out, base, stride)
    })
}

// ---------------------------------------------------------------------------
// Typed morsel columns: the vectorized scan path.
// ---------------------------------------------------------------------------

/// Element type of a [`TypedColumn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypedKind {
    /// 64-bit integers (also carries date fields, which the scan fills
    /// render as plain integers).
    I64,
    /// 64-bit floats.
    F64,
    /// Booleans.
    Bool,
    /// Interned UTF-8 strings.
    Str,
}

/// Typed backing storage of one morsel column.
#[derive(Debug, Clone)]
enum TypedData {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    /// Interned strings: `ids[i]` indexes into the per-morsel `pool` of
    /// unique strings, so predicates compare each distinct string once per
    /// morsel instead of once per row.
    Str {
        ids: Vec<u32>,
        pool: Vec<Arc<str>>,
    },
}

/// A typed, reusable column of one morsel's values for a single batch slot,
/// with a null bitmap. Plug-ins fill these directly from their raw data —
/// binary/cached columnar data never round-trips through [`Value`] — and the
/// vectorized predicate kernels evaluate over them column-at-a-time.
///
/// Values at null positions hold an arbitrary placeholder (0 / 0.0 / false /
/// pool id 0); consumers must consult [`TypedColumn::is_null`].
#[derive(Debug, Clone)]
pub struct TypedColumn {
    data: TypedData,
    /// Null bitmap, one bit per row (bit set = null). Empty when the morsel
    /// has no nulls.
    nulls: Vec<u64>,
    len: usize,
    /// Interning map recycled across morsels (only used for `Str` columns).
    intern: std::collections::HashMap<Arc<str>, u32>,
}

impl TypedColumn {
    /// Creates an empty column of the given kind.
    pub fn new(kind: TypedKind) -> TypedColumn {
        TypedColumn {
            data: match kind {
                TypedKind::I64 => TypedData::I64(Vec::new()),
                TypedKind::F64 => TypedData::F64(Vec::new()),
                TypedKind::Bool => TypedData::Bool(Vec::new()),
                TypedKind::Str => TypedData::Str {
                    ids: Vec::new(),
                    pool: Vec::new(),
                },
            },
            nulls: Vec::new(),
            len: 0,
            intern: std::collections::HashMap::new(),
        }
    }

    /// Resets the column for a new morsel of (up to) `rows` values, recycling
    /// the existing buffers when the kind is unchanged.
    pub fn begin(&mut self, kind: TypedKind, rows: usize) {
        if self.kind() != kind {
            *self = TypedColumn::new(kind);
        }
        match &mut self.data {
            TypedData::I64(v) => {
                v.clear();
                v.reserve(rows);
            }
            TypedData::F64(v) => {
                v.clear();
                v.reserve(rows);
            }
            TypedData::Bool(v) => {
                v.clear();
                v.reserve(rows);
            }
            TypedData::Str { ids, pool } => {
                ids.clear();
                ids.reserve(rows);
                pool.clear();
                self.intern.clear();
            }
        }
        self.nulls.clear();
        self.len = 0;
    }

    /// The column's element kind.
    pub fn kind(&self) -> TypedKind {
        match &self.data {
            TypedData::I64(_) => TypedKind::I64,
            TypedData::F64(_) => TypedKind::F64,
            TypedData::Bool(_) => TypedKind::Bool,
            TypedData::Str { .. } => TypedKind::Str,
        }
    }

    /// Number of values appended since [`TypedColumn::begin`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values were appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when any null was appended.
    pub fn has_nulls(&self) -> bool {
        !self.nulls.is_empty()
    }

    /// True when row `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls
            .get(i >> 6)
            .is_some_and(|word| word >> (i & 63) & 1 == 1)
    }

    /// The packed null-bitmap words: bit `i & 63` of word `i >> 6` is set
    /// when row `i` is null. The vector may be *shorter* than
    /// `len().div_ceil(64)` — it only grows up to the word of the last null
    /// pushed, and missing words mean "no nulls there". This is the same
    /// word layout as the kernel selection masks in `proteus-core`
    /// (`exec::mask`), so null propagation into a predicate mask is a
    /// word-wise `OR` / `AND NOT` of this slice — no per-row [`TypedColumn::is_null`]
    /// calls on the kernel path.
    #[inline]
    pub fn null_words(&self) -> &[u64] {
        &self.nulls
    }

    fn set_null_bit(&mut self, i: usize) {
        let word = i >> 6;
        if self.nulls.len() <= word {
            self.nulls.resize(word + 1, 0);
        }
        self.nulls[word] |= 1 << (i & 63);
    }

    /// Appends an integer.
    #[inline]
    pub fn push_i64(&mut self, v: i64) {
        match &mut self.data {
            TypedData::I64(vec) => vec.push(v),
            _ => unreachable!("push_i64 on a non-I64 typed column"),
        }
        self.len += 1;
    }

    /// Appends a float.
    #[inline]
    pub fn push_f64(&mut self, v: f64) {
        match &mut self.data {
            TypedData::F64(vec) => vec.push(v),
            _ => unreachable!("push_f64 on a non-F64 typed column"),
        }
        self.len += 1;
    }

    /// Appends a boolean.
    #[inline]
    pub fn push_bool(&mut self, v: bool) {
        match &mut self.data {
            TypedData::Bool(vec) => vec.push(v),
            _ => unreachable!("push_bool on a non-Bool typed column"),
        }
        self.len += 1;
    }

    /// Appends a string, interning it into the morsel pool.
    pub fn push_str(&mut self, s: &str) {
        let TypedData::Str { ids, pool } = &mut self.data else {
            unreachable!("push_str on a non-Str typed column");
        };
        let id = match self.intern.get(s) {
            Some(id) => *id,
            None => {
                let id = pool.len() as u32;
                let shared: Arc<str> = Arc::from(s);
                pool.push(shared.clone());
                self.intern.insert(shared, id);
                id
            }
        };
        ids.push(id);
        self.len += 1;
    }

    /// Appends a null (a placeholder value plus a null bit).
    pub fn push_null(&mut self) {
        let at = self.len;
        match &mut self.data {
            TypedData::I64(vec) => vec.push(0),
            TypedData::F64(vec) => vec.push(0.0),
            TypedData::Bool(vec) => vec.push(false),
            TypedData::Str { ids, pool } => {
                if pool.is_empty() {
                    let shared: Arc<str> = Arc::from("");
                    pool.push(shared.clone());
                    self.intern.insert(shared, 0);
                }
                ids.push(0);
            }
        }
        self.len += 1;
        self.set_null_bit(at);
    }

    /// Bulk-appends a non-null integer slice (the binary/cache fast path).
    pub fn extend_i64(&mut self, values: &[i64]) {
        match &mut self.data {
            TypedData::I64(vec) => vec.extend_from_slice(values),
            _ => unreachable!("extend_i64 on a non-I64 typed column"),
        }
        self.len += values.len();
    }

    /// Bulk-appends a non-null float slice.
    pub fn extend_f64(&mut self, values: &[f64]) {
        match &mut self.data {
            TypedData::F64(vec) => vec.extend_from_slice(values),
            _ => unreachable!("extend_f64 on a non-F64 typed column"),
        }
        self.len += values.len();
    }

    /// Bulk-appends a non-null bool slice.
    pub fn extend_bool(&mut self, values: &[bool]) {
        match &mut self.data {
            TypedData::Bool(vec) => vec.extend_from_slice(values),
            _ => unreachable!("extend_bool on a non-Bool typed column"),
        }
        self.len += values.len();
    }

    /// Refills the column with `src[rows[0]], src[rows[1]], …` (null bits
    /// included): how the typed unnest carries a parent column across to the
    /// expanded batch without a `Value` per element. Of a string column only
    /// the pool entries the gathered rows reference cross over (shared, not
    /// copied), renumbered in first-use order.
    pub fn gather_from(&mut self, src: &TypedColumn, rows: &[u32]) {
        self.begin(src.kind(), rows.len());
        match (&mut self.data, &src.data) {
            (TypedData::I64(out), TypedData::I64(v)) => {
                out.extend(rows.iter().map(|&r| v[r as usize]))
            }
            (TypedData::F64(out), TypedData::F64(v)) => {
                out.extend(rows.iter().map(|&r| v[r as usize]))
            }
            (TypedData::Bool(out), TypedData::Bool(v)) => {
                out.extend(rows.iter().map(|&r| v[r as usize]))
            }
            (
                TypedData::Str { ids, pool },
                TypedData::Str {
                    ids: v,
                    pool: src_pool,
                },
            ) => {
                let mut moved = vec![u32::MAX; src_pool.len()];
                for &r in rows {
                    let old = v[r as usize] as usize;
                    if moved[old] == u32::MAX {
                        moved[old] = pool.len() as u32;
                        pool.push(src_pool[old].clone());
                        self.intern.insert(src_pool[old].clone(), moved[old]);
                    }
                    ids.push(moved[old]);
                }
            }
            _ => unreachable!("begin() just made the kinds equal"),
        }
        self.len = rows.len();
        if src.has_nulls() {
            for (i, &r) in rows.iter().enumerate() {
                if src.is_null(r as usize) {
                    self.set_null_bit(i);
                }
            }
        }
    }

    /// The integer values (placeholders at null positions).
    pub fn i64_values(&self) -> &[i64] {
        match &self.data {
            TypedData::I64(v) => v,
            _ => unreachable!("i64_values on a non-I64 typed column"),
        }
    }

    /// The float values (placeholders at null positions).
    pub fn f64_values(&self) -> &[f64] {
        match &self.data {
            TypedData::F64(v) => v,
            _ => unreachable!("f64_values on a non-F64 typed column"),
        }
    }

    /// The bool values (placeholders at null positions).
    pub fn bool_values(&self) -> &[bool] {
        match &self.data {
            TypedData::Bool(v) => v,
            _ => unreachable!("bool_values on a non-Bool typed column"),
        }
    }

    /// The per-row pool ids and the unique-string pool of a `Str` column.
    pub fn str_parts(&self) -> (&[u32], &[Arc<str>]) {
        match &self.data {
            TypedData::Str { ids, pool } => (ids, pool),
            _ => unreachable!("str_parts on a non-Str typed column"),
        }
    }

    /// Materializes row `i` as a [`Value`] (the hydration path for rows that
    /// survive the vectorized selection).
    pub fn value_at(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            TypedData::I64(v) => Value::Int(v[i]),
            TypedData::F64(v) => Value::Float(v[i]),
            TypedData::Bool(v) => Value::Bool(v[i]),
            TypedData::Str { ids, pool } => Value::Str(pool[ids[i] as usize].to_string()),
        }
    }
}

/// A typed morsel filler for one field: renders the values of objects
/// `start..start + count` into a [`TypedColumn`] (calling
/// [`TypedColumn::begin`] itself), never materializing intermediate
/// [`Value`]s. Plug-ins advertise these only for fields whose raw data can be
/// rendered typed; the planner activates them for slots referenced by
/// kernel-eligible predicates.
pub type TypedFill = Arc<dyn Fn(Oid, usize, &mut TypedColumn) + Send + Sync>;

/// Builds the columnar typed filler over a shared raw column: a direct slice
/// append for numeric/bool data, per-morsel interning for strings.
fn column_typed_fill(column: Arc<proteus_storage::ColumnData>) -> (TypedKind, TypedFill) {
    use proteus_storage::ColumnData;
    let kind = match column.as_ref() {
        ColumnData::Int(_) => TypedKind::I64,
        ColumnData::Float(_) => TypedKind::F64,
        ColumnData::Bool(_) => TypedKind::Bool,
        ColumnData::Str(_) => TypedKind::Str,
    };
    let fill: TypedFill = Arc::new(move |start, count, out: &mut TypedColumn| {
        let start = start as usize;
        out.begin(kind, count);
        match column.as_ref() {
            ColumnData::Int(v) => out.extend_i64(&v[start..start + count]),
            ColumnData::Float(v) => out.extend_f64(&v[start..start + count]),
            ColumnData::Bool(v) => out.extend_bool(&v[start..start + count]),
            ColumnData::Str(v) => {
                for s in &v[start..start + count] {
                    out.push_str(s);
                }
            }
        }
    });
    (kind, fill)
}

/// The one access routine a plug-in's `generate()` emits for a requested
/// field (the paper's generated data-access code). Both tiers' inputs are
/// derived from it in one place, [`FieldFill::typed`] and
/// [`FieldFill::values`], so the kernel and closure paths read the same
/// values — a null bit in the typed column is `Value::Null` on the row-major
/// path.
#[derive(Clone)]
pub enum FieldFill {
    /// A raw binary column (binary column files, cache entries): both tiers
    /// copy straight out of it.
    Column(Arc<proteus_storage::ColumnData>),
    /// A typed filler (CSV and JSON scalars, typed nested leaves, binary
    /// rows); the row-major form is rendered from the typed column.
    Typed(TypedKind, TypedFill),
    /// A `Value` filler, for fields with no typed form (JSON records,
    /// arrays, mixed-kind leaves, `Any`).
    Values(BatchFill),
}

impl FieldFill {
    /// The vectorized-tier filler, if the field has a typed form.
    pub fn typed(&self) -> Option<(TypedKind, TypedFill)> {
        match self {
            FieldFill::Column(column) => Some(column_typed_fill(column.clone())),
            FieldFill::Typed(kind, fill) => Some((*kind, fill.clone())),
            FieldFill::Values(_) => None,
        }
    }

    /// The row-major filler. A typed fill runs into a reused per-thread
    /// [`TypedColumn`] and each row lands as [`TypedColumn::value_at`].
    pub fn values(&self) -> BatchFill {
        match self {
            FieldFill::Column(column) => column_batch_fill(column.clone()),
            FieldFill::Values(fill) => fill.clone(),
            FieldFill::Typed(kind, fill) => {
                let (kind, fill) = (*kind, fill.clone());
                Arc::new(move |start, count, out: &mut [Value], base, stride| {
                    SCRATCH.with(|scratch| {
                        let col = &mut scratch.borrow_mut()[kind as usize];
                        fill(start, count, col);
                        for i in 0..count {
                            out[base + i * stride] = col.value_at(i);
                        }
                    })
                })
            }
        }
    }
}

#[cfg(test)]
impl FieldFill {
    /// Rows `start..start + count` through [`FieldFill::values`].
    pub(crate) fn values_at(&self, start: Oid, count: usize) -> Vec<Value> {
        let mut out = vec![Value::Null; count];
        self.values()(start, count, &mut out, 0, 1);
        out
    }

    /// Rows `start..start + count` through [`FieldFill::typed`], null bits
    /// read as `Value::Null`; `None` without a typed form.
    pub(crate) fn typed_at(&self, start: Oid, count: usize) -> Option<Vec<Value>> {
        let (kind, fill) = self.typed()?;
        let mut col = TypedColumn::new(kind);
        fill(start, count, &mut col);
        Some((0..count).map(|i| col.value_at(i)).collect())
    }
}

thread_local! {
    /// One scratch column per [`TypedKind`] (indexed by discriminant), so
    /// alternating fields of different kinds keep their buffers.
    static SCRATCH: std::cell::RefCell<[TypedColumn; 4]> = std::cell::RefCell::new([
        TypedColumn::new(TypedKind::I64),
        TypedColumn::new(TypedKind::F64),
        TypedColumn::new(TypedKind::Bool),
        TypedColumn::new(TypedKind::Str),
    ]);
}

/// What a plug-in hands to the scan operator of the generated engine: the
/// number of objects to scan and one [`FieldFill`] per requested field (the
/// "virtual memory buffers" get filled from these).
#[derive(Clone)]
pub struct ScanAccessors {
    /// Number of objects (tuples) the scan will produce.
    pub row_count: u64,
    /// `(field name, fill)` pairs in the order they were requested.
    pub fields: Vec<(String, FieldFill)>,
    /// Human-readable description of the access path the plug-in chose
    /// (shows up in the emitted pseudo-IR, e.g. `"csv(structural-index N=8)"`).
    pub access_path: String,
    /// Rows the plug-in skipped or nulled at registration under a lenient
    /// [`BadRowPolicy`]; the executor folds this into
    /// `ExecutionMetrics::bad_rows` for queries over the dataset.
    pub bad_rows: u64,
}

impl ScanAccessors {
    /// Looks up the fill generated for a field.
    pub fn fill(&self, name: &str) -> Option<&FieldFill> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }
}

impl std::fmt::Debug for ScanAccessors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fields: Vec<&str> = self.fields.iter().map(|(n, _)| n.as_str()).collect();
        f.debug_struct("ScanAccessors")
            .field("row_count", &self.row_count)
            .field("fields", &fields)
            .field("access_path", &self.access_path)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Typed unnest: the expand hook.
// ---------------------------------------------------------------------------

/// What one [`TypedExpand`] call appends: one entry per produced element, as
/// a parent-row index plus one typed lane per requested element leaf. The
/// buffers are recycled across morsels by the caller.
#[derive(Debug, Default)]
pub struct ExpandOutput {
    /// For each element, the morsel-relative row of the parent it came from.
    /// Non-decreasing: parents are visited in the order they were passed.
    pub parents: Vec<u32>,
    /// One lane per requested leaf, in request order, each exactly as long
    /// as `parents` (a missing leaf, a `null` token or a non-record element
    /// is a null bit).
    pub lanes: Vec<TypedColumn>,
}

/// The morsel-at-a-time, typed form of the paper's `unnestInit()` /
/// `unnestHasNext()` / `unnestGetNext()`: for the morsel starting at the
/// given OID and its selected (morsel-relative, ascending) parent rows,
/// walks each parent's collection once and appends its elements to the
/// [`ExpandOutput`] (which the callee resets first). The flag asks for
/// *outer* semantics: a parent without elements yields one all-null entry.
pub type TypedExpand = Arc<dyn Fn(Oid, &[u32], bool, &mut ExpandOutput) + Send + Sync>;

/// What a plug-in hands to a typed unnest operator (see
/// [`InputPlugin::generate_expand`]).
#[derive(Clone)]
pub struct ExpandAccessors {
    /// Lane kind per requested leaf, in request order.
    pub kinds: Vec<TypedKind>,
    /// The morsel expander.
    pub expand: TypedExpand,
}

/// The input plug-in interface (Table 2).
pub trait InputPlugin: Send + Sync {
    /// The dataset this plug-in serves.
    fn dataset(&self) -> &str;

    /// The data format the plug-in encapsulates.
    fn format(&self) -> SourceFormat;

    /// The dataset schema (possibly inferred).
    fn schema(&self) -> &Schema;

    /// Number of data objects in the dataset.
    fn len(&self) -> u64;

    /// True if the dataset has no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `generate()`: builds one specialized [`FieldFill`] per requested
    /// field, choosing the most appropriate access path for this dataset
    /// instance (structural index, deterministic layout, raw columns, ...).
    fn generate(&self, fields: &[String]) -> Result<ScanAccessors>;

    /// `readValue()`: generic single-value access by OID and field name.
    fn read_value(&self, oid: Oid, field: &str) -> Result<Value>;

    /// `readPath()`: navigates a (possibly nested) path within the object
    /// identified by `oid`.
    fn read_path(&self, oid: Oid, path: &[String]) -> Result<Value>;

    /// `unnestInit()` + `unnestHasNext()`/`unnestGetNext()`, generated: a
    /// typed expander over the nested collection at the dotted field `path`,
    /// rendering one lane per element leaf in `leaves` (the empty leaf `""`
    /// is the element itself, for collections of scalars) straight from the
    /// raw data. `None` — the default — means "not offered": the format has
    /// no nested collections, or some element of *this* dataset holds a
    /// token no single lane kind can represent, and the engine unnests
    /// through the collection's `Value` instead. An offered expander must
    /// produce exactly the elements and leaf values that path yields.
    fn generate_expand(&self, path: &str, leaves: &[String]) -> Option<ExpandAccessors> {
        let _ = (path, leaves);
        None
    }

    /// `hashValue()`: a stable hash of a field value, used by the radix
    /// join/grouping operators.
    fn hash_value(&self, oid: Oid, field: &str) -> Result<u64> {
        Ok(self.read_value(oid, field)?.stable_hash())
    }

    /// `flushValue()`: renders a field value into the query output buffer.
    fn flush_value(&self, oid: Oid, field: &str, out: &mut String) -> Result<()> {
        let v = self.read_value(oid, field)?;
        out.push_str(&v.to_string());
        Ok(())
    }

    /// Dataset statistics for the optimizer (collected on first/cold access).
    fn statistics(&self) -> DatasetStats;

    /// The plug-in's cost profile: per-tuple and per-field access cost
    /// factors the optimizer plugs into its cost formulas.
    fn cost_profile(&self) -> CostProfile;

    /// Per-morsel zone maps for the requested fields, building/deriving them
    /// if needed (the engine calls this at compile time when morsel skipping
    /// is enabled). Binary columns answer from maps recorded at
    /// registration; CSV/JSON derive them once from their
    /// typed fills and memoize. The default — no zone maps — simply disables
    /// skipping for the plug-in's scans.
    fn zone_maps(&self, fields: &[String]) -> Vec<(String, Arc<crate::zonemap::ZoneMap>)> {
        let _ = fields;
        Vec::new()
    }

    /// Zone maps that are already materialized, without triggering any
    /// derivation work (the catalog snapshots these for observed-bounds
    /// selectivity estimation).
    fn cached_zone_maps(&self) -> Vec<(String, Arc<crate::zonemap::ZoneMap>)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_accessors_field_lookup() {
        let scan = ScanAccessors {
            row_count: 10,
            fields: vec![(
                "x".to_string(),
                FieldFill::Column(Arc::new(proteus_storage::ColumnData::Int(
                    (0..10).collect(),
                ))),
            )],
            access_path: "test".into(),
            bad_rows: 0,
        };
        assert!(scan.fill("x").is_some_and(|f| f.typed().is_some()));
        assert!(scan.fill("y").is_none());
    }

    #[test]
    fn gather_carries_values_nulls_and_the_string_pool() {
        let mut ints = TypedColumn::new(TypedKind::I64);
        ints.begin(TypedKind::I64, 3);
        ints.push_i64(7);
        ints.push_null();
        ints.push_i64(9);
        let mut out = TypedColumn::new(TypedKind::Bool);
        out.gather_from(&ints, &[0, 0, 1, 2, 2]);
        let got: Vec<Value> = (0..out.len()).map(|i| out.value_at(i)).collect();
        assert_eq!(
            got,
            vec![
                Value::Int(7),
                Value::Int(7),
                Value::Null,
                Value::Int(9),
                Value::Int(9)
            ]
        );

        let mut strs = TypedColumn::new(TypedKind::Str);
        strs.begin(TypedKind::Str, 2);
        strs.push_str("a");
        strs.push_str("b");
        out.gather_from(&strs, &[1, 1, 0]);
        assert_eq!(out.str_parts().1.len(), 2);
        assert_eq!(out.value_at(0), Value::Str("b".into()));
        assert_eq!(out.value_at(2), Value::Str("a".into()));
        // Still a well-formed column: a later push interns against the pool.
        out.push_str("a");
        assert_eq!(out.str_parts().1.len(), 2);
        // Only the strings the gathered rows reference cross over.
        out.gather_from(&strs, &[1, 1]);
        assert_eq!(out.str_parts().0, [0, 0]);
        assert_eq!(out.str_parts().1.len(), 1);
        assert_eq!(out.value_at(1), Value::Str("b".into()));
        // Gathering nothing yields an empty column of the source's kind.
        out.gather_from(&ints, &[]);
        assert!(out.is_empty() && out.kind() == TypedKind::I64);
    }

    /// The plug-in contract: for every field a plug-in serves, the row-major
    /// fill (written strided into a morsel that does not start at OID 0),
    /// the typed fill (null bits read as `Value::Null`) and `read_value`
    /// agree. `exceptions` names the fields whose fills read `""` where
    /// `read_value` reads null.
    fn assert_fills_agree(plugin: &dyn InputPlugin, fields: &[&str], exceptions: &[&str]) {
        let fields: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        let scan = plugin.generate(&fields).unwrap();
        assert_eq!(scan.fields.len(), fields.len());
        let (start, count) = (1, plugin.len() as usize - 1);
        for (name, fill) in &scan.fields {
            let label = format!("{:?} {name}", plugin.format());
            // Width-3 rows, this field in the middle slot.
            let mut out = vec![Value::Bool(true); count * 3];
            fill.values()(start, count, &mut out, 1, 3);
            for (i, row) in out.chunks(3).enumerate() {
                let oid = start + i as Oid;
                assert_eq!((&row[0], &row[2]), (&Value::Bool(true), &Value::Bool(true)));
                let read = plugin.read_value(oid, name).unwrap();
                if exceptions.contains(&name.as_str()) && read == Value::Null {
                    assert_eq!(row[1], Value::Str(String::new()), "{label} oid {oid}");
                } else {
                    assert_eq!(row[1], read, "{label} oid {oid}");
                }
            }
            if let Some(typed) = fill.typed_at(start, count) {
                let values: Vec<Value> = out.chunks(3).map(|row| row[1].clone()).collect();
                assert_eq!(typed, values, "{label}: typed vs row-major");
            }
        }
    }

    #[test]
    fn every_plugin_fill_agrees_with_read_value() {
        use crate::binary::{ColumnPlugin, RowPlugin};
        use crate::csv::{CsvOptions, CsvPlugin};
        use crate::json::JsonPlugin;
        use bytes::Bytes;
        use proteus_algebra::DataType;
        use proteus_storage::{ColumnData, RowTable, RowTableReader};

        let columns = || {
            vec![
                ("k".to_string(), ColumnData::Int(vec![3, -1, 7, 0, 9])),
                (
                    "q".to_string(),
                    ColumnData::Float(vec![0.5, -0.0, 2.25, 1e9, 4.0]),
                ),
                (
                    "b".to_string(),
                    ColumnData::Bool(vec![true, false, true, true, false]),
                ),
                (
                    "s".to_string(),
                    ColumnData::Str(["a", "", "b", "a", "c"].map(String::from).to_vec()),
                ),
            ]
        };
        let binary = ColumnPlugin::from_pairs("t", columns()).unwrap();
        assert_fills_agree(&binary, &["k", "q", "b", "s"], &[]);

        let schema = Schema::from_pairs(vec![
            ("k", DataType::Int),
            ("d", DataType::Date),
            ("q", DataType::Float),
            ("b", DataType::Bool),
            ("s", DataType::String),
        ]);
        let rows: Vec<Value> = (0..5)
            .map(|i| {
                Value::record(vec![
                    ("k", Value::Int(i * 3 - 4)),
                    ("d", Value::Date(19_000 + i)),
                    ("q", Value::Float(i as f64 / 4.0)),
                    ("b", Value::Bool(i % 2 == 0)),
                    ("s", Value::Str(format!("r{}", i % 2))),
                ])
            })
            .collect();
        let dir = std::env::temp_dir().join("proteus_fill_contract");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rows_{}.prow", std::process::id()));
        RowTable::write(&path, &schema, &rows).unwrap();
        let reader = RowTableReader::open(Bytes::from(std::fs::read(&path).unwrap())).unwrap();
        let row = RowPlugin::from_reader("t", reader);
        assert_fills_agree(&row, &["k", "d", "q", "b", "s"], &[]);
        let _ = std::fs::remove_file(&path);

        // Empty and unparseable fields under every type (the default `Null`
        // bad-row policy keeps the unparseable row).
        let csv =
            "1|19000|0.5|t|x\n2||||\n3|19002|2.5|f|y\nzz|nope|1.2.3|maybe| z \n5|19004|-0.0|1|\n";
        let csv =
            CsvPlugin::from_bytes("t", Bytes::from(csv), schema, CsvOptions::default()).unwrap();
        assert_fills_agree(&csv, &["k", "d", "q", "b", "s"], &[]);

        // Nulls, missing keys, records, arrays, typed nested leaves and a
        // mixed-kind nested leaf (`geo.m`).
        let json = r#"{"k": 1, "q": 0.5, "b": true, "name": "a", "geo": {"lat": 1.5, "m": 1, "city": "x"}, "xs": [1, 2]}
{"k": null, "q": 1.5, "b": false, "geo": {"lat": null, "m": 2.5}, "xs": []}
{"k": 3, "b": null, "name": null, "geo": {"m": "s", "city": "y"}, "xs": [3]}
{"q": 2.0, "name": "c\u00e9", "geo": {"lat": 3.5, "m": true}}
{"k": 5, "q": 4.25, "b": true, "name": "", "geo": {"lat": -0.0, "m": null, "city": "z"}, "xs": [{"a": 1}]}
"#;
        let json = JsonPlugin::from_bytes("t", Bytes::from(json)).unwrap();
        let fields = [
            "k", "q", "b", "name", "geo", "xs", "geo.lat", "geo.m", "geo.city",
        ];
        let scan = json.generate(&fields.map(String::from)).unwrap();
        let typed = |f: &str| scan.fill(f).unwrap().typed().map(|(kind, _)| kind);
        assert_eq!(typed("geo.lat"), Some(TypedKind::F64));
        assert_eq!(typed("geo.city"), Some(TypedKind::Str));
        assert_eq!(typed("geo.m"), None);
        // The one documented divergence: a top-level string field reads `""`
        // where the key is missing or not a string.
        assert_fills_agree(&json, &fields, &["name"]);
    }
}
