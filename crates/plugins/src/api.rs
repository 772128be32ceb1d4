//! The input plug-in API (Table 2 of the paper).
//!
//! Plug-ins serve two kinds of consumers:
//!
//! 1. The *generated query pipelines* of `proteus-core`. When a scan operator
//!    "triggers" a plug-in, the plug-in inspects the query's field-of-interest
//!    list and the dataset instance and returns [`ScanAccessors`]: one
//!    specialized, monomorphic accessor per requested field (the reproduction
//!    of the paper's generated data-access code). The per-tuple hot path then
//!    contains exactly one indirect call per field and no type dispatch.
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

/// A specialized accessor for one field of a dataset: given an OID it
/// produces the field's value with no schema lookups or type dispatch on the
/// hot path. The closure captured inside is built once per query by the
/// plug-in (`generate()`), mirroring the code the paper's plug-ins emit.
#[derive(Clone)]
pub enum FieldAccessor {
    /// Accessor for an integer (or date) field.
    Int(Arc<dyn Fn(Oid) -> i64 + Send + Sync>),
    /// Accessor for a float field.
    Float(Arc<dyn Fn(Oid) -> f64 + Send + Sync>),
    /// Accessor for a boolean field.
    Bool(Arc<dyn Fn(Oid) -> bool + Send + Sync>),
    /// Accessor for a string field.
    Str(Arc<dyn Fn(Oid) -> String + Send + Sync>),
    /// Fallback accessor producing a boxed value (nested fields, nulls).
    Generic(Arc<dyn Fn(Oid) -> Value + Send + Sync>),
}

impl FieldAccessor {
    /// Reads the field as a [`Value`] regardless of specialization.
    pub fn value(&self, oid: Oid) -> Value {
        match self {
            FieldAccessor::Int(f) => Value::Int(f(oid)),
            FieldAccessor::Float(f) => Value::Float(f(oid)),
            FieldAccessor::Bool(f) => Value::Bool(f(oid)),
            FieldAccessor::Str(f) => Value::Str(f(oid)),
            FieldAccessor::Generic(f) => f(oid),
        }
    }

    /// Reads the field as an `f64`, the common numeric fast path for
    /// predicates and aggregates.
    pub fn as_f64(&self, oid: Oid) -> f64 {
        match self {
            FieldAccessor::Int(f) => f(oid) as f64,
            FieldAccessor::Float(f) => f(oid),
            FieldAccessor::Bool(f) => f64::from(u8::from(f(oid))),
            FieldAccessor::Str(_) | FieldAccessor::Generic(_) => match self.value(oid) {
                Value::Int(i) => i as f64,
                Value::Float(x) => x,
                Value::Date(d) => d as f64,
                _ => f64::NAN,
            },
        }
    }

    /// Reads the field as an `i64`.
    pub fn as_i64(&self, oid: Oid) -> i64 {
        match self {
            FieldAccessor::Int(f) => f(oid),
            FieldAccessor::Float(f) => f(oid) as i64,
            FieldAccessor::Bool(f) => i64::from(f(oid)),
            _ => match self.value(oid) {
                Value::Int(i) => i,
                Value::Float(x) => x as i64,
                Value::Date(d) => d,
                _ => 0,
            },
        }
    }

    /// True when the accessor is numeric-specialized (no boxing per call).
    pub fn is_specialized_numeric(&self) -> bool {
        matches!(self, FieldAccessor::Int(_) | FieldAccessor::Float(_))
    }

    /// Builds a [`BatchFill`] from this accessor: the enum dispatch happens
    /// once here, and the returned closure runs a monomorphic loop per
    /// morsel (one indirect call per *morsel* per field on the scan path,
    /// instead of one per tuple).
    pub fn batch_fill(&self) -> BatchFill {
        match self {
            FieldAccessor::Int(f) => {
                let f = f.clone();
                Arc::new(move |start, count, out: &mut [Value], base, stride| {
                    for i in 0..count {
                        out[base + i * stride] = Value::Int(f(start + i as Oid));
                    }
                })
            }
            FieldAccessor::Float(f) => {
                let f = f.clone();
                Arc::new(move |start, count, out: &mut [Value], base, stride| {
                    for i in 0..count {
                        out[base + i * stride] = Value::Float(f(start + i as Oid));
                    }
                })
            }
            FieldAccessor::Bool(f) => {
                let f = f.clone();
                Arc::new(move |start, count, out: &mut [Value], base, stride| {
                    for i in 0..count {
                        out[base + i * stride] = Value::Bool(f(start + i as Oid));
                    }
                })
            }
            FieldAccessor::Str(f) => {
                let f = f.clone();
                Arc::new(move |start, count, out: &mut [Value], base, stride| {
                    for i in 0..count {
                        out[base + i * stride] = Value::Str(f(start + i as Oid));
                    }
                })
            }
            FieldAccessor::Generic(f) => {
                let f = f.clone();
                Arc::new(move |start, count, out: &mut [Value], base, stride| {
                    for i in 0..count {
                        out[base + i * stride] = f(start + i as Oid);
                    }
                })
            }
        }
    }

    /// Builds a [`TypedFill`] from this accessor, when it is specialized:
    /// the same closure [`FieldAccessor::batch_fill`] loops over, minus the
    /// `Value` boxing — so the typed and row-major paths agree *by
    /// construction*. `Generic` accessors (nested/nullable shapes) have no
    /// typed form.
    pub fn typed_fill(&self) -> Option<(TypedKind, TypedFill)> {
        Some(match self {
            FieldAccessor::Int(f) => {
                let f = f.clone();
                let fill: TypedFill = Arc::new(move |start, count, out: &mut TypedColumn| {
                    out.begin(TypedKind::I64, count);
                    for i in 0..count {
                        out.push_i64(f(start + i as Oid));
                    }
                });
                (TypedKind::I64, fill)
            }
            FieldAccessor::Float(f) => {
                let f = f.clone();
                let fill: TypedFill = Arc::new(move |start, count, out: &mut TypedColumn| {
                    out.begin(TypedKind::F64, count);
                    for i in 0..count {
                        out.push_f64(f(start + i as Oid));
                    }
                });
                (TypedKind::F64, fill)
            }
            FieldAccessor::Bool(f) => {
                let f = f.clone();
                let fill: TypedFill = Arc::new(move |start, count, out: &mut TypedColumn| {
                    out.begin(TypedKind::Bool, count);
                    for i in 0..count {
                        out.push_bool(f(start + i as Oid));
                    }
                });
                (TypedKind::Bool, fill)
            }
            FieldAccessor::Str(f) => {
                let f = f.clone();
                let fill: TypedFill = Arc::new(move |start, count, out: &mut TypedColumn| {
                    out.begin(TypedKind::Str, count);
                    for i in 0..count {
                        out.push_str(&f(start + i as Oid));
                    }
                });
                (TypedKind::Str, fill)
            }
            FieldAccessor::Generic(_) => return None,
        })
    }
}

/// A morsel filler for one field: writes the values of objects
/// `start..start + count` into a row-major batch buffer, value `i` landing at
/// `out[base + i * stride]`. Plug-ins may provide specialized fillers (e.g.
/// direct column copies); [`FieldAccessor::batch_fill`] is the generic
/// fallback.
pub type BatchFill = Arc<dyn Fn(Oid, usize, &mut [Value], usize, usize) + Send + Sync>;

/// Builds the columnar fast-path filler: a direct strided copy out of a
/// shared raw column, one virtual call per (field, morsel). Used by the
/// binary column plug-in, the cache plug-in and the engine's cache-served
/// scan accessors.
pub fn column_batch_fill(column: Arc<proteus_storage::ColumnData>) -> BatchFill {
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
    /// 64-bit integers (also carries date fields, which the specialized
    /// accessors already render as plain integers).
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
pub fn column_typed_fill(column: Arc<proteus_storage::ColumnData>) -> (TypedKind, TypedFill) {
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

impl std::fmt::Debug for FieldAccessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            FieldAccessor::Int(_) => "Int",
            FieldAccessor::Float(_) => "Float",
            FieldAccessor::Bool(_) => "Bool",
            FieldAccessor::Str(_) => "Str",
            FieldAccessor::Generic(_) => "Generic",
        };
        write!(f, "FieldAccessor::{kind}")
    }
}

/// What a plug-in hands to the scan operator of the generated engine: the
/// number of objects to scan and one specialized accessor per requested
/// field (the "virtual memory buffers" get filled from these).
#[derive(Clone)]
pub struct ScanAccessors {
    /// Number of objects (tuples) the scan will produce.
    pub row_count: u64,
    /// `(field name, accessor)` pairs in the order they were requested.
    pub fields: Vec<(String, FieldAccessor)>,
    /// `(field name, morsel filler)` pairs: the batched scan path. Same
    /// order as `fields`; plug-ins with a native columnar layout install
    /// direct-copy fillers, everyone else wraps the accessor.
    pub batch_fields: Vec<(String, BatchFill)>,
    /// `(field name, kind, typed filler)` for the fields this plug-in can
    /// render directly into a [`TypedColumn`] (the vectorized scan path).
    /// Empty for plug-ins without typed support; a typed filler must produce
    /// exactly the values the corresponding `batch_fields` filler would
    /// (nulls ↔ `Value::Null`), so the kernel and closure paths agree.
    pub typed_fields: Vec<(String, TypedKind, TypedFill)>,
    /// Human-readable description of the access path the plug-in chose
    /// (shows up in the emitted pseudo-IR, e.g. `"csv(structural-index N=8)"`).
    pub access_path: String,
    /// Rows the plug-in skipped or nulled at registration under a lenient
    /// [`BadRowPolicy`]; the executor folds this into
    /// `ExecutionMetrics::bad_rows` for queries over the dataset.
    pub bad_rows: u64,
}

impl ScanAccessors {
    /// Builds accessors with the generic per-accessor batch fillers, and
    /// typed fillers derived from the same specialized accessors (so the
    /// vectorized and row-major paths cannot drift apart).
    pub fn from_accessors(
        row_count: u64,
        fields: Vec<(String, FieldAccessor)>,
        access_path: impl Into<String>,
    ) -> ScanAccessors {
        let batch_fields = fields
            .iter()
            .map(|(name, accessor)| (name.clone(), accessor.batch_fill()))
            .collect();
        let typed_fields = fields
            .iter()
            .filter_map(|(name, accessor)| {
                accessor
                    .typed_fill()
                    .map(|(kind, fill)| (name.clone(), kind, fill))
            })
            .collect();
        ScanAccessors {
            row_count,
            fields,
            batch_fields,
            typed_fields,
            access_path: access_path.into(),
            bad_rows: 0,
        }
    }

    /// Records the dataset's registration-time bad-row count on these
    /// accessors (builder style, used by the plug-ins' `generate()`).
    pub fn with_bad_rows(mut self, bad_rows: u64) -> ScanAccessors {
        self.bad_rows = bad_rows;
        self
    }

    /// Looks up the accessor generated for a field.
    pub fn field(&self, name: &str) -> Option<&FieldAccessor> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, a)| a)
    }

    /// Looks up the morsel filler generated for a field.
    pub fn batch_field(&self, name: &str) -> Option<&BatchFill> {
        self.batch_fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
    }

    /// Looks up the typed morsel filler generated for a field, if any.
    pub fn typed_field(&self, name: &str) -> Option<(TypedKind, &TypedFill)> {
        self.typed_fields
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, kind, f)| (*kind, f))
    }
}

impl std::fmt::Debug for ScanAccessors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanAccessors")
            .field("row_count", &self.row_count)
            .field("fields", &self.fields)
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

    /// `generate()`: builds the specialized scan accessors for the requested
    /// fields, choosing the most appropriate access path for this dataset
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
    /// is enabled). Binary columns and caches answer from maps recorded at
    /// registration / cache-build time; CSV/JSON derive them once from their
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
    fn accessor_value_conversions() {
        let acc = FieldAccessor::Int(Arc::new(|oid| oid as i64 * 2));
        assert_eq!(acc.value(3), Value::Int(6));
        assert_eq!(acc.as_f64(3), 6.0);
        assert_eq!(acc.as_i64(3), 6);
        assert!(acc.is_specialized_numeric());

        let acc = FieldAccessor::Str(Arc::new(|oid| format!("s{oid}")));
        assert_eq!(acc.value(1), Value::Str("s1".into()));
        assert!(!acc.is_specialized_numeric());
        assert!(acc.as_f64(1).is_nan());
    }

    #[test]
    fn generic_accessor_numeric_views() {
        let acc = FieldAccessor::Generic(Arc::new(|oid| Value::Float(oid as f64 + 0.5)));
        assert_eq!(acc.as_f64(2), 2.5);
        assert_eq!(acc.as_i64(2), 2);
    }

    #[test]
    fn scan_accessors_field_lookup() {
        let scan = ScanAccessors::from_accessors(
            10,
            vec![(
                "x".to_string(),
                FieldAccessor::Int(Arc::new(|oid| oid as i64)),
            )],
            "test",
        );
        assert!(scan.field("x").is_some());
        assert!(scan.field("y").is_none());
        assert!(scan.batch_field("x").is_some());
        assert!(scan.batch_field("y").is_none());
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

    #[test]
    fn batch_fill_matches_per_tuple_accessor() {
        let accessor = FieldAccessor::Int(Arc::new(|oid| oid as i64 * 3));
        let fill = accessor.batch_fill();
        // Strided destination: width-2 rows, slot 1.
        let mut out = vec![Value::Null; 8];
        fill(5, 4, &mut out, 1, 2);
        for i in 0..4u64 {
            assert_eq!(out[1 + i as usize * 2], accessor.value(5 + i));
            assert_eq!(out[i as usize * 2], Value::Null);
        }
    }
}
