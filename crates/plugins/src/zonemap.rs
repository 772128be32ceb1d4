//! Per-morsel zone maps: the morsel-skipping statistics tier (§5.2).
//!
//! The paper's metadata store keeps per-attribute min/max statistics so
//! access paths can be pruned. This module records those statistics at the
//! granularity the execution engine actually dispatches work: one
//! [`ZoneEntry`] per [`ZONE_ROWS`]-row OID range (the morsel size of
//! `proteus-core`). Before a morsel's lanes render, the engine compares the
//! conjunction's per-column bounds against the morsel's zone entry and either
//! skips the morsel entirely (no typed fill, no hydration), short-circuits it
//! to an identity selection, or runs the compare kernels on the ambiguous
//! middle.
//!
//! Zone bounds live in the **`f64` total order** — the comparison domain of
//! the predicate kernels (`i64` lanes compare through their `as f64` view,
//! `-0.0 < 0.0`, NaN sorts last via `f64::total_cmp`) — so a zone verdict is
//! exactly the verdict the kernel mask would have produced for every row of
//! the zone.
//!
//! Binary columns and cache entries build zone maps directly from their raw
//! [`ColumnData`] (a single pass at registration / cache-build time). CSV and
//! JSON plug-ins derive them lazily from the same [`TypedFill`] closures the
//! vectorized scan uses ([`derive_zone_maps`]), which guarantees the bounds
//! agree with the lanes the kernels will see (e.g. an empty CSV field is a
//! null bit in the lane and a null in the zone, never a bound).
//!
//! The same pass aggregates the dataset-level [`ColumnStats`] through
//! [`ColumnStats::merge`], so the zone tier and the optimizer's statistics
//! cannot drift apart.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proteus_algebra::Value;
use proteus_storage::ColumnData;

use crate::api::{all_rows, ScanAccessors, TypedColumn, TypedFill, TypedKind};
use crate::stats::ColumnStats;

/// Rows covered by one zone entry. Must stay equal to the engine's morsel
/// size (`proteus_core::exec::MORSEL_SIZE`, compile-time asserted there) so
/// zone index `z` describes exactly morsel `z`.
pub const ZONE_ROWS: usize = 1024;

/// Statistics of one `ZONE_ROWS`-row OID range of a column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Rows in this zone (only the last zone of a column may be short).
    pub rows: u32,
    /// Null rows in this zone.
    pub null_count: u32,
    /// Smallest non-null value, in the `f64` total-order view (`i64 as f64`).
    /// Meaningful only when [`ZoneEntry::numeric`] is true.
    pub min: f64,
    /// Largest non-null value, in the `f64` total-order view.
    pub max: f64,
    /// True when `min`/`max` are valid: the column is numeric and the zone
    /// holds at least one non-null value.
    pub numeric: bool,
}

impl ZoneEntry {
    fn empty() -> ZoneEntry {
        ZoneEntry {
            rows: 0,
            null_count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            numeric: false,
        }
    }

    /// True when every row of the zone is null.
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }

    /// Non-null rows in the zone.
    pub fn non_null(&self) -> u32 {
        self.rows - self.null_count
    }

    #[inline]
    fn observe(&mut self, view: f64) {
        if !self.numeric {
            self.min = view;
            self.max = view;
            self.numeric = true;
            return;
        }
        if view.total_cmp(&self.min) == std::cmp::Ordering::Less {
            self.min = view;
        }
        if view.total_cmp(&self.max) == std::cmp::Ordering::Greater {
            self.max = view;
        }
    }
}

/// Per-morsel zone map of one column, plus the dataset-level [`ColumnStats`]
/// aggregated from the same pass.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    kind: TypedKind,
    row_count: u64,
    entries: Vec<ZoneEntry>,
    stats: ColumnStats,
}

/// Incremental builder: rows stream in OID order, entries close every
/// [`ZONE_ROWS`] rows, and the dataset-level stats fold through
/// [`ColumnStats::merge`] as each zone completes.
struct ZoneBuilder {
    kind: TypedKind,
    entries: Vec<ZoneEntry>,
    cur: ZoneEntry,
    /// Exact-typed min/max of the *current* zone (`Value::Int` for integer
    /// columns so the aggregated stats keep integer bounds).
    cur_min: Value,
    cur_max: Value,
    total: ColumnStats,
    rows: u64,
}

impl ZoneBuilder {
    fn new(kind: TypedKind) -> ZoneBuilder {
        ZoneBuilder {
            kind,
            entries: Vec::new(),
            cur: ZoneEntry::empty(),
            cur_min: Value::Null,
            cur_max: Value::Null,
            total: ColumnStats::empty(),
            rows: 0,
        }
    }

    #[inline]
    fn observe_value(&mut self, view: f64, exact: Value) {
        self.cur.observe(view);
        if self.cur_min.is_null() || exact.total_cmp(&self.cur_min) == std::cmp::Ordering::Less {
            self.cur_min = exact.clone();
        }
        if self.cur_max.is_null() || exact.total_cmp(&self.cur_max) == std::cmp::Ordering::Greater {
            self.cur_max = exact;
        }
        self.advance();
    }

    #[inline]
    fn observe_null(&mut self) {
        self.cur.null_count += 1;
        self.advance();
    }

    /// Observes a row of a non-numeric column (no bounds, only row/null
    /// accounting).
    #[inline]
    fn observe_opaque(&mut self) {
        self.advance();
    }

    /// Appends one whole zone of a null-free numeric column from its folded
    /// bounds. Only valid on a zone boundary.
    fn push_zone(&mut self, rows: usize, min: f64, max: f64, exact_min: Value, exact_max: Value) {
        debug_assert_eq!(self.cur.rows, 0);
        self.cur = ZoneEntry {
            rows: rows as u32,
            null_count: 0,
            min,
            max,
            numeric: true,
        };
        self.cur_min = exact_min;
        self.cur_max = exact_max;
        self.rows += rows as u64;
        self.close_zone();
    }

    /// Appends one whole zone of a non-numeric column (rows only).
    fn push_opaque_zone(&mut self, rows: usize) {
        debug_assert_eq!(self.cur.rows, 0);
        self.cur.rows = rows as u32;
        self.rows += rows as u64;
        self.close_zone();
    }

    #[inline]
    fn advance(&mut self) {
        self.cur.rows += 1;
        self.rows += 1;
        if self.cur.rows as usize == ZONE_ROWS {
            self.close_zone();
        }
    }

    fn close_zone(&mut self) {
        let zone_stats = ColumnStats {
            min: std::mem::replace(&mut self.cur_min, Value::Null),
            max: std::mem::replace(&mut self.cur_max, Value::Null),
            distinct: 0,
            nulls: self.cur.null_count as u64,
        };
        self.total.merge(&zone_stats);
        self.entries.push(self.cur);
        self.cur = ZoneEntry::empty();
    }

    fn finish(mut self) -> ZoneMap {
        if self.cur.rows > 0 {
            self.close_zone();
        }
        // Distinct counts are not derivable from bounds: use the bounded
        // estimate the plug-ins have always used for raw columns.
        self.total.distinct = (self.rows - self.total.nulls).min(4096);
        ZoneMap {
            kind: self.kind,
            row_count: self.rows,
            entries: self.entries,
            stats: self.total,
        }
    }
}

/// Smallest and largest element of a non-empty zone under `cmp`; of equal
/// elements the first seen wins, as in the row-wise builder.
fn fold_bounds<T: Copy>(zone: &[T], cmp: impl Fn(&T, &T) -> std::cmp::Ordering) -> (T, T) {
    let mut min = zone[0];
    let mut max = zone[0];
    for x in &zone[1..] {
        if cmp(x, &min) == std::cmp::Ordering::Less {
            min = *x;
        }
        if cmp(x, &max) == std::cmp::Ordering::Greater {
            max = *x;
        }
    }
    (min, max)
}

impl ZoneMap {
    /// Builds the zone map of a raw binary column (registration / cache-build
    /// time; `ColumnData` has no nulls, so every `null_count` is zero). Each
    /// zone folds over the typed slice and builds its two exact `Value`
    /// bounds once; the result equals streaming every row through
    /// `ZoneBuilder::observe_value`.
    pub fn from_column(col: &ColumnData) -> ZoneMap {
        let mut b = ZoneBuilder::new(match col {
            ColumnData::Int(_) => TypedKind::I64,
            ColumnData::Float(_) => TypedKind::F64,
            ColumnData::Bool(_) => TypedKind::Bool,
            ColumnData::Str(_) => TypedKind::Str,
        });
        match col {
            // Integers order through their `f64` view, as `Value::total_cmp`
            // orders them: beyond 2^53 neighbours collapse to one view and
            // the first of them seen is the bound.
            ColumnData::Int(v) => {
                for zone in v.chunks(ZONE_ROWS) {
                    let (min, max) = fold_bounds(zone, |a, b| (*a as f64).total_cmp(&(*b as f64)));
                    b.push_zone(
                        zone.len(),
                        min as f64,
                        max as f64,
                        Value::Int(min),
                        Value::Int(max),
                    );
                }
            }
            ColumnData::Float(v) => {
                for zone in v.chunks(ZONE_ROWS) {
                    let (min, max) = fold_bounds(zone, f64::total_cmp);
                    b.push_zone(zone.len(), min, max, Value::Float(min), Value::Float(max));
                }
            }
            ColumnData::Bool(_) | ColumnData::Str(_) => {
                for start in (0..col.len()).step_by(ZONE_ROWS) {
                    b.push_opaque_zone((col.len() - start).min(ZONE_ROWS));
                }
            }
        }
        b.finish()
    }

    /// Derives the zone map by running the scan's own typed fill over every
    /// morsel (the CSV/JSON fallback). The bounds are exactly the lanes the
    /// predicate kernels will compare, nulls included.
    pub fn from_typed_fill(row_count: u64, kind: TypedKind, fill: &TypedFill) -> ZoneMap {
        let mut b = ZoneBuilder::new(kind);
        let mut col = TypedColumn::new(kind);
        let mut start = 0u64;
        while start < row_count {
            let count = ((row_count - start) as usize).min(ZONE_ROWS);
            fill(start, count, &all_rows(count), &mut col);
            match kind {
                TypedKind::I64 => {
                    for (i, &x) in col.i64_values()[..count].iter().enumerate() {
                        if col.is_null(i) {
                            b.observe_null();
                        } else {
                            b.observe_value(x as f64, Value::Int(x));
                        }
                    }
                }
                TypedKind::F64 => {
                    for (i, &x) in col.f64_values()[..count].iter().enumerate() {
                        if col.is_null(i) {
                            b.observe_null();
                        } else {
                            b.observe_value(x, Value::Float(x));
                        }
                    }
                }
                TypedKind::Bool | TypedKind::Str => {
                    for i in 0..count {
                        if col.is_null(i) {
                            b.observe_null();
                        } else {
                            b.observe_opaque();
                        }
                    }
                }
            }
            start += count as u64;
        }
        b.finish()
    }

    /// Typed kind of the mapped column.
    pub fn kind(&self) -> TypedKind {
        self.kind
    }

    /// Rows covered by the map.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// All zone entries, in OID order.
    pub fn entries(&self) -> &[ZoneEntry] {
        &self.entries
    }

    /// The entry covering OID range `[zone * ZONE_ROWS, ...)`.
    pub fn entry(&self, zone: usize) -> Option<&ZoneEntry> {
        self.entries.get(zone)
    }

    /// Dataset-level statistics aggregated from the zones (min/max/nulls via
    /// [`ColumnStats::merge`]; distinct is a bounded estimate).
    pub fn column_stats(&self) -> &ColumnStats {
        &self.stats
    }
}

/// Shared get-or-derive cache used by the plug-ins whose zone maps come from
/// typed fills (CSV/JSON): already-derived columns are returned as-is,
/// missing ones are derived through `generate` and memoized.
pub fn derive_zone_maps(
    cache: &Mutex<HashMap<String, Arc<ZoneMap>>>,
    fields: &[String],
    generate: impl Fn(&[String]) -> Option<ScanAccessors>,
) -> Vec<(String, Arc<ZoneMap>)> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    {
        let cached = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for field in fields {
            match cached.get(field) {
                Some(zm) => out.push((field.clone(), zm.clone())),
                None => missing.push(field.clone()),
            }
        }
    }
    if missing.is_empty() {
        return out;
    }
    if let Some(scan) = generate(&missing) {
        let mut cached = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, fill) in &scan.fields {
            let Some((kind, fill)) = fill.typed() else {
                continue;
            };
            let zm = cached
                .entry(name.clone())
                .or_insert_with(|| Arc::new(ZoneMap::from_typed_fill(scan.row_count, kind, &fill)))
                .clone();
            out.push((name.clone(), zm));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_bounds_per_zone() {
        // Two full zones and a 5-row tail, values 0..2053.
        let col = ColumnData::Int((0..2053).collect());
        let zm = ZoneMap::from_column(&col);
        assert_eq!(zm.row_count(), 2053);
        assert_eq!(zm.entries().len(), 3);
        assert_eq!(zm.entry(0).unwrap().min, 0.0);
        assert_eq!(zm.entry(0).unwrap().max, 1023.0);
        assert_eq!(zm.entry(1).unwrap().min, 1024.0);
        assert_eq!(zm.entry(2).unwrap().rows, 5);
        assert_eq!(zm.entry(2).unwrap().max, 2052.0);
        assert!(zm.entry(3).is_none());
        let stats = zm.column_stats();
        assert_eq!(stats.min, Value::Int(0));
        assert_eq!(stats.max, Value::Int(2052));
        assert_eq!(stats.nulls, 0);
    }

    #[test]
    fn float_zone_bounds_use_the_total_order() {
        let col = ColumnData::Float(vec![0.0, -0.0, 3.5, f64::NAN, -1.0]);
        let zm = ZoneMap::from_column(&col);
        let e = zm.entry(0).unwrap();
        // NaN sorts last in the total order, -0.0 below 0.0.
        assert!(e.max.is_nan());
        assert_eq!(e.min, -1.0);
        assert!(e.numeric);
    }

    /// The builder `from_column` replaced: every row through `observe_value`.
    fn row_wise(col: &ColumnData) -> ZoneMap {
        let mut b;
        match col {
            ColumnData::Int(v) => {
                b = ZoneBuilder::new(TypedKind::I64);
                v.iter()
                    .for_each(|&x| b.observe_value(x as f64, Value::Int(x)));
            }
            ColumnData::Float(v) => {
                b = ZoneBuilder::new(TypedKind::F64);
                v.iter().for_each(|&x| b.observe_value(x, Value::Float(x)));
            }
            ColumnData::Bool(v) => {
                b = ZoneBuilder::new(TypedKind::Bool);
                v.iter().for_each(|_| b.observe_opaque());
            }
            ColumnData::Str(v) => {
                b = ZoneBuilder::new(TypedKind::Str);
                v.iter().for_each(|_| b.observe_opaque());
            }
        }
        b.finish()
    }

    /// Bit-exact rendering (NaN payloads and the sign of zero included).
    fn bits(zm: &ZoneMap) -> String {
        let value = |v: &Value| match v {
            Value::Float(x) => format!("f{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        let entries: Vec<String> = zm
            .entries()
            .iter()
            .map(|e| {
                format!(
                    "{}/{}/{:016x}/{:016x}/{}",
                    e.rows,
                    e.null_count,
                    e.min.to_bits(),
                    e.max.to_bits(),
                    e.numeric
                )
            })
            .collect();
        let s = zm.column_stats();
        format!(
            "{:?} {} {entries:?} {} {} {} {}",
            zm.kind(),
            zm.row_count(),
            value(&s.min),
            value(&s.max),
            s.distinct,
            s.nulls
        )
    }

    #[test]
    fn typed_fold_matches_the_row_wise_builder() {
        const INTS: [i64; 10] = [
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 1,
            (1 << 53) + 1,
            1 << 53,
            -(1 << 53) - 1,
            0,
            -1,
            7,
        ];
        let floats = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -2.5,
            1e300,
        ];
        for seed in 0..40u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Empty, single row, around one zone, short and full last zones.
            for len in [0usize, 1, 5, 1023, 1024, 1025, 2048, 2053, 3500] {
                // One value in four is a special; the rest vary in magnitude
                // with the seed so the bounds land on either kind.
                let int: Vec<i64> = (0..len)
                    .map(|_| match next() % 4 {
                        0 => INTS[(next() % 10) as usize],
                        _ => (next() as i64) >> (seed % 60),
                    })
                    .collect();
                let float: Vec<f64> = (0..len)
                    .map(|_| match next() % 4 {
                        0 => floats[(next() % 10) as usize],
                        _ => ((next() as i64) >> (seed % 60)) as f64 / 8.0,
                    })
                    .collect();
                for col in [
                    ColumnData::Int(int),
                    ColumnData::Float(float),
                    ColumnData::Bool(vec![true; len]),
                    ColumnData::Str(vec!["s".to_string(); len]),
                ] {
                    assert_eq!(
                        bits(&ZoneMap::from_column(&col)),
                        bits(&row_wise(&col)),
                        "seed {seed}, {len} rows of {:?}",
                        col.data_type()
                    );
                }
            }
        }
    }

    #[test]
    fn typed_fill_derivation_tracks_nulls() {
        // A fill that nulls every third row.
        let fill: TypedFill = Arc::new(|start, count, sel: &[u32], out: &mut TypedColumn| {
            out.fill_selected(TypedKind::I64, count, sel, |out, row| {
                let oid = start + u64::from(row);
                if oid % 3 == 0 {
                    out.push_null();
                } else {
                    out.push_i64(oid as i64);
                }
            });
        });
        let zm = ZoneMap::from_typed_fill(2000, TypedKind::I64, &fill);
        assert_eq!(zm.entries().len(), 2);
        let e0 = zm.entry(0).unwrap();
        assert_eq!(e0.rows, 1024);
        assert_eq!(e0.null_count, 342); // ceil(1024/3)
        assert!(!e0.all_null());
        assert_eq!(e0.min, 1.0);
        assert_eq!(
            zm.column_stats().nulls,
            342 + zm.entry(1).unwrap().null_count as u64
        );
    }

    #[test]
    fn all_null_zone_is_marked() {
        let fill: TypedFill = Arc::new(|_, count, sel: &[u32], out: &mut TypedColumn| {
            out.fill_selected(TypedKind::F64, count, sel, |out, _| out.push_null());
        });
        let zm = ZoneMap::from_typed_fill(100, TypedKind::F64, &fill);
        let e = zm.entry(0).unwrap();
        assert!(e.all_null());
        assert!(!e.numeric);
        assert_eq!(e.non_null(), 0);
        assert_eq!(zm.column_stats().min, Value::Null);
    }

    #[test]
    fn opaque_kinds_track_rows_only() {
        let col = ColumnData::Str(vec!["a".into(), "b".into()]);
        let zm = ZoneMap::from_column(&col);
        let e = zm.entry(0).unwrap();
        assert_eq!(e.rows, 2);
        assert!(!e.numeric);
    }
}
