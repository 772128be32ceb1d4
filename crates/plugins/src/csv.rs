//! The CSV input plug-in.
//!
//! §5.2: "For CSV datasets, structural indexes store the binary positions of
//! a number of data columns in each row. Proteus stores the position of every
//! Nth field of the file (e.g., if N=10, it stores the positions of the 1st,
//! 11th, ... fields). When looking for a field, Proteus locates the closest
//! indexed field position and starts seeking from that point." And: "if a CSV
//! file contains fixed-length entries, Proteus deterministically computes
//! field positions and injects them in the code instead of using a structural
//! index."
//!
//! Both access paths are implemented here; `generate()` picks the
//! deterministic one automatically when the file qualifies.

use std::sync::Arc;

use bytes::Bytes;
use proteus_algebra::{DataType, Schema, Value};
use proteus_storage::{MemoryManager, SourceFormat};

use crate::api::{
    BadRowPolicy, BatchFill, FieldFill, InputPlugin, Oid, ScanAccessors, TypedColumn, TypedFill,
    TypedKind,
};
use crate::error::{PluginError, Result};
use crate::stats::{CostProfile, DatasetStats, StatsCollector};
use crate::zonemap::{derive_zone_maps, ZoneMap};

/// CSV parsing options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter.
    pub delimiter: u8,
    /// Whether the first line is a header naming the columns.
    pub has_header: bool,
    /// Store the byte position of every `index_every`-th field of each row
    /// (the paper's "N").
    pub index_every: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b'|',
            has_header: false,
            index_every: 5,
        }
    }
}

/// The CSV structural index: per-row byte offsets plus the positions of every
/// Nth field within each row.
#[derive(Debug, Clone)]
pub struct CsvStructuralIndex {
    /// Byte offset of the start of each data row.
    row_offsets: Vec<u64>,
    /// Byte length of each data row (excluding the newline).
    row_lengths: Vec<u32>,
    /// For each row, the offsets (relative to the row start) of fields
    /// `0, N, 2N, ...`, flattened row-major.
    anchor_offsets: Vec<u32>,
    /// Number of anchors per row.
    anchors_per_row: usize,
    /// The index stride N.
    index_every: usize,
    /// When every row has byte-identical field positions, the shared offsets
    /// of *all* fields (deterministic fast path); the per-row anchors are
    /// then redundant.
    fixed_layout: Option<Vec<u32>>,
}

impl CsvStructuralIndex {
    /// Builds the index in a single pass over the file.
    pub fn build(data: &[u8], options: &CsvOptions) -> CsvStructuralIndex {
        let mut row_offsets = Vec::new();
        let mut row_lengths = Vec::new();
        let mut anchor_offsets = Vec::new();
        let mut anchors_per_row = 0;
        let mut fixed_layout: Option<Vec<u32>> = None;
        let mut layout_is_fixed = true;

        let mut pos = 0usize;
        let mut first_data_row = true;
        let mut row_index = 0usize;
        while pos < data.len() {
            let line_end = memchr(data, b'\n', pos).unwrap_or(data.len());
            let is_header = options.has_header
                && row_index == 0
                && row_offsets.is_empty()
                && first_data_row_is_header(options);
            row_index += 1;
            if !is_header && line_end > pos {
                let row_start = pos;
                row_offsets.push(row_start as u64);
                row_lengths.push((line_end - pos) as u32);
                // Record field offsets for this row.
                let mut offsets_this_row = Vec::new();
                let mut field_idx = 0usize;
                let mut cursor = pos;
                loop {
                    offsets_this_row.push((cursor - row_start) as u32);
                    field_idx += 1;
                    match memchr_bounded(data, options.delimiter, cursor, line_end) {
                        Some(delim) => cursor = delim + 1,
                        None => break,
                    }
                }
                let _ = field_idx;
                // Anchors: every Nth field offset.
                let anchors: Vec<u32> = offsets_this_row
                    .iter()
                    .step_by(options.index_every.max(1))
                    .copied()
                    .collect();
                if first_data_row {
                    anchors_per_row = anchors.len();
                    fixed_layout = Some(offsets_this_row.clone());
                    first_data_row = false;
                } else if layout_is_fixed
                    && (fixed_layout.as_deref() != Some(&offsets_this_row[..])
                        || row_lengths.first() != row_lengths.last())
                {
                    layout_is_fixed = false;
                    fixed_layout = None;
                }
                anchor_offsets.extend(anchors.iter().take(anchors_per_row));
                // Pad if this row had fewer fields than the first one.
                while anchor_offsets.len() % anchors_per_row.max(1) != 0 {
                    anchor_offsets.push(*anchors.last().unwrap_or(&0));
                }
            }
            pos = line_end + 1;
        }
        if !layout_is_fixed {
            fixed_layout = None;
        }
        CsvStructuralIndex {
            row_offsets,
            row_lengths,
            anchor_offsets,
            anchors_per_row: anchors_per_row.max(1),
            index_every: options.index_every.max(1),
            fixed_layout,
        }
    }

    /// Number of indexed rows.
    pub fn row_count(&self) -> usize {
        self.row_offsets.len()
    }

    /// True when the deterministic fixed-layout fast path applies.
    pub fn is_fixed_layout(&self) -> bool {
        self.fixed_layout.is_some()
    }

    /// Approximate index footprint in bytes (reported against the ~17 % of
    /// file size the paper cites for the Symantec CSV input).
    pub fn size_bytes(&self) -> usize {
        if self.is_fixed_layout() {
            // Deterministic mode drops the per-row anchors.
            self.row_offsets.len() * 8
                + self.fixed_layout.as_ref().map(|v| v.len() * 4).unwrap_or(0)
        } else {
            self.row_offsets.len() * 8 + self.row_lengths.len() * 4 + self.anchor_offsets.len() * 4
        }
    }

    /// Drops the rows flagged in `bad` (same length as `row_count()`) from
    /// the index: the `Skip` bad-row policy. The deterministic fixed layout,
    /// when present, still holds for the surviving rows (they all matched
    /// the first row's layout), so it is kept as-is.
    fn retain_rows(&mut self, bad: &[bool]) {
        let keep = |i: &usize| !bad[*i];
        self.row_offsets = (0..self.row_offsets.len())
            .filter(keep)
            .map(|i| self.row_offsets[i])
            .collect();
        self.row_lengths = (0..self.row_lengths.len())
            .filter(keep)
            .map(|i| self.row_lengths[i])
            .collect();
        let per_row = self.anchors_per_row.max(1);
        self.anchor_offsets = self
            .anchor_offsets
            .chunks(per_row)
            .enumerate()
            .filter(|(i, _)| !bad.get(*i).copied().unwrap_or(false))
            .flat_map(|(_, chunk)| chunk.iter().copied())
            .collect();
    }

    /// Byte range `[start, end)` of field `field_idx` of row `row_idx`.
    pub fn locate_field(
        &self,
        data: &[u8],
        delimiter: u8,
        row_idx: usize,
        field_idx: usize,
    ) -> Option<(usize, usize)> {
        let row_start = *self.row_offsets.get(row_idx)? as usize;
        let row_end = row_start + *self.row_lengths.get(row_idx)? as usize;

        let mut cursor;
        let mut remaining;
        if let Some(layout) = &self.fixed_layout {
            // Deterministic layout: field offset injected directly.
            let offset = *layout.get(field_idx)? as usize;
            cursor = row_start + offset;
            remaining = 0;
        } else {
            // Start from the closest anchored field at or before field_idx.
            let anchor_slot = (field_idx / self.index_every).min(self.anchors_per_row - 1);
            let anchor = self.anchor_offsets[row_idx * self.anchors_per_row + anchor_slot] as usize;
            cursor = row_start + anchor;
            remaining = field_idx - anchor_slot * self.index_every;
        }
        while remaining > 0 {
            cursor = memchr_bounded(data, delimiter, cursor, row_end)? + 1;
            remaining -= 1;
        }
        let end = memchr_bounded(data, delimiter, cursor, row_end).unwrap_or(row_end);
        Some((cursor, end))
    }
}

fn first_data_row_is_header(options: &CsvOptions) -> bool {
    options.has_header
}

fn memchr(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
    haystack[from..]
        .iter()
        .position(|b| *b == needle)
        .map(|p| p + from)
}

fn memchr_bounded(haystack: &[u8], needle: u8, from: usize, to: usize) -> Option<usize> {
    haystack[from..to]
        .iter()
        .position(|b| *b == needle)
        .map(|p| p + from)
}

struct CsvInner {
    dataset: String,
    data: Bytes,
    schema: Schema,
    options: CsvOptions,
    index: CsvStructuralIndex,
    stats: DatasetStats,
    /// Rows dropped (`Skip`) or nulled (`Null`) at registration.
    bad_rows: u64,
    /// Lazily derived per-morsel zone maps (one extra parse pass per column,
    /// memoized for the plug-in's lifetime).
    zone_maps: std::sync::Mutex<std::collections::HashMap<String, Arc<ZoneMap>>>,
}

/// The CSV input plug-in.
#[derive(Clone)]
pub struct CsvPlugin {
    inner: Arc<CsvInner>,
}

impl CsvPlugin {
    /// Opens a CSV file through the memory manager and builds its structural
    /// index and statistics (the "cold access" work of §5.2).
    pub fn open(
        dataset: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        schema: Schema,
        options: CsvOptions,
        memory: &MemoryManager,
    ) -> Result<CsvPlugin> {
        Self::open_with_policy(dataset, path, schema, options, memory, BadRowPolicy::Null)
    }

    /// [`CsvPlugin::open`] with an explicit bad-row policy.
    pub fn open_with_policy(
        dataset: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        schema: Schema,
        options: CsvOptions,
        memory: &MemoryManager,
        policy: BadRowPolicy,
    ) -> Result<CsvPlugin> {
        let data = memory.map_file(path)?;
        Self::from_bytes_with_policy(dataset, data, schema, options, policy)
    }

    /// Builds a plug-in over an in-memory CSV buffer. Rows that fail to
    /// parse keep their historical lenient semantics (typed misses read as
    /// null, i.e. [`BadRowPolicy::Null`]); use
    /// [`CsvPlugin::from_bytes_with_policy`] to reject or drop them instead.
    pub fn from_bytes(
        dataset: impl Into<String>,
        data: Bytes,
        schema: Schema,
        options: CsvOptions,
    ) -> Result<CsvPlugin> {
        Self::from_bytes_with_policy(dataset, data, schema, options, BadRowPolicy::Null)
    }

    /// [`CsvPlugin::from_bytes`] with an explicit bad-row policy, applied
    /// during the registration-time index/validation pass (§5.2's "cold
    /// access" work — query hot paths never re-validate).
    pub fn from_bytes_with_policy(
        dataset: impl Into<String>,
        data: Bytes,
        schema: Schema,
        options: CsvOptions,
        policy: BadRowPolicy,
    ) -> Result<CsvPlugin> {
        let dataset = dataset.into();
        let mut index = CsvStructuralIndex::build(&data, &options);
        let bad_rows = validate_rows(&dataset, &data, &schema, &options, &mut index, policy)?;
        let stats = collect_stats(&data, &schema, &options, &index);
        Ok(CsvPlugin {
            inner: Arc::new(CsvInner {
                dataset,
                data,
                schema,
                options,
                index,
                stats,
                bad_rows,
                zone_maps: Default::default(),
            }),
        })
    }

    /// Rows skipped or nulled at registration under a lenient
    /// [`BadRowPolicy`].
    pub fn bad_rows(&self) -> u64 {
        self.inner.bad_rows
    }

    /// The structural index (exposed for the index-size experiments).
    pub fn structural_index(&self) -> &CsvStructuralIndex {
        &self.inner.index
    }

    fn field_index(&self, field: &str) -> Result<usize> {
        self.inner
            .schema
            .index_of(field)
            .ok_or_else(|| PluginError::UnknownField {
                dataset: self.inner.dataset.clone(),
                field: field.to_string(),
            })
    }

    fn raw_field(&self, oid: Oid, field_idx: usize) -> Result<&[u8]> {
        let inner = &self.inner;
        let (start, end) = inner
            .index
            .locate_field(
                &inner.data,
                inner.options.delimiter,
                oid as usize,
                field_idx,
            )
            .ok_or(PluginError::OidOutOfRange {
                dataset: inner.dataset.clone(),
                oid,
            })?;
        Ok(&inner.data[start..end])
    }

    fn parse_field(&self, bytes: &[u8], data_type: &DataType) -> Value {
        parse_typed(bytes, data_type)
    }
}

fn parse_typed(bytes: &[u8], data_type: &DataType) -> Value {
    let text = std::str::from_utf8(bytes).unwrap_or("").trim();
    if text.is_empty() {
        return Value::Null;
    }
    match data_type {
        DataType::Int | DataType::Date => {
            text.parse::<i64>().map(Value::Int).unwrap_or(Value::Null)
        }
        DataType::Float => text.parse::<f64>().map(Value::Float).unwrap_or(Value::Null),
        DataType::Bool => parse_bool(text).map_or(Value::Null, Value::Bool),
        _ => Value::Str(text.to_string()),
    }
}

fn parse_bool(text: &str) -> Option<bool> {
    match text {
        "true" | "1" | "t" => Some(true),
        "false" | "0" | "f" => Some(false),
        _ => None,
    }
}

/// Appends one raw field to a typed lane under [`parse_typed`]'s rule,
/// without the intermediate `Value`.
fn push_field(out: &mut TypedColumn, bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).unwrap_or("").trim();
    let pushed = !text.is_empty()
        && match out.kind() {
            TypedKind::I64 => text.parse().map(|v| out.push_i64(v)).is_ok(),
            TypedKind::F64 => text.parse().map(|v| out.push_f64(v)).is_ok(),
            TypedKind::Bool => parse_bool(text).map(|v| out.push_bool(v)).is_some(),
            TypedKind::Str => {
                out.push_str(text);
                true
            }
        };
    if !pushed {
        out.push_null();
    }
}

/// The registration-time validation pass behind [`BadRowPolicy`]: finds
/// rows whose non-empty typed fields cannot parse (or that are short a
/// field / not valid UTF-8). `Fail` rejects the dataset with the 1-based
/// file line number of the first defect; `Skip` drops the rows from the
/// structural index; `Null` keeps them (typed misses already read as null
/// on the access paths). Returns the number of bad rows seen.
fn validate_rows(
    dataset: &str,
    data: &[u8],
    schema: &Schema,
    options: &CsvOptions,
    index: &mut CsvStructuralIndex,
    policy: BadRowPolicy,
) -> Result<u64> {
    let mut bad = vec![false; index.row_count()];
    let mut bad_count = 0u64;
    for (row, flag) in bad.iter_mut().enumerate() {
        if let Some(defect) = row_defect(data, schema, options, index, row) {
            if policy == BadRowPolicy::Fail {
                let line = row + 1 + usize::from(options.has_header);
                return Err(PluginError::Malformed {
                    dataset: dataset.to_string(),
                    detail: format!("row {line}: {defect}"),
                });
            }
            *flag = true;
            bad_count += 1;
        }
    }
    if policy == BadRowPolicy::Skip && bad_count > 0 {
        index.retain_rows(&bad);
    }
    Ok(bad_count)
}

/// The first defect of a row, if any. Empty fields are *not* defects —
/// they are the format's missing-value convention and read as null under
/// every policy.
fn row_defect(
    data: &[u8],
    schema: &Schema,
    options: &CsvOptions,
    index: &CsvStructuralIndex,
    row: usize,
) -> Option<String> {
    for (idx, field) in schema.fields().iter().enumerate() {
        let Some((start, end)) = index.locate_field(data, options.delimiter, row, idx) else {
            return Some(format!("field `{}` is missing", field.name));
        };
        let Ok(text) = std::str::from_utf8(&data[start..end]) else {
            return Some(format!("field `{}` is not valid UTF-8", field.name));
        };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let parses = match field.data_type {
            DataType::Int | DataType::Date => text.parse::<i64>().is_ok(),
            DataType::Float => text.parse::<f64>().is_ok(),
            DataType::Bool => parse_bool(text).is_some(),
            _ => true,
        };
        if !parses {
            return Some(format!(
                "field `{}`: cannot parse {:?} as {:?}",
                field.name, text, field.data_type
            ));
        }
    }
    None
}

fn collect_stats(
    data: &[u8],
    schema: &Schema,
    options: &CsvOptions,
    index: &CsvStructuralIndex,
) -> DatasetStats {
    let mut collectors: Vec<StatsCollector> = schema
        .fields()
        .iter()
        .map(|_| StatsCollector::new())
        .collect();
    // Numeric columns only: string min/max are rarely useful and the paper
    // avoids caching/propagating verbose string values.
    for row in 0..index.row_count() {
        for (idx, field) in schema.fields().iter().enumerate() {
            if !field.data_type.is_numeric() {
                continue;
            }
            if let Some((start, end)) = index.locate_field(data, options.delimiter, row, idx) {
                collectors[idx].observe(&parse_typed(&data[start..end], &field.data_type));
            }
        }
    }
    let mut stats = DatasetStats::with_cardinality(index.row_count() as u64);
    for (collector, field) in collectors.into_iter().zip(schema.fields()) {
        if field.data_type.is_numeric() {
            stats.columns.insert(field.name.clone(), collector.finish());
        }
    }
    stats
}

impl InputPlugin for CsvPlugin {
    fn dataset(&self) -> &str {
        &self.inner.dataset
    }

    fn format(&self) -> SourceFormat {
        SourceFormat::Csv
    }

    fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    fn len(&self) -> u64 {
        self.inner.index.row_count() as u64
    }

    fn generate(&self, fields: &[String]) -> Result<ScanAccessors> {
        crate::fault::check("csv.decode").map_err(|detail| PluginError::Malformed {
            dataset: self.inner.dataset.clone(),
            detail,
        })?;
        let mut fills = Vec::with_capacity(fields.len());
        for field in fields {
            let field_idx = self.field_index(field)?;
            let data_type = self
                .inner
                .schema
                .field(field)
                .ok_or_else(|| PluginError::UnknownField {
                    dataset: self.inner.dataset.clone(),
                    field: field.clone(),
                })?
                .data_type
                .clone();
            let plugin = self.clone();
            let kind = match data_type {
                DataType::Int | DataType::Date => TypedKind::I64,
                DataType::Float => TypedKind::F64,
                DataType::Bool => TypedKind::Bool,
                DataType::String => TypedKind::Str,
                // Records, collections and `Any` have no typed lane.
                other => {
                    let fill: BatchFill = Arc::new(move |start, count, out, base, stride| {
                        for i in 0..count {
                            let bytes = plugin.raw_field(start + i as Oid, field_idx);
                            out[base + i * stride] =
                                bytes.map_or(Value::Null, |b| parse_typed(b, &other));
                        }
                    });
                    fills.push((field.clone(), FieldFill::Values(fill)));
                    continue;
                }
            };
            // Scalar fields parse straight into the typed lane under
            // `parse_typed`'s rule: an empty or unparseable field is a null
            // bit, which the row-major form reads as `Value::Null`. Only the
            // selected rows' fields are located and parsed.
            let fill: TypedFill =
                Arc::new(move |start, count, sel: &[u32], out: &mut TypedColumn| {
                    out.fill_selected(kind, count, sel, |out, row| {
                        push_field(
                            out,
                            plugin
                                .raw_field(start + Oid::from(row), field_idx)
                                .unwrap_or(b""),
                        )
                    });
                });
            fills.push((field.clone(), FieldFill::Typed(kind, fill)));
        }
        let access_path = if self.inner.index.is_fixed_layout() {
            "csv(deterministic fixed layout)".to_string()
        } else {
            format!("csv(structural-index N={})", self.inner.options.index_every)
        };
        let scan = ScanAccessors {
            row_count: self.len(),
            fields: fills,
            access_path,
            bad_rows: self.inner.bad_rows,
        };
        Ok(crate::fault::instrument_scan(scan, "csv.decode"))
    }

    fn read_value(&self, oid: Oid, field: &str) -> Result<Value> {
        let idx = self.field_index(field)?;
        let data_type = self
            .inner
            .schema
            .field_at(idx)
            .ok_or_else(|| PluginError::UnknownField {
                dataset: self.inner.dataset.clone(),
                field: field.to_string(),
            })?
            .data_type
            .clone();
        let bytes = self.raw_field(oid, idx)?;
        Ok(self.parse_field(bytes, &data_type))
    }

    fn read_path(&self, oid: Oid, path: &[String]) -> Result<Value> {
        // CSV is flat: only single-segment paths are meaningful.
        match path {
            [field] => self.read_value(oid, field),
            _ => Err(PluginError::Unsupported(format!(
                "CSV data has no nested path {:?}",
                path.join(".")
            ))),
        }
    }

    fn statistics(&self) -> DatasetStats {
        self.inner.stats.clone()
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::csv()
    }

    fn zone_maps(&self, fields: &[String]) -> Vec<(String, Arc<ZoneMap>)> {
        derive_zone_maps(&self.inner.zone_maps, fields, |missing| {
            self.generate(missing).ok()
        })
    }

    fn cached_zone_maps(&self) -> Vec<(String, Arc<ZoneMap>)> {
        self.inner
            .zone_maps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(n, zm)| (n.clone(), zm.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem_schema() -> Schema {
        Schema::from_pairs(vec![
            ("l_orderkey", DataType::Int),
            ("l_linenumber", DataType::Int),
            ("l_quantity", DataType::Float),
            ("l_comment", DataType::String),
        ])
    }

    fn sample_csv() -> String {
        let mut s = String::new();
        for i in 0..50 {
            s.push_str(&format!(
                "{}|{}|{}|comment {}\n",
                i,
                i % 7,
                i as f64 * 1.5,
                i
            ));
        }
        s
    }

    fn plugin() -> CsvPlugin {
        CsvPlugin::from_bytes(
            "lineitem",
            Bytes::from(sample_csv()),
            lineitem_schema(),
            CsvOptions {
                delimiter: b'|',
                has_header: false,
                index_every: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn row_count_and_schema() {
        let p = plugin();
        assert_eq!(p.len(), 50);
        assert_eq!(p.schema().len(), 4);
        assert_eq!(p.format(), SourceFormat::Csv);
    }

    #[test]
    fn read_value_parses_types() {
        let p = plugin();
        assert_eq!(p.read_value(3, "l_orderkey").unwrap(), Value::Int(3));
        assert_eq!(p.read_value(3, "l_quantity").unwrap(), Value::Float(4.5));
        assert_eq!(
            p.read_value(3, "l_comment").unwrap(),
            Value::Str("comment 3".into())
        );
    }

    #[test]
    fn unknown_field_and_oid_errors() {
        let p = plugin();
        assert!(matches!(
            p.read_value(0, "ghost"),
            Err(PluginError::UnknownField { .. })
        ));
        assert!(matches!(
            p.read_value(9999, "l_orderkey"),
            Err(PluginError::OidOutOfRange { .. })
        ));
    }

    #[test]
    fn generated_accessors_match_read_value() {
        let p = plugin();
        let scan = p
            .generate(&["l_orderkey".to_string(), "l_quantity".to_string()])
            .unwrap();
        assert_eq!(scan.row_count, 50);
        let mut out = vec![Value::Null; 100];
        for (slot, field) in ["l_orderkey", "l_quantity"].into_iter().enumerate() {
            scan.fill(field).unwrap().values()(0, 50, &mut out, slot, 2);
            for oid in 0..50u64 {
                assert_eq!(
                    out[oid as usize * 2 + slot],
                    p.read_value(oid, field).unwrap()
                );
            }
        }
    }

    #[test]
    fn header_rows_are_skipped() {
        let csv = "a|b\n1|2\n3|4\n";
        let p = CsvPlugin::from_bytes(
            "t",
            Bytes::from(csv),
            Schema::from_pairs(vec![("a", DataType::Int), ("b", DataType::Int)]),
            CsvOptions {
                delimiter: b'|',
                has_header: true,
                index_every: 1,
            },
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.read_value(0, "a").unwrap(), Value::Int(1));
    }

    #[test]
    fn statistics_cover_numeric_columns() {
        let p = plugin();
        let stats = p.statistics();
        assert_eq!(stats.cardinality, 50);
        let key = stats.column("l_orderkey").unwrap();
        assert_eq!(key.min, Value::Int(0));
        assert_eq!(key.max, Value::Int(49));
        assert!(stats.column("l_comment").is_none());
    }

    #[test]
    fn fixed_layout_detected_only_when_uniform() {
        // All rows identical widths → deterministic layout.
        let uniform = "11|22|33\n44|55|66\n77|88|99\n";
        let p = CsvPlugin::from_bytes(
            "u",
            Bytes::from(uniform),
            Schema::from_pairs(vec![
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::Int),
            ]),
            CsvOptions {
                delimiter: b'|',
                has_header: false,
                index_every: 2,
            },
        )
        .unwrap();
        assert!(p.structural_index().is_fixed_layout());
        assert!(p
            .generate(&["a".into()])
            .unwrap()
            .access_path
            .contains("deterministic"));

        // Variable-length rows → structural index path.
        let p = plugin();
        assert!(!p.structural_index().is_fixed_layout());
        assert!(p
            .generate(&["l_orderkey".into()])
            .unwrap()
            .access_path
            .contains("structural-index"));
    }

    #[test]
    fn missing_values_become_null() {
        let csv = "1||x\n";
        let p = CsvPlugin::from_bytes(
            "t",
            Bytes::from(csv),
            Schema::from_pairs(vec![
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::String),
            ]),
            CsvOptions {
                delimiter: b'|',
                has_header: false,
                index_every: 1,
            },
        )
        .unwrap();
        assert_eq!(p.read_value(0, "b").unwrap(), Value::Null);
        assert_eq!(p.read_value(0, "c").unwrap(), Value::Str("x".into()));
    }

    #[test]
    fn nested_paths_are_unsupported_for_flat_csv() {
        let p = plugin();
        assert!(p.read_path(0, &["a".to_string(), "b".to_string()]).is_err());
    }

    #[test]
    fn index_size_is_reported() {
        let p = plugin();
        assert!(p.structural_index().size_bytes() > 0);
    }

    #[test]
    fn hash_and_flush_defaults_work() {
        let p = plugin();
        let h1 = p.hash_value(1, "l_orderkey").unwrap();
        let h2 = p.hash_value(1, "l_orderkey").unwrap();
        assert_eq!(h1, h2);
        let mut out = String::new();
        p.flush_value(1, "l_orderkey", &mut out).unwrap();
        assert_eq!(out, "1");
    }
}
