//! Input plug-ins for relational binary data (row- and column-oriented).
//!
//! §5.2: "For binary relational data, an input plug-in generates code reading
//! the memory positions of the required data fields." The column plug-in
//! wraps a [`ColumnTable`] directory (binary column files "similar to the
//! ones of MonetDB"); the row plug-in wraps a [`RowTableReader`] and computes
//! field positions with fixed-stride address arithmetic.

use std::collections::HashMap;
use std::sync::Arc;

use proteus_algebra::{DataType, Schema, Value};
use proteus_storage::{ColumnData, ColumnTable, MemoryManager, RowTableReader, SourceFormat};

use crate::api::{FieldFill, InputPlugin, Oid, ScanAccessors, TypedColumn, TypedFill, TypedKind};
use crate::error::{PluginError, Result};
use crate::stats::{CostProfile, DatasetStats, StatsCollector};
use crate::zonemap::{derive_zone_maps, ZoneMap};

// ---------------------------------------------------------------------------
// Column-oriented plug-in.
// ---------------------------------------------------------------------------

struct ColumnInner {
    dataset: String,
    schema: Schema,
    row_count: u64,
    columns: HashMap<String, Arc<ColumnData>>,
    stats: DatasetStats,
    /// Per-morsel zone maps, recorded once at registration time. The
    /// dataset-level `stats` above are aggregated from these.
    zone_maps: HashMap<String, Arc<ZoneMap>>,
}

/// Plug-in over binary column files.
#[derive(Clone)]
pub struct ColumnPlugin {
    inner: Arc<ColumnInner>,
}

impl ColumnPlugin {
    /// Opens a column-table directory, loading every column eagerly (the
    /// files are binary and compact; the paper's experiments run over warm
    /// OS caches).
    pub fn open(
        dataset: impl Into<String>,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<ColumnPlugin> {
        let table = ColumnTable::open(dir)?;
        let mut columns = HashMap::new();
        for field in table.schema.fields() {
            columns.insert(
                field.name.clone(),
                Arc::new(table.read_column(&field.name)?),
            );
        }
        Self::from_columns(dataset, table.schema.clone(), columns)
    }

    /// Builds a plug-in from already-materialized columns.
    pub fn from_columns(
        dataset: impl Into<String>,
        schema: Schema,
        columns: HashMap<String, Arc<ColumnData>>,
    ) -> Result<ColumnPlugin> {
        let dataset = dataset.into();
        let row_count = columns.values().next().map(|c| c.len() as u64).unwrap_or(0);
        for (name, col) in &columns {
            if col.len() as u64 != row_count {
                return Err(PluginError::Malformed {
                    dataset,
                    detail: format!("column {name} length mismatch"),
                });
            }
        }
        // One registration-time pass per column records the per-morsel zone
        // maps; the dataset-level statistics are aggregated from the same
        // pass (no separate min/max scan).
        let zone_maps: HashMap<String, Arc<ZoneMap>> = columns
            .iter()
            .map(|(name, col)| (name.clone(), Arc::new(ZoneMap::from_column(col))))
            .collect();
        let mut stats = DatasetStats::with_cardinality(row_count);
        for field in schema.fields() {
            if !field.data_type.is_numeric() {
                continue;
            }
            if let Some(zm) = zone_maps.get(&field.name) {
                stats
                    .columns
                    .insert(field.name.clone(), zm.column_stats().clone());
            }
        }
        Ok(ColumnPlugin {
            inner: Arc::new(ColumnInner {
                dataset,
                schema,
                row_count,
                columns,
                stats,
                zone_maps,
            }),
        })
    }

    /// Builds a plug-in directly from `(name, column)` pairs (used by the
    /// data generators and tests).
    pub fn from_pairs(
        dataset: impl Into<String>,
        pairs: Vec<(String, ColumnData)>,
    ) -> Result<ColumnPlugin> {
        let schema = Schema::new(
            pairs
                .iter()
                .map(|(n, c)| proteus_algebra::Field::new(n.clone(), c.data_type()))
                .collect(),
        );
        let columns = pairs.into_iter().map(|(n, c)| (n, Arc::new(c))).collect();
        Self::from_columns(dataset, schema, columns)
    }

    /// Shared handle to one raw column (used by the column-store baselines so
    /// that every engine reads the same buffers).
    pub fn column(&self, name: &str) -> Option<Arc<ColumnData>> {
        self.inner.columns.get(name).cloned()
    }
}

impl InputPlugin for ColumnPlugin {
    fn dataset(&self) -> &str {
        &self.inner.dataset
    }

    fn format(&self) -> SourceFormat {
        SourceFormat::Binary
    }

    fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    fn len(&self) -> u64 {
        self.inner.row_count
    }

    fn generate(&self, fields: &[String]) -> Result<ScanAccessors> {
        crate::fault::check("binary.decode").map_err(|detail| PluginError::Malformed {
            dataset: self.inner.dataset.clone(),
            detail,
        })?;
        let mut fills = Vec::with_capacity(fields.len());
        for field in fields {
            let column = self.inner.columns.get(field).cloned().ok_or_else(|| {
                PluginError::UnknownField {
                    dataset: self.inner.dataset.clone(),
                    field: field.clone(),
                }
            })?;
            // Both tiers copy straight out of the raw column: a strided
            // `Value` copy or a typed lane copy, per (field, morsel).
            fills.push((field.clone(), FieldFill::Column(column)));
        }
        Ok(crate::fault::instrument_scan(
            ScanAccessors {
                row_count: self.len(),
                fields: fills,
                access_path: "binary-columns(direct positional reads)".into(),
                bad_rows: 0,
            },
            "binary.decode",
        ))
    }

    fn read_value(&self, oid: Oid, field: &str) -> Result<Value> {
        let column = self
            .inner
            .columns
            .get(field)
            .ok_or_else(|| PluginError::UnknownField {
                dataset: self.inner.dataset.clone(),
                field: field.to_string(),
            })?;
        column
            .value_at(oid as usize)
            .ok_or(PluginError::OidOutOfRange {
                dataset: self.inner.dataset.clone(),
                oid,
            })
    }

    fn read_path(&self, oid: Oid, path: &[String]) -> Result<Value> {
        match path {
            [field] => self.read_value(oid, field),
            _ => Err(PluginError::Unsupported(
                "binary relational data has no nested paths".into(),
            )),
        }
    }

    fn statistics(&self) -> DatasetStats {
        self.inner.stats.clone()
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::binary()
    }

    fn zone_maps(&self, fields: &[String]) -> Vec<(String, Arc<ZoneMap>)> {
        fields
            .iter()
            .filter_map(|f| {
                self.inner
                    .zone_maps
                    .get(f)
                    .map(|zm| (f.clone(), zm.clone()))
            })
            .collect()
    }

    fn cached_zone_maps(&self) -> Vec<(String, Arc<ZoneMap>)> {
        self.inner
            .zone_maps
            .iter()
            .map(|(n, zm)| (n.clone(), zm.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Row-oriented plug-in.
// ---------------------------------------------------------------------------

struct RowInner {
    dataset: String,
    reader: RowTableReader,
    stats: DatasetStats,
    /// Zone maps derived from the typed fills on first request, memoized.
    zone_maps: std::sync::Mutex<HashMap<String, Arc<ZoneMap>>>,
}

/// Plug-in over the binary row format.
#[derive(Clone)]
pub struct RowPlugin {
    inner: Arc<RowInner>,
}

impl RowPlugin {
    /// Opens a binary row file through the memory manager.
    pub fn open(
        dataset: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        memory: &MemoryManager,
    ) -> Result<RowPlugin> {
        let data = memory.map_file(path)?;
        let reader = RowTableReader::open(data)?;
        Ok(Self::from_reader(dataset, reader))
    }

    /// Builds a plug-in from an already-open reader.
    pub fn from_reader(dataset: impl Into<String>, reader: RowTableReader) -> RowPlugin {
        let dataset = dataset.into();
        let stats = row_stats(&reader);
        RowPlugin {
            inner: Arc::new(RowInner {
                dataset,
                reader,
                stats,
                zone_maps: Default::default(),
            }),
        }
    }

    fn field_index(&self, field: &str) -> Result<usize> {
        self.inner
            .reader
            .schema()
            .index_of(field)
            .ok_or_else(|| PluginError::UnknownField {
                dataset: self.inner.dataset.clone(),
                field: field.to_string(),
            })
    }
}

fn row_stats(reader: &RowTableReader) -> DatasetStats {
    let mut stats = DatasetStats::with_cardinality(reader.row_count() as u64);
    for (idx, field) in reader.schema().fields().iter().enumerate() {
        if !field.data_type.is_numeric() {
            continue;
        }
        let mut collector = StatsCollector::new();
        for row in 0..reader.row_count() {
            if let Ok(v) = reader.read_value(row, idx) {
                collector.observe(&v);
            }
        }
        stats.columns.insert(field.name.clone(), collector.finish());
    }
    stats
}

impl InputPlugin for RowPlugin {
    fn dataset(&self) -> &str {
        &self.inner.dataset
    }

    fn format(&self) -> SourceFormat {
        SourceFormat::Binary
    }

    fn schema(&self) -> &Schema {
        self.inner.reader.schema()
    }

    fn len(&self) -> u64 {
        self.inner.reader.row_count() as u64
    }

    fn generate(&self, fields: &[String]) -> Result<ScanAccessors> {
        crate::fault::check("binary.decode").map_err(|detail| PluginError::Malformed {
            dataset: self.inner.dataset.clone(),
            detail,
        })?;
        let mut fills = Vec::with_capacity(fields.len());
        for field in fields {
            let field_idx = self.field_index(field)?;
            let data_type = self
                .inner
                .reader
                .schema()
                .field_at(field_idx)
                .ok_or_else(|| PluginError::UnknownField {
                    dataset: self.inner.dataset.clone(),
                    field: field.clone(),
                })?
                .data_type
                .clone();
            // Fixed-stride address arithmetic straight into the typed lane.
            let kind = match data_type {
                DataType::Int | DataType::Date => TypedKind::I64,
                DataType::Float => TypedKind::F64,
                DataType::Bool => TypedKind::Bool,
                _ => TypedKind::Str,
            };
            let plugin = self.clone();
            // Only the selected rows are gathered.
            let fill: TypedFill =
                Arc::new(move |start, count, sel: &[u32], out: &mut TypedColumn| {
                    let reader = &plugin.inner.reader;
                    out.fill_selected(kind, count, sel, |out, row| {
                        let row = start as usize + row as usize;
                        match kind {
                            TypedKind::I64 => out.push_i64(reader.read_int(row, field_idx)),
                            TypedKind::F64 => out.push_f64(reader.read_float(row, field_idx)),
                            TypedKind::Bool => out.push_bool(reader.read_bool(row, field_idx)),
                            TypedKind::Str => {
                                out.push_str(reader.read_str(row, field_idx).unwrap_or_default())
                            }
                        }
                    });
                });
            fills.push((field.clone(), FieldFill::Typed(kind, fill)));
        }
        Ok(crate::fault::instrument_scan(
            ScanAccessors {
                row_count: self.len(),
                fields: fills,
                access_path: "binary-rows(fixed-stride positions)".into(),
                bad_rows: 0,
            },
            "binary.decode",
        ))
    }

    fn read_value(&self, oid: Oid, field: &str) -> Result<Value> {
        let idx = self.field_index(field)?;
        self.inner
            .reader
            .read_value(oid as usize, idx)
            .map_err(PluginError::from)
    }

    fn read_path(&self, oid: Oid, path: &[String]) -> Result<Value> {
        match path {
            [field] => self.read_value(oid, field),
            _ => Err(PluginError::Unsupported(
                "binary relational data has no nested paths".into(),
            )),
        }
    }

    fn statistics(&self) -> DatasetStats {
        self.inner.stats.clone()
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::binary()
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
    use proteus_storage::RowTable;

    fn column_plugin() -> ColumnPlugin {
        ColumnPlugin::from_pairs(
            "lineitem",
            vec![
                (
                    "l_orderkey".to_string(),
                    ColumnData::Int((0..100).collect()),
                ),
                (
                    "l_quantity".to_string(),
                    ColumnData::Float((0..100).map(|i| i as f64 * 0.5).collect()),
                ),
                (
                    "l_comment".to_string(),
                    ColumnData::Str((0..100).map(|i| format!("c{i}")).collect()),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_plugin_reads_values() {
        let p = column_plugin();
        assert_eq!(p.len(), 100);
        assert_eq!(p.format(), SourceFormat::Binary);
        assert_eq!(p.read_value(7, "l_orderkey").unwrap(), Value::Int(7));
        assert_eq!(p.read_value(4, "l_quantity").unwrap(), Value::Float(2.0));
        assert_eq!(
            p.read_value(3, "l_comment").unwrap(),
            Value::Str("c3".into())
        );
        assert!(p.read_value(1000, "l_orderkey").is_err());
        assert!(p.read_value(0, "ghost").is_err());
    }

    #[test]
    fn column_accessors_are_specialized() {
        let p = column_plugin();
        let scan = p
            .generate(&["l_orderkey".to_string(), "l_quantity".to_string()])
            .unwrap();
        // Raw columns serve both tiers: no per-row closure in between.
        assert!(matches!(
            scan.fill("l_orderkey"),
            Some(FieldFill::Column(_))
        ));
        let (kind, fill) = scan.fill("l_quantity").unwrap().typed().unwrap();
        assert_eq!(kind, TypedKind::F64);
        let mut col = TypedColumn::new(kind);
        fill(10, 2, &crate::api::all_rows(2), &mut col);
        assert_eq!(col.f64_values(), [5.0, 5.5]);
    }

    #[test]
    fn column_stats_have_min_max() {
        let p = column_plugin();
        let stats = p.statistics();
        assert_eq!(stats.cardinality, 100);
        assert_eq!(stats.column("l_orderkey").unwrap().min, Value::Int(0));
        assert_eq!(stats.column("l_orderkey").unwrap().max, Value::Int(99));
    }

    #[test]
    fn mismatched_column_lengths_rejected() {
        let result = ColumnPlugin::from_pairs(
            "bad",
            vec![
                ("a".to_string(), ColumnData::Int(vec![1, 2])),
                ("b".to_string(), ColumnData::Int(vec![1])),
            ],
        );
        assert!(result.is_err());
    }

    fn row_plugin() -> RowPlugin {
        // One file per call: the tests run on parallel threads.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join("proteus_row_plugin_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("orders_{call}.prow"));
        let schema = Schema::from_pairs(vec![
            ("o_orderkey", DataType::Int),
            ("o_totalprice", DataType::Float),
            ("o_comment", DataType::String),
        ]);
        let rows: Vec<Value> = (0..50)
            .map(|i| {
                Value::record(vec![
                    ("o_orderkey", Value::Int(i)),
                    ("o_totalprice", Value::Float(i as f64 * 100.0)),
                    ("o_comment", Value::Str(format!("order {i}"))),
                ])
            })
            .collect();
        RowTable::write(&path, &schema, &rows).unwrap();
        RowPlugin::open("orders", &path, &MemoryManager::new()).unwrap()
    }

    #[test]
    fn row_plugin_reads_values_and_accessors_agree() {
        let p = row_plugin();
        assert_eq!(p.len(), 50);
        assert_eq!(p.read_value(9, "o_orderkey").unwrap(), Value::Int(9));
        assert_eq!(
            p.read_value(9, "o_comment").unwrap(),
            Value::Str("order 9".into())
        );
        let scan = p
            .generate(&["o_orderkey".to_string(), "o_totalprice".to_string()])
            .unwrap();
        let mut out = vec![Value::Null; 100];
        for (slot, field) in ["o_orderkey", "o_totalprice"].into_iter().enumerate() {
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
    fn row_plugin_rejects_nested_access() {
        let p = row_plugin();
        assert!(p.read_path(0, &["a".to_string(), "b".to_string()]).is_err());
    }

    #[test]
    fn row_stats_cover_numeric_fields() {
        let p = row_plugin();
        let stats = p.statistics();
        assert_eq!(stats.cardinality, 50);
        assert_eq!(stats.column("o_orderkey").unwrap().max, Value::Int(49));
        assert!(stats.column("o_comment").is_none());
    }
}
