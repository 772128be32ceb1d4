//! The cache input plug-in.
//!
//! §6: "Proteus exposes the data cache as an additional input. As with the
//! rest of the datasets, Proteus accesses the cached data using a dedicated
//! input plug-in." A cache entry holds binary columns of already-evaluated
//! expressions plus the OIDs of the source objects they came from, so a query
//! rewritten to use the cache reads packed binary values instead of
//! re-navigating a verbose file.

use std::sync::Arc;

use proteus_algebra::{Field, Schema, Value};
use proteus_storage::{CacheEntry, ColumnData, SourceFormat};

use crate::api::{FieldFill, InputPlugin, Oid, ScanAccessors};
use crate::error::{PluginError, Result};
use crate::stats::{CostProfile, DatasetStats};
use crate::zonemap::ZoneMap;

struct CacheInner {
    /// Shared handle: the store may replace or invalidate the entry while
    /// this plug-in (and the query holding it) keeps reading the old data.
    entry: Arc<CacheEntry>,
    schema: Schema,
    stats: DatasetStats,
}

/// Plug-in exposing one cache entry as a dataset.
#[derive(Clone)]
pub struct CachePlugin {
    inner: Arc<CacheInner>,
}

/// Per-morsel zone maps of every column of `entry`, in column order. Derived
/// on the first call for this entry and memoized in the entry itself, so the
/// full-match plug-in and codegen's per-field reuse share one set, and no
/// reader can get maps of other data than the columns of the handle it holds.
pub fn entry_zone_maps(entry: &CacheEntry) -> Arc<Vec<Arc<ZoneMap>>> {
    let derive = || {
        let columns = entry.columns().iter();
        let maps = columns.map(|(_, col)| Arc::new(ZoneMap::from_column(col)));
        Arc::new(maps.collect::<Vec<_>>())
    };
    let memo = entry.sidecar_or_init(|| derive()).clone();
    // The slot is type-erased (`storage` cannot name `ZoneMap`); this is its
    // only writer, but a foreign value must cost a derivation, not a panic.
    memo.downcast().unwrap_or_else(|_| derive())
}

impl CachePlugin {
    /// Wraps a cache entry, reusing the zone maps memoized in it.
    pub fn new(entry: Arc<CacheEntry>) -> CachePlugin {
        let schema = Schema::new(
            entry
                .columns()
                .iter()
                .map(|(name, col)| Field::new(name.clone(), col.data_type()))
                .collect(),
        );
        let mut stats = DatasetStats::with_cardinality(entry.row_count() as u64);
        for (field, zm) in schema.fields().iter().zip(entry_zone_maps(&entry).iter()) {
            if field.data_type.is_numeric() {
                stats
                    .columns
                    .insert(field.name.clone(), zm.column_stats().clone());
            }
        }
        CachePlugin {
            inner: Arc::new(CacheInner {
                entry,
                schema,
                stats,
            }),
        }
    }

    /// The OID (in the *source* dataset) of cached row `idx`, letting partial
    /// matches go back to the original file for the fields that were not
    /// cached.
    pub fn source_oid(&self, idx: u64) -> Option<u64> {
        self.inner.entry.oids().get(idx as usize).copied()
    }

    /// Name of the wrapped cache.
    pub fn cache_name(&self) -> &str {
        &self.inner.entry.name
    }

    fn column(&self, field: &str) -> Result<&Arc<ColumnData>> {
        self.inner
            .entry
            .column(field)
            .ok_or_else(|| PluginError::UnknownField {
                dataset: self.inner.entry.name.clone(),
                field: field.to_string(),
            })
    }
}

impl InputPlugin for CachePlugin {
    fn dataset(&self) -> &str {
        &self.inner.entry.source_dataset
    }

    fn format(&self) -> SourceFormat {
        // The cache itself is binary regardless of the source format.
        SourceFormat::Binary
    }

    fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    fn len(&self) -> u64 {
        self.inner.entry.row_count() as u64
    }

    fn generate(&self, fields: &[String]) -> Result<ScanAccessors> {
        let mut fills = Vec::with_capacity(fields.len());
        for field in fields {
            // The entry's own allocation, not a copy of it: cached binary
            // columns never round-trip through a per-row closure.
            let column = self.column(field)?.clone();
            fills.push((field.clone(), FieldFill::Column(column)));
        }
        Ok(ScanAccessors {
            row_count: self.len(),
            fields: fills,
            access_path: format!("cache({})", self.inner.entry.name),
            bad_rows: 0,
        })
    }

    fn read_value(&self, oid: Oid, field: &str) -> Result<Value> {
        self.column(field)?
            .value_at(oid as usize)
            .ok_or(PluginError::OidOutOfRange {
                dataset: self.inner.entry.name.clone(),
                oid,
            })
    }

    fn read_path(&self, oid: Oid, path: &[String]) -> Result<Value> {
        match path {
            [field] => self.read_value(oid, field),
            _ => Err(PluginError::Unsupported(
                "caches hold flattened expression results".into(),
            )),
        }
    }

    fn statistics(&self) -> DatasetStats {
        self.inner.stats.clone()
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::cache()
    }

    fn zone_maps(&self, fields: &[String]) -> Vec<(String, Arc<ZoneMap>)> {
        let mut maps = self.cached_zone_maps();
        maps.retain(|(name, _)| fields.contains(name));
        maps
    }

    fn cached_zone_maps(&self) -> Vec<(String, Arc<ZoneMap>)> {
        let entry = &self.inner.entry;
        entry
            .columns()
            .iter()
            .zip(entry_zone_maps(entry).iter())
            .map(|((name, _), zm)| (name.clone(), zm.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_storage::cache::make_entry;
    use proteus_storage::{CacheStore, MemoryManager};

    fn entry() -> Arc<CacheEntry> {
        Arc::new(raw_entry())
    }

    fn raw_entry() -> CacheEntry {
        make_entry(
            "lineitem_orderkey_cache",
            "Scan(lineitem as l)",
            "lineitem",
            SourceFormat::Json,
            vec![
                ("l_orderkey".to_string(), ColumnData::Int(vec![5, 6, 9])),
                (
                    "l_quantity".to_string(),
                    ColumnData::Float(vec![1.0, 2.0, 3.0]),
                ),
            ],
            vec![10, 11, 14],
        )
    }

    #[test]
    fn cache_plugin_exposes_columns_as_fields() {
        let p = CachePlugin::new(entry());
        assert_eq!(p.len(), 3);
        assert_eq!(p.schema().names(), vec!["l_orderkey", "l_quantity"]);
        assert_eq!(p.read_value(1, "l_orderkey").unwrap(), Value::Int(6));
        assert_eq!(p.read_value(2, "l_quantity").unwrap(), Value::Float(3.0));
        assert!(p.read_value(0, "ghost").is_err());
        assert!(p.read_value(9, "l_orderkey").is_err());
    }

    #[test]
    fn source_oids_are_preserved() {
        let p = CachePlugin::new(entry());
        assert_eq!(p.source_oid(0), Some(10));
        assert_eq!(p.source_oid(2), Some(14));
        assert_eq!(p.source_oid(5), None);
        assert_eq!(p.dataset(), "lineitem");
        assert_eq!(p.cache_name(), "lineitem_orderkey_cache");
    }

    #[test]
    fn accessors_read_cached_binary_values() {
        let p = CachePlugin::new(entry());
        let scan = p.generate(&["l_orderkey".to_string()]).unwrap();
        let mut out = vec![Value::Null; 3];
        scan.fill("l_orderkey").unwrap().values()(0, 3, &mut out, 0, 1);
        assert_eq!(out[2], Value::Int(9));
        assert!(scan.access_path.contains("cache("));
    }

    #[test]
    fn cache_cost_profile_is_cheapest() {
        let p = CachePlugin::new(entry());
        assert!(p.cost_profile().per_field_access < CostProfile::binary().per_field_access);
    }

    #[test]
    fn nested_access_is_rejected() {
        let p = CachePlugin::new(entry());
        assert!(p.read_path(0, &["a".to_string(), "b".to_string()]).is_err());
    }

    #[test]
    fn zone_maps_are_memoized_in_the_entry() {
        let entry = entry();
        let first = CachePlugin::new(entry.clone());
        // A second wrap reuses the exact same maps instead of re-deriving.
        let second = CachePlugin::new(entry.clone());
        let zm_a = first.cached_zone_maps();
        let zm_b = second.cached_zone_maps();
        assert_eq!(zm_a.len(), 2);
        for ((name_a, map_a), (name_b, map_b)) in zm_a.iter().zip(&zm_b) {
            assert_eq!(name_a, name_b);
            assert!(Arc::ptr_eq(map_a, map_b));
        }
        assert!(Arc::ptr_eq(&zm_a[0].1, &entry_zone_maps(&entry)[0]));
        let only = first.zone_maps(&["l_quantity".to_string()]);
        assert_eq!(only.len(), 1);
        assert!(Arc::ptr_eq(&only[0].1, &zm_a[1].1));
    }

    #[test]
    fn generate_reads_the_entrys_own_columns() {
        let entry = entry();
        let column = entry.column("l_orderkey").unwrap();
        assert_eq!(Arc::strong_count(column), 1);
        let scan = CachePlugin::new(entry.clone())
            .generate(&["l_orderkey".to_string()])
            .unwrap();
        assert!(Arc::strong_count(column) > 1);
        drop(scan);
        assert_eq!(Arc::strong_count(column), 1);
    }

    #[test]
    fn a_rebound_name_never_serves_the_old_entrys_zone_maps() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store.insert(raw_entry()).unwrap();
        let old = store.get("lineitem_orderkey_cache").unwrap();
        let old_max = entry_zone_maps(&old)[0].entry(0).unwrap().max;
        assert_eq!(old_max, 9.0);
        // Same name, new data: a reader still holding `old` keeps bounds
        // that match the columns it reads, the new entry derives its own.
        store
            .insert(make_entry(
                "lineitem_orderkey_cache",
                "Scan(lineitem as l)",
                "lineitem",
                SourceFormat::Json,
                vec![("l_orderkey".to_string(), ColumnData::Int(vec![50, 60, 90]))],
                vec![10, 11, 14],
            ))
            .unwrap();
        let new = store.get("lineitem_orderkey_cache").unwrap();
        assert_eq!(entry_zone_maps(&new)[0].entry(0).unwrap().max, 90.0);
        assert_eq!(entry_zone_maps(&old)[0].entry(0).unwrap().max, 9.0);
    }
}
