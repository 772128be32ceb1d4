//! The metadata store (catalog): schemas, statistics and cost profiles per
//! registered dataset.
//!
//! §5.2: "Proteus uses a metadata store to maintain statistics per data
//! source, namely dataset cardinalities and min/max values per attribute, and
//! delegates statistics collection to each input plug-in."

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use proteus_algebra::Schema;
use proteus_plugins::{ColumnStats, CostProfile, DatasetStats, PluginRegistry, ZoneMap};

/// Metadata for one dataset.
#[derive(Debug, Clone)]
pub struct DatasetMeta {
    /// Dataset name.
    pub name: String,
    /// Schema (possibly inferred by the plug-in).
    pub schema: Schema,
    /// Statistics collected by the plug-in.
    pub stats: DatasetStats,
    /// Cost profile of the plug-in serving the dataset.
    pub cost: CostProfile,
    /// Per-morsel zone maps already recorded by the plug-in (binary columns
    /// record them eagerly; csv/json contribute whatever earlier scans
    /// derived). Used by [`crate::stats`] for clustering-aware selectivity.
    pub zone_maps: HashMap<String, Arc<ZoneMap>>,
}

/// The catalog: a snapshot-able map from dataset name to metadata.
#[derive(Clone, Default)]
pub struct Catalog {
    datasets: Arc<RwLock<HashMap<String, DatasetMeta>>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Builds a catalog by pulling schema/statistics/cost from every plug-in
    /// currently registered.
    pub fn from_registry(registry: &PluginRegistry) -> Catalog {
        let catalog = Catalog::new();
        for name in registry.datasets() {
            if let Some(plugin) = registry.get(&name) {
                catalog.insert(DatasetMeta {
                    name: name.clone(),
                    schema: plugin.schema().clone(),
                    stats: plugin.statistics(),
                    cost: plugin.cost_profile(),
                    zone_maps: plugin.cached_zone_maps().into_iter().collect(),
                });
            }
        }
        catalog
    }

    /// Adds or replaces a dataset's metadata.
    pub fn insert(&self, meta: DatasetMeta) {
        self.datasets.write().insert(meta.name.clone(), meta);
    }

    /// Registers a dataset with just a schema and cardinality (tests,
    /// in-memory datasets).
    pub fn insert_simple(&self, name: impl Into<String>, schema: Schema, cardinality: u64) {
        let name = name.into();
        self.insert(DatasetMeta {
            name: name.clone(),
            schema,
            stats: DatasetStats::with_cardinality(cardinality),
            cost: CostProfile::binary(),
            zone_maps: HashMap::new(),
        });
    }

    /// Metadata of a dataset.
    pub fn get(&self, name: &str) -> Option<DatasetMeta> {
        self.datasets.read().get(name).cloned()
    }

    /// Statistics of one column of a dataset (without copying the rest of
    /// its metadata).
    pub fn column_stats(&self, dataset: &str, column: &str) -> Option<ColumnStats> {
        self.datasets
            .read()
            .get(dataset)?
            .stats
            .column(column)
            .cloned()
    }

    /// Schema of a dataset (used by the SQL front-end).
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        self.get(name).map(|m| m.schema)
    }

    /// Cardinality of a dataset, if known.
    pub fn cardinality(&self, name: &str) -> Option<u64> {
        self.get(name).map(|m| m.stats.cardinality)
    }

    /// All registered dataset names.
    pub fn datasets(&self) -> Vec<String> {
        self.datasets.read().keys().cloned().collect()
    }

    /// Refreshes one dataset's statistics (the periodic statistics-gathering
    /// daemon of §5.2 calls this).
    pub fn update_stats(&self, name: &str, stats: DatasetStats) -> bool {
        let mut guard = self.datasets.write();
        match guard.get_mut(name) {
            Some(meta) => {
                meta.stats = stats;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_algebra::DataType;

    #[test]
    fn insert_and_lookup() {
        let catalog = Catalog::new();
        catalog.insert_simple(
            "lineitem",
            Schema::from_pairs(vec![("l_orderkey", DataType::Int)]),
            1000,
        );
        assert_eq!(catalog.cardinality("lineitem"), Some(1000));
        assert!(catalog
            .schema_of("lineitem")
            .unwrap()
            .index_of("l_orderkey")
            .is_some());
        assert!(catalog.get("ghost").is_none());
        assert_eq!(catalog.datasets(), vec!["lineitem"]);
    }

    #[test]
    fn update_stats_replaces_statistics() {
        let catalog = Catalog::new();
        catalog.insert_simple("t", Schema::empty(), 10);
        assert!(catalog.update_stats("t", DatasetStats::with_cardinality(99)));
        assert_eq!(catalog.cardinality("t"), Some(99));
        assert!(!catalog.update_stats("ghost", DatasetStats::with_cardinality(1)));
    }

    #[test]
    fn from_registry_pulls_plugin_metadata() {
        use bytes::Bytes;
        use proteus_plugins::json::JsonPlugin;
        let registry = PluginRegistry::new();
        let plugin = JsonPlugin::from_bytes(
            "events",
            Bytes::from("{\"x\": 1}\n{\"x\": 5}\n".to_string()),
        )
        .unwrap();
        registry.register(std::sync::Arc::new(plugin));
        let catalog = Catalog::from_registry(&registry);
        let meta = catalog.get("events").unwrap();
        assert_eq!(meta.stats.cardinality, 2);
        assert!(meta.cost.per_field_access > CostProfile::binary().per_field_access);
    }
}
