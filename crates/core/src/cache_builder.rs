//! Cache construction as a side-effect of execution (§6).
//!
//! The caching policy follows the paper:
//!
//! * caches are built primarily for *non-binary, verbose* sources (CSV and
//!   JSON) — binary data is already cheap to re-access;
//! * primitive (numeric) values read during a scan are cached eagerly,
//!   including fields used as filtering predicates;
//! * variable-length string fields are *not* cached ("Proteus avoids caching
//!   variable-length string fields from CSV and JSON files, which may be
//!   verbose and pollute the caches");
//! * the eviction bias (JSON ≻ CSV ≻ Binary) lives in
//!   [`proteus_storage::CacheStore`].

use std::sync::Arc;

use proteus_algebra::{DataType, Value};
use proteus_storage::cache::make_entry;
use proteus_storage::{CacheEntry, CacheStore, ColumnData, SourceFormat};

/// Decides whether a field read from a dataset of the given format should be
/// cached under the paper's policy.
pub fn should_cache_field(format: SourceFormat, data_type: &DataType) -> bool {
    let verbose_source = matches!(format, SourceFormat::Csv | SourceFormat::Json);
    verbose_source && data_type.is_numeric()
}

/// Signature under which scan-side-effect caches are registered. Field-level
/// reuse looks caches up by dataset + column name, so the signature only has
/// to be stable per dataset.
pub fn scan_cache_signature(dataset: &str) -> String {
    format!("scanfields::{dataset}")
}

/// An in-flight cache being populated while a scan runs.
#[derive(Debug)]
pub struct CacheBuilder {
    dataset: String,
    format: SourceFormat,
    columns: Vec<(String, ColumnData)>,
    /// Per column: a value arrived that the column cannot hold — a null
    /// (cached columns carry no null bitmap, and a stand-in zero would be
    /// aggregated as data) or one of another type. Such a column falls
    /// behind the OIDs and is left out of the entry.
    unusable: Vec<bool>,
    oids: Vec<u64>,
    enabled: bool,
}

impl CacheBuilder {
    /// Creates a builder for the given fields (already filtered by
    /// [`should_cache_field`]). Passing no fields produces a disabled builder.
    pub fn new(
        dataset: impl Into<String>,
        format: SourceFormat,
        fields: Vec<(String, DataType)>,
    ) -> CacheBuilder {
        let enabled = !fields.is_empty();
        CacheBuilder {
            dataset: dataset.into(),
            format,
            unusable: vec![false; fields.len()],
            columns: fields
                .into_iter()
                .map(|(name, dt)| (name, ColumnData::empty_of(&dt)))
                .collect(),
            oids: Vec::new(),
            enabled,
        }
    }

    /// A builder that caches nothing.
    pub fn disabled() -> CacheBuilder {
        CacheBuilder {
            dataset: String::new(),
            format: SourceFormat::Binary,
            columns: Vec::new(),
            unusable: Vec::new(),
            oids: Vec::new(),
            enabled: false,
        }
    }

    /// True if the builder is collecting values.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Field names being cached, in column order.
    pub fn field_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Records the values of one scanned object. `values` must follow the
    /// order of the builder's fields. Returns the number of values cached.
    pub fn observe(&mut self, oid: u64, values: &[Value]) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.oids.push(oid);
        let mut cached = 0;
        let columns = self.columns.iter_mut().zip(&mut self.unusable);
        for (((_, column), unusable), value) in columns.zip(values) {
            if *unusable {
                continue;
            }
            if value.is_null() || column.push_value(value).is_err() {
                *unusable = true;
            } else {
                cached += 1;
            }
        }
        cached
    }

    /// Number of objects observed so far.
    pub fn row_count(&self) -> usize {
        self.oids.len()
    }

    /// Finalizes the builder into the cache store. Returns the cache name if
    /// an entry was inserted.
    pub fn finish(self, store: &CacheStore) -> Option<String> {
        let entry = self.into_entry()?;
        let name = entry.name.clone();
        match store.insert(entry) {
            Ok(()) => Some(name),
            Err(_) => None,
        }
    }

    /// Finalizes only if the source dataset is still at `revision`
    /// (captured via [`CacheStore::dataset_revision`] before the build
    /// started) — the background-build path, where an invalidation may
    /// race the scan and the stale result must be discarded.
    pub fn finish_if_current(self, store: &CacheStore, revision: u64) -> Option<String> {
        let entry = self.into_entry()?;
        let name = entry.name.clone();
        match store.insert_if_current(entry, revision) {
            Ok(true) => Some(name),
            Ok(false) | Err(_) => None,
        }
    }

    fn into_entry(self) -> Option<CacheEntry> {
        let columns: Vec<(String, ColumnData)> = self
            .columns
            .into_iter()
            .zip(self.unusable)
            .filter_map(|(column, unusable)| (!unusable).then_some(column))
            .collect();
        if !self.enabled || self.oids.is_empty() || columns.is_empty() {
            return None;
        }
        let name = format!(
            "{}::{}",
            self.dataset,
            columns
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join("+")
        );
        let rows = self.oids.len() as u64;
        let fields = columns.len();
        let mut entry = make_entry(
            name,
            scan_cache_signature(&self.dataset),
            self.dataset.clone(),
            self.format,
            columns,
            self.oids,
        );
        // Stamp the rebuild cost from the optimizer's cost model: one full
        // scan of the source through its format's access profile. This is
        // the `build_cost` term of the store's eviction score.
        let profile = match self.format {
            SourceFormat::Binary => proteus_plugins::CostProfile::binary(),
            SourceFormat::Csv => proteus_plugins::CostProfile::csv(),
            SourceFormat::Json => proteus_plugins::CostProfile::json(),
        };
        entry.build_cost = proteus_optimizer::cost::cache_build_cost(&profile, rows, fields);
        Some(entry)
    }
}

/// Looks up a cached column for `dataset.field` that covers the full dataset
/// (identity OIDs), as required for transparently substituting a scan
/// fill. Returns the entry's handle and the column's index in it — the
/// caller reads the entry's own allocation — and records the hit.
pub fn find_full_column_cache(
    store: &CacheStore,
    dataset: &str,
    field: &str,
    dataset_len: u64,
) -> Option<(Arc<CacheEntry>, usize)> {
    for entry in store.caches_for_dataset(dataset) {
        let Some(index) = entry.columns().iter().position(|(n, _)| n == field) else {
            continue;
        };
        if entry.covers_dataset(dataset_len) {
            // Per-column reuse is a hit like any other: it keeps the entry's
            // eviction score live even when full cache matching never fires.
            store.record_hit_on(&entry);
            return Some((entry, index));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_storage::MemoryManager;

    #[test]
    fn policy_caches_numerics_from_verbose_sources_only() {
        assert!(should_cache_field(SourceFormat::Json, &DataType::Int));
        assert!(should_cache_field(SourceFormat::Csv, &DataType::Float));
        assert!(!should_cache_field(SourceFormat::Json, &DataType::String));
        assert!(!should_cache_field(SourceFormat::Binary, &DataType::Int));
    }

    #[test]
    fn builder_collects_and_inserts() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        let mut builder = CacheBuilder::new(
            "lineitem",
            SourceFormat::Json,
            vec![("l_orderkey".to_string(), DataType::Int)],
        );
        assert!(builder.is_enabled());
        for oid in 0..10u64 {
            builder.observe(oid, &[Value::Int(oid as i64 * 2)]);
        }
        assert_eq!(builder.row_count(), 10);
        let name = builder.finish(&store).unwrap();
        assert!(store.get(&name).is_some());
        let (entry, index) = find_full_column_cache(&store, "lineitem", "l_orderkey", 10).unwrap();
        assert_eq!(entry.name, name);
        let column = &entry.columns()[index].1;
        assert_eq!(column.value_at(3), Some(Value::Int(6)));
        // The handle is the store's entry, the column its allocation; the
        // hit went to that entry.
        let live = store.get(&name).unwrap();
        assert!(Arc::ptr_eq(&entry, &live));
        assert!(Arc::ptr_eq(column, live.column("l_orderkey").unwrap()));
        assert_eq!(live.hits(), 1);
        assert_eq!(store.stats().hits, 1);
        assert!(find_full_column_cache(&store, "lineitem", "ghost", 10).is_none());
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn disabled_builder_does_nothing() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        let mut builder = CacheBuilder::disabled();
        assert!(!builder.is_enabled());
        assert_eq!(builder.observe(0, &[Value::Int(1)]), 0);
        assert!(builder.finish(&store).is_none());
    }

    #[test]
    fn partial_coverage_cache_is_not_used_for_full_scans() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        let mut builder = CacheBuilder::new(
            "lineitem",
            SourceFormat::Json,
            vec![("l_orderkey".to_string(), DataType::Int)],
        );
        for oid in 0..5u64 {
            builder.observe(oid * 2, &[Value::Int(oid as i64)]); // non-identity OIDs
        }
        builder.finish(&store).unwrap();
        assert!(find_full_column_cache(&store, "lineitem", "l_orderkey", 10).is_none());
        assert!(find_full_column_cache(&store, "lineitem", "l_orderkey", 5).is_none());
    }

    #[test]
    fn a_column_that_saw_a_null_is_not_registered() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        let fields = vec![
            ("x".to_string(), DataType::Float),
            ("y".to_string(), DataType::Int),
        ];
        let mut builder = CacheBuilder::new("t", SourceFormat::Csv, fields.clone());
        assert_eq!(builder.observe(0, &[Value::Float(1.5), Value::Int(1)]), 2);
        assert_eq!(builder.observe(1, &[Value::Null, Value::Int(2)]), 1);
        assert_eq!(builder.observe(2, &[Value::Float(2.5), Value::Int(3)]), 1);
        let name = builder.finish(&store).unwrap();
        assert_eq!(name, "t::y");
        let entry = store.get(&name).unwrap();
        assert!(entry.column("x").is_none());
        assert_eq!(**entry.column("y").unwrap(), ColumnData::Int(vec![1, 2, 3]));
        assert_eq!(entry.expressions, vec!["y".to_string()]);

        // Nothing left to cache: no entry at all. A value of the wrong type
        // disqualifies a column the same way.
        let mut builder = CacheBuilder::new("u", SourceFormat::Csv, fields);
        builder.observe(0, &[Value::Null, Value::str("oops")]);
        builder.observe(1, &[Value::Float(2.5), Value::Int(3)]);
        assert!(builder.finish(&store).is_none());
        assert!(store.caches_for_dataset("u").is_empty());
    }
}
