//! Cache construction as a side-effect of execution (§6).
//!
//! A cache is built in exactly one way: inline, by the query whose scan
//! reads the raw file. That scan is an ordinary parallel kernel-tier scan:
//! every field the builder caches is an active typed fill, and each worker
//! copies the lanes it rendered for a morsel into a [`CacheChunk`] tagged
//! with the morsel's first OID. When the run succeeds the chunks of all
//! workers are joined in tag order and the entry is registered through
//! [`CacheBuilder::finish_if_current`] before the query returns — fenced by
//! the dataset revision captured when the scan was compiled, so an
//! invalidation that raced the scan wins.
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

use proteus_algebra::DataType;
use proteus_plugins::{TypedColumn, TypedKind};
use proteus_storage::cache::make_entry;
use proteus_storage::{CacheEntry, CacheStore, ColumnData, SourceFormat};

/// Decides whether a field read from a dataset of the given format should be
/// cached under the paper's policy.
pub fn should_cache_field(format: SourceFormat, data_type: &DataType) -> bool {
    let verbose_source = matches!(format, SourceFormat::Csv | SourceFormat::Json);
    verbose_source && data_type.is_numeric()
}

/// One morsel of a caching scan: the OID of its first row, and the typed
/// lane the scan rendered for each cached field, in the builder's field
/// order.
pub type CacheChunk = (u64, Vec<TypedColumn>);

/// The cache a scan builds as it runs: which of its slots to copy, and
/// where and under which revision to register what they held.
pub struct CacheBuilder {
    store: CacheStore,
    dataset: String,
    format: SourceFormat,
    /// `(field name, batch slot)` per cached field, in column order.
    fields: Vec<(String, usize)>,
    /// The source dataset's revision when the builder was created, before
    /// the scan read anything: registration is refused against a newer one.
    revision: u64,
}

impl CacheBuilder {
    /// Creates a builder for the given `(field, slot)` pairs (already
    /// filtered by [`should_cache_field`]). `revision` is the dataset's
    /// [`CacheStore::dataset_revision`], captured before the plug-in the
    /// scan reads through was resolved.
    pub fn new(
        store: CacheStore,
        dataset: impl Into<String>,
        format: SourceFormat,
        fields: Vec<(String, usize)>,
        revision: u64,
    ) -> CacheBuilder {
        CacheBuilder {
            store,
            dataset: dataset.into(),
            format,
            fields,
            revision,
        }
    }

    /// The batch slots of the cached fields, in column order: what each
    /// morsel's [`CacheChunk`] copies.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.fields.iter().map(|(_, slot)| *slot)
    }

    /// Joins `chunks` (in tag order) into an entry and registers it, but
    /// only if the source dataset is still at the revision captured when the
    /// builder was created: an invalidation may race the scan, and the stale
    /// result must be discarded. Returns the cache name if an entry was
    /// registered.
    pub fn finish_if_current(&self, chunks: &[CacheChunk]) -> Option<String> {
        let entry = self.entry(chunks)?;
        let name = entry.name.clone();
        match self.store.insert_if_current(entry, self.revision) {
            Ok(true) => Some(name),
            Ok(false) | Err(_) => None,
        }
    }

    /// The entry the chunks make, or `None` when they do not tile the
    /// dataset from OID 0 without a gap, hold no row, or leave no usable
    /// column. A column is usable when every chunk holds it as one numeric
    /// lane kind with no null bit: cached columns carry no null bitmap, and
    /// a stand-in zero would be aggregated as data.
    fn entry(&self, chunks: &[CacheChunk]) -> Option<CacheEntry> {
        let mut rows = 0u64;
        for (start, lanes) in chunks {
            let len = lanes.first().map_or(0, TypedColumn::len);
            if *start != rows || lanes.len() != self.fields.len() {
                return None;
            }
            if lanes.iter().any(|lane| lane.len() != len) {
                return None;
            }
            rows += len as u64;
        }
        if rows == 0 {
            return None;
        }
        let columns: Vec<(String, ColumnData)> = self
            .fields
            .iter()
            .enumerate()
            .filter_map(|(i, (name, _))| Some((name.clone(), join_lanes(chunks, i, rows)?)))
            .collect();
        if columns.is_empty() {
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
        let fields = columns.len();
        let oids = (0..rows).collect();
        let mut entry = make_entry(name, self.dataset.clone(), self.format, columns, oids);
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

/// Lane `i` of every chunk, concatenated into one column of `rows` values;
/// `None` when a chunk holds it with a null or as another kind than the
/// first chunk does, or when its kind has no numeric column.
fn join_lanes(chunks: &[CacheChunk], i: usize, rows: u64) -> Option<ColumnData> {
    let kind = chunks.first()?.1[i].kind();
    let lanes = chunks.iter().map(|(_, lanes)| &lanes[i]);
    if lanes
        .clone()
        .any(|lane| lane.kind() != kind || lane.has_nulls())
    {
        return None;
    }
    let rows = rows as usize;
    match kind {
        TypedKind::I64 => {
            let mut column = Vec::with_capacity(rows);
            lanes.for_each(|lane| column.extend_from_slice(lane.i64_values()));
            Some(ColumnData::Int(column))
        }
        TypedKind::F64 => {
            let mut column = Vec::with_capacity(rows);
            lanes.for_each(|lane| column.extend_from_slice(lane.f64_values()));
            Some(ColumnData::Float(column))
        }
        TypedKind::Bool | TypedKind::Str => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_algebra::Value;
    use proteus_storage::MemoryManager;
    use std::sync::Arc;

    fn store() -> CacheStore {
        CacheStore::new(MemoryManager::with_budget(1 << 20))
    }

    /// A rendered lane: `None` is a null bit.
    fn int_lane(values: &[Option<i64>]) -> TypedColumn {
        let mut lane = TypedColumn::new(TypedKind::I64);
        for value in values {
            match value {
                Some(v) => lane.push_i64(*v),
                None => lane.push_null(),
            }
        }
        lane
    }

    fn float_lane(values: &[Option<f64>]) -> TypedColumn {
        let mut lane = TypedColumn::new(TypedKind::F64);
        for value in values {
            match value {
                Some(v) => lane.push_f64(*v),
                None => lane.push_null(),
            }
        }
        lane
    }

    fn ints(values: impl IntoIterator<Item = i64>) -> TypedColumn {
        int_lane(&values.into_iter().map(Some).collect::<Vec<_>>())
    }

    #[test]
    fn policy_caches_numerics_from_verbose_sources_only() {
        assert!(should_cache_field(SourceFormat::Json, &DataType::Int));
        assert!(should_cache_field(SourceFormat::Csv, &DataType::Float));
        assert!(!should_cache_field(SourceFormat::Json, &DataType::String));
        assert!(!should_cache_field(SourceFormat::Binary, &DataType::Int));
    }

    #[test]
    fn builder_collects_and_inserts() {
        let store = store();
        let builder = CacheBuilder::new(
            store.clone(),
            "lineitem",
            SourceFormat::Json,
            vec![("l_orderkey".to_string(), 3)],
            store.dataset_revision("lineitem"),
        );
        assert_eq!(builder.slots().collect::<Vec<_>>(), vec![3]);
        let chunks = vec![
            (0, vec![ints((0..4).map(|oid| oid * 2))]),
            (4, vec![ints((4..10).map(|oid| oid * 2))]),
        ];
        let name = builder.finish_if_current(&chunks).unwrap();
        assert!(store.get(&name).is_some());
        let (entry, index) = store
            .lookup_column("lineitem", "l_orderkey", 10, true)
            .unwrap();
        assert_eq!(entry.name, name);
        assert_eq!(entry.oids(), (0..10).collect::<Vec<u64>>());
        let column = &entry.columns()[index].1;
        assert_eq!(column.value_at(3), Some(Value::Int(6)));
        assert_eq!(column.value_at(9), Some(Value::Int(18)));
        // The handle is the store's entry, the column its allocation; the
        // hit went to that entry.
        let live = store.get(&name).unwrap();
        assert!(Arc::ptr_eq(&entry, &live));
        assert!(Arc::ptr_eq(column, live.column("l_orderkey").unwrap()));
        assert_eq!(live.hits(), 1);
        assert_eq!(store.stats().hits, 1);
        assert!(store.lookup_column("lineitem", "ghost", 10, true).is_none());
        assert_eq!(store.stats().hits, 1);

        // A builder created before an invalidation registers nothing.
        let stale = CacheBuilder::new(
            store.clone(),
            "lineitem",
            SourceFormat::Json,
            vec![("l_quantity".to_string(), 0)],
            store.dataset_revision("lineitem"),
        );
        store.invalidate_dataset("lineitem");
        assert!(stale.finish_if_current(&[(0, vec![ints([1])])]).is_none());
        assert!(store.caches_for_dataset("lineitem").is_empty());
    }

    #[test]
    fn disabled_builder_does_nothing() {
        // A builder with no field, or a run that rendered no row, registers
        // nothing.
        let store = store();
        let empty = CacheBuilder::new(store.clone(), "t", SourceFormat::Csv, Vec::new(), 0);
        assert_eq!(empty.slots().count(), 0);
        assert!(empty.finish_if_current(&[(0, Vec::new())]).is_none());
        let builder = CacheBuilder::new(
            store.clone(),
            "t",
            SourceFormat::Csv,
            vec![("x".to_string(), 0)],
            0,
        );
        assert!(builder.finish_if_current(&[]).is_none());
        assert!(builder.finish_if_current(&[(0, vec![ints([])])]).is_none());
        assert!(store.caches_for_dataset("t").is_empty());
    }

    #[test]
    fn partial_coverage_cache_is_not_used_for_full_scans() {
        let store = store();
        let builder = CacheBuilder::new(
            store.clone(),
            "lineitem",
            SourceFormat::Json,
            vec![("l_orderkey".to_string(), 0)],
            0,
        );
        // Chunks with a gap between them cover no prefix of the dataset:
        // nothing is registered.
        let gapped = vec![(0, vec![ints(0..5)]), (10, vec![ints(10..15)])];
        assert!(builder.finish_if_current(&gapped).is_none());
        assert!(store.caches_for_dataset("lineitem").is_empty());
        // Five rows cover a five-row dataset, not a ten-row one.
        builder.finish_if_current(&[(0, vec![ints(0..5)])]).unwrap();
        assert!(store
            .lookup_column("lineitem", "l_orderkey", 10, true)
            .is_none());
        assert!(store
            .lookup_column("lineitem", "l_orderkey", 5, true)
            .is_some());
    }

    #[test]
    fn a_column_that_saw_a_null_is_not_registered() {
        let store = store();
        let fields = vec![("x".to_string(), 0), ("y".to_string(), 1)];
        let builder = CacheBuilder::new(store.clone(), "t", SourceFormat::Csv, fields.clone(), 0);
        let chunks = vec![
            (0, vec![float_lane(&[Some(1.5)]), ints([1])]),
            (1, vec![float_lane(&[None, Some(2.5)]), ints([2, 3])]),
        ];
        let name = builder.finish_if_current(&chunks).unwrap();
        assert_eq!(name, "t::y");
        let entry = store.get(&name).unwrap();
        assert!(entry.column("x").is_none());
        assert_eq!(**entry.column("y").unwrap(), ColumnData::Int(vec![1, 2, 3]));
        assert_eq!(entry.expressions, vec!["y".to_string()]);

        // Nothing left to cache: no entry is registered. A lane of another
        // kind disqualifies a column the same way a null does.
        let builder = CacheBuilder::new(store.clone(), "u", SourceFormat::Csv, fields, 0);
        let mut text = TypedColumn::new(TypedKind::Str);
        text.push_str("oops");
        let chunks = vec![
            (0, vec![float_lane(&[Some(1.5)]), text]),
            (1, vec![float_lane(&[None]), ints([3])]),
        ];
        assert!(builder.finish_if_current(&chunks).is_none());
        assert!(store.caches_for_dataset("u").is_empty());
    }

    #[test]
    fn a_null_in_a_late_morsel_of_another_worker_drops_the_column() {
        // Two workers' partials, each in its own claim order, joined by the
        // executor's ordered merge: the null sits in the last morsel, which
        // the second worker rendered.
        let store = store();
        let morsel = |start: i64, null: bool| {
            let mut values: Vec<Option<i64>> = (start..start + 4).map(Some).collect();
            if null {
                values[2] = None;
            }
            int_lane(&values)
        };
        let first = vec![
            (0, vec![morsel(0, false), ints(0..4)]),
            (8, vec![morsel(8, false), ints(8..12)]),
        ];
        let second = vec![
            (4, vec![morsel(4, false), ints(4..8)]),
            (12, vec![morsel(12, true), ints(12..16)]),
        ];
        let chunks = crate::exec::pipeline::in_tag_order(vec![first, second]);
        assert_eq!(
            chunks.iter().map(|(tag, _)| *tag).collect::<Vec<_>>(),
            [0, 4, 8, 12]
        );
        let fields = vec![("n".to_string(), 0), ("id".to_string(), 1)];
        let builder = CacheBuilder::new(store.clone(), "t", SourceFormat::Json, fields, 0);
        let name = builder.finish_if_current(&chunks).unwrap();
        assert_eq!(name, "t::id");
        let entry = store.get(&name).unwrap();
        assert_eq!(
            **entry.column("id").unwrap(),
            ColumnData::Int((0..16).collect())
        );
        assert_eq!(entry.oids(), (0..16).collect::<Vec<u64>>());
    }
}
