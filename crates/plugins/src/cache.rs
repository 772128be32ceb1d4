//! Zone maps of cache entries.
//!
//! §6: "Proteus exposes the data cache as an additional input." A cache entry
//! holds packed binary columns of scanned fields plus the OIDs of the source
//! objects they came from. Codegen reads a cached field straight from the
//! entry's own column (`CacheStore::lookup_column`) in place of the
//! plug-in's fill; what the plug-in layer adds is the per-morsel zone maps
//! of those columns, derived here once per entry.

use std::sync::Arc;

use proteus_storage::CacheEntry;

use crate::zonemap::ZoneMap;

/// Per-morsel zone maps of every column of `entry`, in column order. Derived
/// on the first call for this entry and memoized in the entry itself, so
/// every query served from the entry shares one set, and no reader can get
/// maps of other data than the columns of the handle it holds.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_storage::cache::make_entry;
    use proteus_storage::{CacheStore, ColumnData, MemoryManager, SourceFormat};

    fn raw_entry() -> CacheEntry {
        make_entry(
            "lineitem_orderkey_cache",
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
    fn zone_maps_are_memoized_in_the_entry() {
        let entry = Arc::new(raw_entry());
        let first = entry_zone_maps(&entry);
        // A second call reuses the exact same maps instead of re-deriving.
        let second = entry_zone_maps(&entry);
        assert_eq!(first.len(), 2);
        assert!(Arc::ptr_eq(&first, &second));
        for (map_a, map_b) in first.iter().zip(second.iter()) {
            assert!(Arc::ptr_eq(map_a, map_b));
        }
        assert_eq!(first[1].entry(0).unwrap().max, 3.0);
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
