//! The adaptive cache store (§6, "Adapting Storage to Workload").
//!
//! Proteus populates binary caches as a side-effect of query execution.
//! Every cache holds the materialized result of an algebraic expression
//! (field projections, arithmetic expressions, record constructions) over one
//! source dataset, stored as packed binary columns. Caches are keyed by the
//! signature of the plan subtree that produced them so the cache-matching
//! pass can splice them into later plans.
//!
//! Beyond the paper's single-session store, this store is a production
//! subsystem:
//!
//! * **Global memory budget with cost/benefit eviction.** Every entry's full
//!   footprint (columns, string pools, the zone maps the cache plug-in will
//!   build, OIDs) is accounted against the arena budget. When an insert
//!   would exceed it, the entry with the lowest benefit density —
//!   `(build_cost × (1 + hits)) / bytes` — is evicted first, so cheap-to-
//!   rebuild and cold entries go before hot, expensive ones. `build_cost`
//!   is stamped by the builder from the optimizer's cost model; hits are
//!   recorded live by cache matching.
//! * **Disk spill.** With a spill directory configured, an evicted entry
//!   that had at least one hit is written to disk (checksummed, versioned —
//!   see [`crate::persist`]) instead of discarded; a later signature lookup
//!   that misses in memory reloads it transparently, heat intact.
//! * **Concurrent readers during rebuild.** Entries are handed out as
//!   [`Arc<CacheEntry>`]: replacing or invalidating an entry swaps the map
//!   slot while in-flight queries keep reading the handle they hold. Reads
//!   outstanding at swap time are counted as `stale_reads`.
//! * **Zero-copy hits.** An entry's columns are [`Arc<ColumnData>`]: a query
//!   served from the cache clones the handle, never the data, so the bytes a
//!   reader touches are the bytes the budget accounts for. What the plug-in
//!   layer derives from those columns (zone maps) is memoized inside the
//!   entry ([`CacheEntry::sidecar_or_init`]) and so lives and dies with it.
//! * **Atomic invalidation.** [`CacheStore::invalidate_dataset`] drops the
//!   entry (its memoized zone maps with it) and any spilled file in one
//!   critical section, and bumps the dataset's revision so an in-flight
//!   background build for the old data can never register a stale cache
//!   ([`CacheStore::insert_if_current`]).

use std::any::Any;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::column::ColumnData;
use crate::error::{Result, StorageError};
use crate::memory::MemoryManager;
use crate::persist;

/// The format of the dataset a cache was derived from. Ordering encodes the
/// rebuild-cost bias: `Json > Csv > Binary` in terms of re-access cost, so
/// binary-derived caches default to the lowest build cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SourceFormat {
    /// Derived from relational binary data (cheap to rebuild).
    Binary,
    /// Derived from a CSV file.
    Csv,
    /// Derived from a JSON file (most expensive to rebuild).
    Json,
}

impl SourceFormat {
    /// Relative re-access cost weight used when no build cost was stamped.
    pub fn cost_weight(&self) -> u64 {
        match self {
            SourceFormat::Binary => 1,
            SourceFormat::Csv => 4,
            SourceFormat::Json => 16,
        }
    }
}

/// Degree of eagerness used when the cache was built (§6): a cache may hold
/// fully converted binary values, just the byte positions of the values in
/// the original file, or only the OIDs of qualifying entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEagerness {
    /// Fully converted binary values.
    Values,
    /// Byte positions of the values in the source file.
    Positions,
    /// Only the OIDs of qualifying objects.
    OidsOnly,
}

/// Rows per zone-map entry. Must equal the plug-in layer's `ZONE_ROWS`
/// (compile-asserted there): the store accounts each entry's zone-map
/// footprint against the budget before the cache plug-in builds the maps.
pub const CACHE_ZONE_ROWS: usize = 1024;

/// Accounted bytes per zone-map entry (rows + null count + min/max + flags,
/// rounded up to cover per-column aggregation state).
const ZONE_ENTRY_FOOTPRINT: usize = 32;

/// Accounted heap-header overhead per cached string (`String` header plus
/// allocator slack) on top of the byte length `ColumnData::byte_size`
/// already counts.
const STRING_POOL_OVERHEAD: usize = 24;

/// One cached expression result.
#[derive(Debug)]
pub struct CacheEntry {
    /// Unique cache name.
    pub name: String,
    /// Signature of the plan subtree whose output this cache holds; used as
    /// the search key during cache matching.
    pub plan_signature: String,
    /// Human-readable rendering of the cached expressions.
    pub expressions: Vec<String>,
    /// Dataset the cache was derived from.
    pub source_dataset: String,
    /// Format of that dataset (drives the default build cost).
    pub source_format: SourceFormat,
    /// How eagerly values were materialized.
    pub eagerness: CacheEagerness,
    /// The cached columns, one per expression, aligned by OID order. Shared
    /// handles: a query served from this entry reads these allocations.
    /// Private together with `oids` because `identity_oids` and the sidecar
    /// are derived from them.
    columns: Vec<(String, Arc<ColumnData>)>,
    /// OIDs of the source entries each row corresponds to.
    oids: Vec<u64>,
    /// True when row `i` is object `i` of the source dataset.
    identity_oids: bool,
    /// Total footprint in bytes (accounted against the arena budget; set on
    /// insert from [`CacheEntry::footprint`]).
    pub byte_size: usize,
    /// Cost units to rebuild this entry from its source, in the optimizer's
    /// cost-model units (stamped by the cache builder; a zero value is
    /// defaulted from the source format's weight on insert).
    pub build_cost: u64,
    /// Cache-matching hits against this entry (live input to the eviction
    /// score; survives spill/reload).
    hit_count: AtomicU64,
    /// Logical timestamp of the last use (eviction tie-break).
    last_used: AtomicU64,
    /// What the plug-in layer derived from `columns` (zone maps), filled at
    /// most once. Living in the entry, it can never describe other data than
    /// the columns beside it, whatever the store's map binds the name to.
    sidecar: OnceLock<CacheSidecar>,
}

impl CacheEntry {
    /// Number of cached rows.
    pub fn row_count(&self) -> usize {
        self.oids.len()
    }

    /// The cached columns, one per expression, aligned by OID order.
    pub fn columns(&self) -> &[(String, Arc<ColumnData>)] {
        &self.columns
    }

    /// OIDs of the source objects each row corresponds to.
    pub fn oids(&self) -> &[u64] {
        &self.oids
    }

    /// Looks up a cached column by its expression alias.
    pub fn column(&self, name: &str) -> Option<&Arc<ColumnData>> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// True when the entry covers a `dataset_len`-object dataset in order
    /// (row `i` is object `i`), as substituting a scan accessor requires.
    pub fn covers_dataset(&self, dataset_len: u64) -> bool {
        self.identity_oids && self.oids.len() as u64 == dataset_len
    }

    /// The entry's sidecar, built by `derive` on the first call and shared
    /// by every later one.
    pub fn sidecar_or_init(&self, derive: impl FnOnce() -> CacheSidecar) -> &CacheSidecar {
        self.sidecar.get_or_init(derive)
    }

    /// Cache-matching hits recorded against this entry.
    pub fn hits(&self) -> u64 {
        self.hit_count.load(Ordering::Relaxed)
    }

    /// Seeds the hit counter (persistence restore; tests building fixed hit
    /// histories).
    pub fn set_hits(&self, hits: u64) {
        self.hit_count.store(hits, Ordering::Relaxed);
    }

    /// Full memory footprint accounted against the budget: column payloads,
    /// string-pool overhead, the zone maps the cache plug-in derives (one
    /// entry per [`CACHE_ZONE_ROWS`] rows per column), OIDs, and the entry's
    /// own strings.
    pub fn footprint(&self) -> usize {
        let columns: usize = self
            .columns
            .iter()
            .map(|(name, col)| {
                let pool = match col.as_ref() {
                    ColumnData::Str(v) => v.len() * STRING_POOL_OVERHEAD,
                    _ => 0,
                };
                name.len() + col.byte_size() + pool
            })
            .sum();
        let zone_entries = self.oids.len().div_ceil(CACHE_ZONE_ROWS);
        let zone_maps = self.columns.len() * zone_entries * ZONE_ENTRY_FOOTPRINT;
        columns
            + zone_maps
            + self.oids.len() * 8
            + self.name.len()
            + self.plan_signature.len()
            + self.expressions.iter().map(|e| e.len()).sum::<usize>()
    }

    /// The eviction score: benefit density in cost units per KiB. Entries
    /// that are expensive to rebuild and frequently hit score high; big,
    /// cold, cheap entries score low and are evicted first.
    fn score(&self) -> u128 {
        (self.build_cost as u128)
            .saturating_mul(1 + self.hits() as u128)
            .saturating_mul(1024)
            / self.byte_size.max(1) as u128
    }
}

/// Aggregate statistics of the cache store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of live in-memory cache entries.
    pub entries: usize,
    /// Total bytes pinned (always ≤ the arena budget).
    pub bytes: usize,
    /// Successful cache-matching lookups (including spill reloads).
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Entries evicted so far.
    pub evictions: u64,
    /// Bytes written to the spill directory by hot evictions.
    pub spilled_bytes: u64,
    /// Cache entries registered by completed background builds.
    pub background_builds: u64,
    /// Reads that were still outstanding when their entry was replaced or
    /// invalidated (the readers finish on the old handle).
    pub stale_reads: u64,
}

/// Opaque per-entry sidecar (the plug-in layer memoizes derived zone maps
/// here; `storage` does not depend on `plugins`, hence the type erasure).
pub type CacheSidecar = Arc<dyn Any + Send + Sync>;

/// Fault probe injected by the engine (wired to the chaos harness's
/// `cache.spill` / `cache.load` sites); `Err` makes the store skip the disk
/// operation gracefully.
pub type FaultProbe = Arc<dyn Fn(&str) -> std::result::Result<(), String> + Send + Sync>;

/// A spilled (evicted-but-hot) entry's on-disk record.
struct SpillRecord {
    path: PathBuf,
    plan_signature: String,
    source_dataset: String,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    spilled_bytes: AtomicU64,
    background_builds: AtomicU64,
    stale_reads: AtomicU64,
}

#[derive(Default)]
struct StoreInner {
    entries: HashMap<String, Arc<CacheEntry>>,
    spilled: HashMap<String, SpillRecord>,
    /// Bumped by every `invalidate_dataset`; background builds capture the
    /// revision at start and refuse to register against a newer one.
    revisions: HashMap<String, u64>,
    spill_dir: Option<PathBuf>,
}

/// The caching manager: stores, matches, evicts, spills and restores caches.
#[derive(Clone)]
pub struct CacheStore {
    memory: MemoryManager,
    inner: Arc<RwLock<StoreInner>>,
    counters: Arc<Counters>,
    clock: Arc<AtomicU64>,
    probe: Arc<RwLock<Option<FaultProbe>>>,
}

impl CacheStore {
    /// Creates a cache store accounting against the given memory manager.
    pub fn new(memory: MemoryManager) -> Self {
        CacheStore {
            memory,
            inner: Arc::new(RwLock::new(StoreInner::default())),
            counters: Arc::new(Counters::default()),
            clock: Arc::new(AtomicU64::new(1)),
            probe: Arc::new(RwLock::new(None)),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Installs the fault probe consulted before spill/load disk operations
    /// (the engine wires this to the chaos harness).
    pub fn set_fault_probe(&self, probe: FaultProbe) {
        *self.probe.write() = Some(probe);
    }

    pub(crate) fn probe(&self, site: &str) -> std::result::Result<(), String> {
        match self.probe.read().clone() {
            Some(probe) => probe(site),
            None => Ok(()),
        }
    }

    /// Enables disk spill: evicted entries with at least one hit are written
    /// under `dir` and reloaded transparently on a later signature lookup.
    pub fn set_spill_dir(&self, dir: impl Into<PathBuf>) -> Result<()> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.inner.write().spill_dir = Some(dir);
        Ok(())
    }

    /// Records one cache-matching hit against the live entry `name` (live
    /// input to the eviction score).
    pub fn record_hit(&self, name: &str) {
        if let Some(entry) = self.inner.read().entries.get(name) {
            self.record_hit_on(entry);
        }
    }

    /// Records one hit through a handle the caller already holds (per-column
    /// cache reuse at compile time): no lock, no name lookup.
    pub fn record_hit_on(&self, entry: &CacheEntry) {
        entry.hit_count.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Current revision of a dataset (bumped by every invalidation). A
    /// background build captures this before scanning and passes it to
    /// [`CacheStore::insert_if_current`].
    pub fn dataset_revision(&self, dataset: &str) -> u64 {
        self.inner
            .read()
            .revisions
            .get(dataset)
            .copied()
            .unwrap_or(0)
    }

    /// Inserts a cache entry, evicting lowest-score entries if the arena
    /// budget requires it. Returns an error only if the entry cannot fit
    /// even after evicting everything else.
    pub fn insert(&self, entry: CacheEntry) -> Result<()> {
        self.insert_inner(entry, None).map(|_| ())
    }

    /// Inserts only if `dataset` is still at `revision` (captured via
    /// [`CacheStore::dataset_revision`] before the build started). Returns
    /// `Ok(false)` — nothing registered, memory released — when an
    /// invalidation raced the build.
    pub fn insert_if_current(&self, entry: CacheEntry, revision: u64) -> Result<bool> {
        self.insert_inner(entry, Some(revision))
    }

    fn insert_inner(&self, mut entry: CacheEntry, revision: Option<u64>) -> Result<bool> {
        entry.byte_size = entry.footprint();
        if entry.build_cost == 0 {
            // No stamped cost: default from the format bias so the
            // pre-cost-model insert paths still order sensibly.
            entry.build_cost = (entry.row_count() as u64 + 1)
                .saturating_mul(entry.columns.len() as u64 + 1)
                .saturating_mul(entry.source_format.cost_weight());
        }
        entry.last_used.store(self.tick(), Ordering::Relaxed);

        // Make room: evict until the reservation succeeds. The replaced
        // entry (same name) is itself a candidate victim, which is fine —
        // either way its bytes are released before the new entry lands.
        loop {
            match self.memory.reserve_arena(entry.byte_size) {
                Ok(()) => break,
                Err(_) => {
                    if !self.evict_one() {
                        return Err(StorageError::OutOfMemory(format!(
                            "cache {} ({} B) cannot fit in the arena",
                            entry.name, entry.byte_size
                        )));
                    }
                }
            }
        }

        let mut inner = self.inner.write();
        if let Some(required) = revision {
            let current = inner
                .revisions
                .get(&entry.source_dataset)
                .copied()
                .unwrap_or(0);
            if current != required {
                drop(inner);
                self.memory.release_arena(entry.byte_size);
                return Ok(false);
            }
        }
        let name = entry.name.clone();
        // A replaced entry's spill record describes the old data: drop it in
        // the same critical section.
        if let Some(record) = inner.spilled.remove(&name) {
            let _ = std::fs::remove_file(&record.path);
        }
        if let Some(old) = inner.entries.insert(name, Arc::new(entry)) {
            self.retire(&old);
            self.memory.release_arena(old.byte_size);
        }
        Ok(true)
    }

    /// Counts readers left holding a removed/replaced entry.
    fn retire(&self, old: &Arc<CacheEntry>) {
        let outstanding = Arc::strong_count(old).saturating_sub(1) as u64;
        if outstanding > 0 {
            self.counters
                .stale_reads
                .fetch_add(outstanding, Ordering::Relaxed);
        }
    }

    /// Evicts the entry with the lowest cost/benefit score, spilling it to
    /// disk first when it is hot and a spill directory is configured.
    /// Returns false if the store is empty.
    fn evict_one(&self) -> bool {
        let mut inner = self.inner.write();
        // Benefit density (build_cost × (1 + hits)) / bytes, tie-broken by
        // LRU timestamp then name: big, cold, cheap-to-rebuild entries go
        // first; hot expensive ones survive longest. The full order is
        // deterministic given the entries' hit histories.
        let victim = inner
            .entries
            .values()
            .min_by_key(|e| {
                (
                    e.score(),
                    e.last_used.load(Ordering::Relaxed),
                    e.name.clone(),
                )
            })
            .map(|e| e.name.clone());
        let Some(name) = victim else {
            return false;
        };
        let Some(entry) = inner.entries.remove(&name) else {
            return false;
        };
        self.retire(&entry);
        self.memory.release_arena(entry.byte_size);
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);

        // Evicted-but-hot: keep it on disk instead of discarding the build.
        if entry.hits() > 0 {
            if let Some(dir) = inner.spill_dir.clone() {
                if self.probe("cache.spill").is_ok() {
                    let path = dir.join(persist::entry_file_name(&entry.name));
                    if persist::write_entry(&entry, &path).is_ok() {
                        self.counters
                            .spilled_bytes
                            .fetch_add(entry.byte_size as u64, Ordering::Relaxed);
                        inner.spilled.insert(
                            entry.name.clone(),
                            SpillRecord {
                                path,
                                plan_signature: entry.plan_signature.clone(),
                                source_dataset: entry.source_dataset.clone(),
                            },
                        );
                    }
                }
            }
        }
        true
    }

    /// Looks a cache up by the signature of the plan subtree it replaces.
    /// A hit refreshes the entry's LRU timestamp and hit count; a miss
    /// falls through to the spill directory before giving up.
    pub fn lookup_by_signature(&self, signature: &str) -> Option<Arc<CacheEntry>> {
        let tick = self.tick();
        {
            let inner = self.inner.read();
            if let Some(entry) = inner
                .entries
                .values()
                .find(|e| e.plan_signature == signature)
            {
                entry.last_used.store(tick, Ordering::Relaxed);
                entry.hit_count.fetch_add(1, Ordering::Relaxed);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.clone());
            }
        }
        if let Some(entry) = self.load_spilled(signature) {
            return Some(entry);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Reloads a spilled entry whose signature matches, re-admitting it
    /// under the budget (which may evict colder residents). Corrupt files
    /// and injected `cache.load` faults degrade to a clean miss.
    fn load_spilled(&self, signature: &str) -> Option<Arc<CacheEntry>> {
        let path = {
            let inner = self.inner.read();
            inner
                .spilled
                .values()
                .find(|r| r.plan_signature == signature)
                .map(|r| r.path.clone())
        }?;
        if self.probe("cache.load").is_err() {
            return None;
        }
        let entry = persist::read_entry(&path).ok()?;
        if entry.plan_signature != signature {
            return None;
        }
        let name = entry.name.clone();
        // The reload bumps the hit count like any other hit, so a reloaded
        // entry does not come back as the immediate next eviction victim.
        entry.hit_count.fetch_add(1, Ordering::Relaxed);
        if self.insert(entry).is_err() {
            return None;
        }
        let mut inner = self.inner.write();
        if let Some(record) = inner.spilled.remove(&name) {
            let _ = std::fs::remove_file(&record.path);
        }
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        inner.entries.get(&name).cloned()
    }

    /// Looks a cache up by name without touching hit/miss statistics.
    pub fn get(&self, name: &str) -> Option<Arc<CacheEntry>> {
        self.inner.read().entries.get(name).cloned()
    }

    /// All caches derived from a given dataset.
    pub fn caches_for_dataset(&self, dataset: &str) -> Vec<Arc<CacheEntry>> {
        self.inner
            .read()
            .entries
            .values()
            .filter(|e| e.source_dataset == dataset)
            .cloned()
            .collect()
    }

    /// Every live entry (persistence snapshots, diagnostics).
    pub fn entries_snapshot(&self) -> Vec<Arc<CacheEntry>> {
        self.inner.read().entries.values().cloned().collect()
    }

    /// Counts one completed background cache build (called by the engine's
    /// build task on successful registration).
    pub fn note_background_build(&self) {
        self.counters
            .background_builds
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every cache derived from `dataset` (the paper's reaction to
    /// data updates: "Proteus currently drops and rebuilds any affected
    /// parts of existing auxiliary structures"). Entries and their spilled
    /// files go in one critical section, and the dataset revision is bumped
    /// so racing background builds abort.
    pub fn invalidate_dataset(&self, dataset: &str) -> usize {
        let mut inner = self.inner.write();
        *inner.revisions.entry(dataset.to_string()).or_insert(0) += 1;
        let names: Vec<String> = inner
            .entries
            .values()
            .filter(|e| e.source_dataset == dataset)
            .map(|e| e.name.clone())
            .collect();
        for name in &names {
            if let Some(entry) = inner.entries.remove(name) {
                self.retire(&entry);
                self.memory.release_arena(entry.byte_size);
            }
        }
        let spilled: Vec<String> = inner
            .spilled
            .iter()
            .filter(|(_, r)| r.source_dataset == dataset)
            .map(|(n, _)| n.clone())
            .collect();
        let mut dropped = names.len();
        for name in spilled {
            if let Some(record) = inner.spilled.remove(&name) {
                let _ = std::fs::remove_file(&record.path);
            }
            dropped += 1;
        }
        dropped
    }

    /// Removes every cache entry (and spilled file).
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        let entries: Vec<Arc<CacheEntry>> = inner.entries.drain().map(|(_, e)| e).collect();
        for entry in &entries {
            self.retire(entry);
            self.memory.release_arena(entry.byte_size);
        }
        for (_, record) in inner.spilled.drain() {
            let _ = std::fs::remove_file(&record.path);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.read();
        CacheStats {
            entries: inner.entries.len(),
            bytes: inner.entries.values().map(|e| e.byte_size).sum(),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            spilled_bytes: self.counters.spilled_bytes.load(Ordering::Relaxed),
            background_builds: self.counters.background_builds.load(Ordering::Relaxed),
            stale_reads: self.counters.stale_reads.load(Ordering::Relaxed),
        }
    }

    /// Names of all live caches (diagnostics / tests).
    pub fn names(&self) -> Vec<String> {
        self.inner.read().entries.keys().cloned().collect()
    }

    /// Names of spilled (on-disk, reloadable) caches.
    pub fn spilled_names(&self) -> Vec<String> {
        self.inner.read().spilled.keys().cloned().collect()
    }
}

/// Constructor for cache entries. Takes the columns owned and wraps each in
/// the shared handle queries will read through; decides once whether the
/// OIDs are the identity.
pub fn make_entry(
    name: impl Into<String>,
    plan_signature: impl Into<String>,
    source_dataset: impl Into<String>,
    source_format: SourceFormat,
    columns: Vec<(String, ColumnData)>,
    oids: Vec<u64>,
) -> CacheEntry {
    CacheEntry {
        name: name.into(),
        plan_signature: plan_signature.into(),
        expressions: columns.iter().map(|(n, _)| n.clone()).collect(),
        source_dataset: source_dataset.into(),
        source_format,
        eagerness: CacheEagerness::Values,
        columns: columns
            .into_iter()
            .map(|(name, col)| (name, Arc::new(col)))
            .collect(),
        identity_oids: oids.iter().enumerate().all(|(idx, oid)| *oid == idx as u64),
        oids,
        byte_size: 0,
        build_cost: 0,
        hit_count: AtomicU64::new(0),
        last_used: AtomicU64::new(0),
        sidecar: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_entry(name: &str, format: SourceFormat, rows: usize) -> CacheEntry {
        make_entry(
            name,
            format!("sig-{name}"),
            "lineitem",
            format,
            vec![("x".to_string(), ColumnData::Int((0..rows as i64).collect()))],
            (0..rows as u64).collect(),
        )
    }

    #[test]
    fn insert_and_lookup_by_signature() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store
            .insert(int_entry("c1", SourceFormat::Json, 100))
            .unwrap();
        let hit = store.lookup_by_signature("sig-c1").unwrap();
        assert_eq!(hit.row_count(), 100);
        assert_eq!(hit.hits(), 1);
        assert!(store.lookup_by_signature("sig-unknown").is_none());
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn byte_size_is_accounted() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store
            .insert(int_entry("c1", SourceFormat::Csv, 10))
            .unwrap();
        let entry = store.get("c1").unwrap();
        // The accounted size is the full footprint: 10 ints (80 B) + 10
        // oids (80 B) + one zone-map entry + the entry's own strings.
        assert_eq!(entry.byte_size, entry.footprint());
        assert_eq!(store.stats().bytes, entry.byte_size);
        assert!(entry.byte_size >= 160 + ZONE_ENTRY_FOOTPRINT);
    }

    #[test]
    fn string_pools_are_accounted() {
        let strings = ColumnData::Str(vec!["aa".into(), "bb".into()]);
        let raw = strings.byte_size();
        let entry = make_entry(
            "s",
            "sig-s",
            "d",
            SourceFormat::Csv,
            vec![("s".to_string(), strings)],
            vec![0, 1],
        );
        assert!(entry.footprint() >= raw + 2 * STRING_POOL_OVERHEAD);
    }

    #[test]
    fn eviction_prefers_binary_over_json() {
        // Budget fits roughly two entries (~220 B of footprint each).
        let store = CacheStore::new(MemoryManager::with_budget(500));
        store
            .insert(int_entry("json_cache", SourceFormat::Json, 10))
            .unwrap();
        store
            .insert(int_entry("bin_cache", SourceFormat::Binary, 10))
            .unwrap();
        // Touch the binary cache so it is the most recently used (and even
        // has a hit on its side).
        assert!(store.lookup_by_signature("sig-bin_cache").is_some());
        // Inserting a third entry forces an eviction; despite being LRU-cold
        // and hitless, the JSON cache must survive because its build cost
        // dominates the benefit score.
        store
            .insert(int_entry("csv_cache", SourceFormat::Csv, 10))
            .unwrap();
        let names = store.names();
        assert!(names.contains(&"json_cache".to_string()));
        assert!(!names.contains(&"bin_cache".to_string()));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn hit_count_outweighs_format_bias() {
        let store = CacheStore::new(MemoryManager::with_budget(500));
        store
            .insert(int_entry("bin_hot", SourceFormat::Binary, 10))
            .unwrap();
        store
            .insert(int_entry("json_cold", SourceFormat::Json, 10))
            .unwrap();
        // 40 hits on the binary entry: benefit 22×41 > 352×1.
        for _ in 0..40 {
            assert!(store.lookup_by_signature("sig-bin_hot").is_some());
        }
        store
            .insert(int_entry("csv_new", SourceFormat::Csv, 10))
            .unwrap();
        let names = store.names();
        assert!(names.contains(&"bin_hot".to_string()));
        assert!(!names.contains(&"json_cold".to_string()));
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let store = CacheStore::new(MemoryManager::with_budget(100));
        let result = store.insert(int_entry("huge", SourceFormat::Json, 1000));
        assert!(matches!(result, Err(StorageError::OutOfMemory(_))));
    }

    #[test]
    fn reinsert_replaces_and_releases_memory() {
        let mm = MemoryManager::with_budget(10_000);
        let store = CacheStore::new(mm.clone());
        store
            .insert(int_entry("c", SourceFormat::Csv, 100))
            .unwrap();
        let before = mm.stats().arena_bytes;
        store
            .insert(int_entry("c", SourceFormat::Csv, 100))
            .unwrap();
        assert_eq!(mm.stats().arena_bytes, before);
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn replaced_entry_with_outstanding_reader_counts_stale_read() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store
            .insert(int_entry("c", SourceFormat::Json, 10))
            .unwrap();
        let reader = store.lookup_by_signature("sig-c").unwrap();
        store
            .insert(int_entry("c", SourceFormat::Json, 10))
            .unwrap();
        // The reader still sees its (old) handle bit-exactly.
        assert_eq!(reader.row_count(), 10);
        assert_eq!(store.stats().stale_reads, 1);
    }

    #[test]
    fn invalidate_dataset_drops_only_its_caches() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store
            .insert(int_entry("a", SourceFormat::Json, 10))
            .unwrap();
        let mut other = int_entry("b", SourceFormat::Csv, 10);
        other.source_dataset = "orders".into();
        store.insert(other).unwrap();
        assert_eq!(store.invalidate_dataset("lineitem"), 1);
        assert_eq!(store.stats().entries, 1);
        assert!(store.get("b").is_some());
        assert_eq!(store.dataset_revision("lineitem"), 1);
        assert_eq!(store.dataset_revision("orders"), 0);
    }

    #[test]
    fn sidecar_is_derived_once_and_belongs_to_its_entry() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store
            .insert(int_entry("a", SourceFormat::Json, 10))
            .unwrap();
        let old = store.get("a").unwrap();
        let first = old.sidecar_or_init(|| Arc::new(1u64)).clone();
        let again = old.sidecar_or_init(|| Arc::new(2u64)).clone();
        assert!(Arc::ptr_eq(&first, &again));
        // Rebinding the name starts from an empty slot: a reader of the old
        // handle keeps the old sidecar, the new entry never sees it.
        store
            .insert(int_entry("a", SourceFormat::Json, 10))
            .unwrap();
        let new = store.get("a").unwrap();
        let fresh = new.sidecar_or_init(|| Arc::new(3u64));
        assert_eq!(fresh.downcast_ref::<u64>(), Some(&3));
        assert_eq!(
            old.sidecar_or_init(|| Arc::new(4u64)).downcast_ref::<u64>(),
            Some(&1)
        );
    }

    #[test]
    fn identity_oids_are_decided_at_construction() {
        let full = int_entry("a", SourceFormat::Json, 5);
        assert!(full.covers_dataset(5));
        assert!(!full.covers_dataset(6));
        let sparse = make_entry(
            "b",
            "sig-b",
            "lineitem",
            SourceFormat::Json,
            vec![("x".to_string(), ColumnData::Int(vec![1, 2, 3]))],
            vec![0, 2, 4],
        );
        assert!(!sparse.covers_dataset(3));
    }

    #[test]
    fn stale_build_is_refused_after_invalidation() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        let revision = store.dataset_revision("lineitem");
        store.invalidate_dataset("lineitem");
        let inserted = store
            .insert_if_current(int_entry("a", SourceFormat::Json, 10), revision)
            .unwrap();
        assert!(!inserted);
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.memory.stats().arena_bytes, 0);
        // At the current revision the build registers.
        let revision = store.dataset_revision("lineitem");
        assert!(store
            .insert_if_current(int_entry("a", SourceFormat::Json, 10), revision)
            .unwrap());
    }

    #[test]
    fn clear_releases_arena() {
        let mm = MemoryManager::with_budget(1 << 20);
        let store = CacheStore::new(mm.clone());
        store
            .insert(int_entry("a", SourceFormat::Json, 10))
            .unwrap();
        store.clear();
        assert_eq!(mm.stats().arena_bytes, 0);
        assert_eq!(store.stats().entries, 0);
    }

    #[test]
    fn caches_for_dataset_filters() {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store
            .insert(int_entry("a", SourceFormat::Json, 10))
            .unwrap();
        store
            .insert(int_entry("b", SourceFormat::Json, 10))
            .unwrap();
        assert_eq!(store.caches_for_dataset("lineitem").len(), 2);
        assert_eq!(store.caches_for_dataset("orders").len(), 0);
    }

    #[test]
    fn entry_column_lookup() {
        let entry = int_entry("a", SourceFormat::Json, 5);
        assert!(entry.column("x").is_some());
        assert!(entry.column("y").is_none());
        assert_eq!(entry.row_count(), 5);
    }

    #[test]
    fn hot_eviction_spills_and_lookup_reloads() {
        let dir = std::env::temp_dir().join("proteus_cache_spill_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::new(MemoryManager::with_budget(500));
        store.set_spill_dir(&dir).unwrap();
        store
            .insert(int_entry("hot", SourceFormat::Json, 10))
            .unwrap();
        // Make it hot, then crowd it out with two hotter/costlier entries.
        assert!(store.lookup_by_signature("sig-hot").is_some());
        let mut big = int_entry("big1", SourceFormat::Json, 10);
        big.build_cost = u64::MAX / 4096;
        store.insert(big).unwrap();
        let mut big = int_entry("big2", SourceFormat::Json, 10);
        big.build_cost = u64::MAX / 4096;
        store.insert(big).unwrap();
        assert!(!store.names().contains(&"hot".to_string()));
        assert!(store.spilled_names().contains(&"hot".to_string()));
        let stats = store.stats();
        assert!(stats.spilled_bytes > 0);

        // Lookup reloads it from disk, bit-exact, evicting a resident.
        let reloaded = store.lookup_by_signature("sig-hot").unwrap();
        assert_eq!(
            **reloaded.column("x").unwrap(),
            ColumnData::Int((0..10).collect())
        );
        assert!(store.names().contains(&"hot".to_string()));
        assert!(store.spilled_names().is_empty());
        assert!(store.stats().bytes <= 500);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
