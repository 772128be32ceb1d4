//! Cache-lifecycle chaos/property suite.
//!
//! Pins the adaptive cache's whole life: budgeted admission with
//! cost/benefit eviction, background builds racing queries and
//! invalidations, disk spill/reload and snapshot/warm-restart persistence,
//! and concurrent readers during rebuilds. The contracts under test:
//!
//! * `CacheStats::bytes` never exceeds the arena budget, under any
//!   interleaving of inserts, lookups, invalidations and clears;
//! * a lookup either returns the exact bytes that were inserted (possibly
//!   reloaded from spill) or a clean miss — never a torn or stale entry;
//! * eviction order is a deterministic function of (build cost, hits,
//!   size, last use), so two stores fed the same history agree;
//! * background builds honor cancellation and the revision fence: there is
//!   no such thing as a half-built or stale-registered cache;
//! * persistence round-trips bit-exactly and rejects corrupt/truncated
//!   files gracefully (a count in the report, never an error or a panic).
//!
//! Fault configuration is process-global, so the fault-driven tests
//! serialize on one mutex and disarm all sites on scope exit.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use proteus::core::EngineError;
use proteus::datagen::writers;
use proteus::plugins::fault::{self, FaultAction};
use proteus::prelude::*;
use proteus::storage::cache::make_entry;
use proteus::storage::{persist, ColumnData};

// -- serialization of fault-driven tests ----------------------------------

struct FaultScope {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn fault_scope() -> FaultScope {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::clear();
    FaultScope { _guard: guard }
}

// -- fixtures -------------------------------------------------------------

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("proteus_cache_lifecycle")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema_ab() -> Schema {
    Schema::from_pairs(vec![("a", DataType::Int), ("b", DataType::Int)])
}

fn rows_ab(n: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::record(vec![("a", Value::Int(i)), ("b", Value::Int(i * 3 % 97))]))
        .collect()
}

/// Registers `t` as a CSV of `n` rows — a verbose source, so its numeric
/// fields are cache candidates under the paper's policy.
fn register_csv(engine: &QueryEngine, dir: &std::path::Path, table: &str, n: i64) {
    let path = dir.join(format!("{table}.csv"));
    writers::write_csv(&path, &rows_ab(n), &schema_ab(), '|').unwrap();
    engine
        .register_csv(table, &path, schema_ab(), CsvOptions::default())
        .unwrap();
}

/// A deterministic LCG (same constants as `rand`'s shim idiom): the
/// property tests must replay identically across runs and stores.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// A synthetic entry with deterministic contents derived from (name, len):
/// lookups can verify bit-exactness against a recomputation.
fn synth_entry(name: &str, dataset: &str, len: usize, format: SourceFormat) -> CacheEntryFixture {
    let values: Vec<i64> = (0..len)
        .map(|i| (i as i64).wrapping_mul(31).wrapping_add(name.len() as i64))
        .collect();
    let entry = make_entry(
        name,
        format!("sig::{name}"),
        dataset,
        format,
        vec![("v".to_string(), ColumnData::Int(values.clone()))],
        (0..len as u64).collect(),
    );
    CacheEntryFixture { entry, values }
}

struct CacheEntryFixture {
    entry: proteus::storage::CacheEntry,
    values: Vec<i64>,
}

// -- property: budget + bit-exact-or-miss under interleavings -------------

#[test]
fn property_interleavings_keep_bytes_under_budget_and_lookups_exact() {
    const BUDGET: usize = 8 * 1024;
    for seed in 0..16u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) + 1);
        let dir = scratch(&format!("prop_{seed}"));
        let store = CacheStore::new(MemoryManager::with_budget(BUDGET));
        store.set_spill_dir(&dir).unwrap();
        // Model: the exact contents last inserted under each name.
        let mut model: std::collections::HashMap<String, Vec<i64>> =
            std::collections::HashMap::new();
        for _step in 0..400 {
            match rng.next() % 12 {
                0..=5 => {
                    let id = rng.next() % 8;
                    let name = format!("e{id}");
                    let dataset = format!("ds{}", id % 3);
                    let len = (rng.next() % 200 + 1) as usize;
                    let format = match rng.next() % 3 {
                        0 => SourceFormat::Binary,
                        1 => SourceFormat::Csv,
                        _ => SourceFormat::Json,
                    };
                    let fx = synth_entry(&name, &dataset, len, format);
                    if store.insert(fx.entry).is_ok() {
                        model.insert(name, fx.values);
                    } else {
                        // Refused (cannot fit even alone): not present.
                        model.remove(&name);
                    }
                }
                6..=8 => {
                    let id = rng.next() % 8;
                    let name = format!("e{id}");
                    if let Some(entry) = store.lookup_by_signature(&format!("sig::{name}")) {
                        // Hit ⇒ bit-exact against the model (never torn,
                        // never a stale survivor of invalidate/clear).
                        let expected = model.get(&name).unwrap_or_else(|| {
                            panic!("lookup returned evicted-and-dropped {name}")
                        });
                        match entry.column("v").map(Arc::as_ref) {
                            Some(ColumnData::Int(got)) => assert_eq!(got, expected),
                            other => panic!("wrong column shape: {other:?}"),
                        }
                    }
                    // Miss is always acceptable: evicted cold, or dropped.
                }
                9 => {
                    let ds = format!("ds{}", rng.next() % 3);
                    store.invalidate_dataset(&ds);
                    model.retain(|name, _| {
                        let id: u64 = name[1..].parse().unwrap();
                        format!("ds{}", id % 3) != ds
                    });
                }
                10 => {
                    // Hits shape future evictions; exercise them mid-stream.
                    let name = format!("e{}", rng.next() % 8);
                    store.record_hit(&name);
                }
                _ => {
                    if rng.next().is_multiple_of(4) {
                        store.clear();
                        model.clear();
                    }
                }
            }
            let stats = store.stats();
            assert!(
                stats.bytes <= BUDGET,
                "seed {seed}: bytes {} exceeded budget {BUDGET}",
                stats.bytes
            );
        }
    }
}

#[test]
fn eviction_order_is_deterministic_across_stores() {
    const BUDGET: usize = 6 * 1024;
    let build = |spill: &std::path::Path| {
        let store = CacheStore::new(MemoryManager::with_budget(BUDGET));
        store.set_spill_dir(spill).unwrap();
        // Fixed hit history: entries get `id` hits each before the
        // overflow inserts force evictions.
        for id in 0..6u64 {
            let fx = synth_entry(
                &format!("d{id}"),
                "ds",
                120,
                if id % 2 == 0 {
                    SourceFormat::Csv
                } else {
                    SourceFormat::Json
                },
            );
            store.insert(fx.entry).unwrap();
            for _ in 0..id {
                store.record_hit(&format!("d{id}"));
            }
        }
        for id in 6..10u64 {
            let fx = synth_entry(&format!("d{id}"), "ds", 200, SourceFormat::Json);
            store.insert(fx.entry).unwrap();
        }
        let mut names = store.names();
        names.sort();
        (names, store.stats())
    };
    let (names_a, stats_a) = build(&scratch("det_a"));
    let (names_b, stats_b) = build(&scratch("det_b"));
    assert_eq!(names_a, names_b);
    assert_eq!(stats_a.evictions, stats_b.evictions);
    assert!(stats_a.evictions > 0, "fixture never overflowed the budget");
}

#[test]
fn cost_benefit_eviction_keeps_hot_expensive_entries() {
    let store = CacheStore::new(MemoryManager::with_budget(6 * 1024));
    // Hot JSON-derived entry: expensive to rebuild, frequently hit.
    let hot = synth_entry("hot", "ds", 150, SourceFormat::Json);
    store.insert(hot.entry).unwrap();
    for _ in 0..50 {
        store.record_hit("hot");
    }
    // Cold binary-derived entries: cheap to rebuild, never hit.
    for i in 0..8 {
        let cold = synth_entry(&format!("cold{i}"), "ds", 150, SourceFormat::Binary);
        store.insert(cold.entry).unwrap();
    }
    assert!(
        store.get("hot").is_some(),
        "hot expensive entry was evicted ahead of cold cheap ones"
    );
    assert!(store.stats().evictions > 0);
}

// -- background builds ----------------------------------------------------

#[test]
fn background_build_completes_and_serves_later_queries() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("bg_build");
    let engine = QueryEngine::new(EngineConfig::default().with_background_cache_builds(true));
    register_csv(&engine, &dir, "t", 3000);
    let q = "SELECT COUNT(*), MAX(b) FROM t WHERE a >= 0";
    let first = engine.sql(q).unwrap();
    // The foreground query did not build inline.
    assert_eq!(first.metrics.cached_values, 0);
    assert_eq!(engine.wait_for_cache_builds(Duration::from_secs(10)), 0);
    let stats = engine.cache_stats();
    assert!(stats.background_builds >= 1, "stats: {stats:?}");
    assert!(stats.entries >= 1);
    // The cache the background build registered is bit-exact: a query
    // served from it agrees with the uncached run.
    let second = engine.sql(q).unwrap();
    assert_eq!(first.scalar("count_0"), second.scalar("count_0"));
    assert_eq!(first.scalar("max_1"), second.scalar("max_1"));
    assert!(second
        .access_paths
        .iter()
        .any(|p| p.contains("cache") || p.contains("fully served")));
}

#[test]
fn query_racing_a_background_build_sees_clean_miss_or_finished_cache() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("bg_race");
    let engine = QueryEngine::new(EngineConfig::default().with_background_cache_builds(true));
    register_csv(&engine, &dir, "t", 4000);
    let q = "SELECT COUNT(*), MAX(b) FROM t WHERE a >= 0";
    let baseline = engine.sql(q).unwrap();
    // Immediately re-query while the build may be anywhere in its life.
    for _ in 0..10 {
        let racing = engine.sql(q).unwrap();
        assert_eq!(baseline.scalar("count_0"), racing.scalar("count_0"));
        assert_eq!(baseline.scalar("max_1"), racing.scalar("max_1"));
    }
    assert_eq!(engine.wait_for_cache_builds(Duration::from_secs(10)), 0);
    let after = engine.sql(q).unwrap();
    assert_eq!(baseline.scalar("count_0"), after.scalar("count_0"));
}

#[test]
fn invalidation_cancels_in_flight_build_and_engine_stays_usable() {
    let _scope = fault_scope();
    let dir = scratch("bg_cancel");
    let engine = QueryEngine::new(EngineConfig::default().with_background_cache_builds(true));
    register_csv(&engine, &dir, "t", 50_000);
    // Slow every build chunk down so the invalidation lands mid-build.
    fault::configure("cache.build", FaultAction::SleepMs(40));
    let q = "SELECT COUNT(*) FROM t WHERE a >= 0";
    engine.sql(q).unwrap();
    // The build is in flight (or about to be); invalidate the dataset.
    engine.notify_update("t");
    assert_eq!(engine.wait_for_cache_builds(Duration::from_secs(10)), 0);
    // No half-built or stale cache registered.
    assert!(engine.caches().caches_for_dataset("t").is_empty());
    fault::clear();
    // Engine is fully reusable: the next query re-offers the build and it
    // completes normally.
    engine.sql(q).unwrap();
    assert_eq!(engine.wait_for_cache_builds(Duration::from_secs(10)), 0);
    assert!(!engine.caches().caches_for_dataset("t").is_empty());
}

#[test]
fn build_fault_site_aborts_build_without_registering() {
    let _scope = fault_scope();
    let dir = scratch("bg_fault");
    let engine = QueryEngine::new(EngineConfig::default().with_background_cache_builds(true));
    register_csv(&engine, &dir, "t", 3000);
    fault::configure("cache.build", FaultAction::Error);
    let q = "SELECT COUNT(*) FROM t WHERE a >= 0";
    let r1 = engine.sql(q).unwrap();
    assert_eq!(engine.wait_for_cache_builds(Duration::from_secs(10)), 0);
    assert_eq!(engine.cache_stats().background_builds, 0);
    assert_eq!(engine.cache_stats().entries, 0);
    fault::clear();
    // Next query re-offers; the build now completes.
    let r2 = engine.sql(q).unwrap();
    assert_eq!(r1.scalar("count_0"), r2.scalar("count_0"));
    assert_eq!(engine.wait_for_cache_builds(Duration::from_secs(10)), 0);
    assert!(engine.cache_stats().background_builds >= 1);
}

#[test]
fn build_panic_is_contained_and_engine_survives() {
    let _scope = fault_scope();
    let dir = scratch("bg_panic");
    let engine = QueryEngine::new(EngineConfig::default().with_background_cache_builds(true));
    register_csv(&engine, &dir, "t", 3000);
    fault::configure("cache.build", FaultAction::Panic);
    let q = "SELECT COUNT(*) FROM t WHERE a >= 0";
    engine.sql(q).unwrap();
    assert_eq!(engine.wait_for_cache_builds(Duration::from_secs(10)), 0);
    assert_eq!(engine.cache_stats().entries, 0);
    fault::clear();
    // The pool worker that absorbed the panic still serves queries.
    let again = engine.sql(q).unwrap();
    assert_eq!(again.scalar("count_0"), Some(Value::Int(3000)));
}

// -- spill / load fault sites ---------------------------------------------

#[test]
fn spill_and_load_fault_sites_degrade_to_discard_and_miss() {
    let _scope = fault_scope();
    let dir = scratch("spill_faults");
    let store = CacheStore::new(MemoryManager::with_budget(4 * 1024));
    store.set_fault_probe(Arc::new(fault::check));
    store.set_spill_dir(&dir).unwrap();

    // Failing the spill site means hot evictions discard instead.
    fault::configure("cache.spill", FaultAction::Error);
    let hot = synth_entry("hot", "ds", 120, SourceFormat::Json);
    store.insert(hot.entry).unwrap();
    store.record_hit("hot");
    for i in 0..6 {
        let filler = synth_entry(&format!("f{i}"), "ds", 200, SourceFormat::Json);
        for _ in 0..10 {
            store.record_hit(&format!("f{i}"));
        }
        let _ = store.insert(filler.entry);
    }
    assert!(store.spilled_names().is_empty());
    assert_eq!(store.stats().spilled_bytes, 0);
    fault::clear();

    // With the site clear, a hot eviction spills; failing the load site
    // turns the reload into a clean miss (and the file stays for later).
    let hot = synth_entry("hot", "ds", 120, SourceFormat::Json);
    store.insert(hot.entry).unwrap();
    store.record_hit("hot");
    for i in 6..12 {
        let filler = synth_entry(&format!("f{i}"), "ds", 200, SourceFormat::Json);
        for _ in 0..10 {
            store.record_hit(&format!("f{i}"));
        }
        let _ = store.insert(filler.entry);
    }
    if store.get("hot").is_none() {
        assert!(store.spilled_names().contains(&"hot".to_string()));
        fault::configure("cache.load", FaultAction::Error);
        assert!(store.lookup_by_signature("sig::hot").is_none());
        fault::clear();
        let reloaded = store.lookup_by_signature("sig::hot").unwrap();
        let expected = synth_entry("hot", "ds", 120, SourceFormat::Json).values;
        match reloaded.column("v").map(Arc::as_ref) {
            Some(ColumnData::Int(got)) => assert_eq!(got, &expected),
            other => panic!("wrong column shape: {other:?}"),
        }
    }
}

// -- persistence ----------------------------------------------------------

#[test]
fn snapshot_round_trip_is_bit_exact() {
    let dir = scratch("roundtrip");
    let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
    for (i, format) in [SourceFormat::Json, SourceFormat::Csv, SourceFormat::Binary]
        .iter()
        .enumerate()
    {
        let fx = synth_entry(&format!("e{i}"), &format!("ds{i}"), 1500 + i * 137, *format);
        store.insert(fx.entry).unwrap();
        for _ in 0..i {
            store.record_hit(&format!("e{i}"));
        }
    }
    let written = persist::snapshot(&store, &dir).unwrap();
    assert_eq!(written, 3);

    let restored = CacheStore::new(MemoryManager::with_budget(1 << 20));
    let report = persist::warm(&restored, &dir).unwrap();
    assert_eq!(report.loaded, 3);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.skipped, 0);
    for original in store.entries_snapshot() {
        let back = restored.get(&original.name).unwrap();
        assert_eq!(back.plan_signature, original.plan_signature);
        assert_eq!(back.source_dataset, original.source_dataset);
        assert_eq!(back.source_format, original.source_format);
        assert_eq!(back.columns(), original.columns());
        assert_eq!(back.oids(), original.oids());
        assert_eq!(back.build_cost, original.build_cost);
        assert_eq!(back.hits(), original.hits());
    }
}

#[test]
fn corrupt_and_truncated_snapshots_are_rejected_not_fatal() {
    let dir = scratch("corrupt");
    let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
    for i in 0..3 {
        let fx = synth_entry(&format!("e{i}"), "ds", 800, SourceFormat::Json);
        store.insert(fx.entry).unwrap();
    }
    persist::snapshot(&store, &dir).unwrap();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "pcache"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3);
    // Truncate one mid-body, flip a payload byte in another.
    let bytes = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = std::fs::read(&files[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&files[1], &bytes).unwrap();

    let restored = CacheStore::new(MemoryManager::with_budget(1 << 20));
    let report = persist::warm(&restored, &dir).unwrap();
    assert_eq!(report.loaded, 1);
    assert_eq!(report.rejected, 2);
    assert_eq!(restored.stats().entries, 1);
}

#[test]
fn engine_warm_restart_restores_and_serves_bit_identically() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("warm_engine");
    let snap = dir.join("snapshot");
    let q = "SELECT COUNT(*), MAX(b) FROM t WHERE a >= 0";

    let cold = QueryEngine::with_defaults();
    register_csv(&cold, &dir, "t", 2500);
    let baseline = cold.sql(q).unwrap();
    assert!(cold.cache_stats().entries >= 1);
    let written = cold.snapshot_caches(&snap).unwrap();
    assert!(written >= 1);

    // "Restart": a fresh engine over the same dataset, warmed from disk.
    let warm = QueryEngine::with_defaults();
    register_csv(&warm, &dir, "t", 2500);
    let report = warm.warm_from(&snap).unwrap();
    assert_eq!(report.loaded, written);
    assert_eq!(report.rejected, 0);
    assert_eq!(warm.cache_stats().entries, cold.cache_stats().entries);
    // Restored entries are bit-identical to the snapshot source.
    for original in cold.caches().entries_snapshot() {
        let back = warm.caches().get(&original.name).unwrap();
        assert_eq!(back.columns(), original.columns());
        assert_eq!(back.oids(), original.oids());
    }
    // And the very first query on the warm engine is served from cache,
    // with answers identical to the cold engine's.
    let served = warm.sql(q).unwrap();
    assert_eq!(served.scalar("count_0"), baseline.scalar("count_0"));
    assert_eq!(served.scalar("max_1"), baseline.scalar("max_1"));
    assert!(served
        .access_paths
        .iter()
        .any(|p| p.contains("cache") || p.contains("fully served")));
}

// -- concurrent readers during rebuild ------------------------------------

#[test]
fn concurrent_readers_during_rebuild_stay_bit_identical() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("rebuild_readers");
    let engine = Arc::new(QueryEngine::with_defaults());
    register_csv(&engine, &dir, "t", 5000);
    let q = "SELECT COUNT(*), MAX(b) FROM t WHERE a >= 0";
    let baseline = engine.sql(q).unwrap();
    let expected_count = baseline.scalar("count_0");
    let expected_max = baseline.scalar("max_1");

    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for _reader in 0..4 {
            let engine = engine.clone();
            let failures = failures.clone();
            let expected_count = expected_count.clone();
            let expected_max = expected_max.clone();
            scope.spawn(move || {
                for round in 0..8 {
                    match engine.sql(q) {
                        Ok(result) => {
                            if result.scalar("count_0") != expected_count
                                || result.scalar("max_1") != expected_max
                            {
                                failures
                                    .lock()
                                    .unwrap()
                                    .push(format!("round {round}: divergent result"));
                            }
                        }
                        Err(e) => failures
                            .lock()
                            .unwrap()
                            .push(format!("round {round}: {e:?}")),
                    }
                }
            });
        }
        // Writer: invalidate + rebuild while the readers hammer the cache.
        for _ in 0..8 {
            engine.notify_update("t");
            let rebuilt = engine.sql(q).unwrap();
            assert_eq!(rebuilt.scalar("count_0"), expected_count);
        }
    });
    let failures = failures.lock().unwrap();
    assert!(failures.is_empty(), "concurrent failures: {failures:?}");
    // Readers that held a replaced entry finished on the old handle.
    let stats = engine.cache_stats();
    assert!(stats.entries >= 1);
}

// -- acceptance: steady mix under a small budget --------------------------

#[test]
fn steady_mix_under_small_budget_stays_bounded_with_hits_and_warm_restart() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    // Each 600-row 2-column cache entry is ~14.5 KiB: the budget holds two
    // of the three working-set entries, so the steady mix produces hits on
    // the repeated dataset *and* evictions on the rotation.
    const BUDGET: usize = 32 * 1024;
    let dir = scratch("steady_mix");
    let snap = dir.join("snapshot");
    let spill = dir.join("spill");
    let config = EngineConfig {
        cache_budget: BUDGET,
        ..Default::default()
    }
    .with_cache_spill_dir(&spill);
    let engine = QueryEngine::new(config);
    for t in 0..3 {
        register_csv(&engine, &dir, &format!("t{t}"), 600);
    }
    // Steady mix: rotate over the datasets with a bias, long enough for
    // builds, hits, evictions and spills to all occur.
    let mut expected = Vec::new();
    for t in 0..3 {
        let q = format!("SELECT COUNT(*), MAX(b) FROM t{t} WHERE a >= 0");
        expected.push(engine.sql(&q).unwrap().scalar("count_0"));
    }
    for round in 0..12 {
        let t = [0, 1, 0, 2][round % 4];
        let q = format!("SELECT COUNT(*), MAX(b) FROM t{t} WHERE a >= 0");
        let result = engine.sql(&q).unwrap();
        assert_eq!(result.scalar("count_0"), expected[t]);
        let stats = engine.cache_stats();
        assert!(
            stats.bytes <= BUDGET,
            "round {round}: bytes {} over budget {BUDGET}",
            stats.bytes
        );
    }
    let stats = engine.cache_stats();
    assert!(
        stats.hits > 0,
        "steady mix produced no cache hits: {stats:?}"
    );

    // Warm restart under the same small budget: whatever fits loads, and
    // it loads bit-identically.
    let written = engine.snapshot_caches(&snap).unwrap();
    assert!(written >= 1);
    let restarted = QueryEngine::new(
        EngineConfig {
            cache_budget: BUDGET,
            ..Default::default()
        }
        .with_cache_spill_dir(dir.join("spill2")),
    );
    for t in 0..3 {
        register_csv(&restarted, &dir, &format!("t{t}"), 600);
    }
    let report = restarted.warm_from(&snap).unwrap();
    assert!(report.loaded >= 1);
    assert_eq!(report.rejected, 0);
    assert!(restarted.cache_stats().bytes <= BUDGET);
    for restored in restarted.caches().entries_snapshot() {
        let original = engine.caches().get(&restored.name).unwrap();
        assert_eq!(restored.columns(), original.columns());
        assert_eq!(restored.oids(), original.oids());
    }
    // First queries on the restarted engine serve from the warmed cache.
    let t0 = restarted
        .sql("SELECT COUNT(*), MAX(b) FROM t0 WHERE a >= 0")
        .unwrap();
    assert_eq!(t0.scalar("count_0"), expected[0]);
}

// -- zero-copy hits: ownership across invalidation and eviction -----------

/// Optimizes and compiles `sql` the way `QueryEngine::sql` does, without
/// executing it: the tests below act between the two steps.
fn compile(engine: &QueryEngine, sql: &str) -> proteus::core::CompiledQuery {
    use proteus::algebra::sql::{parse_sql, sql_to_plan};
    use proteus::optimizer::{Catalog, Optimizer};
    let registry = engine.registry().clone();
    let schemas = registry.clone();
    let plan = sql_to_plan(&parse_sql(sql).unwrap(), &move |name: &str| {
        schemas.schema_of(name)
    })
    .unwrap();
    let optimized =
        Optimizer::new(Catalog::from_registry(&registry)).optimize(plan, Some(engine.caches()));
    proteus::core::Compiler::new(registry, Some(engine.caches().clone()))
        .compile(&optimized.plan)
        .unwrap()
}

#[test]
fn updated_file_is_never_answered_from_the_old_entry() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("update_rewrite");
    let q = "SELECT COUNT(*), MAX(b), SUM(b) FROM t WHERE a >= 1000";
    let engine = QueryEngine::with_defaults();
    register_csv(&engine, &dir, "t", 3000);
    engine.sql(q).unwrap();
    let warm_old = engine.sql(q).unwrap();
    assert!(warm_old.access_paths[0].contains("fully served"));

    // Same name, same row count, different values — so the rebuilt entries
    // take the names of the dropped ones, with other bounds in every zone.
    let rows: Vec<Value> = (0..3000i64)
        .map(|i| {
            Value::record(vec![
                ("a", Value::Int(2999 - i)),
                ("b", Value::Int(i * 7 % 89)),
            ])
        })
        .collect();
    // (A new path: the memory manager keeps a mapped file's bytes by path.)
    let rewritten = dir.join("t_rewritten.csv");
    writers::write_csv(&rewritten, &rows, &schema_ab(), '|').unwrap();
    engine
        .register_csv("t", &rewritten, schema_ab(), CsvOptions::default())
        .unwrap();
    engine.notify_update("t");

    let uncached = QueryEngine::new(EngineConfig::without_caching());
    uncached
        .register_csv("t", &rewritten, schema_ab(), CsvOptions::default())
        .unwrap();
    let expected = uncached.sql(q).unwrap().rows;
    assert_ne!(expected, warm_old.rows);
    let rebuilding = engine.sql(q).unwrap();
    assert_eq!(rebuilding.rows, expected);
    let warm_new = engine.sql(q).unwrap();
    assert!(warm_new.access_paths[0].contains("fully served"));
    assert_eq!(warm_new.rows, expected);
}

#[test]
fn query_compiled_before_invalidation_or_eviction_runs_on_its_snapshot() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("compiled_snapshot");
    // One two-column 2000-row entry is ~48 KiB: the arena holds one
    // dataset's entry, so building the other's evicts it.
    const BUDGET: usize = 64 * 1024;
    let engine = QueryEngine::new(EngineConfig {
        cache_budget: BUDGET,
        ..Default::default()
    });
    register_csv(&engine, &dir, "t", 2000);
    register_csv(&engine, &dir, "u", 2000);
    let q = "SELECT COUNT(*), MAX(b), SUM(b) FROM t WHERE a >= 500";
    let expected = engine.sql(q).unwrap().rows;
    let under_budget = || {
        let bytes = engine.cache_stats().bytes;
        assert!(bytes <= BUDGET, "bytes {bytes} over budget {BUDGET}");
    };

    // Invalidated between compile and execute: the compiled query holds the
    // old entry's columns and answers from them.
    let compiled = compile(&engine, q);
    assert!(compiled.access_paths[0].contains("fully served"));
    under_budget();
    engine.notify_update("t");
    assert_eq!(engine.cache_stats().bytes, 0);
    assert_eq!(compiled.execute().unwrap().rows, expected);

    // Evicted between compile and execute: same, and the arena only ever
    // accounts for the live entries.
    assert_eq!(engine.sql(q).unwrap().rows, expected);
    let compiled = compile(&engine, q);
    assert!(compiled.access_paths[0].contains("fully served"));
    engine
        .sql("SELECT COUNT(*), MAX(b) FROM u WHERE a >= 0")
        .unwrap();
    under_budget();
    assert!(engine.caches().caches_for_dataset("t").is_empty());
    assert!(engine.cache_stats().evictions > 0);
    assert_eq!(compiled.execute().unwrap().rows, expected);
    under_budget();
}

// -- nullable columns -------------------------------------------------------

#[test]
fn nullable_columns_are_not_answered_from_a_cache() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("nullable");
    let vals = [
        Some(1.5),
        Some(9.25),
        Some(12.0),
        None,
        Some(4.75),
        Some(10.0),
        Some(7.5),
    ];
    let mut json = String::new();
    let mut csv = String::new();
    for (id, val) in vals.iter().enumerate() {
        let text = val.map(|v| format!("{v:?}"));
        json.push_str(&format!(
            "{{\"id\": {id}, \"val\": {}}}\n",
            text.as_deref().unwrap_or("null")
        ));
        csv.push_str(&format!("{id}|{}\n", text.as_deref().unwrap_or("")));
    }
    std::fs::write(dir.join("e.json"), json).unwrap();
    std::fs::write(dir.join("e.csv"), csv).unwrap();
    let register = |engine: &QueryEngine, format: &str| match format {
        "json" => engine.register_json("e", dir.join("e.json")).unwrap(),
        _ => {
            let schema = Schema::from_pairs(vec![("id", DataType::Int), ("val", DataType::Float)]);
            engine
                .register_csv("e", dir.join("e.csv"), schema, CsvOptions::default())
                .unwrap()
        }
    };
    let q = "SELECT COUNT(val), AVG(val), MIN(val), SUM(val) FROM e WHERE id >= 0";
    for format in ["json", "csv"] {
        for vectorized in [true, false] {
            let uncached = QueryEngine::new(EngineConfig {
                vectorized,
                ..EngineConfig::without_caching()
            });
            register(&uncached, format);
            let expected = uncached.sql(q).unwrap().rows;

            let engine = QueryEngine::new(EngineConfig {
                vectorized,
                ..Default::default()
            });
            register(&engine, format);
            let building = engine.sql(q).unwrap();
            let warm = engine.sql(q).unwrap();
            let case = format!("{format}, vectorized {vectorized}");
            assert_eq!(building.rows, expected, "{case}: cache-building run");
            assert_eq!(warm.rows, expected, "{case}: warm run");
            // JSON's `null` and CSV's empty field both read as a null: that
            // column is left out, the null-free one next to it is cached.
            let entries = engine.caches().caches_for_dataset("e");
            assert_eq!(entries.len(), 1, "{case}");
            assert!(entries[0].column("id").is_some(), "{case}");
            assert!(entries[0].column("val").is_none(), "{case}");
        }
    }
}

// -- admission interplay ---------------------------------------------------

#[test]
fn background_builds_never_steal_admission_slots_from_queries() {
    // Builds caches, so it must not overlap a test that arms `cache.build`.
    let _scope = fault_scope();
    let dir = scratch("bg_admission");
    let engine = QueryEngine::new(
        EngineConfig::default()
            .with_background_cache_builds(true)
            .with_admission(proteus::core::AdmissionConfig::new(1, 4)),
    );
    register_csv(&engine, &dir, "t", 3000);
    let q = "SELECT COUNT(*) FROM t WHERE a >= 0";
    // With max_concurrent=1 the build can only take the slot *between*
    // queries; a back-to-back query stream must never be shed because of
    // it (queries queue, builds skip).
    for _ in 0..6 {
        match engine.sql(q) {
            Ok(result) => assert_eq!(result.scalar("count_0"), Some(Value::Int(3000))),
            Err(EngineError::Overloaded { .. }) => {
                panic!("query shed while only background builds competed")
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    engine.wait_for_cache_builds(Duration::from_secs(10));
}
