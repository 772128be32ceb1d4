//! The [`QueryEngine`] facade: the public entry point of the Proteus
//! reproduction.
//!
//! A `QueryEngine` owns the memory manager, the plug-in registry, the
//! adaptive cache store and the optimizer, and exposes:
//!
//! * dataset registration for CSV, JSON, binary row/column data (with format
//!   auto-detection),
//! * SQL queries over flat data and comprehension queries over nested data,
//! * the generated pseudo-IR, per-query metrics and cache statistics the
//!   benchmarks and the examples report.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use proteus_algebra::comprehension::parse_comprehension;
use proteus_algebra::sql::{parse_sql, sql_to_plan};
use proteus_algebra::translate::comprehension_to_plan;
use proteus_algebra::{LogicalPlan, Schema, Value};
use proteus_optimizer::{CacheRewrite, Catalog, OptimizedPlan, Optimizer};
use proteus_plugins::csv::CsvOptions;
use proteus_plugins::{BadRowPolicy, InputPlugin, PluginRegistry};
use proteus_storage::cache::CacheStats;
use proteus_storage::{CacheStore, MemoryManager};

use crate::codegen::{CompiledQuery, Compiler};
use crate::error::Result;
use crate::exec::context::{CancellationToken, QueryContext};
use crate::exec::metrics::ExecutionMetrics;
use crate::exec::scheduler::{AdmissionConfig, DrainReport, Scheduler, SchedulerConfig};
use crate::exec::NumericMode;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Enable the adaptive caching of §6: scans cache the numeric fields
    /// they read from CSV and JSON as binary columns, and later scans read
    /// each such field from its cache entry instead of the raw file.
    pub caching_enabled: bool,
    /// Cache arena budget in bytes.
    pub cache_budget: usize,
    /// Morsel workers per query: `1` (the default) runs the serial path,
    /// `0` uses one worker per available CPU (overridable with
    /// `PROTEUS_THREADS`), any other value is taken literally. A scan that
    /// builds a cache runs on these workers too.
    pub parallelism: usize,
    /// Evaluate kernel-eligible selection predicates with vectorized
    /// columnar kernels over typed morsel columns (the default). `false`
    /// pins every selection to the compiled per-tuple closures — used by the
    /// kernel-vs-closure benchmarks and equivalence tests.
    pub vectorized: bool,
    /// Consult per-morsel zone maps before a morsel's lanes render, skipping
    /// morsels the leading kernel filter provably rejects and
    /// short-circuiting morsels it provably accepts (the default). Rides on
    /// the kernel tier: `vectorized: false` disables it too. `false` runs
    /// the compare kernels on every morsel — used by the skipping-vs-full
    /// benchmarks and equivalence tests.
    pub morsel_skipping: bool,
    /// Always [`NumericMode::Strict`], the only mode: generated engines
    /// reproduce row-order f64 additions bit for bit. Kept only so the
    /// benchmark harness's `Compiler::with_numeric_mode` call still
    /// compiles; it goes with that call (ROADMAP 3(b)).
    pub numeric_mode: NumericMode,
    /// Wall-clock deadline per query. A query running past it fails with
    /// [`crate::EngineError::DeadlineExceeded`] (carrying the metrics of the
    /// work that did complete) at its next morsel boundary. `None` (the
    /// default) means no deadline.
    pub timeout: Option<Duration>,
    /// Per-query cap on execution-state memory (group tables, join build
    /// arenas, collected rows, cache builds), in bytes. Exceeding it fails
    /// the query with [`crate::EngineError::ResourceExhausted`]; the engine
    /// stays usable. `None` (the default) means unlimited.
    pub memory_budget: Option<u64>,
    /// What CSV/JSON registration does with rows that fail to parse.
    /// `None` (the default) keeps each format's historical semantics —
    /// CSV nulls unparseable typed fields ([`BadRowPolicy::Null`]), JSON
    /// rejects the file ([`BadRowPolicy::Fail`]). `Some(policy)` applies
    /// one policy to both: `Fail` errors with the offending row number,
    /// `Skip` drops bad rows, `Null` keeps them with null fields; skipped/
    /// nulled rows are counted in `ExecutionMetrics::bad_rows`.
    pub bad_row_policy: Option<BadRowPolicy>,
    /// Master switch for the per-morsel deadline/cancellation/budget checks
    /// (the default). `false` disarms them even when configured — the A/B
    /// lever of the `robustness_overhead` bench. Worker panic containment
    /// is *not* affected: it is always on.
    pub lifecycle: bool,
    /// Admission policy for this engine's queries. `Some(cfg)` gives the
    /// engine a *dedicated* scheduler running at most `cfg.max_concurrent`
    /// queries with a bounded pending queue (arrivals beyond it are shed
    /// with [`crate::EngineError::Overloaded`]). `None` (the default)
    /// admits everything and shares the process-wide pool.
    pub admission: Option<AdmissionConfig>,
    /// Directory for the cache store's disk tier. When set, evicted entries
    /// that have recorded hits spill here instead of vanishing, and a later
    /// scan of one of their fields reloads the entry from disk instead of
    /// rebuilding it from the raw file (counted as a hit; the entry takes
    /// arena bytes again, evicting colder ones). `None` (the default)
    /// disables spilling.
    pub cache_spill_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            caching_enabled: true,
            cache_budget: MemoryManager::DEFAULT_ARENA_BUDGET,
            parallelism: 1,
            vectorized: true,
            morsel_skipping: true,
            numeric_mode: NumericMode::Strict,
            timeout: None,
            memory_budget: None,
            bad_row_policy: None,
            lifecycle: true,
            admission: None,
            cache_spill_dir: None,
        }
    }
}

impl EngineConfig {
    /// Configuration with adaptive caching switched off (the setting used by
    /// most of §7.1: "Unless otherwise specified, the adaptive caching of
    /// Proteus is deactivated").
    pub fn without_caching() -> EngineConfig {
        EngineConfig {
            caching_enabled: false,
            ..Default::default()
        }
    }

    /// Configuration with morsel-parallel execution on every available CPU.
    pub fn parallel() -> EngineConfig {
        EngineConfig {
            parallelism: 0,
            ..Default::default()
        }
    }

    /// Sets the number of morsel workers (builder style).
    pub fn with_parallelism(mut self, parallelism: usize) -> EngineConfig {
        self.parallelism = parallelism;
        self
    }

    /// Enables or disables the vectorized predicate kernels (builder style).
    pub fn with_vectorized(mut self, vectorized: bool) -> EngineConfig {
        self.vectorized = vectorized;
        self
    }

    /// Enables or disables zone-map morsel skipping (builder style).
    pub fn with_morsel_skipping(mut self, morsel_skipping: bool) -> EngineConfig {
        self.morsel_skipping = morsel_skipping;
        self
    }

    /// Sets the per-query wall-clock deadline (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> EngineConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the per-query execution-state memory cap in bytes (builder
    /// style).
    pub fn with_memory_budget(mut self, bytes: u64) -> EngineConfig {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the bad-row policy applied when registering CSV/JSON datasets
    /// (builder style).
    pub fn with_bad_row_policy(mut self, policy: BadRowPolicy) -> EngineConfig {
        self.bad_row_policy = Some(policy);
        self
    }

    /// Arms or disarms the per-morsel lifecycle checks (builder style).
    /// Panic containment stays on either way.
    pub fn with_lifecycle(mut self, lifecycle: bool) -> EngineConfig {
        self.lifecycle = lifecycle;
        self
    }

    /// Gives the engine a dedicated scheduler with the admission policy
    /// (builder style): bounded concurrency, bounded pending queue,
    /// overload shedding.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> EngineConfig {
        self.admission = Some(admission);
        self
    }

    /// Enables the cache store's disk tier under `dir` (builder style):
    /// hot entries spill on eviction and reload on the next lookup.
    pub fn with_cache_spill_dir(mut self, dir: impl Into<PathBuf>) -> EngineConfig {
        self.cache_spill_dir = Some(dir.into());
        self
    }
}

/// The result of one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output rows (records).
    pub rows: Vec<Value>,
    /// Compile + execution metrics.
    pub metrics: ExecutionMetrics,
    /// Pseudo-IR of the generated engine.
    pub ir: String,
    /// The optimized plan that was compiled.
    pub plan: LogicalPlan,
    /// Always empty: kept only because the end-to-end benchmark reads it.
    pub cache_rewrites: Vec<CacheRewrite>,
    /// The access path every scanned dataset used.
    pub access_paths: Vec<String>,
}

impl QueryResult {
    /// Convenience: the single scalar of a one-row/one-aggregate result.
    pub fn scalar(&self, field: &str) -> Option<Value> {
        self.rows
            .first()
            .and_then(|r| r.as_record().ok())
            .and_then(|r| r.get(field).cloned())
    }

    /// Convenience: the individual rows of the result, borrowed — the
    /// `result` bag of a pure-projection query flattened, any other result
    /// as it is.
    pub fn flattened_rows(&self) -> &[Value] {
        if let [Value::Record(record)] = self.rows.as_slice() {
            if record.len() == 1 {
                if let Some((_, Value::List(items))) = record.get_index(0) {
                    return items;
                }
            }
        }
        &self.rows
    }
}

/// The Proteus query engine.
pub struct QueryEngine {
    config: EngineConfig,
    memory: MemoryManager,
    registry: PluginRegistry,
    caches: CacheStore,
    scheduler: Arc<Scheduler>,
    workload_metrics: parking_lot::Mutex<ExecutionMetrics>,
}

impl QueryEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> QueryEngine {
        let memory = MemoryManager::with_budget(config.cache_budget);
        // An admission policy needs its own bookkeeping, so it gets a
        // dedicated scheduler; engines without one share the process-wide
        // pool (their queries steal work from each other's slack).
        let scheduler = match &config.admission {
            Some(admission) => Scheduler::new(SchedulerConfig {
                max_workers: 0,
                admission: Some(admission.clone()),
            }),
            None => Scheduler::global(),
        };
        let caches = CacheStore::new(memory.clone());
        // Route the store's spill/load fault sites through the shared
        // chaos-injection registry, so the lifecycle tests can fail them.
        caches.set_fault_probe(Arc::new(proteus_plugins::fault::check));
        if let Some(dir) = &config.cache_spill_dir {
            // Spilling is strictly best-effort: an unusable directory just
            // means evictions discard instead of spilling.
            let _ = caches.set_spill_dir(dir);
        }
        QueryEngine {
            registry: PluginRegistry::new(),
            caches,
            memory,
            config,
            scheduler,
            workload_metrics: parking_lot::Mutex::new(ExecutionMetrics::new()),
        }
    }

    /// Creates an engine with default configuration (caching enabled).
    pub fn with_defaults() -> QueryEngine {
        Self::new(EngineConfig::default())
    }

    /// The memory manager (exposed so callers can pre-map files or inspect
    /// arena usage).
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// The plug-in registry.
    pub fn registry(&self) -> &PluginRegistry {
        &self.registry
    }

    /// The cache store.
    pub fn caches(&self) -> &CacheStore {
        &self.caches
    }

    // -- dataset registration -------------------------------------------------

    /// Registers an already-constructed plug-in.
    pub fn register_plugin(&self, plugin: Arc<dyn InputPlugin>) {
        self.registry.register(plugin);
    }

    /// Registers a CSV file with an explicit schema. Malformed rows follow
    /// the engine's bad-row policy (`EngineConfig::with_bad_row_policy`);
    /// without one, unparseable typed fields read as nulls (the format's
    /// historical lenient semantics).
    pub fn register_csv(
        &self,
        dataset: impl Into<String>,
        path: impl AsRef<Path>,
        schema: Schema,
        options: CsvOptions,
    ) -> Result<()> {
        match self.config.bad_row_policy {
            Some(policy) => self.registry.register_csv_with_policy(
                dataset,
                path,
                schema,
                options,
                &self.memory,
                policy,
            )?,
            None => self
                .registry
                .register_csv(dataset, path, schema, options, &self.memory)?,
        }
        Ok(())
    }

    /// Registers a JSON file (schema is inferred; the structural index is
    /// built during this first access). Malformed objects follow the
    /// engine's bad-row policy (`EngineConfig::with_bad_row_policy`);
    /// without one, any malformed object rejects the file (the format's
    /// historical strict semantics).
    pub fn register_json(&self, dataset: impl Into<String>, path: impl AsRef<Path>) -> Result<()> {
        match self.config.bad_row_policy {
            Some(policy) => {
                self.registry
                    .register_json_with_policy(dataset, path, &self.memory, policy)?
            }
            None => self.registry.register_json(dataset, path, &self.memory)?,
        }
        Ok(())
    }

    /// Registers a binary column-table directory.
    pub fn register_columns(
        &self,
        dataset: impl Into<String>,
        dir: impl AsRef<Path>,
    ) -> Result<()> {
        self.registry.register_columns(dataset, dir)?;
        Ok(())
    }

    /// Registers a binary row file.
    pub fn register_rows(&self, dataset: impl Into<String>, path: impl AsRef<Path>) -> Result<()> {
        self.registry.register_rows(dataset, path, &self.memory)?;
        Ok(())
    }

    /// Registers a dataset with format auto-detection.
    pub fn register_auto(
        &self,
        dataset: impl Into<String>,
        path: impl AsRef<Path>,
        schema: Option<Schema>,
    ) -> Result<()> {
        self.registry
            .register_auto(dataset, path, schema, &self.memory)?;
        Ok(())
    }

    /// Signals that a dataset's contents changed: affected caches are dropped
    /// (memory, the zone maps memoized in them and spill files alike) and
    /// will be rebuilt lazily by the next scan that reads the raw file (§4,
    /// "Implementation Scope"). The dataset's revision is bumped too, so a
    /// caching scan that started before this call registers nothing. Returns
    /// the number of entries dropped.
    pub fn notify_update(&self, dataset: &str) -> usize {
        self.caches.invalidate_dataset(dataset)
    }

    // -- query execution ------------------------------------------------------

    /// Runs a SQL query.
    pub fn sql(&self, query: &str) -> Result<QueryResult> {
        self.sql_with_cancellation(query, None)
    }

    /// Runs a SQL query under a cancellation token. Calling
    /// [`CancellationToken::cancel`] from any thread makes the query fail
    /// with [`crate::EngineError::Cancelled`] at its next morsel boundary;
    /// the engine stays fully usable afterwards.
    pub fn sql_with_cancellation(
        &self,
        query: &str,
        cancel: Option<CancellationToken>,
    ) -> Result<QueryResult> {
        let parsed = parse_sql(query)?;
        let registry = self.registry.clone();
        let plan = sql_to_plan(&parsed, &move |name: &str| registry.schema_of(name))?;
        self.execute_plan_with_cancellation(plan, cancel)
    }

    /// Runs a monoid-comprehension query.
    pub fn comprehension(&self, query: &str) -> Result<QueryResult> {
        let comp = parse_comprehension(query)?;
        let registry = self.registry.clone();
        let plan = comprehension_to_plan(&comp, &move |name: &str| registry.schema_of(name))?;
        self.execute_plan(plan)
    }

    /// Optimizes, compiles and executes a logical plan.
    pub fn execute_plan(&self, plan: LogicalPlan) -> Result<QueryResult> {
        self.execute_plan_with_cancellation(plan, None)
    }

    /// Optimizes and compiles a logical plan under this engine's
    /// configuration. Execution and EXPLAIN both go through here, so the IR
    /// EXPLAIN prints is the IR of the engine that runs.
    fn prepare(&self, plan: LogicalPlan) -> Result<(OptimizedPlan, CompiledQuery)> {
        let catalog = Catalog::from_registry(&self.registry);
        let optimizer = Optimizer::new(catalog);
        let caches = self.config.caching_enabled.then_some(&self.caches);
        let optimized = optimizer.optimize(plan, caches);

        let compiler = Compiler::new(
            self.registry.clone(),
            self.config.caching_enabled.then(|| self.caches.clone()),
        )
        .with_vectorization(self.config.vectorized)
        .with_morsel_skipping(self.config.morsel_skipping);
        let compiled = compiler.compile(&optimized.plan)?;
        Ok((optimized, compiled))
    }

    /// Optimizes, compiles and executes a logical plan under an optional
    /// cancellation token plus the engine's configured deadline and memory
    /// budget.
    pub fn execute_plan_with_cancellation(
        &self,
        plan: LogicalPlan,
        cancel: Option<CancellationToken>,
    ) -> Result<QueryResult> {
        let (optimized, compiled) = self.prepare(plan)?;
        let ir = compiled.ir.clone();
        let access_paths = compiled.access_paths.clone();
        let ctx = Arc::new(QueryContext::new(
            cancel,
            self.config.timeout,
            self.config.memory_budget,
            self.config.lifecycle,
        ));
        // Admission is once per query, never per nested pipeline run — a
        // query that holds a slot can always finish, so the bounded queue
        // can never deadlock against itself.
        let permit = self.scheduler.admit(&ctx)?;
        let queue_wait_us = permit.queue_wait.as_micros() as u64;
        let mut output = compiled.execute_with_scheduler(
            self.config.parallelism,
            ctx,
            Arc::clone(&self.scheduler),
        )?;
        drop(permit);
        output.metrics.queue_wait_us += queue_wait_us;

        self.workload_metrics.lock().merge(&output.metrics);

        Ok(QueryResult {
            rows: output.rows,
            metrics: output.metrics,
            ir,
            plan: optimized.plan,
            cache_rewrites: optimized.cache_rewrites,
            access_paths,
        })
    }

    /// Returns the optimized plan and generated pseudo-IR for a SQL query
    /// without executing it (EXPLAIN).
    pub fn explain_sql(&self, query: &str) -> Result<String> {
        let parsed = parse_sql(query)?;
        let registry = self.registry.clone();
        let plan = sql_to_plan(&parsed, &move |name: &str| registry.schema_of(name))?;
        let (optimized, compiled) = self.prepare(plan)?;
        Ok(format!(
            "== Optimized plan (estimated cost {:.1}, cardinality {:.1}) ==\n{}\n== Generated engine (pseudo-IR) ==\n{}",
            optimized.estimate.cost,
            optimized.estimate.cardinality,
            proteus_algebra::pretty::explain(&optimized.plan),
            compiled.ir
        ))
    }

    // -- observability --------------------------------------------------------

    /// Cache statistics (entries, bytes, hits, misses, evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }

    /// Drops every cache.
    pub fn clear_caches(&self) {
        self.caches.clear();
    }

    /// Snapshots the current cache contents into `dir` (one checksummed,
    /// versioned file per entry — see `proteus_storage::persist`). Returns
    /// the number of entries written. Stale snapshot files for entries that
    /// no longer exist are removed first.
    pub fn snapshot_caches(&self, dir: impl AsRef<Path>) -> Result<usize> {
        Ok(proteus_storage::persist::snapshot(
            &self.caches,
            dir.as_ref(),
        )?)
    }

    /// Warm restart: loads every valid snapshot file from `dir` into the
    /// cache store, skipping (with a count, not an error) files that are
    /// corrupt, truncated, from a different format version, or too big for
    /// the current budget. Restored entries are bit-identical to what
    /// [`QueryEngine::snapshot_caches`] saw.
    pub fn warm_from(&self, dir: impl AsRef<Path>) -> Result<proteus_storage::WarmReport> {
        Ok(proteus_storage::persist::warm(&self.caches, dir.as_ref())?)
    }

    /// Aggregate metrics across every query run so far (workload totals, as
    /// in Table 3).
    pub fn workload_metrics(&self) -> ExecutionMetrics {
        self.workload_metrics.lock().clone()
    }

    /// Resets the aggregate workload metrics.
    pub fn reset_workload_metrics(&self) {
        *self.workload_metrics.lock() = ExecutionMetrics::new();
    }

    /// The scheduler this engine's queries run on (the process-wide pool,
    /// or the engine's dedicated one when an admission policy is set).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Graceful drain (for shutdown): stop admitting queries, give
    /// in-flight ones `grace` to finish, then cancel the stragglers through
    /// their own contexts. See [`Scheduler::drain`]. Admission stays closed
    /// afterwards — on an engine without an admission policy that is the
    /// process-wide scheduler, which `self.scheduler().resume()` reopens
    /// (the TCP server's shutdown does so itself).
    pub fn drain(&self, grace: Duration) -> DrainReport {
        self.scheduler.drain(grace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_plugins::binary::ColumnPlugin;
    use proteus_storage::ColumnData;
    use std::fs;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("proteus_engine_tests").join(name);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn engine_with_tpch_columns() -> QueryEngine {
        let engine = QueryEngine::new(EngineConfig::without_caching());
        engine.register_plugin(Arc::new(
            ColumnPlugin::from_pairs(
                "lineitem",
                vec![
                    (
                        "l_orderkey".to_string(),
                        ColumnData::Int((0..600).map(|i| i % 150).collect()),
                    ),
                    (
                        "l_linenumber".to_string(),
                        ColumnData::Int((0..600).map(|i| i % 7).collect()),
                    ),
                    (
                        "l_quantity".to_string(),
                        ColumnData::Float((0..600).map(|i| (i % 50) as f64).collect()),
                    ),
                ],
            )
            .unwrap(),
        ));
        engine.register_plugin(Arc::new(
            ColumnPlugin::from_pairs(
                "orders",
                vec![
                    (
                        "o_orderkey".to_string(),
                        ColumnData::Int((0..150).collect()),
                    ),
                    (
                        "o_totalprice".to_string(),
                        ColumnData::Float((0..150).map(|i| i as f64 * 10.0).collect()),
                    ),
                ],
            )
            .unwrap(),
        ));
        engine
    }

    #[test]
    fn sql_count_and_max() {
        let engine = engine_with_tpch_columns();
        let result = engine
            .sql("SELECT COUNT(*), MAX(l_quantity) FROM lineitem WHERE l_orderkey < 75")
            .unwrap();
        assert_eq!(result.scalar("count_0"), Some(Value::Int(300)));
        assert_eq!(result.scalar("max_1"), Some(Value::Float(49.0)));
        assert!(result.ir.contains("while (!eof(lineitem))"));
    }

    #[test]
    fn parallel_engine_matches_serial_engine() {
        let serial = engine_with_tpch_columns();
        let parallel = {
            let engine = QueryEngine::new(EngineConfig {
                caching_enabled: false,
                parallelism: 4,
                ..Default::default()
            });
            for plugin_name in ["lineitem", "orders"] {
                engine.register_plugin(serial.registry().get(plugin_name).unwrap());
            }
            engine
        };
        for query in [
            "SELECT COUNT(*), MAX(l_quantity) FROM lineitem WHERE l_orderkey < 75",
            "SELECT l_linenumber, COUNT(*) FROM orders o JOIN lineitem l \
             ON o_orderkey = l_orderkey WHERE o_totalprice < 500 GROUP BY l_linenumber",
            "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey < 3",
        ] {
            let a = serial.sql(query).unwrap();
            let b = parallel.sql(query).unwrap();
            // This dataset fits in one morsel, so this exercises the config
            // plumbing; genuine multi-worker runs are covered by the codegen
            // test `multi_morsel_plans_really_run_on_multiple_workers` and by
            // tests/parallel_equivalence.rs.
            assert_eq!(a.rows, b.rows, "{query}");
        }
    }

    #[test]
    fn sql_join_group_by() {
        let engine = engine_with_tpch_columns();
        let result = engine
            .sql(
                "SELECT l_linenumber, COUNT(*) FROM orders o JOIN lineitem l \
                 ON o_orderkey = l_orderkey WHERE o_totalprice < 500 GROUP BY l_linenumber",
            )
            .unwrap();
        assert!(!result.rows.is_empty());
        let total: i64 = result
            .rows
            .iter()
            .map(|r| {
                r.as_record()
                    .unwrap()
                    .get("count_1")
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .sum();
        // 50 orders qualify (price < 500 → o_orderkey < 50); each matches 4
        // lineitems (600 rows mod 150).
        assert_eq!(total, 200);
    }

    #[test]
    fn comprehension_over_json_with_unnest() {
        let dir = temp_dir("json_comp");
        let path = dir.join("sailors.json");
        fs::write(
            &path,
            r#"{"id": 1, "children": [{"name": "ann", "age": 20}, {"name": "bob", "age": 10}]}
{"id": 2, "children": [{"name": "eve", "age": 30}]}
"#,
        )
        .unwrap();
        let engine = QueryEngine::with_defaults();
        engine.register_json("Sailor", &path).unwrap();
        let result = engine
            .comprehension(
                "for { s <- Sailor, c <- s.children, c.age > 18 } yield bag (s.id, c.name)",
            )
            .unwrap();
        let rows = result.flattened_rows();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn caching_speeds_second_query_and_reports_stats() {
        let dir = temp_dir("caching");
        let path = dir.join("lineitem.json");
        let mut json = String::new();
        for i in 0..500 {
            json.push_str(&format!(
                "{{\"l_orderkey\": {}, \"l_quantity\": {}.5, \"l_comment\": \"c{}\"}}\n",
                i % 100,
                i % 50,
                i
            ));
        }
        fs::write(&path, json).unwrap();

        let engine = QueryEngine::with_defaults();
        engine.register_json("lineitem", &path).unwrap();
        let q = "SELECT COUNT(*), MAX(l_quantity) FROM lineitem WHERE l_orderkey < 50";
        let first = engine.sql(q).unwrap();
        assert!(first.metrics.cached_values > 0);
        let stats = engine.cache_stats();
        assert!(stats.entries >= 1);
        // Real per-entry byte accounting: non-zero, within the arena
        // budget, and exactly the sum of the entries' recorded footprints.
        assert!(stats.bytes > 0);
        assert!(stats.bytes <= MemoryManager::DEFAULT_ARENA_BUDGET);
        let footprint_sum: usize = engine
            .caches()
            .entries_snapshot()
            .iter()
            .map(|e| e.byte_size)
            .sum();
        assert_eq!(stats.bytes, footprint_sum);
        let second = engine.sql(q).unwrap();
        assert_eq!(first.scalar("count_0"), second.scalar("count_0"));
        assert!(second
            .access_paths
            .iter()
            .any(|p| p.contains("cache") || p.contains("fully served")));
        assert!(engine.workload_metrics().tuples_scanned >= 1000);
        engine.clear_caches();
        assert_eq!(engine.cache_stats().entries, 0);
        assert_eq!(engine.cache_stats().bytes, 0);
    }

    #[test]
    fn notify_update_invalidates_caches() {
        let dir = temp_dir("update");
        let path = dir.join("data.json");
        fs::write(&path, "{\"x\": 1}\n{\"x\": 2}\n").unwrap();
        let engine = QueryEngine::with_defaults();
        engine.register_json("data", &path).unwrap();
        engine.sql("SELECT COUNT(*) FROM data WHERE x < 5").unwrap();
        assert!(engine.cache_stats().entries > 0);
        assert!(engine.notify_update("data") > 0);
        assert_eq!(engine.cache_stats().entries, 0);
        // Invalidation releases the arena bytes with the entries.
        assert_eq!(engine.cache_stats().bytes, 0);
        assert!(engine.caches().names().is_empty());
    }

    #[test]
    fn explain_returns_plan_and_ir() {
        let engine = engine_with_tpch_columns();
        let text = engine
            .explain_sql("SELECT COUNT(*) FROM lineitem WHERE l_orderkey < 10")
            .unwrap();
        assert!(text.contains("Optimized plan"));
        assert!(text.contains("Scan lineitem"));
        assert!(text.contains("pseudo-IR"));
    }

    #[test]
    fn explain_prints_the_ir_of_the_engine_that_runs() {
        let dir = temp_dir("explain_ir");
        let path = dir.join("data.json");
        fs::write(&path, "{\"x\": 1, \"y\": 2.5}\n{\"x\": 2, \"y\": 3.5}\n").unwrap();
        let query = "SELECT COUNT(*), MAX(y) FROM data WHERE x < 5";
        let cache_line = "cache[data] += [";
        let engine = QueryEngine::with_defaults();
        engine.register_json("data", &path).unwrap();
        // EXPLAIN first: the query itself builds the cache, and a warm
        // engine compiles a different (cache-reading) scan.
        let explained = engine.explain_sql(query).unwrap();
        let executed = engine.sql(query).unwrap();
        assert!(
            executed.ir.contains(cache_line),
            "executed IR lacks `{cache_line}`:\n{}",
            executed.ir
        );
        assert!(
            explained.ends_with(&executed.ir),
            "EXPLAIN printed\n{explained}\nbut the query ran\n{}",
            executed.ir
        );
    }

    #[test]
    fn unknown_dataset_is_reported() {
        let engine = QueryEngine::with_defaults();
        assert!(engine.sql("SELECT COUNT(*) FROM nothing").is_err());
    }

    #[test]
    fn pure_projection_flattens() {
        let engine = engine_with_tpch_columns();
        let result = engine
            .sql("SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey < 2")
            .unwrap();
        let rows = result.flattened_rows();
        assert_eq!(rows.len(), 8);
    }
}
