//! Chaos suite: fault injection, malformed inputs, cancellation, deadlines,
//! memory budgets and panic containment.
//!
//! Every test asserts the same contract — a failing query returns a
//! *structured* [`EngineError`] (never a process abort), and the engine
//! stays fully usable afterwards. Fault configuration is process-global
//! (`proteus::plugins::fault`), so the whole suite serializes itself on one
//! mutex and disarms all sites on scope exit, panicking tests included.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use proteus::core::{BadRowPolicy, CancellationToken, Compiler, EngineError};
use proteus::datagen::writers;
use proteus::plugins::fault::{self, FaultAction};
use proteus::prelude::*;

/// Rows per morsel in the executor — kept in sync with
/// `proteus_core::exec::MORSEL_SIZE` by the row-count choices below.
const MORSEL: i64 = 1024;

// -- serialization --------------------------------------------------------

/// Serializes the suite (fault state is process-global) and guarantees
/// every site is disarmed when the test ends, even on panic.
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
    let dir = std::env::temp_dir().join("proteus_chaos").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rows_ab(n: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::record(vec![("a", Value::Int(i)), ("b", Value::Int(i * 2))]))
        .collect()
}

fn schema_ab() -> Schema {
    Schema::from_pairs(vec![("a", DataType::Int), ("b", DataType::Int)])
}

/// An engine over a well-formed pipe-delimited CSV of `n` rows `(a, b)`.
fn csv_engine(name: &str, n: i64, config: EngineConfig) -> QueryEngine {
    let path = scratch(name).join("t.csv");
    writers::write_csv(&path, &rows_ab(n), &schema_ab(), '|').unwrap();
    let engine = QueryEngine::new(config);
    engine
        .register_csv("t", &path, schema_ab(), CsvOptions::default())
        .unwrap();
    engine
}

fn count_plan(table: &str) -> LogicalPlan {
    LogicalPlan::scan(table, "x", Schema::empty()).reduce(vec![ReduceSpec::new(
        Monoid::Count,
        Expr::int(1),
        "cnt",
    )])
}

/// `COUNT(x.a)`: a count that reads a field, so every morsel runs that
/// field's fill — a decode site in every format. (`COUNT(*)` reads no field,
/// so its morsels decode nothing.)
fn count_a_plan(table: &str) -> LogicalPlan {
    LogicalPlan::scan(table, "x", Schema::empty()).reduce(vec![ReduceSpec::new(
        Monoid::Count,
        Expr::path("x.a"),
        "cnt",
    )])
}

fn count_of(result: &QueryResult) -> i64 {
    result.rows[0]
        .as_record()
        .unwrap()
        .get("cnt")
        .unwrap()
        .as_int()
        .unwrap()
}

// -- malformed inputs (bad-row policies, truncation) ----------------------

#[test]
fn csv_fail_policy_reports_the_offending_row() {
    let _scope = fault_scope();
    let path = scratch("csv_fail").join("bad.csv");
    let mut text = String::new();
    for i in 0..10 {
        if i == 4 {
            text.push_str("oops|not-an-int\n");
        } else {
            text.push_str(&format!("{i}|{}\n", i * 2));
        }
    }
    std::fs::write(&path, text).unwrap();

    let engine =
        QueryEngine::new(EngineConfig::without_caching().with_bad_row_policy(BadRowPolicy::Fail));
    let err = engine
        .register_csv("t", &path, schema_ab(), CsvOptions::default())
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("row 5"), "error names the bad row: {text}");

    // The engine itself is untouched: a clean file registers and queries.
    let good = scratch("csv_fail").join("good.csv");
    writers::write_csv(&good, &rows_ab(100), &schema_ab(), '|').unwrap();
    engine
        .register_csv("t", &good, schema_ab(), CsvOptions::default())
        .unwrap();
    assert_eq!(
        count_of(&engine.execute_plan(count_plan("t")).unwrap()),
        100
    );
}

#[test]
fn csv_skip_and_null_policies_count_bad_rows() {
    let _scope = fault_scope();
    let path = scratch("csv_lenient").join("bad.csv");
    let mut text = String::new();
    for i in 0..50 {
        if i == 7 || i == 23 {
            text.push_str("x|y\n");
        } else {
            text.push_str(&format!("{i}|{}\n", i * 2));
        }
    }
    std::fs::write(&path, text).unwrap();

    // Skip: the two bad rows vanish from the dataset.
    let engine =
        QueryEngine::new(EngineConfig::without_caching().with_bad_row_policy(BadRowPolicy::Skip));
    engine
        .register_csv("t", &path, schema_ab(), CsvOptions::default())
        .unwrap();
    let result = engine.execute_plan(count_plan("t")).unwrap();
    assert_eq!(count_of(&result), 48);
    assert_eq!(result.metrics.bad_rows, 2);

    // Null: the rows stay (their typed fields read as null) but are counted.
    let engine =
        QueryEngine::new(EngineConfig::without_caching().with_bad_row_policy(BadRowPolicy::Null));
    engine
        .register_csv("t", &path, schema_ab(), CsvOptions::default())
        .unwrap();
    let result = engine.execute_plan(count_plan("t")).unwrap();
    assert_eq!(count_of(&result), 50);
    assert_eq!(result.metrics.bad_rows, 2);
}

#[test]
fn json_strict_default_rejects_garbled_files_and_lenient_policies_recover() {
    let _scope = fault_scope();
    let path = scratch("json_garbled").join("t.json");
    let mut text = String::new();
    for i in 0..20 {
        if i == 2 {
            text.push_str("{\"a\": 2, \"b\":\n");
        } else {
            text.push_str(&format!("{{\"a\": {i}, \"b\": {}}}\n", i * 2));
        }
    }
    std::fs::write(&path, text).unwrap();

    // Historical strict semantics: no policy configured → the file is
    // rejected at registration.
    let engine = QueryEngine::new(EngineConfig::without_caching());
    assert!(engine.register_json("t", &path).is_err());

    // Skip: the damaged object is dropped and counted.
    let engine =
        QueryEngine::new(EngineConfig::without_caching().with_bad_row_policy(BadRowPolicy::Skip));
    engine.register_json("t", &path).unwrap();
    let result = engine.execute_plan(count_plan("t")).unwrap();
    assert_eq!(count_of(&result), 19);
    assert_eq!(result.metrics.bad_rows, 1);

    // Null: the object survives with every field null.
    let engine =
        QueryEngine::new(EngineConfig::without_caching().with_bad_row_policy(BadRowPolicy::Null));
    engine.register_json("t", &path).unwrap();
    let result = engine.execute_plan(count_plan("t")).unwrap();
    assert_eq!(count_of(&result), 20);
    assert_eq!(result.metrics.bad_rows, 1);
}

#[test]
fn truncated_binary_column_reports_byte_offset() {
    let _scope = fault_scope();
    let dir = scratch("truncated_cols").join("t_cols");
    writers::write_column_table(&dir, &rows_ab(500), &schema_ab()).unwrap();
    let col = dir.join("a.col");
    let bytes = std::fs::read(&col).unwrap();
    std::fs::write(&col, &bytes[..bytes.len() - 16]).unwrap();

    let engine = QueryEngine::new(EngineConfig::without_caching());
    let err = engine.register_columns("t", &dir).unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("truncated") && text.contains("byte offset"),
        "truncation error carries a byte offset: {text}"
    );
}

// -- fault sites ----------------------------------------------------------

#[test]
fn decode_faults_surface_structured_errors_in_every_format() {
    let _scope = fault_scope();

    let json_path = scratch("decode_faults").join("t.json");
    writers::write_json(&json_path, &rows_ab(100), false).unwrap();
    let cols_dir = scratch("decode_faults").join("t_cols");
    writers::write_column_table(&cols_dir, &rows_ab(100), &schema_ab()).unwrap();

    let csv = csv_engine("decode_faults", 100, EngineConfig::without_caching());
    let json = QueryEngine::new(EngineConfig::without_caching());
    json.register_json("t", &json_path).unwrap();
    let cols = QueryEngine::new(EngineConfig::without_caching());
    cols.register_columns("t", &cols_dir).unwrap();

    for (site, engine) in [
        ("csv.decode", &csv),
        ("json.decode", &json),
        ("binary.decode", &cols),
    ] {
        // Site armed on every hit: fires during access-path generation and
        // surfaces as a structured plug-in error naming the site.
        fault::configure(site, FaultAction::Error);
        let err = engine.execute_plan(count_a_plan("t")).unwrap_err();
        assert!(
            err.to_string().contains(site),
            "{site}: error names its site: {err}"
        );

        // Disarmed, the same engine answers the same query.
        fault::clear();
        assert_eq!(
            count_of(&engine.execute_plan(count_a_plan("t")).unwrap()),
            100
        );

        // Skipping the generation hit pushes the fault into the morsel
        // fill, where it has no error channel: the sentinel panic must come
        // back as a structured internal error, not a worker panic.
        fault::configure_after(site, FaultAction::Error, 1);
        let err = engine.execute_plan(count_a_plan("t")).unwrap_err();
        match &err {
            EngineError::Internal { detail, .. } => {
                assert!(detail.contains(site), "{site}: {detail}")
            }
            other => panic!("{site}: expected Internal, got {other:?}"),
        }
        fault::clear();
        assert_eq!(
            count_of(&engine.execute_plan(count_a_plan("t")).unwrap()),
            100
        );
    }

    // The same fault in the morsel fill of a cache-building scan: the query
    // fails with the structured error, and the builder the fill fed
    // registers nothing. Disarmed, the same query answers and caches.
    let engine = csv_engine("decode_faults_cache", 100, EngineConfig::default());
    let query = "SELECT COUNT(*), SUM(b) FROM t WHERE a >= 0";
    fault::configure_after("csv.decode", FaultAction::Error, 1);
    match engine.sql(query).unwrap_err() {
        EngineError::Internal { detail, .. } => {
            assert!(detail.contains("csv.decode"), "cache build: {detail}")
        }
        other => panic!("cache build: expected Internal, got {other:?}"),
    }
    assert!(engine.caches().caches_for_dataset("t").is_empty());
    fault::clear();
    let result = engine.sql(query).unwrap();
    assert_eq!(result.scalar("count_0"), Some(Value::Int(100)));
    assert!(!engine.caches().caches_for_dataset("t").is_empty());
}

#[test]
fn a_decode_fault_inside_the_typed_unnest_is_contained() {
    let _scope = fault_scope();
    // The typed unnest reads no scan fill at all — the collection never
    // becomes a `Value` — so its expand hook is the morsel path's decode
    // site.
    let path = scratch("expand_fault").join("t.json");
    let text: String = (0..50)
        .map(|i| format!("{{\"id\": {i}, \"items\": [{{\"qty\": {i}}}, {{\"qty\": 1}}]}}\n"))
        .collect();
    std::fs::write(&path, text).unwrap();
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine.register_json("t", &path).unwrap();
    let query = "for { e <- t, i <- e.items, i.qty > 3 } yield count";
    let healthy = engine.comprehension(query).unwrap();
    assert!(healthy.ir.contains("typed expand [qty]"), "{}", healthy.ir);
    assert_eq!(healthy.scalar("result"), Some(Value::Int(46)));

    // Hit 0 is access-path generation; hit 1 is the hook, mid-morsel.
    fault::configure_after("json.decode", FaultAction::Error, 1);
    match engine.comprehension(query).unwrap_err() {
        EngineError::Internal { detail, .. } => assert!(detail.contains("json.decode"), "{detail}"),
        other => panic!("expected Internal, got {other:?}"),
    }
    fault::clear();
    assert_eq!(engine.comprehension(query).unwrap().rows, healthy.rows);
}

#[test]
fn worker_panic_is_contained_and_engine_stays_usable() {
    let _scope = fault_scope();
    let engine = csv_engine("worker_panic", 4 * MORSEL, EngineConfig::without_caching());

    fault::configure("dispatch.morsel", FaultAction::Panic);
    let err = engine.execute_plan(count_plan("t")).unwrap_err();
    match &err {
        EngineError::WorkerPanic { payload } => {
            assert!(payload.contains("dispatch.morsel"), "payload: {payload}")
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // Containment, not survival-by-luck: the same engine, same dataset and
    // same plan produce the right answer immediately afterwards.
    fault::clear();
    let result = engine.execute_plan(count_plan("t")).unwrap();
    assert_eq!(count_of(&result), 4 * MORSEL);
}

#[test]
fn worker_panic_under_execute_with_parallelism_leaves_the_global_pool_usable() {
    // `CompiledQuery::execute_with_parallelism` runs on the process-wide
    // scheduler: a panicking morsel must come back as a structured error,
    // and the pool must serve the next query.
    let _scope = fault_scope();
    let engine = csv_engine(
        "global_pool_panic",
        8 * MORSEL,
        EngineConfig::without_caching(),
    );
    let compiler = Compiler::new(engine.registry().clone(), None);
    let plan = count_plan("t");

    fault::configure("dispatch.morsel", FaultAction::Panic);
    let compiled = compiler.compile(&plan).unwrap();
    match compiled.execute_with_parallelism(4).unwrap_err() {
        EngineError::WorkerPanic { payload } => {
            assert!(payload.contains("dispatch.morsel"), "payload: {payload}")
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    fault::clear();

    let compiled = compiler.compile(&plan).unwrap();
    let output = compiled.execute_with_parallelism(4).unwrap();
    let cnt = output.rows[0].as_record().unwrap().get("cnt").cloned();
    assert_eq!(cnt, Some(Value::Int(8 * MORSEL)));
    assert_eq!(output.metrics.threads_used, 4);
    assert!((1..=4).contains(&output.metrics.workers_touched));
}

#[test]
fn join_build_panic_is_contained_and_the_join_answers_afterwards() {
    // The join index is built on the submitting thread during `prepare`,
    // outside the morsel loop's per-morsel containment.
    let _scope = fault_scope();
    let engine = csv_engine(
        "join_build_panic",
        4 * MORSEL,
        EngineConfig::without_caching(),
    );
    let join = || {
        LogicalPlan::scan("t", "l", Schema::empty())
            .join(
                LogicalPlan::scan("t", "r", Schema::empty()),
                Expr::path("l.a").eq(Expr::path("r.a")),
                JoinKind::Inner,
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")])
    };

    fault::configure("join.build", FaultAction::Panic);
    match engine.execute_plan(join()).unwrap_err() {
        EngineError::WorkerPanic { payload } => {
            assert!(payload.contains("join.build"), "payload: {payload}")
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_eq!(fault::fired("join.build"), 1);

    fault::clear();
    let result = engine.execute_plan(join()).unwrap();
    assert_eq!(count_of(&result), 4 * MORSEL);
}

#[test]
fn injected_failures_agree_between_serial_and_parallel_execution() {
    let _scope = fault_scope();
    for parallelism in [1usize, 4] {
        let engine = csv_engine(
            "serial_parallel",
            8 * MORSEL,
            EngineConfig::without_caching().with_parallelism(parallelism),
        );

        fault::configure("merge.partial", FaultAction::Error);
        match engine.execute_plan(count_plan("t")).unwrap_err() {
            EngineError::Internal { site, .. } => assert_eq!(site, "merge.partial"),
            other => panic!("threads={parallelism}: expected Internal, got {other:?}"),
        }
        fault::clear();

        fault::configure("dispatch.morsel", FaultAction::Panic);
        match engine.execute_plan(count_plan("t")).unwrap_err() {
            EngineError::WorkerPanic { .. } => {}
            other => panic!("threads={parallelism}: expected WorkerPanic, got {other:?}"),
        }
        fault::clear();

        assert_eq!(
            count_of(&engine.execute_plan(count_plan("t")).unwrap()),
            8 * MORSEL
        );
    }
}

// -- cancellation, deadlines, budgets -------------------------------------

#[test]
fn cancellation_stops_a_query_before_and_during_execution() {
    let _scope = fault_scope();
    let engine = csv_engine("cancellation", 8 * MORSEL, EngineConfig::without_caching());

    // Already-cancelled token: the first morsel checkpoint trips.
    let token = CancellationToken::new();
    token.cancel();
    let err = engine
        .execute_plan_with_cancellation(count_plan("t"), Some(token))
        .unwrap_err();
    assert!(matches!(err, EngineError::Cancelled), "got {err:?}");

    // Mid-query: a sleep fault holds each morsel long enough for a watcher
    // thread to cancel while the query is demonstrably still running.
    fault::configure("dispatch.morsel", FaultAction::SleepMs(15));
    let token = CancellationToken::new();
    let watcher = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let err = engine
        .execute_plan_with_cancellation(count_plan("t"), Some(token))
        .unwrap_err();
    watcher.join().unwrap();
    assert!(matches!(err, EngineError::Cancelled), "got {err:?}");

    fault::clear();
    assert_eq!(
        count_of(&engine.execute_plan(count_plan("t")).unwrap()),
        8 * MORSEL
    );
}

#[test]
fn deadline_exceeded_carries_partial_metrics() {
    let _scope = fault_scope();
    let engine = csv_engine(
        "deadline",
        8 * MORSEL,
        EngineConfig::without_caching().with_timeout(Duration::from_millis(20)),
    );

    // Each morsel sleeps past the deadline's granularity, so the deadline
    // trips after at least one morsel has executed.
    fault::configure("dispatch.morsel", FaultAction::SleepMs(15));
    let err = engine.execute_plan(count_plan("t")).unwrap_err();
    match &err {
        EngineError::DeadlineExceeded {
            timeout_ms,
            partial,
        } => {
            assert_eq!(*timeout_ms, 20);
            assert!(
                partial.morsels >= 1,
                "partial metrics record progress: {partial}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Without the sleeps, the same engine finishes well inside its deadline.
    fault::clear();
    assert_eq!(
        count_of(&engine.execute_plan(count_plan("t")).unwrap()),
        8 * MORSEL
    );
}

#[test]
fn memory_budget_trips_mid_join_build_and_cheap_queries_still_run() {
    let _scope = fault_scope();
    let dir = scratch("budget");
    let t_path = dir.join("t.csv");
    writers::write_csv(&t_path, &rows_ab(8 * MORSEL), &schema_ab(), '|').unwrap();
    let u_schema = Schema::from_pairs(vec![("a", DataType::Int), ("c", DataType::Int)]);
    let u_rows: Vec<Value> = (0..8 * MORSEL)
        .map(|i| Value::record(vec![("a", Value::Int(i)), ("c", Value::Int(i + 1))]))
        .collect();
    let u_path = dir.join("u.csv");
    writers::write_csv(&u_path, &u_rows, &u_schema, '|').unwrap();

    let engine = QueryEngine::new(EngineConfig::without_caching().with_memory_budget(16 * 1024));
    engine
        .register_csv("t", &t_path, schema_ab(), CsvOptions::default())
        .unwrap();
    engine
        .register_csv("u", &u_path, u_schema, CsvOptions::default())
        .unwrap();

    let join = LogicalPlan::scan("t", "t", Schema::empty())
        .join(
            LogicalPlan::scan("u", "u", Schema::empty()),
            Expr::path("t.a").eq(Expr::path("u.a")),
            JoinKind::Inner,
        )
        .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
    match engine.execute_plan(join).unwrap_err() {
        EngineError::ResourceExhausted {
            site,
            used_bytes,
            budget_bytes,
        } => {
            assert_eq!(site, "join build arena");
            assert!(used_bytes > budget_bytes);
            assert_eq!(budget_bytes, 16 * 1024);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }

    // The budget is per-query: a query whose state fits runs on the same
    // engine without reconfiguration.
    assert_eq!(
        count_of(&engine.execute_plan(count_plan("t")).unwrap()),
        8 * MORSEL
    );
}

#[test]
fn memory_budget_sees_grouped_collections() {
    let _scope = fault_scope();
    // 32 morsels in 4 groups: the group *count* is tiny, the collected
    // elements are not — the budget must charge the latter.
    let schema = Schema::from_pairs(vec![("g", DataType::Int), ("v", DataType::Int)]);
    let rows: Vec<Value> = (0..32 * MORSEL)
        .map(|i| Value::record(vec![("g", Value::Int(i % 4)), ("v", Value::Int(i))]))
        .collect();
    let path = scratch("budget_group").join("t.csv");
    writers::write_csv(&path, &rows, &schema, '|').unwrap();
    let engine = QueryEngine::new(EngineConfig::without_caching().with_memory_budget(16 * 1024));
    engine
        .register_csv("t", &path, schema, CsvOptions::default())
        .unwrap();

    let bag = || vec![ReduceSpec::new(Monoid::Bag, Expr::path("t.v"), "vs")];
    let scan = || LogicalPlan::scan("t", "t", Schema::empty());
    let site_of = |plan: LogicalPlan| match engine.execute_plan(plan).unwrap_err() {
        EngineError::ResourceExhausted {
            site,
            used_bytes,
            budget_bytes,
        } => {
            assert!(used_bytes > budget_bytes);
            assert_eq!(budget_bytes, 16 * 1024);
            site
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    };
    // Grouped and ungrouped collection outputs both trip the same budget.
    let grouped = scan().nest(vec![Expr::path("t.g")], vec!["g".into()], bag());
    assert_eq!(site_of(grouped), "group table");
    assert_eq!(site_of(scan().reduce(bag())), "reduce partial");

    // A grouped query whose state fits still runs on the same engine.
    let counts = scan().nest(
        vec![Expr::path("t.g")],
        vec!["g".into()],
        vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")],
    );
    let result = engine.execute_plan(counts).unwrap();
    assert_eq!(result.rows.len(), 4);
    assert_eq!(
        count_of(&engine.execute_plan(count_plan("t")).unwrap()),
        32 * MORSEL
    );
}

// -- cache lifecycle ------------------------------------------------------

#[test]
fn failed_cache_build_registers_no_cache() {
    let _scope = fault_scope();
    let path = scratch("cache_fault").join("t.json");
    writers::write_json(&path, &rows_ab(4 * MORSEL), false).unwrap();
    let engine = QueryEngine::with_defaults();
    engine.register_json("t", &path).unwrap();

    let query = "SELECT COUNT(*), SUM(b) FROM t WHERE a < 2000";

    // The first run would build a values cache as a side effect; an
    // injected error or panic in that build must fail the query with a
    // structured error and leave *nothing* registered.
    for action in [FaultAction::Error, FaultAction::Panic] {
        fault::configure("cache.build", action);
        match engine.sql(query).unwrap_err() {
            EngineError::Internal { detail, .. } if action == FaultAction::Error => {
                assert!(detail.contains("cache.build"), "detail: {detail}")
            }
            EngineError::WorkerPanic { payload } if action == FaultAction::Panic => {
                assert!(payload.contains("cache.build"), "payload: {payload}")
            }
            other => panic!("{action:?}: unexpected {other:?}"),
        }
        assert_eq!(
            engine.cache_stats().entries,
            0,
            "{action:?}: a failed build must not register a half-built cache"
        );
    }

    // Disarmed, the cache builds cleanly and serves the repeat run.
    fault::clear();
    let first = engine.sql(query).unwrap();
    assert!(first.metrics.cached_values > 0);
    assert!(engine.cache_stats().entries >= 1);
    let second = engine.sql(query).unwrap();
    assert_eq!(first.rows, second.rows);
}
