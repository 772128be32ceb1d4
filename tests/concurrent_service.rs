//! Concurrency chaos suite: N queries on the shared worker-pool scheduler
//! plus the TCP service on top.
//!
//! The contract under test extends the single-query chaos suite
//! (`tests/fault_injection.rs`) to concurrent traffic: a failing query —
//! panicking, cancelled, past-deadline or budget-tripped — running on the
//! *same shared pool* as healthy queries must leave those queries
//! bit-identical to their serial runs; overload is shed with a structured
//! retry hint; draining a loaded server loses no in-flight response.
//!
//! Fault configuration is process-global and the default engine path shares
//! one global scheduler, so the suite serializes itself on one mutex and
//! disarms every site on scope exit (panicking tests included). Service
//! tests use engines with an explicit [`AdmissionConfig`] — those get a
//! dedicated scheduler, which a drained server closes for good; the one
//! test that serves a default-config engine checks that its shutdown hands
//! the process-wide scheduler back open.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use proteus::core::{AdmissionConfig, CancellationToken, EngineError};
use proteus::datagen::writers;
use proteus::plugins::fault::{self, FaultAction};
use proteus::prelude::*;
use proteus::service::{wire, Client, ClientError, Server};

/// Rows per morsel in the executor — row counts below are chosen in
/// multiples of this.
const MORSEL: i64 = 1024;

// -- serialization --------------------------------------------------------

struct FaultScope {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// Serializes the suite (fault state and the default scheduler are
/// process-global) and disarms every site on exit, panicking tests
/// included.
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
    let dir = std::env::temp_dir().join("proteus_concurrent").join(name);
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

/// The victims' queries: distinct shapes (filtered count, sum, grouped
/// aggregate) so a scheduling bug that corrupts partials has three chances
/// to surface.
const VICTIM_QUERIES: [&str; 3] = [
    "SELECT COUNT(*) FROM t WHERE a < 6000",
    "SELECT SUM(b) FROM t WHERE a >= 1000",
    "SELECT MAX(b), MIN(a), COUNT(*) FROM t WHERE a < 7000",
];

// -- chaos: failing queries next to healthy ones --------------------------

/// Four attacker archetypes (cancelled, past-deadline, budget-tripped,
/// panicking-in-cache-build) hammer the shared pool while three victims run
/// the same queries in a loop. Every victim result must be bit-identical to
/// the serial (parallelism-1) answer.
#[test]
fn failing_queries_leave_concurrent_victims_bit_identical() {
    let _scope = fault_scope();

    // Serial ground truth, computed before any chaos.
    let serial = csv_engine(
        "chaos_serial",
        8 * MORSEL,
        EngineConfig::without_caching().with_parallelism(1),
    );
    let expected: Vec<Vec<Value>> = VICTIM_QUERIES
        .iter()
        .map(|q| serial.sql(q).unwrap().rows)
        .collect();

    // The only armed site is `cache.build`, which none of the victims'
    // engines (caching disabled) ever reaches: the panic attacker is the
    // sole query that passes through it.
    fault::configure("cache.build", FaultAction::Panic);

    let mismatches: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        // Victims: parallel engines on the shared global scheduler.
        for (slot, query) in VICTIM_QUERIES.iter().enumerate() {
            let expected = expected[slot].clone();
            let mismatches = Arc::clone(&mismatches);
            scope.spawn(move || {
                let engine = csv_engine(
                    &format!("chaos_victim_{slot}"),
                    8 * MORSEL,
                    EngineConfig::without_caching().with_parallelism(4),
                );
                for round in 0..8 {
                    let rows = engine.sql(query).unwrap().rows;
                    if rows != expected {
                        mismatches.lock().unwrap().push(format!(
                            "victim {slot} round {round}: {rows:?} != {expected:?}"
                        ));
                    }
                }
            });
        }

        // Attacker: cancelled mid-run from another thread.
        scope.spawn(|| {
            let engine = csv_engine(
                "chaos_cancel",
                16 * MORSEL,
                EngineConfig::without_caching().with_parallelism(4),
            );
            for _ in 0..8 {
                let token = CancellationToken::new();
                let trigger = token.clone();
                let firer = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    trigger.cancel();
                });
                // Either the cancel lands mid-run (Cancelled) or the query
                // wins the race — both are legal; corruption is not.
                match engine.sql_with_cancellation("SELECT SUM(b) FROM t", Some(token)) {
                    Ok(_) | Err(EngineError::Cancelled) => {}
                    Err(other) => panic!("cancel attacker: unexpected {other:?}"),
                }
                firer.join().unwrap();
            }
        });

        // Attacker: impossible deadline.
        scope.spawn(|| {
            let engine = csv_engine(
                "chaos_deadline",
                16 * MORSEL,
                EngineConfig::without_caching()
                    .with_parallelism(4)
                    .with_timeout(Duration::from_micros(50)),
            );
            for _ in 0..8 {
                match engine.sql("SELECT SUM(b) FROM t WHERE a >= 0") {
                    Err(EngineError::DeadlineExceeded { .. }) | Ok(_) => {}
                    Err(other) => panic!("deadline attacker: unexpected {other:?}"),
                }
            }
        });

        // Attacker: join whose build arena blows a tiny memory budget.
        scope.spawn(|| {
            let dir = scratch("chaos_budget");
            let t_path = dir.join("t.csv");
            writers::write_csv(&t_path, &rows_ab(8 * MORSEL), &schema_ab(), '|').unwrap();
            let engine = QueryEngine::new(
                EngineConfig::without_caching()
                    .with_parallelism(4)
                    .with_memory_budget(16 * 1024),
            );
            engine
                .register_csv("t", &t_path, schema_ab(), CsvOptions::default())
                .unwrap();
            let join = LogicalPlan::scan("t", "t", Schema::empty())
                .join(
                    LogicalPlan::scan("t", "u", Schema::empty()),
                    Expr::path("t.a").eq(Expr::path("u.a")),
                    JoinKind::Inner,
                )
                .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
            for _ in 0..8 {
                match engine.execute_plan(join.clone()) {
                    Err(EngineError::ResourceExhausted { .. }) => {}
                    other => panic!("budget attacker: expected ResourceExhausted, got {other:?}"),
                }
            }
        });

        // Attacker: panics inside its cache build (contained per worker).
        scope.spawn(|| {
            let engine = csv_engine(
                "chaos_panic",
                4 * MORSEL,
                EngineConfig::default().with_parallelism(4),
            );
            for _ in 0..8 {
                // The armed `cache.build` site panics; the engine must
                // surface a structured error, never abort the process.
                let _ = engine.sql("SELECT COUNT(*) FROM t WHERE a < 4000");
            }
        });
    });

    let mismatches = mismatches.lock().unwrap();
    assert!(
        mismatches.is_empty(),
        "victims diverged from serial: {mismatches:?}"
    );
}

/// An injected panic on the work-stealing path kills no pool worker and
/// corrupts no result: the submitting thread finishes the query alone.
#[test]
fn steal_path_panic_is_contained_and_results_stay_exact() {
    let _scope = fault_scope();
    let engine = csv_engine(
        "steal_panic",
        8 * MORSEL,
        EngineConfig::without_caching().with_parallelism(4),
    );
    let expected = engine.sql("SELECT SUM(b) FROM t").unwrap().rows;

    fault::configure("scheduler.steal", FaultAction::Panic);
    for _ in 0..4 {
        let rows = engine.sql("SELECT SUM(b) FROM t").unwrap().rows;
        assert_eq!(rows, expected, "result exact while every steal panics");
    }
    fault::clear();

    // The pool survived: the same engine still runs parallel queries.
    assert_eq!(engine.sql("SELECT SUM(b) FROM t").unwrap().rows, expected);
}

/// An injected failure at admission surfaces as a structured error — and
/// the engine is untouched for the next query.
#[test]
fn admission_fault_is_structured_and_recoverable() {
    let _scope = fault_scope();
    let engine = csv_engine(
        "admit_fault",
        2 * MORSEL,
        EngineConfig::without_caching().with_parallelism(2),
    );

    fault::configure("scheduler.admit", FaultAction::Error);
    match engine.sql("SELECT COUNT(*) FROM t") {
        Err(EngineError::Internal { site, .. }) => assert_eq!(site, "scheduler.admit"),
        other => panic!("expected Internal at scheduler.admit, got {other:?}"),
    }

    fault::configure("scheduler.admit", FaultAction::Panic);
    assert!(engine.sql("SELECT COUNT(*) FROM t").is_err());

    fault::clear();
    let result = engine.sql("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(result.scalar("count_0"), Some(Value::Int(2 * MORSEL)));
}

// -- the TCP service ------------------------------------------------------

fn service_engine(name: &str, n: i64, admission: AdmissionConfig) -> Arc<QueryEngine> {
    Arc::new(csv_engine(
        name,
        n,
        EngineConfig::without_caching()
            .with_parallelism(2)
            .with_admission(admission),
    ))
}

/// Rows and metrics cross the wire bit-identically to an in-process run.
#[test]
fn service_round_trips_rows_and_metrics() {
    let _scope = fault_scope();
    let engine = service_engine("svc_roundtrip", 4 * MORSEL, AdmissionConfig::new(4, 4));
    let direct = engine.sql("SELECT a, b FROM t WHERE a < 100").unwrap();
    let expected = direct.flattened_rows();

    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let reply = client.query("SELECT a, b FROM t WHERE a < 100").unwrap();
    assert_eq!(reply.rows, expected, "wire rows == in-process rows");
    assert_eq!(reply.metrics.rows, expected.len() as u64);
    assert!(reply.metrics.morsels > 0);
    assert!(reply.metrics.threads_used >= 1);
    assert!(reply.metrics.workers_touched >= 1);
    assert!(reply.metrics.workers_touched <= reply.metrics.threads_used);

    // Errors cross structured: an unknown dataset keeps its kind.
    match client.query("SELECT COUNT(*) FROM missing") {
        Err(ClientError::Engine(err)) => assert_eq!(err.kind, "unknown_dataset"),
        other => panic!("expected engine error, got {other:?}"),
    }

    // The connection stays usable after an error reply.
    let again = client.query("SELECT a, b FROM t WHERE a < 100").unwrap();
    assert_eq!(again.rows, expected);

    server.shutdown(Duration::from_secs(2));
}

/// Whatever the result shape — a projection's bag, one aggregate row, one
/// row per group, a join — the batched frames hand the client exactly the
/// engine's rows: same order, same `Value` variants, same field order.
#[test]
fn service_rows_equal_in_process_rows_for_every_result_shape() {
    let _scope = fault_scope();
    // Parallelism 1: two executions of one query then agree on row order,
    // so the wire can be held to it.
    let engine = Arc::new(csv_engine(
        "svc_shapes",
        8 * MORSEL,
        EngineConfig::without_caching()
            .with_parallelism(1)
            .with_admission(AdmissionConfig::new(2, 2)),
    ));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for (sql, rows) in [
        // 7 000 two-column rows: a reply of more than one batch.
        ("SELECT a, b FROM t WHERE a < 7000", 7000),
        ("SELECT a, b FROM t WHERE a < 0", 0),
        (
            "SELECT COUNT(*), SUM(b), AVG(b), MIN(a), MAX(b) FROM t WHERE a >= 10",
            1,
        ),
        (
            "SELECT b, COUNT(*), AVG(a) FROM t WHERE a < 40 GROUP BY b",
            40,
        ),
        (
            "SELECT x.a, y.b FROM t x JOIN t y ON x.a = y.a WHERE x.a < 300",
            300,
        ),
        (
            "SELECT COUNT(*), SUM(y.b) FROM t x JOIN t y ON x.a = y.a",
            1,
        ),
    ] {
        let direct = engine.sql(sql).unwrap();
        let expected = direct.flattened_rows();
        assert_eq!(expected.len(), rows, "{sql}");
        let reply = client.query(sql).unwrap();
        // `Debug` also tells `Int(3)` from `Float(3.0)` and `-0.0` from `0.0`.
        assert_eq!(
            format!("{:?}", reply.rows),
            format!("{expected:?}"),
            "{sql}"
        );
        assert_eq!(reply.metrics.rows, expected.len() as u64, "{sql}");
    }

    server.shutdown(Duration::from_secs(2));
}

/// Shutting down a server whose engine runs on the process-wide scheduler
/// must not close that scheduler for the rest of the process.
#[test]
fn shutdown_of_a_default_engine_server_leaves_the_global_scheduler_open() {
    let _scope = fault_scope();
    let engine = Arc::new(csv_engine("svc_default", MORSEL, EngineConfig::default()));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.query("SELECT COUNT(*) FROM t").unwrap().metrics.rows,
        1
    );
    server.shutdown(Duration::from_secs(2));

    let fresh = csv_engine("svc_default_fresh", MORSEL, EngineConfig::default());
    let result = fresh
        .sql("SELECT COUNT(*) FROM t")
        .expect("a default engine started after the shutdown is admitted");
    assert_eq!(result.scalar("count_0"), Some(Value::Int(MORSEL)));
}

/// Past `max_concurrent + queue_capacity`, queries are shed with the
/// structured retry hint; `query_with_backoff` honors it and lands.
#[test]
fn overload_sheds_with_retry_hint_and_backoff_recovers() {
    let _scope = fault_scope();
    let engine = service_engine(
        "svc_overload",
        8 * MORSEL,
        AdmissionConfig::new(1, 1).with_retry_after_ms(30),
    );
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // ~10 ms per morsel holds each query in the executor long enough for
    // the others to pile onto admission.
    fault::configure("dispatch.morsel", FaultAction::SleepMs(10));

    let outcomes: Vec<Result<u64, ClientError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr)?;
                    client
                        .query("SELECT COUNT(*) FROM t")
                        .map(|r| r.metrics.rows)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let mut ok = 0;
    let mut shed = 0;
    for outcome in &outcomes {
        match outcome {
            Ok(rows) => {
                assert_eq!(*rows, 1, "a COUNT(*) reply is one row");
                ok += 1;
            }
            Err(ClientError::Engine(err)) if err.kind == "overloaded" => {
                assert_eq!(err.retry_after_ms, Some(30), "shed carries the hint");
                assert_eq!(err.capacity, Some(1));
                shed += 1;
            }
            Err(other) => panic!("expected success or overloaded, got {other:?}"),
        }
    }
    assert!(
        ok >= 1,
        "one slot plus one queue entry must land: {outcomes:?}"
    );
    assert!(
        shed >= 1,
        "six clients into 1+1 capacity must shed: {outcomes:?}"
    );

    // Backoff turns shed into success once the burst drains.
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .query_with_backoff("SELECT COUNT(*) FROM t", 100)
        .unwrap();
    assert_eq!(reply.metrics.rows, 1);

    fault::clear();
    server.shutdown(Duration::from_secs(5));
}

/// Contended queries report their admission wait in `queue_wait_us`;
/// uncontended ones report zero.
#[test]
fn queue_wait_metric_reports_admission_delay() {
    let _scope = fault_scope();
    let engine = service_engine("svc_qwait", 8 * MORSEL, AdmissionConfig::new(1, 4));

    fault::configure("dispatch.morsel", FaultAction::SleepMs(10));
    let waits: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    engine
                        .sql("SELECT COUNT(*) FROM t")
                        .unwrap()
                        .metrics
                        .queue_wait_us
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    fault::clear();

    assert!(
        waits.iter().any(|w| *w > 0),
        "with one slot and three queries, someone queued: {waits:?}"
    );

    // Alone on the engine, admission is immediate and reports zero.
    let alone = engine.sql("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(alone.metrics.queue_wait_us, 0);
}

/// Closing the client connection mid-query cancels the query server-side;
/// an explicit `cancel` frame does the same with a structured reply.
#[test]
fn client_disconnect_and_cancel_frame_both_cancel_in_flight_queries() {
    let _scope = fault_scope();
    // With ~30 ms per morsel across 64 morsels on 2 threads, a full run
    // takes ~1 s — cancelling at 100 ms must come back far sooner.
    let engine = service_engine("svc_cancel", 64 * MORSEL, AdmissionConfig::new(2, 2));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    fault::configure("dispatch.morsel", FaultAction::SleepMs(30));

    // Explicit cancel frame: the blocked query() returns `cancelled`.
    let mut client = Client::connect(addr).unwrap();
    let mut cancel = client.cancel_handle().unwrap();
    let started = Instant::now();
    let outcome = std::thread::scope(|scope| {
        let query = scope.spawn(move || client.query("SELECT SUM(b) FROM t"));
        std::thread::sleep(Duration::from_millis(100));
        cancel.cancel().unwrap();
        query.join().unwrap()
    });
    match outcome {
        Err(ClientError::Engine(err)) => assert_eq!(err.kind, "cancelled"),
        other => panic!("expected cancelled, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "cancel cut the ~1s query short, took {:?}",
        started.elapsed()
    );

    // Disconnect: send a query over a raw socket, drop it, and watch the
    // server release the admission slot long before the query could have
    // finished.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    wire::write_frame(&mut raw, &wire::query_frame("SELECT SUM(b) FROM t")).unwrap();
    // Wait until the query is actually admitted before hanging up, so the
    // drain observation below cannot pass vacuously.
    let admitted = Instant::now();
    while engine.scheduler().running() == 0 {
        assert!(
            admitted.elapsed() < Duration::from_secs(2),
            "query never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let started = Instant::now();
    drop(raw);
    while engine.scheduler().running() > 0 {
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "disconnect did not cancel the in-flight query"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    fault::clear();
    server.shutdown(Duration::from_secs(2));
}

/// Shutting down a loaded server loses no in-flight response: every client
/// whose query was admitted receives its complete reply.
#[test]
fn drain_under_load_flushes_in_flight_responses() {
    let _scope = fault_scope();
    let engine = service_engine("svc_drain", 8 * MORSEL, AdmissionConfig::new(4, 4));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // ~20 ms per morsel: queries run ~80 ms, so the shutdown below lands
    // while they are mid-flight.
    fault::configure("dispatch.morsel", FaultAction::SleepMs(20));

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.query("SELECT SUM(b) FROM t WHERE a >= 0")
                })
            })
            .collect();
        // Shut down only once all three queries are admitted: a query that
        // reaches admission after the drain starts is refused, not in
        // flight, and a fixed sleep loses that race on a loaded host.
        let started = Instant::now();
        while engine.scheduler().running() < 3 {
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "queries never all started"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = server.shutdown(Duration::from_secs(5));

        for client in clients {
            let reply = client.join().unwrap().expect("in-flight reply flushed");
            assert_eq!(reply.metrics.rows, 1);
        }
        assert_eq!(report.cancelled, 0, "grace period outlived every query");
    });
    fault::clear();

    // The drained server accepts nothing further.
    assert!(
        Client::connect(addr).is_err() || {
            let mut late = Client::connect(addr).unwrap();
            late.query("SELECT COUNT(*) FROM t").is_err()
        },
        "a drained server must not serve new queries"
    );
}

/// Socket-level faults (`service.read` / `service.write`) fail only the
/// affected connection — the engine and fresh connections are untouched.
#[test]
fn service_socket_faults_are_contained_to_their_connection() {
    let _scope = fault_scope();
    let engine = service_engine("svc_sockfault", 2 * MORSEL, AdmissionConfig::new(4, 4));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Write fault on the very first frame: the client's own submission
    // fails fast.
    fault::configure("service.write", FaultAction::Error);
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client.query("SELECT COUNT(*) FROM t"),
        Err(ClientError::Io(_))
    ));
    fault::clear();

    // Write fault on the *second* frame: the submission passes, the
    // server's reply write dies, and the client observes the hangup
    // instead of waiting forever.
    fault::configure_after("service.write", FaultAction::Error, 1);
    let mut client = Client::connect(addr).unwrap();
    assert!(client.query("SELECT COUNT(*) FROM t").is_err());
    fault::clear();

    // Read fault: whichever side hits it first, the query fails
    // structurally and nothing hangs.
    fault::configure("service.read", FaultAction::Error);
    let mut client = Client::connect(addr).unwrap();
    assert!(client.query("SELECT COUNT(*) FROM t").is_err());
    fault::clear();

    // The engine outlived all three: a fresh connection round-trips.
    let mut healthy = Client::connect(addr).unwrap();
    let reply = healthy.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(reply.metrics.rows, 1);
    assert_eq!(
        reply.rows[0].as_record().unwrap().get("count_0"),
        Some(&Value::Int(2 * MORSEL))
    );

    server.shutdown(Duration::from_secs(2));
}

/// A reply that dies after its first batch — the server's second write
/// failing, or the client hanging up with most of the reply unread — ends
/// that connection and nothing else.
#[test]
fn a_reply_cut_after_its_first_batch_ends_only_its_connection() {
    let _scope = fault_scope();
    let engine = service_engine("svc_midreply", 64 * MORSEL, AdmissionConfig::new(4, 4));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    // 8 192 rows of `[a,b]`: two batches, so two server writes.
    let two_batches = "SELECT a, b FROM t WHERE a < 8192";
    let full = Client::connect(addr).unwrap().query(two_batches).unwrap();
    assert_eq!(full.rows.len(), 8192);

    // Hits of `service.write`: the client's submission, the first batch,
    // then the batch that carries the trailer — which fails.
    fault::configure_after("service.write", FaultAction::Error, 2);
    let mut client = Client::connect(addr).unwrap();
    match client.query(two_batches) {
        Err(ClientError::Protocol(_) | ClientError::Io(_)) => {}
        other => panic!("expected the hangup to surface, got {other:?}"),
    }
    assert_eq!(
        fault::fired("service.write"),
        1,
        "the fault fired mid-reply"
    );
    fault::clear();

    // The client reads the first batch of a much larger reply and hangs up.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    wire::write_frame(&mut raw, &wire::query_frame("SELECT a, b FROM t")).unwrap();
    let first = wire::read_frame(&mut raw).unwrap().unwrap();
    let mut rows = Vec::new();
    assert!(wire::rows_from_frame(&first, &mut rows).unwrap());
    assert!(!rows.is_empty() && rows.len() < 64 * MORSEL as usize);
    drop(raw);

    // Neither left a query running or a slot taken, and a fresh connection
    // gets the whole reply.
    let released = Instant::now();
    while engine.scheduler().running() > 0 {
        assert!(released.elapsed() < Duration::from_secs(2), "slot leaked");
        std::thread::sleep(Duration::from_millis(5));
    }
    let again = Client::connect(addr).unwrap().query(two_batches).unwrap();
    assert_eq!(again.rows, full.rows);

    // Shutdown joins both dead connections' threads without waiting out
    // its grace period.
    let started = Instant::now();
    server.shutdown(Duration::from_secs(5));
    assert!(started.elapsed() < Duration::from_secs(4));
}
