//! Driving one workload: set-up, reference answers, first touch, and the
//! measured rounds in their three forms — in-process through
//! `QueryEngine::sql` (what a user calls), in-process *by hand* through the
//! same public calls `execute_plan_with_cancellation` makes with one span
//! around each (the traced pass), and over the TCP service.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proteus_algebra::comprehension::parse_comprehension;
use proteus_algebra::sql::{parse_sql, sql_to_plan};
use proteus_algebra::translate::comprehension_to_plan;
use proteus_algebra::{LogicalPlan, Value};
use proteus_core::{
    Compiler, EngineConfig, EngineError, ExecutionMetrics, QueryContext, QueryEngine,
};
use proteus_optimizer::{Catalog, Optimizer};
use proteus_plugins::csv::CsvOptions;
use proteus_service::{Client, ClientError, Server};

use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Dataset, Format, Op, Query, Workload};

/// What a reply is checked by: its row count and an order-insensitive
/// checksum over every value in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub rows: usize,
    pub checksum: f64,
}

fn fold(value: &Value, weight: f64, acc: &mut f64) {
    match value {
        Value::Int(i) | Value::Date(i) => *acc += *i as f64 * weight,
        Value::Float(f) if f.is_finite() => *acc += f * weight,
        Value::Bool(b) => *acc += f64::from(u8::from(*b)) * weight,
        Value::Str(s) => {
            *acc += s.bytes().map(f64::from).sum::<f64>() * weight + s.len() as f64;
        }
        Value::List(items) => items.iter().for_each(|v| fold(v, weight, acc)),
        // Field position enters the weight, so swapped columns do not cancel.
        Value::Record(record) => {
            for (idx, (_, v)) in record.iter().enumerate() {
                fold(v, weight * (1.0 + idx as f64 * 0.25), acc);
            }
        }
        Value::Null | Value::Float(_) => {}
    }
}

impl Answer {
    pub fn of(rows: &[Value]) -> Answer {
        let mut checksum = 0.0;
        rows.iter().for_each(|row| fold(row, 1.0, &mut checksum));
        Answer {
            rows: rows.len(),
            checksum,
        }
    }

    /// Same row count, and checksums equal up to the summation-order noise
    /// of parallel float aggregation.
    pub fn agrees(&self, other: &Answer) -> bool {
        let scale = self.checksum.abs().max(other.checksum.abs()).max(1.0);
        self.rows == other.rows && (self.checksum - other.checksum).abs() <= 1e-9 * scale
    }
}

/// Expected answers, indexed `[template][instance]`.
pub type Expected = Vec<Vec<Answer>>;

/// What a pass executes and checks: a workload, one order of its round and
/// the expected answers.
#[derive(Clone, Copy)]
pub struct Pass<'a> {
    pub workload: &'a Workload,
    pub round: &'a [Op],
    pub expected: &'a Expected,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Registers one dataset through the engine's public registration call and
/// returns how long that took.
fn register(engine: &QueryEngine, dataset: &Dataset, data: &Path) -> Result<Duration, String> {
    let path = data.join(&dataset.file);
    let start = Instant::now();
    match dataset.format {
        Format::Json => engine.register_json(&dataset.name, &path),
        Format::Csv => engine.register_csv(
            &dataset.name,
            &path,
            dataset.schema.clone().expect("CSV datasets carry a schema"),
            CsvOptions::default(),
        ),
        Format::Binary => engine.register_columns(&dataset.name, &path),
    }
    .map_err(|e| format!("registering {}: {e}", dataset.name))?;
    Ok(start.elapsed())
}

/// A set-up system under test: the engine with every dataset registered
/// and, for service workloads, the server with all clients connected.
pub struct Instance {
    pub engine: Arc<QueryEngine>,
    server: Option<Server>,
    pub clients: Vec<Client>,
    /// Seconds spent in `register_json` / `register_csv` /
    /// `register_columns`, indexed by [`Format`] order.
    pub register_s: [f64; 3],
    pub connect_us: f64,
    /// `QueryEngine::new` to the last client connected.
    pub setup_s: f64,
}

pub fn set_up(workload: &Workload, data: &Path) -> Result<Instance, String> {
    let start = Instant::now();
    let engine = Arc::new(QueryEngine::new(workload.config.clone()));
    let mut register_s = [0.0; 3];
    for dataset in &workload.datasets {
        register_s[dataset.format as usize] += secs(register(&engine, dataset, data)?);
    }
    let mut server = None;
    let mut clients = Vec::new();
    let mut connect_us = 0.0;
    if workload.clients > 0 {
        let started = Server::start(Arc::clone(&engine), "127.0.0.1:0")
            .map_err(|e| format!("starting the server: {e}"))?;
        let connecting = Instant::now();
        for _ in 0..workload.clients {
            clients.push(
                Client::connect(started.local_addr()).map_err(|e| format!("connecting: {e}"))?,
            );
        }
        connect_us = secs(connecting.elapsed()) * 1e6 / workload.clients as f64;
        server = Some(started);
    }
    Ok(Instance {
        engine,
        server,
        clients,
        register_s,
        connect_us,
        setup_s: secs(start.elapsed()),
    })
}

impl Instance {
    /// Closes the clients and shuts the server down, joining its threads.
    pub fn tear_down(mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_secs(5));
        }
    }
}

/// What `QueryResult::flattened_rows` does, without its copy: a pure
/// projection's single `{result: [rows]}` record becomes those rows; any
/// other result is handed over as it is.
fn flatten(mut rows: Vec<Value>) -> Vec<Value> {
    let is_bag = matches!(
        rows.as_slice(),
        [Value::Record(record)]
            if record.len() == 1 && matches!(record.get_index(0), Some((_, Value::List(_))))
    );
    if is_bag {
        if let Some(Value::Record(record)) = rows.pop() {
            if let Some((_, Value::List(items))) = record.into_fields().pop() {
                return items;
            }
        }
    }
    rows
}

/// Runs one query the way a library user does.
pub fn run_query(engine: &QueryEngine, query: &Query) -> Result<Vec<Value>, EngineError> {
    let result = match query {
        Query::Sql(text) => engine.sql(text),
        Query::Comprehension(text) => engine.comprehension(text),
        Query::Plan(plan) => engine.execute_plan(plan.clone()),
    }?;
    Ok(flatten(result.rows))
}

/// Answers every instance of every template on the reference engine:
/// caching, kernels, morsel skipping and parallelism all off.
pub fn reference_answers(workload: &Workload, data: &Path) -> Result<Expected, String> {
    let engine = QueryEngine::new(
        EngineConfig::without_caching()
            .with_vectorized(false)
            .with_morsel_skipping(false)
            .with_parallelism(1),
    );
    for dataset in &workload.datasets {
        register(&engine, dataset, data)?;
    }
    workload
        .templates
        .iter()
        .map(|template| {
            template
                .instances
                .iter()
                .map(|query| {
                    run_query(&engine, query)
                        .map(|rows| Answer::of(&rows))
                        .map_err(|e| format!("reference engine on {}: {e}", template.name))
                })
                .collect()
        })
        .collect()
}

/// What one by-hand execution returns besides its rows.
pub struct TracedReply {
    pub rows: Vec<Value>,
    pub metrics: ExecutionMetrics,
    pub cache_rewrites: usize,
    pub execute_ns: u64,
}

/// Executes one query through the public calls
/// `QueryEngine::execute_plan_with_cancellation` makes — parse, catalog +
/// optimize, compile, admit, execute — with one span around each.
pub fn run_query_traced(
    engine: &QueryEngine,
    config: &EngineConfig,
    query: &Query,
    tracer: &mut Tracer,
) -> Result<TracedReply, EngineError> {
    tracer.next_query();
    let root = tracer.begin("engine.query");
    let reply = traced_steps(engine, config, query, tracer);
    tracer.end(root);
    // As after `QueryEngine::sql`, turning a projection's bag into rows is
    // the caller's step, outside the engine's span.
    reply.map(|mut reply| {
        reply.rows = flatten(std::mem::take(&mut reply.rows));
        reply
    })
}

fn traced_steps(
    engine: &QueryEngine,
    config: &EngineConfig,
    query: &Query,
    tracer: &mut Tracer,
) -> Result<TracedReply, EngineError> {
    let registry = engine.registry();
    let span = tracer.begin("algebra.parse");
    let schemas = registry.clone();
    let provider = move |name: &str| schemas.schema_of(name);
    let plan: Result<LogicalPlan, EngineError> = match query {
        Query::Sql(text) => parse_sql(text)
            .and_then(|parsed| sql_to_plan(&parsed, &provider))
            .map_err(EngineError::from),
        Query::Comprehension(text) => parse_comprehension(text)
            .and_then(|comp| comprehension_to_plan(&comp, &provider))
            .map_err(EngineError::from),
        Query::Plan(plan) => Ok(plan.clone()),
    };
    tracer.end(span);
    let plan = plan?;

    let span = tracer.begin("optimizer.optimize");
    let optimizer = Optimizer::new(Catalog::from_registry(registry));
    let optimized = optimizer.optimize(plan, config.caching_enabled.then_some(engine.caches()));
    tracer.end(span);

    let span = tracer.begin("codegen.compile");
    let compiled = Compiler::new(
        registry.clone(),
        config.caching_enabled.then(|| engine.caches().clone()),
    )
    .with_vectorization(config.vectorized)
    .with_morsel_skipping(config.morsel_skipping)
    .with_numeric_mode(config.numeric_mode)
    .compile(&optimized.plan);
    tracer.end(span);
    let compiled = compiled?;

    let ctx = Arc::new(QueryContext::new(
        None,
        config.timeout,
        config.memory_budget,
        config.lifecycle,
    ));
    let span = tracer.begin("scheduler.admit");
    let permit = engine.scheduler().admit(&ctx);
    tracer.end(span);
    let permit = permit?;
    let queue_wait_us = permit.queue_wait.as_micros() as u64;

    let span = tracer.begin("exec.execute");
    let started = Instant::now();
    let output =
        compiled.execute_with_scheduler(config.parallelism, ctx, Arc::clone(engine.scheduler()));
    let execute_ns = started.elapsed().as_nanos() as u64;
    tracer.end(span);
    drop(permit);
    let mut output = output?;
    output.metrics.queue_wait_us += queue_wait_us;

    Ok(TracedReply {
        rows: output.rows,
        metrics: output.metrics,
        cache_rewrites: optimized.cache_rewrites.len(),
        execute_ns,
    })
}

/// Latencies and the attempted/failed tally of a measured phase.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// One entry per verified query.
    pub verified: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

/// One verified query: which template, and how long the caller waited. Kept
/// to eight bytes so the harness's own memory stays small beside the
/// engine's in `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub template: u16,
    pub latency_ms: f32,
}

impl Samples {
    fn record(&mut self, template: usize, latency: Duration, verified: bool) {
        self.attempted += 1;
        if verified {
            self.verified.push(Sample {
                template: template as u16,
                latency_ms: (secs(latency) * 1e3) as f32,
            });
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Samples) {
        self.verified.extend(other.verified);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.verified
            .iter()
            .map(|s| f64::from(s.latency_ms))
            .collect()
    }
}

/// How long a pass repeats the round: `None` is one pass; `Some` is a
/// measured phase, which repeats it until that instant and, however slow the
/// system is, until [`stats::P95_MIN_SAMPLES`] queries were attempted — a
/// slowdown then shows as a worse number, never as a phase too short for
/// its 95th percentile.
pub type Until = Option<Instant>;

/// Time spent in `notify_update` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Updates {
    pub calls: u64,
    pub total_ns: u64,
}

fn apply_update(engine: &QueryEngine, dataset: &str, updates: &mut Updates) {
    let start = Instant::now();
    engine.notify_update(dataset);
    updates.total_ns += start.elapsed().as_nanos() as u64;
    updates.calls += 1;
}

/// Runs the round in-process through `QueryEngine::sql`, checking every
/// reply against `expected`. With a deadline it runs whole rounds only, so
/// the measured mix of templates is exactly the round's, and stops before a
/// round that — going by the last one — would end after the deadline, once
/// it has attempted enough queries.
pub fn untraced_pass(
    engine: &QueryEngine,
    pass: Pass,
    until: Until,
    samples: &mut Samples,
    updates: &mut Updates,
) {
    let enough = samples.attempted + stats::P95_MIN_SAMPLES as u64;
    loop {
        let started = Instant::now();
        for op in pass.round {
            match op {
                Op::Update { dataset } => apply_update(engine, dataset, updates),
                Op::Query { template, instance } => {
                    let query = &pass.workload.templates[*template].instances[*instance];
                    let start = Instant::now();
                    let reply = run_query(engine, query);
                    let latency = start.elapsed();
                    let verified = reply.is_ok_and(|rows| {
                        Answer::of(&rows).agrees(&pass.expected[*template][*instance])
                    });
                    samples.record(*template, latency, verified);
                }
            }
        }
        if until.is_none_or(|deadline| {
            samples.attempted >= enough && Instant::now() + started.elapsed() > deadline
        }) {
            return;
        }
    }
}

/// Counters summed over the queries of traced passes.
#[derive(Debug, Default, Clone)]
pub struct TracedTotals {
    pub queries: u64,
    pub exec: ExecutionMetrics,
    pub workers_touched: u64,
    pub cache_rewrites: u64,
    pub shed: u64,
    /// Execute time and rows of the one-field full-scan template per format.
    pub scan_probe_ns: [u64; 3],
    pub scan_probe_rows: [u64; 3],
    /// Largest `cache_stats().bytes` seen after a query.
    pub cache_bytes_peak: usize,
}

/// Runs the round in-process by hand with spans. A reply that is wrong, or
/// a cache arena over its budget after a query, counts as failed.
pub fn traced_pass(
    engine: &QueryEngine,
    pass: Pass,
    tracer: &mut Tracer,
    samples: &mut Samples,
    updates: &mut Updates,
    totals: &mut TracedTotals,
) {
    let Pass {
        workload,
        round,
        expected,
    } = pass;
    for op in round {
        match op {
            Op::Update { dataset } => {
                let span = tracer.begin("storage.invalidate");
                apply_update(engine, dataset, updates);
                tracer.end(span);
            }
            Op::Query { template, instance } => {
                let shape = &workload.templates[*template];
                let start = Instant::now();
                let reply = run_query_traced(
                    engine,
                    &workload.config,
                    &shape.instances[*instance],
                    tracer,
                );
                let latency = start.elapsed();
                let mut verified = false;
                match reply {
                    Ok(reply) => {
                        verified = Answer::of(&reply.rows).agrees(&expected[*template][*instance]);
                        totals.queries += 1;
                        totals.exec.merge(&reply.metrics);
                        totals.workers_touched += reply.metrics.workers_touched;
                        totals.cache_rewrites += reply.cache_rewrites as u64;
                        if let Some((format, rows)) = shape.scan_probe {
                            totals.scan_probe_ns[format as usize] += reply.execute_ns;
                            totals.scan_probe_rows[format as usize] += rows as u64;
                        }
                    }
                    Err(EngineError::Overloaded { .. }) => totals.shed += 1,
                    Err(_) => {}
                }
                if let Some(budget) = workload.cache_budget {
                    let bytes = engine.cache_stats().bytes;
                    totals.cache_bytes_peak = totals.cache_bytes_peak.max(bytes);
                    verified &= bytes <= budget;
                }
                samples.record(*template, latency, verified);
            }
        }
    }
}

/// What the clients saw over the wire, beyond latencies.
#[derive(Debug, Default, Clone)]
pub struct WireTotals {
    pub queries: u64,
    pub rtt_ns: u64,
    /// Server-side compile + execute time from the metrics trailers.
    pub server_us: u64,
    pub queue_wait_us: u64,
    pub steals: u64,
    pub workers_touched: u64,
    pub rows: u64,
    /// `overloaded` replies answered by sleeping `retry_after_ms` and retrying.
    pub retries: u64,
    /// Queries given up after [`MAX_RETRIES`] sheds.
    pub shed: u64,
}

impl WireTotals {
    fn merge(&mut self, o: &WireTotals) {
        self.queries += o.queries;
        self.rtt_ns += o.rtt_ns;
        self.server_us += o.server_us;
        self.queue_wait_us += o.queue_wait_us;
        self.steals += o.steals;
        self.workers_touched += o.workers_touched;
        self.rows += o.rows;
        self.retries += o.retries;
        self.shed += o.shed;
    }
}

/// Sheds a client rides out before the query counts as failed.
const MAX_RETRIES: u32 = 8;

fn wire_client(
    client: &mut Client,
    share: usize,
    pass: Pass,
    until: Until,
) -> (Samples, WireTotals, Instant) {
    let Pass {
        workload,
        round,
        expected,
    } = pass;
    let mut samples = Samples::default();
    let mut totals = WireTotals::default();
    let enough = stats::P95_MIN_SAMPLES.div_ceil(workload.clients) as u64;
    'rounds: loop {
        for (idx, op) in round.iter().enumerate() {
            let Op::Query { template, instance } = op else {
                continue;
            };
            if idx % workload.clients != share {
                continue;
            }
            if until
                .is_some_and(|deadline| samples.attempted >= enough && Instant::now() >= deadline)
            {
                break 'rounds;
            }
            let Query::Sql(sql) = &workload.templates[*template].instances[*instance] else {
                unreachable!("service workloads are SQL only");
            };
            // Closed loop: latency is submit to last frame decoded, the
            // server-directed back-off sleeps included. The loop is
            // `Client::query_with_backoff`, which does not say how often it
            // retried, with that count added.
            let start = Instant::now();
            let mut attempts = 0;
            let reply = loop {
                match client.query(sql) {
                    Err(ClientError::Engine(err))
                        if err.kind == "overloaded" && attempts < MAX_RETRIES =>
                    {
                        attempts += 1;
                        totals.retries += 1;
                        std::thread::sleep(Duration::from_millis(err.retry_after_ms.unwrap_or(5)));
                    }
                    other => break other,
                }
            };
            let latency = start.elapsed();
            let mut verified = false;
            match reply {
                Ok(reply) => {
                    verified = Answer::of(&reply.rows).agrees(&expected[*template][*instance]);
                    let m = &reply.metrics;
                    totals.queries += 1;
                    totals.rtt_ns += latency.as_nanos() as u64;
                    totals.server_us += m.compile_us + m.exec_us;
                    totals.queue_wait_us += m.queue_wait_us;
                    totals.steals += m.sched_steals;
                    totals.workers_touched += m.workers_touched;
                    totals.rows += m.rows;
                }
                Err(ClientError::Engine(err)) if err.kind == "overloaded" => totals.shed += 1,
                Err(_) => {}
            }
            samples.record(*template, latency, verified);
        }
        if until.is_none() {
            break;
        }
    }
    (samples, totals, Instant::now())
}

/// Runs the round over the wire: each connection is one closed-loop client
/// thread taking every `clients`-th query of the round; with a deadline a
/// client repeats its share until then and until it has attempted its part
/// of the fewest queries a phase needs (every client stops at the deadline,
/// so the load is the same over the whole phase; a round is at most a
/// fifteenth of one, so the cut-off round hardly skews the mix). Returns when
/// the last client finished, and that instant.
pub fn wire_pass(
    clients: &mut [Client],
    pass: Pass,
    until: Until,
    samples: &mut Samples,
    totals: &mut WireTotals,
) -> Instant {
    let per_client: Vec<(Samples, WireTotals, Instant)> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(share, client)| scope.spawn(move || wire_client(client, share, pass, until)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let mut finished = None;
    for (s, t, end) in per_client {
        samples.merge(s);
        totals.merge(&t);
        finished = finished.max(Some(end));
    }
    finished.unwrap_or_else(Instant::now)
}

/// First execution of each distinct template right after set-up, the way
/// the workload's clients issue it. Returns the summed latency in
/// milliseconds; replies are checked like any other.
pub fn first_touch(
    instance: &mut Instance,
    workload: &Workload,
    expected: &Expected,
    samples: &mut Samples,
) -> f64 {
    let mut total = Duration::ZERO;
    for (t, template) in workload.templates.iter().enumerate() {
        let start = Instant::now();
        let rows = match instance.clients.first_mut() {
            None => run_query(&instance.engine, &template.instances[0]).ok(),
            Some(client) => match &template.instances[0] {
                Query::Sql(sql) => client.query(sql).ok().map(|reply| reply.rows),
                _ => unreachable!("service workloads are SQL only"),
            },
        };
        let latency = start.elapsed();
        total += latency;
        let verified = rows.is_some_and(|rows| Answer::of(&rows).agrees(&expected[t][0]));
        // First-touch latencies are their own metric: tally, do not sample.
        samples.attempted += 1;
        samples.failed += u64::from(!verified);
    }
    secs(total) * 1e3
}

extern "C" {
    // From the C library the standard library already links.
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on; returns that CPU, or `None` where
/// the host does not allow it (the run then goes on unpinned).
///
/// For a workload of one closed-loop connection: client and server take
/// turns, so one CPU loses nothing, and handing a query over becomes a
/// context switch. Across two virtual CPUs it is an interrupt to a halted
/// one, whose cost is the hypervisor's and not the program's: unpinned, the
/// median latency of `service_point` was 0.12, 0.19 or 0.27 ms for minutes
/// at a time depending on what else the host ran; pinned it is 0.08 ms.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is valid for `bytes` bytes, and pid 0 is this thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros();
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above; the kernel only reads the mask.
    (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0).then_some(word * 64 + bit as usize)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_row_order_but_not_values_or_columns() {
        let row =
            |a: i64, b: f64| Value::record(vec![("a", Value::Int(a)), ("b", Value::Float(b))]);
        let x = Answer::of(&[row(1, 2.5), row(3, 4.5)]);
        assert!(x.agrees(&Answer::of(&[row(3, 4.5), row(1, 2.5)])));
        assert!(!x.agrees(&Answer::of(&[row(1, 2.5), row(3, 4.75)])));
        assert!(!x.agrees(&Answer::of(&[row(1, 2.5)])));
        let swapped = Value::record(vec![("a", Value::Float(2.5)), ("b", Value::Int(1))]);
        assert!(!Answer::of(&[row(1, 2.5)]).agrees(&Answer::of(&[swapped])));
    }
}
