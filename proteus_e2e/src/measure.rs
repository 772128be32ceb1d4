//! One run of one workload: generate the inputs from the seed and answer
//! every query on the reference engine (`prepare`, which the command line
//! runs in a child process), then set the system up, measure for the given
//! time, check every reply and reduce the samples to named metrics.
//!
//! With tracing off the run is [`EPOCHS`] repetitions of set up → first
//! touch → warm-up round → measured phase and yields the end-to-end
//! metrics; with tracing on it sets up once and yields the per-layer metrics
//! from rounds executed by hand with spans, interleaved with plain rounds
//! so tracing overhead is measured in the same run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use proteus_core::QueryEngine;
use proteus_plugins::csv::{CsvOptions, CsvPlugin};
use proteus_plugins::json::JsonPlugin;
use proteus_plugins::InputPlugin;
use proteus_service::wire;
use proteus_storage::cache::CacheStats;

use crate::datagen::Sizes;
use crate::metrics::Values;
use crate::run::{self, Answer, Expected, Pass, Samples, TracedTotals, Until, Updates, WireTotals};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Format, Op, Workload, EPOCHS};

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Directory for the generated inputs and the spill/snapshot files.
    pub scratch: PathBuf,
    /// Where `trace.jsonl` is kept, when the caller asked for it.
    pub out: Option<PathBuf>,
    /// Self-test: corrupt one reference checksum so a wrong answer exists.
    pub corrupt_reference: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Verified queries of all measured phases together.
    pub samples: usize,
    /// `(template, verified queries, median latency in ms)`: shows which
    /// template's latency cluster each percentile of the mix falls into.
    pub per_template: Vec<(&'static str, usize, f64)>,
    /// The CPU the run was pinned to (see [`run::pin_to_one_cpu`]).
    pub pinned_cpu: Option<usize>,
    /// The `setup_s` of every fresh set-up of the run, in order, and the
    /// first-touch time (the issue's `first_touch_ms`) that followed each.
    pub setups: Vec<f64>,
    pub first_touches_ms: Vec<f64>,
}

fn per_template(w: &Workload, samples: &Samples) -> Vec<(&'static str, usize, f64)> {
    w.templates
        .iter()
        .enumerate()
        .map(|(t, template)| {
            let own: Vec<f64> = samples
                .verified
                .iter()
                .filter(|s| s.template as usize == t)
                .map(|s| f64::from(s.latency_ms))
                .collect();
            let median = if own.is_empty() {
                0.0
            } else {
                stats::median(&own)
            };
            (template.name, own.len(), median)
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A workload with its inputs on disk and its expected answers.
pub struct Prepared {
    workload: Workload,
    expected: Expected,
    data: PathBuf,
    datagen_s: f64,
}

fn build_workload(cfg: &RunConfig) -> Result<Workload, String> {
    workloads::build(
        &cfg.workload,
        cfg.sizes,
        cfg.seed,
        &cfg.scratch.join("spill"),
    )
    .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))
}

/// Generates the inputs from the seed and answers every query on the
/// reference engine.
pub fn prepare(cfg: &RunConfig) -> Result<Prepared, String> {
    let data = cfg.scratch.join("data");
    std::fs::create_dir_all(&data).map_err(|e| format!("creating {}: {e}", data.display()))?;
    let workload = build_workload(cfg)?;
    let start = Instant::now();
    workloads::generate(&workload, cfg.sizes, cfg.seed, &data)
        .map_err(|e| format!("generating inputs: {e}"))?;
    let datagen_s = start.elapsed().as_secs_f64();
    let expected = run::reference_answers(&workload, &data)?;
    Ok(Prepared {
        workload,
        expected,
        data,
        datagen_s,
    })
}

impl Prepared {
    fn answers_file(cfg: &RunConfig) -> PathBuf {
        cfg.scratch.join("expected.txt")
    }

    /// Writes what another process cannot rebuild from the seed: the time
    /// generation took and the expected answers, floats as their bits.
    pub fn save(&self, cfg: &RunConfig) -> Result<(), String> {
        let mut out = format!("{:016x}\n", self.datagen_s.to_bits());
        for template in &self.expected {
            let line: Vec<String> = template
                .iter()
                .map(|a| format!("{}:{:016x}", a.rows, a.checksum.to_bits()))
                .collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        let path = Prepared::answers_file(cfg);
        std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The counterpart of [`Prepared::save`], in the measuring process: the
    /// workload is rebuilt from the seed, the inputs are already on disk.
    pub fn load(cfg: &RunConfig) -> Result<Prepared, String> {
        let path = Prepared::answers_file(cfg);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = || format!("{}: malformed", path.display());
        let float = |hex: &str| u64::from_str_radix(hex, 16).map(f64::from_bits);
        let mut lines = text.lines();
        let datagen_s = lines.next().and_then(|l| float(l).ok()).ok_or_else(bad)?;
        let expected = lines
            .map(|line| {
                line.split(' ')
                    .map(|entry| {
                        let (rows, checksum) = entry.split_once(':')?;
                        Some(Answer {
                            rows: rows.parse().ok()?,
                            checksum: float(checksum).ok()?,
                        })
                    })
                    .collect::<Option<Vec<Answer>>>()
            })
            .collect::<Option<Expected>>()
            .ok_or_else(bad)?;
        let workload = build_workload(cfg)?;
        let shape = |e: &Expected| e.iter().map(Vec::len).collect::<Vec<_>>();
        let instances: Vec<usize> = workload
            .templates
            .iter()
            .map(|t| t.instances.len())
            .collect();
        if shape(&expected) != instances {
            return Err(bad());
        }
        Ok(Prepared {
            workload,
            expected,
            data: cfg.scratch.join("data"),
            datagen_s,
        })
    }
}

#[cfg(test)]
impl Prepared {
    /// Bit-identical expected answers and generation time.
    pub fn same_answers(&self, other: &Prepared) -> bool {
        self.expected == other.expected && self.datagen_s.to_bits() == other.datagen_s.to_bits()
    }
}

/// Measures a prepared workload.
pub fn run_prepared(cfg: &RunConfig, mut prepared: Prepared) -> Result<Outcome, String> {
    if cfg.corrupt_reference {
        // Far outside the comparison's relative tolerance, whatever the scale.
        let answer = &mut prepared.expected[0][0];
        answer.checksum = answer.checksum * 2.0 + 1.0;
    }
    // One closed-loop connection: exactly one thread is runnable at a time.
    let pinned_cpu = (prepared.workload.clients == 1)
        .then(run::pin_to_one_cpu)
        .flatten();
    let outcome = if cfg.trace {
        traced_run(cfg, &prepared)
    } else {
        untraced_run(cfg, &prepared)
    };
    outcome.map(|outcome| Outcome {
        pinned_cpu,
        ..outcome
    })
}

/// Prepares and measures in this process, and removes the scratch directory
/// whatever happens. The command line prepares in a child process instead,
/// so that the measured process holds the system under test alone.
#[cfg(test)]
pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    let outcome = prepare(cfg).and_then(|prepared| run_prepared(cfg, prepared));
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    outcome
}

/// One repetition of an untraced run: a fresh instance's set-up and first
/// touch, and what its measured phase showed.
struct Epoch {
    setup_s: f64,
    first_touch_ms: f64,
    qps: f64,
    lat_p50_ms: f64,
    lat_p95_ms: f64,
}

fn untraced_run(cfg: &RunConfig, p: &Prepared) -> Result<Outcome, String> {
    let w = &p.workload;
    // Replies outside the measured phases: checked and tallied, not timed.
    let mut tally = Samples::default();
    let mut pooled = Samples::default();
    let mut updates = Updates::default();
    let mut wire_totals = WireTotals::default();
    let mut epochs = Vec::with_capacity(EPOCHS);
    let mut peak_rss_mb = None;
    for round in &w.rounds {
        let mut instance = run::set_up(w, &p.data)?;
        let first_touch_ms = run::first_touch(&mut instance, w, &p.expected, &mut tally);
        let pass = Pass {
            workload: w,
            round,
            expected: &p.expected,
        };
        let mut run_pass = |until: Until, samples: &mut Samples| -> Instant {
            if w.clients == 0 {
                run::untraced_pass(&instance.engine, pass, until, samples, &mut updates);
                Instant::now()
            } else {
                run::wire_pass(
                    &mut instance.clients,
                    pass,
                    until,
                    samples,
                    &mut wire_totals,
                )
            }
        };
        // Warm-up: one unrecorded round, so every cache the round touches is
        // built and the engine is in its steady state before timing.
        run_pass(None, &mut tally);
        let mut samples = Samples::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(cfg.seconds / EPOCHS as f64);
        let measured_s = (run_pass(Some(deadline), &mut samples) - start).as_secs_f64();
        // Memory is read when the first instance has done all its work: what
        // the allocator keeps of earlier instances depends on thread timing
        // and would make later readings vary by a fifth.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(run::peak_rss_mb()?);
        }
        let setup_s = instance.setup_s;
        instance.tear_down();

        let mut lat = samples.latencies_ms();
        lat.sort_by(|a, b| a.total_cmp(b));
        if lat.is_empty() {
            return Err(format!(
                "no query of {} attempted in {measured_s:.1} s got a correct reply",
                samples.attempted
            ));
        }
        // A phase attempts enough queries for a 95th percentile whatever the
        // time, so it is short of them only when replies failed. The run is
        // then reported as incorrect, with the tail of the replies it has.
        let lat_p95_ms = stats::p95(&lat).unwrap_or_else(|| stats::percentile(&lat, 95.0));
        epochs.push(Epoch {
            setup_s,
            first_touch_ms,
            qps: lat.len() as f64 / measured_s,
            lat_p50_ms: stats::percentile(&lat, 50.0),
            lat_p95_ms,
        });
        pooled.merge(samples);
    }

    // Every timing is the trimmed mean over the repetitions of that
    // repetition's value (see `stats::trimmed_mean` for why not a median).
    let over_epochs = |value: fn(&Epoch) -> f64| {
        stats::trimmed_mean(&epochs.iter().map(value).collect::<Vec<f64>>())
    };
    let values = vec![
        ("setup_s", over_epochs(|e| e.setup_s)),
        (
            "data_to_answer_s",
            over_epochs(|e| e.setup_s + e.first_touch_ms / 1e3),
        ),
        ("qps", over_epochs(|e| e.qps)),
        ("lat_p50_ms", over_epochs(|e| e.lat_p50_ms)),
        ("lat_p95_ms", over_epochs(|e| e.lat_p95_ms)),
        ("peak_rss_mb", peak_rss_mb.expect("EPOCHS > 0")),
    ];
    Ok(Outcome {
        attempted: tally.attempted + pooled.attempted,
        failed: tally.failed + pooled.failed,
        values,
        samples: pooled.verified.len(),
        per_template: per_template(w, &pooled),
        pinned_cpu: None,
        setups: epochs.iter().map(|e| e.setup_s).collect(),
        first_touches_ms: epochs.iter().map(|e| e.first_touch_ms).collect(),
    })
}

/// Opens each CSV/JSON file in a plug-in of its own — not the engine's, so
/// the queries that follow still meet lazily derived state — and returns the
/// time `InputPlugin::zone_maps` takes over the numeric fields (one span per
/// dataset) and the size of the JSON structural index over its file's.
fn plugin_probes(w: &Workload, data: &Path, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let memory = proteus_storage::MemoryManager::new();
    let mut zone_build = Duration::ZERO;
    let mut index_ratio = 0.0;
    for dataset in &w.datasets {
        let path = data.join(&dataset.file);
        let plugin: Box<dyn InputPlugin> = match dataset.format {
            Format::Binary => continue,
            Format::Json => {
                let plugin = JsonPlugin::open(&dataset.name, &path, &memory)
                    .map_err(|e| format!("opening {}: {e}", dataset.name))?;
                let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                index_ratio = ratio(plugin.structural_index().size_bytes() as f64, bytes as f64);
                Box::new(plugin)
            }
            Format::Csv => {
                let schema = dataset.schema.clone().expect("CSV datasets carry a schema");
                let plugin =
                    CsvPlugin::open(&dataset.name, &path, schema, CsvOptions::default(), &memory)
                        .map_err(|e| format!("opening {}: {e}", dataset.name))?;
                Box::new(plugin)
            }
        };
        let fields: Vec<String> = plugin
            .schema()
            .fields()
            .iter()
            .filter(|f| f.data_type.is_numeric())
            .map(|f| f.name.clone())
            .collect();
        let start = Instant::now();
        tracer.span("plugins.zone_maps", || plugin.zone_maps(&fields));
        zone_build += start.elapsed();
    }
    Ok((ms(zone_build), index_ratio))
}

/// Times `wire::row_frame` and `wire::value_from_json` over the real
/// result rows of one instance per template.
fn wire_codec(engine: &QueryEngine, w: &Workload) -> Result<(f64, f64, f64), String> {
    let (mut rows, mut bytes) = (0usize, 0usize);
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    for template in &w.templates {
        let result = run::run_query(engine, &template.instances[0]).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let frames: Vec<String> = result.iter().map(wire::row_frame).collect();
        encode += start.elapsed();
        let start = Instant::now();
        for frame in &frames {
            std::hint::black_box(wire::value_from_json(frame.as_bytes())?);
        }
        decode += start.elapsed();
        rows += frames.len();
        bytes += frames.iter().map(String::len).sum::<usize>();
    }
    let per_row = |d: Duration| ratio(d.as_secs_f64() * 1e6, rows as f64);
    Ok((
        per_row(encode),
        per_row(decode),
        ratio(bytes as f64, rows as f64),
    ))
}

/// `snapshot_caches` then `warm_from` into a fresh engine, whose answers
/// are checked like any other. Returns (snapshot ms, warm ms).
fn snapshot_and_warm(
    cfg: &RunConfig,
    p: &Prepared,
    engine: &QueryEngine,
    tracer: &mut Tracer,
    tally: &mut Samples,
) -> Result<(f64, f64), String> {
    let dir = cfg.scratch.join("snapshot");
    let start = Instant::now();
    let written = tracer
        .span("storage.snapshot", || engine.snapshot_caches(&dir))
        .map_err(|e| format!("snapshot: {e}"))?;
    let snapshot_ms = ms(start.elapsed());
    // The restarted engine is read, not updated, and spills nowhere.
    let mut fresh = p.workload.clone();
    fresh.config.cache_spill_dir = None;
    let queries: Vec<Op> = fresh.rounds[0]
        .iter()
        .filter(|op| matches!(op, Op::Query { .. }))
        .cloned()
        .collect();
    let instance = run::set_up(&fresh, &p.data)?;
    let start = Instant::now();
    let report = tracer
        .span("storage.warm", || instance.engine.warm_from(&dir))
        .map_err(|e| format!("warm restart: {e}"))?;
    let warm_ms = ms(start.elapsed());
    if report.rejected != 0 || report.loaded + report.skipped != written {
        return Err(format!(
            "warm restart lost entries: wrote {written}, got {report:?}"
        ));
    }
    let mut updates = Updates::default();
    let pass = Pass {
        workload: &fresh,
        round: &queries,
        expected: &p.expected,
    };
    run::untraced_pass(&instance.engine, pass, None, tally, &mut updates);
    instance.tear_down();
    Ok((snapshot_ms, warm_ms))
}

fn stats_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        entries: after.entries,
        bytes: after.bytes,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        spilled_bytes: after.spilled_bytes - before.spilled_bytes,
        background_builds: after.background_builds - before.background_builds,
        stale_reads: after.stale_reads - before.stale_reads,
    }
}

fn traced_run(cfg: &RunConfig, p: &Prepared) -> Result<Outcome, String> {
    let w = &p.workload;
    let mut tracer = Tracer::new();
    let mut tally = Samples::default();
    let pass = Pass {
        workload: w,
        round: &w.rounds[0],
        expected: &p.expected,
    };
    let mut instance = run::set_up(w, &p.data)?;
    let first_touch_ms = run::first_touch(&mut instance, w, &p.expected, &mut tally);
    let engine = std::sync::Arc::clone(&instance.engine);

    // Rounds alternate between plain and by-hand execution (and, for the
    // service workloads, the wire), so all forms see the same machine state.
    let mut plain = Samples::default();
    let mut by_hand = Samples::default();
    let mut wired = Samples::default();
    let mut updates = Updates::default();
    let mut totals = TracedTotals::default();
    let mut wire_totals = WireTotals::default();
    let mut first_round: Option<(TracedTotals, CacheStats)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    // Whole cycles only, so every form executes the same operations: stop
    // when another cycle as long as the last would overrun the time.
    loop {
        let cycle = Instant::now();
        if w.clients > 0 {
            let clients = &mut instance.clients;
            run::wire_pass(clients, pass, None, &mut wired, &mut wire_totals);
        }
        run::untraced_pass(&engine, pass, None, &mut plain, &mut updates);
        let before = engine.cache_stats();
        run::traced_pass(
            &engine,
            pass,
            &mut tracer,
            &mut by_hand,
            &mut updates,
            &mut totals,
        );
        // The exact counts come from the first traced round.
        first_round
            .get_or_insert_with(|| (totals.clone(), stats_delta(&engine.cache_stats(), &before)));
        if Instant::now() + cycle.elapsed() > deadline {
            break;
        }
    }
    let (first, cache) = first_round.expect("at least one cycle ran");

    let codec = if w.clients > 0 {
        wire_codec(&engine, w)?
    } else {
        (0.0, 0.0, 0.0)
    };
    let (snapshot_ms, warm_ms) = if w.cache_budget.is_some() {
        snapshot_and_warm(cfg, p, &engine, &mut tracer, &mut tally)?
    } else {
        (0.0, 0.0)
    };
    let (zone_build_ms, index_ratio) = plugin_probes(w, &p.data, &mut tracer)?;
    let register_s = instance.register_s;
    let connect_us = instance.connect_us;
    let instance_setup_s = instance.setup_s;
    instance.tear_down();
    if let Some(out) = &cfg.out {
        std::fs::write(out.join("trace.jsonl"), tracer.to_jsonl(w.name))
            .map_err(|e| format!("writing trace.jsonl: {e}"))?;
    }

    // -- reduce ------------------------------------------------------------
    let spans = tracer.spans();
    let own = trace::self_times(spans);
    let total = trace::total_times(spans);
    let ns = |map: &std::collections::BTreeMap<&'static str, u64>, name: &str| {
        map.get(name).copied().unwrap_or(0) as f64
    };
    let n = totals.queries as f64;
    let per_query_us = |name: &str| ratio(ns(&total, name) / 1e3, n);
    let query_ns = ns(&total, "engine.query");
    let traced_mean_ms = ratio(
        by_hand.latencies_ms().iter().sum(),
        by_hand.verified.len() as f64,
    );
    let plain_mean_ms = ratio(
        plain.latencies_ms().iter().sum(),
        plain.verified.len() as f64,
    );
    // What one query costs its caller: the round trip for service
    // workloads, the in-process call otherwise.
    let rtt_us = ratio(wire_totals.rtt_ns as f64 / 1e3, wire_totals.queries as f64);
    let caller_ns = if w.clients > 0 {
        rtt_us * 1e3
    } else {
        ratio(query_ns, n)
    };
    let share = |name: &str| ratio(ratio(ns(&own, name), n), caller_ns);
    let e = &first.exec;
    let f = |v: u64| v as f64;
    let (sched_queries, queue_wait, steals, touched) = if w.clients > 0 {
        let t = &wire_totals;
        (
            f(t.queries),
            f(t.queue_wait_us),
            f(t.steals),
            f(t.workers_touched),
        )
    } else {
        let t = &totals;
        (
            n,
            f(t.exec.queue_wait_us),
            f(t.exec.sched_steals),
            f(t.workers_touched),
        )
    };
    let scan_rate = |format: Format| {
        let i = format as usize;
        ratio(
            f(totals.scan_probe_rows[i]) / 1e6,
            f(totals.scan_probe_ns[i]) / 1e9,
        )
    };
    let mut wired_ms = wired.latencies_ms();
    wired_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 = if wired_ms.is_empty() {
        0.0
    } else {
        stats::percentile(&wired_ms, 99.0)
    };

    let values = vec![
        ("algebra.parse_us", per_query_us("algebra.parse")),
        ("optimizer.optimize_us", per_query_us("optimizer.optimize")),
        (
            "optimizer.cache_rewrites_per_query",
            ratio(f(first.cache_rewrites), f(first.queries)),
        ),
        ("codegen.compile_us", per_query_us("codegen.compile")),
        ("exec.execute_us", per_query_us("exec.execute")),
        (
            "exec.scan_mrows_per_s",
            ratio(
                f(totals.exec.tuples_scanned) / 1e6,
                ns(&total, "exec.execute") / 1e9,
            ),
        ),
        (
            "exec.kernel_row_share",
            ratio(f(e.kernel_rows), f(e.kernel_rows + e.fallback_rows)),
        ),
        (
            "exec.agg_kernel_row_share",
            ratio(
                f(e.agg_kernel_rows),
                f(e.agg_kernel_rows + e.agg_fallback_rows),
            ),
        ),
        (
            "exec.join_kernel_row_share",
            ratio(
                f(e.join_kernel_rows),
                f(e.join_kernel_rows + e.join_fallback_rows),
            ),
        ),
        ("exec.morsels", f(e.morsels)),
        (
            "exec.morsels_skipped_share",
            ratio(f(e.morsels_skipped), f(e.morsels)),
        ),
        (
            "exec.morsels_short_circuited_share",
            ratio(f(e.morsels_short_circuited), f(e.morsels)),
        ),
        ("exec.index_rows", f(e.index_rows)),
        (
            "exec.rows_scanned_per_row_out",
            ratio(f(e.tuples_scanned), f(e.tuples_output)),
        ),
        ("exec.hash_probes", f(e.hash_probes)),
        ("exec.intermediate_bytes", f(e.intermediate_bytes)),
        ("exec.binding_allocs", f(e.binding_allocs)),
        ("exec.batch_grows", f(e.batch_grows)),
        ("sched.queue_wait_us", ratio(queue_wait, sched_queries)),
        ("sched.steals_per_query", ratio(steals, sched_queries)),
        ("sched.workers_touched", ratio(touched, sched_queries)),
        ("sched.shed", f(totals.shed + wire_totals.shed)),
        ("plugins.register_json_s", register_s[Format::Json as usize]),
        ("plugins.register_csv_s", register_s[Format::Csv as usize]),
        (
            "plugins.register_bin_s",
            register_s[Format::Binary as usize],
        ),
        ("plugins.zone_build_ms", zone_build_ms),
        ("plugins.json_scan_mrows_per_s", scan_rate(Format::Json)),
        ("plugins.csv_scan_mrows_per_s", scan_rate(Format::Csv)),
        ("plugins.bin_scan_mrows_per_s", scan_rate(Format::Binary)),
        ("plugins.json_index_bytes_per_data_byte", index_ratio),
        ("plugins.bad_rows", f(e.bad_rows)),
        (
            "storage.cache_hit_rate",
            ratio(f(cache.hits), f(cache.hits + cache.misses)),
        ),
        ("storage.cache_evictions", f(cache.evictions)),
        ("storage.cache_bytes_peak", totals.cache_bytes_peak as f64),
        ("storage.spilled_bytes", f(cache.spilled_bytes)),
        ("storage.stale_reads", f(cache.stale_reads)),
        ("storage.cached_values", f(e.cached_values)),
        (
            "storage.invalidate_us",
            ratio(f(updates.total_ns) / 1e3, f(updates.calls)),
        ),
        ("storage.snapshot_ms", snapshot_ms),
        ("storage.warm_ms", warm_ms),
        (
            "service.rtt_overhead_us",
            rtt_us - ratio(f(wire_totals.server_us), f(wire_totals.queries)),
        ),
        ("service.connect_us", connect_us),
        ("service.encode_us_per_row", codec.0),
        ("service.decode_us_per_row", codec.1),
        ("service.bytes_per_row", codec.2),
        ("service.client_p99_ms", p99),
        ("service.retries", f(wire_totals.retries)),
        ("share.algebra", share("algebra.parse")),
        ("share.optimizer", share("optimizer.optimize")),
        ("share.codegen", share("codegen.compile")),
        ("share.scheduler", share("scheduler.admit")),
        ("share.exec", share("exec.execute")),
        (
            "share.service",
            if w.clients > 0 {
                1.0 - ratio(ratio(query_ns, n), caller_ns)
            } else {
                0.0
            },
        ),
        (
            "trace.overhead_share",
            ratio(traced_mean_ms - plain_mean_ms, plain_mean_ms),
        ),
        (
            "trace.unattributed_share",
            ratio(ns(&own, "engine.query"), query_ns),
        ),
        ("bench.first_touch_ms", first_touch_ms),
        ("bench.datagen_s", p.datagen_s),
    ];
    let per_template = per_template(w, &by_hand);
    let mut all = tally;
    for part in [plain, by_hand, wired] {
        all.merge(part);
    }
    Ok(Outcome {
        attempted: all.attempted,
        failed: all.failed,
        values,
        samples: all.verified.len(),
        per_template,
        pinned_cpu: None,
        setups: vec![instance_setup_s],
        first_touches_ms: vec![first_touch_ms],
    })
}
