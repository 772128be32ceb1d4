//! `proteus_e2e` — the end-to-end benchmark of the Proteus reproduction.
//!
//! One run measures one workload for `--seconds` seconds on inputs made
//! from `--seed`, checks every reply against a reference engine, and prints
//! every metric by name with its unit; the last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`. `--trace 0`
//! yields the end-to-end metrics, `--trace 1` the per-layer metrics. See
//! `README.md` beside this package for the workloads and what each metric
//! is expected to move.

mod datagen;
mod measure;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use datagen::Sizes;
use measure::{Outcome, RunConfig};
use report::{ChildRun, RunSet};
use workloads::WORKLOADS;

const USAGE: &str = "\
usage: proteus_e2e [--workload <name>|all] [--seed <u64>] [--seconds <n>] [--trace 0|1]
                   [--out <dir>] [--quick] [--selftest]
       proteus_e2e --repeat <n> [the options above]
       proteus_e2e --compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]

  --workload   raw_hetero | binary_olap | service_point | service_rows |
               cache_fit | cache_churn | all (default: one child process each)
  --seed       inputs and query sequence derive from it alone (default 1)
  --seconds    measured time in total (default 18, as in BENCHMARK.json)
  --trace      0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass
  --out        keep result.json (and trace.jsonl with --trace 1) in this directory
  --quick      1/50 of the data: a smoke run, not a measurement
  --selftest   corrupt one reference answer; the run must report failures and exit non-zero
  --repeat     run the set n times on the one seed; prints median and quartiles per metric,
               writes <out>/repeat.json; exit 2 when any query of any run failed
  --compare    apply the bounds of BENCHMARK.json to two repeat.json files; one row per
               workload x end-to-end metric, and one for fail_share (bound +0): ok | regressed |
               unresolved; whatever set b lacks is regressed; exit 1 on regressed
  (--prepare <dir> is internal: the child process a run starts to generate its inputs and
               the reference answers)";

/// Exit code of a run, or a set of runs, whose replies were not all correct
/// (the result is still printed).
const EXIT_FAILED_QUERIES: u8 = 2;

fn exit_code(failed_queries: u64) -> ExitCode {
    if failed_queries == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FAILED_QUERIES)
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
    selftest: bool,
    repeat: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
    /// Internal: generate the inputs and the reference answers into this
    /// directory and exit (the child a measuring run starts first).
    prepare: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 18,
        trace: false,
        out: None,
        quick: false,
        selftest: false,
        repeat: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        prepare: None,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => args.seed = number(&flag, value("a number")?)?,
            "--seconds" => args.seconds = number(&flag, value("a number")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--quick" => args.quick = true,
            "--selftest" => args.selftest = true,
            "--repeat" => args.repeat = Some(number(&flag, value("a count")?)?),
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                args.compare = Some((a, PathBuf::from(value("two files")?)));
            }
            "--benchmark" => args.benchmark = PathBuf::from(value("a file")?),
            "--prepare" => args.prepare = Some(PathBuf::from(value("a directory")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.seconds == 0 || args.repeat == Some(0) {
        return Err("--seconds and --repeat must be at least 1".to_string());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

/// Scratch space for one run's inputs: beside the executable, which the
/// build already put inside the checkout's (ignored) target directory.
fn scratch_dir(workload: &str, seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join(format!(
        "e2e-scratch-{workload}-{seed}-{}",
        std::process::id()
    )))
}

/// The CPUs this process may use. Read before a run, which may pin itself
/// to one of them.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

fn host_block(args: &Args, sizes: Sizes, nproc: usize, pinned_cpu: Option<usize>) -> String {
    format!(
        "{{\"nproc\": {}, \"pinned_cpu\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"events_rows\": {}, \
         \"fact_rows\": {}, \"fact_sorted_rows\": {}, \"churn_rows_per_file\": {}, \
         \"churn_working_set_bytes\": {}, \"max_service_clients\": {}, \"set_ups_per_run\": {}}}",
        nproc,
        pinned_cpu.map_or("null".to_string(), |cpu| cpu.to_string()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sizes.events,
        sizes.fact,
        sizes.fact_sorted(),
        sizes.churn,
        workloads::working_set_bytes(sizes),
        workloads::SERVICE_CLIENTS,
        if args.trace { 1 } else { workloads::EPOCHS },
    )
}

/// Human-readable lines, then the contract's result line last.
fn print_outcome(
    args: &Args,
    cfg: &RunConfig,
    nproc: usize,
    outcome: &Outcome,
) -> Result<(), String> {
    let host = host_block(args, cfg.sizes, nproc, outcome.pinned_cpu);
    println!("workload {}  host {host}", args.workload);
    for (name, value) in &outcome.values {
        let def = metrics::def(name).expect("every reported metric is in the catalogue");
        let kind = match def.kind {
            metrics::Kind::Exact => "exact count",
            metrics::Kind::Measured => "measured",
        };
        let better = match def.better {
            metrics::Better::Higher => "higher is better",
            metrics::Better::Lower => "lower is better",
        };
        println!(
            "  {name:<40} {value:>16.4} {:<8} {kind}, {better}",
            def.unit
        );
    }
    for (template, count, median) in &outcome.per_template {
        println!("  template {template:<20} {count:>8} queries, median {median:>10.4} ms");
    }
    let in_order = |values: &[f64]| -> String {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        shown.join(" ")
    };
    println!(
        "  setup_s of every fresh set-up, in order: {} s",
        in_order(&outcome.setups)
    );
    println!(
        "  first_touch_ms after each of them: {} ms",
        in_order(&outcome.first_touches_ms)
    );
    // Not a metric of BENCHMARK.json, whose metrics may never be 0: the
    // result line carries it as `failed` over `attempted`, `--compare` gates
    // it at +0, and a run with any failure exits with code 2.
    println!(
        "  {:<40} {:>16.6} {:<8} {} failed of {} attempted; {} verified in the measured phases",
        "fail_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.failed,
        outcome.attempted,
        outcome.samples
    );
    let line = metrics::result_line(outcome.attempted, outcome.failed, &outcome.values);
    if let Some(out) = &args.out {
        let body = format!("{{\"host\": {host}, \"result\": {line}}}\n");
        std::fs::write(out.join("result.json"), body).map_err(|e| format!("result.json: {e}"))?;
    }
    println!("{line}");
    Ok(())
}

fn run_config(args: &Args, scratch: PathBuf) -> RunConfig {
    RunConfig {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        sizes: if args.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        },
        scratch,
        out: args.out.clone(),
        corrupt_reference: args.selftest,
    }
}

/// Generates the inputs and answers every query on the reference engine in
/// a child process, so neither the generator's buffers nor a second engine
/// over the same files count in the measuring process's `peak_rss_mb`.
fn prepare_in_child(cfg: &RunConfig) -> Result<measure::Prepared, String> {
    let mut command = report::child_command(&cfg.workload, cfg.seed, cfg.sizes == Sizes::QUICK)?;
    command.arg("--prepare").arg(&cfg.scratch);
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("starting the preparing child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "preparing {}: {}",
            cfg.workload,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    measure::Prepared::load(cfg)
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    if let Some(scratch) = &args.prepare {
        let cfg = run_config(args, scratch.clone());
        measure::prepare(&cfg)?.save(&cfg)?;
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(out) = &args.out {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let cfg = run_config(args, scratch_dir(&args.workload, args.seed)?);
    let nproc = nproc();
    let outcome = prepare_in_child(&cfg).and_then(|prepared| measure::run_prepared(&cfg, prepared));
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let outcome = outcome?;
    print_outcome(args, &cfg, nproc, &outcome)?;
    if args.selftest {
        if outcome.failed == 0 {
            return Err("selftest: the injected wrong answer was NOT caught".to_string());
        }
        eprintln!(
            "selftest: the injected wrong answer was caught ({} failed)",
            outcome.failed
        );
    }
    Ok(exit_code(outcome.failed))
}

fn selected(args: &Args) -> Vec<&str> {
    if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    }
}

/// Every workload in a child process of its own; prints each child's
/// metrics and one merged JSON document last.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut merged = String::from("{\"workloads\": {");
    let mut failed = 0;
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let result = report::run_child(&ChildRun {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            out: args.out.as_ref().map(|out| out.join(workload)),
            quick: args.quick,
            selftest: args.selftest,
        })?;
        println!(
            "{workload}: {} attempted, {} failed",
            result.attempted, result.failed
        );
        for (name, value, unit) in &result.metrics {
            println!("  {name:<40} {value:>16.4} {unit}");
        }
        failed += result.failed;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(merged, "{sep}\"{workload}\": {}", result.line);
    }
    merged.push_str("}}");
    if let Some(out) = &args.out {
        std::fs::write(out.join("result.json"), format!("{merged}\n"))
            .map_err(|e| format!("result.json: {e}"))?;
    }
    println!("{merged}");
    Ok(exit_code(failed))
}

fn repeat(args: &Args, runs: usize) -> Result<ExitCode, String> {
    let mut set = RunSet {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        runs,
        ..RunSet::default()
    };
    for run in 0..runs {
        for workload in selected(args) {
            eprintln!("run {}/{runs}: {workload}", run + 1);
            let result = report::run_child(&ChildRun {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                out: None,
                quick: args.quick,
                selftest: args.selftest,
            })?;
            set.add(workload, &result);
        }
    }
    print!("{}", set.table());
    if let Some(out) = &args.out {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join("repeat.json");
        std::fs::write(&path, set.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(exit_code(set.failed()))
}

fn compare(args: &Args, a: &Path, b: &Path) -> Result<ExitCode, String> {
    let benchmark = std::fs::read_to_string(&args.benchmark)
        .map_err(|e| format!("{}: {e}", args.benchmark.display()))?;
    let gates = report::gates_from_benchmark_json(&benchmark)?;
    let (a, b) = (report::read_run_set(a)?, report::read_run_set(b)?);
    if (a.trace, a.seconds) != (b.trace, b.seconds) {
        return Err("the two sets were not run with the same --trace and --seconds".to_string());
    }
    let (table, regressed) = report::compare(&a, &b, &gates);
    print!("{table}");
    Ok(ExitCode::from(u8::from(regressed)))
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare(&args, a, b)
        } else if let Some(runs) = args.repeat {
            repeat(&args, runs)
        } else if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("proteus_e2e: {message}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(workload: &str, trace: bool, corrupt_reference: bool) -> RunConfig {
        let tag = format!("{workload}-{trace}-{corrupt_reference}");
        RunConfig {
            workload: workload.to_string(),
            seed: 7,
            seconds: QUICK_SECONDS,
            trace,
            sizes: Sizes::QUICK,
            scratch: std::env::temp_dir().join(format!("proteus_e2e_{}_{tag}", std::process::id())),
            out: None,
            corrupt_reference,
        }
    }

    const QUICK_SECONDS: f64 = 2.5;

    fn quick(workload: &str, trace: bool, corrupt_reference: bool) -> Outcome {
        let cfg = quick_config(workload, trace, corrupt_reference);
        measure::run_workload(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.scratch.display()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let argv = "--workload cache_churn --seed 42 --seconds 10 --trace 1";
        let args = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("cache_churn", 42, 10, true)
        );
        assert!(parse_args(["--workload".to_string(), "nope".to_string()].into_iter()).is_err());
        assert!(parse_args(["--trace".to_string(), "2".to_string()].into_iter()).is_err());
    }

    #[test]
    fn expected_answers_survive_the_hand_over_between_processes() {
        let mut cfg = quick_config("service_rows", false, false);
        cfg.scratch.set_extension("handover");
        let prepared = measure::prepare(&cfg).unwrap();
        prepared.save(&cfg).unwrap();
        let loaded = measure::Prepared::load(&cfg).unwrap();
        assert!(prepared.same_answers(&loaded));
        std::fs::write(cfg.scratch.join("expected.txt"), "0\n1:zz\n").unwrap();
        assert!(measure::Prepared::load(&cfg).is_err());
        std::fs::remove_dir_all(&cfg.scratch).unwrap();
    }

    #[test]
    fn quick_smoke_reports_every_end_to_end_metric_and_no_failure() {
        let outcome = quick("binary_olap", false, false);
        assert_eq!(outcome.failed, 0);
        let names: Vec<&str> = outcome.values.iter().map(|(n, _)| *n).collect();
        let catalogue: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, catalogue);
        assert!(outcome
            .values
            .iter()
            .all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn a_phase_the_clock_cuts_short_still_attempts_enough_for_its_tail() {
        for workload in ["binary_olap", "service_rows"] {
            let mut cfg = quick_config(workload, false, false);
            cfg.scratch.set_extension("short");
            // Every phase's deadline has passed before its first query.
            cfg.seconds = 1e-6;
            let outcome = measure::run_workload(&cfg).unwrap();
            assert_eq!(outcome.failed, 0, "{workload}");
            let fewest = workloads::EPOCHS * stats::P95_MIN_SAMPLES;
            assert!(outcome.samples >= fewest, "{workload}: {}", outcome.samples);
        }
    }

    #[test]
    fn quick_traced_smoke_repeats_its_exact_counts() {
        let exact = |outcome: &Outcome| -> Vec<(&'static str, f64)> {
            outcome
                .values
                .iter()
                .filter(|(n, _)| metrics::def(n).unwrap().kind == metrics::Kind::Exact)
                .copied()
                .collect()
        };
        for workload in ["raw_hetero", "cache_churn"] {
            let first = quick(workload, true, false);
            let second = quick(workload, true, false);
            assert_eq!(first.failed, 0, "{workload}");
            let names: Vec<&str> = first.values.iter().map(|(n, _)| *n).collect();
            let catalogue: Vec<&str> = metrics::PER_LAYER.iter().map(|d| d.name).collect();
            assert_eq!(names, catalogue);
            assert_eq!(exact(&first), exact(&second), "{workload}");
        }
    }

    #[test]
    fn an_injected_wrong_answer_is_reported_as_a_failure() {
        for workload in ["service_point", "cache_fit"] {
            let outcome = quick(workload, false, true);
            assert!(outcome.failed > 0, "{workload}");
            assert!(outcome.failed < outcome.attempted, "{workload}");
        }
    }
}
