//! Running workloads as child processes and judging sets of runs:
//! `--workload all` (one child per workload, so peak memory and scheduler
//! state are per workload), `--repeat N` (median and quartiles per metric)
//! and `--compare a.json b.json` (the bounds of `BENCHMARK.json` applied to
//! two sets of runs).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use proteus_algebra::Value;

use crate::metrics::{self, json_number, Kind};
use crate::stats;

/// The result line of one child run, parsed back.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
    /// The line itself, for merging into a larger JSON document.
    pub line: String,
}

fn parse_json(text: &str) -> Result<Value, String> {
    proteus_plugins::json::parse_json_value(text.as_bytes()).map_err(|e| e.to_string())
}

fn get<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .as_record()
        .ok()
        .and_then(|r| r.get(key))
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn number(value: &Value) -> Result<f64, String> {
    value.as_float().map_err(|e| e.to_string())
}

fn text(value: &Value) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .map_err(|e| e.to_string())
}

pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let root = parse_json(line)?;
    let mut metrics = Vec::new();
    let listed = get(&root, "metrics")?
        .as_record()
        .map_err(|e| e.to_string())?;
    for (name, entry) in listed.iter() {
        metrics.push((
            name.to_string(),
            number(get(entry, "value")?)?,
            text(get(entry, "unit")?)?,
        ));
    }
    Ok(ChildResult {
        attempted: number(get(&root, "attempted")?)? as u64,
        failed: number(get(&root, "failed")?)? as u64,
        metrics,
        line: line.to_string(),
    })
}

/// One run of one workload in a process of its own.
pub struct ChildRun<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub quick: bool,
    pub selftest: bool,
}

/// This executable again, for one workload and seed.
pub fn child_command(workload: &str, seed: u64, quick: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()]);
    if quick {
        command.arg("--quick");
    }
    Ok(command)
}

/// Re-executes this binary for one workload and parses the result line. A
/// child that reports failed queries exits non-zero but still prints its
/// result, which is returned; a child that prints none is an error.
pub fn run_child(run: &ChildRun) -> Result<ChildResult, String> {
    let mut command = child_command(run.workload, run.seed, run.quick)?;
    command
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace { "1" } else { "0" }]);
    if let Some(out) = &run.out {
        command.arg("--out").arg(out);
    }
    if run.selftest {
        command.arg("--selftest");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("starting child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    parse_result_line(line).map_err(|e| {
        format!(
            "workload {} printed no result ({e}; exit {:?}): {}",
            run.workload,
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })
}

/// One workload over a set of runs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadRuns {
    /// Queries attempted and failed, summed over the runs.
    pub attempted: u64,
    pub failed: u64,
    /// metric → (unit, one value per run).
    pub metrics: BTreeMap<String, (String, Vec<f64>)>,
}

impl WorkloadRuns {
    /// Errors, sheds that outlasted their retries and wrong answers as a
    /// share of the queries attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The values of every metric of every workload over a set of runs, all on
/// one seed: the same inputs and the same query sequence every time.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunSet {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub runs: usize,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

impl RunSet {
    pub fn add(&mut self, workload: &str, result: &ChildResult) {
        let entry = self.workloads.entry(workload.to_string()).or_default();
        entry.attempted += result.attempted;
        entry.failed += result.failed;
        for (name, value, unit) in &result.metrics {
            let slot = entry
                .metrics
                .entry(name.clone())
                .or_insert_with(|| (unit.clone(), Vec::new()));
            slot.1.push(*value);
        }
    }

    /// Failed queries over all workloads and runs.
    pub fn failed(&self) -> u64 {
        self.workloads.values().map(|w| w.failed).sum()
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"runs\": {}, \"workloads\": {{",
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.runs
        );
        for (w, (workload, runs)) in self.workloads.iter().enumerate() {
            let sep = if w == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\n\"{workload}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                runs.attempted, runs.failed
            );
            for (m, (name, (unit, values))) in runs.metrics.iter().enumerate() {
                let sep = if m == 0 { "" } else { "," };
                let rendered: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
                let _ = write!(
                    out,
                    "{sep}\n  \"{name}\": {{\"unit\": \"{unit}\", \"values\": [{}]}}",
                    rendered.join(", ")
                );
            }
            out.push_str("}}");
        }
        out.push_str("}}\n");
        out
    }

    pub fn from_json(json: &str) -> Result<RunSet, String> {
        let root = parse_json(json)?;
        let int = |key: &str| -> Result<u64, String> { Ok(number(get(&root, key)?)? as u64) };
        let mut set = RunSet {
            seed: int("seed")?,
            seconds: int("seconds")?,
            trace: int("trace")? != 0,
            runs: int("runs")? as usize,
            workloads: BTreeMap::new(),
        };
        let workloads = get(&root, "workloads")?
            .as_record()
            .map_err(|e| e.to_string())?;
        for (workload, entry) in workloads.iter() {
            let mut metrics = BTreeMap::new();
            let listed = get(entry, "metrics")?
                .as_record()
                .map_err(|e| e.to_string())?;
            for (name, metric) in listed.iter() {
                let values = get(metric, "values")?
                    .as_list()
                    .map_err(|e| e.to_string())?
                    .iter()
                    .map(number)
                    .collect::<Result<Vec<f64>, String>>()?;
                metrics.insert(name.to_string(), (text(get(metric, "unit")?)?, values));
            }
            let runs = WorkloadRuns {
                attempted: number(get(entry, "attempted")?)? as u64,
                failed: number(get(entry, "failed")?)? as u64,
                metrics,
            };
            set.workloads.insert(workload.to_string(), runs);
        }
        Ok(set)
    }

    /// `workload metric median q1 q3 spread unit`, one row per pair.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (workload, runs) in &self.workloads {
            let _ = writeln!(
                out,
                "{workload}: {} runs on seed {}; fail_share {:.6} ratio ({} failed of {} attempted)",
                self.runs,
                self.seed,
                runs.fail_share(),
                runs.failed,
                runs.attempted
            );
            for (name, (unit, values)) in &runs.metrics {
                if values.len() < 2 {
                    let _ = writeln!(out, "  {name:<40} {:>14.4} {unit}", values[0]);
                    continue;
                }
                let (q1, med, q3) = stats::quartiles(values);
                let _ = writeln!(
                    out,
                    "  {name:<40} median {med:>14.4}  q1 {q1:>14.4}  q3 {q3:>14.4}  \
                     spread {:>6.2}%  {unit}",
                    stats::spread(values) * 100.0
                );
            }
        }
        out
    }
}

/// One end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn gates_from_benchmark_json(text: &str) -> Result<Vec<Gate>, String> {
    let root = parse_json(text)?;
    get(&root, "end_to_end")?
        .as_list()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|entry| {
            Ok(Gate {
                name: text_of(entry, "name")?,
                higher_is_better: text_of(entry, "better")? == "higher",
                bound: number(get(entry, "bound")?)?,
            })
        })
        .collect()
}

fn text_of(entry: &Value, key: &str) -> Result<String, String> {
    text(get(entry, key)?)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// change within the bound cannot be told from noise.
    Unresolved,
}

/// The spread of a set of runs; a single run has none.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 2 {
        stats::spread(values)
    } else {
        0.0
    }
}

/// Judges set `b` against set `a` for one metric: how much worse `b`'s
/// median is as a share of `a`'s, and the verdict under `gate`.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse = if gate.higher_is_better {
        med_a - med_b
    } else {
        med_b - med_a
    } / med_a.abs();
    let verdict = if worse > gate.bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > gate.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn verdict_word(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Ok => "ok",
        Verdict::Regressed => "regressed",
        Verdict::Unresolved => "unresolved",
    }
}

/// Judges set `b` against set `a`: for every workload of `a` one row per
/// end-to-end metric under its gate (untraced sets; a traced run prints
/// none) and one for `fail_share`, whose bound is +0 absolute — a change
/// that makes one reply in a hundred wrong costs `qps` a hundredth, which no
/// relative bound catches. A workload or a gated metric that `b` lacks
/// cannot be shown to hold its bound and counts as regressed. For two traced
/// sets of one seed it also says, per workload, whether the exact-count
/// per-layer metrics were identical in every run. Returns the report and
/// whether anything regressed.
pub fn compare(a: &RunSet, b: &RunSet, gates: &[Gate]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    for (workload, runs_a) in &a.workloads {
        let Some(runs_b) = b.workloads.get(workload) else {
            regressed = true;
            let _ = writeln!(out, "{workload:<14} not in set b  regressed");
            continue;
        };
        let gated = if a.trace { &[] } else { gates };
        for gate in gated {
            let (Some((unit, va)), Some((_, vb))) = (
                runs_a.metrics.get(&gate.name),
                runs_b.metrics.get(&gate.name),
            ) else {
                regressed = true;
                let _ = writeln!(
                    out,
                    "{workload:<14} {:<16} not in both sets  regressed",
                    gate.name
                );
                continue;
            };
            let (worse, verdict) = judge(gate, va, vb);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{workload:<14} {:<16} a {:>12.4}  b {:>12.4} {unit:<6} worse by {:>7.2}% \
                 (bound {:>4.1}%, spread a {:>5.2}% b {:>5.2}%)  {}",
                gate.name,
                stats::median(va),
                stats::median(vb),
                worse * 100.0,
                gate.bound * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                verdict_word(verdict)
            );
        }
        let verdict = if runs_b.fail_share() > runs_a.fail_share() {
            regressed = true;
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        let _ = writeln!(
            out,
            "{workload:<14} {:<16} a {:>12.6} ({} of {})  b {:>12.6} ({} of {}) ratio  (bound +0)  {}",
            "fail_share",
            runs_a.fail_share(),
            runs_a.failed,
            runs_a.attempted,
            runs_b.fail_share(),
            runs_b.failed,
            runs_b.attempted,
            verdict_word(verdict)
        );
        if a.trace && a.seed == b.seed {
            let differing: Vec<&str> = runs_a
                .metrics
                .iter()
                .filter(|(name, _)| metrics::def(name).is_some_and(|d| d.kind == Kind::Exact))
                .filter(|(name, (_, va))| {
                    let vb = runs_b
                        .metrics
                        .get(*name)
                        .map(|(_, v)| v.as_slice())
                        .unwrap_or_default();
                    va.iter().chain(vb).any(|v| *v != va[0])
                })
                .map(|(name, _)| name.as_str())
                .collect();
            let _ = if differing.is_empty() {
                writeln!(
                    out,
                    "{workload:<14} exact counts     identical in every run"
                )
            } else {
                writeln!(
                    out,
                    "{workload:<14} exact counts     differ: {}",
                    differing.join(", ")
                )
            };
        }
    }
    (out, regressed)
}

pub fn read_run_set(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    RunSet::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool, bound: f64) -> Gate {
        Gate {
            name: "m".to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn judge_tells_regressed_unresolved_and_ok_apart() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let slower = [112.0, 112.5, 111.5, 112.2, 111.8];
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        // Lower is better: 12% worse against a 5% bound.
        assert_eq!(
            judge(&gate(false, 0.05), &steady, &slower).1,
            Verdict::Regressed
        );
        // Higher is better: the same move is an improvement.
        assert_eq!(judge(&gate(true, 0.05), &steady, &slower).1, Verdict::Ok);
        assert_eq!(
            judge(&gate(false, 0.05), &steady, &noisy).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&gate(false, 0.05), &steady, &steady),
            (0.0, Verdict::Ok)
        );
    }

    fn two_runs(failed: u64) -> RunSet {
        let values = vec![("qps", 100.0), ("setup_s", 0.5)];
        let line = crate::metrics::result_line(10, failed, &values);
        let result = parse_result_line(&line).unwrap();
        let mut set = RunSet {
            seed: 1,
            seconds: 10,
            trace: false,
            runs: 2,
            workloads: BTreeMap::new(),
        };
        set.add("raw_hetero", &result);
        set.add("raw_hetero", &result);
        set
    }

    fn qps_gate() -> Vec<Gate> {
        vec![Gate {
            name: "qps".to_string(),
            higher_is_better: true,
            bound: 0.05,
        }]
    }

    #[test]
    fn run_sets_round_trip_through_json_and_compare() {
        let a = two_runs(0);
        assert_eq!(RunSet::from_json(&a.to_json()).unwrap(), a);
        assert!(a.table().contains("qps"));
        assert_eq!((a.workloads["raw_hetero"].attempted, a.failed()), (20, 0));

        let mut b = a.clone();
        let runs = b.workloads.get_mut("raw_hetero").unwrap();
        runs.metrics.get_mut("qps").unwrap().1 = vec![80.0, 80.0];
        let (report, regressed) = compare(&a, &b, &qps_gate());
        assert!(regressed && report.contains("regressed"), "{report}");
        let (report, regressed) = compare(&a, &a, &qps_gate());
        assert!(!regressed && report.contains("fail_share"), "{report}");
    }

    #[test]
    fn one_more_failed_query_regresses_whatever_qps_says() {
        let (a, b) = (two_runs(0), two_runs(1));
        assert_eq!(b.failed(), 2);
        // One failure in ten moves nothing past a relative bound...
        let (report, regressed) = compare(&a, &b, &qps_gate());
        assert!(regressed, "{report}");
        let row = report.lines().find(|l| l.contains("fail_share")).unwrap();
        assert!(
            row.contains("2 of 20") && row.ends_with("regressed"),
            "{row}"
        );
        // ...and fewer failures than the baseline is not a regression.
        assert!(!compare(&b, &a, &qps_gate()).1);
    }

    #[test]
    fn what_set_b_lacks_is_regressed_not_skipped() {
        let a = two_runs(0);
        let mut without_metric = a.clone();
        let runs = without_metric.workloads.get_mut("raw_hetero").unwrap();
        runs.metrics.remove("qps");
        let (report, regressed) = compare(&a, &without_metric, &qps_gate());
        assert!(regressed && report.contains("not in both sets"), "{report}");

        let mut without_workload = a.clone();
        without_workload.workloads.clear();
        let (report, regressed) = compare(&a, &without_workload, &qps_gate());
        assert!(regressed && report.contains("not in set b"), "{report}");
    }

    #[test]
    fn gates_come_from_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let gates = gates_from_benchmark_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(gates.len(), crate::metrics::END_TO_END.len());
        // The contract's rules for a bound: positive, at most a quarter, and
        // set-up time has the largest.
        assert!(gates.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
        let setup = gates.iter().find(|g| g.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(gates.iter().all(|g| g.bound <= setup.bound));
    }
}
