//! The metric catalogue: every name the benchmark prints, with its unit,
//! which direction is better and — for per-layer metrics — whether the
//! value is an exact count that must repeat run to run on the
//! single-client workloads or a measurement that varies. `BENCHMARK.json`
//! lists the same names one-to-one (checked by a unit test).

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count (or a ratio of counts) taken over the first traced round:
    /// the same seed gives the same value on the single-client workloads.
    Exact,
    /// A timing, or a count that depends on scheduling or on how many
    /// rounds fit into the run.
    Measured,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Measured,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Exact,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off and gated by
/// the bounds in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 6] = [
    timing("setup_s", "s", Lower),
    timing("data_to_answer_s", "s", Lower),
    timing("qps", "1/s", Higher),
    timing("lat_p50_ms", "ms", Lower),
    timing("lat_p95_ms", "ms", Lower),
    timing("peak_rss_mb", "MiB", Lower),
];

/// Single layers, from the traced run. Layer = repository module.
pub const PER_LAYER: [MetricDef; 57] = [
    timing("algebra.parse_us", "us", Lower),
    timing("optimizer.optimize_us", "us", Lower),
    exact("optimizer.cache_rewrites_per_query", "count", Higher),
    timing("codegen.compile_us", "us", Lower),
    timing("exec.execute_us", "us", Lower),
    timing("exec.scan_mrows_per_s", "Mrows/s", Higher),
    exact("exec.kernel_row_share", "ratio", Higher),
    exact("exec.agg_kernel_row_share", "ratio", Higher),
    exact("exec.join_kernel_row_share", "ratio", Higher),
    exact("exec.morsels", "count", Lower),
    exact("exec.morsels_skipped_share", "ratio", Higher),
    exact("exec.morsels_short_circuited_share", "ratio", Higher),
    exact("exec.index_rows", "count", Higher),
    exact("exec.rows_scanned_per_row_out", "ratio", Lower),
    exact("exec.hash_probes", "count", Lower),
    exact("exec.intermediate_bytes", "bytes", Lower),
    exact("exec.binding_allocs", "count", Lower),
    timing("exec.batch_grows", "count", Lower),
    timing("sched.queue_wait_us", "us", Lower),
    timing("sched.steals_per_query", "count", Higher),
    timing("sched.workers_touched", "count", Higher),
    timing("sched.shed", "count", Lower),
    timing("plugins.register_json_s", "s", Lower),
    timing("plugins.register_csv_s", "s", Lower),
    timing("plugins.register_bin_s", "s", Lower),
    timing("plugins.zone_build_ms", "ms", Lower),
    timing("plugins.json_scan_mrows_per_s", "Mrows/s", Higher),
    timing("plugins.csv_scan_mrows_per_s", "Mrows/s", Higher),
    timing("plugins.bin_scan_mrows_per_s", "Mrows/s", Higher),
    exact("plugins.json_index_bytes_per_data_byte", "ratio", Lower),
    exact("plugins.bad_rows", "count", Lower),
    exact("storage.cache_hit_rate", "ratio", Higher),
    exact("storage.cache_evictions", "count", Lower),
    timing("storage.cache_bytes_peak", "bytes", Lower),
    exact("storage.spilled_bytes", "bytes", Lower),
    exact("storage.stale_reads", "count", Lower),
    exact("storage.cached_values", "count", Lower),
    timing("storage.invalidate_us", "us", Lower),
    timing("storage.snapshot_ms", "ms", Lower),
    timing("storage.warm_ms", "ms", Lower),
    timing("service.rtt_overhead_us", "us", Lower),
    timing("service.connect_us", "us", Lower),
    timing("service.encode_us_per_row", "us", Lower),
    timing("service.decode_us_per_row", "us", Lower),
    exact("service.bytes_per_row", "bytes", Lower),
    timing("service.client_p99_ms", "ms", Lower),
    timing("service.retries", "count", Lower),
    timing("share.algebra", "ratio", Lower),
    timing("share.optimizer", "ratio", Lower),
    timing("share.codegen", "ratio", Lower),
    timing("share.scheduler", "ratio", Lower),
    timing("share.exec", "ratio", Higher),
    timing("share.service", "ratio", Lower),
    timing("trace.overhead_share", "ratio", Lower),
    timing("trace.unattributed_share", "ratio", Lower),
    timing("bench.first_touch_ms", "ms", Lower),
    timing("bench.datagen_s", "s", Lower),
];

/// Looks a definition up in either catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Named values in catalogue order.
pub type Values = Vec<(&'static str, f64)>;

/// A float as JSON: all its digits, and never `NaN`/`inf` (not JSON).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and unit.
pub fn result_line(attempted: u64, failed: u64, values: &Values) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value)) in values.iter().enumerate() {
        let unit = def(name).map_or("", |d| d.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_algebra::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bytes = std::fs::read(path).expect("BENCHMARK.json at the repository root");
        proteus_plugins::json::parse_json_value(&bytes).expect("BENCHMARK.json parses")
    }

    fn listed(root: &Value, key: &str) -> Vec<(String, String, String)> {
        let field = |item: &Value, name: &str| {
            let record = item.as_record().unwrap();
            record.get(name).unwrap().as_str().unwrap().to_string()
        };
        root.as_record()
            .unwrap()
            .get(key)
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|item| {
                (
                    field(item, "name"),
                    field(item, "unit"),
                    field(item, "better"),
                )
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.better == Higher {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok) && d.name.len() <= 64, "{}", d.name);
            assert!(
                d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                d.name
            );
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                d.unit.chars().all(unit_ok) && d.unit.len() <= 16,
                "{}",
                d.unit
            );
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json_one_to_one() {
        let root = benchmark_json();
        assert_eq!(listed(&root, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&root, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = root
            .as_record()
            .unwrap()
            .get("workloads")
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|w| {
                w.as_record()
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &vec![("qps", 1.25), ("setup_s", 0.5)]);
        let parsed = proteus_plugins::json::parse_json_value(line.as_bytes()).unwrap();
        let record = parsed.as_record().unwrap();
        let keys: Vec<&str> = record.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(record.get("correct"), Some(&Value::Bool(true)));
        let qps = record
            .get("metrics")
            .unwrap()
            .as_record()
            .unwrap()
            .get("qps")
            .unwrap();
        assert_eq!(
            qps.as_record().unwrap().get("unit"),
            Some(&Value::Str("1/s".into()))
        );
        assert!(result_line(10, 1, &Vec::new()).contains("\"correct\": false"));
    }
}
