//! Shared benchmark harness: dataset setup, engine construction, the paper's
//! query templates and the table printer used by every `fig*` target.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use proteus_algebra::{Expr, JoinKind, LogicalPlan, Monoid, Path, ReduceSpec, Schema, Value};
use proteus_baselines::{BaselineEngine, ColumnStoreEngine, DocumentStoreEngine, RowStoreEngine};
use proteus_core::{EngineConfig, QueryEngine};
use proteus_datagen::tpch::{TpchGenerator, TpchScale};
use proteus_datagen::writers;

/// The systems compared in §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Proteus (generated engine, caching disabled unless stated).
    Proteus,
    /// PostgreSQL-like: interpreted row store, binary JSON.
    RowStoreBinaryJson,
    /// DBMS X-like: interpreted row store, character-encoded JSON.
    RowStoreTextJson,
    /// MonetDB-like: operator-at-a-time materializing column store.
    ColumnStore,
    /// DBMS C-like: sorted + dictionary column store with data skipping.
    SortedColumnStore,
    /// MongoDB-like document store.
    DocumentStore,
}

impl EngineKind {
    /// Display name used in the printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Proteus => "Proteus",
            EngineKind::RowStoreBinaryJson => "RowStore(jsonb)",
            EngineKind::RowStoreTextJson => "RowStore(text)",
            EngineKind::ColumnStore => "ColumnStore",
            EngineKind::SortedColumnStore => "SortedColumnStore",
            EngineKind::DocumentStore => "DocumentStore",
        }
    }

    /// The engines the paper includes in the JSON experiments.
    pub fn json_lineup() -> Vec<EngineKind> {
        vec![
            EngineKind::RowStoreBinaryJson,
            EngineKind::RowStoreTextJson,
            EngineKind::DocumentStore,
            EngineKind::Proteus,
        ]
    }

    /// The engines the paper includes in the binary-data experiments.
    pub fn binary_lineup() -> Vec<EngineKind> {
        vec![
            EngineKind::RowStoreBinaryJson,
            EngineKind::ColumnStore,
            EngineKind::SortedColumnStore,
            EngineKind::Proteus,
        ]
    }
}

/// The query templates of §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryTemplate {
    /// `SELECT AGG(...) FROM lineitem WHERE l_orderkey < X`.
    Projection {
        /// Number of aggregates (1 = COUNT, 2 = MAX, 4 = mixed).
        aggregates: usize,
    },
    /// `SELECT COUNT(*) FROM lineitem WHERE p1 AND ... AND pN`.
    Selection {
        /// Number of predicates (the first carries the selectivity knob).
        predicates: usize,
    },
    /// `SELECT AGG(o....) FROM orders JOIN lineitem ON orderkey WHERE l_orderkey < X`.
    Join {
        /// Number of aggregates (1 = COUNT, 2 = MAX, 3 = COUNT+MAX).
        aggregates: usize,
    },
    /// COUNT over unnested lineitem arrays of denormalized orders.
    Unnest,
    /// `SELECT AGG(...) FROM lineitem WHERE l_orderkey < X GROUP BY l_linenumber`.
    GroupBy {
        /// Number of aggregates.
        aggregates: usize,
    },
}

impl QueryTemplate {
    /// Human-readable column header.
    pub fn label(&self) -> String {
        match self {
            QueryTemplate::Projection { aggregates } => format!("proj-{aggregates}agg"),
            QueryTemplate::Selection { predicates } => format!("sel-{predicates}pred"),
            QueryTemplate::Join { aggregates } => format!("join-{aggregates}agg"),
            QueryTemplate::Unnest => "unnest".to_string(),
            QueryTemplate::GroupBy { aggregates } => format!("group-{aggregates}agg"),
        }
    }

    /// Builds the logical plan of this template for the given selectivity
    /// threshold on `l_orderkey`.
    pub fn plan(&self, threshold: i64) -> LogicalPlan {
        let lineitem = LogicalPlan::scan("lineitem", "l", Schema::empty());
        let orders = LogicalPlan::scan("orders", "o", Schema::empty());
        let key_filter = Expr::path("l.l_orderkey").lt(Expr::int(threshold));
        match self {
            QueryTemplate::Projection { aggregates } => {
                let outputs = projection_aggregates(*aggregates);
                lineitem.select(key_filter).reduce(outputs)
            }
            QueryTemplate::Selection { predicates } => {
                let mut conjuncts = vec![key_filter];
                let extra = [
                    Expr::path("l.l_quantity").lt(Expr::int(45)),
                    Expr::path("l.l_discount").lt(Expr::float(0.09)),
                    Expr::path("l.l_tax").lt(Expr::float(0.07)),
                ];
                for pred in extra.iter().take(predicates.saturating_sub(1)) {
                    conjuncts.push(pred.clone());
                }
                lineitem
                    .select(Expr::conjunction(conjuncts))
                    .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")])
            }
            QueryTemplate::Join { aggregates } => {
                let outputs = match aggregates {
                    1 => vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")],
                    2 => vec![ReduceSpec::new(
                        Monoid::Max,
                        Expr::path("o.o_totalprice"),
                        "max_total",
                    )],
                    _ => vec![
                        ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                        ReduceSpec::new(Monoid::Max, Expr::path("o.o_totalprice"), "max_total"),
                    ],
                };
                orders
                    .join(
                        lineitem,
                        Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                        JoinKind::Inner,
                    )
                    .select(key_filter)
                    .reduce(outputs)
            }
            QueryTemplate::Unnest => LogicalPlan::scan("orders_denorm", "o", Schema::empty())
                .select(Expr::path("o.o_orderkey").lt(Expr::int(threshold)))
                .unnest(Path::parse("o.lineitems"), "l")
                .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]),
            QueryTemplate::GroupBy { aggregates } => {
                let outputs = projection_aggregates(*aggregates);
                lineitem.select(key_filter).nest(
                    vec![Expr::path("l.l_linenumber")],
                    vec!["line".into()],
                    outputs,
                )
            }
        }
    }
}

fn projection_aggregates(count: usize) -> Vec<ReduceSpec> {
    let all = [
        ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
        ReduceSpec::new(Monoid::Max, Expr::path("l.l_quantity"), "max_qty"),
        ReduceSpec::new(Monoid::Sum, Expr::path("l.l_extendedprice"), "sum_price"),
        ReduceSpec::new(Monoid::Min, Expr::path("l.l_discount"), "min_disc"),
    ];
    match count {
        1 => all[..1].to_vec(),
        2 => all[1..2].to_vec(),
        n => all[..n.min(4)].to_vec(),
    }
}

/// Generated datasets + file layout shared by every figure.
pub struct BenchSetup {
    /// Directory holding the generated files.
    pub dir: PathBuf,
    /// Orders rows (in memory).
    pub orders: Vec<Value>,
    /// Lineitem rows (in memory).
    pub lineitems: Vec<Value>,
    /// Denormalized orders (lineitem arrays embedded).
    pub denormalized: Vec<Value>,
    /// Order count (the `l_orderkey` domain size, for selectivity knobs).
    pub order_count: usize,
}

impl BenchSetup {
    /// Generates the TPC-H subset at the given scale and writes every
    /// representation (JSON with shuffled field order, CSV, binary columns).
    pub fn tpch(scale: f64) -> BenchSetup {
        let scale = TpchScale::from_env(scale);
        let mut generator = TpchGenerator::new(scale);
        let (orders, lineitems) = generator.generate();
        let denormalized = TpchGenerator::denormalize(&orders, &lineitems);
        let dir = std::env::temp_dir().join(format!("proteus_bench_sf{}", scale.0));
        // One directory per scale, shared by every caller in the process —
        // tests run in parallel — and the generated data is a function of
        // the scale alone: the first caller writes the files under the
        // lock, later callers wait for it and reuse them, so nobody reads a
        // file somebody else is rewriting.
        static WRITTEN: std::sync::Mutex<Vec<std::path::PathBuf>> =
            std::sync::Mutex::new(Vec::new());
        let mut written = WRITTEN.lock().unwrap_or_else(|e| e.into_inner());
        if !written.contains(&dir) {
            std::fs::create_dir_all(&dir).unwrap();
            writers::write_json(dir.join("lineitem.json"), &lineitems, true).unwrap();
            writers::write_json(dir.join("orders.json"), &orders, true).unwrap();
            writers::write_json(dir.join("orders_denorm.json"), &denormalized, false).unwrap();
            writers::write_csv(
                dir.join("lineitem.csv"),
                &lineitems,
                &TpchGenerator::lineitem_schema(),
                '|',
            )
            .unwrap();
            writers::write_column_table(
                dir.join("lineitem_cols"),
                &lineitems,
                &TpchGenerator::lineitem_schema(),
            )
            .unwrap();
            writers::write_column_table(
                dir.join("orders_cols"),
                &orders,
                &TpchGenerator::orders_schema(),
            )
            .unwrap();
            written.push(dir.clone());
        }
        drop(written);

        BenchSetup {
            dir,
            order_count: orders.len(),
            orders,
            lineitems,
            denormalized,
        }
    }

    /// The `l_orderkey < X` literal for a selectivity percentage.
    pub fn threshold(&self, selectivity_pct: u32) -> i64 {
        ((self.order_count as f64) * (selectivity_pct as f64 / 100.0)).ceil() as i64
    }

    /// Input rows a template actually scans (the denominator for the
    /// `rows_per_sec` column of the emitted `BENCH_*.json` reports).
    pub fn input_rows(&self, template: &QueryTemplate) -> usize {
        match template {
            QueryTemplate::Unnest => self.denormalized.len(),
            QueryTemplate::Join { .. } => self.orders.len() + self.lineitems.len(),
            _ => self.lineitems.len(),
        }
    }

    /// A Proteus engine over the JSON representation.
    pub fn proteus_json(&self, caching: bool) -> QueryEngine {
        let config = if caching {
            EngineConfig::default()
        } else {
            EngineConfig::without_caching()
        };
        let engine = QueryEngine::new(config);
        engine
            .register_json("lineitem", self.dir.join("lineitem.json"))
            .unwrap();
        engine
            .register_json("orders", self.dir.join("orders.json"))
            .unwrap();
        engine
            .register_json("orders_denorm", self.dir.join("orders_denorm.json"))
            .unwrap();
        engine
    }

    /// A Proteus engine over the binary column representation.
    pub fn proteus_binary(&self) -> QueryEngine {
        let engine = QueryEngine::new(EngineConfig::without_caching());
        engine
            .register_columns("lineitem", self.dir.join("lineitem_cols"))
            .unwrap();
        engine
            .register_columns("orders", self.dir.join("orders_cols"))
            .unwrap();
        engine
    }

    /// Builds and loads a baseline engine over either the JSON or the binary
    /// representation of the same data.
    pub fn baseline(&self, kind: EngineKind, json: bool) -> Box<dyn BaselineEngine> {
        let lineitem_json = std::fs::read(self.dir.join("lineitem.json")).unwrap();
        let orders_json = std::fs::read(self.dir.join("orders.json")).unwrap();
        let denorm_json = std::fs::read(self.dir.join("orders_denorm.json")).unwrap();
        match kind {
            EngineKind::Proteus => unreachable!("Proteus is not a baseline"),
            EngineKind::RowStoreBinaryJson | EngineKind::RowStoreTextJson => {
                let mut engine = if kind == EngineKind::RowStoreBinaryJson {
                    RowStoreEngine::postgres_like()
                } else {
                    RowStoreEngine::dbms_x_like()
                };
                if json {
                    engine.load_json("lineitem", &lineitem_json).unwrap();
                    engine.load_json("orders", &orders_json).unwrap();
                    engine.load_json("orders_denorm", &denorm_json).unwrap();
                } else {
                    engine.load("lineitem", self.lineitems.clone());
                    engine.load("orders", self.orders.clone());
                }
                Box::new(engine)
            }
            EngineKind::ColumnStore | EngineKind::SortedColumnStore => {
                let mut engine = if kind == EngineKind::ColumnStore {
                    ColumnStoreEngine::monetdb_like()
                } else {
                    ColumnStoreEngine::dbms_c_like()
                };
                if json {
                    engine.mark_json("lineitem");
                    engine.mark_json("orders");
                }
                engine.load_with_sort_key("lineitem", self.lineitems.clone(), Some("l_orderkey"));
                engine.load_with_sort_key("orders", self.orders.clone(), Some("o_orderkey"));
                Box::new(engine)
            }
            EngineKind::DocumentStore => {
                let mut engine = DocumentStoreEngine::new();
                engine.load_json("lineitem", &lineitem_json).unwrap();
                engine.load_json("orders", &orders_json).unwrap();
                engine.load_json("orders_denorm", &denorm_json).unwrap();
                Box::new(engine)
            }
        }
    }
}

/// Times one plan on one engine, returning (duration, COUNT-style checksum).
pub fn time_engine(
    kind: EngineKind,
    setup: &BenchSetup,
    plan: &LogicalPlan,
    json: bool,
) -> (Duration, f64) {
    match kind {
        EngineKind::Proteus => {
            let engine = if json {
                setup.proteus_json(false)
            } else {
                setup.proteus_binary()
            };
            let start = Instant::now();
            let result = engine
                .execute_plan(plan.clone())
                .expect("proteus query failed");
            (start.elapsed(), checksum(&result.rows))
        }
        other => {
            let engine = setup.baseline(other, json);
            let start = Instant::now();
            let rows = engine.execute(plan).expect("baseline query failed");
            (start.elapsed(), checksum(&rows))
        }
    }
}

/// A stable scalar checksum of the output rows used to verify all engines
/// agree before their timings are compared. Floating-point aggregates are
/// summed in whatever order the engine produced them, so equality is checked
/// with a small relative tolerance (see [`checksums_agree`]).
pub fn checksum(rows: &[Value]) -> f64 {
    let mut total = 0.0f64;
    for row in rows {
        if let Ok(record) = row.as_record() {
            for (_, value) in record.iter() {
                match value {
                    Value::Int(i) => total += *i as f64,
                    Value::Float(f) => total += *f,
                    _ => {}
                }
            }
        }
    }
    total
}

/// True when two checksums agree up to floating-point summation-order noise.
pub fn checksums_agree(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-6 * scale
}

/// One measured data point of a figure, serialized into the `BENCH_*.json`
/// reports so the performance trajectory is machine-trackable across PRs.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Engine label.
    pub engine: String,
    /// Query template label.
    pub template: String,
    /// Selectivity knob (percent of the key domain).
    pub selectivity_pct: u32,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Input tuples per second (lineitem rows / elapsed).
    pub rows_per_sec: f64,
}

/// Writes a figure's data points as `BENCH_<slug>.json` in
/// `PROTEUS_BENCH_DIR` (default: the workspace root, so every bench target
/// and bin writes to one stable location regardless of its CWD). Plain
/// hand-rolled JSON — the environment is offline, and the schema is four
/// scalars per row.
///
/// Every report carries a `host` block — CPU count, the `PROTEUS_THREADS`
/// override (or `null`), and the measurement `interleaving` scheme — so a
/// number read months later can be judged against the machine and
/// methodology that produced it. `interleaving` describes how the compared
/// engines' repetitions were ordered in time: back-to-back blocks are
/// vulnerable to frequency/thermal drift between blocks, per-rep
/// alternation is not.
pub fn emit_bench_json(title: &str, dataset_rows: usize, interleaving: &str, rows: &[BenchRow]) {
    fn json_escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }

    let slug: String = title
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    // crates/bench/ -> workspace root is two levels up.
    let dir = std::env::var("PROTEUS_BENCH_DIR").unwrap_or_else(|_| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|| ".".to_string())
    });
    let path = std::path::Path::new(&dir).join(format!("BENCH_{slug}.json"));
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let proteus_threads = match std::env::var("PROTEUS_THREADS") {
        Ok(v) => format!("\"{}\"", json_escape(&v)),
        Err(_) => "null".to_string(),
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"title\": \"{}\",\n", json_escape(title)));
    out.push_str(&format!("  \"dataset_rows\": {dataset_rows},\n"));
    out.push_str(&format!(
        "  \"host\": {{\"cpus\": {cpus}, \"proteus_threads\": {proteus_threads}, \"interleaving\": \"{}\"}},\n",
        json_escape(interleaving)
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"template\": \"{}\", \"selectivity_pct\": {}, \"millis\": {:.4}, \"rows_per_sec\": {:.1}}}{}\n",
            json_escape(&row.engine),
            json_escape(&row.template),
            row.selectivity_pct,
            row.millis,
            row.rows_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(error) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {error}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// Runs one full figure: every engine × template × selectivity, printing the
/// same series the paper plots, asserting cross-engine agreement, and
/// emitting a machine-readable `BENCH_<figure>.json` report.
pub fn run_figure(
    title: &str,
    templates: &[QueryTemplate],
    engines: &[EngineKind],
    json: bool,
    selectivities: &[u32],
) {
    let setup = BenchSetup::tpch(default_scale());
    println!(
        "\n=== {title} (orders={}, lineitems={}) ===",
        setup.orders.len(),
        setup.lineitems.len()
    );
    let mut header = format!("{:<20}", "engine");
    for template in templates {
        for pct in selectivities {
            header.push_str(&format!("{:>18}", format!("{}@{}%", template.label(), pct)));
        }
    }
    println!("{header}");
    let mut report: Vec<BenchRow> = Vec::new();
    for kind in engines {
        let mut line = format!("{:<20}", kind.label());
        for template in templates {
            for pct in selectivities {
                let plan = template.plan(setup.threshold(*pct));
                // Skip join templates on the document store exactly as the
                // paper only reports its first join variant ("we only list
                // its results for the first query as an indication").
                if *kind == EngineKind::DocumentStore
                    && matches!(template, QueryTemplate::Join { aggregates } if *aggregates > 1)
                {
                    line.push_str(&format!("{:>18}", "-"));
                    continue;
                }
                let (elapsed, sum) = time_engine(*kind, &setup, &plan, json);
                let reference = time_engine(EngineKind::Proteus, &setup, &plan, json).1;
                assert!(
                    checksums_agree(sum, reference),
                    "{} disagrees with Proteus on {} @ {}%: {} vs {}",
                    kind.label(),
                    template.label(),
                    pct,
                    sum,
                    reference
                );
                line.push_str(&format!("{:>15.2} ms", elapsed.as_secs_f64() * 1e3));
                report.push(BenchRow {
                    engine: kind.label().to_string(),
                    template: template.label(),
                    selectivity_pct: *pct,
                    millis: elapsed.as_secs_f64() * 1e3,
                    rows_per_sec: setup.input_rows(template) as f64
                        / elapsed.as_secs_f64().max(1e-9),
                });
            }
        }
        println!("{line}");
    }
    emit_bench_json(
        title,
        setup.lineitems.len(),
        "per-engine blocks (each engine runs all templates before the next)",
        &report,
    );
}

/// Default scale for bench targets (kept small so `cargo bench` is quick);
/// override with `PROTEUS_SF`.
pub fn default_scale() -> f64 {
    0.2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_produce_expected_plan_shapes() {
        let plan = QueryTemplate::Projection { aggregates: 4 }.plan(10);
        assert_eq!(plan.name(), "Reduce");
        let plan = QueryTemplate::GroupBy { aggregates: 1 }.plan(10);
        assert_eq!(plan.name(), "Nest");
        let plan = QueryTemplate::Join { aggregates: 3 }.plan(10);
        let mut joins = 0;
        plan.visit(&mut |n| {
            if matches!(n, LogicalPlan::Join { .. }) {
                joins += 1;
            }
        });
        assert_eq!(joins, 1);
        let plan = QueryTemplate::Unnest.plan(10);
        let mut unnests = 0;
        plan.visit(&mut |n| {
            if matches!(n, LogicalPlan::Unnest { .. }) {
                unnests += 1;
            }
        });
        assert_eq!(unnests, 1);
    }

    #[test]
    fn all_engines_agree_on_a_projection_query() {
        let setup = BenchSetup::tpch(0.02);
        let plan = QueryTemplate::Projection { aggregates: 1 }.plan(setup.threshold(50));
        let expected = time_engine(EngineKind::Proteus, &setup, &plan, true).1;
        for kind in EngineKind::json_lineup() {
            if kind == EngineKind::Proteus {
                continue;
            }
            assert_eq!(
                time_engine(kind, &setup, &plan, true).1,
                expected,
                "{:?}",
                kind
            );
        }
        for kind in EngineKind::binary_lineup() {
            if kind == EngineKind::Proteus {
                continue;
            }
            assert_eq!(
                time_engine(kind, &setup, &plan, false).1,
                expected,
                "{:?}",
                kind
            );
        }
    }

    #[test]
    fn thresholds_track_selectivity() {
        let setup = BenchSetup::tpch(0.02);
        assert!(setup.threshold(10) < setup.threshold(100));
        assert_eq!(setup.threshold(100), setup.order_count as i64);
    }
}
