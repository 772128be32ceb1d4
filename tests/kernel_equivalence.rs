//! Property tests for the vectorized predicate kernels at the engine level:
//! across the fig05–fig12 predicate shapes over binary-column, JSON and CSV
//! representations, a vectorized engine (kernels on, the default) must
//! return exactly the rows of a closure-only engine (`vectorized: false`)
//! and of the reference interpreter — and the metrics must prove the
//! kernels actually ran (`kernel_rows > 0`, zero per-tuple allocations).
//!
//! Offline build: the properties run over a deterministic seed sweep
//! (failing seeds are in the assertion messages), like the other
//! equivalence suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use proteus::datagen::writers;
use proteus::plugins::binary::ColumnPlugin;
use proteus::prelude::*;
use proteus::storage::ColumnData;

const CASES: u64 = 16;

fn random_rows(rng: &mut StdRng) -> Vec<(i64, f64, String)> {
    let len = rng.gen_range(1usize..80);
    (0..len)
        .map(|_| {
            let k = rng.gen_range(0i64..50);
            let q = (rng.gen_range(0.0..100.0) * 4.0f64).round() / 4.0;
            let words = ["", "fox", "quick fox", "lazy dog", "zebra"];
            let c = words[rng.gen_range(0usize..words.len())].to_string();
            (k, q, c)
        })
        .collect()
}

fn to_records(rows: &[(i64, f64, String)]) -> Vec<Value> {
    rows.iter()
        .map(|(k, q, c)| {
            Value::record(vec![
                ("k", Value::Int(*k)),
                ("q", Value::Float(*q)),
                ("c", Value::Str(c.clone())),
            ])
        })
        .collect()
}

fn schema() -> Schema {
    Schema::from_pairs(vec![
        ("k", DataType::Int),
        ("q", DataType::Float),
        ("c", DataType::String),
    ])
}

/// The join build side: keys overlapping (and overshooting) `t.k`'s range,
/// a float payload, and a string key column for string/multi-key joins.
fn random_build_rows(rng: &mut StdRng) -> Vec<(i64, f64, String)> {
    let len = rng.gen_range(1usize..40);
    (0..len)
        .map(|_| {
            let ok = rng.gen_range(-5i64..55);
            let ov = (rng.gen_range(0.0..50.0) * 2.0f64).round() / 2.0;
            let words = ["", "fox", "quick fox", "lazy dog", "zebra", "nope"];
            let oc = words[rng.gen_range(0usize..words.len())].to_string();
            (ok, ov, oc)
        })
        .collect()
}

fn build_to_records(rows: &[(i64, f64, String)]) -> Vec<Value> {
    rows.iter()
        .map(|(ok, ov, oc)| {
            Value::record(vec![
                ("ok", Value::Int(*ok)),
                ("ov", Value::Float(*ov)),
                ("oc", Value::Str(oc.clone())),
            ])
        })
        .collect()
}

fn build_schema() -> Schema {
    Schema::from_pairs(vec![
        ("ok", DataType::Int),
        ("ov", DataType::Float),
        ("oc", DataType::String),
    ])
}

/// Join shapes over build side `o` (the plan's left input) and probe side
/// `t`: inner and left-outer kinds, typed single/multi/string keys, residual
/// conjuncts, aggregating and collecting sinks.
fn join_plans_for(pred: Expr) -> Vec<LogicalPlan> {
    let t = || LogicalPlan::scan("t", "t", Schema::empty());
    let o = || LogicalPlan::scan("o", "o", Schema::empty());
    let on = || Expr::path("o.ok").eq(Expr::path("t.k"));
    let count =
        |plan: LogicalPlan| plan.reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
    vec![
        // Inner join under a probe-side selection → count (nothing is live:
        // the fully-kernel path materializes no Value at all).
        count(o().join(t().select(pred.clone()), on(), JoinKind::Inner)),
        // Aggregates reading live columns from both sides.
        o().join(t(), on(), JoinKind::Inner).reduce(vec![
            ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
            ReduceSpec::new(Monoid::Max, Expr::path("o.ov"), "maxv"),
            ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
        ]),
        // Equi-keys plus a non-equi residual conjunct.
        count(o().join(
            t(),
            on().and(Expr::path("o.ov").lt(Expr::path("t.q"))),
            JoinKind::Inner,
        )),
        // Left outer: unmatched build rows pad the probe side with nulls.
        o().join(t().select(pred.clone()), on(), JoinKind::LeftOuter)
            .reduce(vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
            ]),
        // Group-by over the join output.
        o().join(t(), on(), JoinKind::Inner).nest(
            vec![Expr::path("t.k")],
            vec!["key".into()],
            vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Sum, Expr::path("o.ov"), "total"),
            ],
        ),
        // Multi-key equi-join (int + string components).
        count(o().join(
            t(),
            on().and(Expr::path("o.oc").eq(Expr::path("t.c"))),
            JoinKind::Inner,
        )),
        // String-key join.
        count(o().join(
            t(),
            Expr::path("o.oc").eq(Expr::path("t.c")),
            JoinKind::Inner,
        )),
        // Collect the joined rows (row order must match exactly).
        o().join(t().select(pred.clone()), on(), JoinKind::Inner),
        // Left-outer collect (null-padded tails included).
        o().join(t().select(pred), on(), JoinKind::LeftOuter),
    ]
}

/// The fig05–fig12 selection shapes: threshold selections (fig07/fig08),
/// multi-predicate conjunctions, computed predicates (fig05-style
/// expressions), string predicates, and group-bys under a selection
/// (fig11/fig12).
fn predicate_shapes(rng: &mut StdRng) -> Vec<Expr> {
    let t = rng.gen_range(0i64..55);
    let f = rng.gen_range(0.0f64..100.0);
    vec![
        Expr::path("t.k").lt(Expr::int(t)),
        Expr::path("t.k")
            .lt(Expr::int(t))
            .and(Expr::path("t.q").lt(Expr::float(f))),
        Expr::path("t.k")
            .lt(Expr::int(t))
            .and(Expr::path("t.q").gt(Expr::float(10.0)))
            .and(Expr::path("t.q").lt(Expr::float(90.0))),
        Expr::binary(
            proteus::algebra::BinaryOp::Mul,
            Expr::path("t.k"),
            Expr::int(2),
        )
        .lt(Expr::int(t)),
        Expr::path("t.c").eq(Expr::string("fox")),
        Expr::Contains {
            expr: Box::new(Expr::path("t.c")),
            needle: "ox".into(),
        },
        Expr::path("t.k")
            .gt(Expr::int(t))
            .or(Expr::path("t.q").lt(Expr::float(f))),
        // Mixed: kernel-eligible + closure-fallback conjuncts in one select.
        Expr::path("t.k").lt(Expr::int(t)).and(
            Expr::binary(
                proteus::algebra::BinaryOp::Mod,
                Expr::path("t.k"),
                Expr::int(3),
            )
            .eq(Expr::int(0)),
        ),
    ]
}

fn plans_for(pred: Expr) -> Vec<LogicalPlan> {
    let scan = || LogicalPlan::scan("t", "t", Schema::empty());
    vec![
        // fig07/08-style selection → count.
        scan().select(pred.clone()).reduce(vec![ReduceSpec::new(
            Monoid::Count,
            Expr::int(1),
            "cnt",
        )]),
        // fig05/06-style aggregates over the selection.
        scan().select(pred.clone()).reduce(vec![
            ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
            ReduceSpec::new(Monoid::Max, Expr::path("t.k"), "maxk"),
        ]),
        // The full scalar-monoid spread (vectorized aggregate kernels),
        // including a computed input and a closure-fallback division spec.
        scan().select(pred.clone()).reduce(vec![
            ReduceSpec::new(Monoid::Avg, Expr::path("t.q"), "avgq"),
            ReduceSpec::new(Monoid::Min, Expr::path("t.k"), "mink"),
            ReduceSpec::new(
                Monoid::Max,
                Expr::binary(
                    proteus::algebra::BinaryOp::Add,
                    Expr::path("t.q"),
                    Expr::path("t.k"),
                ),
                "maxqk",
            ),
            ReduceSpec::new(
                Monoid::Sum,
                Expr::binary(
                    proteus::algebra::BinaryOp::Div,
                    Expr::path("t.q"),
                    Expr::float(2.0),
                ),
                "halves",
            ),
        ]),
        // Boolean monoids over predicate-shaped inputs.
        scan().reduce(vec![
            ReduceSpec::new(Monoid::And, pred.clone(), "every"),
            ReduceSpec::new(Monoid::Or, pred.clone(), "some"),
            ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
        ]),
        // Reduce-level predicate (`SUM(x) WHERE p` folds into the kernel
        // mask pass).
        LogicalPlan::Reduce {
            input: Box::new(scan()),
            outputs: vec![
                ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ],
            predicate: Some(pred.clone()),
        },
        // fig11/12-style group-by under the selection.
        scan().select(pred.clone()).nest(
            vec![Expr::path("t.k")],
            vec!["key".into()],
            vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")],
        ),
        // Multi-key group-by (typed key ingest) with kernel aggregates.
        scan().select(pred.clone()).nest(
            vec![Expr::path("t.k"), Expr::path("t.c")],
            vec!["key".into(), "word".into()],
            vec![
                ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
                ReduceSpec::new(Monoid::Avg, Expr::path("t.q"), "avgq"),
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ],
        ),
        // Collection monoids (closure specs, parallel-safe tagged merge).
        scan().select(pred.clone()).reduce(vec![
            ReduceSpec::new(Monoid::List, Expr::path("t.k"), "all"),
            ReduceSpec::new(Monoid::Set, Expr::path("t.c"), "words"),
        ]),
        // Projection (collect) of the surviving rows.
        scan().select(pred),
    ]
}

fn reference(rows: &[Value], plan: &LogicalPlan) -> Vec<Value> {
    let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
    catalog.register("t", rows.to_vec());
    proteus::algebra::interp::execute(plan, &catalog).unwrap()
}

/// `records` as a CSV scan reads them back: an empty string field is null.
fn empty_strings_as_null(records: &[Value]) -> Vec<Value> {
    records
        .iter()
        .map(|row| {
            Value::record(
                row.as_record()
                    .unwrap()
                    .iter()
                    .map(|(field, v)| match v {
                        Value::Str(s) if s.is_empty() => (field, Value::Null),
                        _ => (field, v.clone()),
                    })
                    .collect(),
            )
        })
        .collect()
}

fn join_reference(probe: &[Value], build: &[Value], plan: &LogicalPlan) -> Vec<Value> {
    let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
    catalog.register("t", probe.to_vec());
    catalog.register("o", build.to_vec());
    proteus::algebra::interp::execute(plan, &catalog).unwrap()
}

/// Vectorized vs closure-only engines over a join plan: identical rows,
/// aggregating plans also checked against the reference interpreter, and
/// the metrics prove which key tier ran — the closure engine must extract
/// every key through compiled closures, the vectorized engine must hash and
/// compare every key straight from the typed columns (every key in
/// [`join_plans_for`] is a direct path to a typed scan slot).
fn join_engines_agree(
    vectorized: &QueryEngine,
    closures: &QueryEngine,
    probe_records: &[Value],
    build_records: &[Value],
    plan: &LogicalPlan,
    label: &str,
) {
    let plan = proteus::algebra::rewrite::rewrite(plan.clone());
    let fast = vectorized.execute_plan(plan.clone()).unwrap();
    let slow = closures.execute_plan(plan.clone()).unwrap();
    assert_eq!(fast.rows, slow.rows, "{label}: kernel vs closure join rows");
    if matches!(plan, LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. }) {
        let mut got = fast.rows.clone();
        let mut expected = join_reference(probe_records, build_records, &plan);
        got.sort_by(|a, b| a.total_cmp(b));
        expected.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(got, expected, "{label}: kernel vs interpreter join rows");
    }
    assert_eq!(
        slow.metrics.join_kernel_rows, 0,
        "{label}: closure engine must not engage join kernels"
    );
    assert!(
        slow.metrics.join_fallback_rows > 0,
        "{label}: closure engine reported no fallback key rows (metrics: {})",
        slow.metrics
    );
    assert!(
        fast.metrics.join_kernel_rows > 0,
        "{label}: join kernels were not engaged (metrics: {})",
        fast.metrics
    );
    assert_eq!(
        fast.metrics.join_fallback_rows, 0,
        "{label}: typed-key join unexpectedly fell back (metrics: {})",
        fast.metrics
    );
}

fn engines_agree(
    vectorized: &QueryEngine,
    closures: &QueryEngine,
    records: &[Value],
    plan: &LogicalPlan,
    expect_kernels: bool,
    label: &str,
) {
    let plan = proteus::algebra::rewrite::rewrite(plan.clone());
    let fast = vectorized.execute_plan(plan.clone()).unwrap();
    let slow = closures.execute_plan(plan.clone()).unwrap();
    assert_eq!(fast.rows, slow.rows, "{label}: kernel vs closure rows");
    // Aggregating plans are also checked against the reference interpreter
    // (order-insensitively: group-by row order is engine-defined). Bare
    // collects only compare engine-vs-engine — the interpreter renders
    // bindings as nested records, a representation difference that predates
    // the kernels.
    if matches!(plan, LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. }) {
        let mut got = fast.rows.clone();
        let mut expected = reference(records, &plan);
        got.sort_by(|a, b| a.total_cmp(b));
        expected.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(got, expected, "{label}: kernel vs interpreter rows");
    }
    assert_eq!(
        slow.metrics.kernel_rows, 0,
        "{label}: closure engine must not engage kernels"
    );
    fn has_select(plan: &LogicalPlan) -> bool {
        matches!(plan, LogicalPlan::Select { .. }) || plan.children().iter().any(|c| has_select(c))
    }
    if expect_kernels && has_select(&plan) {
        assert!(
            fast.metrics.kernel_rows > 0,
            "{label}: kernels were not engaged (metrics: {})",
            fast.metrics
        );
    }
    assert_eq!(
        slow.metrics.agg_kernel_rows, 0,
        "{label}: closure engine must not engage aggregate kernels"
    );
    // Whenever the vectorized engine moved output specs off the closure
    // fold, the aggregate kernels must report the folded rows.
    if fast.metrics.agg_fallback_rows < slow.metrics.agg_fallback_rows {
        assert!(
            fast.metrics.agg_kernel_rows > 0,
            "{label}: aggregate kernels were not engaged (metrics: {})",
            fast.metrics
        );
    }
    assert_eq!(
        fast.metrics.binding_allocs, slow.metrics.binding_allocs,
        "{label}: vectorized path changed per-tuple allocation behavior"
    );
}

#[test]
fn kernels_equal_closures_over_binary_columns() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED + seed);
        let rows = random_rows(&mut rng);
        let records = to_records(&rows);
        let plugin = ColumnPlugin::from_pairs(
            "t",
            vec![
                (
                    "k".to_string(),
                    ColumnData::Int(rows.iter().map(|(k, _, _)| *k).collect()),
                ),
                (
                    "q".to_string(),
                    ColumnData::Float(rows.iter().map(|(_, q, _)| *q).collect()),
                ),
                (
                    "c".to_string(),
                    ColumnData::Str(rows.iter().map(|(_, _, c)| c.clone()).collect()),
                ),
            ],
        )
        .unwrap();
        // Morsel skipping off: this suite asserts the compare kernels engage
        // on every predicate shape, and a single-morsel scan is routinely
        // provably empty/full for a random threshold (zone maps would
        // legitimately bypass the kernels). Skip-on equivalence is covered
        // by tests/zone_map_skipping.rs.
        let vectorized =
            QueryEngine::new(EngineConfig::without_caching().with_morsel_skipping(false));
        let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
        vectorized.register_plugin(std::sync::Arc::new(plugin.clone()));
        closures.register_plugin(std::sync::Arc::new(plugin));

        for (pi, pred) in predicate_shapes(&mut rng).into_iter().enumerate() {
            for (qi, plan) in plans_for(pred).into_iter().enumerate() {
                engines_agree(
                    &vectorized,
                    &closures,
                    &records,
                    &plan,
                    true,
                    &format!("binary seed {seed} pred {pi} plan {qi}"),
                );
            }
        }
    }
}

#[test]
fn kernels_equal_closures_over_json_and_csv() {
    let dir = std::env::temp_dir().join(format!("proteus_kernel_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(0xF11E + seed);
        let rows = random_rows(&mut rng);
        let records = to_records(&rows);

        let json_path = dir.join(format!("t_{seed}.json"));
        writers::write_json(&json_path, &records, true).unwrap();
        let csv_path = dir.join(format!("t_{seed}.csv"));
        writers::write_csv(&csv_path, &records, &schema(), '|').unwrap();

        // CSV cannot tell an empty string from a missing value: an empty
        // field reads as null on every path, so that is the reference too.
        let csv_records: Vec<Value> = records
            .iter()
            .map(|record| match record {
                Value::Record(rec) => Value::record(
                    rec.iter()
                        .map(|(name, v)| match v {
                            Value::Str(s) if s.is_empty() => (name, Value::Null),
                            v => (name, v.clone()),
                        })
                        .collect(),
                ),
                other => other.clone(),
            })
            .collect();
        for format in ["json", "csv"] {
            let records = if format == "csv" {
                &csv_records
            } else {
                &records
            };
            // Skipping off for the same reason as the binary suite above.
            let vectorized =
                QueryEngine::new(EngineConfig::without_caching().with_morsel_skipping(false));
            let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
            for engine in [&vectorized, &closures] {
                if format == "json" {
                    engine.register_json("t", &json_path).unwrap();
                } else {
                    engine
                        .register_csv("t", &csv_path, schema(), CsvOptions::default())
                        .unwrap();
                }
            }
            for (pi, pred) in predicate_shapes(&mut rng).into_iter().enumerate() {
                for (qi, plan) in plans_for(pred).into_iter().enumerate() {
                    engines_agree(
                        &vectorized,
                        &closures,
                        records,
                        &plan,
                        true,
                        &format!("{format} seed {seed} pred {pi} plan {qi}"),
                    );
                }
            }
        }
    }
}

#[test]
fn kernels_survive_parallel_execution() {
    // Multi-morsel data so parallel workers genuinely run the kernel path.
    let rows = 8 * 1024_i64;
    let plugin = ColumnPlugin::from_pairs(
        "t",
        vec![
            (
                "k".to_string(),
                ColumnData::Int((0..rows).map(|i| i % 500).collect()),
            ),
            (
                "q".to_string(),
                ColumnData::Float((0..rows).map(|i| (i % 97) as f64).collect()),
            ),
        ],
    )
    .unwrap();
    let serial = QueryEngine::new(EngineConfig::without_caching());
    let parallel = QueryEngine::new(EngineConfig::without_caching().with_parallelism(4));
    serial.register_plugin(std::sync::Arc::new(plugin.clone()));
    parallel.register_plugin(std::sync::Arc::new(plugin));

    let plan = proteus::algebra::rewrite::rewrite(
        LogicalPlan::scan("t", "t", Schema::empty())
            .select(
                Expr::path("t.k")
                    .lt(Expr::int(250))
                    .and(Expr::path("t.q").lt(Expr::float(48.0))),
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]),
    );
    let a = serial.execute_plan(plan.clone()).unwrap();
    let b = parallel.execute_plan(plan).unwrap();
    assert_eq!(a.rows, b.rows);
    assert!(a.metrics.kernel_rows == rows as u64);
    assert!(b.metrics.kernel_rows == rows as u64);
    assert!(b.metrics.threads_used > 1);
    assert_eq!(a.metrics.binding_allocs, 0);
    assert_eq!(b.metrics.binding_allocs, 0);
}

fn build_plugin(rows: &[(i64, f64, String)]) -> ColumnPlugin {
    ColumnPlugin::from_pairs(
        "o",
        vec![
            (
                "ok".to_string(),
                ColumnData::Int(rows.iter().map(|(ok, _, _)| *ok).collect()),
            ),
            (
                "ov".to_string(),
                ColumnData::Float(rows.iter().map(|(_, ov, _)| *ov).collect()),
            ),
            (
                "oc".to_string(),
                ColumnData::Str(rows.iter().map(|(_, _, oc)| oc.clone()).collect()),
            ),
        ],
    )
    .unwrap()
}

fn probe_plugin(rows: &[(i64, f64, String)]) -> ColumnPlugin {
    ColumnPlugin::from_pairs(
        "t",
        vec![
            (
                "k".to_string(),
                ColumnData::Int(rows.iter().map(|(k, _, _)| *k).collect()),
            ),
            (
                "q".to_string(),
                ColumnData::Float(rows.iter().map(|(_, q, _)| *q).collect()),
            ),
            (
                "c".to_string(),
                ColumnData::Str(rows.iter().map(|(_, _, c)| c.clone()).collect()),
            ),
        ],
    )
    .unwrap()
}

#[test]
fn join_kernels_equal_closures_over_binary_columns() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x10_1F + seed);
        let probe_rows = random_rows(&mut rng);
        let build_rows = random_build_rows(&mut rng);
        let probe_records = to_records(&probe_rows);
        let build_records = build_to_records(&build_rows);

        // Skipping off: a random threshold below the join can prove a whole
        // single-morsel side empty, zeroing the join-kernel counters this
        // suite asserts on.
        let vectorized =
            QueryEngine::new(EngineConfig::without_caching().with_morsel_skipping(false));
        let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
        for engine in [&vectorized, &closures] {
            engine.register_plugin(std::sync::Arc::new(probe_plugin(&probe_rows)));
            engine.register_plugin(std::sync::Arc::new(build_plugin(&build_rows)));
        }

        for (pi, pred) in predicate_shapes(&mut rng).into_iter().enumerate() {
            for (qi, plan) in join_plans_for(pred).into_iter().enumerate() {
                join_engines_agree(
                    &vectorized,
                    &closures,
                    &probe_records,
                    &build_records,
                    &plan,
                    &format!("binary join seed {seed} pred {pi} plan {qi}"),
                );
            }
        }
    }
}

#[test]
fn join_kernels_equal_closures_over_json_and_csv() {
    let dir = std::env::temp_dir().join(format!("proteus_join_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for seed in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(0x20_1F + seed);
        let probe_rows = random_rows(&mut rng);
        let build_rows = random_build_rows(&mut rng);
        let probe_records = to_records(&probe_rows);
        let build_records = build_to_records(&build_rows);

        let t_json = dir.join(format!("t_{seed}.json"));
        writers::write_json(&t_json, &probe_records, true).unwrap();
        let o_json = dir.join(format!("o_{seed}.json"));
        writers::write_json(&o_json, &build_records, true).unwrap();
        let t_csv = dir.join(format!("t_{seed}.csv"));
        writers::write_csv(&t_csv, &probe_records, &schema(), '|').unwrap();
        let o_csv = dir.join(format!("o_{seed}.csv"));
        writers::write_csv(&o_csv, &build_records, &build_schema(), '|').unwrap();

        for format in ["json", "csv"] {
            // Skipping off for the same reason as the binary join suite.
            let vectorized =
                QueryEngine::new(EngineConfig::without_caching().with_morsel_skipping(false));
            let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
            for engine in [&vectorized, &closures] {
                if format == "json" {
                    engine.register_json("t", &t_json).unwrap();
                    engine.register_json("o", &o_json).unwrap();
                } else {
                    engine
                        .register_csv("t", &t_csv, schema(), CsvOptions::default())
                        .unwrap();
                    engine
                        .register_csv("o", &o_csv, build_schema(), CsvOptions::default())
                        .unwrap();
                }
            }
            // CSV reads an empty string field as null (and a null key joins
            // nothing), so the reference sees the generated records that way.
            let (probe_read, build_read) = if format == "json" {
                (probe_records.clone(), build_records.clone())
            } else {
                (
                    empty_strings_as_null(&probe_records),
                    empty_strings_as_null(&build_records),
                )
            };
            for (pi, pred) in predicate_shapes(&mut rng).into_iter().enumerate() {
                for (qi, plan) in join_plans_for(pred).into_iter().enumerate() {
                    join_engines_agree(
                        &vectorized,
                        &closures,
                        &probe_read,
                        &build_read,
                        &plan,
                        &format!("{format} join seed {seed} pred {pi} plan {qi}"),
                    );
                }
            }
        }
    }
}

#[test]
fn join_fallback_split_agrees_with_closures() {
    // Nested joins: the outer probe side is itself a join output. Keyed on
    // the inner probe side's `t.k`, the outer probe reads typed key lanes
    // from that output, so every join runs on the kernel tier. Keyed on the
    // inner build side's string `o.oc` — which the build store keeps as
    // `Value`s — the outer probe falls back to closure extraction while the
    // inner join and the outer build stay typed: both tiers run inside one
    // plan. Either way the engines and the interpreter must agree.
    let mut rng = StdRng::seed_from_u64(0x5111);
    let probe_rows = random_rows(&mut rng);
    let build_rows = random_build_rows(&mut rng);
    let probe_records = to_records(&probe_rows);
    let build_records = build_to_records(&build_rows);

    let vectorized = QueryEngine::new(EngineConfig::without_caching());
    let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
    for engine in [&vectorized, &closures] {
        engine.register_plugin(std::sync::Arc::new(probe_plugin(&probe_rows)));
        engine.register_plugin(std::sync::Arc::new(build_plugin(&build_rows)));
    }

    for (outer_key, typed_outer_probe) in [("t.k", true), ("o.oc", false)] {
        let inner = LogicalPlan::scan("o", "o", Schema::empty()).join(
            LogicalPlan::scan("t", "t", Schema::empty()),
            Expr::path("o.ok").eq(Expr::path("t.k")),
            JoinKind::Inner,
        );
        let outer_build_key = if typed_outer_probe { "o2.ok" } else { "o2.oc" };
        let plan = proteus::algebra::rewrite::rewrite(
            LogicalPlan::scan("o", "o2", Schema::empty())
                .join(
                    inner,
                    Expr::path(outer_build_key).eq(Expr::path(outer_key)),
                    JoinKind::Inner,
                )
                .reduce(vec![
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ReduceSpec::new(Monoid::Sum, Expr::path("o.ov"), "total"),
                ]),
        );

        let fast = vectorized.execute_plan(plan.clone()).unwrap();
        let slow = closures.execute_plan(plan.clone()).unwrap();
        assert_eq!(fast.rows, slow.rows, "{outer_key}");
        let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
        catalog.register("t", probe_records.clone());
        catalog.register("o", build_records.clone());
        let expected = proteus::algebra::interp::execute(&plan, &catalog).unwrap();
        assert_eq!(fast.rows, expected, "{outer_key}");
        assert!(fast.metrics.join_kernel_rows > 0, "{}", fast.metrics);
        assert_eq!(
            fast.metrics.join_fallback_rows > 0,
            !typed_outer_probe,
            "{outer_key}: {}",
            fast.metrics
        );
        // Above the joins `SUM(o.ov)` folds the gathered `f64` lane.
        assert_eq!(fast.metrics.agg_fallback_rows, 0, "{}", fast.metrics);
        assert_eq!(slow.metrics.join_kernel_rows, 0);
    }
}

#[test]
fn join_kernels_survive_parallel_execution() {
    // Multi-morsel sides so parallel workers genuinely run the kernel build
    // ingest, the ordered build merge, and the kernel probe.
    let probe_n = 8 * 1024_i64;
    let build_n = 5 * 1024_i64;
    let probe_rows: Vec<(i64, f64, String)> = (0..probe_n)
        .map(|i| (i % 700, (i % 97) as f64, format!("w{}", i % 5)))
        .collect();
    let build_rows: Vec<(i64, f64, String)> = (0..build_n)
        .map(|i| (i % 900, (i % 53) as f64, format!("w{}", i % 7)))
        .collect();

    let serial = QueryEngine::new(EngineConfig::without_caching());
    let parallel = QueryEngine::new(EngineConfig::without_caching().with_parallelism(4));
    for engine in [&serial, &parallel] {
        engine.register_plugin(std::sync::Arc::new(probe_plugin(&probe_rows)));
        engine.register_plugin(std::sync::Arc::new(build_plugin(&build_rows)));
    }

    for (label, plan) in [
        (
            "inner",
            LogicalPlan::scan("o", "o", Schema::empty())
                .join(
                    LogicalPlan::scan("t", "t", Schema::empty()),
                    Expr::path("o.ok").eq(Expr::path("t.k")),
                    JoinKind::Inner,
                )
                .reduce(vec![
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ReduceSpec::new(Monoid::Sum, Expr::path("o.ov"), "total"),
                    ReduceSpec::new(Monoid::Max, Expr::path("t.q"), "maxq"),
                ]),
        ),
        (
            "left-outer",
            LogicalPlan::scan("o", "o", Schema::empty())
                .join(
                    LogicalPlan::scan("t", "t", Schema::empty())
                        .select(Expr::path("t.k").lt(Expr::int(400))),
                    Expr::path("o.ok").eq(Expr::path("t.k")),
                    JoinKind::LeftOuter,
                )
                .reduce(vec![
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
                ]),
        ),
    ] {
        let plan = proteus::algebra::rewrite::rewrite(plan);
        let a = serial.execute_plan(plan.clone()).unwrap();
        let b = parallel.execute_plan(plan).unwrap();
        assert_eq!(a.rows, b.rows, "{label}: serial vs parallel join rows");
        assert!(a.metrics.join_kernel_rows > 0, "{label}: {}", a.metrics);
        assert_eq!(
            a.metrics.join_kernel_rows, b.metrics.join_kernel_rows,
            "{label}: kernel row counts must not depend on the worker count"
        );
        assert_eq!(a.metrics.join_fallback_rows, 0, "{label}: {}", a.metrics);
        assert_eq!(b.metrics.join_fallback_rows, 0, "{label}: {}", b.metrics);
        assert!(b.metrics.threads_used > 1, "{label}: {}", b.metrics);
    }
}

/// The typed group-by ingest compares keys through flat `f64`-bit lanes and
/// confirms strings against stored values; the closure ingest compares
/// hydrated `Value`s. Both must form the groups `Value::value_eq` defines —
/// on exactly the keys where a raw-lane compare would go wrong: ints above
/// 2⁵³ (which collapse onto their float view), `±0.0`, NaNs that differ
/// only in payload, and strings that different morsels intern in different
/// orders. Rows are compared in order, through `total_cmp` (NaN keys are
/// not `==` themselves).
#[test]
fn group_keys_follow_value_eq_across_morsels() {
    const TWO_53: i64 = 1 << 53;
    const ROWS: usize = 5 * 1024 + 77; // six morsels
    let ks = [0, 1, TWO_53, TWO_53 + 1, TWO_53 + 2, -TWO_53 - 1, -TWO_53];
    let nan = f64::NAN;
    let qs = [0.0, -0.0, 3.0, nan, f64::from_bits(nan.to_bits() ^ 1), -nan];
    let words = ["ant", "bee", "cat", "", "dog"];
    let mut rng = StdRng::seed_from_u64(0x6B0);
    let mut k = Vec::with_capacity(ROWS);
    let mut q = Vec::with_capacity(ROWS);
    let mut c = Vec::with_capacity(ROWS);
    let mut v = Vec::with_capacity(ROWS);
    for i in 0..ROWS {
        k.push(ks[rng.gen_range(0usize..ks.len())]);
        q.push(qs[rng.gen_range(0usize..qs.len())]);
        // Rotate the vocabulary per morsel: each pool interns the same
        // strings under different ids.
        let word = (rng.gen_range(0usize..3) + i / 1024) % words.len();
        c.push(words[word].to_string());
        v.push(rng.gen_range(-1000i64..1000));
    }
    let plugin = ColumnPlugin::from_pairs(
        "t",
        vec![
            ("k".to_string(), ColumnData::Int(k)),
            ("q".to_string(), ColumnData::Float(q)),
            ("c".to_string(), ColumnData::Str(c)),
            ("v".to_string(), ColumnData::Int(v)),
        ],
    )
    .unwrap();

    let scan = || LogicalPlan::scan("t", "t", Schema::empty());
    let aggs = || {
        vec![
            ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ReduceSpec::new(Monoid::Sum, Expr::path("t.v"), "total"),
            ReduceSpec::new(Monoid::Min, Expr::path("t.v"), "low"),
            // A closure-fallback spec in the same list: the mixed path.
            ReduceSpec::new(Monoid::Set, Expr::path("t.c"), "words"),
        ]
    };
    let key_sets: Vec<(Vec<&str>, usize)> = vec![
        // Ints: {2⁵³, 2⁵³+1} and {-2⁵³, -2⁵³-1} collapse → 5 groups.
        (vec!["t.k"], 5),
        // Floats: ±0.0 apart, three NaN bit patterns apart → 6 groups.
        (vec!["t.q"], 6),
        (vec!["t.c"], 5),
        (vec!["t.k", "t.c"], 25),
        (vec!["t.q", "t.c", "t.k"], 150),
    ];
    let vectorized = QueryEngine::new(EngineConfig::without_caching());
    let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
    vectorized.register_plugin(std::sync::Arc::new(plugin.clone()));
    closures.register_plugin(std::sync::Arc::new(plugin.clone()));
    for (keys, groups) in &key_sets {
        let plan = scan().nest(
            keys.iter().map(|key| Expr::path(key)).collect(),
            (0..keys.len()).map(|i| format!("key{i}")).collect(),
            aggs(),
        );
        let fast = vectorized.execute_plan(plan.clone()).unwrap();
        let slow = closures.execute_plan(plan).unwrap();
        let label = format!("by {keys:?}");
        assert!(
            fast.metrics.agg_kernel_rows > 0,
            "{label}: typed ingest ran"
        );
        assert_eq!(slow.metrics.agg_kernel_rows, 0, "{label}");
        assert_eq!(fast.rows.len(), *groups, "{label}: group count");
        assert_eq!(slow.rows.len(), *groups, "{label}: group count");
        for (i, (a, b)) in fast.rows.iter().zip(&slow.rows).enumerate() {
            assert!(
                a.total_cmp(b) == std::cmp::Ordering::Equal,
                "{label}: row {i}: kernel {a:?} vs closure {b:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Nested JSON: the typed unnest and dotted-leaf scan fields against the
// closure floor.
// ---------------------------------------------------------------------------

/// What a nested fixture may contain.
#[derive(Clone, Copy, PartialEq)]
enum Fixture {
    /// Every object spells the same paths in the same order (Level 0 is
    /// dropped), every lane holds one kind.
    Deterministic,
    /// Keys reordered, fields missing, `null` / scalars / records where a
    /// record / an array is expected — but still one kind per lane.
    Ragged,
    /// Ragged, plus leaves whose tokens no single lane kind holds.
    Mixed,
}

/// One element of an `items` array, in every spelling the parser has to
/// see through. `qty` is an int, `price` a float, `sku` a string wherever
/// they are set at all (unless `mixed`).
fn nested_element(rng: &mut StdRng, mixed: bool) -> String {
    let qty = rng.gen_range(0i64..8);
    let price = rng.gen_range(0i64..40) as f64 * 0.25;
    let skus = ["a]b", "q\\\"}", "pl,ain", "caf\\u00e9", "naïve", ""];
    let sku = skus[rng.gen_range(0usize..skus.len())];
    match rng.gen_range(0u32..if mixed { 14 } else { 11 }) {
        0 => format!("{{\"qty\": {qty}, \"price\": {price:.2}, \"sku\": \"{sku}\"}}"),
        // Differing key order, odd whitespace.
        1 => format!("{{ \"sku\" :\"{sku}\" ,\"price\":{price:.2},\n\t\"qty\" : {qty} }}"),
        // Elements missing a leaf, or holding `null` for it.
        2 => format!("{{\"price\": {price:.2}}}"),
        3 => format!("{{\"qty\": null, \"sku\": null, \"price\": {price:.2}}}"),
        // A repeated key: the last one wins.
        4 => format!("{{\"qty\": 99, \"sku\": \"{sku}\", \"qty\": {qty}}}"),
        // Nested arrays and records inside the element, brackets in strings.
        5 => format!(
            "{{\"sub\": {{\"qty\": [9, {{\"a\": \"]\"}}]}}, \"qty\": {qty}, \"arr\": [[1], [2, [3]]]}}"
        ),
        // Non-record elements.
        6 => "7".to_string(),
        7 => "\"str ] }\"".to_string(),
        8 => "null".to_string(),
        9 => "{}".to_string(),
        10 => format!("{{\"qty\":{qty},\"price\":{price:.2}}}"),
        // Mixed only: a string, a float and a container in the int lane.
        11 => format!("{{\"qty\": \"{qty}\", \"price\": {price:.2}}}"),
        12 => format!("{{\"qty\": {qty}.5, \"sku\": 3}}"),
        _ => format!("{{\"qty\": [{qty}], \"price\": {qty}}}"),
    }
}

/// The nested fixture: `id`, a nullable float `val`, a string `tag`, a `geo`
/// record, an `items` array of records and a `tags` array of ints. The last
/// object ends the file on an array, without a trailing newline.
fn nested_fixture(seed: u64, objects: usize, fixture: Fixture) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let ragged = fixture != Fixture::Deterministic;
    let mixed = fixture == Fixture::Mixed;
    let mut out = String::new();
    for id in 0..objects {
        let val = match rng.gen_range(0u32..12) {
            0 => "null".to_string(),
            _ => format!("{:.2}", rng.gen_range(0i64..400) as f64 * 0.25),
        };
        let tag = ["ant", "bee", "cat", "d\\u00f6g"][rng.gen_range(0usize..4)];
        let lat = rng.gen_range(-40i64..40) as f64 * 0.5;
        let lon = rng.gen_range(0i64..200) as f64 * 0.5;
        let n = rng.gen_range(0i64..9);
        let city = ["ams", "ber", "z\\u00fcr"][rng.gen_range(0usize..3)];
        // The first object is fully spelled: it is what the leaves type from.
        let geo = match rng.gen_range(
            0u32..if id == 0 {
                1
            } else if ragged {
                9
            } else {
                3
            },
        ) {
            0 => format!(
                "{{\"lat\": {lat:.1}, \"lon\": {lon:.1}, \"city\": \"{city}\", \"n\": {n}}}"
            ),
            1 => format!("{{\"lat\": null, \"lon\": {lon:.1}, \"city\": null, \"n\": {n}}}"),
            2 => format!("{{\"lat\": {lat:.1}, \"lon\": null, \"city\": \"{city}\", \"n\": null}}"),
            3 => format!("{{\"n\": {n}, \"lon\": {lon:.1}}}"),
            4 => "null".to_string(),
            5 => "3".to_string(),
            6 => format!("[{{\"lat\": {lat:.1}}}]"),
            // A repeated key inside the record.
            7 => format!("{{\"lat\": 1.5, \"lon\": {lon:.1}, \"lat\": {lat:.1}}}"),
            // Mixed only: an int in the float leaf, a float in the int leaf,
            // an int in the string leaf.
            _ if mixed => format!(
                "{{\"lat\": {}, \"lon\": {lon:.1}, \"n\": {n}.5, \"city\": 7}}",
                lat as i64
            ),
            _ => "{}".to_string(),
        };
        let elements = |rng: &mut StdRng| {
            let len = rng.gen_range(1usize..5);
            let items: Vec<String> = (0..len).map(|_| nested_element(rng, mixed)).collect();
            format!(
                "[{}]",
                items.join(if len % 2 == 0 { ", " } else { " ,\n " })
            )
        };
        let last = id + 1 == objects;
        let items = match rng.gen_range(
            0u32..if last {
                1
            } else if ragged {
                8
            } else {
                5
            },
        ) {
            0..=2 => Some(elements(&mut rng)),
            3 => Some("[]".to_string()),
            4 => Some("null".to_string()),
            // A scalar or a record where an array is expected: one element.
            5 => Some("5".to_string()),
            6 => Some(format!("{{\"qty\": {n}, \"sku\": \"solo\"}}")),
            _ => None,
        };
        let tags = match rng.gen_range(0u32..if ragged { 6 } else { 4 }) {
            0 | 1 => Some(format!("[{n}, {}, {}]", n + 1, rng.gen_range(0i64..9))),
            2 => Some("[ ]".to_string()),
            3 => Some("null".to_string()),
            4 if mixed => Some(format!("[{n}, 2.5, {{\"x\": 1}}]")),
            4 => Some(format!("{n}")),
            _ => None,
        };
        let mut fields = vec![
            format!("\"id\": {id}"),
            format!("\"val\": {val}"),
            format!("\"tag\": \"{tag}\""),
            format!("\"geo\": {geo}"),
        ];
        if let Some(tags) = tags {
            fields.push(format!("\"tags\": {tags}"));
        }
        if ragged && id > 0 {
            let rotate = rng.gen_range(0usize..fields.len());
            fields.rotate_left(rotate);
        }
        // `items` stays last, so the file can end on an array.
        if let Some(items) = items {
            fields.push(format!("\"items\": {items}"));
        }
        out.push_str(&format!("{{{}}}", fields.join(", ")));
        if !last {
            out.push('\n');
        }
    }
    out
}

/// Which tier an unnest shape has to run on over lanes of one kind each.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Tier {
    Typed,
    Floor,
}

/// Unnest and nested-leaf shapes over `events as e`.
fn nested_shapes() -> Vec<(&'static str, Tier, LogicalPlan)> {
    let e = || LogicalPlan::scan("events", "e", Schema::empty());
    let items = |plan: LogicalPlan| plan.unnest(Path::parse("e.items"), "i");
    let outer_items = |plan: LogicalPlan| LogicalPlan::Unnest {
        input: Box::new(plan),
        path: Path::parse("e.items"),
        alias: "i".into(),
        predicate: None,
        outer: true,
    };
    let count = || ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt");
    let agg =
        |monoid: Monoid, path: &str, alias: &str| ReduceSpec::new(monoid, Expr::path(path), alias);
    vec![
        // The `json_unnest` shape: everything on lanes and kernels.
        (
            "count qty>3",
            Tier::Typed,
            items(e())
                .select(Expr::path("i.qty").gt(Expr::int(3)))
                .reduce(vec![count()]),
        ),
        (
            "no leaf at all",
            Tier::Typed,
            items(e()).reduce(vec![count()]),
        ),
        (
            "lane aggregates",
            Tier::Typed,
            items(e()).reduce(vec![
                agg(Monoid::Sum, "i.qty", "qty"),
                agg(Monoid::Max, "i.price", "top"),
                agg(Monoid::Min, "i.price", "low"),
                count(),
            ]),
        ),
        // A string lane in a kernel predicate, a closure residual on another
        // lane, parent fields (numeric and string) read after the unnest.
        (
            "parents after",
            Tier::Typed,
            items(e())
                .select(
                    Expr::path("i.sku")
                        .eq(Expr::string("a]b"))
                        .and(Expr::path("i.price").lt(Expr::path("e.val"))),
                )
                .reduce(vec![
                    agg(Monoid::Sum, "e.val", "val"),
                    agg(Monoid::Bag, "e.tag", "tags"),
                    agg(Monoid::Bag, "i.sku", "skus"),
                    count(),
                ]),
        ),
        (
            "group by parent string",
            Tier::Typed,
            items(e()).nest(
                vec![Expr::path("e.tag")],
                vec!["tag".into()],
                vec![
                    agg(Monoid::Sum, "i.qty", "qty"),
                    agg(Monoid::Sum, "e.val", "val"),
                    count(),
                ],
            ),
        ),
        (
            "group by lane",
            Tier::Typed,
            items(e()).nest(
                vec![Expr::path("i.sku")],
                vec!["sku".into()],
                vec![agg(Monoid::Sum, "i.price", "total"), count()],
            ),
        ),
        // A parent filter below the unnest (kernel and closure parts).
        (
            "parent filter below",
            Tier::Typed,
            items(
                e().select(
                    Expr::path("e.id")
                        .lt(Expr::int(1500))
                        .and(Expr::path("e.val").gt(Expr::float(10.0))),
                ),
            )
            .select(Expr::path("i.qty").gt(Expr::int(1)))
            .reduce(vec![
                agg(Monoid::Sum, "i.qty", "qty"),
                agg(Monoid::Sum, "e.id", "ids"),
                count(),
            ]),
        ),
        (
            "outer",
            Tier::Typed,
            outer_items(e()).reduce(vec![
                agg(Monoid::Sum, "i.qty", "qty"),
                agg(Monoid::Sum, "e.id", "ids"),
                count(),
            ]),
        ),
        (
            "bag of a lane",
            Tier::Typed,
            items(e().select(Expr::path("e.id").lt(Expr::int(40)))).reduce(vec![
                agg(Monoid::Bag, "i.qty", "all"),
                agg(Monoid::List, "i.sku", "skus"),
            ]),
        ),
        // Scalar elements are their own lane.
        (
            "scalar elements",
            Tier::Typed,
            e().unnest(Path::parse("e.tags"), "t")
                .select(Expr::path("t").gt(Expr::int(2)))
                .reduce(vec![
                    agg(Monoid::Sum, "t", "total"),
                    agg(Monoid::Sum, "e.id", "ids"),
                    count(),
                ]),
        ),
        // Two collections of one parent: the second unnest sees expanded
        // rows, not scan rows, and runs on the floor above the typed first.
        (
            "sibling collections",
            Tier::Typed,
            items(e())
                .unnest(Path::parse("e.tags"), "t")
                .select(Expr::path("t").lt(Expr::path("i.qty")))
                .reduce(vec![agg(Monoid::Sum, "t", "total"), count()]),
        ),
        // The floor: the alias used whole, a non-leaf element path, an outer
        // unnest with an embedded predicate, bindings collected at the root.
        (
            "yield bag i",
            Tier::Floor,
            items(e().select(Expr::path("e.id").lt(Expr::int(40))))
                .select(Expr::path("i.qty").gt(Expr::int(3)))
                .reduce(vec![agg(Monoid::Bag, "i", "all")]),
        ),
        (
            "non-leaf path",
            Tier::Floor,
            items(e()).reduce(vec![
                agg(Monoid::Bag, "i.sub.qty", "deep"),
                agg(Monoid::Sum, "i.qty", "qty"),
            ]),
        ),
        (
            "outer with predicate",
            Tier::Floor,
            LogicalPlan::Unnest {
                input: Box::new(e()),
                path: Path::parse("e.items"),
                alias: "i".into(),
                predicate: Some(Expr::path("i.qty").gt(Expr::int(3))),
                outer: true,
            }
            .reduce(vec![agg(Monoid::Sum, "i.qty", "qty"), count()]),
        ),
        (
            "collect",
            Tier::Floor,
            items(e().select(Expr::path("e.id").lt(Expr::int(25))))
                .select(Expr::path("i.qty").gt(Expr::int(3))),
        ),
        // Nested-record leaves as scan fields: the `json_nested` shape, a
        // string leaf as a group key, an int leaf in arithmetic.
        (
            "nested leaves",
            Tier::Typed,
            e().select(Expr::path("e.geo.lon").lt(Expr::float(50.0)))
                .reduce(vec![agg(Monoid::Sum, "e.geo.lat", "lat"), count()]),
        ),
        (
            "nested string key",
            Tier::Typed,
            e().nest(
                vec![Expr::path("e.geo.city")],
                vec!["city".into()],
                vec![
                    agg(Monoid::Sum, "e.geo.n", "n"),
                    agg(Monoid::Max, "e.geo.lat", "north"),
                    count(),
                ],
            ),
        ),
        (
            "nested leaves under an unnest",
            Tier::Typed,
            items(e().select(Expr::path("e.geo.n").gt(Expr::int(2)))).reduce(vec![
                agg(Monoid::Sum, "e.geo.lon", "lon"),
                agg(Monoid::Sum, "i.qty", "qty"),
            ]),
        ),
        // The record whole and one of its leaves: the leaf is navigated.
        (
            "record whole",
            Tier::Typed,
            e().select(Expr::path("e.id").lt(Expr::int(30)))
                .reduce(vec![
                    agg(Monoid::Bag, "e.geo", "geos"),
                    agg(Monoid::Sum, "e.geo.lat", "lat"),
                ]),
        ),
    ]
}

fn has_unnest(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Unnest { .. }) || plan.children().iter().any(|c| has_unnest(c))
}

/// Float leaves within a 1e-9 relative envelope, everything else exact (the
/// interpreter folds in its own order, so its float sums may differ in the
/// low bits).
fn approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        (Value::Record(ra), Value::Record(rb)) => {
            ra.len() == rb.len()
                && ra
                    .iter()
                    .zip(rb.iter())
                    .all(|((na, va), (nb, vb))| na == nb && approx_eq(va, vb))
        }
        _ => a.total_cmp(b) == std::cmp::Ordering::Equal,
    }
}

#[test]
fn nested_json_typed_tiers_equal_the_closure_floor() {
    use proteus::plugins::json::JsonPlugin;
    const OBJECTS: usize = 2 * 1024 + 300; // three morsels
    for fixture in [Fixture::Deterministic, Fixture::Ragged, Fixture::Mixed] {
        let text = nested_fixture(0xE1E ^ fixture as u64, OBJECTS, fixture);
        assert!(text.ends_with("]}"), "the file ends on an array");
        let plugin = JsonPlugin::from_bytes("events", bytes::Bytes::from(text.clone())).unwrap();
        assert_eq!(
            plugin.structural_index().is_deterministic(),
            fixture == Fixture::Deterministic
        );
        // The objects as plain values, for the reference interpreter: every
        // path navigates a materialized record there, so a leaf reads as
        // whatever token the file holds — no schema, no lane kinds.
        let objects: Vec<Value> = plugin
            .structural_index()
            .objects
            .iter()
            .map(|o| &text.as_bytes()[o.start as usize..o.end as usize])
            .map(|object| proteus::plugins::json::parse_json_value(object).unwrap())
            .collect();
        let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
        catalog.register("events", objects);
        let engine = |config: EngineConfig| {
            let engine = QueryEngine::new(config);
            engine.register_plugin(std::sync::Arc::new(plugin.clone()));
            engine
        };
        let closures = engine(EngineConfig::without_caching().with_vectorized(false));
        for workers in [1, 3] {
            let vectorized = engine(EngineConfig::without_caching().with_parallelism(workers));
            for (name, tier, plan) in nested_shapes() {
                let label = format!("fixture {} x{workers} `{name}`", fixture as u8);
                let plan = proteus::algebra::rewrite::rewrite(plan);
                let fast = vectorized.execute_plan(plan.clone()).unwrap();
                let slow = closures.execute_plan(plan.clone()).unwrap();
                assert_eq!(fast.rows.len(), slow.rows.len(), "{label}");
                // Group order is the order groups first appear in, which a
                // parallel run does not fix: compare as sorted rows.
                let sorted = |rows: &[Value]| {
                    let mut rows = rows.to_vec();
                    rows.sort_by(|a, b| a.total_cmp(b));
                    rows
                };
                for (a, b) in sorted(&fast.rows).iter().zip(&sorted(&slow.rows)) {
                    assert!(
                        a.total_cmp(b) == std::cmp::Ordering::Equal,
                        "{label}:\n kernel  {a:?}\n closure {b:?}"
                    );
                }
                assert!(workers == 1 || fast.metrics.threads_used > 1, "{label}");

                // The nested-leaf shapes also have to give what navigating
                // the materialized records gives (the interpreter is stricter
                // than the engines about what an unnest accepts, so those
                // shapes stay engine against engine). On the mixed fixture
                // `geo.lat` and `geo.n` hold tokens of two kinds.
                if !has_unnest(&plan) {
                    let expected = proteus::algebra::interp::execute(&plan, &catalog).unwrap();
                    for (a, b) in sorted(&slow.rows).iter().zip(&sorted(&expected)) {
                        assert!(
                            approx_eq(a, b),
                            "{label}:\n closure     {a:?}\n interpreter {b:?}"
                        );
                    }
                    assert_eq!(slow.rows.len(), expected.len(), "{label}");
                }

                // Which tier ran, as the IR names it. On the mixed fixture
                // `qty`, `sku` and `tags` hold tokens of several kinds: the
                // hook declines those lanes and the floor runs instead.
                if !has_unnest(&plan) {
                    continue;
                }
                assert!(
                    slow.ir.contains("closure floor: vectorization is off"),
                    "{label}"
                );
                let typed = fast.ir.contains("typed expand [");
                assert!(
                    typed || fast.ir.contains(", closure floor: "),
                    "{label}:\n{}",
                    fast.ir
                );
                match (tier, fixture) {
                    (Tier::Floor, _) => assert!(!typed, "{label}:\n{}", fast.ir),
                    (Tier::Typed, Fixture::Mixed) => {}
                    (Tier::Typed, _) => assert!(typed, "{label}:\n{}", fast.ir),
                }
            }

            // Engagement, on the `json_unnest` shape: the typed tier reports
            // no closure row anywhere, the floor reports nothing else.
            let (_, _, plan) = nested_shapes().remove(0);
            let plan = proteus::algebra::rewrite::rewrite(plan);
            let fast = vectorized.execute_plan(plan.clone()).unwrap().metrics;
            let slow = closures.execute_plan(plan).unwrap().metrics;
            assert!(
                slow.kernel_rows == 0 && slow.fallback_rows > 0 && slow.agg_fallback_rows > 0,
                "floor: {slow}"
            );
            assert_eq!(slow.agg_kernel_rows, 0, "floor: {slow}");
            if fixture == Fixture::Mixed {
                assert!(
                    fast.fallback_rows > 0,
                    "declined lanes run the floor: {fast}"
                );
            } else {
                assert!(
                    fast.fallback_rows == 0 && fast.agg_fallback_rows == 0 && fast.kernel_rows > 0,
                    "typed: {fast}"
                );
                assert_eq!(
                    fast.agg_kernel_rows, slow.agg_fallback_rows,
                    "typed: {fast}"
                );
            }
        }
    }
}

#[test]
fn nested_json_tiers_are_named_in_the_ir_and_the_access_path() {
    use proteus::plugins::json::JsonPlugin;
    let text = nested_fixture(7, 200, Fixture::Deterministic);
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine.register_plugin(std::sync::Arc::new(
        JsonPlugin::from_bytes("events_json", bytes::Bytes::from(text)).unwrap(),
    ));

    // The `json_unnest` template of `proteus_e2e`'s `raw_hetero` workload.
    let unnest = engine
        .comprehension("for { e <- events_json, i <- e.items, i.qty > 3 } yield count")
        .unwrap();
    assert!(
        unnest.ir.contains(
            "for i in unnest(e.items) {   // unnestInit/HasNext/GetNext, typed expand [qty]\n    \
             if (eval((i.qty > 3))) {   // vectorized columnar kernel"
        ),
        "{}",
        unnest.ir
    );
    // Its floor says why it is the floor.
    let whole = engine
        .comprehension("for { e <- events_json, i <- e.items, i.qty > 3 } yield bag i")
        .unwrap();
    assert!(
        whole.ir.contains(
            "for i in unnest(e.items) {   // unnestInit/HasNext/GetNext, closure floor: \
             the plug-in offers no typed expand of items for [i, i.qty] \
             (no hook, or tokens no single lane kind holds)\n    \
             if (eval((i.qty > 3))) {\n"
        ),
        "{}",
        whole.ir
    );

    // The `json_nested` template.
    let nested = engine
        .sql("SELECT COUNT(*), SUM(geo.lat) FROM events_json WHERE geo.lon < 50.0")
        .unwrap();
    assert_eq!(
        nested.access_paths,
        vec![
            "events_json: json(structural-index, deterministic layout, level-0 dropped; \
             typed nested leaves [geo.lat, geo.lon])"
        ]
    );
    assert!(nested.metrics.kernel_rows > 0 && nested.metrics.fallback_rows == 0);
    assert_eq!(nested.metrics.agg_fallback_rows, 0);
}

/// A dot in a column name is not a nested path: pushdown's dotted scan
/// fields fold to their first segment only for names the flat plug-in does
/// not have as columns, and the full-schema fallback is never folded.
#[test]
fn dotted_column_names_of_flat_sources_are_columns() {
    let dir = std::env::temp_dir().join(format!("proteus_dotted_cols_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("iris.csv");
    std::fs::write(&path, "5.1|setosa\n7.25|versicolor\n").unwrap();
    let schema = Schema::from_pairs(vec![
        ("sepal.length", DataType::Float),
        ("species", DataType::String),
    ]);
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_csv("iris", &path, schema, CsvOptions::default())
        .unwrap();
    // No field referenced: the scan falls back to the whole schema.
    let count = engine
        .comprehension("for { t <- iris } yield count")
        .unwrap();
    assert_eq!(
        count.rows,
        vec![Value::record(vec![("result", Value::Int(2))])]
    );
    // The dotted column read by name.
    let plan = LogicalPlan::scan("iris", "t", Schema::empty())
        .select(Expr::path("t.sepal.length").gt(Expr::float(6.0)))
        .reduce(vec![
            ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ReduceSpec::new(Monoid::Sum, Expr::path("t.sepal.length"), "total"),
        ]);
    let rows = engine.execute_plan(plan).unwrap().rows;
    assert_eq!(
        rows,
        vec![Value::record(vec![
            ("cnt", Value::Int(1)),
            ("total", Value::Float(7.25)),
        ])]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
