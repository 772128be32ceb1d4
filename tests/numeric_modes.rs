//! Contract tests for the kernel tier's numeric semantics.
//!
//! Strict, bit-exact folds are the only numeric mode: every float fold runs
//! in serial ingest order, so the kernel tier and the closure interpreter
//! must produce *identical* rows. Tests here pin that with `assert_eq!`
//! across seed sweeps and morsel-boundary row counts
//! (63/64/65/1023/1024/1025 — tails, exact morsels, and one-past), with two
//! documented normalizations every engine shares:
//!
//! * `Accumulator::finish` reports integral float sums as `Value::Int`.
//! * Signed zeros never survive the fold: the `+0.0` identity absorbs
//!   `-0.0` under IEEE addition, so `-0.0` inputs produce `+0.0` (or
//!   `Int(0)`) everywhere.
//!
//! Nullable columns come from the JSON plug-in, whose numeric accessors
//! preserve nulls into the packed bitmap.

use std::sync::Arc;

use proteus::datagen::writers;
use proteus::plugins::binary::ColumnPlugin;
use proteus::prelude::*;
use proteus::storage::ColumnData;

const ROW_COUNTS: &[i64] = &[63, 64, 65, 1023, 1024, 1025];
const SEEDS: &[i64] = &[1, 7, 1231];
fn scalar(result: &proteus::core::QueryResult, name: &str) -> Value {
    match &result.rows[0] {
        Value::Record(rec) => rec.get(name).expect("output field").clone(),
        other => panic!("expected record row, got {other:?}"),
    }
}

/// Deterministic seed-swept fact table: a float measure with varied
/// fractions, a selective key, and a low-cardinality group column.
fn fact_table(rows: i64, seed: i64) -> ColumnPlugin {
    ColumnPlugin::from_pairs(
        "t",
        vec![
            (
                "k".to_string(),
                ColumnData::Int((0..rows).map(|i| (i * seed) % 41).collect()),
            ),
            (
                // Clustered so grouped ingest sees long same-key runs.
                "g".to_string(),
                ColumnData::Int((0..rows).map(|i| i / 16).collect()),
            ),
            (
                "q".to_string(),
                ColumnData::Float(
                    (0..rows)
                        .map(|i| ((i * seed) % 97) as f64 * 0.25 + ((i * seed) % 13) as f64 * 0.001)
                        .collect(),
                ),
            ),
        ],
    )
    .expect("fact table")
}

/// (kernels, closures) engines over the same plug-in.
fn engines(plugin: ColumnPlugin) -> (QueryEngine, QueryEngine) {
    let plugin = Arc::new(plugin);
    let strict = QueryEngine::new(EngineConfig::without_caching());
    let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
    for engine in [&strict, &closures] {
        engine.register_plugin(plugin.clone());
    }
    (strict, closures)
}

fn scan_t() -> LogicalPlan {
    LogicalPlan::scan("t", "t", Schema::empty())
}

/// The reduce/group shapes the bit-exactness test sweeps; every one folds
/// on the aggregate kernels.
fn shapes() -> Vec<(&'static str, LogicalPlan)> {
    vec![
        (
            "sum",
            scan_t().reduce(vec![ReduceSpec::new(
                Monoid::Sum,
                Expr::path("t.q"),
                "total",
            )]),
        ),
        (
            "avg",
            scan_t().reduce(vec![ReduceSpec::new(
                Monoid::Avg,
                Expr::path("t.q"),
                "mean",
            )]),
        ),
        (
            "filtered-sum-minmax",
            scan_t()
                .select(Expr::path("t.k").lt(Expr::int(29)))
                .reduce(vec![
                    ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
                    ReduceSpec::new(Monoid::Min, Expr::path("t.q"), "lo"),
                    ReduceSpec::new(Monoid::Max, Expr::path("t.q"), "hi"),
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ]),
        ),
        (
            "group-sum",
            scan_t().nest(
                vec![Expr::path("t.g")],
                vec!["g".into()],
                vec![
                    ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ],
            ),
        ),
    ]
}

#[test]
fn strict_mode_is_bit_exact_against_closures() {
    for &rows in ROW_COUNTS {
        for &seed in SEEDS {
            let (strict, closures) = engines(fact_table(rows, seed));
            for (label, plan) in shapes() {
                let a = strict.execute_plan(plan.clone()).expect("strict");
                let b = closures.execute_plan(plan).expect("closures");
                assert_eq!(
                    a.rows, b.rows,
                    "strict diverged from closures: {label} @ rows={rows} seed={seed}"
                );
                assert!(
                    a.metrics.agg_kernel_rows > 0,
                    "kernels never folded: {label} @ rows={rows} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn join_shapes_agree_across_modes() {
    // Fact ⋈ dimension on an integer key, counting and summing the
    // dimension measure: exercises batch hashing and the single-numeric-key
    // probe end to end.
    for &rows in &[65i64, 1024, 1025] {
        let fact = fact_table(rows, 7);
        let dim_rows = (rows / 4).max(8);
        let dim = ColumnPlugin::from_pairs(
            "d",
            vec![
                ("k".to_string(), ColumnData::Int((0..dim_rows).collect())),
                (
                    "w".to_string(),
                    ColumnData::Float((0..dim_rows).map(|i| (i % 89) as f64 * 1.5).collect()),
                ),
            ],
        )
        .expect("dim table");
        let (strict, closures) = engines(fact);
        let dim = Arc::new(dim);
        for engine in [&strict, &closures] {
            engine.register_plugin(dim.clone());
        }
        let plan = LogicalPlan::scan("d", "d", Schema::empty())
            .join(
                scan_t(),
                Expr::path("d.k").eq(Expr::path("t.k")),
                JoinKind::Inner,
            )
            .reduce(vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Sum, Expr::path("d.w"), "total"),
            ]);
        let s = strict.execute_plan(plan.clone()).expect("strict");
        let c = closures.execute_plan(plan).expect("closures");
        assert_eq!(s.rows, c.rows, "strict join diverged @ rows={rows}");
        assert!(
            s.metrics.join_kernel_rows > 0,
            "join kernels never ran @ rows={rows}"
        );
    }
}

/// Writes a JSON dataset with a nullable `qty`; `pattern` decides which
/// rows are null.
fn write_nullable_json(name: &str, rows: i64, pattern: impl Fn(i64) -> bool) -> std::path::PathBuf {
    let values: Vec<Value> = (0..rows)
        .map(|i| {
            let qty = if pattern(i) {
                Value::Null
            } else {
                Value::Float((i % 83) as f64 * 0.5 + (i % 7) as f64 * 0.01)
            };
            Value::record(vec![("id", Value::Int(i)), ("qty", qty)])
        })
        .collect();
    let path = std::env::temp_dir().join(format!("proteus_numeric_modes_test_{name}_{rows}.json"));
    writers::write_json(&path, &values, false).expect("write nullable json");
    path
}

fn json_engines(name: &str, path: &std::path::Path) -> (QueryEngine, QueryEngine) {
    let strict = QueryEngine::new(EngineConfig::without_caching());
    let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
    for engine in [&strict, &closures] {
        engine.register_json(name, path).expect("register json");
    }
    (strict, closures)
}

#[test]
fn all_null_columns_aggregate_exactly_in_every_mode() {
    // Every `qty` is null: null-skipping aggregates see zero inputs, so the
    // sum is the monoid identity (reported as `Int(0)` by the integral-sum
    // rule) and the average is `Null` — bitwise identical across both
    // engines. (An all-null field infers as
    // `DataType::Any`, so this shape exercises the generic null-preserving
    // accessors rather than the typed lane path.)
    let path = write_nullable_json("allnull", 1025, |_| true);
    let (strict, closures) = json_engines("allnull", &path);
    let plan = LogicalPlan::scan("allnull", "r", Schema::empty()).reduce(vec![
        ReduceSpec::new(Monoid::Sum, Expr::path("r.qty"), "total"),
        ReduceSpec::new(Monoid::Avg, Expr::path("r.qty"), "mean"),
        ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
    ]);
    let s = strict.execute_plan(plan.clone()).expect("strict");
    let c = closures.execute_plan(plan).expect("closures");
    assert_eq!(s.rows, c.rows, "strict vs closures on all-null column");
    assert_eq!(scalar(&s, "total"), Value::Int(0));
    assert_eq!(scalar(&s, "cnt"), Value::Int(1025));
}

#[test]
fn long_null_runs_fold_through_relaxed_lanes() {
    // Kept under its historical name: the lane fold is gone, and the null
    // runs now fold through the strict kernel. The first rows are non-null
    // (so inference types `qty` as Float and the typed fill engages), then
    // a >64-row null run produces fully-null bitmap words — the packed
    // `null_words()` skip path — followed by a dense tail.
    let rows = 2 * 1024 + 63;
    let path = write_nullable_json("nullrun", rows, |i| (200..1400).contains(&i));
    let (strict, closures) = json_engines("nullrun", &path);
    let plan = LogicalPlan::scan("nullrun", "r", Schema::empty()).reduce(vec![
        ReduceSpec::new(Monoid::Sum, Expr::path("r.qty"), "total"),
        ReduceSpec::new(Monoid::Avg, Expr::path("r.qty"), "mean"),
    ]);
    let s = strict.execute_plan(plan.clone()).expect("strict");
    let c = closures.execute_plan(plan).expect("closures");
    assert_eq!(s.rows, c.rows, "strict vs closures on null-run column");
    assert!(
        s.metrics.agg_kernel_rows > 0,
        "kernels never folded the null-run column"
    );
}

#[test]
fn signed_zeros_and_integral_sums_normalize_identically() {
    // Signed zeros cannot diverge between tiers: the +0.0 fold identity
    // absorbs -0.0 under IEEE addition in the closure fold and the kernel
    // fold alike. And a sum that lands exactly on
    // an integer is reported as `Value::Int` by `Accumulator::finish` in
    // every engine — both caveats pinned here.
    let rows = 1024i64;
    let neg_zeros = ColumnPlugin::from_pairs(
        "t",
        vec![
            (
                "g".to_string(),
                ColumnData::Int((0..rows).map(|i| i % 5).collect()),
            ),
            (
                "k".to_string(),
                ColumnData::Int((0..rows).map(|i| i % 41).collect()),
            ),
            (
                "q".to_string(),
                ColumnData::Float(
                    (0..rows)
                        .map(|i| if i % 2 == 0 { -0.0 } else { 0.5 })
                        .collect(),
                ),
            ),
        ],
    )
    .expect("signed-zero table");
    let (strict, closures) = engines(neg_zeros);
    let plan = scan_t().reduce(vec![
        ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
        ReduceSpec::new(Monoid::Avg, Expr::path("t.q"), "mean"),
    ]);
    let s = strict.execute_plan(plan.clone()).expect("strict");
    let c = closures.execute_plan(plan).expect("closures");
    assert_eq!(s.rows, c.rows);
    // 512 × 0.5 = 256 exactly: integral, so every engine reports Int.
    assert_eq!(scalar(&s, "total"), Value::Int(256));
    assert_eq!(scalar(&s, "mean"), Value::Float(0.25));

    // All -0.0 inputs: the fold identity flips the sign in every engine,
    // and the integral rule turns the sum into Int(0).
    let all_neg = ColumnPlugin::from_pairs(
        "t",
        vec![
            (
                "g".to_string(),
                ColumnData::Int((0..rows).map(|i| i % 5).collect()),
            ),
            (
                "k".to_string(),
                ColumnData::Int((0..rows).map(|i| i % 41).collect()),
            ),
            (
                "q".to_string(),
                ColumnData::Float(vec![-0.0; rows as usize]),
            ),
        ],
    )
    .expect("negative-zero table");
    let (strict, closures) = engines(all_neg);
    let plan = scan_t().reduce(vec![
        ReduceSpec::new(Monoid::Sum, Expr::path("t.q"), "total"),
        ReduceSpec::new(Monoid::Avg, Expr::path("t.q"), "mean"),
    ]);
    let s = strict.execute_plan(plan.clone()).expect("strict");
    let c = closures.execute_plan(plan).expect("closures");
    assert_eq!(s.rows, c.rows, "signed-zero outputs must agree bitwise");
    assert_eq!(scalar(&s, "total"), Value::Int(0));
    match scalar(&s, "mean") {
        Value::Float(f) => {
            assert_eq!(f, 0.0);
            assert!(f.is_sign_positive(), "identity absorbed the sign");
        }
        other => panic!("expected Float mean, got {other:?}"),
    }
}
