//! Typed joins against the closure tier and the reference interpreter.
//!
//! A join whose keys are typed slots builds a lane-typed store, probes lane
//! to lane and hands its output on as typed columns — build payload lanes
//! gathered by entry id, probe columns through the match list, and for a
//! left-outer join's unmatched entries all-null probe columns — so filters,
//! reduces and group-bys above it run on the kernel tier. Whatever the
//! tier, the rows and their order must be exactly what the closure tier
//! (vectorized off) returns, and the values what `algebra::interp`
//! computes.
//!
//! The sweep runs {inner, left-outer} × {binary columns, binary rows, CSV,
//! JSON} × {1, 4} workers over join shapes at the edges of key equality —
//! null keys, NaN and ±0.0 keys (binary only: text turns them into nulls),
//! keys repeated on both sides, an `i64` key joined to an `f64` one (`3` ≡
//! `3.0`), string keys, an empty build side, an empty probe side, no match
//! and every entry matched — with COUNT, SUM, MIN, MAX and AVG above the
//! join, a filter above it, a group-by above it, and a collect of the whole
//! bindings.

use std::cmp::Ordering;
use std::path::PathBuf;
use std::sync::Arc;

use proteus::datagen::writers;
use proteus::plugins::binary::ColumnPlugin;
use proteus::prelude::*;
use proteus::storage::ColumnData;

/// Rows of the build table `b`: two morsels, the second one short — and,
/// unmatched, two tail batches. (Small: the interpreter joins by nested
/// loops.)
const B_ROWS: i64 = 1024 + 76;
/// Rows of the probe table `p`: two morsels, the second one short.
const P_ROWS: i64 = 1024 + 90;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    Columns,
    Rows,
    Csv,
    Json,
}

impl Source {
    /// Text formats carry nulls; binary ones cannot.
    fn text(self) -> bool {
        matches!(self, Source::Csv | Source::Json)
    }
}

/// A float that is NaN on binary sources and null on text ones (JSON has
/// no NaN; the CSV reader reads it as text).
fn nan_or_null(source: Source) -> Value {
    if source.text() {
        Value::Null
    } else {
        Value::Float(f64::NAN)
    }
}

/// The float keys both tables share: NaN (null on text), `-0.0`, `0.0` and
/// quarters, repeated.
fn float_key(source: Source, i: i64) -> Value {
    match i % 40 {
        0 => nan_or_null(source),
        1 => Value::Float(-0.0),
        2 => Value::Float(0.0),
        n => Value::Float(n as f64 / 4.0),
    }
}

/// Table `b` (the build side as written): `k`∈[-5,35] (nulls on text),
/// `kf` float keys, `s` strings, `w` a float payload (NaN on binary, nulls
/// on text) and `x`∈[0,4].
fn b_rows(source: Source) -> Vec<Value> {
    (0..B_ROWS)
        .map(|i| {
            let k = if source.text() && i % 17 == 0 {
                Value::Null
            } else {
                Value::Int(i % 41 - 5)
            };
            let w = match (i % 31, i % 19) {
                (0, _) => nan_or_null(source),
                (_, 0) if source.text() => Value::Null,
                _ => Value::Float((i % 29) as f64 / 4.0 - 2.0),
            };
            Value::record(vec![
                ("k", k),
                ("kf", float_key(source, i)),
                ("s", Value::str(format!("s{}", i % 41))),
                ("w", w),
                ("x", Value::Int(i % 5)),
            ])
        })
        .collect()
}

/// Table `p` (the probe side as written): `k` a float key that is integral
/// except one row in seven (nulls on text), `kf` float keys, `s` strings,
/// `v` a float payload (NaN on binary, nulls on text) and `y`∈[0,2].
fn p_rows(source: Source) -> Vec<Value> {
    (0..P_ROWS)
        .map(|i| {
            let k = match (i % 13, i % 7) {
                (0, _) if source.text() => Value::Null,
                (_, 0) => Value::Float((i % 53 - 8) as f64 + 0.5),
                _ => Value::Float((i % 53 - 8) as f64),
            };
            let v = match (i % 43, i % 23) {
                (0, _) => nan_or_null(source),
                (_, 0) if source.text() => Value::Null,
                _ => Value::Float((i % 37) as f64 / 4.0),
            };
            Value::record(vec![
                ("k", k),
                ("kf", float_key(source, i * 3 + 1)),
                ("s", Value::str(format!("s{}", i % 47))),
                ("v", v),
                ("y", Value::Int(i % 3)),
            ])
        })
        .collect()
}

fn b_schema() -> Schema {
    Schema::from_pairs(vec![
        ("k", DataType::Int),
        ("kf", DataType::Float),
        ("s", DataType::String),
        ("w", DataType::Float),
        ("x", DataType::Int),
    ])
}

fn p_schema() -> Schema {
    Schema::from_pairs(vec![
        ("k", DataType::Float),
        ("kf", DataType::Float),
        ("s", DataType::String),
        ("v", DataType::Float),
        ("y", DataType::Int),
    ])
}

fn columns_of(name: &str, rows: &[Value], schema: &Schema) -> ColumnPlugin {
    let columns = schema
        .fields()
        .iter()
        .map(|f| {
            let values = rows
                .iter()
                .map(|r| r.as_record().unwrap().get(&f.name).cloned().unwrap());
            let data = match f.data_type {
                DataType::Int => ColumnData::Int(values.map(|v| v.as_int().unwrap()).collect()),
                DataType::Float => {
                    ColumnData::Float(values.map(|v| v.as_float().unwrap()).collect())
                }
                _ => ColumnData::Str(values.map(|v| v.as_str().unwrap().to_string()).collect()),
            };
            (f.name.clone(), data)
        })
        .collect();
    ColumnPlugin::from_pairs(name, columns).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("proteus_typed_joins_{}", std::process::id()))
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Registers table `name` in the engine's format.
fn register(engine: &QueryEngine, source: Source, name: &str, rows: &[Value], schema: &Schema) {
    let dir = scratch(&format!("{source:?}"));
    match source {
        Source::Columns => engine.register_plugin(Arc::new(columns_of(name, rows, schema))),
        Source::Rows => {
            let path = dir.join(format!("{name}.rows"));
            if !path.exists() {
                writers::write_row_table(&path, rows, schema).unwrap();
            }
            engine.register_rows(name, &path).unwrap();
        }
        Source::Csv => {
            let path = dir.join(format!("{name}.csv"));
            if !path.exists() {
                writers::write_csv(&path, rows, schema, '|').unwrap();
            }
            engine
                .register_csv(name, &path, schema.clone(), CsvOptions::default())
                .unwrap();
        }
        Source::Json => {
            let path = dir.join(format!("{name}.json"));
            if !path.exists() {
                writers::write_json(&path, rows, true).unwrap();
            }
            engine.register_json(name, &path).unwrap();
        }
    }
}

/// One join shape: the key pair, and the filters that sit right on the
/// build and probe scans (inside the join, so they shape its sides).
struct Shape {
    label: &'static str,
    keys: (&'static str, &'static str),
    build_filter: Option<fn() -> Expr>,
    probe_filter: Option<fn() -> Expr>,
}

const SHAPES: &[Shape] = &[
    Shape {
        label: "repeated i64 keys against f64 keys, nulls",
        keys: ("b.k", "p.k"),
        build_filter: None,
        probe_filter: None,
    },
    Shape {
        label: "NaN and ±0.0 keys",
        keys: ("b.kf", "p.kf"),
        build_filter: None,
        probe_filter: None,
    },
    Shape {
        label: "string keys",
        keys: ("b.s", "p.s"),
        build_filter: None,
        probe_filter: None,
    },
    Shape {
        label: "empty build",
        keys: ("b.k", "p.k"),
        build_filter: Some(|| Expr::path("b.x").gt(Expr::int(10))),
        probe_filter: None,
    },
    Shape {
        label: "empty probe",
        keys: ("b.k", "p.k"),
        build_filter: None,
        probe_filter: Some(|| Expr::path("p.y").gt(Expr::int(10))),
    },
    Shape {
        label: "no match",
        keys: ("b.k", "p.k"),
        build_filter: Some(|| Expr::path("b.k").lt(Expr::int(0))),
        probe_filter: Some(|| Expr::path("p.k").gt(Expr::int(0))),
    },
    Shape {
        label: "every entry matched",
        keys: ("b.k", "p.k"),
        build_filter: Some(|| {
            Expr::path("b.k")
                .gt(Expr::int(-1))
                .and(Expr::path("b.k").lt(Expr::int(20)))
        }),
        probe_filter: None,
    },
];

fn join_of(shape: &Shape, kind: JoinKind) -> LogicalPlan {
    let mut build = LogicalPlan::scan("b", "b", Schema::empty());
    if let Some(filter) = shape.build_filter {
        build = build.select(filter());
    }
    let mut probe = LogicalPlan::scan("p", "p", Schema::empty());
    if let Some(filter) = shape.probe_filter {
        probe = probe.select(filter());
    }
    build.join(
        probe,
        Expr::path(shape.keys.0).eq(Expr::path(shape.keys.1)),
        kind,
    )
}

/// Every aggregate over both payloads, their paths behind `on` (`""` over
/// the join, `"j."` over its materialized bindings).
fn aggregates(on: &str) -> Vec<ReduceSpec> {
    let mut specs = vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")];
    for (field, name) in [("b.w", "w"), ("p.v", "v")] {
        for (monoid, op) in [
            (Monoid::Sum, "sum"),
            (Monoid::Min, "min"),
            (Monoid::Max, "max"),
            (Monoid::Avg, "avg"),
        ] {
            let path = Expr::path(&format!("{on}{field}"));
            specs.push(ReduceSpec::new(monoid, path, format!("{op}_{name}")));
        }
    }
    specs
}

/// The queries over one join: aggregates above it, a filter above it (a
/// residual of an inner join; a selection over the left-outer output,
/// null probe sides included), a group-by above it, and two collects — the
/// filtered one reads the payload slots too. `input` is the join itself
/// (`on` = `""`) or a scan of its bindings as `j` records (`on` = `"j."`),
/// the interpreter's cheap route to the same answers.
fn queries(input: LogicalPlan, on: &str) -> Vec<(&'static str, LogicalPlan)> {
    let path = |p: &str| Expr::path(&format!("{on}{p}"));
    let filtered = input.clone().select(path("b.w").lt(path("p.v")));
    vec![
        ("aggregates", input.clone().reduce(aggregates(on))),
        ("filter above", filtered.clone().reduce(aggregates(on))),
        (
            "group-by above",
            input.clone().nest(
                vec![path("b.x")],
                vec!["x".to_string()],
                vec![
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ReduceSpec::new(Monoid::Sum, path("p.v"), "sum_v"),
                    ReduceSpec::new(Monoid::Max, path("b.w"), "max_w"),
                    ReduceSpec::new(Monoid::Avg, path("p.v"), "avg_v"),
                ],
            ),
        ),
        ("filtered collect", filtered),
        ("collect", input),
    ]
}

/// Rows equal under `total_cmp` (NaN by bits, `-0.0` apart from `0.0`).
fn assert_same_rows(got: &[Value], expected: &[Value], what: &str) {
    assert_eq!(got.len(), expected.len(), "{what}: row count");
    for (i, (a, b)) in got.iter().zip(expected).enumerate() {
        assert!(
            a.total_cmp(b) == Ordering::Equal,
            "{what}: row {i}: {a:?} vs {b:?}"
        );
    }
}

fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
    rows.sort_by(|a, b| a.total_cmp(b));
    rows
}

/// What `algebra::interp` answers for every query of [`queries`] over one
/// join: the interpreter joins the tables once (a nested loop), its
/// bindings become the `j` records `{b, p}`, and each query runs over a
/// scan of those. A collect's bindings are kept as `j` records, to be
/// flattened onto the engine's slots ([`flattened`]).
fn interpreted(
    join: &LogicalPlan,
    catalog: &proteus::algebra::interp::MemoryCatalog,
) -> Vec<(&'static str, Vec<Value>)> {
    use proteus::algebra::interp::{eval_bindings, execute, MemoryCatalog};
    let side = |env: &_, alias: &str| Expr::path(alias).eval(env).unwrap();
    let joined: Vec<Value> = eval_bindings(join, catalog)
        .unwrap()
        .iter()
        .map(|env| Value::record(vec![("b", side(env, "b")), ("p", side(env, "p"))]))
        .collect();
    let mut bindings = MemoryCatalog::new();
    bindings.register("j", joined);
    queries(LogicalPlan::scan("j", "j", Schema::empty()), "j.")
        .into_iter()
        .map(|(query, plan)| {
            let rows = match plan {
                LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. } => {
                    execute(&plan, &bindings).unwrap()
                }
                _ => eval_bindings(&plan, &bindings)
                    .unwrap()
                    .iter()
                    .map(|env| side(env, "j"))
                    .collect(),
            };
            (query, rows)
        })
        .collect()
}

/// `j` records flattened onto the slots of the engine's collected rows (a
/// probe side the left-outer join left null reads null in every slot),
/// after checking that those slots are every field of both bindings: a
/// plan that yields its bindings reads its scans whole.
fn flattened(records: &[Value], like: &[Value]) -> Vec<Value> {
    let slots: Vec<String> = like
        .first()
        .map(|row| {
            row.as_record()
                .unwrap()
                .iter()
                .map(|(n, _)| n.to_string())
                .collect()
        })
        .unwrap_or_default();
    if !like.is_empty() {
        let mut every: Vec<String> = [("b", b_schema()), ("p", p_schema())]
            .iter()
            .flat_map(|(alias, schema)| {
                schema
                    .names()
                    .into_iter()
                    .map(move |f| format!("{alias}.{f}"))
            })
            .collect();
        let mut got = slots.clone();
        every.sort();
        got.sort();
        assert_eq!(got, every, "a collect reads both bindings whole");
    }
    records
        .iter()
        .map(|record| {
            Value::record(
                slots
                    .iter()
                    .map(|slot| {
                        let segments: Vec<String> = slot.split('.').map(str::to_string).collect();
                        (slot.as_str(), record.navigate(&segments))
                    })
                    .collect(),
            )
        })
        .collect()
}

fn sweep(source: Source) {
    let (b, p) = (b_rows(source), p_rows(source));
    let engines: Vec<(usize, QueryEngine, QueryEngine)> = [1, 4]
        .into_iter()
        .map(|workers| {
            let typed = QueryEngine::new(EngineConfig::without_caching().with_parallelism(workers));
            let closures = QueryEngine::new(
                EngineConfig::without_caching()
                    .with_vectorized(false)
                    .with_parallelism(workers),
            );
            for engine in [&typed, &closures] {
                register(engine, source, "b", &b, &b_schema());
                register(engine, source, "p", &p, &p_schema());
            }
            (workers, typed, closures)
        })
        .collect();
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        for shape in SHAPES {
            let join = join_of(shape, kind);
            let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
            catalog.register("b", b.clone());
            catalog.register("p", p.clone());
            let expected = interpreted(&join, &catalog);
            for (workers, typed, closures) in &engines {
                for ((query, plan), (_, expected)) in
                    queries(join.clone(), "").into_iter().zip(&expected)
                {
                    let what = format!(
                        "{source:?}, {workers} workers, {kind:?}, {}, {query}",
                        shape.label
                    );
                    let plan = proteus::algebra::rewrite::rewrite(plan);
                    let fast = typed.execute_plan(plan.clone()).unwrap();
                    let slow = closures.execute_plan(plan).unwrap();
                    assert_same_rows(
                        &fast.rows,
                        &slow.rows,
                        &format!("{what}: typed vs closures"),
                    );
                    let expected = match query {
                        "collect" | "filtered collect" => flattened(expected, &fast.rows),
                        _ => expected.clone(),
                    };
                    assert_same_rows(
                        &sorted(fast.rows.clone()),
                        &sorted(expected),
                        &format!("{what}: typed vs interpreter"),
                    );
                    assert_eq!(slow.metrics.agg_kernel_rows, 0, "{what}");
                    assert_eq!(slow.metrics.join_kernel_rows, 0, "{what}");
                    // Every key here is a typed slot, and every aggregate
                    // input a typed payload lane: nothing above the join
                    // folds through a closure (`agg_kernel_row_share` 1.0).
                    assert_eq!(
                        fast.metrics.join_fallback_rows, 0,
                        "{what}: {}",
                        fast.metrics
                    );
                    assert_eq!(
                        fast.metrics.agg_fallback_rows, 0,
                        "{what}: {}",
                        fast.metrics
                    );
                    let fed_the_sink = match query {
                        "collect" | "filtered collect" => false,
                        "group-by above" => !fast.rows.is_empty(),
                        _ => fast.rows[0].as_record().unwrap().get("cnt") != Some(&Value::Int(0)),
                    };
                    if fed_the_sink {
                        assert!(fast.metrics.agg_kernel_rows > 0, "{what}: {}", fast.metrics);
                    }
                }
            }
        }
    }
}

#[test]
fn typed_joins_equal_the_closure_tier_over_binary_columns() {
    sweep(Source::Columns);
}

#[test]
fn typed_joins_equal_the_closure_tier_over_binary_rows() {
    sweep(Source::Rows);
}

#[test]
fn typed_joins_equal_the_closure_tier_over_csv() {
    sweep(Source::Csv);
}

#[test]
fn typed_joins_equal_the_closure_tier_over_json() {
    sweep(Source::Json);
}
