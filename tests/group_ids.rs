//! Dense group ids against hashed ones, the closure tier and the reference
//! interpreter.
//!
//! A typed-key group-by whose keys are all `i64` slots bounded by their
//! zone-map totals finds a row's group as the key's offset in a dense id
//! space (`radix_group(...)   // ... dense ids g∈[..] × h∈[..] (n slots)` in
//! the IR); any other key keeps the hashed ids. Either way the rows, their
//! order and every value must be exactly what the closure tier (vectorized
//! off) returns, and the values what `algebra::interp` computes. The sweep
//! runs over binary columns, binary rows, CSV, JSON and a cache entry, at
//! one and four workers, over key shapes at the edges of the dense rule —
//! negative minimums, a one-value domain, null and missing keys, ints
//! beyond ±2⁵³, a span of exactly 65 536 slots and one of 65 537, an empty
//! input — and over keys only hashed ids take: a string key interned apart
//! in every morsel, a float key with ±0.0, NaN and nulls, a bool key, and a
//! string beside a nullable int. The interpreter reads the generated
//! records, not the engine's scan of them.
//!
//! The same sweep runs the no-`GROUP BY` shapes (a reduce: one group over
//! zero keys) — every scalar monoid, `bag` / `set` / `list`, a sink
//! predicate split into kernel and closure parts, NaN / ±0.0 / nulls, an
//! empty table, a filter whose zone maps skip every morsel, a reduce above a
//! join and one above a typed unnest (JSON).

use std::cmp::Ordering;
use std::path::PathBuf;
use std::sync::Arc;

use proteus::algebra::BinaryOp;
use proteus::core::EngineError;
use proteus::datagen::writers;
use proteus::plugins::binary::ColumnPlugin;
use proteus::prelude::*;
use proteus::storage::ColumnData;

const TWO_53: i64 = 1 << 53;
/// Rows of the narrow table `t`: four morsels, the last one short.
const T_ROWS: i64 = 3 * 1024 + 100;
/// Rows of the wide table `w`: enough for a 65 537-value key.
const W_ROWS: i64 = 65_600;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    Columns,
    Rows,
    Csv,
    Json,
    /// CSV data served from the engine's binary caches.
    Cache,
}

impl Source {
    /// Text formats carry nulls and missing fields; binary ones cannot.
    fn nulls(self) -> bool {
        matches!(self, Source::Csv | Source::Json)
    }

    /// NaN survives the binary formats only.
    fn nans(self) -> bool {
        matches!(self, Source::Columns | Source::Rows)
    }
}

/// The numeric payload: ints with nulls, floats with NaN, ±0.0 and nulls —
/// all multiples of ¼ well inside 2⁵³, so every sum is exact in any order.
fn payload(source: Source, i: i64) -> Vec<(&'static str, Value)> {
    let v = if source.nulls() && i % 7 == 0 {
        Value::Null
    } else {
        Value::Int((i * 31) % 200 - 100)
    };
    let floats = [0.25, -0.0, 0.0, 1.5, -3.75, f64::NAN];
    let x = match floats[(i % 6) as usize] {
        f if f.is_nan() && !source.nans() => 2.0,
        f => f,
    };
    let x = if source.nulls() && i % 11 == 0 {
        Value::Null
    } else {
        Value::Float(x)
    };
    vec![("v", v), ("x", x)]
}

/// Table `t`: `g`∈[-7,5] and `h`∈[-2,1] (negative minimums), `c` = 42 (one
/// value), `n`∈[0,2] with nulls and missing fields where the format has
/// them, `b` around 2⁵³ (2⁵³ and 2⁵³+1 are one group under `value_eq`).
/// The hashed-only keys: `s`, 37 non-empty strings recurring in every
/// morsel; `f`, floats with ±0.0, NaN (binary formats) and nulls (text
/// formats); `q`, a bool.
fn t_rows(source: Source) -> Vec<Value> {
    (0..T_ROWS)
        .map(|i| {
            let floats = [1.5, -0.0, 0.0, f64::NAN, -2.25];
            let f = match floats[(i % 5) as usize] {
                _ if source.nulls() && i % 9 == 4 => Value::Null,
                f if f.is_nan() && !source.nans() => Value::Float(3.5),
                f => Value::Float(f),
            };
            let mut fields = vec![
                ("g", Value::Int((i * 7) % 13 - 7)),
                ("h", Value::Int(i % 4 - 2)),
                ("c", Value::Int(42)),
                ("b", Value::Int(TWO_53 - 1 + i % 4)),
                ("s", Value::str(format!("s{}", (i * 11) % 37))),
                ("f", f),
                ("q", Value::Bool(i % 3 == 0)),
            ];
            match (source.nulls(), i % 10) {
                (true, 3) => {}
                (true, 5) => fields.push(("n", Value::Null)),
                _ => fields.push(("n", Value::Int(i % 3))),
            }
            fields.extend(payload(source, i));
            if source == Source::Json {
                // Zero to three elements: the typed unnest's input.
                let items = (0..i % 4)
                    .map(|k| Value::record(vec![("qty", Value::Int((i + k) % 9 - 4))]))
                    .collect();
                fields.push(("items", Value::List(items)));
            }
            Value::record(fields)
        })
        .collect()
}

/// Table `w`: `w0`∈[0,65 535] (65 536 slots) and `w1`∈[-1,65 535] (65 537).
fn w_rows(source: Source) -> Vec<Value> {
    (0..W_ROWS)
        .map(|i| {
            let mut fields = vec![
                ("w0", Value::Int(i % 65_536)),
                ("w1", Value::Int(i % 65_537 - 1)),
            ];
            fields.extend(payload(source, i));
            Value::record(fields)
        })
        .collect()
}

fn schema_of(names: &[&str]) -> Schema {
    Schema::from_pairs(
        names
            .iter()
            .map(|&n| {
                let data_type = match n {
                    "x" | "f" => DataType::Float,
                    "s" => DataType::String,
                    "q" => DataType::Bool,
                    _ => DataType::Int,
                };
                (n, data_type)
            })
            .collect(),
    )
}

fn t_schema() -> Schema {
    schema_of(&["g", "h", "c", "b", "s", "f", "q", "n", "v", "x"])
}

fn w_schema() -> Schema {
    schema_of(&["w0", "w1", "v", "x"])
}

fn columns_of(name: &str, rows: &[Value], schema: &Schema) -> ColumnPlugin {
    let columns = schema
        .fields()
        .iter()
        .map(|f| {
            let mut data = ColumnData::empty_of(&f.data_type);
            for row in rows {
                data.push_value(row.as_record().unwrap().get(&f.name).unwrap())
                    .unwrap();
            }
            (f.name.clone(), data)
        })
        .collect();
    ColumnPlugin::from_pairs(name, columns).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("proteus_group_ids_{}", std::process::id()))
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
        Source::Csv | Source::Cache => {
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

/// The generated records as the reference interpreter reads them: as
/// written, except that a CSV file cannot hold an empty string — its scan
/// reads one as null (the generator writes none; the rule is kept here so
/// the reference never depends on the engine's scan).
fn reference_rows(source: Source, records: &[Value]) -> Vec<Value> {
    if !matches!(source, Source::Csv | Source::Cache) {
        return records.to_vec();
    }
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

fn aggregates(alias: &str) -> Vec<ReduceSpec> {
    let path = |field: &str| Expr::path(&format!("{alias}.{field}"));
    vec![
        ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
        ReduceSpec::new(Monoid::Sum, path("v"), "sum_v"),
        ReduceSpec::new(Monoid::Avg, path("v"), "avg_v"),
        ReduceSpec::new(Monoid::Min, path("v"), "min_v"),
        ReduceSpec::new(Monoid::Max, path("v"), "max_v"),
        ReduceSpec::new(Monoid::Sum, path("x"), "sum_x"),
        ReduceSpec::new(Monoid::Avg, path("x"), "avg_x"),
        ReduceSpec::new(Monoid::Min, path("x"), "min_x"),
        ReduceSpec::new(Monoid::Max, path("x"), "max_x"),
    ]
}

/// One key shape: its table, keys, an optional filter, and whether a
/// bounded source groups it by dense ids.
struct Shape {
    label: &'static str,
    table: &'static str,
    keys: &'static [&'static str],
    empty: bool,
    dense: bool,
}

const SHAPES: &[Shape] = &[
    Shape {
        label: "negative minimums",
        table: "t",
        keys: &["g", "h"],
        empty: false,
        dense: true,
    },
    Shape {
        label: "one-value domain",
        table: "t",
        keys: &["c"],
        empty: false,
        dense: true,
    },
    Shape {
        label: "null and missing keys",
        table: "t",
        keys: &["n", "h"],
        empty: false,
        dense: true,
    },
    Shape {
        label: "ints beyond 2^53",
        table: "t",
        keys: &["b"],
        empty: false,
        dense: false,
    },
    Shape {
        label: "span of 65 536",
        table: "w",
        keys: &["w0"],
        empty: false,
        dense: true,
    },
    Shape {
        label: "span of 65 537",
        table: "w",
        keys: &["w1"],
        empty: false,
        dense: false,
    },
    Shape {
        label: "empty input",
        table: "t",
        keys: &["g", "h"],
        empty: true,
        dense: true,
    },
    Shape {
        label: "string key across morsels",
        table: "t",
        keys: &["s"],
        empty: false,
        dense: false,
    },
    Shape {
        label: "float key with signed zeros, NaN and nulls",
        table: "t",
        keys: &["f"],
        empty: false,
        dense: false,
    },
    Shape {
        label: "bool key",
        table: "t",
        keys: &["q"],
        empty: false,
        dense: false,
    },
    Shape {
        label: "string and nullable int",
        table: "t",
        keys: &["s", "n"],
        empty: false,
        dense: false,
    },
];

fn plan_of(shape: &Shape) -> LogicalPlan {
    let alias = shape.table;
    let mut input = LogicalPlan::scan(alias, alias, Schema::empty());
    if shape.empty {
        input = input.select(Expr::path(&format!("{alias}.v")).gt(Expr::int(1_000)));
    }
    input.nest(
        shape
            .keys
            .iter()
            .map(|k| Expr::path(&format!("{alias}.{k}")))
            .collect(),
        shape.keys.iter().map(|k| k.to_string()).collect(),
        aggregates(alias),
    )
}

/// Table `e`: no rows at all.
fn e_schema() -> Schema {
    schema_of(&["g", "v", "x"])
}

/// Table `d`, a small join side: `k`∈[-2,17], `y` a float.
fn d_rows() -> Vec<Value> {
    (0..20i64)
        .map(|i| {
            Value::record(vec![
                ("k", Value::Int(i - 2)),
                ("y", Value::Float(i as f64 * 0.75 - 4.0)),
            ])
        })
        .collect()
}

fn d_schema() -> Schema {
    Schema::from_pairs(vec![("k", DataType::Int), ("y", DataType::Float)])
}

/// One no-`GROUP BY` shape of the sweep.
struct Keyless {
    label: &'static str,
    plan: LogicalPlan,
    /// The typed engine folds rows on the aggregate kernels.
    kernel_rows: bool,
    /// A join sits below the reduce (its probe counts hash probes).
    joins: bool,
    /// The filter's zone maps rule out every morsel: `COUNT` 0, `MIN` null.
    skips_every_morsel: bool,
    /// A line the typed engine's IR must hold.
    ir: Option<&'static str>,
}

/// The scalar monoids over `t`'s payload (NaN, ±0.0 and nulls where the
/// format holds them) and its float and bool keys, `and` / `or` over a
/// bool field and over comparisons.
fn scalar_aggregates() -> Vec<ReduceSpec> {
    let path = Expr::path;
    let mut specs = aggregates("t");
    specs.extend([
        ReduceSpec::new(Monoid::Sum, path("t.f"), "sum_f"),
        ReduceSpec::new(Monoid::Avg, path("t.f"), "avg_f"),
        ReduceSpec::new(Monoid::Min, path("t.f"), "min_f"),
        ReduceSpec::new(Monoid::Max, path("t.f"), "max_f"),
        ReduceSpec::new(Monoid::And, path("t.q"), "all_q"),
        ReduceSpec::new(Monoid::Or, path("t.q"), "any_q"),
        ReduceSpec::new(Monoid::And, path("t.h").gt(Expr::int(-3)), "all_h"),
        ReduceSpec::new(Monoid::Or, path("t.g").gt(Expr::int(4)), "any_g"),
    ]);
    specs
}

fn keyless_cases(source: Source) -> Vec<Keyless> {
    let scan = |table: &str| LogicalPlan::scan(table, table, Schema::empty());
    let case = |label, plan, kernel_rows| Keyless {
        label,
        plan,
        kernel_rows,
        joins: false,
        skips_every_morsel: false,
        ir: None,
    };
    let mut cases = vec![
        case(
            "every scalar monoid",
            scan("t").reduce(scalar_aggregates()),
            true,
        ),
        // `set` meets the same 200 values in every morsel and worker.
        case(
            "bag, set and list",
            scan("t").reduce(vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Bag, Expr::path("t.x"), "bag_x"),
                ReduceSpec::new(Monoid::Set, Expr::path("t.v"), "set_v"),
                ReduceSpec::new(Monoid::List, Expr::path("t.s"), "list_s"),
            ]),
            true,
        ),
        // `h > -2` runs on the kernels, `g % 3 = 0` stays a closure.
        case(
            "kernel predicate and closure residual",
            scan("t")
                .select(Expr::path("t.h").gt(Expr::int(-2)).and(
                    Expr::binary(BinaryOp::Mod, Expr::path("t.g"), Expr::int(3)).eq(Expr::int(0)),
                ))
                .reduce(scalar_aggregates()),
            true,
        ),
        case("empty table", scan("e").reduce(aggregates("e")), false),
        Keyless {
            skips_every_morsel: true,
            ..case(
                "zone maps skip every morsel",
                scan("t")
                    .select(Expr::path("t.g").gt(Expr::int(100)))
                    .reduce(aggregates("t")),
                false,
            )
        },
        Keyless {
            joins: true,
            ..case(
                "above a join",
                scan("t")
                    .join(
                        scan("d"),
                        Expr::path("t.g").eq(Expr::path("d.k")),
                        JoinKind::Inner,
                    )
                    .reduce(vec![
                        ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                        ReduceSpec::new(Monoid::Sum, Expr::path("t.v"), "sum_tv"),
                        ReduceSpec::new(Monoid::Sum, Expr::path("d.y"), "sum_dy"),
                        ReduceSpec::new(Monoid::Min, Expr::path("t.x"), "min_tx"),
                        ReduceSpec::new(Monoid::Max, Expr::path("d.y"), "max_dy"),
                        ReduceSpec::new(Monoid::Avg, Expr::path("t.f"), "avg_tf"),
                    ]),
                true,
            )
        },
    ];
    if source == Source::Json {
        cases.push(Keyless {
            ir: Some("typed expand [qty]"),
            ..case(
                "above a typed unnest",
                scan("t").unnest(Path::parse("t.items"), "i").reduce(vec![
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ReduceSpec::new(Monoid::Sum, Expr::path("i.qty"), "sum_qty"),
                    ReduceSpec::new(Monoid::Max, Expr::path("i.qty"), "max_qty"),
                    ReduceSpec::new(Monoid::Sum, Expr::path("t.x"), "sum_x"),
                    ReduceSpec::new(Monoid::List, Expr::path("i.qty"), "qtys"),
                ]),
                true,
            )
        });
    }
    cases
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

fn sweep(source: Source) {
    let (t, w) = (t_rows(source), w_rows(source));
    for workers in [1, 4] {
        let base = match source {
            Source::Cache => EngineConfig::default(),
            _ => EngineConfig::without_caching(),
        };
        let typed = QueryEngine::new(base.with_parallelism(workers));
        let closures = QueryEngine::new(
            EngineConfig::without_caching()
                .with_vectorized(false)
                .with_parallelism(workers),
        );
        for engine in [&typed, &closures] {
            register(engine, source, "t", &t, &t_schema());
            register(engine, source, "w", &w, &w_schema());
            register(engine, source, "e", &[], &e_schema());
            register(engine, source, "d", &d_rows(), &d_schema());
        }
        let read = [
            ("t", reference_rows(source, &t)),
            ("w", reference_rows(source, &w)),
            ("e", Vec::new()),
            ("d", d_rows()),
        ];
        for shape in SHAPES {
            let what = format!("{source:?}, {workers} workers, {}", shape.label);
            let plan = proteus::algebra::rewrite::rewrite(plan_of(shape));
            if source == Source::Cache {
                // The first run builds the caches the measured one reads.
                typed.execute_plan(plan.clone()).unwrap();
            }
            let fast = typed.execute_plan(plan.clone()).unwrap();
            let slow = closures.execute_plan(plan.clone()).unwrap();
            // The cache holds numeric fields only: a string or bool key is
            // read from the CSV beside the cached payload.
            let numeric_keys = shape.keys.iter().all(|k| !matches!(*k, "s" | "q"));
            if source == Source::Cache && numeric_keys {
                assert!(
                    fast.access_paths
                        .iter()
                        .any(|p| p.contains("served from caches")),
                    "{what}: not served from the cache: {:?}",
                    fast.access_paths
                );
            } else if source == Source::Cache {
                let cached = format!("{}.v := readValue(cache)", shape.table);
                assert!(fast.ir.contains(&cached), "{what}: {}", fast.ir);
            }
            // Every source bounds its keys: binary columns record zone maps
            // at load; binary rows, CSV and JSON derive them from their
            // typed fills.
            let dense = shape.dense;
            let ids = if dense { "dense ids" } else { "hashed ids" };
            assert!(
                fast.ir.contains(ids),
                "{what}: expected {ids} in\n{}",
                fast.ir
            );
            assert!(slow.ir.contains("hashed ids"), "{what}: {}", slow.ir);
            assert_eq!(fast.metrics.agg_kernel_rows > 0, !shape.empty, "{what}");
            assert_eq!(slow.metrics.agg_kernel_rows, 0, "{what}");
            // Dense ids take no hash probe; hashed ids one per input row.
            assert_eq!(
                fast.metrics.hash_probes == 0,
                dense || shape.empty,
                "{what}: {} hash probes",
                fast.metrics.hash_probes
            );
            assert_same_rows(
                &fast.rows,
                &slow.rows,
                &format!("{what}: typed vs closures"),
            );
            let table = &read
                .iter()
                .find(|(name, _)| *name == shape.table)
                .unwrap()
                .1;
            let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
            catalog.register(shape.table, table.clone());
            let expected = proteus::algebra::interp::execute(&plan, &catalog).unwrap();
            assert_same_rows(
                &sorted(fast.rows),
                &sorted(expected),
                &format!("{what}: typed vs interpreter"),
            );
        }
        for case in keyless_cases(source) {
            let what = format!("{source:?}, {workers} workers, no keys: {}", case.label);
            let plan = proteus::algebra::rewrite::rewrite(case.plan);
            if source == Source::Cache {
                typed.execute_plan(plan.clone()).unwrap();
            }
            let fast = typed.execute_plan(plan.clone()).unwrap();
            let slow = closures.execute_plan(plan.clone()).unwrap();
            assert_eq!(fast.rows.len(), 1, "{what}: one row");
            assert_eq!(
                fast.metrics.agg_kernel_rows > 0,
                case.kernel_rows,
                "{what}: {} kernel rows",
                fast.metrics.agg_kernel_rows
            );
            assert_eq!(slow.metrics.agg_kernel_rows, 0, "{what}");
            // One group over zero keys needs no hash: only a join probes.
            if !case.joins {
                assert_eq!(fast.metrics.hash_probes, 0, "{what}");
                assert_eq!(slow.metrics.hash_probes, 0, "{what}");
            }
            if let Some(line) = case.ir {
                assert!(fast.ir.contains(line), "{what}: {}", fast.ir);
            }
            if case.skips_every_morsel {
                assert_eq!(
                    fast.metrics.morsels_skipped, fast.metrics.morsels,
                    "{what}: every morsel skipped"
                );
                let row = fast.rows[0].as_record().unwrap();
                assert_eq!(row.get("cnt"), Some(&Value::Int(0)), "{what}");
                assert_eq!(row.get("min_v"), Some(&Value::Null), "{what}");
            }
            assert_same_rows(
                &fast.rows,
                &slow.rows,
                &format!("{what}: typed vs closures"),
            );
            let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
            for (name, rows) in &read {
                catalog.register(*name, rows.clone());
            }
            let expected = proteus::algebra::interp::execute(&plan, &catalog).unwrap();
            assert_same_rows(
                &fast.rows,
                &expected,
                &format!("{what}: typed vs interpreter"),
            );
        }
    }
}

#[test]
fn dense_ids_equal_hashed_ids_over_binary_columns() {
    sweep(Source::Columns);
}

#[test]
fn dense_ids_equal_hashed_ids_over_binary_rows() {
    sweep(Source::Rows);
}

#[test]
fn dense_ids_equal_hashed_ids_over_csv() {
    sweep(Source::Csv);
}

#[test]
fn dense_ids_equal_hashed_ids_over_json() {
    sweep(Source::Json);
}

#[test]
fn dense_ids_equal_hashed_ids_over_a_cache_entry() {
    sweep(Source::Cache);
}

/// A zero-row table has no bounds: hashed ids, no rows, on both tiers.
#[test]
fn a_table_without_rows_groups_to_nothing() {
    let plugin = ColumnPlugin::from_pairs(
        "e",
        vec![
            ("g".to_string(), ColumnData::Int(Vec::new())),
            ("v".to_string(), ColumnData::Int(Vec::new())),
        ],
    )
    .unwrap();
    for vectorized in [true, false] {
        let engine = QueryEngine::new(EngineConfig::without_caching().with_vectorized(vectorized));
        engine.register_plugin(Arc::new(plugin.clone()));
        let result = engine
            .sql("SELECT g, COUNT(*), SUM(v) FROM e GROUP BY g")
            .unwrap();
        assert!(result.rows.is_empty());
        assert!(result.ir.contains("hashed ids"), "{}", result.ir);
    }
}

/// A `fact`-like binary table: the IR names the dense id space of
/// `GROUP BY g, h`, and a key spanning more than 65 536 values stays hashed.
#[test]
fn explain_names_the_group_id_strategy() {
    let rows = 20_000i64;
    let plugin = ColumnPlugin::from_pairs(
        "fact",
        vec![
            (
                "g".to_string(),
                ColumnData::Int((0..rows).map(|i| i % 1_000).collect()),
            ),
            (
                "h".to_string(),
                ColumnData::Int((0..rows).map(|i| (i / 1_000) % 16).collect()),
            ),
            (
                "id".to_string(),
                ColumnData::Int((0..rows).map(|i| i * 7).collect()),
            ),
            (
                "v".to_string(),
                ColumnData::Float((0..rows).map(|i| i as f64).collect()),
            ),
        ],
    )
    .unwrap();
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine.register_plugin(Arc::new(plugin.clone()));
    // The key bounds come from the zone maps whether or not the scan skips
    // morsels with them.
    let unskipping = QueryEngine::new(EngineConfig::without_caching().with_morsel_skipping(false));
    unskipping.register_plugin(Arc::new(plugin));
    for engine in [&engine, &unskipping] {
        let dense = engine
            .sql("SELECT g, h, COUNT(*), SUM(v) FROM fact GROUP BY g, h")
            .unwrap();
        assert!(
            dense
                .ir
                .contains("dense ids g∈[0,999] × h∈[0,15] (16 000 slots)"),
            "{}",
            dense.ir
        );
        assert_eq!(dense.rows.len(), 16_000);
        assert_eq!(dense.metrics.hash_probes, 0);
    }
    // `id` spans 0..=139 993: far more than 65 536 slots.
    let hashed = engine
        .sql("SELECT id, COUNT(*) FROM fact GROUP BY id")
        .unwrap();
    assert!(hashed.ir.contains("hashed ids"), "{}", hashed.ir);
    assert_eq!(hashed.metrics.hash_probes, rows as u64);
}

/// JSON objects without a shared layout: the schema is the union of every
/// object's top-level fields, so a field the first object lacks still gets
/// a typed fill, and a group-by on it ingests typed keys.
#[test]
fn a_json_field_missing_from_the_first_object_groups_typed() {
    let path = scratch("json_union").join("late.json");
    let mut text = String::from("{\"v\": 1.5}\n");
    for i in 0..3_000 {
        text.push_str(&format!(
            "{{\"v\": {}, \"n\": {}}}\n",
            i as f64 / 4.0,
            i % 7
        ));
    }
    std::fs::write(&path, text).unwrap();
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine.register_json("late", &path).unwrap();
    let schema = engine.registry().schema_of("late").unwrap();
    assert_eq!(schema.names(), vec!["v", "n"]);
    assert_eq!(schema.field("n").unwrap().data_type, DataType::Int);
    let query = "SELECT n, COUNT(*), SUM(v) FROM late GROUP BY n";
    let explained = engine.explain_sql(query).unwrap();
    assert!(explained.contains("typed key ingest"), "{explained}");
    let result = engine.sql(query).unwrap();
    // Seven values of `n` plus the first object's missing one.
    assert_eq!(result.rows.len(), 8);
    let closures = QueryEngine::new(EngineConfig::without_caching().with_vectorized(false));
    closures.register_json("late", &path).unwrap();
    assert_eq!(result.rows, closures.sql(query).unwrap().rows);
}

/// The dense state is debited at the `group table` site before it is
/// allocated: a budget smaller than the id space fails the query, and the
/// next query on the same engine still answers.
#[test]
fn a_dense_group_state_over_the_budget_fails_and_the_next_query_answers() {
    let rows = 70_000i64;
    let plugin = ColumnPlugin::from_pairs(
        "w",
        vec![
            (
                "w0".to_string(),
                ColumnData::Int((0..rows).map(|i| i % 65_536).collect()),
            ),
            ("v".to_string(), ColumnData::Int((0..rows).collect())),
        ],
    )
    .unwrap();
    for workers in [1, 4] {
        let engine = QueryEngine::new(
            EngineConfig::without_caching()
                .with_parallelism(workers)
                .with_memory_budget(64 * 1024),
        );
        engine.register_plugin(Arc::new(plugin.clone()));
        match engine.sql("SELECT w0, COUNT(*), SUM(v) FROM w GROUP BY w0") {
            Err(EngineError::ResourceExhausted {
                site,
                used_bytes,
                budget_bytes,
            }) => {
                assert_eq!(site, "group table", "{workers} workers");
                assert!(used_bytes > budget_bytes);
            }
            other => panic!("{workers} workers: expected ResourceExhausted, got {other:?}"),
        }
        let count = engine.sql("SELECT COUNT(*) FROM w").unwrap();
        assert_eq!(
            count.scalar("count_0"),
            Some(Value::Int(rows)),
            "{workers} workers"
        );
    }
}
