//! Filter-first raw scans: a scan whose spine leads with a kernel filter
//! renders its payload fields only for the rows the filter keeps.
//!
//! The sweep runs every query shape the split touches — a payload field that
//! is also a predicate field, a null-heavy payload, a closure residual over a
//! payload field, group-bys keyed on payload fields, and a filtered probe side
//! of a join — over all four formats, both tiers, one and four workers, and
//! selectivities of nothing, one row, half and everything. Answers are checked
//! against folds over the generated rows themselves (with the algebra's
//! monoid accumulators), never against another engine configuration: those
//! share the plug-ins, so they would agree with a shared bug.
//!
//! Beside it: a caching scan keeps its dense fill, and a `COUNT(*)` scan
//! reads no field at all.

use proteus::algebra::monoid::Accumulator;
use proteus::datagen::writers;
use proteus::prelude::*;

/// Three morsels, the last one partial.
const N: i64 = 2500;

/// One generated row. `n` is null in four rows of five.
struct Row {
    id: i64,
    g: i64,
    v: f64,
    n: Option<i64>,
    s: String,
}

fn rows() -> Vec<Row> {
    (0..N)
        .map(|i| Row {
            // A permutation of `0..N` (1543 is coprime with N), so a range
            // of ids is scattered over every morsel.
            id: i * 1543 % N,
            g: i * 7 % 13,
            // Quarters: every sum is exact whatever the fold order.
            v: (i % 97) as f64 * 0.25,
            n: (i % 5 == 0).then_some(i % 11 - 5),
            s: format!("s{}", i % 7),
        })
        .collect()
}

fn schema() -> Schema {
    Schema::from_pairs(vec![
        ("id", DataType::Int),
        ("g", DataType::Int),
        ("v", DataType::Float),
        ("n", DataType::Int),
        ("s", DataType::String),
    ])
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Format {
    Json,
    Csv,
    BinaryColumns,
    BinaryRows,
}

const FORMATS: [Format; 4] = [
    Format::Json,
    Format::Csv,
    Format::BinaryColumns,
    Format::BinaryRows,
];

impl Format {
    /// `n` as the format stores it: binary files have no nulls and write
    /// a null as `0`.
    fn n(self, row: &Row) -> Option<i64> {
        match self {
            Format::Json | Format::Csv => row.n,
            Format::BinaryColumns | Format::BinaryRows => Some(row.n.unwrap_or(0)),
        }
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("proteus_filter_first")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the rows as `t` in `format` (plus the binary `dim` table the join
/// probes) and registers both with `engine`.
fn register(engine: &QueryEngine, format: Format, rows: &[Row], dir: &std::path::Path) {
    let values: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::record(vec![
                ("id", Value::Int(r.id)),
                ("g", Value::Int(r.g)),
                ("v", Value::Float(r.v)),
                ("n", r.n.map_or(Value::Null, Value::Int)),
                ("s", Value::Str(r.s.clone())),
            ])
        })
        .collect();
    match format {
        Format::Json => {
            let path = dir.join("t.json");
            writers::write_json(&path, &values, false).unwrap();
            engine.register_json("t", &path).unwrap();
        }
        Format::Csv => {
            let path = dir.join("t.csv");
            writers::write_csv(&path, &values, &schema(), '|').unwrap();
            engine
                .register_csv("t", &path, schema(), CsvOptions::default())
                .unwrap();
        }
        Format::BinaryColumns => {
            let path = dir.join("t_cols");
            writers::write_column_table(&path, &values, &schema()).unwrap();
            engine.register_columns("t", &path).unwrap();
        }
        Format::BinaryRows => {
            let path = dir.join("t.prow");
            writers::write_row_table(&path, &values, &schema()).unwrap();
            engine.register_rows("t", &path).unwrap();
        }
    }
    let dim: Vec<Value> = (0..10)
        .map(|k| {
            Value::record(vec![
                ("k", Value::Int(k)),
                ("w", Value::Float(k as f64 * 1.5)),
            ])
        })
        .collect();
    let dim_schema = Schema::from_pairs(vec![("k", DataType::Int), ("w", DataType::Float)]);
    let path = dir.join("dim_cols");
    writers::write_column_table(&path, &dim, &dim_schema).unwrap();
    engine.register_columns("dim", &path).unwrap();
}

/// Folds `inputs` under each monoid: one output value per monoid.
fn fold(monoids: &[Monoid], inputs: impl Iterator<Item = Vec<Value>>) -> Vec<Value> {
    let mut accs: Vec<Accumulator> = monoids.iter().map(|m| Accumulator::zero(*m)).collect();
    for values in inputs {
        for ((acc, monoid), value) in accs.iter_mut().zip(monoids).zip(values) {
            acc.merge(*monoid, value).unwrap();
        }
    }
    accs.into_iter()
        .zip(monoids)
        .map(|(acc, monoid)| acc.finish(*monoid))
        .collect()
}

/// Groups `(key, inputs)` pairs and folds each group: one row per group,
/// the key first, sorted.
fn fold_groups(
    monoids: &[Monoid],
    inputs: impl Iterator<Item = (Value, Vec<Value>)>,
) -> Vec<Vec<Value>> {
    let mut groups: Vec<(Value, Vec<Vec<Value>>)> = Vec::new();
    for (key, values) in inputs {
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(values),
            None => groups.push((key, vec![values])),
        }
    }
    let mut out: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(key, members)| {
            let mut row = vec![key];
            row.extend(fold(monoids, members.into_iter()));
            row
        })
        .collect();
    sort_rows(&mut out);
    out
}

fn sort_rows(rows: &mut [Vec<Value>]) {
    rows.sort_by_key(|row| format!("{row:?}"));
}

/// The result rows as value lists, in field order, sorted.
fn result_rows(result: &QueryResult) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = result
        .rows
        .iter()
        .map(|row| {
            let record = row.as_record().unwrap();
            record.iter().map(|(_, v)| v.clone()).collect()
        })
        .collect();
    sort_rows(&mut rows);
    rows
}

/// The query shapes and their expected answers at the id threshold `below`.
fn cases(format: Format, rows: &[Row], below: i64) -> Vec<(String, Vec<Vec<Value>>)> {
    use Monoid::{Count, Max, Min, Sum};
    let kept = || rows.iter().filter(move |r| r.id < below);
    let n = |r: &Row| format.n(r).map_or(Value::Null, Value::Int);
    let one = || Value::Int(1);
    vec![
        // `id` is read by the filter and folded by the sink.
        (
            format!("SELECT COUNT(*), SUM(id), SUM(v) FROM t WHERE id < {below}"),
            vec![fold(
                &[Count, Sum, Sum],
                kept().map(|r| vec![one(), Value::Int(r.id), Value::Float(r.v)]),
            )],
        ),
        // A null-heavy payload.
        (
            format!("SELECT COUNT(*), SUM(n), MIN(n), MAX(v) FROM t WHERE id < {below}"),
            vec![fold(
                &[Count, Sum, Min, Max],
                kept().map(|r| vec![one(), n(r), n(r), Value::Float(r.v)]),
            )],
        ),
        // `%` has no kernel: the residual is a closure over a payload field
        // the sink also folds typed.
        (
            format!("SELECT COUNT(*), SUM(v), SUM(n) FROM t WHERE id < {below} AND n % 3 = 0"),
            vec![fold(
                &[Count, Sum, Sum],
                kept()
                    .filter(|r| format.n(r).is_some_and(|n| n % 3 == 0))
                    .map(|r| vec![one(), Value::Float(r.v), n(r)]),
            )],
        ),
        // Group keys rendered for the survivors only, numeric and string.
        (
            format!("SELECT g, COUNT(*), SUM(v) FROM t WHERE id < {below} GROUP BY g"),
            fold_groups(
                &[Count, Sum],
                kept().map(|r| (Value::Int(r.g), vec![one(), Value::Float(r.v)])),
            ),
        ),
        (
            format!("SELECT s, COUNT(*), SUM(n) FROM t WHERE id < {below} GROUP BY s"),
            fold_groups(
                &[Count, Sum],
                kept().map(|r| (Value::Str(r.s.clone()), vec![one(), n(r)])),
            ),
        ),
        // The filtered side probes with a payload key.
        (
            format!(
                "SELECT COUNT(*), SUM(d.w), SUM(e.v) FROM dim d JOIN t e ON d.k = e.g \
                 WHERE e.id < {below}"
            ),
            vec![fold(
                &[Count, Sum, Sum],
                kept()
                    .filter(|r| r.g < 10)
                    .map(|r| vec![one(), Value::Float(r.g as f64 * 1.5), Value::Float(r.v)]),
            )],
        ),
    ]
}

#[test]
fn filter_first_scans_answer_like_the_generated_rows() {
    let rows = rows();
    for format in FORMATS {
        let dir = scratch(&format!("{format:?}"));
        for vectorized in [true, false] {
            for workers in [1, 4] {
                let config = EngineConfig::without_caching()
                    .with_vectorized(vectorized)
                    .with_parallelism(workers);
                let engine = QueryEngine::new(config);
                register(&engine, format, &rows, &dir);
                // Nothing, one row, half, everything.
                for below in [0, 1, N / 2, N] {
                    for (sql, expected) in cases(format, &rows, below) {
                        let result = engine.sql(&sql).unwrap();
                        assert_eq!(
                            result_rows(&result),
                            expected,
                            "{format:?} vectorized={vectorized} workers={workers}: {sql}"
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A scan that builds a cache keeps its dense fill: the entry covers every
/// row, not the filter's survivors, and the warm rerun — served from the
/// entry, and split filter-first — gives the same answer.
#[test]
fn a_cache_building_scan_is_left_out_of_the_split() {
    let rows = rows();
    let dir = scratch("cache");
    let engine = QueryEngine::new(EngineConfig::default());
    register(&engine, Format::Json, &rows, &dir);
    let below = N / 50;
    let sql = format!("SELECT COUNT(*), SUM(v) FROM t WHERE id < {below}");
    let expected = vec![fold(
        &[Monoid::Count, Monoid::Sum],
        rows.iter()
            .filter(|r| r.id < below)
            .map(|r| vec![Value::Int(1), Value::Float(r.v)]),
    )];

    let cold = engine.sql(&sql).unwrap();
    assert_eq!(result_rows(&cold), expected);
    let entries = engine.caches().caches_for_dataset("t");
    assert!(!entries.is_empty(), "the cold run builds a cache");
    for entry in &entries {
        for (name, column) in entry.columns() {
            assert_eq!(column.len(), N as usize, "{name} covers every row");
        }
    }

    let warm = engine.sql(&sql).unwrap();
    assert!(warm.ir.contains("readValue(cache)"), "{}", warm.ir);
    assert_eq!(result_rows(&warm), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `COUNT(*)` references no field: the generated scan reads none — its IR
/// and access path name no field, the plug-in is asked for none — and it
/// still yields one binding per record.
#[test]
fn count_star_reads_no_field() {
    let rows = rows();
    for format in FORMATS {
        let dir = scratch(&format!("count_{format:?}"));
        for vectorized in [true, false] {
            let engine =
                QueryEngine::new(EngineConfig::without_caching().with_vectorized(vectorized));
            register(&engine, format, &rows, &dir);
            let result = engine.sql("SELECT COUNT(*) FROM t").unwrap();
            let label = format!("{format:?} vectorized={vectorized}");
            assert_eq!(result.scalar("count_0"), Some(Value::Int(N)), "{label}");
            assert!(!result.ir.contains("readValue"), "{label}: {}", result.ir);
            let plugin = engine.registry().get("t").unwrap();
            let no_field = plugin.generate(&[]).unwrap().access_path;
            assert_eq!(
                result.access_paths,
                vec![format!("t: {no_field}")],
                "{label}"
            );
            result.plan.visit(&mut |node| {
                if let LogicalPlan::Scan {
                    projected_fields, ..
                } = node
                {
                    assert_eq!(projected_fields, &Some(Vec::new()), "{label}");
                }
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
