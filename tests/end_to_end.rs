//! End-to-end integration tests: the full pipeline (front-end → optimizer →
//! generated engine → plug-ins) over real files in every supported format,
//! checked against the reference interpreter and the baseline engines.

use proteus::baselines::{BaselineEngine, ColumnStoreEngine, DocumentStoreEngine, RowStoreEngine};
use proteus::datagen::tpch::{TpchGenerator, TpchScale};
use proteus::datagen::writers;
use proteus::prelude::*;

struct Fixture {
    dir: std::path::PathBuf,
    orders: Vec<Value>,
    lineitems: Vec<Value>,
}

fn fixture() -> Fixture {
    let dir = std::env::temp_dir().join("proteus_integration_tpch");
    let mut generator = TpchGenerator::new(TpchScale(0.05));
    let (orders, lineitems) = generator.generate();
    // The tests of this binary run in parallel over one directory: write
    // the (deterministic) files once, so no test reads a file another one
    // is rewriting.
    static FILES: std::sync::Once = std::sync::Once::new();
    FILES.call_once(|| write_files(&dir, &orders, &lineitems));
    Fixture {
        dir,
        orders,
        lineitems,
    }
}

fn write_files(dir: &std::path::Path, orders: &[Value], lineitems: &[Value]) {
    std::fs::create_dir_all(dir).unwrap();
    writers::write_json(dir.join("lineitem.json"), lineitems, true).unwrap();
    writers::write_json(dir.join("orders.json"), orders, true).unwrap();
    writers::write_csv(
        dir.join("lineitem.csv"),
        lineitems,
        &TpchGenerator::lineitem_schema(),
        '|',
    )
    .unwrap();
    writers::write_column_table(
        dir.join("lineitem_cols"),
        lineitems,
        &TpchGenerator::lineitem_schema(),
    )
    .unwrap();
    writers::write_column_table(
        dir.join("orders_cols"),
        orders,
        &TpchGenerator::orders_schema(),
    )
    .unwrap();
    writers::write_row_table(
        dir.join("orders.prow"),
        orders,
        &TpchGenerator::orders_schema(),
    )
    .unwrap();
}

fn reference(fixture: &Fixture, plan: &LogicalPlan) -> Vec<Value> {
    let mut catalog = proteus::algebra::interp::MemoryCatalog::new();
    catalog.register("lineitem", fixture.lineitems.clone());
    catalog.register("orders", fixture.orders.clone());
    proteus::algebra::interp::execute(plan, &catalog).unwrap()
}

fn count_plan(threshold: i64) -> LogicalPlan {
    LogicalPlan::scan("lineitem", "l", Schema::empty())
        .select(Expr::path("l.l_orderkey").lt(Expr::int(threshold)))
        .reduce(vec![
            ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ReduceSpec::new(Monoid::Max, Expr::path("l.l_quantity"), "maxq"),
        ])
}

#[test]
fn same_query_same_answer_across_all_formats() {
    let fx = fixture();
    let expected = reference(&fx, &count_plan(30));

    // JSON.
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_json("lineitem", fx.dir.join("lineitem.json"))
        .unwrap();
    assert_eq!(engine.execute_plan(count_plan(30)).unwrap().rows, expected);

    // CSV.
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_csv(
            "lineitem",
            fx.dir.join("lineitem.csv"),
            TpchGenerator::lineitem_schema(),
            CsvOptions::default(),
        )
        .unwrap();
    assert_eq!(engine.execute_plan(count_plan(30)).unwrap().rows, expected);

    // Binary columns.
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_columns("lineitem", fx.dir.join("lineitem_cols"))
        .unwrap();
    assert_eq!(engine.execute_plan(count_plan(30)).unwrap().rows, expected);
}

#[test]
fn cross_format_join_matches_reference() {
    let fx = fixture();
    let plan = LogicalPlan::scan("orders", "o", Schema::empty())
        .join(
            LogicalPlan::scan("lineitem", "l", Schema::empty()),
            Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
            JoinKind::Inner,
        )
        .select(Expr::path("l.l_orderkey").lt(Expr::int(40)))
        .reduce(vec![
            ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ReduceSpec::new(Monoid::Max, Expr::path("o.o_totalprice"), "max_total"),
        ]);
    let expected = reference(&fx, &plan);

    // JSON orders ⋈ binary lineitems (heterogeneous inputs in one query).
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_json("orders", fx.dir.join("orders.json"))
        .unwrap();
    engine
        .register_columns("lineitem", fx.dir.join("lineitem_cols"))
        .unwrap();
    assert_eq!(engine.execute_plan(plan.clone()).unwrap().rows, expected);

    // Binary rows orders ⋈ CSV lineitems.
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_rows("orders", fx.dir.join("orders.prow"))
        .unwrap();
    engine
        .register_csv(
            "lineitem",
            fx.dir.join("lineitem.csv"),
            TpchGenerator::lineitem_schema(),
            CsvOptions::default(),
        )
        .unwrap();
    assert_eq!(engine.execute_plan(plan).unwrap().rows, expected);
}

#[test]
fn proteus_agrees_with_every_baseline_engine() {
    let fx = fixture();
    let plan = LogicalPlan::scan("lineitem", "l", Schema::empty())
        .select(
            Expr::path("l.l_orderkey")
                .lt(Expr::int(50))
                .and(Expr::path("l.l_quantity").lt(Expr::int(40))),
        )
        .nest(
            vec![Expr::path("l.l_linenumber")],
            vec!["line".into()],
            vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Sum, Expr::path("l.l_extendedprice"), "revenue"),
            ],
        );

    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_columns("lineitem", fx.dir.join("lineitem_cols"))
        .unwrap();
    let proteus_rows = engine.execute_plan(plan.clone()).unwrap().rows;

    let checksum = |rows: &[Value]| -> (usize, i64) {
        let total: i64 = rows
            .iter()
            .map(|r| r.as_record().unwrap().get("cnt").unwrap().as_int().unwrap())
            .sum();
        (rows.len(), total)
    };

    let mut row_store = RowStoreEngine::postgres_like();
    row_store.load("lineitem", fx.lineitems.clone());
    assert_eq!(
        checksum(&row_store.execute(&plan).unwrap()),
        checksum(&proteus_rows)
    );

    let mut column_store = ColumnStoreEngine::monetdb_like();
    column_store.load("lineitem", fx.lineitems.clone());
    assert_eq!(
        checksum(&column_store.execute(&plan).unwrap()),
        checksum(&proteus_rows)
    );

    let mut sorted = ColumnStoreEngine::dbms_c_like();
    sorted.load_with_sort_key("lineitem", fx.lineitems.clone(), Some("l_orderkey"));
    assert_eq!(
        checksum(&sorted.execute(&plan).unwrap()),
        checksum(&proteus_rows)
    );

    let mut documents = DocumentStoreEngine::new();
    documents.load("lineitem", fx.lineitems.clone());
    assert_eq!(
        checksum(&documents.execute(&plan).unwrap()),
        checksum(&proteus_rows)
    );
}

#[test]
fn caching_preserves_results_and_serves_second_query_from_cache() {
    let fx = fixture();
    let engine = QueryEngine::with_defaults();
    engine
        .register_json("lineitem", fx.dir.join("lineitem.json"))
        .unwrap();

    let q = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey < 40";
    let first = engine.sql(q).unwrap();
    assert!(first.metrics.cached_values > 0);
    let second = engine.sql(q).unwrap();
    assert_eq!(first.rows, second.rows);
    assert!(engine.cache_stats().entries >= 1);
    assert!(second
        .access_paths
        .iter()
        .any(|p| p.contains("cache") || p.contains("fully served")));
}

#[test]
fn sql_and_comprehension_front_ends_agree() {
    let fx = fixture();
    let engine = QueryEngine::new(EngineConfig::without_caching());
    engine
        .register_columns("lineitem", fx.dir.join("lineitem_cols"))
        .unwrap();

    let sql = engine
        .sql("SELECT COUNT(*) FROM lineitem WHERE l_orderkey < 25")
        .unwrap();
    let comp = engine
        .comprehension("for { l <- lineitem, l.l_orderkey < 25 } yield count")
        .unwrap();
    assert_eq!(
        sql.rows[0].as_record().unwrap().get_index(0).unwrap().1,
        comp.rows[0].as_record().unwrap().get_index(0).unwrap().1
    );
}

/// Empty CSV fields read as null on every tier — what `read_value` and the
/// bad-row policy's "empty fields are missing values" say — so a CSV file
/// and the same rows as JSON (`null`) answer alike.
#[test]
fn csv_empty_fields_read_as_null_on_every_tier() {
    let dir = std::env::temp_dir().join(format!("proteus_csv_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (DataType::Int, ["10", "30"], "5", Value::Int(10)),
        (DataType::Float, ["10.5", "30.5"], "5.0", Value::Float(10.5)),
        (
            DataType::String,
            ["\"10\"", "\"30\""],
            "'1'",
            Value::Str("10".into()),
        ),
    ];
    for (ty, [lo, hi], bound, min) in cases {
        let csv_path = dir.join(format!("{ty:?}.csv"));
        let json_path = dir.join(format!("{ty:?}.json"));
        let unquote = |s: &str| s.trim_matches('"').to_string();
        let csv = format!("1|{}\n2|\n3|{}\n", unquote(lo), unquote(hi));
        std::fs::write(&csv_path, csv).unwrap();
        let json = format!(
            "{{\"a\": 1, \"b\": {lo}}}\n{{\"a\": 2, \"b\": null}}\n{{\"a\": 3, \"b\": {hi}}}\n"
        );
        std::fs::write(&json_path, json).unwrap();
        let schema = Schema::from_pairs(vec![("a", DataType::Int), ("b", ty.clone())]);
        for vectorized in [true, false] {
            for parallelism in [1, 4] {
                let engine = QueryEngine::new(
                    EngineConfig {
                        vectorized,
                        ..EngineConfig::without_caching()
                    }
                    .with_parallelism(parallelism),
                );
                engine
                    .register_csv("c", &csv_path, schema.clone(), CsvOptions::default())
                    .unwrap();
                engine.register_json("j", &json_path).unwrap();
                let case = format!("{ty:?}, vectorized {vectorized}, {parallelism} workers");
                // The engine's COUNT(x) counts every input, so the non-null
                // count is asked for with IS NOT NULL.
                let answers = |table: &str| {
                    [
                        format!("SELECT MIN(b) FROM {table}"),
                        format!("SELECT COUNT(*) FROM {table} WHERE b IS NOT NULL"),
                        format!("SELECT COUNT(*) FROM {table} WHERE b < {bound}"),
                    ]
                    .map(|q| {
                        let rows = engine.sql(&q).unwrap().rows;
                        assert_eq!(rows.len(), 1, "{case}: {q}");
                        let record = rows[0].as_record().unwrap();
                        record.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>()
                    })
                };
                let csv = answers("c");
                let expected = [vec![min.clone()], vec![Value::Int(2)], vec![Value::Int(0)]];
                assert_eq!(csv, expected, "{case}");
                // A top-level JSON string field reads `""` for `null` (the one
                // documented divergence from `read_value`), so only the
                // numeric cases have a JSON twin that answers alike.
                if ty != DataType::String {
                    assert_eq!(csv, answers("j"), "{case}: CSV vs JSON");
                }
            }
        }
    }
}
