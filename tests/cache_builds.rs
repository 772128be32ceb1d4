//! Cache builds on the parallel kernel-tier scan.
//!
//! A query that builds a cache runs like any other scan: on every worker,
//! with its cached fields on the kernel tier. These tests pin what that must
//! not change — the building query's answer is the caching-off answer, and
//! the entry it registers is the same bits whatever the worker count — and
//! what a build under a memory budget does.

use proteus::core::EngineError;
use proteus::prelude::*;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("proteus_cache_builds").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` rows of `id` (the row number), `g` (a small int), `x` (a float
/// whose sums are exact in any order) and `z` (an int that is null in the
/// last row only, so it sits in the last morsel).
fn write_rows(dir: &std::path::Path, n: usize) {
    let mut csv = String::new();
    let mut json = String::new();
    for i in 0..n {
        let (g, x) = (i * 7 % 13, i as f64 * 0.5);
        let z = (i + 1 < n).then(|| (i % 5).to_string());
        csv.push_str(&format!("{i}|{g}|{x:?}|{}\n", z.as_deref().unwrap_or("")));
        json.push_str(&format!(
            "{{\"id\": {i}, \"g\": {g}, \"x\": {x:?}, \"z\": {}}}\n",
            z.as_deref().unwrap_or("null")
        ));
    }
    std::fs::write(dir.join("t.csv"), csv).unwrap();
    std::fs::write(dir.join("t.json"), json).unwrap();
}

fn register(engine: &QueryEngine, dir: &std::path::Path, format: &str) {
    match format {
        "json" => engine.register_json("t", dir.join("t.json")).unwrap(),
        _ => {
            let schema = Schema::from_pairs(vec![
                ("id", DataType::Int),
                ("g", DataType::Int),
                ("x", DataType::Float),
                ("z", DataType::Int),
            ]);
            engine
                .register_csv("t", dir.join("t.csv"), schema, CsvOptions::default())
                .unwrap()
        }
    }
}

/// The registered entries of `t`: per entry, its column names with their
/// bytes, and its OIDs.
type EntryBits = Vec<(Vec<(String, Vec<u8>)>, Vec<u64>)>;

fn entry_bits(engine: &QueryEngine) -> EntryBits {
    let mut entries: EntryBits = engine
        .caches()
        .caches_for_dataset("t")
        .iter()
        .map(|entry| {
            let columns = entry
                .columns()
                .iter()
                .map(|(name, column)| (name.clone(), column.to_bytes()))
                .collect();
            (columns, entry.oids().to_vec())
        })
        .collect();
    entries.sort();
    entries
}

const QUERY: &str = "SELECT COUNT(*), SUM(x), MAX(g), SUM(z) FROM t WHERE id >= 0";

#[test]
fn parallel_cache_builds_match_serial_ones() {
    for format in ["csv", "json"] {
        for rows in [0, 1, 1023, 1024, 1025, 5000] {
            let dir = scratch(&format!("grid_{format}_{rows}"));
            write_rows(&dir, rows);
            let mut serial_entries: Option<EntryBits> = None;
            for workers in [1, 2, 4] {
                let case = format!("{format}, {rows} rows, {workers} workers");
                let uncached =
                    QueryEngine::new(EngineConfig::without_caching().with_parallelism(workers));
                register(&uncached, &dir, format);
                let expected = uncached.sql(QUERY).unwrap().rows;

                let engine = QueryEngine::new(EngineConfig::default().with_parallelism(workers));
                register(&engine, &dir, format);
                let building = engine.sql(QUERY).unwrap();
                assert_eq!(building.rows, expected, "{case}: building run");
                if rows > 1024 && workers > 1 {
                    assert!(building.metrics.threads_used > 1, "{case}: ran serially");
                    assert!(building.metrics.kernel_rows > 0, "{case}: no kernel rows");
                }
                let entries = entry_bits(&engine);
                if rows == 0 {
                    assert!(entries.is_empty(), "{case}: an entry for no rows");
                } else {
                    // `z`'s one null is in the last morsel: only it is left
                    // out, whichever worker rendered that morsel.
                    assert_eq!(entries.len(), 1, "{case}");
                    let (columns, oids) = &entries[0];
                    let mut names: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
                    names.sort_unstable();
                    assert_eq!(names, ["g", "id", "x"], "{case}");
                    assert_eq!(*oids, (0..rows as u64).collect::<Vec<_>>(), "{case}");
                    let warm = engine.sql(QUERY).unwrap();
                    assert_eq!(warm.rows, expected, "{case}: warm run");
                    assert!(
                        warm.ir.contains(".x := readValue(cache)"),
                        "{case}: warm run"
                    );
                }
                match &serial_entries {
                    None => serial_entries = Some(entries),
                    Some(serial) => assert_eq!(&entries, serial, "{case}: entry bits"),
                }
            }
        }
    }
}

#[test]
fn a_cache_build_over_the_memory_budget_fails_and_registers_nothing() {
    let dir = scratch("budget");
    write_rows(&dir, 5000);
    for workers in [1, 2] {
        // Three cached fields take 8 B per value: 120 000 B of lanes for
        // 5 000 rows, against a budget far above the sink's state.
        let engine = QueryEngine::new(
            EngineConfig::default()
                .with_parallelism(workers)
                .with_memory_budget(32 << 10),
        );
        register(&engine, &dir, "csv");
        match engine.sql("SELECT COUNT(*), SUM(x) FROM t WHERE id >= 0 AND g >= 0") {
            Err(EngineError::ResourceExhausted { site, .. }) => {
                assert_eq!(site, "cache build", "{workers} workers")
            }
            other => panic!("{workers} workers: expected ResourceExhausted, got {other:?}"),
        }
        assert!(engine.caches().caches_for_dataset("t").is_empty());
        assert_eq!(engine.cache_stats().bytes, 0);
        // A query that builds nothing still runs on the same engine.
        let count = engine.sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count.rows.len(), 1);
        assert_eq!(count.scalar("count_0"), Some(Value::Int(5000)));
    }
}
