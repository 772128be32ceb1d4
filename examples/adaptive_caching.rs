//! Demonstrates §6: caches built as a side-effect of execution speed up later
//! queries over verbose formats (each cached field is read from its cache
//! entry instead of the raw file), and updates invalidate affected caches.
//!
//! Run with: `cargo run --example adaptive_caching --release`

use std::time::Instant;

use proteus::datagen::tpch::{TpchGenerator, TpchScale};
use proteus::datagen::writers;
use proteus::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("proteus_example_caching");
    std::fs::create_dir_all(&dir).unwrap();
    let mut generator = TpchGenerator::new(TpchScale::from_env(0.5));
    let (_, lineitems) = generator.generate();
    writers::write_json(dir.join("lineitem.json"), &lineitems, true).unwrap();

    let query = "SELECT COUNT(*), MAX(l_quantity), SUM(l_extendedprice) \
                 FROM lineitem WHERE l_orderkey < 200";

    // Caching disabled: every query pays the JSON navigation cost.
    let cold = QueryEngine::new(EngineConfig::without_caching());
    cold.register_json("lineitem", dir.join("lineitem.json"))
        .unwrap();
    let start = Instant::now();
    let baseline = cold.sql(query).unwrap();
    let baseline_time = start.elapsed();

    // Caching enabled: the first query populates binary caches of the numeric
    // fields it touches; the second is served from them.
    let adaptive = QueryEngine::with_defaults();
    adaptive
        .register_json("lineitem", dir.join("lineitem.json"))
        .unwrap();
    let start = Instant::now();
    let first = adaptive.sql(query).unwrap();
    let first_time = start.elapsed();
    let start = Instant::now();
    let second = adaptive.sql(query).unwrap();
    let second_time = start.elapsed();

    assert_eq!(baseline.rows, second.rows);
    println!("result: {}", second.rows[0]);
    println!(
        "caching disabled:          {:.2} ms",
        baseline_time.as_secs_f64() * 1e3
    );
    println!(
        "caching enabled, 1st run:  {:.2} ms ({} values cached)",
        first_time.as_secs_f64() * 1e3,
        first.metrics.cached_values
    );
    println!(
        "caching enabled, 2nd run:  {:.2} ms (speed-up {:.1}x)",
        second_time.as_secs_f64() * 1e3,
        baseline_time.as_secs_f64() / second_time.as_secs_f64().max(1e-9)
    );
    println!("\naccess paths of the 2nd run:");
    for path in &second.access_paths {
        println!("  {path}");
    }
    println!("\ncache store: {:?}", adaptive.cache_stats());

    // Updates drop the affected caches; the next query rebuilds them.
    let dropped = adaptive.notify_update("lineitem");
    println!("\nafter an append to lineitem: {dropped} cache(s) invalidated");
    let rebuilt = adaptive.sql(query).unwrap();
    assert_eq!(rebuilt.rows, second.rows);
    println!("rebuilt cache store: {:?}", adaptive.cache_stats());
}
