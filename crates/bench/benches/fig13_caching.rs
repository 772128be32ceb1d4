//! Figure 13: effect of caching on a projection template and a selection
//! template over JSON data — "Baseline" (no caches) vs "Cached Predicate"
//! (the values used by the selection predicate were cached by a previous
//! query). The figure reports the speed-up of the cached run.

use std::time::Instant;

use proteus_bench::harness::{BenchSetup, QueryTemplate};

fn main() {
    let setup = BenchSetup::tpch(proteus_bench::harness::default_scale());
    println!("\n=== Figure 13: effect of caching (JSON) ===");
    println!(
        "{:<22}{:>12}{:>16}{:>16}{:>10}",
        "template", "selectivity", "baseline ms", "cached ms", "speedup"
    );
    let mut cache_bytes = 0;
    for (name, template) in [
        (
            "projection (4 agg)",
            QueryTemplate::Projection { aggregates: 4 },
        ),
        (
            "selection (4 pred)",
            QueryTemplate::Selection { predicates: 4 },
        ),
    ] {
        for pct in [10u32, 20, 50, 100] {
            let plan = template.plan(setup.threshold(pct));

            // Baseline: caching disabled.
            let baseline_engine = setup.proteus_json(false);
            let start = Instant::now();
            let baseline_rows = baseline_engine.execute_plan(plan.clone()).unwrap().rows;
            let baseline = start.elapsed();

            // Cached predicate: a previous query populated the caches; the
            // measured run reads predicate/projection values from them.
            let cached_engine = setup.proteus_json(true);
            let warm = template.plan(setup.threshold(10));
            cached_engine.execute_plan(warm).unwrap();
            let start = Instant::now();
            let cached_rows = cached_engine.execute_plan(plan).unwrap().rows;
            let cached = start.elapsed();
            cache_bytes = cache_bytes.max(cached_engine.cache_stats().bytes);

            assert!(
                proteus_bench::harness::checksums_agree(
                    proteus_bench::harness::checksum(&baseline_rows),
                    proteus_bench::harness::checksum(&cached_rows),
                ),
                "cached run must return identical results"
            );
            let speedup = baseline.as_secs_f64() / cached.as_secs_f64().max(1e-9);
            println!(
                "{:<22}{:>11}%{:>13.2} ms{:>13.2} ms{:>9.1}x",
                name,
                pct,
                baseline.as_secs_f64() * 1e3,
                cached.as_secs_f64() * 1e3,
                speedup
            );
        }
    }
    let file_bytes = std::fs::metadata(setup.dir.join("lineitem.json"))
        .unwrap()
        .len() as usize;
    println!(
        "largest cache: {} KiB, {:.1}% of the {} KiB lineitem.json",
        cache_bytes / 1024,
        100.0 * cache_bytes as f64 / file_bytes as f64,
        file_bytes / 1024
    );
}
