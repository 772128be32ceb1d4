//! Micro-measurements backing the §7.1 prose claims: structural-index sizes
//! relative to the raw files (paper: ~21 %/15 % for TPC-H JSON, ~17 % for the
//! Symantec CSV), index construction vs. baseline loading time, engine
//! generation ("compile") time ≤ ~50 ms, and the software proxies for the
//! join micro-analysis (intermediate tuples, predicate evaluations, hash
//! probes). The "indexes" in the name are the plug-ins' structural indexes;
//! the engine keeps no secondary indexes — per-morsel zone maps are its only
//! Tier 0 access path.

use std::time::Instant;

use proteus_bench::harness::{BenchSetup, EngineKind, QueryTemplate};

fn main() {
    let setup = BenchSetup::tpch(proteus_bench::harness::default_scale());

    // --- Structural index sizes. ---
    let json_raw = std::fs::read(setup.dir.join("lineitem.json")).unwrap();
    let start = Instant::now();
    let json_plugin = proteus_plugins::json::JsonPlugin::from_bytes(
        "lineitem",
        bytes::Bytes::from(json_raw.clone()),
    )
    .unwrap();
    let json_index_time = start.elapsed();
    let json_index = json_plugin.structural_index();

    let csv_raw = std::fs::read(setup.dir.join("lineitem.csv")).unwrap();
    let start = Instant::now();
    let csv_plugin = proteus_plugins::csv::CsvPlugin::from_bytes(
        "lineitem",
        bytes::Bytes::from(csv_raw.clone()),
        proteus_datagen::tpch::TpchGenerator::lineitem_schema(),
        proteus_plugins::csv::CsvOptions::default(),
    )
    .unwrap();
    let csv_index_time = start.elapsed();

    println!("=== Structural indexes (section 7.1 prose) ===");
    println!(
        "JSON lineitem: file {} KiB, index {} KiB ({:.1}% of file), deterministic layout: {}, built in {:.1} ms",
        json_raw.len() / 1024,
        json_index.size_bytes() / 1024,
        100.0 * json_index.size_bytes() as f64 / json_raw.len() as f64,
        json_index.is_deterministic(),
        json_index_time.as_secs_f64() * 1e3
    );
    println!(
        "CSV lineitem:  file {} KiB, index {} KiB ({:.1}% of file), fixed layout: {}, built in {:.1} ms",
        csv_raw.len() / 1024,
        csv_plugin.structural_index().size_bytes() / 1024,
        100.0 * csv_plugin.structural_index().size_bytes() as f64 / csv_raw.len() as f64,
        csv_plugin.structural_index().is_fixed_layout(),
        csv_index_time.as_secs_f64() * 1e3
    );

    // --- Index construction vs. loading into a baseline. ---
    let start = Instant::now();
    let _ = setup.baseline(EngineKind::DocumentStore, true);
    let document_load = start.elapsed();
    let start = Instant::now();
    let _ = setup.baseline(EngineKind::RowStoreBinaryJson, true);
    let rowstore_load = start.elapsed();
    println!(
        "JSON first access: Proteus index build {:.1} ms vs document-store load {:.1} ms vs row-store load {:.1} ms",
        json_index_time.as_secs_f64() * 1e3,
        document_load.as_secs_f64() * 1e3,
        rowstore_load.as_secs_f64() * 1e3
    );

    // --- Engine generation time (paper: at most ~50 ms per query). ---
    let engine = setup.proteus_json(false);
    let mut worst = std::time::Duration::ZERO;
    for template in [
        QueryTemplate::Projection { aggregates: 4 },
        QueryTemplate::Selection { predicates: 4 },
        QueryTemplate::Join { aggregates: 3 },
        QueryTemplate::GroupBy { aggregates: 4 },
    ] {
        let result = engine
            .execute_plan(template.plan(setup.threshold(20)))
            .unwrap();
        worst = worst.max(result.metrics.compile_time);
    }
    println!(
        "\n=== Engine generation ===\nworst-case compile time over 4 templates: {:.3} ms (paper: <= ~50 ms)",
        worst.as_secs_f64() * 1e3
    );

    // --- Join micro-analysis proxies (paper: dTLB/LLC misses, branches). ---
    let plan = QueryTemplate::Join { aggregates: 1 }.plan(setup.threshold(20));
    let proteus_metrics = setup
        .proteus_binary()
        .execute_plan(plan.clone())
        .unwrap()
        .metrics;
    println!("\n=== Join micro-analysis proxies (20% selectivity, binary data) ===");
    println!(
        "Proteus:     intermediates={} predicate_evals={} hash_probes={}",
        proteus_metrics.intermediate_tuples,
        proteus_metrics.predicate_evals,
        proteus_metrics.hash_probes
    );
    println!(
        "(the materializing column store touches every column of every qualifying\n\
         intermediate result; Proteus pipelines the probe side, so its intermediate\n\
         count stays bounded by the build side — same direction as the paper's\n\
         40x fewer dTLB misses / 10x fewer LLC misses / 2x fewer branches)"
    );
}
