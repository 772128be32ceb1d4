//! # proteus
//!
//! Umbrella crate of the Proteus reproduction (*Fast Queries Over
//! Heterogeneous Data Through Engine Customization*, VLDB 2016). It
//! re-exports the public API of the workspace crates so applications can
//! depend on a single crate.
//!
//! **Architecture:** `ARCHITECTURE.md` at the repository root explains the
//! five execution tiers (zone-map skipping → closure interpreter → morsel
//! pipelines → typed bitmask kernels → typed sinks/joins), the kernel ≡
//! closure bit-exactness contract, and the per-operator eligibility rules;
//! `BENCHMARKS.md` maps every `BENCH_*.json` report to its paper figure.
//! `cargo run --release --example vectorized_pipeline` shows the tiers
//! engaging on live queries.
//!
//! ```no_run
//! use proteus::prelude::*;
//!
//! let engine = QueryEngine::with_defaults();
//! engine.register_json("sailors", "sailors.json").unwrap();
//! let result = engine
//!     .comprehension("for { s <- sailors, c <- s.children, c.age > 18 } yield count")
//!     .unwrap();
//! println!("{}", result.rows[0]);
//! ```

pub use proteus_algebra as algebra;
pub use proteus_baselines as baselines;
pub use proteus_core as core;
pub use proteus_datagen as datagen;
pub use proteus_optimizer as optimizer;
pub use proteus_plugins as plugins;
pub use proteus_service as service;
pub use proteus_storage as storage;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use proteus_algebra::{
        DataType, Expr, JoinKind, LogicalPlan, Monoid, Path, ReduceSpec, Schema, Value,
    };
    pub use proteus_core::{EngineConfig, ExecutionMetrics, QueryEngine, QueryResult};
    pub use proteus_plugins::csv::CsvOptions;
    pub use proteus_plugins::{InputPlugin, PluginRegistry};
    pub use proteus_storage::{CacheStore, MemoryManager, SourceFormat};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_engine_and_algebra() {
        let engine = QueryEngine::new(EngineConfig::without_caching());
        assert!(engine.sql("SELECT COUNT(*) FROM missing").is_err());
        let plan = LogicalPlan::scan("t", "t", Schema::empty());
        assert_eq!(plan.name(), "Scan");
    }
}
