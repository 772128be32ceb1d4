//! # proteus-optimizer
//!
//! The query optimizer of the Proteus reproduction (§4, "Query
//! Optimization"). It follows the paper's three-step approach:
//!
//! 1. the front-ends normalize queries (selection pushdown, unnesting) —
//!    implemented in `proteus-algebra`;
//! 2. the algebraic plan goes through rule-based rewrites (also in
//!    `proteus-algebra::rewrite`);
//! 3. this crate adds the *cost-based* transformations: access-path
//!    selection and join re-ordering driven by statistics and cost formulas
//!    that the relevant input plug-ins provide. Caches (§6) are reused per
//!    scanned field by the code generator, not matched here.

pub mod catalog;
pub mod cost;
pub mod optimizer;
pub mod stats;

pub use catalog::Catalog;
pub use cost::{CostEstimate, CostModel};
pub use optimizer::{CacheRewrite, OptimizedPlan, Optimizer};
pub use stats::{zone_selectivity, zone_selectivity_eq, zone_selectivity_lt};
