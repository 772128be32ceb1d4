//! The optimizer driver: rule-based rewrites and cost-based join ordering,
//! in the bottom-up order the paper describes. Caches are not matched here:
//! they are reused per scanned field when the plan is compiled.

use proteus_algebra::rewrite::rewrite as rule_rewrite;
use proteus_algebra::{Expr, JoinKind, LogicalPlan};
use proteus_storage::CacheStore;

use crate::catalog::Catalog;
use crate::cost::{CostEstimate, CostModel};

/// A plan-subtree replacement by a cache. The optimizer no longer makes
/// any; kept only because the end-to-end benchmark still reads the list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheRewrite {
    /// Name of the cache that was spliced in.
    pub cache_name: String,
    /// Signature of the replaced subtree.
    pub replaced_signature: String,
}

/// The result of optimization: the final plan plus what happened to it.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The optimized plan, ready for code generation.
    pub plan: LogicalPlan,
    /// Cost estimate of the final plan.
    pub estimate: CostEstimate,
    /// Always empty: kept only because the end-to-end benchmark reads it.
    pub cache_rewrites: Vec<CacheRewrite>,
    /// True if cost-based join reordering swapped any join inputs.
    pub joins_reordered: bool,
}

/// The Proteus query optimizer.
#[derive(Clone)]
pub struct Optimizer {
    catalog: Catalog,
    cost_model: CostModel,
}

impl Optimizer {
    /// Creates an optimizer over a catalog.
    pub fn new(catalog: Catalog) -> Optimizer {
        let cost_model = CostModel::new(catalog.clone());
        Optimizer {
            catalog,
            cost_model,
        }
    }

    /// The catalog used for estimation.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cost model (exposed for the ablation benchmarks).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Optimizes a plan: rule-based rewrites, then cost-based join
    /// re-ordering, then a final projection-pushdown pass.
    ///
    /// `_caches` is ignored: kept only because the end-to-end benchmark
    /// passes it.
    pub fn optimize(&self, plan: LogicalPlan, _caches: Option<&CacheStore>) -> OptimizedPlan {
        let plan = rule_rewrite(plan);
        let (plan, joins_reordered) = self.reorder_joins(plan);
        let plan = proteus_algebra::rewrite::push_down_projections(plan);
        let estimate = self.cost_model.estimate(&plan);
        OptimizedPlan {
            plan,
            estimate,
            cache_rewrites: Vec::new(),
            joins_reordered,
        }
    }

    /// Bottom-up join re-ordering: for every inner join, build the hash table
    /// on the smaller (estimated) input. With the radix join both sides are
    /// materialized, but probing with the larger side touches the hash table
    /// more locally and mirrors the paper's bottom-up, statistics-driven
    /// strategy.
    fn reorder_joins(&self, plan: LogicalPlan) -> (LogicalPlan, bool) {
        let mut reordered = false;
        let plan = self.reorder_node(plan, &mut reordered);
        (plan, reordered)
    }

    fn reorder_node(&self, plan: LogicalPlan, reordered: &mut bool) -> LogicalPlan {
        match plan {
            LogicalPlan::Join {
                left,
                right,
                predicate,
                kind,
            } => {
                let left = self.reorder_node(*left, reordered);
                let right = self.reorder_node(*right, reordered);
                if kind == JoinKind::Inner {
                    let l = self.cost_model.estimate(&left);
                    let r = self.cost_model.estimate(&right);
                    if r.cardinality < l.cardinality {
                        *reordered = true;
                        return LogicalPlan::Join {
                            left: Box::new(right),
                            right: Box::new(left),
                            predicate,
                            kind,
                        };
                    }
                }
                LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    predicate,
                    kind,
                }
            }
            LogicalPlan::Scan { .. } => plan,
            LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
                input: Box::new(self.reorder_node(*input, reordered)),
                predicate,
            },
            LogicalPlan::Unnest {
                input,
                path,
                alias,
                predicate,
                outer,
            } => LogicalPlan::Unnest {
                input: Box::new(self.reorder_node(*input, reordered)),
                path,
                alias,
                predicate,
                outer,
            },
            LogicalPlan::Reduce {
                input,
                outputs,
                predicate,
            } => LogicalPlan::Reduce {
                input: Box::new(self.reorder_node(*input, reordered)),
                outputs,
                predicate,
            },
            LogicalPlan::Nest {
                input,
                group_by,
                group_aliases,
                outputs,
                predicate,
            } => LogicalPlan::Nest {
                input: Box::new(self.reorder_node(*input, reordered)),
                group_by,
                group_aliases,
                outputs,
                predicate,
            },
        }
    }

    /// Access-path decision for a scan: whether to consult a structural index
    /// (non-binary source) and whether statistics justify skipping the scan
    /// entirely (a contradiction such as `x < min(x)`).
    pub fn prune_impossible_filter(&self, dataset: &str, predicate: &Expr) -> bool {
        // When a range predicate excludes the whole [min, max] interval the
        // estimated selectivity is 0 — the caller may skip the dataset.
        if let Some(_meta) = self.catalog.get(dataset) {
            return self.cost_model.selectivity(predicate) == 0.0;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_algebra::{DataType, Monoid, ReduceSpec, Schema};

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog.insert_simple(
            "lineitem",
            Schema::from_pairs(vec![
                ("l_orderkey", DataType::Int),
                ("l_quantity", DataType::Float),
            ]),
            60_000,
        );
        catalog.insert_simple(
            "orders",
            Schema::from_pairs(vec![("o_orderkey", DataType::Int)]),
            15_000,
        );
        catalog
    }

    fn scan(name: &str, alias: &str) -> LogicalPlan {
        LogicalPlan::scan(name, alias, Schema::empty())
    }

    #[test]
    fn join_builds_on_smaller_side() {
        let optimizer = Optimizer::new(catalog());
        // lineitem (large) joined with orders (small): lineitem is on the
        // left, so the optimizer should swap.
        let plan = scan("lineitem", "l")
            .join(
                scan("orders", "o"),
                Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                JoinKind::Inner,
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        let optimized = optimizer.optimize(plan, None);
        assert!(optimized.joins_reordered);
        let mut left_dataset = String::new();
        optimized.plan.visit(&mut |n| {
            if let LogicalPlan::Join { left, .. } = n {
                if let LogicalPlan::Scan { dataset, .. } = left.as_ref() {
                    left_dataset = dataset.clone();
                }
            }
        });
        assert_eq!(left_dataset, "orders");
    }

    #[test]
    fn already_ordered_join_is_untouched() {
        let optimizer = Optimizer::new(catalog());
        let plan = scan("orders", "o")
            .join(
                scan("lineitem", "l"),
                Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                JoinKind::Inner,
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        let optimized = optimizer.optimize(plan, None);
        assert!(!optimized.joins_reordered);
    }

    #[test]
    fn optimize_runs_rule_rewrites_and_estimates() {
        let optimizer = Optimizer::new(catalog());
        let plan = scan("lineitem", "l")
            .join(scan("orders", "o"), Expr::boolean(true), JoinKind::Inner)
            .select(
                Expr::path("o.o_orderkey")
                    .eq(Expr::path("l.l_orderkey"))
                    .and(Expr::path("l.l_quantity").lt(Expr::int(10))),
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        let optimized = optimizer.optimize(plan, None);
        // The cross-side equality must have been folded into the join.
        let mut join_pred_nontrivial = false;
        optimized.plan.visit(&mut |n| {
            if let LogicalPlan::Join { predicate, .. } = n {
                join_pred_nontrivial = *predicate != Expr::boolean(true);
            }
        });
        assert!(join_pred_nontrivial);
        assert!(optimized.estimate.cost > 0.0);
        // Projection pushdown annotated the scans.
        let mut projected = 0;
        optimized.plan.visit(&mut |n| {
            if let LogicalPlan::Scan {
                projected_fields, ..
            } = n
            {
                projected += projected_fields.len();
            }
        });
        assert!(projected >= 2);
    }
}
