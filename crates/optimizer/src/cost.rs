//! The cost model.
//!
//! Cardinality estimation uses the statistics the plug-ins collected
//! (min/max interpolation for range predicates, distinct counts for equality,
//! the paper's 10 % default otherwise); cost estimation instantiates each
//! plug-in's cost formulas with those cardinalities. The optimizer proper
//! uses these estimates bottom-up for join ordering and access-path choice.

use proteus_algebra::{BinaryOp, Expr, LogicalPlan, Value};
use proteus_plugins::stats::DEFAULT_SELECTIVITY;

use crate::catalog::Catalog;

/// Cardinality and cost estimate for a plan (sub)tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated number of output bindings.
    pub cardinality: f64,
    /// Estimated total cost in abstract per-value units.
    pub cost: f64,
}

/// The cost model, parameterized by the catalog.
#[derive(Clone)]
pub struct CostModel {
    catalog: Catalog,
}

impl CostModel {
    /// Creates a cost model over a catalog.
    pub fn new(catalog: Catalog) -> CostModel {
        CostModel { catalog }
    }

    /// Estimates the selectivity of a predicate over the datasets in scope.
    ///
    /// Conjunctions multiply; range predicates over a single attribute use
    /// min/max interpolation; equality uses distinct counts; everything else
    /// falls back to the default 10 %.
    pub fn selectivity(&self, predicate: &Expr) -> f64 {
        let conjuncts = predicate.split_conjunction();
        let mut selectivity = 1.0;
        for conjunct in conjuncts {
            selectivity *= self.conjunct_selectivity(&conjunct);
        }
        selectivity.clamp(0.0, 1.0)
    }

    fn conjunct_selectivity(&self, conjunct: &Expr) -> f64 {
        if let Expr::Binary { op, left, right } = conjunct {
            let (path, literal) = match (left.as_ref(), right.as_ref()) {
                (Expr::Path(p), Expr::Literal(v)) => (Some(p), Some(v.clone())),
                (Expr::Literal(v), Expr::Path(p)) => (Some(p), Some(v.clone())),
                _ => (None, None),
            };
            if let (Some(path), Some(literal)) = (path, literal) {
                // The path base is a scan alias; the attribute is the first
                // segment. Search every dataset for that attribute (aliases
                // are not tracked here, so attribute names must be distinct —
                // true for the TPC-H and Symantec schemas).
                if let Some(attr) = path.segments.first() {
                    for dataset in self.catalog.datasets() {
                        if let Some(meta) = self.catalog.get(&dataset) {
                            // Per-morsel zone maps answer first: their
                            // zone-weighted estimate respects clustering,
                            // where the dataset-level interpolation assumes
                            // a uniform spread.
                            if let Some(zones) = meta.zone_maps.get(attr) {
                                if let Some(s) =
                                    crate::stats::zone_selectivity(*op, zones, &literal)
                                {
                                    return s;
                                }
                            }
                            if let Some(stats) = meta.stats.column(attr) {
                                return match op {
                                    BinaryOp::Lt | BinaryOp::Le => stats.selectivity_lt(&literal),
                                    BinaryOp::Gt | BinaryOp::Ge => {
                                        1.0 - stats.selectivity_lt(&literal)
                                    }
                                    BinaryOp::Eq => stats.selectivity_eq(),
                                    BinaryOp::Neq => 1.0 - stats.selectivity_eq(),
                                    _ => DEFAULT_SELECTIVITY,
                                };
                            }
                        }
                    }
                }
            }
            // Equi-join predicate (path = path): handled at the join level.
            if *op == BinaryOp::Eq {
                return DEFAULT_SELECTIVITY;
            }
        }
        DEFAULT_SELECTIVITY
    }

    /// How many distinct keys a group-by over `input` can form, when every
    /// key is a column of a scan in `input` with integer bounds:
    /// Π(max − min + 1), one more per key whose column has nulls. `None`
    /// for any other key.
    fn key_domain(&self, input: &LogicalPlan, keys: &[Expr]) -> Option<f64> {
        if keys.is_empty() {
            return None;
        }
        keys.iter()
            .map(|key| {
                let Expr::Path(path) = key else {
                    return None;
                };
                let [attr] = path.segments.as_slice() else {
                    return None;
                };
                let mut dataset = None;
                input.visit(&mut |node| {
                    if let LogicalPlan::Scan {
                        dataset: d, alias, ..
                    } = node
                    {
                        if *alias == path.base {
                            dataset = Some(d.clone());
                        }
                    }
                });
                let stats = self.catalog.column_stats(&dataset?, attr)?;
                let (Value::Int(min), Value::Int(max)) = (stats.min, stats.max) else {
                    return None;
                };
                let nulls = if stats.nulls > 0 { 1.0 } else { 0.0 };
                Some(max as f64 - min as f64 + 1.0 + nulls)
            })
            .product()
    }

    /// Estimates cardinality and cost of a plan bottom-up.
    pub fn estimate(&self, plan: &LogicalPlan) -> CostEstimate {
        match plan {
            LogicalPlan::Scan {
                dataset,
                projected_fields,
                schema,
                ..
            } => {
                let meta = self.catalog.get(dataset);
                let cardinality = meta
                    .as_ref()
                    .map(|m| m.stats.cardinality as f64)
                    .unwrap_or(1000.0);
                let field_count = match projected_fields {
                    None => schema.len().max(1),
                    Some(fields) => fields.len(),
                };
                let cost = meta
                    .map(|m| m.cost.scan_cost(cardinality as u64, field_count))
                    .unwrap_or(cardinality * field_count as f64);
                CostEstimate { cardinality, cost }
            }
            LogicalPlan::Select { input, predicate } => {
                let child = self.estimate(input);
                let selectivity = self.selectivity(predicate);
                CostEstimate {
                    cardinality: child.cardinality * selectivity,
                    cost: child.cost + child.cardinality,
                }
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
                ..
            } => {
                let l = self.estimate(left);
                let r = self.estimate(right);
                // Equi-joins: |L ⋈ R| ≈ |L|·|R| / max(distinct); approximated
                // by the larger side (foreign-key join assumption). Other
                // predicates: default selectivity over the cross product.
                let is_equi = predicate.split_conjunction().iter().any(|c| {
                    matches!(c, Expr::Binary { op: BinaryOp::Eq, left, right }
                        if matches!(**left, Expr::Path(_)) && matches!(**right, Expr::Path(_)))
                });
                let cardinality = if is_equi {
                    l.cardinality.max(r.cardinality)
                } else {
                    l.cardinality * r.cardinality * DEFAULT_SELECTIVITY
                };
                // Radix hash join: materialize both sides + probe.
                let cost = l.cost + r.cost + 2.0 * (l.cardinality + r.cardinality);
                CostEstimate { cardinality, cost }
            }
            LogicalPlan::Unnest { input, .. } => {
                let child = self.estimate(input);
                // Assume an average fan-out of 4 nested elements per object.
                CostEstimate {
                    cardinality: child.cardinality * 4.0,
                    cost: child.cost + child.cardinality * 4.0,
                }
            }
            LogicalPlan::Reduce { input, .. } => {
                let child = self.estimate(input);
                CostEstimate {
                    cardinality: 1.0,
                    cost: child.cost + child.cardinality,
                }
            }
            LogicalPlan::Nest {
                input, group_by, ..
            } => {
                let child = self.estimate(input);
                let groups = self.key_domain(input, group_by).unwrap_or_else(|| {
                    (child.cardinality * 0.1).max(1.0) * group_by.len().max(1) as f64
                });
                CostEstimate {
                    cardinality: groups.min(child.cardinality),
                    cost: child.cost + 2.0 * child.cardinality,
                }
            }
        }
    }
}

/// The cost to (re)build a cache of `fields` expressions over `rows` source
/// tuples, in the cost model's units: one full scan of the source through
/// its plug-in's access profile. The cache store uses this as the
/// `build_cost` term of its cost/benefit eviction score, so caches over
/// expensive formats (JSON raw access) outlive equal-sized caches over
/// cheap ones (binary columns).
pub fn cache_build_cost(profile: &proteus_plugins::CostProfile, rows: u64, fields: usize) -> u64 {
    profile.scan_cost(rows, fields.max(1)).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_algebra::{DataType, Monoid, ReduceSpec, Schema, Value};
    use proteus_plugins::stats::ColumnStats;
    use proteus_plugins::{CostProfile, DatasetStats};

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        let mut stats = DatasetStats::with_cardinality(10_000);
        stats.columns.insert(
            "l_orderkey".into(),
            ColumnStats {
                min: Value::Int(0),
                max: Value::Int(1000),
                distinct: 1000,
                nulls: 0,
            },
        );
        catalog.insert(crate::catalog::DatasetMeta {
            name: "lineitem".into(),
            schema: Schema::from_pairs(vec![
                ("l_orderkey", DataType::Int),
                ("l_quantity", DataType::Float),
            ]),
            stats,
            cost: CostProfile::json(),
            zone_maps: Default::default(),
        });
        catalog.insert_simple(
            "orders",
            Schema::from_pairs(vec![("o_orderkey", DataType::Int)]),
            2500,
        );
        catalog
    }

    fn scan(name: &str, alias: &str) -> LogicalPlan {
        LogicalPlan::scan(name, alias, Schema::empty())
    }

    #[test]
    fn range_selectivity_uses_min_max() {
        let model = CostModel::new(catalog());
        let half = Expr::path("l.l_orderkey").lt(Expr::int(500));
        assert!((model.selectivity(&half) - 0.5).abs() < 0.01);
        let fifth = Expr::path("l.l_orderkey").lt(Expr::int(200));
        assert!((model.selectivity(&fifth) - 0.2).abs() < 0.01);
        let all = Expr::path("l.l_orderkey").lt(Expr::int(5000));
        assert!((model.selectivity(&all) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zone_maps_override_uniform_interpolation() {
        use proteus_plugins::ZoneMap;
        use proteus_storage::ColumnData;
        let catalog = catalog();
        let mut meta = catalog.get("lineitem").unwrap();
        // Clustered skew: three zones of zeros, one zone spanning 0..=1000.
        // `l_orderkey < 1` truly passes ~75% of rows; the uniform guess
        // over [0, 1000] says ~0.1%.
        let mut vals = vec![0i64; 3072];
        vals.extend(0..1000);
        meta.zone_maps.insert(
            "l_orderkey".into(),
            std::sync::Arc::new(ZoneMap::from_column(&ColumnData::Int(vals))),
        );
        catalog.insert(meta);
        let model = CostModel::new(catalog);
        let s = model.selectivity(&Expr::path("l.l_orderkey").lt(Expr::int(1)));
        assert!(s > 0.74, "zone-aware estimate should see the zeros, s={s}");
    }

    #[test]
    fn conjunction_selectivities_multiply() {
        let model = CostModel::new(catalog());
        let pred = Expr::path("l.l_orderkey")
            .lt(Expr::int(500))
            .and(Expr::path("l.unknown_attr").gt(Expr::int(3)));
        let s = model.selectivity(&pred);
        assert!((s - 0.5 * DEFAULT_SELECTIVITY).abs() < 0.01);
    }

    #[test]
    fn select_reduces_estimated_cardinality() {
        let model = CostModel::new(catalog());
        let base = model.estimate(&scan("lineitem", "l"));
        let filtered = model
            .estimate(&scan("lineitem", "l").select(Expr::path("l.l_orderkey").lt(Expr::int(100))));
        assert_eq!(base.cardinality, 10_000.0);
        assert!(filtered.cardinality < base.cardinality);
        assert!(filtered.cost > base.cost);
    }

    #[test]
    fn equi_join_cardinality_is_larger_side() {
        let model = CostModel::new(catalog());
        let join = scan("orders", "o").join(
            scan("lineitem", "l"),
            Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
            proteus_algebra::JoinKind::Inner,
        );
        let est = model.estimate(&join);
        assert_eq!(est.cardinality, 10_000.0);
    }

    #[test]
    fn reduce_outputs_single_row() {
        let model = CostModel::new(catalog());
        let plan =
            scan("lineitem", "l").reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        assert_eq!(model.estimate(&plan).cardinality, 1.0);
    }

    #[test]
    fn group_count_follows_integer_key_bounds() {
        let catalog = Catalog::new();
        let mut stats = DatasetStats::with_cardinality(400_000);
        let bounds = |min: i64, max: i64, nulls: u64| ColumnStats {
            min: Value::Int(min),
            max: Value::Int(max),
            distinct: 4096,
            nulls,
        };
        stats.columns.insert("g".into(), bounds(0, 999, 0));
        stats.columns.insert("h".into(), bounds(0, 15, 0));
        stats.columns.insert("n".into(), bounds(-2, 2, 7));
        stats.columns.insert("id".into(), bounds(0, 10_000_000, 0));
        catalog.insert(crate::catalog::DatasetMeta {
            name: "fact".into(),
            schema: Schema::from_pairs(vec![
                ("g", DataType::Int),
                ("h", DataType::Int),
                ("n", DataType::Int),
                ("id", DataType::Int),
                ("v", DataType::Float),
            ]),
            stats,
            cost: CostProfile::binary(),
            zone_maps: Default::default(),
        });
        let model = CostModel::new(catalog);
        let groups = |keys: &[&str]| {
            let plan = scan("fact", "f").nest(
                keys.iter().map(|k| Expr::path(&format!("f.{k}"))).collect(),
                keys.iter().map(|k| k.to_string()).collect(),
                vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")],
            );
            model.estimate(&plan).cardinality
        };
        assert_eq!(groups(&["g"]), 1_000.0);
        assert_eq!(groups(&["g", "h"]), 16_000.0);
        // A key with nulls has one more group: [-2, 2] and null.
        assert_eq!(groups(&["n"]), 6.0);
        // Never more groups than rows.
        assert_eq!(groups(&["id"]), 400_000.0);
        // A key without integer bounds keeps the 10%-per-key heuristic.
        assert_eq!(groups(&["v"]), 40_000.0);
        assert_eq!(groups(&["g", "v"]), 80_000.0);
    }

    #[test]
    fn unknown_dataset_gets_default_estimates() {
        let model = CostModel::new(catalog());
        let est = model.estimate(&scan("mystery", "m"));
        assert_eq!(est.cardinality, 1000.0);
    }
}
