//! The nested relational algebra (Table 1 of the paper).
//!
//! Operators: scan (leaf), select σ, join ⨝ / outer join, unnest µ / outer
//! unnest, reduce ∆ and nest Γ. Selection, join and outer join are identical
//! to their relational counterparts; reduce and nest are overloaded versions
//! of projection and grouping parameterized by an output [`Monoid`]; unnest
//! and outer unnest "unroll" a collection field nested within an object.

use std::collections::BTreeSet;
use std::fmt;

use crate::expr::{Expr, Path};
use crate::monoid::Monoid;
use crate::schema::Schema;

/// Join kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner join (⨝).
    Inner,
    /// Left outer join: unmatched left rows survive with nulls on the right.
    LeftOuter,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinKind::Inner => write!(f, "join"),
            JoinKind::LeftOuter => write!(f, "outer join"),
        }
    }
}

/// One output of a reduce/nest operator: an expression folded under a monoid.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceSpec {
    /// Output monoid (`count`, `max`, `sum`, `bag`, ...).
    pub monoid: Monoid,
    /// Expression folded for every qualifying input.
    pub expr: Expr,
    /// Name of the output column.
    pub alias: String,
}

impl ReduceSpec {
    /// Creates a reduce output.
    pub fn new(monoid: Monoid, expr: Expr, alias: impl Into<String>) -> Self {
        ReduceSpec {
            monoid,
            expr,
            alias: alias.into(),
        }
    }
}

impl fmt::Display for ReduceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) as {}", self.monoid, self.expr, self.alias)
    }
}

/// A node of the logical nested relational algebra plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: scan of a registered dataset.
    Scan {
        /// Registered dataset name.
        dataset: String,
        /// Variable the scanned records are bound to.
        alias: String,
        /// Schema of the dataset, if known at plan time.
        schema: Schema,
        /// Fields actually needed by the query, filled by projection
        /// pushdown: `None` means "all" (not annotated, or the scanned
        /// records are read whole); `Some` lists exactly the fields to
        /// extract, and an empty list reads none — the scan still yields one
        /// binding per record. Input plug-ins use this to generate code that
        /// extracts only the required fields (§5.2).
        projected_fields: Option<Vec<String>>,
    },
    /// σ: filter.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Filtering predicate.
        predicate: Expr,
    },
    /// ⨝ / outer join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate.
        predicate: Expr,
        /// Inner or left-outer.
        kind: JoinKind,
    },
    /// µ: unnest of a nested collection `path`, binding each element to
    /// `alias`. The optional predicate is the operator's embedded filtering
    /// step (Table 1 lists unnest with a filtering expression `p`).
    Unnest {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Path to the nested collection (e.g. `s1.children`).
        path: Path,
        /// Variable each unnested element is bound to.
        alias: String,
        /// Embedded filter applied to each unnested element.
        predicate: Option<Expr>,
        /// Outer unnest: an empty/missing collection still produces one
        /// output binding with `alias` set to null.
        outer: bool,
    },
    /// ∆: reduce — fold the whole input into one output record under the
    /// given monoids, with an optional embedded filter.
    Reduce {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output folds.
        outputs: Vec<ReduceSpec>,
        /// Embedded filter.
        predicate: Option<Expr>,
    },
    /// Γ: nest — group by the `group_by` expressions and fold each group
    /// under the given monoids.
    Nest {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions.
        group_by: Vec<Expr>,
        /// Names for the grouping expressions in the output record.
        group_aliases: Vec<String>,
        /// Per-group output folds.
        outputs: Vec<ReduceSpec>,
        /// Embedded filter applied before grouping.
        predicate: Option<Expr>,
    },
}

impl LogicalPlan {
    /// Creates a scan node.
    pub fn scan(dataset: impl Into<String>, alias: impl Into<String>, schema: Schema) -> Self {
        LogicalPlan::Scan {
            dataset: dataset.into(),
            alias: alias.into(),
            schema,
            projected_fields: None,
        }
    }

    /// Wraps the plan in a filter.
    pub fn select(self, predicate: Expr) -> Self {
        LogicalPlan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Joins this plan with another.
    pub fn join(self, right: LogicalPlan, predicate: Expr, kind: JoinKind) -> Self {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            predicate,
            kind,
        }
    }

    /// Unnests a nested collection.
    pub fn unnest(self, path: Path, alias: impl Into<String>) -> Self {
        LogicalPlan::Unnest {
            input: Box::new(self),
            path,
            alias: alias.into(),
            predicate: None,
            outer: false,
        }
    }

    /// Reduces the plan to aggregate outputs.
    pub fn reduce(self, outputs: Vec<ReduceSpec>) -> Self {
        LogicalPlan::Reduce {
            input: Box::new(self),
            outputs,
            predicate: None,
        }
    }

    /// Groups the plan.
    pub fn nest(
        self,
        group_by: Vec<Expr>,
        group_aliases: Vec<String>,
        outputs: Vec<ReduceSpec>,
    ) -> Self {
        LogicalPlan::Nest {
            input: Box::new(self),
            group_by,
            group_aliases,
            outputs,
            predicate: None,
        }
    }

    /// The direct children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Unnest { input, .. }
            | LogicalPlan::Reduce { input, .. }
            | LogicalPlan::Nest { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// A one-word operator name.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Select { .. } => "Select",
            LogicalPlan::Join { kind, .. } => match kind {
                JoinKind::Inner => "Join",
                JoinKind::LeftOuter => "OuterJoin",
            },
            LogicalPlan::Unnest { outer, .. } => {
                if *outer {
                    "OuterUnnest"
                } else {
                    "Unnest"
                }
            }
            LogicalPlan::Reduce { .. } => "Reduce",
            LogicalPlan::Nest { .. } => "Nest",
        }
    }

    /// The variables (scan aliases and unnest aliases) bound by this subtree.
    pub fn bound_variables(&self) -> BTreeSet<String> {
        let mut vars = BTreeSet::new();
        self.collect_bound_variables(&mut vars);
        vars
    }

    fn collect_bound_variables(&self, out: &mut BTreeSet<String>) {
        match self {
            LogicalPlan::Scan { alias, .. } => {
                out.insert(alias.clone());
            }
            LogicalPlan::Unnest { input, alias, .. } => {
                input.collect_bound_variables(out);
                out.insert(alias.clone());
            }
            LogicalPlan::Join { left, right, .. } => {
                left.collect_bound_variables(out);
                right.collect_bound_variables(out);
            }
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Reduce { input, .. }
            | LogicalPlan::Nest { input, .. } => input.collect_bound_variables(out),
        }
    }

    /// All dataset names scanned anywhere in the plan.
    pub fn scanned_datasets(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |node| {
            if let LogicalPlan::Scan { dataset, .. } = node {
                out.push(dataset.clone());
            }
        });
        out
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        for child in self.children() {
            child.visit(f);
        }
    }

    /// Number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |_| count += 1);
        count
    }

    /// All expressions evaluated directly by this node (not its children).
    pub fn node_expressions(&self) -> Vec<&Expr> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { predicate, .. } => vec![predicate],
            LogicalPlan::Join { predicate, .. } => vec![predicate],
            LogicalPlan::Unnest { predicate, .. } => predicate.iter().collect(),
            LogicalPlan::Reduce {
                outputs, predicate, ..
            } => {
                let mut v: Vec<&Expr> = outputs.iter().map(|o| &o.expr).collect();
                v.extend(predicate.iter());
                v
            }
            LogicalPlan::Nest {
                group_by,
                outputs,
                predicate,
                ..
            } => {
                let mut v: Vec<&Expr> = group_by.iter().collect();
                v.extend(outputs.iter().map(|o| &o.expr));
                v.extend(predicate.iter());
                v
            }
        }
    }

    /// All field paths required from the subtree rooted at this node,
    /// grouped by base variable. Used by projection pushdown to compute the
    /// per-scan field-of-interest lists the input plug-ins consume.
    pub fn required_paths(&self) -> Vec<Path> {
        let mut set = BTreeSet::new();
        self.visit(&mut |node| {
            for expr in node.node_expressions() {
                for p in expr.referenced_paths() {
                    set.insert(p);
                }
            }
            if let LogicalPlan::Unnest { path, .. } = node {
                set.insert(path.clone());
            }
        });
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn lineitem_scan() -> LogicalPlan {
        LogicalPlan::scan(
            "lineitem",
            "l",
            Schema::from_pairs(vec![
                ("l_orderkey", DataType::Int),
                ("l_quantity", DataType::Float),
            ]),
        )
    }

    #[test]
    fn builder_composes_plans() {
        let plan = lineitem_scan()
            .select(Expr::path("l.l_orderkey").lt(Expr::int(100)))
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        assert_eq!(plan.name(), "Reduce");
        assert_eq!(plan.operator_count(), 3);
        assert_eq!(plan.scanned_datasets(), vec!["lineitem"]);
    }

    #[test]
    fn bound_variables_include_unnest_aliases() {
        let plan = lineitem_scan().unnest(Path::parse("l.items"), "i");
        let vars = plan.bound_variables();
        assert!(vars.contains("l"));
        assert!(vars.contains("i"));
    }

    #[test]
    fn required_paths_cover_all_expressions() {
        let plan = lineitem_scan()
            .select(Expr::path("l.l_orderkey").lt(Expr::int(100)))
            .reduce(vec![ReduceSpec::new(
                Monoid::Max,
                Expr::path("l.l_quantity"),
                "m",
            )]);
        let paths = plan.required_paths();
        let dotted: Vec<String> = paths.iter().map(|p| p.dotted()).collect();
        assert!(dotted.contains(&"l.l_orderkey".to_string()));
        assert!(dotted.contains(&"l.l_quantity".to_string()));
    }

    #[test]
    fn join_children_and_name() {
        let orders = LogicalPlan::scan(
            "orders",
            "o",
            Schema::from_pairs(vec![("o_orderkey", DataType::Int)]),
        );
        let plan = orders.join(
            lineitem_scan(),
            Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
            JoinKind::Inner,
        );
        assert_eq!(plan.name(), "Join");
        assert_eq!(plan.children().len(), 2);
        let vars = plan.bound_variables();
        assert!(vars.contains("o") && vars.contains("l"));
    }

    #[test]
    fn outer_unnest_is_named() {
        let plan = LogicalPlan::Unnest {
            input: Box::new(lineitem_scan()),
            path: Path::parse("l.tags"),
            alias: "t".into(),
            predicate: None,
            outer: true,
        };
        assert_eq!(plan.name(), "OuterUnnest");
    }

    #[test]
    fn node_expressions_of_nest() {
        let plan = lineitem_scan().nest(
            vec![Expr::path("l.l_orderkey")],
            vec!["k".into()],
            vec![ReduceSpec::new(
                Monoid::Sum,
                Expr::path("l.l_quantity"),
                "s",
            )],
        );
        assert_eq!(plan.node_expressions().len(), 2);
    }
}
