//! A reference interpreter for logical plans over in-memory collections.
//!
//! This is *not* one of the engines the paper evaluates — it is the semantic
//! oracle of the reproduction. Every execution path (the generated Proteus
//! pipelines, the Volcano baseline, the column-store baselines, the document
//! store) is tested against this interpreter for result equivalence.

use std::collections::HashMap;

use crate::error::{AlgebraError, Result};
use crate::expr::Env;
use crate::monoid::Accumulator;
use crate::plan::{JoinKind, LogicalPlan};
use crate::value::{Record, Value};

/// An in-memory catalog mapping dataset names to collections of records.
#[derive(Debug, Clone, Default)]
pub struct MemoryCatalog {
    datasets: HashMap<String, Vec<Value>>,
}

impl MemoryCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        MemoryCatalog {
            datasets: HashMap::new(),
        }
    }

    /// Registers a dataset.
    pub fn register(&mut self, name: impl Into<String>, rows: Vec<Value>) {
        self.datasets.insert(name.into(), rows);
    }

    /// Looks up a dataset.
    pub fn get(&self, name: &str) -> Option<&Vec<Value>> {
        self.datasets.get(name)
    }

    /// Dataset names.
    pub fn names(&self) -> Vec<&str> {
        self.datasets.keys().map(|s| s.as_str()).collect()
    }
}

/// Evaluates a logical plan against an in-memory catalog.
///
/// The result of every operator is a vector of [`Env`]s (variable bindings),
/// matching the calculus semantics; `Reduce`/`Nest` nodes fold those
/// environments into output records.
pub fn execute(plan: &LogicalPlan, catalog: &MemoryCatalog) -> Result<Vec<Value>> {
    match plan {
        LogicalPlan::Reduce {
            input,
            outputs,
            predicate,
        } => {
            let envs = eval_bindings(input, catalog)?;
            let mut accs: Vec<Accumulator> = outputs
                .iter()
                .map(|o| Accumulator::zero(o.monoid))
                .collect();
            for env in &envs {
                if let Some(pred) = predicate {
                    if !pred.eval(env)?.as_bool()? {
                        continue;
                    }
                }
                for (spec, acc) in outputs.iter().zip(accs.iter_mut()) {
                    acc.merge(spec.monoid, spec.expr.eval(env)?)?;
                }
            }
            let mut rec = Record::empty();
            for (spec, acc) in outputs.iter().zip(accs) {
                rec.set(spec.alias.clone(), acc.finish(spec.monoid));
            }
            Ok(vec![Value::Record(rec)])
        }
        LogicalPlan::Nest {
            input,
            group_by,
            group_aliases,
            outputs,
            predicate,
        } => {
            let envs = eval_bindings(input, catalog)?;
            // Group environments by the evaluated group-by key.
            let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
            let mut key_index: HashMap<u64, Vec<usize>> = HashMap::new();
            for env in &envs {
                if let Some(pred) = predicate {
                    if !pred.eval(env)?.as_bool()? {
                        continue;
                    }
                }
                let key: Vec<Value> = group_by
                    .iter()
                    .map(|e| e.eval(env))
                    .collect::<Result<_>>()?;
                let hash = Value::List(key.clone()).stable_hash();
                let slot = key_index.entry(hash).or_default();
                let found = slot.iter().copied().find(|idx| {
                    groups[*idx]
                        .0
                        .iter()
                        .zip(key.iter())
                        .all(|(a, b)| a.value_eq(b))
                });
                let idx = match found {
                    Some(idx) => idx,
                    None => {
                        groups.push((
                            key.clone(),
                            outputs
                                .iter()
                                .map(|o| Accumulator::zero(o.monoid))
                                .collect(),
                        ));
                        let idx = groups.len() - 1;
                        slot.push(idx);
                        idx
                    }
                };
                for (spec, acc) in outputs.iter().zip(groups[idx].1.iter_mut()) {
                    acc.merge(spec.monoid, spec.expr.eval(env)?)?;
                }
            }
            let mut rows = Vec::with_capacity(groups.len());
            for (key, accs) in groups {
                let mut rec = Record::empty();
                for (i, k) in key.into_iter().enumerate() {
                    let name = group_aliases
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("key{i}"));
                    rec.set(name, k);
                }
                for (spec, acc) in outputs.iter().zip(accs) {
                    rec.set(spec.alias.clone(), acc.finish(spec.monoid));
                }
                rows.push(Value::Record(rec));
            }
            Ok(rows)
        }
        other => {
            // A plan without a top-level reduce/nest returns the bound
            // environments as records keyed by variable name.
            let envs = eval_bindings(other, catalog)?;
            Ok(envs
                .into_iter()
                .map(|env| {
                    let mut rec = Record::empty();
                    for name in env.names() {
                        rec.set(
                            name.to_string(),
                            env.get(name).cloned().unwrap_or(Value::Null),
                        );
                    }
                    Value::Record(rec)
                })
                .collect())
        }
    }
}

/// Evaluates the binding-producing part of a plan into environments.
pub fn eval_bindings(plan: &LogicalPlan, catalog: &MemoryCatalog) -> Result<Vec<Env>> {
    match plan {
        LogicalPlan::Scan { dataset, alias, .. } => {
            let rows = catalog.get(dataset).ok_or_else(|| {
                AlgebraError::UnknownField(format!("dataset {dataset} not registered"))
            })?;
            Ok(rows
                .iter()
                .map(|row| Env::single(alias.clone(), row.clone()))
                .collect())
        }
        LogicalPlan::Select { input, predicate } => {
            let envs = eval_bindings(input, catalog)?;
            let mut out = Vec::new();
            for env in envs {
                if predicate.eval(&env)?.as_bool()? {
                    out.push(env);
                }
            }
            Ok(out)
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        } => {
            let left_envs = eval_bindings(left, catalog)?;
            let right_envs = eval_bindings(right, catalog)?;
            let right_vars = right.bound_variables();
            let mut out = Vec::new();
            for l in &left_envs {
                let mut matched = false;
                for r in &right_envs {
                    let mut combined = l.clone();
                    combined.merge(r);
                    if predicate.eval(&combined)?.as_bool()? {
                        matched = true;
                        out.push(combined);
                    }
                }
                if !matched && *kind == JoinKind::LeftOuter {
                    let mut combined = l.clone();
                    for var in &right_vars {
                        combined.bind(var.clone(), Value::Null);
                    }
                    out.push(combined);
                }
            }
            Ok(out)
        }
        LogicalPlan::Unnest {
            input,
            path,
            alias,
            predicate,
            outer,
        } => {
            let envs = eval_bindings(input, catalog)?;
            let mut out = Vec::new();
            for env in envs {
                let collection = env.navigate(path)?;
                let items: Vec<Value> = match collection {
                    Value::List(items) => items,
                    Value::Null => Vec::new(),
                    other => {
                        return Err(AlgebraError::TypeMismatch {
                            op: format!("unnest {path}"),
                            detail: format!("{other:?} is not a collection"),
                        })
                    }
                };
                let mut produced = false;
                for item in items {
                    let inner = env.with(alias.clone(), item);
                    if let Some(pred) = predicate {
                        if !pred.eval(&inner)?.as_bool()? {
                            continue;
                        }
                    }
                    produced = true;
                    out.push(inner);
                }
                if !produced && *outer {
                    out.push(env.with(alias.clone(), Value::Null));
                }
            }
            Ok(out)
        }
        LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. } => {
            // A reduce/nest in the middle of a plan produces its output rows
            // bound under a synthetic variable name.
            let rows = execute(plan, catalog)?;
            Ok(rows
                .into_iter()
                .map(|row| Env::single("_agg", row))
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Path};
    use crate::monoid::Monoid;
    use crate::plan::ReduceSpec;
    use crate::schema::Schema;

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.register(
            "lineitem",
            (0..10)
                .map(|i| {
                    Value::record(vec![
                        ("l_orderkey", Value::Int(i)),
                        ("l_linenumber", Value::Int(i % 3)),
                        ("l_quantity", Value::Float((i * 2) as f64)),
                    ])
                })
                .collect(),
        );
        cat.register(
            "orders",
            (0..5)
                .map(|i| {
                    Value::record(vec![
                        ("o_orderkey", Value::Int(i)),
                        ("o_totalprice", Value::Float((100 * i) as f64)),
                    ])
                })
                .collect(),
        );
        cat.register(
            "orders_nested",
            (0..3)
                .map(|i| {
                    Value::record(vec![
                        ("o_orderkey", Value::Int(i)),
                        (
                            "items",
                            Value::List(
                                (0..i)
                                    .map(|j| Value::record(vec![("qty", Value::Int(j))]))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        cat
    }

    fn scan(name: &str, alias: &str) -> LogicalPlan {
        LogicalPlan::scan(name, alias, Schema::empty())
    }

    #[test]
    fn count_with_filter() {
        let plan = scan("lineitem", "l")
            .select(Expr::path("l.l_orderkey").lt(Expr::int(5)))
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        let out = execute(&plan, &catalog()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_record().unwrap().get("cnt"), Some(&Value::Int(5)));
    }

    #[test]
    fn max_aggregate() {
        let plan = scan("lineitem", "l").reduce(vec![ReduceSpec::new(
            Monoid::Max,
            Expr::path("l.l_quantity"),
            "m",
        )]);
        let out = execute(&plan, &catalog()).unwrap();
        assert_eq!(
            out[0].as_record().unwrap().get("m"),
            Some(&Value::Float(18.0))
        );
    }

    #[test]
    fn inner_join_counts_matches() {
        let plan = scan("orders", "o")
            .join(
                scan("lineitem", "l"),
                Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                JoinKind::Inner,
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        let out = execute(&plan, &catalog()).unwrap();
        // orders 0..5 each match exactly one lineitem.
        assert_eq!(out[0].as_record().unwrap().get("cnt"), Some(&Value::Int(5)));
    }

    #[test]
    fn left_outer_join_keeps_unmatched() {
        let plan = scan("lineitem", "l")
            .join(
                scan("orders", "o"),
                Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                JoinKind::LeftOuter,
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        let out = execute(&plan, &catalog()).unwrap();
        // all 10 lineitems survive (5 matched, 5 padded with nulls).
        assert_eq!(
            out[0].as_record().unwrap().get("cnt"),
            Some(&Value::Int(10))
        );
    }

    #[test]
    fn unnest_flattens_collections() {
        let plan = scan("orders_nested", "o")
            .unnest(Path::parse("o.items"), "i")
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        let out = execute(&plan, &catalog()).unwrap();
        // order 0 has 0 items, order 1 has 1, order 2 has 2 → 3 bindings.
        assert_eq!(out[0].as_record().unwrap().get("cnt"), Some(&Value::Int(3)));
    }

    #[test]
    fn outer_unnest_emits_null_for_empty() {
        let plan = LogicalPlan::Unnest {
            input: Box::new(scan("orders_nested", "o")),
            path: Path::parse("o.items"),
            alias: "i".into(),
            predicate: None,
            outer: true,
        }
        .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        let out = execute(&plan, &catalog()).unwrap();
        // order 0 contributes one null binding: 1 + 1 + 2 = 4.
        assert_eq!(out[0].as_record().unwrap().get("cnt"), Some(&Value::Int(4)));
    }

    #[test]
    fn nest_groups_rows() {
        let plan = scan("lineitem", "l").nest(
            vec![Expr::path("l.l_linenumber")],
            vec!["line".into()],
            vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Sum, Expr::path("l.l_quantity"), "total"),
            ],
        );
        let out = execute(&plan, &catalog()).unwrap();
        assert_eq!(out.len(), 3);
        let total_cnt: i64 = out
            .iter()
            .map(|r| r.as_record().unwrap().get("cnt").unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total_cnt, 10);
    }

    #[test]
    fn bag_reduce_returns_collection() {
        let plan = scan("orders", "o")
            .select(Expr::path("o.o_orderkey").lt(Expr::int(2)))
            .reduce(vec![ReduceSpec::new(
                Monoid::Bag,
                Expr::path("o.o_totalprice"),
                "prices",
            )]);
        let out = execute(&plan, &catalog()).unwrap();
        let prices = out[0].as_record().unwrap().get("prices").unwrap();
        assert_eq!(prices.as_list().unwrap().len(), 2);
    }

    #[test]
    fn missing_dataset_errors() {
        let plan =
            scan("ghost", "g").reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        assert!(execute(&plan, &catalog()).is_err());
    }

    #[test]
    fn plan_without_reduce_returns_binding_records() {
        let plan = scan("orders", "o").select(Expr::path("o.o_orderkey").lt(Expr::int(2)));
        let out = execute(&plan, &catalog()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].as_record().unwrap().get("o").is_some());
    }
}
