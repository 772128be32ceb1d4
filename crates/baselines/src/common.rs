//! Shared infrastructure for the baseline engines: the engine trait, data
//! loading (every baseline *loads* data into its own representation before
//! querying, unlike Proteus which queries files in place) and the interpreted
//! per-tuple evaluation helpers the row-oriented engines share.

use std::collections::HashMap;
use std::time::Duration;

use proteus_algebra::expr::Env;
use proteus_algebra::monoid::Accumulator;
use proteus_algebra::{AlgebraError, Expr, JoinKind, LogicalPlan, Value};
use proteus_plugins::json::parse_json_value;

/// A table loaded into a baseline's own storage.
#[derive(Debug, Clone)]
pub enum LoadedTable {
    /// Fully parsed records (binary row / jsonb-like / BSON-like storage).
    Rows(Vec<Value>),
    /// Raw JSON text per object (character-encoded JSON storage): every
    /// field access re-parses the object.
    Text(Vec<String>),
}

impl LoadedTable {
    /// Number of stored objects.
    pub fn len(&self) -> usize {
        match self {
            LoadedTable::Rows(rows) => rows.len(),
            LoadedTable::Text(objects) => objects.len(),
        }
    }

    /// True when the table has no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes object `idx` as a record value. Text storage pays a
    /// parse on every call — the cost the paper attributes to DBMS X.
    pub fn record_at(&self, idx: usize) -> Option<Value> {
        match self {
            LoadedTable::Rows(rows) => rows.get(idx).cloned(),
            LoadedTable::Text(objects) => objects
                .get(idx)
                .and_then(|text| parse_json_value(text.as_bytes()).ok()),
        }
    }
}

/// Result of loading a dataset into a baseline engine.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Number of objects loaded.
    pub rows: usize,
    /// Wall time spent loading/converting.
    pub load_time: Duration,
}

/// The interface every baseline engine implements.
pub trait BaselineEngine {
    /// Human-readable engine name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Loads a dataset given as parsed records (the caller parses CSV/JSON
    /// files through the shared plug-ins so every engine sees identical
    /// data). The engine converts the rows into its own storage format.
    fn load(&mut self, dataset: &str, rows: Vec<Value>) -> LoadReport;

    /// Executes a logical plan and returns the output rows.
    fn execute(&self, plan: &LogicalPlan) -> Result<Vec<Value>, AlgebraError>;
}

/// Parses a newline-delimited or array-form JSON buffer into records (used by
/// engines that load JSON into a binary representation).
pub fn parse_json_dataset(data: &[u8]) -> Result<Vec<Value>, AlgebraError> {
    let index = proteus_plugins::json::build_index(data)
        .map_err(|e| AlgebraError::Parse(format!("json: {e}")))?;
    let mut rows = Vec::with_capacity(index.object_count());
    for object in &index.objects {
        let slice = &data[object.start as usize..object.end as usize];
        let value =
            parse_json_value(slice).map_err(|e| AlgebraError::Parse(format!("json: {e}")))?;
        rows.push(value);
    }
    Ok(rows)
}

/// Splits a JSON buffer into the raw text of each object (for the
/// character-encoded storage of the DBMS X-like engine).
pub fn split_json_objects(data: &[u8]) -> Result<Vec<String>, AlgebraError> {
    let index = proteus_plugins::json::build_index(data)
        .map_err(|e| AlgebraError::Parse(format!("json: {e}")))?;
    Ok(index
        .objects
        .iter()
        .map(|o| String::from_utf8_lossy(&data[o.start as usize..o.end as usize]).to_string())
        .collect())
}

// ---------------------------------------------------------------------------
// Shared interpreted evaluation (Volcano-style, one Env per tuple).
// ---------------------------------------------------------------------------

/// Evaluates the binding-producing part of a plan over per-dataset record
/// accessors, Volcano-style: every operator works tuple-at-a-time over
/// heap-allocated environments and interprets expressions by walking their
/// AST — the per-tuple interpretation overhead the paper's §5 describes.
pub fn volcano_bindings(
    plan: &LogicalPlan,
    fetch: &dyn Fn(&str) -> Option<Vec<Value>>,
    use_hash_joins: bool,
) -> Result<Vec<Env>, AlgebraError> {
    match plan {
        LogicalPlan::Scan { dataset, alias, .. } => {
            let rows = fetch(dataset).ok_or_else(|| {
                AlgebraError::UnknownField(format!("dataset {dataset} not loaded"))
            })?;
            Ok(rows
                .into_iter()
                .map(|row| Env::single(alias.clone(), row))
                .collect())
        }
        LogicalPlan::Select { input, predicate } => {
            let mut out = Vec::new();
            for env in volcano_bindings(input, fetch, use_hash_joins)? {
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
            let left_envs = volcano_bindings(left, fetch, use_hash_joins)?;
            let right_envs = volcano_bindings(right, fetch, use_hash_joins)?;
            let right_vars = right.bound_variables();
            let mut out = Vec::new();
            if use_hash_joins {
                // Simple (non-radix) hash join on the first equi conjunct;
                // falls back to nested loops when none exists — mirroring how
                // an optimizer blind to JSON internals picks nested loops
                // (the paper's Q39 outlier for PostgreSQL).
                if let Some((lkey, rkey)) = equi_keys(predicate, left, right) {
                    let mut table: HashMap<u64, Vec<Env>> = HashMap::new();
                    for env in &left_envs {
                        let key = lkey.eval(env)?;
                        table
                            .entry(key.stable_hash())
                            .or_default()
                            .push(env.clone());
                    }
                    for renv in &right_envs {
                        let key = rkey.eval(renv)?;
                        let mut matched = false;
                        if let Some(candidates) = table.get(&key.stable_hash()) {
                            for lenv in candidates {
                                let mut combined = lenv.clone();
                                combined.merge(renv);
                                if predicate.eval(&combined)?.as_bool()? {
                                    matched = true;
                                    out.push(combined);
                                }
                            }
                        }
                        let _ = matched;
                    }
                    // Left-outer pass.
                    if *kind == JoinKind::LeftOuter {
                        for lenv in &left_envs {
                            let lval = lkey.eval(lenv)?;
                            let mut matched = false;
                            for renv in &right_envs {
                                if rkey.eval(renv)?.value_eq(&lval) {
                                    matched = true;
                                    break;
                                }
                            }
                            if !matched {
                                let mut combined = lenv.clone();
                                for var in &right_vars {
                                    combined.bind(var.clone(), Value::Null);
                                }
                                out.push(combined);
                            }
                        }
                    }
                    return Ok(out);
                }
            }
            // Nested-loop join.
            for lenv in &left_envs {
                let mut matched = false;
                for renv in &right_envs {
                    let mut combined = lenv.clone();
                    combined.merge(renv);
                    if predicate.eval(&combined)?.as_bool()? {
                        matched = true;
                        out.push(combined);
                    }
                }
                if !matched && *kind == JoinKind::LeftOuter {
                    let mut combined = lenv.clone();
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
            let mut out = Vec::new();
            for env in volcano_bindings(input, fetch, use_hash_joins)? {
                let collection = env.navigate(path)?;
                let items = match collection {
                    Value::List(items) => items,
                    Value::Null => Vec::new(),
                    other => vec![other],
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
        LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. } => Err(AlgebraError::InvalidPlan(
            "aggregation below the root is not supported by the baseline engines".into(),
        )),
    }
}

/// Finds one `left_path = right_path` conjunct usable as a hash-join key.
pub fn equi_keys(
    predicate: &Expr,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Option<(Expr, Expr)> {
    let left_vars = left.bound_variables();
    let right_vars = right.bound_variables();
    for conjunct in predicate.split_conjunction() {
        if let Expr::Binary {
            op: proteus_algebra::BinaryOp::Eq,
            left: l,
            right: r,
        } = &conjunct
        {
            if let (Expr::Path(lp), Expr::Path(rp)) = (l.as_ref(), r.as_ref()) {
                if left_vars.contains(&lp.base) && right_vars.contains(&rp.base) {
                    return Some((Expr::Path(lp.clone()), Expr::Path(rp.clone())));
                }
                if left_vars.contains(&rp.base) && right_vars.contains(&lp.base) {
                    return Some((Expr::Path(rp.clone()), Expr::Path(lp.clone())));
                }
            }
        }
    }
    None
}

/// Folds bindings through the root reduce/nest of a plan, tuple at a time.
pub fn finalize_aggregation(
    plan: &LogicalPlan,
    bindings: Vec<Env>,
) -> Result<Vec<Value>, AlgebraError> {
    match plan {
        LogicalPlan::Reduce {
            outputs, predicate, ..
        } => {
            let mut accumulators: Vec<Accumulator> = outputs
                .iter()
                .map(|o| Accumulator::zero(o.monoid))
                .collect();
            for env in &bindings {
                if let Some(pred) = predicate {
                    if !pred.eval(env)?.as_bool()? {
                        continue;
                    }
                }
                for (spec, acc) in outputs.iter().zip(accumulators.iter_mut()) {
                    acc.merge(spec.monoid, spec.expr.eval(env)?)?;
                }
            }
            let mut record = proteus_algebra::Record::empty();
            for (spec, acc) in outputs.iter().zip(accumulators) {
                record.set(spec.alias.clone(), acc.finish(spec.monoid));
            }
            Ok(vec![Value::Record(record)])
        }
        LogicalPlan::Nest {
            group_by,
            group_aliases,
            outputs,
            predicate,
            ..
        } => {
            let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
            for env in &bindings {
                if let Some(pred) = predicate {
                    if !pred.eval(env)?.as_bool()? {
                        continue;
                    }
                }
                let key: Vec<Value> = group_by
                    .iter()
                    .map(|g| g.eval(env))
                    .collect::<Result<_, _>>()?;
                let slot = groups.iter_mut().find(|(k, _)| {
                    k.len() == key.len() && k.iter().zip(&key).all(|(a, b)| a.value_eq(b))
                });
                let accumulators = match slot {
                    Some((_, accs)) => accs,
                    None => {
                        groups.push((
                            key.clone(),
                            outputs
                                .iter()
                                .map(|o| Accumulator::zero(o.monoid))
                                .collect(),
                        ));
                        &mut groups.last_mut().unwrap().1
                    }
                };
                for (spec, acc) in outputs.iter().zip(accumulators.iter_mut()) {
                    acc.merge(spec.monoid, spec.expr.eval(env)?)?;
                }
            }
            let mut rows = Vec::with_capacity(groups.len());
            for (key, accumulators) in groups {
                let mut record = proteus_algebra::Record::empty();
                for (i, k) in key.into_iter().enumerate() {
                    let name = group_aliases
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("key{i}"));
                    record.set(name, k);
                }
                for (spec, acc) in outputs.iter().zip(accumulators) {
                    record.set(spec.alias.clone(), acc.finish(spec.monoid));
                }
                rows.push(Value::Record(record));
            }
            Ok(rows)
        }
        _ => Ok(bindings
            .into_iter()
            .map(|env| {
                let mut record = proteus_algebra::Record::empty();
                for name in env.names() {
                    record.set(
                        name.to_string(),
                        env.get(name).cloned().unwrap_or(Value::Null),
                    );
                }
                Value::Record(record)
            })
            .collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaded_table_text_reparses_objects() {
        let table = LoadedTable::Text(vec!["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()]);
        assert_eq!(table.len(), 2);
        let rec = table.record_at(1).unwrap();
        assert_eq!(rec.as_record().unwrap().get("a"), Some(&Value::Int(2)));
        assert!(table.record_at(9).is_none());
    }

    #[test]
    fn parse_json_dataset_round_trips() {
        let rows = parse_json_dataset(b"{\"x\": 1}\n{\"x\": 2}\n").unwrap();
        assert_eq!(rows.len(), 2);
        let texts = split_json_objects(b"{\"x\": 1}\n{\"x\": 2}\n").unwrap();
        assert_eq!(texts.len(), 2);
        assert!(texts[0].contains("\"x\""));
    }

    #[test]
    fn equi_keys_extraction() {
        let left = LogicalPlan::scan("a", "a", proteus_algebra::Schema::empty());
        let right = LogicalPlan::scan("b", "b", proteus_algebra::Schema::empty());
        let pred = Expr::path("a.x").eq(Expr::path("b.y"));
        let (l, r) = equi_keys(&pred, &left, &right).unwrap();
        assert_eq!(l, Expr::path("a.x"));
        assert_eq!(r, Expr::path("b.y"));
        assert!(equi_keys(&Expr::path("a.x").lt(Expr::int(3)), &left, &right).is_none());
    }
}
