//! Rule-based logical rewrites.
//!
//! §4: "when a user asks a query, Proteus parses and normalizes it,
//! performing operations such as selection pushdown and unnesting [...] The
//! algebraic representation is amenable to relational-like optimizations."
//!
//! This module implements the rule-based portion of that pipeline:
//!
//! * splitting conjunctive selections,
//! * pushing selections below joins and unnests,
//! * merging selections into join predicates,
//! * merging adjacent selections,
//! * projection pushdown: annotating every scan with the exact fields the
//!   query needs, which the input plug-ins use to generate code that touches
//!   only those fields.

use std::collections::BTreeSet;

use crate::expr::Expr;
use crate::plan::{JoinKind, LogicalPlan};

/// Applies all rule-based rewrites until a fixpoint (bounded by a small
/// iteration budget — the rules are confluent and terminate quickly in
/// practice, the budget guards against pathological plans).
pub fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    let mut current = plan;
    for _ in 0..8 {
        let pushed = push_down_selections(current.clone());
        let merged = merge_filters_into_joins(pushed);
        let fused = merge_adjacent_selections(merged);
        if fused == current {
            break;
        }
        current = fused;
    }
    push_down_projections(current)
}

/// Pushes selection operators as close to the scans as possible.
pub fn push_down_selections(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Select { input, predicate } => {
            let input = push_down_selections(*input);
            let mut residual = Vec::new();
            let mut current = input;
            for conjunct in predicate.split_conjunction() {
                match try_push(conjunct, current) {
                    (pushed_plan, None) => current = pushed_plan,
                    (same_plan, Some(pred)) => {
                        current = same_plan;
                        residual.push(pred);
                    }
                }
            }
            if residual.is_empty() {
                current
            } else {
                current.select(Expr::conjunction(residual))
            }
        }
        other => map_children(other, push_down_selections),
    }
}

/// Tries to push a single conjunct below the top operator of `plan`.
/// Returns the (possibly rewritten) plan and the conjunct if it could not be
/// pushed.
fn try_push(pred: Expr, plan: LogicalPlan) -> (LogicalPlan, Option<Expr>) {
    let vars = pred.referenced_variables();
    match plan {
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        } => {
            let left_vars = left.bound_variables();
            let right_vars = right.bound_variables();
            let only_left = vars.iter().all(|v| left_vars.contains(v));
            let only_right = vars.iter().all(|v| right_vars.contains(v));
            // Pushing below the null-producing side of an outer join would
            // change semantics, so only the preserved (left) side is eligible.
            if only_left {
                let (new_left, rest) = try_push(pred, *left);
                let new_left = match rest {
                    None => new_left,
                    Some(p) => new_left.select(p),
                };
                (
                    LogicalPlan::Join {
                        left: Box::new(new_left),
                        right,
                        predicate,
                        kind,
                    },
                    None,
                )
            } else if only_right && kind == JoinKind::Inner {
                let (new_right, rest) = try_push(pred, *right);
                let new_right = match rest {
                    None => new_right,
                    Some(p) => new_right.select(p),
                };
                (
                    LogicalPlan::Join {
                        left,
                        right: Box::new(new_right),
                        predicate,
                        kind,
                    },
                    None,
                )
            } else {
                (
                    LogicalPlan::Join {
                        left,
                        right,
                        predicate,
                        kind,
                    },
                    Some(pred),
                )
            }
        }
        LogicalPlan::Unnest {
            input,
            path,
            alias,
            predicate,
            outer,
        } => {
            if vars.contains(&alias) {
                if outer {
                    // Filtering on the unnested element of an *outer* unnest
                    // cannot be embedded without changing null-padding
                    // semantics.
                    (
                        LogicalPlan::Unnest {
                            input,
                            path,
                            alias,
                            predicate,
                            outer,
                        },
                        Some(pred),
                    )
                } else {
                    // Embed the filter into the unnest operator itself: the
                    // algebra's unnest has an embedded filtering step.
                    let combined = match predicate {
                        None => pred,
                        Some(existing) => existing.and(pred),
                    };
                    (
                        LogicalPlan::Unnest {
                            input,
                            path,
                            alias,
                            predicate: Some(combined),
                            outer,
                        },
                        None,
                    )
                }
            } else {
                // The predicate only concerns the input: push below.
                let (new_input, rest) = try_push(pred, *input);
                let new_input = match rest {
                    None => new_input,
                    Some(p) => new_input.select(p),
                };
                (
                    LogicalPlan::Unnest {
                        input: Box::new(new_input),
                        path,
                        alias,
                        predicate,
                        outer,
                    },
                    None,
                )
            }
        }
        LogicalPlan::Select { input, predicate } => {
            let (new_input, rest) = try_push(pred, *input);
            let new_input = match rest {
                None => new_input,
                Some(p) => new_input.select(p),
            };
            (
                LogicalPlan::Select {
                    input: Box::new(new_input),
                    predicate,
                },
                None,
            )
        }
        // Scans, reduces and nests: cannot push further.
        leaf => (leaf, Some(pred)),
    }
}

/// Converts `Select(Join(l, r, p_join), p_sel)` into a join whose predicate
/// includes `p_sel` when `p_sel` references both sides (typical for plans
/// translated from comprehensions where the linking predicate trailed the
/// generators).
pub fn merge_filters_into_joins(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, merge_filters_into_joins);
    match plan {
        LogicalPlan::Select { input, predicate } => match *input {
            LogicalPlan::Join {
                left,
                right,
                predicate: join_pred,
                kind: JoinKind::Inner,
            } => {
                let left_vars = left.bound_variables();
                let right_vars = right.bound_variables();
                let mut into_join = Vec::new();
                let mut keep = Vec::new();
                for conjunct in predicate.split_conjunction() {
                    let vars = conjunct.referenced_variables();
                    let uses_left = vars.iter().any(|v| left_vars.contains(v));
                    let uses_right = vars.iter().any(|v| right_vars.contains(v));
                    if uses_left && uses_right {
                        into_join.push(conjunct);
                    } else {
                        keep.push(conjunct);
                    }
                }
                if into_join.is_empty() {
                    LogicalPlan::Select {
                        input: Box::new(LogicalPlan::Join {
                            left,
                            right,
                            predicate: join_pred,
                            kind: JoinKind::Inner,
                        }),
                        predicate,
                    }
                } else {
                    let mut combined = if join_pred == Expr::boolean(true) {
                        Vec::new()
                    } else {
                        join_pred.split_conjunction()
                    };
                    combined.extend(into_join);
                    let new_join = LogicalPlan::Join {
                        left,
                        right,
                        predicate: Expr::conjunction(combined),
                        kind: JoinKind::Inner,
                    };
                    if keep.is_empty() {
                        new_join
                    } else {
                        new_join.select(Expr::conjunction(keep))
                    }
                }
            }
            other => LogicalPlan::Select {
                input: Box::new(other),
                predicate,
            },
        },
        other => other,
    }
}

/// Merges `Select(Select(x, p1), p2)` into `Select(x, p1 AND p2)`.
pub fn merge_adjacent_selections(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, merge_adjacent_selections);
    match plan {
        LogicalPlan::Select { input, predicate } => match *input {
            LogicalPlan::Select {
                input: inner,
                predicate: inner_pred,
            } => LogicalPlan::Select {
                input: inner,
                predicate: inner_pred.and(predicate),
            },
            other => LogicalPlan::Select {
                input: Box::new(other),
                predicate,
            },
        },
        other => other,
    }
}

/// Projection pushdown: computes, for every scan, the exact set of fields
/// referenced anywhere above it and records it in the scan node — nested
/// leaves as dotted fields (`geo.lat`), so a plug-in that indexes them reads
/// the leaf token instead of materializing the record around it. Input
/// plug-ins use this list to generate access code for only those fields
/// ("Proteus pushes field projections down to the scan operators so that it
/// pays to extract only the fields necessary", §5.2).
///
/// A scan whose records are referenced whole (`yield e`) reads every field,
/// and so does every scan under a root that yields its bindings (not a
/// `Reduce` or `Nest`): the bindings themselves are the answer. A scan
/// nothing references reads none under an aggregating root (`COUNT(*)`).
pub fn push_down_projections(plan: LogicalPlan) -> LogicalPlan {
    let required = plan.required_paths();
    let aggregates = matches!(plan, LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. });
    annotate_scans(plan, &required, aggregates)
}

fn annotate_scans(
    plan: LogicalPlan,
    required: &[crate::expr::Path],
    aggregates: bool,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            dataset,
            alias,
            schema,
            ..
        } => {
            // A nested leaf (`e.geo.lat`) is projected as the dotted field
            // `geo.lat`, unless some reference needs a record above it whole
            // (`e.geo`), which then covers it. The sorted set visits a
            // prefix before the paths it covers.
            let paths: BTreeSet<&[String]> = required
                .iter()
                .filter(|path| path.base == alias)
                .map(|path| path.segments.as_slice())
                .collect();
            // The empty path is the record itself.
            let whole = !aggregates || paths.contains(&[][..]);
            let mut fields: Vec<&[String]> = Vec::new();
            for path in paths {
                if !fields.iter().any(|kept| path.starts_with(kept)) {
                    fields.push(path);
                }
            }
            LogicalPlan::Scan {
                dataset,
                alias,
                schema,
                projected_fields: (!whole)
                    .then(|| fields.iter().map(|path| path.join(".")).collect()),
            }
        }
        other => map_children(other, |child| annotate_scans(child, required, aggregates)),
    }
}

/// Applies `f` to every direct child of the node, rebuilding it.
fn map_children(plan: LogicalPlan, f: impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
            input: Box::new(f(*input)),
            predicate,
        },
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            predicate,
            kind,
        },
        LogicalPlan::Unnest {
            input,
            path,
            alias,
            predicate,
            outer,
        } => LogicalPlan::Unnest {
            input: Box::new(f(*input)),
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
            input: Box::new(f(*input)),
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
            input: Box::new(f(*input)),
            group_by,
            group_aliases,
            outputs,
            predicate,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute, MemoryCatalog};
    use crate::monoid::Monoid;
    use crate::plan::ReduceSpec;
    use crate::schema::Schema;
    use crate::value::Value;

    fn scan(name: &str, alias: &str) -> LogicalPlan {
        LogicalPlan::scan(name, alias, Schema::empty())
    }

    fn test_catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.register(
            "A",
            (0..20)
                .map(|i| Value::record(vec![("x", Value::Int(i)), ("y", Value::Int(i * 10))]))
                .collect(),
        );
        cat.register(
            "B",
            (0..20)
                .map(|i| Value::record(vec![("x", Value::Int(i)), ("z", Value::Int(i % 4))]))
                .collect(),
        );
        cat
    }

    fn count_plan(input: LogicalPlan) -> LogicalPlan {
        input.reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")])
    }

    #[test]
    fn selection_pushes_below_join() {
        let plan = scan("A", "a")
            .join(
                scan("B", "b"),
                Expr::path("a.x").eq(Expr::path("b.x")),
                JoinKind::Inner,
            )
            .select(Expr::path("a.y").lt(Expr::int(50)));
        let rewritten = push_down_selections(plan.clone());
        // The select must now be under the join, directly over scan A.
        let mut select_over_scan = false;
        rewritten.visit(&mut |n| {
            if let LogicalPlan::Select { input, .. } = n {
                if matches!(**input, LogicalPlan::Scan { ref dataset, .. } if dataset == "A") {
                    select_over_scan = true;
                }
            }
        });
        assert!(select_over_scan);
        // Semantics preserved.
        let cat = test_catalog();
        assert_eq!(
            execute(&count_plan(plan), &cat).unwrap(),
            execute(&count_plan(rewritten), &cat).unwrap()
        );
    }

    #[test]
    fn selection_not_pushed_below_outer_join_null_side() {
        let plan = scan("A", "a")
            .join(
                scan("B", "b"),
                Expr::path("a.x").eq(Expr::path("b.x")),
                JoinKind::LeftOuter,
            )
            .select(Expr::path("b.z").eq(Expr::int(1)));
        let rewritten = push_down_selections(plan);
        // The predicate on the null-producing side must remain above the join.
        assert!(matches!(rewritten, LogicalPlan::Select { .. }));
    }

    #[test]
    fn filter_on_unnest_alias_embeds_into_unnest() {
        let plan = scan("A", "a")
            .unnest(crate::expr::Path::parse("a.items"), "i")
            .select(Expr::path("i.qty").gt(Expr::int(3)));
        let rewritten = push_down_selections(plan);
        match rewritten {
            LogicalPlan::Unnest { predicate, .. } => assert!(predicate.is_some()),
            other => panic!("expected unnest at root, got {}", other.name()),
        }
    }

    #[test]
    fn cross_side_filter_merges_into_join() {
        let plan = scan("A", "a")
            .join(scan("B", "b"), Expr::boolean(true), JoinKind::Inner)
            .select(Expr::path("a.x").eq(Expr::path("b.x")));
        let rewritten = merge_filters_into_joins(plan);
        match &rewritten {
            LogicalPlan::Join { predicate, .. } => {
                assert_ne!(*predicate, Expr::boolean(true));
            }
            other => panic!("expected join at root, got {}", other.name()),
        }
    }

    #[test]
    fn adjacent_selects_merge() {
        let plan = scan("A", "a")
            .select(Expr::path("a.x").gt(Expr::int(1)))
            .select(Expr::path("a.y").lt(Expr::int(100)));
        let rewritten = merge_adjacent_selections(plan);
        let mut select_count = 0;
        rewritten.visit(&mut |n| {
            if matches!(n, LogicalPlan::Select { .. }) {
                select_count += 1;
            }
        });
        assert_eq!(select_count, 1);
    }

    #[test]
    fn projection_pushdown_annotates_scans() {
        let plan = count_plan(
            scan("A", "a")
                .select(Expr::path("a.x").lt(Expr::int(3)))
                .join(
                    scan("B", "b"),
                    Expr::path("a.x").eq(Expr::path("b.x")),
                    JoinKind::Inner,
                ),
        );
        let rewritten = push_down_projections(plan);
        let mut a_fields = Vec::new();
        let mut b_fields = Vec::new();
        rewritten.visit(&mut |n| {
            if let LogicalPlan::Scan {
                dataset,
                projected_fields,
                ..
            } = n
            {
                if dataset == "A" {
                    a_fields = projected_fields.clone().unwrap_or_default();
                } else {
                    b_fields = projected_fields.clone().unwrap_or_default();
                }
            }
        });
        assert_eq!(a_fields, vec!["x"]);
        assert_eq!(b_fields, vec!["x"]);
    }

    #[test]
    fn projection_pushdown_tells_no_field_from_every_field() {
        let projected = |plan: LogicalPlan| {
            let mut fields = Vec::new();
            push_down_projections(plan).visit(&mut |n| {
                if let LogicalPlan::Scan {
                    projected_fields, ..
                } = n
                {
                    fields.push(projected_fields.clone());
                }
            });
            fields
        };
        // `COUNT(*)`: nothing is read, and that is not "everything".
        assert_eq!(projected(count_plan(scan("A", "a"))), vec![Some(vec![])]);
        // A record referenced whole reads every field.
        let whole =
            scan("A", "a").reduce(vec![ReduceSpec::new(Monoid::Bag, Expr::path("a"), "rows")]);
        assert_eq!(projected(whole), vec![None]);
        // A root that yields its bindings reads every scan whole, however
        // little of it the plan references.
        assert_eq!(projected(scan("A", "a")), vec![None]);
        let bare_join = scan("A", "a").join(
            scan("B", "b"),
            Expr::path("a.k").eq(Expr::path("b.k")),
            JoinKind::Inner,
        );
        assert_eq!(projected(bare_join), vec![None, None]);
        // Only the referenced side of a join reads fields.
        let join = count_plan(scan("A", "a").join(
            scan("B", "b"),
            Expr::path("a.x").lt(Expr::int(3)),
            JoinKind::Inner,
        ));
        assert_eq!(projected(join), vec![Some(vec!["x".into()]), Some(vec![])]);
    }

    #[test]
    fn projection_pushdown_keeps_nested_leaves_dotted() {
        let fields_of = |plan: LogicalPlan| {
            let mut fields = Vec::new();
            push_down_projections(plan).visit(&mut |n| {
                if let LogicalPlan::Scan {
                    projected_fields, ..
                } = n
                {
                    fields = projected_fields.clone().unwrap_or_default();
                }
            });
            fields
        };
        // Leaves only: each is its own scan field.
        let leaves = count_plan(
            scan("A", "a")
                .select(Expr::path("a.geo.lon").lt(Expr::path("a.geo.lat")))
                .select(Expr::path("a.x").lt(Expr::int(1))),
        );
        assert_eq!(fields_of(leaves), vec!["geo.lat", "geo.lon", "x"]);
        // A reference to the record whole covers the leaves under it; a
        // sibling that merely shares its spelling (`geo2`) is untouched.
        let whole = count_plan(
            scan("A", "a")
                .select(Expr::path("a.geo.lat").lt(Expr::path("a.geo2.lat")))
                .select(Expr::path("a.geo").eq(Expr::path("a.geo.pos.x"))),
        );
        assert_eq!(fields_of(whole), vec!["geo", "geo2.lat"]);
        // An unnest needs its collection whole.
        let unnest = count_plan(
            scan("A", "a")
                .unnest(crate::expr::Path::parse("a.order.items"), "i")
                .select(Expr::path("i.qty").gt(Expr::int(3))),
        );
        assert_eq!(fields_of(unnest), vec!["order.items"]);
    }

    #[test]
    fn full_rewrite_preserves_semantics() {
        let plan = count_plan(
            scan("A", "a")
                .join(scan("B", "b"), Expr::boolean(true), JoinKind::Inner)
                .select(
                    Expr::path("a.x")
                        .eq(Expr::path("b.x"))
                        .and(Expr::path("a.y").lt(Expr::int(100)))
                        .and(Expr::path("b.z").eq(Expr::int(1))),
                ),
        );
        let rewritten = rewrite(plan.clone());
        let cat = test_catalog();
        assert_eq!(
            execute(&plan, &cat).unwrap(),
            execute(&rewritten, &cat).unwrap()
        );
    }

    #[test]
    fn rewrite_is_idempotent() {
        let plan = count_plan(
            scan("A", "a")
                .join(
                    scan("B", "b"),
                    Expr::path("a.x").eq(Expr::path("b.x")),
                    JoinKind::Inner,
                )
                .select(Expr::path("a.y").lt(Expr::int(50))),
        );
        let once = rewrite(plan);
        let twice = rewrite(once.clone());
        assert_eq!(once, twice);
    }
}
