//! Plan pretty-printing (EXPLAIN output).

use crate::plan::LogicalPlan;

/// Renders a plan as an indented operator tree, one operator per line,
/// children indented below their parent — the usual EXPLAIN layout.
pub fn explain(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    write_node(plan, 0, &mut out);
    out
}

fn write_node(plan: &LogicalPlan, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    match plan {
        LogicalPlan::Scan {
            dataset,
            alias,
            projected_fields,
            ..
        } => {
            out.push_str(&format!("Scan {dataset} as {alias}"));
            if let Some(fields) = projected_fields {
                out.push_str(&format!(" [{}]", fields.join(", ")));
            }
        }
        LogicalPlan::Select { predicate, .. } => {
            out.push_str(&format!("Select {predicate}"));
        }
        LogicalPlan::Join {
            predicate, kind, ..
        } => {
            out.push_str(&format!("{kind} on {predicate}"));
        }
        LogicalPlan::Unnest {
            path,
            alias,
            predicate,
            outer,
            ..
        } => {
            let op = if *outer { "OuterUnnest" } else { "Unnest" };
            out.push_str(&format!("{op} {path} as {alias}"));
            if let Some(p) = predicate {
                out.push_str(&format!(" where {p}"));
            }
        }
        LogicalPlan::Reduce {
            outputs, predicate, ..
        } => {
            let specs: Vec<String> = outputs.iter().map(|o| o.to_string()).collect();
            out.push_str(&format!("Reduce [{}]", specs.join(", ")));
            if let Some(p) = predicate {
                out.push_str(&format!(" where {p}"));
            }
        }
        LogicalPlan::Nest {
            group_by,
            outputs,
            predicate,
            ..
        } => {
            let keys: Vec<String> = group_by.iter().map(|g| g.to_string()).collect();
            let specs: Vec<String> = outputs.iter().map(|o| o.to_string()).collect();
            out.push_str(&format!(
                "Nest by [{}] compute [{}]",
                keys.join(", "),
                specs.join(", ")
            ));
            if let Some(p) = predicate {
                out.push_str(&format!(" where {p}"));
            }
        }
    }
    out.push('\n');
    for child in plan.children() {
        write_node(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::monoid::Monoid;
    use crate::plan::ReduceSpec;
    use crate::schema::Schema;

    #[test]
    fn explain_renders_tree_shape() {
        let plan = LogicalPlan::scan("lineitem", "l", Schema::empty())
            .select(Expr::path("l.l_orderkey").lt(Expr::int(10)))
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        let text = explain(&plan);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("Reduce"));
        assert!(lines[1].starts_with("  Select"));
        assert!(lines[2].starts_with("    Scan lineitem as l"));
    }

    #[test]
    fn explain_shows_projected_fields() {
        let plan = LogicalPlan::Scan {
            dataset: "t".into(),
            alias: "t".into(),
            schema: Schema::empty(),
            projected_fields: Some(vec!["a".into(), "b".into()]),
        };
        assert!(explain(&plan).contains("[a, b]"));
    }
}
