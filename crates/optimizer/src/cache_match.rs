//! Cache matching (§6, "Cache Matching").
//!
//! "For every cache that Proteus populates, the Caching Manager stores the
//! physical plan corresponding to the cache and uses it as a search key
//! during cache matching. [...] For a node in the current query to fully
//! match a node in a cached plan, i) they must both perform the same
//! operation, ii) have the same arguments, and iii) their children nodes must
//! match each other respectively."
//!
//! Plans are compared through their canonical signatures
//! ([`LogicalPlan::signature`]), traversed bottom-up. A fully-matched subtree
//! is replaced by a scan over the cache dataset; field references through the
//! original aliases keep working because the cache columns are named after
//! the leaf field of the cached expressions.
//!
//! Every successful lookup also records a hit on the matched entry
//! (inside [`CacheStore::lookup_by_signature`]), which feeds the store's
//! cost/benefit eviction score live: entries that keep matching queries
//! keep rising above eviction candidates.

use proteus_algebra::LogicalPlan;
use proteus_storage::CacheStore;

/// Record of one subtree replacement performed by cache matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheRewrite {
    /// Name of the cache that was spliced in.
    pub cache_name: String,
    /// Signature of the replaced subtree.
    pub replaced_signature: String,
}

/// Prefix used for the synthetic dataset names that cache scans reference.
pub const CACHE_DATASET_PREFIX: &str = "__cache::";

/// Rewrites the plan to read from matching caches. Returns the rewritten plan
/// and the list of rewrites applied (empty when nothing matched).
pub fn match_caches(plan: LogicalPlan, store: &CacheStore) -> (LogicalPlan, Vec<CacheRewrite>) {
    let mut rewrites = Vec::new();
    let rewritten = rewrite_node(plan, store, &mut rewrites);
    (rewritten, rewrites)
}

fn rewrite_node(
    plan: LogicalPlan,
    store: &CacheStore,
    rewrites: &mut Vec<CacheRewrite>,
) -> LogicalPlan {
    // Bottom-up: children first, then try to replace the (possibly already
    // rewritten) node itself.
    let plan = match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
            input: Box::new(rewrite_node(*input, store, rewrites)),
            predicate,
        },
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        } => LogicalPlan::Join {
            left: Box::new(rewrite_node(*left, store, rewrites)),
            right: Box::new(rewrite_node(*right, store, rewrites)),
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
            input: Box::new(rewrite_node(*input, store, rewrites)),
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
            input: Box::new(rewrite_node(*input, store, rewrites)),
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
            input: Box::new(rewrite_node(*input, store, rewrites)),
            group_by,
            group_aliases,
            outputs,
            predicate,
        },
        LogicalPlan::CacheScan {
            input,
            expressions,
            cache_name,
        } => LogicalPlan::CacheScan {
            input: Box::new(rewrite_node(*input, store, rewrites)),
            expressions,
            cache_name,
        },
    };

    try_replace(plan, store, rewrites)
}

/// Replaces the node itself if a cache holds exactly its output. Only
/// binding-producing subtrees (scans, scan+select, scan+unnest chains) are
/// candidates; aggregation results are cheap relative to data access and the
/// paper's caching manager focuses on replacing access paths.
fn try_replace(
    plan: LogicalPlan,
    store: &CacheStore,
    rewrites: &mut Vec<CacheRewrite>,
) -> LogicalPlan {
    let replaceable = matches!(
        plan,
        LogicalPlan::Scan { .. } | LogicalPlan::Select { .. } | LogicalPlan::Unnest { .. }
    );
    if !replaceable {
        return plan;
    }
    let signature = plan.signature();
    match store.lookup_by_signature(&signature) {
        Some(entry) => {
            // Preserve the alias bound by the replaced subtree so upstream
            // expressions still resolve.
            let alias = plan
                .bound_variables()
                .into_iter()
                .next()
                .unwrap_or_else(|| "c".to_string());
            let schema = proteus_algebra::Schema::new(
                entry
                    .columns()
                    .iter()
                    .map(|(name, col)| proteus_algebra::Field::new(name.clone(), col.data_type()))
                    .collect(),
            );
            rewrites.push(CacheRewrite {
                cache_name: entry.name.clone(),
                replaced_signature: signature,
            });
            LogicalPlan::Scan {
                dataset: format!("{CACHE_DATASET_PREFIX}{}", entry.name),
                alias,
                schema,
                projected_fields: Vec::new(),
            }
        }
        None => plan,
    }
}

/// Extracts the cache name from a synthetic cache dataset name, if it is one.
pub fn cache_name_from_dataset(dataset: &str) -> Option<&str> {
    dataset.strip_prefix(CACHE_DATASET_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_algebra::{Expr, Monoid, ReduceSpec, Schema};
    use proteus_storage::cache::make_entry;
    use proteus_storage::{ColumnData, MemoryManager, SourceFormat};

    fn store_with(signature: &str) -> CacheStore {
        let store = CacheStore::new(MemoryManager::with_budget(1 << 20));
        store
            .insert(make_entry(
                "c0",
                signature,
                "lineitem",
                SourceFormat::Json,
                vec![("l_orderkey".to_string(), ColumnData::Int(vec![1, 2, 3]))],
                vec![0, 1, 2],
            ))
            .unwrap();
        store
    }

    fn filtered_scan() -> LogicalPlan {
        LogicalPlan::scan("lineitem", "l", Schema::empty())
            .select(Expr::path("l.l_orderkey").lt(Expr::int(100)))
    }

    #[test]
    fn full_subtree_match_replaces_with_cache_scan() {
        let subtree = filtered_scan();
        let store = store_with(&subtree.signature());
        let plan = subtree.reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")]);
        let (rewritten, rewrites) = match_caches(plan, &store);
        assert_eq!(rewrites.len(), 1);
        assert_eq!(rewrites[0].cache_name, "c0");
        // The select disappeared: the cache already holds qualifying rows.
        let mut names = Vec::new();
        rewritten.visit(&mut |n| names.push(n.name()));
        assert_eq!(names, vec!["Reduce", "Scan"]);
        // The scan references the synthetic cache dataset but keeps alias l.
        rewritten.visit(&mut |n| {
            if let LogicalPlan::Scan { dataset, alias, .. } = n {
                assert!(cache_name_from_dataset(dataset).is_some());
                assert_eq!(alias, "l");
            }
        });
    }

    #[test]
    fn no_match_leaves_plan_untouched() {
        let store = store_with("some other signature");
        let plan = filtered_scan().reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        let (rewritten, rewrites) = match_caches(plan.clone(), &store);
        assert!(rewrites.is_empty());
        assert_eq!(rewritten, plan);
    }

    #[test]
    fn different_predicate_does_not_match() {
        // Cache was built for < 100; the new query filters < 200.
        let store = store_with(&filtered_scan().signature());
        let plan = LogicalPlan::scan("lineitem", "l", Schema::empty())
            .select(Expr::path("l.l_orderkey").lt(Expr::int(200)))
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        let (_, rewrites) = match_caches(plan, &store);
        assert!(rewrites.is_empty());
    }

    #[test]
    fn inner_scan_of_join_can_be_replaced() {
        let scan = LogicalPlan::scan("lineitem", "l", Schema::empty());
        let store = store_with(&scan.signature());
        let plan = LogicalPlan::scan("orders", "o", Schema::empty())
            .join(
                scan,
                Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                proteus_algebra::JoinKind::Inner,
            )
            .reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "c")]);
        let (rewritten, rewrites) = match_caches(plan, &store);
        assert_eq!(rewrites.len(), 1);
        let mut cache_scans = 0;
        rewritten.visit(&mut |n| {
            if let LogicalPlan::Scan { dataset, .. } = n {
                if cache_name_from_dataset(dataset).is_some() {
                    cache_scans += 1;
                }
            }
        });
        assert_eq!(cache_scans, 1);
    }

    #[test]
    fn cache_name_extraction() {
        assert_eq!(cache_name_from_dataset("__cache::foo"), Some("foo"));
        assert_eq!(cache_name_from_dataset("lineitem"), None);
    }
}
