//! Execution metrics.
//!
//! The paper backs its §7.1 join analysis with hardware counters (dTLB
//! misses, LLC misses, branch counts). Re-measuring those is
//! hardware-specific, so the reproduction reports the *software causes* the
//! paper attributes them to: how many tuples each engine materializes into
//! intermediate buffers, how many predicate/branch evaluations sit on the
//! per-tuple path, how many hash-table probes a join performs, and how many
//! bytes of intermediate state it writes.

use std::fmt;
use std::time::Duration;

/// Counters collected while compiling and executing one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionMetrics {
    /// Tuples produced by scan operators.
    pub tuples_scanned: u64,
    /// Tuples/bindings produced as the final result (before aggregation
    /// collapses them).
    pub tuples_output: u64,
    /// Tuples written into intermediate buffers (join build/probe
    /// materialization, operator-at-a-time intermediates in the baselines).
    pub intermediate_tuples: u64,
    /// Bytes of intermediate state written.
    pub intermediate_bytes: u64,
    /// Predicate / branch evaluations on the per-tuple path (kernel and
    /// closure selections combined: `kernel_rows + fallback_rows` for plain
    /// filter stages).
    pub predicate_evals: u64,
    /// Rows whose selection predicates were evaluated by the vectorized
    /// columnar kernels (the packed-bitmask tier): counted once per row per
    /// `KernelFilter` stage, whether or not the row survived. A fully
    /// kernel-eligible selection over N scanned rows reports exactly N here
    /// and 0 in [`ExecutionMetrics::fallback_rows`].
    pub kernel_rows: u64,
    /// Rows whose selection predicates fell back to compiled per-tuple
    /// closures — ineligible conjuncts (division, `If`, record/list shapes,
    /// nested paths, untyped slots) split out as residuals, plus every
    /// filter above an unnest/join. When a predicate splits, the residual
    /// closure only sees rows the kernel mask already passed, so
    /// `kernel_rows + fallback_rows` can legitimately exceed the scanned
    /// row count while each tier's number stays per-row accurate.
    pub fallback_rows: u64,
    /// Aggregate inputs folded columnwise by the vectorized sink kernels
    /// (counted per surviving row × kernel-classified output spec).
    pub agg_kernel_rows: u64,
    /// Aggregate inputs folded through compiled per-tuple closures and
    /// `Accumulator::merge` (per row × closure-fallback output spec).
    pub agg_fallback_rows: u64,
    /// Join build/probe rows whose keys were hashed and compared straight
    /// from typed morsel columns by the vectorized join kernels.
    pub join_kernel_rows: u64,
    /// Join build/probe rows whose keys fell back to compiled per-tuple key
    /// closures (untyped slots, computed or record-shaped key expressions).
    pub join_fallback_rows: u64,
    /// Hash-table probes performed by joins and group-bys.
    pub hash_probes: u64,
    /// Values copied into cache-build chunks as a side effect of execution:
    /// one per cached field and scanned row, whether or not the entry is
    /// then registered.
    pub cached_values: u64,
    /// Morsels dispatched to pipeline workers.
    pub morsels: u64,
    /// Morsels skipped entirely by zone-map classification: the leading
    /// kernel predicate could not pass any row in the morsel's OID range, so
    /// no typed fill ran and nothing was scanned. Still counted in
    /// [`ExecutionMetrics::morsels`] (they were dispatched).
    pub morsels_skipped: u64,
    /// Morsels whose zone maps proved the leading kernel predicate passes
    /// every row: the compare kernels were bypassed and the selection
    /// short-circuited to an identity bitmask.
    pub morsels_short_circuited: u64,
    /// Always 0: the engine has no secondary indexes (zone maps are its
    /// only Tier 0 access path), so no row is ever answered by one. The
    /// field stays because the end-to-end harness reads it by name; it goes
    /// in a `[benchmark]` PR.
    pub index_rows: u64,
    /// Per-tuple `Binding` heap materializations (join build sides,
    /// collected output rows). **Zero on the steady-state scan path** —
    /// scans, filters and reduce/nest sinks work entirely inside recycled
    /// batch buffers.
    pub binding_allocs: u64,
    /// Batch-buffer growth events: the reusable morsel buffers allocating or
    /// growing. O(pipeline depth × workers), not O(tuples) — stable after
    /// the first few morsels.
    pub batch_grows: u64,
    /// Rows the dataset's plug-in skipped or nulled at registration under a
    /// lenient bad-row policy (`Skip`/`Null`): the count of malformed
    /// source rows behind this query's scans.
    pub bad_rows: u64,
    /// The query's worker *cap*: how many workers the dispatcher made
    /// available to its pipelines (1 = serial path). This is the per-query
    /// concurrency limit, not a claim that that many pool workers actually
    /// touched the query — that is [`ExecutionMetrics::workers_touched`].
    pub threads_used: u64,
    /// Distinct workers (the submitting thread plus any pool workers) that
    /// processed at least one morsel of the query. At most `threads_used`;
    /// exactly 1 on the serial path. Reported as the maximum across the
    /// query's pipeline runs (a join executes one run per build side plus
    /// the probe spine).
    pub workers_touched: u64,
    /// Microseconds the query waited in the scheduler's admission queue
    /// before a concurrency slot freed up. 0 when admission is unlimited or
    /// a slot was free on arrival.
    pub queue_wait_us: u64,
    /// Work-stealing events: how many times a shared-pool worker attached to
    /// one of this query's morsel queues and claimed a slice of morsels. 0
    /// on the serial path.
    pub sched_steals: u64,
    /// Time spent generating the specialized engine (the paper reports ≤ ~50 ms).
    pub compile_time: Duration,
    /// Time spent executing the generated engine.
    pub exec_time: Duration,
}

/// How a counter combines when two metrics objects merge.
#[derive(Clone, Copy)]
enum Fold {
    /// An event count: summed by every merge. Workers of one query run
    /// concurrently and each counts its own events.
    Sum,
    /// Set once per query by the dispatcher, not by workers: summed when
    /// whole queries merge into a workload, left alone when worker partials
    /// merge into their query.
    QuerySum,
    /// A per-query level (worker cap, workers touched), also set by the
    /// dispatcher: a workload keeps the maximum.
    QueryMax,
}

impl Fold {
    fn apply(self, into: &mut u64, from: u64, whole_query: bool) {
        match (self, whole_query) {
            (Fold::Sum, _) | (Fold::QuerySum, true) => *into += from,
            (Fold::QueryMax, true) => *into = (*into).max(from),
            (Fold::QuerySum | Fold::QueryMax, false) => {}
        }
    }
}

/// The one list of `u64` counters, in declaration order: what merges how,
/// what [`fmt::Display`] prints and what the service's `metrics` trailer
/// carries (name = wire key). A counter missing here is missing from all
/// three; `every_u64_field_is_in_the_counter_table` fails on that.
macro_rules! counter_table {
    ($($field:ident: $fold:ident,)*) => {
        const COUNTERS: usize = [$(stringify!($field)),*].len();

        impl ExecutionMetrics {
            /// Every `u64` counter as `(field name, value)`, in declaration
            /// order.
            pub fn counters(&self) -> [(&'static str, u64); COUNTERS] {
                [$((stringify!($field), self.$field)),*]
            }

            fn fold(&mut self, other: &ExecutionMetrics, whole_query: bool) {
                $(Fold::$fold.apply(&mut self.$field, other.$field, whole_query);)*
            }
        }
    };
}

counter_table! {
    tuples_scanned: Sum,
    tuples_output: QuerySum,
    intermediate_tuples: Sum,
    intermediate_bytes: Sum,
    predicate_evals: Sum,
    kernel_rows: Sum,
    fallback_rows: Sum,
    agg_kernel_rows: Sum,
    agg_fallback_rows: Sum,
    join_kernel_rows: Sum,
    join_fallback_rows: Sum,
    hash_probes: Sum,
    cached_values: Sum,
    morsels: Sum,
    morsels_skipped: Sum,
    morsels_short_circuited: Sum,
    index_rows: Sum,
    binding_allocs: Sum,
    batch_grows: Sum,
    bad_rows: Sum,
    threads_used: QueryMax,
    workers_touched: QueryMax,
    queue_wait_us: Sum,
    sched_steals: Sum,
}

impl ExecutionMetrics {
    /// Creates empty metrics.
    pub fn new() -> ExecutionMetrics {
        ExecutionMetrics::default()
    }

    /// Sums the pure event counters — everything except output size, thread
    /// counts and the timing fields. The pipeline's per-worker merge
    /// (workers run concurrently, so their wall times must not add; output
    /// size and thread counts are tracked by the dispatcher).
    pub fn merge_counters(&mut self, other: &ExecutionMetrics) {
        self.fold(other, false);
    }

    /// Sums another metrics object into this one (used to aggregate a whole
    /// workload, e.g. Table 3).
    pub fn merge(&mut self, other: &ExecutionMetrics) {
        self.fold(other, true);
        self.compile_time += other.compile_time;
        self.exec_time += other.exec_time;
    }

    /// Total wall time attributed to the query.
    pub fn total_time(&self) -> Duration {
        self.compile_time + self.exec_time
    }
}

impl fmt::Display for ExecutionMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counters() {
            write!(f, "{name}={value} ")?;
        }
        write!(
            f,
            "compile={:?} exec={:?}",
            self.compile_time, self.exec_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ExecutionMetrics {
            tuples_scanned: 10,
            predicate_evals: 5,
            exec_time: Duration::from_millis(3),
            ..Default::default()
        };
        let b = ExecutionMetrics {
            tuples_scanned: 7,
            predicate_evals: 2,
            compile_time: Duration::from_millis(1),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tuples_scanned, 17);
        assert_eq!(a.predicate_evals, 7);
        assert_eq!(a.total_time(), Duration::from_millis(4));
    }

    #[test]
    fn worker_merge_leaves_dispatcher_fields_alone() {
        let worker = ExecutionMetrics {
            morsels: 4,
            tuples_output: 9,
            threads_used: 4,
            workers_touched: 2,
            exec_time: Duration::from_millis(3),
            ..Default::default()
        };
        let mut query = ExecutionMetrics::new();
        query.merge_counters(&worker);
        assert_eq!(
            query,
            ExecutionMetrics {
                morsels: 4,
                ..Default::default()
            }
        );
        let mut workload = ExecutionMetrics {
            threads_used: 8,
            tuples_output: 1,
            ..Default::default()
        };
        workload.merge(&worker);
        assert_eq!(workload.tuples_output, 10);
        assert_eq!(workload.threads_used, 8);
        assert_eq!(workload.workers_touched, 2);
    }

    #[test]
    fn display_contains_counters() {
        let m = ExecutionMetrics {
            tuples_scanned: 3,
            ..Default::default()
        };
        let text = m.to_string();
        assert!(text.starts_with("tuples_scanned=3 "), "{text}");
        assert!(text.ends_with(" compile=0ns exec=0ns"), "{text}");
    }

    #[test]
    fn every_u64_field_is_in_the_counter_table() {
        // `{:#?}` prints one `name: value,` line per field; the integer
        // ones are the `u64` counters (durations print with a unit).
        let debug = format!("{:#?}", ExecutionMetrics::default());
        let fields: Vec<&str> = debug
            .lines()
            .filter_map(|line| line.trim().strip_suffix(',')?.split_once(": "))
            .filter(|(_, value)| value.parse::<u64>().is_ok())
            .map(|(name, _)| name)
            .collect();
        let table: Vec<&str> = ExecutionMetrics::default()
            .counters()
            .iter()
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(fields, table);
    }
}
