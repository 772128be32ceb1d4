//! Morsel-driven execution of the generated pipelines.
//!
//! The compiler (codegen) lowers a plan to a `Producer` tree. Before
//! execution the tree is *prepared*: every join build side is materialized
//! by a morsel-parallel run of the build spine and indexed, on the preparing
//! thread, into a shared [`RadixHashTable`], leaving a linear **spine** —
//! scan → stage* — that streams batches. A stage shrinks the selection
//! (kernel and closure filters), hydrates typed slots, or produces into the
//! worker's second batch: the join probe, the closure-floor unnest (rows
//! rebuilt from `Value`s) and the typed unnest (`Stage::Expand`: element
//! lanes and gathered parent columns land as typed columns, so kernels keep
//! running on the far side). Execution then dispatches morsels
//! of [`MORSEL_SIZE`] tuples from an atomic work counter to its workers;
//! each worker owns two recycled
//! [`BindingBatch`]es and a private sink partial (a radix group table — one
//! aggregate sink for group-bys and reduces, a reduce being the table over
//! zero keys — a row buffer, or build-store chunks), and the partials are
//! merged under the monoid's associative ⊕ when the run drains. With
//! `parallelism = 1` the same batch code runs inline on the calling thread —
//! the serial path and the parallel path are the same code, so their results
//! only differ by floating-point summation order.
//!
//! Workers come from the shared scheduler (see [`super::scheduler`]): the
//! submitting thread drives a `PipelineRun` to completion while persistent
//! pool workers steal bounded slices of morsels, parking their partials on
//! the run between slices — many concurrent queries share one pool. The
//! submitter and the pool workers run the same `drive_run` morsel loop, so
//! containment, checkpointing and budget semantics are identical on both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use proteus_algebra::monoid::Accumulator;
use proteus_algebra::{JoinKind, Monoid, Value};
use proteus_plugins::{
    all_rows, BatchFill, ColumnStats, TypedExpand, TypedFill, TypedKind, ZoneMap, ZONE_ROWS,
};

use crate::cache_builder::{CacheBuilder, CacheChunk};
use crate::error::{EngineError, Result};
use crate::exec::batch::{BindingBatch, MORSEL_SIZE};
use crate::exec::context::QueryContext;
use crate::exec::expr::{CompiledExpr, CompiledPredicate};
use crate::exec::kernels::{self, KernelPred, SinkKernel, ZoneVerdict};
use crate::exec::mask;
use crate::exec::metrics::ExecutionMetrics;
use crate::exec::radix::{
    hash_key_components, BuildStore, MatchedBitmap, RadixGroupTable, RadixHashTable, StoreColumn,
    JOIN_NULLS,
};
use crate::exec::scheduler::{PoolTask, Scheduler};
use crate::exec::Binding;

/// Everything a pipeline run needs from the dispatcher: the worker cap, the
/// query's lifecycle context, and the scheduler to offer runs to. One
/// `ExecEnv` serves the whole query — nested runs (join build sides)
/// inherit it.
pub(crate) struct ExecEnv {
    pub(crate) threads: usize,
    pub(crate) ctx: Arc<QueryContext>,
    pub(crate) scheduler: Arc<Scheduler>,
}

/// Morsels a pool worker claims per steal before re-picking the neediest
/// run — the fairness granule of the shared pool.
const STEAL_SLICE_MORSELS: u64 = 16;

// ---------------------------------------------------------------------------
// The compiled producer tree (built by codegen).
// ---------------------------------------------------------------------------

/// One typed (vectorized) slot fill of a scan, planned by codegen.
pub(crate) struct TypedSlotFill {
    /// Batch slot the column lands in.
    pub(crate) slot: usize,
    /// Dotted slot name (drives the hydration analysis).
    pub(crate) name: String,
    /// Element kind of the typed column (drives kernel planning).
    pub(crate) kind: TypedKind,
    /// The plug-in's typed morsel filler.
    pub(crate) fill: TypedFill,
    /// Set once a kernel references the slot, or from the start when the
    /// scan caches the field.
    pub(crate) active: bool,
    /// Set when anything downstream of the kernels reads the slot's `Value`
    /// form (closure residuals, sink expressions, collected rows).
    pub(crate) hydrate: bool,
}

/// One element lane of a typed unnest, planned by codegen.
pub(crate) struct ExpandLane {
    /// Batch slot the lane lands in.
    pub(crate) slot: usize,
    /// Dotted slot name (`i.qty`; drives the hydration analysis).
    pub(crate) name: String,
    /// Element kind of the lane (drives kernel planning).
    pub(crate) kind: TypedKind,
    /// Set when anything downstream reads the lane's `Value` form.
    pub(crate) hydrate: bool,
}

/// A binding producer: the part of the pipeline below the sink.
pub(crate) enum Producer {
    /// Scan of a dataset through specialized morsel fillers.
    Scan {
        /// Dataset name (kept for diagnostics in debug output).
        #[allow(dead_code)]
        dataset: String,
        row_count: u64,
        /// `(slot, morsel filler)` per projected field.
        fills: Vec<(usize, BatchFill)>,
        /// Typed columnar fills the plug-in offers; entries activated by the
        /// kernel planner or the cache build replace the slot's `Value` fill.
        typed: Vec<TypedSlotFill>,
        width: usize,
        /// The cache this scan builds as a side effect; its slots are
        /// active typed fills.
        cache_builder: Option<CacheBuilder>,
        /// Per-morsel zone maps keyed by typed slot (empty when morsel
        /// skipping is off or the plug-in has none). Zone `z` describes
        /// exactly morsel `z` (`ZONE_ROWS == MORSEL_SIZE`, asserted below).
        zones: Vec<(usize, Arc<ZoneMap>)>,
        /// Dataset-level per-slot statistics (aggregated from the zone
        /// maps); consumed at compile time by the selectivity-ordered
        /// predicate planner, not at execution time.
        slot_stats: Vec<(usize, ColumnStats)>,
        /// Malformed source rows the plug-in skipped or nulled at
        /// registration (lenient bad-row policies) — surfaced in
        /// `ExecutionMetrics::bad_rows`.
        bad_rows: u64,
    },
    /// Inlined selection: a vectorized kernel part and/or a compiled-closure
    /// part (at least one is present).
    Filter {
        input: Box<Producer>,
        kernel: Option<KernelPred>,
        predicate: Option<CompiledPredicate>,
    },
    /// Unnest of a nested collection into a new slot, through the
    /// collection's `Value`: the closure floor every unnest can run on.
    Unnest {
        input: Box<Producer>,
        /// Where the collection sits in an input row: a slot plus the
        /// segments navigated inside its value (borrowed, never cloned out).
        collection_slot: usize,
        collection_path: Vec<String>,
        slot: usize,
        predicate: Option<CompiledPredicate>,
        outer: bool,
        /// Input slot names in slot order, and the input slots something
        /// downstream reads — the only ones copied per element. Codegen sets
        /// them to the slots this operator's predicate or anything above it
        /// references; its finalize pass keeps the ones read as `Value`s.
        parent_names: Vec<String>,
        parent_live: Vec<usize>,
    },
    /// Typed unnest directly over a scan: the plug-in's expand hook renders
    /// the element leaves the query reads as typed lanes and the parent-row
    /// index the live parent slots are gathered by; no collection or element
    /// `Value` exists. The element predicate, if any, is an ordinary
    /// [`Producer::Filter`] above it.
    Expand {
        input: Box<Producer>,
        expand: TypedExpand,
        /// One output slot per element lane, in the hook's lane order.
        lanes: Vec<ExpandLane>,
        /// The scan slot holding the collection, whose row-major fill the
        /// finalize pass drops unless something reads the collection whole.
        collection_slot: usize,
        outer: bool,
        parent_names: Vec<String>,
        /// Input slots a downstream kernel reads as typed columns.
        parent_typed: Vec<usize>,
        /// Input slots carried across to the expanded rows: `parent_typed`
        /// plus everything downstream reads in `Value` form (codegen, as
        /// for [`Producer::Unnest`]).
        parent_live: Vec<usize>,
    },
    /// Radix hash join: build side materialized, probe side streamed.
    Join {
        build: Box<Producer>,
        probe: Box<Producer>,
        /// Closure key extractors — the fallback when a side's keys are not
        /// kernel-classified (kept compiled on both sides for simplicity;
        /// only the fallback side ever calls them).
        build_keys: Vec<CompiledExpr>,
        probe_keys: Vec<CompiledExpr>,
        /// Typed slots serving the build key components, when every build
        /// key resolved to a typed scan slot (the kernel build ingest).
        build_key_slots: Option<Vec<usize>>,
        /// Typed slots serving the probe key components (the kernel probe).
        probe_key_slots: Option<Vec<usize>>,
        residual: Option<CompiledPredicate>,
        build_width: usize,
        /// Slot names of the build / probe layouts, in slot order (drives
        /// the referenced-name liveness analysis in codegen's finalize pass).
        build_names: Vec<String>,
        probe_names: Vec<String>,
        /// Build-side slots something downstream of the join reads as
        /// `Value`s (filled by codegen's finalize pass).
        build_live: Vec<usize>,
        /// Probe-side slots read downstream as `Value`s (likewise).
        probe_live: Vec<usize>,
        /// Build-side slots a downstream kernel reads as typed columns (set
        /// when a kernel above the join activates them). The build store
        /// keeps, and the probe output carries, `build_live ∪ build_typed`.
        build_typed: Vec<usize>,
        /// Probe-side slots a downstream kernel reads as typed columns.
        probe_typed: Vec<usize>,
        kind: JoinKind,
    },
}

// ---------------------------------------------------------------------------
// Prepared (executable) form: a scan driving a linear stage chain.
// ---------------------------------------------------------------------------

/// The executable scan: what [`fill_morsel`] renders into every morsel's
/// batch. A scan whose spine leads with a kernel filter and that builds no
/// cache is split filter-first ([`split_filter_first`]): `typed_fills` then
/// holds only the slots the filter reads, and the payload fills move to the
/// [`Stage::FillSelected`] right behind the filter, which renders them for
/// the filter's survivors only.
struct PreparedScan {
    row_count: u64,
    width: usize,
    fills: Vec<(usize, BatchFill)>,
    /// Activated typed fills, rendered densely: `(slot, filler, hydrate?)`.
    typed_fills: Vec<(usize, TypedFill, bool)>,
    /// The cache-building side effect: every morsel's lanes of its slots
    /// are copied into the worker's [`CacheChunk`]s.
    cache: Option<CacheBuilder>,
    /// Per-morsel zone maps keyed by typed slot (Tier 0: morsel skipping).
    zones: Vec<(usize, Arc<ZoneMap>)>,
}

// A zone entry must describe exactly one morsel for `classify_morsel(z)` to
// speak for morsel `z`.
const _: () = assert!(MORSEL_SIZE == ZONE_ROWS);

enum Stage {
    /// Shrinks the selection via a vectorized columnar kernel.
    KernelFilter(KernelPred),
    /// Renders the listed typed scan slots `(slot, filler)` for the selected
    /// rows only: the payload half of a filter-first scan, right behind its
    /// leading kernel filter (see [`split_filter_first`]).
    FillSelected(Vec<(usize, TypedFill)>),
    /// Shrinks the selection in place with a compiled closure.
    Filter(CompiledPredicate),
    /// Materializes the listed typed slots into `Value` form for the rows
    /// that survived the kernels (inserted before the first stage — or the
    /// sink — that reads rows).
    Hydrate(Vec<usize>),
    /// Expands each row once per collection element into the output batch,
    /// reading the collection's `Value` (the closure floor).
    Unnest(UnnestStage),
    /// Expands each row once per collection element into typed columns of
    /// the output batch, through the plug-in's expand hook.
    Expand(ExpandStage),
    /// Streams probe rows against the shared build table.
    Probe(ProbeStage),
}

struct UnnestStage {
    collection_slot: usize,
    collection_path: Vec<String>,
    slot: usize,
    predicate: Option<CompiledPredicate>,
    outer: bool,
    width: usize,
    parent_live: Vec<usize>,
}

/// The join probe: matches each selected row against the shared build
/// table and gathers the matches into the output batch — typed columns
/// where the build store or the probe batch holds the slot typed, `Value`s
/// for the rest.
struct ProbeStage {
    table: Arc<RadixHashTable>,
    /// Closure key extractors (the fallback path).
    probe_keys: Vec<CompiledExpr>,
    /// Typed slots serving the probe key components: the kernel path
    /// batch-hashes the whole selection straight from the typed columns.
    key_slots: Option<Vec<usize>>,
    residual: Option<CompiledPredicate>,
    /// Offset of the probe slots in the join output rows.
    build_width: usize,
    width: usize,
    /// Probe-side slots copied into the output (the rest are never read).
    probe_live: Vec<usize>,
    /// Parallel to `probe_live`: the kind of each slot's typed column in
    /// the probe batches, `None` for a `Value` slot — the shape of the
    /// null columns a left-outer tail pads the probe side with.
    probe_kinds: Vec<Option<TypedKind>>,
    /// Output slots something downstream reads as `Value`s: hydrated for
    /// the residual here, and by the `Stage::Hydrate` placed behind the
    /// probe for everything else.
    hydrate: Vec<usize>,
    /// Present for left-outer joins: the shared packed bitmap of
    /// per-build-entry matched flags.
    matched: Option<Arc<MatchedBitmap>>,
}

struct ExpandStage {
    expand: TypedExpand,
    /// Output slot per lane, and the lanes hydration has to cover.
    lane_slots: Vec<usize>,
    hydrate_lanes: Vec<usize>,
    outer: bool,
    width: usize,
    parent_live: Vec<usize>,
}

struct PreparedPipeline {
    scan: PreparedScan,
    stages: Vec<Stage>,
    /// Per slot of the batches the last stage hands on: the kind of the
    /// slot's typed column, `None` where the slot is a `Value` (or dead).
    /// How a join build learns its column kinds, and a left-outer tail the
    /// kinds of the probe side it pads with nulls.
    kinds: Vec<Option<TypedKind>>,
}

/// Flattens a producer tree into a prepared spine, executing every join
/// build side (recursively, morsel-parallel) into a [`BuildStore`] and
/// indexing it, on the calling thread, into a shared [`RadixHashTable`].
fn prepare(
    producer: Producer,
    env: &ExecEnv,
    metrics: &mut ExecutionMetrics,
) -> Result<PreparedPipeline> {
    match producer {
        Producer::Scan {
            dataset: _,
            row_count,
            fills,
            typed,
            width,
            cache_builder,
            zones,
            slot_stats: _,
            bad_rows,
        } => {
            metrics.bad_rows += bad_rows;
            let mut kinds = vec![None; width];
            let typed_fills = typed
                .into_iter()
                .filter(|t| t.active)
                .map(|t| {
                    kinds[t.slot] = Some(t.kind);
                    (t.slot, t.fill, t.hydrate)
                })
                .collect();
            Ok(PreparedPipeline {
                scan: PreparedScan {
                    row_count,
                    width,
                    fills,
                    typed_fills,
                    cache: cache_builder,
                    zones,
                },
                stages: Vec::new(),
                kinds,
            })
        }
        Producer::Filter {
            input,
            kernel,
            predicate,
        } => {
            let mut prepared = prepare(*input, env, metrics)?;
            if let Some(kernel) = kernel {
                prepared.stages.push(Stage::KernelFilter(kernel));
            }
            if let Some(predicate) = predicate {
                prepared.stages.push(Stage::Filter(predicate));
            }
            Ok(prepared)
        }
        Producer::Unnest {
            input,
            collection_slot,
            collection_path,
            slot,
            predicate,
            outer,
            parent_names: _,
            parent_live,
        } => {
            let mut prepared = prepare(*input, env, metrics)?;
            let width = current_width(&prepared).max(slot + 1);
            // Rows are rebuilt from `Value`s: no typed column survives.
            prepared.kinds = vec![None; width];
            prepared.stages.push(Stage::Unnest(UnnestStage {
                collection_slot,
                collection_path,
                slot,
                predicate,
                outer,
                width,
                parent_live,
            }));
            Ok(prepared)
        }
        Producer::Expand {
            input,
            expand,
            lanes,
            collection_slot: _,
            outer,
            parent_names,
            parent_typed: _,
            parent_live,
        } => {
            let mut prepared = prepare(*input, env, metrics)?;
            let width = parent_names.len() + lanes.len();
            let mut kinds = vec![None; width];
            for &slot in &parent_live {
                kinds[slot] = prepared.kinds.get(slot).copied().flatten();
            }
            for lane in &lanes {
                kinds[lane.slot] = Some(lane.kind);
            }
            prepared.kinds = kinds;
            prepared.stages.push(Stage::Expand(ExpandStage {
                expand,
                lane_slots: lanes.iter().map(|lane| lane.slot).collect(),
                hydrate_lanes: lanes
                    .iter()
                    .filter(|lane| lane.hydrate)
                    .map(|lane| lane.slot)
                    .collect(),
                outer,
                width,
                parent_live,
            }));
            Ok(prepared)
        }
        Producer::Join {
            build,
            probe,
            build_keys,
            probe_keys,
            build_key_slots,
            probe_key_slots,
            residual,
            build_width,
            build_names: _,
            probe_names: _,
            build_live,
            probe_live,
            build_typed,
            probe_typed,
            kind,
        } => {
            let hydrate: Vec<usize> = build_live
                .iter()
                .copied()
                .chain(probe_live.iter().map(|slot| build_width + slot))
                .collect();
            // Materialize the build side with its own morsel run.
            let store = run_entries(
                *build,
                build_keys,
                build_key_slots,
                union(build_live, build_typed),
                env,
                metrics,
            )?;
            metrics.intermediate_tuples += store.len() as u64;
            // The index build runs on this thread, outside the morsel loop's
            // containment — catch a panic here the same way.
            let table = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                proteus_plugins::fault::check_infallible("join.build");
                Arc::new(RadixHashTable::build(store))
            }))
            .map_err(|payload| panic_error(payload, "radix build"))?;
            metrics.intermediate_bytes += table.materialized_bytes();

            let mut prepared = prepare(*probe, env, metrics)?;
            let probe_width = current_width(&prepared);
            let probe_live = union(probe_live, probe_typed);
            let probe_kinds: Vec<Option<TypedKind>> = probe_live
                .iter()
                .map(|&slot| prepared.kinds.get(slot).copied().flatten())
                .collect();
            let mut kinds = vec![None; build_width + probe_width];
            let store = table.store();
            for (col, &slot) in store.payload().iter().zip(store.live_slots()) {
                kinds[slot] = col.kind();
            }
            for (&slot, &kind) in probe_live.iter().zip(&probe_kinds) {
                kinds[build_width + slot] = kind;
            }
            prepared.kinds = kinds;
            let matched =
                (kind == JoinKind::LeftOuter).then(|| Arc::new(MatchedBitmap::new(table.len())));
            prepared.stages.push(Stage::Probe(ProbeStage {
                table,
                probe_keys,
                key_slots: probe_key_slots,
                residual,
                build_width,
                width: build_width + probe_width,
                probe_live,
                probe_kinds,
                hydrate,
                matched,
            }));
            Ok(prepared)
        }
    }
}

/// The ascending union of two slot lists.
fn union(mut a: Vec<usize>, b: Vec<usize>) -> Vec<usize> {
    a.extend(b);
    a.sort_unstable();
    a.dedup();
    a
}

fn current_width(prepared: &PreparedPipeline) -> usize {
    prepared
        .stages
        .iter()
        .rev()
        .find_map(|stage| match stage {
            Stage::Unnest(UnnestStage { width, .. })
            | Stage::Expand(ExpandStage { width, .. })
            | Stage::Probe(ProbeStage { width, .. }) => Some(*width),
            Stage::KernelFilter(_)
            | Stage::FillSelected(_)
            | Stage::Filter(_)
            | Stage::Hydrate(_) => None,
        })
        .unwrap_or(prepared.scan.width)
}

/// Inserts the hydration stages: typed slots whose `Value` form anything
/// downstream reads are materialized (for the surviving selection only)
/// right before the first row-consuming stage, or at the end of the stage
/// chain when only the sink reads rows.
///
/// A typed unnest ([`Stage::Expand`]) reads no rows and hands typed columns
/// on — its lanes, and the parent columns it gathered — so it starts a new
/// stretch with the same rule: one hydration before the first row consumer
/// after it. So does a join probe: its output carries the typed columns of
/// the build store and of the probe batch, and the slots its `hydrate` list
/// names are hydrated in the stretch behind it (a residual hydrates them
/// inside the probe, for the rows it tests). Each hydration lists every
/// flagged slot; `hydrate` skips the ones the batch at hand holds no typed
/// column for. The closure unnest rebuilds rows from `Value`s, so nothing
/// is left to hydrate behind it.
///
/// A *kernel-keyed probe* reads no rows (keys hash from typed columns, the
/// gather copies typed columns), so no hydration is placed ahead of it. The
/// same applies when the pipeline ends at a typed-key build sink
/// (`sink_reads_typed`): the build ingest keys and payload both read the
/// typed columns.
fn insert_hydration(pipeline: &mut PreparedPipeline, sink_reads_typed: bool) {
    let mut slots: Vec<usize> = pipeline
        .scan
        .typed_fills
        .iter()
        .filter(|(_, _, hydrate)| *hydrate)
        .map(|(slot, _, _)| *slot)
        .collect();
    let mut hydrated = false;
    let mut at = 0;
    while at < pipeline.stages.len() {
        let reads_rows = match &pipeline.stages[at] {
            Stage::Filter(_) | Stage::Unnest(_) => true,
            Stage::Probe(probe) => probe.key_slots.is_none(),
            Stage::KernelFilter(_)
            | Stage::FillSelected(_)
            | Stage::Hydrate(_)
            | Stage::Expand(_) => false,
        };
        if reads_rows && !hydrated && !slots.is_empty() {
            pipeline.stages.insert(at, Stage::Hydrate(slots.clone()));
            at += 1;
        }
        hydrated |= reads_rows;
        match &pipeline.stages[at] {
            Stage::Expand(expand) => {
                slots.extend(&expand.hydrate_lanes);
                hydrated = false;
            }
            Stage::Unnest(_) => slots.clear(),
            Stage::Probe(probe) => {
                slots = probe.hydrate.clone();
                hydrated = false;
            }
            _ => {}
        }
        at += 1;
    }
    if !hydrated && !sink_reads_typed && !slots.is_empty() {
        pipeline.stages.push(Stage::Hydrate(slots));
    }
}

/// Filter-first raw scans (NoDB / RAW's selective parsing): when the spine
/// leads with a kernel filter and builds no cache (whose entry needs every
/// row), the scan keeps the typed fills of the slots the filter reads
/// ([`KernelPred::slots`]) and every other typed fill — read by a closure
/// residual, a probe key, a group key or the sink — moves to a
/// [`Stage::FillSelected`] right behind the filter, so a payload field is
/// located and parsed only for the rows that pass. A zone map's `AllPass`
/// drops the filter and the payload renders densely; `NonePass` skips the
/// morsel before any fill. Runs after [`insert_hydration`], which never
/// places a stage ahead of a leading kernel filter.
fn split_filter_first(pipeline: &mut PreparedPipeline) {
    let Some(Stage::KernelFilter(kernel)) = pipeline.stages.first() else {
        return;
    };
    if pipeline.scan.cache.is_some() {
        return;
    }
    let predicate_slots = kernel.slots();
    let (dense, payload): (Vec<_>, Vec<_>) = std::mem::take(&mut pipeline.scan.typed_fills)
        .into_iter()
        .partition(|(slot, _, _)| predicate_slots.contains(slot));
    pipeline.scan.typed_fills = dense;
    if !payload.is_empty() {
        let payload = payload
            .into_iter()
            .map(|(slot, fill, _)| (slot, fill))
            .collect();
        pipeline.stages.insert(1, Stage::FillSelected(payload));
    }
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

/// What the pipeline folds its batches into.
enum SinkSpec {
    /// The aggregate sink: a group-by, or — with no keys — a reduce, into
    /// a [`RadixGroupTable`].
    Nest {
        keys: Vec<CompiledExpr>,
        monoids: Vec<Monoid>,
        value_exprs: Vec<CompiledExpr>,
        /// Closure part of the sink predicate (the residual when a kernel
        /// predicate exists, the whole predicate otherwise).
        predicate: Option<CompiledPredicate>,
        /// Kernel plan: typed key ingest, columnwise aggregate inputs and
        /// the kernel predicate mask.
        kernel: Option<SinkKernel>,
        /// The lane kind of each key component's store column under hashed
        /// ids (`None`: a `Value` column), as for `Entries`: the kinds of
        /// the typed key columns, closure keys always `Value`s.
        key_kinds: Vec<Option<TypedKind>>,
    },
    Collect,
    /// Join-build materialization into a columnar [`BuildStore`]: one
    /// column per key component and per live payload slot.
    Entries {
        /// Closure key extractors (the fallback ingest).
        keys: Vec<CompiledExpr>,
        /// Typed slots serving the key components (the kernel ingest:
        /// batch-hashed straight from the typed columns).
        key_slots: Option<Vec<usize>>,
        /// Build slots something downstream of the join reads.
        live_slots: Vec<usize>,
        /// The lane kind of each key component's and each live slot's store
        /// column (`None`: a `Value` column): the kinds of the typed columns
        /// the batches carry, closure keys always `Value`s.
        key_kinds: Vec<Option<TypedKind>>,
        live_kinds: Vec<Option<TypedKind>>,
    },
}

/// One worker's share of a join build: a [`BuildStore`] chunk per run of
/// consecutive morsels it took, tagged with the run's first morsel. No
/// other worker holds a morsel inside a run, so the chunks joined in tag
/// order ([`in_tag_order`]) are the store a serial run fills — and a serial
/// run's one chunk *is* that store.
struct BuildChunks {
    chunks: Vec<(u64, BuildStore)>,
    /// The last morsel the worker ingested.
    last: u64,
    /// Entries over all chunks, and what one costs the memory budget.
    entries: u64,
    entry_cost: u64,
}

/// A worker-private sink partial.
enum SinkState {
    Nest(Box<RadixGroupTable>),
    /// Rows tagged with their morsel index so the merged output preserves
    /// scan order regardless of which worker claimed which morsel.
    Collect(Vec<(u64, Binding)>),
    Entries(BuildChunks),
}

/// The merged result of a pipeline run.
enum SinkResult {
    Groups(Box<RadixGroupTable>),
    Rows(Vec<Binding>),
    Entries(BuildStore),
}

impl SinkSpec {
    fn new_state(&self) -> SinkState {
        match self {
            SinkSpec::Nest {
                monoids,
                kernel,
                key_kinds,
                ..
            } => {
                let (lanes, dense) = match kernel {
                    Some(kernel) => (kernel.lane_kinds(monoids), kernel.dense.clone()),
                    None => (vec![None; monoids.len()], None),
                };
                let monoids = monoids.clone();
                SinkState::Nest(Box::new(match dense {
                    Some(bounds) => RadixGroupTable::dense(bounds, monoids, &lanes),
                    None if key_kinds.is_empty() => {
                        RadixGroupTable::dense(Vec::new(), monoids, &lanes)
                    }
                    None => RadixGroupTable::hashed(key_kinds, monoids, &lanes),
                }))
            }
            SinkSpec::Collect => SinkState::Collect(Vec::new()),
            SinkSpec::Entries {
                key_kinds,
                live_kinds,
                ..
            } => SinkState::Entries(BuildChunks {
                chunks: Vec::new(),
                last: 0,
                entries: 0,
                entry_cost: BuildStore::entry_cost(
                    key_kinds.iter().chain(live_kinds).copied(),
                    VALUE_COST,
                ),
            }),
        }
    }

    /// Builds the sink's masked row list for one batch: the current
    /// selection filtered by the kernel predicate mask (if any) and the
    /// closure predicate residual (if any). Returns a scratch buffer the
    /// caller must hand back via `Scratch::put_sel`.
    fn masked_rows(
        kernel_pred: Option<&KernelPred>,
        predicate: &Option<CompiledPredicate>,
        batch: &BindingBatch,
        scratch: &mut kernels::Scratch,
    ) -> Vec<u32> {
        let mut masked = scratch.take_sel();
        if let Some(pred) = kernel_pred {
            let rows = batch.rows();
            let mut bits = scratch.take_mask();
            kernels::eval_pred(pred, batch, rows, &mut bits, scratch);
            if batch.sel().len() == rows {
                // Identity selection: compress straight off the mask words.
                mask::push_selected(&bits, rows, &mut masked);
            } else {
                masked.extend(
                    batch
                        .sel()
                        .iter()
                        .copied()
                        .filter(|&r| mask::get(&bits, r as usize)),
                );
            }
            scratch.put_mask(bits);
        } else {
            masked.extend_from_slice(batch.sel());
        }
        if let Some(pred) = predicate {
            masked.retain(|&r| pred(batch.row(r)));
        }
        masked
    }

    /// Folds one batch into a worker-local partial. Fails only when a dense
    /// group-by meets a key outside its compiled bounds.
    fn consume(
        &self,
        state: &mut SinkState,
        batch: &BindingBatch,
        scratch: &mut kernels::Scratch,
        morsel: u64,
        metrics: &mut ExecutionMetrics,
    ) -> Result<()> {
        match (self, state) {
            (
                SinkSpec::Nest {
                    keys,
                    value_exprs,
                    predicate,
                    kernel: Some(sink_kernel),
                    ..
                },
                SinkState::Nest(table),
            ) => {
                let masked =
                    Self::masked_rows(sink_kernel.predicate.as_ref(), predicate, batch, scratch);
                if masked.is_empty() {
                    scratch.put_sel(masked);
                    return Ok(());
                }
                // Resolve every row's group id first, then fold columnwise:
                // one tight loop per kernel spec over (group id, row). Dense
                // ids are the keys' offsets; hashed ones go through the index.
                // A keyless table takes no ids: every row is group 0.
                let gids = if keys.is_empty() {
                    table.allocate();
                    None
                } else {
                    let typed_keys = kernels::TypedKeys::bind(&sink_kernel.key_slots, batch);
                    let mut gids = scratch.take_sel();
                    match table.dense_keys() {
                        Some(bounds) => {
                            if let Err(detail) = typed_keys.dense_ids(bounds, &masked, &mut gids) {
                                scratch.put_sel(gids);
                                scratch.put_sel(masked);
                                return Err(EngineError::Internal {
                                    site: "dense group ids".to_string(),
                                    detail,
                                });
                            }
                            table.mark_seen(&gids);
                        }
                        None => {
                            let mut hashes = scratch.take_u64s();
                            typed_keys.hash_rows(&masked, &mut hashes);
                            typed_keys.resolve_groups(table, &masked, &hashes, &mut gids);
                            scratch.put_u64s(hashes);
                            metrics.hash_probes += gids.len() as u64;
                        }
                    }
                    Some(gids)
                };
                let rendered = sink_kernel.render(batch, batch.rows(), scratch);
                let stride = value_exprs.len();
                for spec in 0..stride {
                    if let Some(lane) = table.lane_mut(spec) {
                        rendered.fold_groups(spec, lane, gids.as_deref(), &masked);
                    }
                }
                if sink_kernel.kernel_specs() < stride {
                    // Closure-fallback specs (collection monoids, untyped
                    // inputs) fold per row into the same resolved groups:
                    // the table hands over their accumulators in spec order.
                    let fold_row =
                        |accumulators: &mut [Accumulator], monoids: &[Monoid], r: u32| {
                            let fallback = (0..stride).filter(|&spec| !rendered.is_kernel(spec));
                            for ((acc, monoid), spec) in
                                accumulators.iter_mut().zip(monoids).zip(fallback)
                            {
                                let _ = acc.merge(*monoid, value_exprs[spec](batch.row(r)));
                            }
                        };
                    match &gids {
                        Some(gids) => {
                            for (&gid, &r) in gids.iter().zip(&masked) {
                                table.fold_group(gid, morsel, |accumulators, monoids| {
                                    fold_row(accumulators, monoids, r)
                                });
                            }
                        }
                        None => table.fold_group(0, morsel, |accumulators, monoids| {
                            for &r in &masked {
                                fold_row(accumulators, monoids, r);
                            }
                        }),
                    }
                }
                if let Some(gids) = gids {
                    scratch.put_sel(gids);
                }
                let kernel_specs = sink_kernel.kernel_specs() as u64;
                metrics.agg_kernel_rows += masked.len() as u64 * kernel_specs;
                metrics.agg_fallback_rows +=
                    masked.len() as u64 * (value_exprs.len() as u64 - kernel_specs);
                rendered.release(scratch);
                scratch.put_sel(masked);
            }
            (
                SinkSpec::Nest {
                    keys,
                    value_exprs,
                    predicate,
                    kernel: None,
                    ..
                },
                SinkState::Nest(table),
            ) => {
                let mut consumed = 0u64;
                let mut passes = |row: &[Value]| {
                    let pass = predicate.as_ref().is_none_or(|pred| pred(row));
                    consumed += u64::from(pass);
                    pass
                };
                let fold_row =
                    |accumulators: &mut [Accumulator], monoids: &[Monoid], row: &[Value]| {
                        for ((acc, monoid), expr) in
                            accumulators.iter_mut().zip(monoids).zip(value_exprs)
                        {
                            let _ = acc.merge(*monoid, expr(row));
                        }
                    };
                if keys.is_empty() {
                    // One group, no key and no hash: its accumulators take
                    // the whole batch.
                    table.allocate();
                    table.fold_group(0, morsel, |accumulators, monoids| {
                        batch.for_each_selected(|row| {
                            if passes(row) {
                                fold_row(accumulators, monoids, row);
                            }
                        });
                    });
                } else {
                    // Scratch key buffer: the key components are cloned into
                    // the table only when a row starts a new group.
                    let mut key_buf = scratch.take_values();
                    batch.for_each_selected(|row| {
                        if !passes(row) {
                            return;
                        }
                        key_buf.clear();
                        key_buf.extend(keys.iter().map(|k| k(row)));
                        let hash = hash_key_components(&key_buf);
                        table.merge_with(hash, &key_buf, morsel, |accumulators, monoids| {
                            fold_row(accumulators, monoids, row)
                        });
                    });
                    scratch.put_values(key_buf);
                    metrics.hash_probes += consumed;
                }
                metrics.agg_fallback_rows += consumed * value_exprs.len() as u64;
            }
            (SinkSpec::Collect, SinkState::Collect(rows)) => {
                batch.for_each_selected(|row| {
                    rows.push((morsel, row.to_vec()));
                    metrics.binding_allocs += 1;
                });
            }
            (
                SinkSpec::Entries {
                    keys,
                    key_slots,
                    live_slots,
                    key_kinds,
                    live_kinds,
                },
                SinkState::Entries(partial),
            ) => {
                let sel = batch.sel();
                // A morsel right after (or the same as) the worker's last
                // one extends its chunk; any other starts one.
                let extends = !partial.chunks.is_empty()
                    && (morsel == partial.last || morsel == partial.last + 1);
                if !extends {
                    let chunk = BuildStore::with_kinds(key_kinds, live_slots.clone(), live_kinds);
                    partial.chunks.push((morsel, chunk));
                }
                partial.last = morsel;
                partial.entries += sel.len() as u64;
                let Some((_, store)) = partial.chunks.last_mut() else {
                    unreachable!("a chunk was just ensured");
                };
                match key_slots {
                    Some(slots) => {
                        // Kernel ingest: batch-hash the whole selection from
                        // the typed columns; components land lane-wise.
                        let typed_keys = kernels::TypedKeys::bind(slots, batch);
                        let mut hashes = scratch.take_u64s();
                        typed_keys.hash_rows(sel, &mut hashes);
                        store.hashes_mut().extend_from_slice(&hashes);
                        scratch.put_u64s(hashes);
                        for (comp, &slot) in slots.iter().enumerate() {
                            extend_column(store.key_mut(comp), batch, slot);
                        }
                        metrics.join_kernel_rows += batch.active() as u64;
                    }
                    None => {
                        // Closure fallback: key components evaluate into a
                        // scratch key, hash in place, then move into the
                        // `Value` key columns.
                        let mut key_buf = scratch.take_values();
                        for &r in sel {
                            let row = batch.row(r);
                            key_buf.clear();
                            key_buf.extend(keys.iter().map(|k| k(row)));
                            store.hashes_mut().push(hash_key_components(&key_buf));
                            for (comp, value) in key_buf.drain(..).enumerate() {
                                match store.key_mut(comp) {
                                    StoreColumn::Values(values) => values.push(value),
                                    StoreColumn::Lanes(_) => {
                                        unreachable!("closure keys are stored as values")
                                    }
                                }
                            }
                        }
                        scratch.put_values(key_buf);
                        metrics.join_fallback_rows += batch.active() as u64;
                    }
                }
                for (col, &slot) in live_slots.iter().enumerate() {
                    extend_column(store.payload_mut(col), batch, slot);
                }
            }
            _ => unreachable!("sink state does not match sink spec"),
        }
        Ok(())
    }

    /// Merges worker partials (in worker order) into the final result.
    fn merge(&self, partials: Vec<SinkState>) -> SinkResult {
        match self {
            SinkSpec::Nest { .. } => {
                // The first partial *is* the merged table (the serial path
                // moves nothing); the rest are absorbed in worker order —
                // collection outputs by morsel tag, so scan order holds.
                let mut tables = partials.into_iter().filter_map(|p| match p {
                    SinkState::Nest(table) => Some(table),
                    _ => None,
                });
                let mut merged = tables.next().unwrap_or_else(|| match self.new_state() {
                    SinkState::Nest(table) => table,
                    _ => unreachable!("a nest sink's state is a group table"),
                });
                for table in tables {
                    merged.absorb(*table);
                }
                SinkResult::Groups(merged)
            }
            SinkSpec::Collect => {
                let parts = partials.into_iter().filter_map(|p| match p {
                    SinkState::Collect(rows) => Some(rows),
                    _ => None,
                });
                SinkResult::Rows(
                    in_tag_order(parts)
                        .into_iter()
                        .map(|(_, row)| row)
                        .collect(),
                )
            }
            SinkSpec::Entries {
                key_kinds,
                live_slots,
                live_kinds,
                ..
            } => {
                let chunks = partials.into_iter().filter_map(|p| match p {
                    SinkState::Entries(partial) => Some(partial.chunks),
                    _ => None,
                });
                let chunks = in_tag_order(chunks);
                let entries: usize = chunks.iter().map(|(_, chunk)| chunk.len()).sum();
                let mut chunks = chunks.into_iter().map(|(_, chunk)| chunk);
                let mut store = chunks.next().unwrap_or_else(|| {
                    BuildStore::with_kinds(key_kinds, live_slots.clone(), live_kinds)
                });
                store.reserve(entries - store.len());
                for chunk in chunks {
                    store.append(chunk);
                }
                SinkResult::Entries(store)
            }
        }
    }
}

/// Appends the selected rows of one batch slot to a build store column:
/// lanes from the slot's typed column, `Value`s from its typed column
/// (strings) or its row-major form.
fn extend_column(col: &mut StoreColumn, batch: &BindingBatch, slot: usize) {
    let sel = batch.sel();
    match (col, batch.typed_col(slot)) {
        (col, Some(typed)) => col.extend_rows(typed, sel),
        (StoreColumn::Values(values), None) => {
            values.extend(sel.iter().map(|&r| batch.row(r)[slot].clone()))
        }
        (StoreColumn::Lanes(_), None) => unreachable!("a lane store column over an untyped slot"),
    }
}

/// The ordered merge of morsel-tagged worker outputs (collected rows, cache
/// chunks): every item in ascending tag order, the items of one tag in the
/// order they were pushed. Each morsel belongs to one worker, so this is the
/// order a serial run produces.
pub(crate) fn in_tag_order<T>(parts: impl IntoIterator<Item = Vec<(u64, T)>>) -> Vec<(u64, T)> {
    let mut tagged: Vec<(u64, T)> = parts.into_iter().flatten().collect();
    tagged.sort_by_key(|(tag, _)| *tag);
    tagged
}

// ---------------------------------------------------------------------------
// The morsel executor.
// ---------------------------------------------------------------------------

/// Fills one morsel's worth of scan output into `batch`: every row-major
/// fill and every typed fill of the scan, densely (the identity selection).
/// Under a filter-first split the scan holds only the leading kernel
/// filter's slots; the payload renders later, over the filter's survivors,
/// in [`Stage::FillSelected`]. A caching scan then copies the lanes of its
/// cached slots into `cache_chunks`, tagged with `start`, before any stage
/// runs.
fn fill_morsel(
    scan: &PreparedScan,
    start: u64,
    count: usize,
    batch: &mut BindingBatch,
    cache_chunks: &mut Vec<CacheChunk>,
    metrics: &mut ExecutionMetrics,
) {
    batch.reset(scan.width, count);
    let width = scan.width;
    let data = batch.data_mut();
    for (slot, fill) in &scan.fills {
        fill(start, count, data, *slot, width);
    }
    let rows = all_rows(count);
    for (slot, fill, _) in &scan.typed_fills {
        fill(start, count, &rows, batch.typed_col_mut(*slot));
    }
    metrics.tuples_scanned += count as u64;

    if let Some(builder) = &scan.cache {
        // Chaos-harness site: fires inside the worker's catch_unwind, so an
        // injected error/panic here exercises the half-built-cache path.
        proteus_plugins::fault::check_infallible("cache.build");
        // A cached slot is always an active typed fill; a lane missing
        // anyway leaves the chunk short, and the builder refuses it.
        let lanes: Vec<_> = builder
            .slots()
            .filter_map(|slot| batch.typed_col(slot).cloned())
            .collect();
        metrics.cached_values += (count * lanes.len()) as u64;
        cache_chunks.push((start, lanes));
    }
}

/// `Value::navigate` by reference: the value `path` leads to inside `value`,
/// `None` where a segment is missing or crosses a non-record.
fn navigate_ref<'a>(mut value: &'a Value, path: &[String]) -> Option<&'a Value> {
    for segment in path {
        match value {
            Value::Record(record) => value = record.get(segment)?,
            _ => return None,
        }
    }
    Some(value)
}

/// The closure-floor unnest: one output row per element of each selected
/// row's collection. The collection is borrowed from the row; per element
/// only the live parent slots and the element itself are cloned.
///
/// Out of line (as is [`run_expand`]) so that growing either body leaves the
/// code layout of [`process_stages`]' filter and probe arms alone.
#[inline(never)]
fn run_unnest(
    stage: &UnnestStage,
    cur: &mut BindingBatch,
    spare: &mut BindingBatch,
    metrics: &mut ExecutionMetrics,
) {
    spare.reset_empty(stage.width);
    let mut evaluations = 0u64;
    cur.for_each_selected(|row| {
        let items = match navigate_ref(&row[stage.collection_slot], &stage.collection_path) {
            Some(Value::List(items)) => items.as_slice(),
            Some(Value::Null) | None => &[],
            Some(other) => std::slice::from_ref(other),
        };
        let mut produced = false;
        for item in items {
            spare.push_row_of(row, &stage.parent_live);
            spare.set_last(stage.slot, item.clone());
            if let Some(pred) = &stage.predicate {
                evaluations += 1;
                if !pred(spare.last_row()) {
                    spare.pop_row();
                    continue;
                }
            }
            produced = true;
        }
        if !produced && stage.outer {
            // The element slot stays null.
            spare.push_row_of(row, &stage.parent_live);
        }
    });
    metrics.predicate_evals += evaluations;
    metrics.fallback_rows += evaluations;
    std::mem::swap(cur, spare);
}

/// The typed unnest: the plug-in's expand hook appends, for the selected
/// rows of the scan morsel in `cur`, one entry per element to the parent
/// index and to each element lane; the lanes become typed columns of
/// `spare`, and the live parent slots are gathered across by the parent
/// index — typed column to typed column where the scan filled one, `Value`
/// to `Value` otherwise. Dead slots are left as the buffer held them:
/// nothing downstream reads them (the liveness the join gather relies on).
#[inline(never)]
fn run_expand(
    stage: &ExpandStage,
    cur: &mut BindingBatch,
    spare: &mut BindingBatch,
    scratch: &mut kernels::Scratch,
    morsel: u64,
) {
    let mut out = scratch.take_expand();
    (stage.expand)(
        morsel * MORSEL_SIZE as u64,
        cur.sel(),
        stage.outer,
        &mut out,
    );
    let parents = &out.parents;
    debug_assert!(parents.windows(2).all(|pair| pair[0] <= pair[1]));
    debug_assert!(out.lanes.len() == stage.lane_slots.len());
    debug_assert!(out.lanes.iter().all(|lane| lane.len() == parents.len()));
    spare.reset_sparse(stage.width, parents.len());
    for (lane, &slot) in out.lanes.iter_mut().zip(&stage.lane_slots) {
        std::mem::swap(spare.typed_col_mut(slot), lane);
    }
    for &slot in &stage.parent_live {
        match cur.typed_col(slot) {
            Some(col) => spare.typed_col_mut(slot).gather_from(col, parents),
            None => {
                for (row, &parent) in parents.iter().enumerate() {
                    spare.put(row, slot, cur.row(parent)[slot].clone());
                }
            }
        }
    }
    scratch.put_expand(out);
    std::mem::swap(cur, spare);
}

/// The join probe: matches every selected row of `cur` against the build
/// table into a match list — entry ids and probe rows, in probe-row order
/// and, per row, entry-id order — then gathers the matches into `spare`
/// ([`gather_build`] and the probe's live slots: typed column to typed
/// column, `Value` to `Value`). The residual, if any, filters the output,
/// and a left-outer join marks the entries whose output rows survived it.
#[inline(never)]
fn run_probe(
    stage: &ProbeStage,
    cur: &mut BindingBatch,
    spare: &mut BindingBatch,
    scratch: &mut kernels::Scratch,
    metrics: &mut ExecutionMetrics,
) {
    let table = &stage.table;
    let store = table.store();
    // The tail pads the probe side with null columns of these kinds: they
    // must be the kinds the probe batches really carry.
    debug_assert!(stage
        .probe_live
        .iter()
        .zip(&stage.probe_kinds)
        .all(|(&slot, &kind)| cur.typed_col(slot).map(|col| col.kind()) == kind));
    let mut entries = scratch.take_sel();
    let mut rows = scratch.take_sel();
    let mut on_match = |entry: u32, r: u32| {
        entries.push(entry);
        rows.push(r);
    };
    match &stage.key_slots {
        Some(slots) => {
            // Kernel probe: batch-hash the whole selection from the typed
            // columns, then compare lane to lane. Single numeric keys take
            // the specialized loop; everything else runs the generic
            // componentwise compares. Batch hashing buys both a fixed probe
            // lookahead: pull each row's index slot toward cache while
            // earlier rows are confirmed.
            let typed_keys = kernels::TypedKeys::bind(slots, cur);
            let mut hashes = scratch.take_u64s();
            typed_keys.hash_rows(cur.sel(), &mut hashes);
            if !typed_keys.probe_rows_numeric(table, cur.sel(), &hashes, &mut on_match) {
                for (i, (&r, &hash)) in cur.sel().iter().zip(&hashes).enumerate() {
                    if let Some(&ahead) = hashes.get(i + crate::exec::radix::PROBE_LOOKAHEAD) {
                        table.prefetch(ahead);
                    }
                    table.probe_hashed(
                        hash,
                        |entry| typed_keys.eq_store(r as usize, store, entry, JOIN_NULLS),
                        |entry| on_match(entry, r),
                    );
                }
            }
            metrics.join_kernel_rows += cur.active() as u64;
            scratch.put_u64s(hashes);
        }
        None => {
            // Closure fallback: key components evaluate into a recycled
            // scratch buffer (no `Value::List` wrapper at any arity),
            // hash/compare componentwise.
            let mut key_buf = scratch.take_values();
            for &r in cur.sel() {
                let row = cur.row(r);
                key_buf.clear();
                key_buf.extend(stage.probe_keys.iter().map(|k| k(row)));
                table.probe_hashed(
                    hash_key_components(&key_buf),
                    |entry| store.key_eq_values(entry, &key_buf, JOIN_NULLS),
                    |entry| on_match(entry, r),
                );
            }
            metrics.join_fallback_rows += cur.active() as u64;
            scratch.put_values(key_buf);
        }
    }
    metrics.hash_probes += cur.active() as u64;

    // Only live slots are written; dead slots are never read (liveness
    // covers every downstream reader, and a collect sink marks all slots
    // live), so the reset skips null-filling them.
    spare.reset_sparse(stage.width, entries.len());
    gather_build(store, &entries, spare);
    for &slot in &stage.probe_live {
        let out = stage.build_width + slot;
        match cur.typed_col(slot) {
            Some(col) => spare.typed_col_mut(out).gather_from(col, &rows),
            None => {
                for (i, &r) in rows.iter().enumerate() {
                    spare.put(i, out, cur.row(r)[slot].clone());
                }
            }
        }
    }
    if let Some(pred) = &stage.residual {
        spare.hydrate(&stage.hydrate);
        spare.retain(|row| pred(row));
    }
    if let Some(flags) = &stage.matched {
        for &out_row in spare.sel() {
            flags.set(entries[out_row as usize] as usize);
        }
    }
    scratch.put_sel(entries);
    scratch.put_sel(rows);
    std::mem::swap(cur, spare);
}

/// Gathers the stored live build slots of `entries` into rows `0..` of
/// `out`: a lane column by entry id into the slot's typed column, a `Value`
/// column value by value.
fn gather_build(store: &BuildStore, entries: &[u32], out: &mut BindingBatch) {
    for (col, &slot) in store.payload().iter().zip(store.live_slots()) {
        match col {
            StoreColumn::Lanes(lanes) => out.typed_col_mut(slot).gather_from(lanes, entries),
            StoreColumn::Values(values) => {
                for (i, &entry) in entries.iter().enumerate() {
                    out.put(i, slot, values[entry as usize].clone());
                }
            }
        }
    }
}

/// Applies `stages` to `cur` (ping-ponging with `spare`), then folds the
/// surviving rows into the sink partial (whose failure it returns).
#[allow(clippy::too_many_arguments)]
fn process_stages(
    stages: &[Stage],
    cur: &mut BindingBatch,
    spare: &mut BindingBatch,
    sink: &SinkSpec,
    state: &mut SinkState,
    scratch: &mut kernels::Scratch,
    morsel: u64,
    metrics: &mut ExecutionMetrics,
) -> Result<()> {
    for stage in stages {
        if cur.is_empty() {
            break;
        }
        match stage {
            Stage::KernelFilter(kernel) => {
                let active = cur.active() as u64;
                kernels::apply_filter(kernel, cur, scratch);
                metrics.kernel_rows += active;
                metrics.predicate_evals += active;
            }
            Stage::FillSelected(fills) => {
                let start = morsel * MORSEL_SIZE as u64;
                let count = cur.rows();
                for (slot, fill) in fills {
                    let (sel, col) = cur.sel_and_typed_col_mut(*slot);
                    fill(start, count, sel, col);
                }
            }
            Stage::Hydrate(slots) => {
                cur.hydrate(slots);
            }
            Stage::Filter(predicate) => {
                let mut evaluations = 0u64;
                cur.retain(|row| {
                    evaluations += 1;
                    predicate(row)
                });
                metrics.predicate_evals += evaluations;
                metrics.fallback_rows += evaluations;
            }
            Stage::Unnest(unnest) => run_unnest(unnest, cur, spare, metrics),
            Stage::Expand(expand) => run_expand(expand, cur, spare, scratch, morsel),
            Stage::Probe(probe) => run_probe(probe, cur, spare, scratch, metrics),
        }
    }
    // A batch nothing survived folds nothing — and may lack the payload
    // columns a sink kernel would bind.
    let consumed = if cur.is_empty() {
        Ok(())
    } else {
        sink.consume(state, cur, scratch, morsel, metrics)
    };
    metrics.batch_grows += cur.take_alloc_events() + spare.take_alloc_events();
    consumed
}

/// Rough per-`Value` cost (enum size plus small-heap overhead) used by the
/// memory-budget estimates. The budget bounds the dominant sink-state
/// allocations at morsel granularity; it is not allocator truth.
const VALUE_COST: u64 = 48;

/// Estimated bytes held by a worker's sink partial. O(1) per call — totals
/// derive from lengths/counts, never from walking the stored values.
fn approx_state_bytes(state: &SinkState) -> u64 {
    match state {
        SinkState::Nest(table) => table.approx_bytes(VALUE_COST),
        SinkState::Collect(rows) => {
            let width = rows.first().map(|(_, r)| r.len()).unwrap_or(0) as u64;
            rows.len() as u64 * (16 + width * VALUE_COST)
        }
        SinkState::Entries(p) => p.entries * p.entry_cost,
    }
}

/// A dense group state spans its whole id space at once: debits it, then
/// allocates it, before the worker's first morsel (a no-op for every other
/// sink state and for a state already allocated). False when the budget
/// refuses it.
fn reserve_group_state(state: &mut SinkState, state_bytes: &mut u64, ctx: &QueryContext) -> bool {
    let site = state_site(state);
    let SinkState::Nest(table) = state else {
        return true;
    };
    let bytes = table.unallocated_bytes(VALUE_COST);
    if bytes == 0 {
        return true;
    }
    if ctx.budgeted() {
        if !ctx.debit(site, bytes) {
            return false;
        }
        *state_bytes += bytes;
    }
    table.allocate();
    true
}

/// The budget site name reported when a sink partial trips the cap.
fn state_site(state: &SinkState) -> &'static str {
    match state {
        SinkState::Nest(table) if table.keyless() => "reduce partial",
        SinkState::Nest(_) => "group table",
        SinkState::Collect(_) => "collected rows",
        SinkState::Entries(_) => "join build arena",
    }
}

/// Maps a caught panic payload to its structured error: payloads carrying
/// the fault harness's sentinel prefix are *injected errors* (surfaced as
/// [`EngineError::Internal`]); anything else is a genuine contained panic.
pub(crate) fn panic_error(payload: Box<dyn std::any::Any + Send>, site: &str) -> EngineError {
    let text = payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    match text.strip_prefix(proteus_plugins::fault::INJECTED_ERROR_SENTINEL) {
        Some(detail) => EngineError::Internal {
            site: site.to_string(),
            detail: detail.to_string(),
        },
        None => EngineError::WorkerPanic { payload: text },
    }
}

/// One worker's private execution state, **parked on the run** between
/// steal slices: the sink partial, recycled batch buffers, kernel scratch
/// and per-worker metrics. A pool worker attaching to a run adopts a parked
/// partial (or starts a fresh one) and parks it back when its slice ends, so
/// a run never holds more live partials than workers that actually touched
/// it — and every morsel's effects live in exactly one partial.
struct WorkerPartial {
    state: SinkState,
    metrics: ExecutionMetrics,
    cur: BindingBatch,
    spare: BindingBatch,
    scratch: kernels::Scratch,
    /// Set when this partial witnessed a failure: its sink state may be
    /// mid-update and is discarded at merge (its metrics still count).
    failed: bool,
    state_bytes: u64,
    /// The lanes this worker copied for the scan's cache build, tagged with
    /// their morsel's first OID.
    cache_chunks: Vec<CacheChunk>,
    cache_bytes: u64,
}

impl WorkerPartial {
    fn new(sink: &SinkSpec) -> WorkerPartial {
        WorkerPartial {
            state: sink.new_state(),
            metrics: ExecutionMetrics::new(),
            cur: BindingBatch::new(),
            spare: BindingBatch::new(),
            scratch: kernels::Scratch::new(),
            failed: false,
            state_bytes: 0,
            cache_chunks: Vec::new(),
            cache_bytes: 0,
        }
    }
}

/// One pipeline run's shared morsel queue: the unit of work the submitting
/// thread drives, and the [`PoolTask`] pool workers steal slices from. Owns
/// the prepared pipeline, the sink spec and the query context so it can
/// outlive the submitting stack frame inside the scheduler's task list
/// ('static pool threads hold an `Arc` of it).
pub(crate) struct PipelineRun {
    pipeline: PreparedPipeline,
    sink: SinkSpec,
    ctx: Arc<QueryContext>,
    next_morsel: AtomicU64,
    morsel_count: u64,
    /// Worker partials parked between slices (all of them, once quiescent).
    parked: Mutex<Vec<WorkerPartial>>,
    /// Steal-slice acquisitions by pool workers that claimed ≥ 1 morsel.
    steals: AtomicU64,
    /// Bitmask of workers that claimed ≥ 1 morsel: bit 0 = the submitting
    /// thread, bit `1 + (pool_worker % 63)` = pool helpers. Saturating at 64
    /// distinct bits is fine — the popcount feeds
    /// `ExecutionMetrics::workers_touched`, a diagnostic.
    workers_mask: AtomicU64,
}

impl PipelineRun {
    fn new(pipeline: PreparedPipeline, sink: SinkSpec, ctx: Arc<QueryContext>) -> PipelineRun {
        let morsel_count = pipeline.scan.row_count.div_ceil(MORSEL_SIZE as u64);
        PipelineRun {
            pipeline,
            sink,
            ctx,
            next_morsel: AtomicU64::new(0),
            morsel_count,
            parked: Mutex::new(Vec::new()),
            steals: AtomicU64::new(0),
            workers_mask: AtomicU64::new(0),
        }
    }

    fn lock_parked(&self) -> std::sync::MutexGuard<'_, Vec<WorkerPartial>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes every parked partial. Callers must first make the run
    /// quiescent (no worker attached — the scheduler's task-handle drop
    /// guarantees it).
    fn take_partials(&self) -> Vec<WorkerPartial> {
        std::mem::take(&mut *self.lock_parked())
    }
}

/// Adopts a parked partial (or starts a fresh one) for the duration of a
/// drive; parks it back on drop — **also on unwind**, so a panic escaping
/// the drive can never leak a partial's morsel effects out of the merge. An
/// unwind additionally marks the partial failed (its state is mid-update).
struct AttachGuard<'a> {
    run: &'a PipelineRun,
    partial: Option<WorkerPartial>,
}

impl<'a> AttachGuard<'a> {
    fn new(run: &'a PipelineRun) -> AttachGuard<'a> {
        let partial = run
            .lock_parked()
            .pop()
            .unwrap_or_else(|| WorkerPartial::new(&run.sink));
        AttachGuard {
            run,
            partial: Some(partial),
        }
    }

    fn partial_mut(&mut self) -> &mut WorkerPartial {
        match self.partial.as_mut() {
            Some(partial) => partial,
            // The partial only leaves in `drop`.
            None => unreachable!("AttachGuard partial taken before drop"),
        }
    }
}

impl Drop for AttachGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut partial) = self.partial.take() {
            if std::thread::panicking() {
                partial.failed = true;
            }
            self.run.lock_parked().push(partial);
        }
    }
}

/// What one drive (a steal slice, or a submitter's run-to-completion)
/// observed.
struct DriveOutcome {
    /// Morsels this drive claimed from the queue (executed *or* drained).
    claimed: u64,
    /// Whether the queue may still hold morsels (false ⇒ exhausted).
    more: bool,
}

/// The morsel loop the submitter and the pool workers share: claims up to
/// `limit` morsels from the run's queue and executes them into `p`.
///
/// Every morsel executes under `catch_unwind`, so a panic anywhere on the
/// morsel path (plug-in fills, kernels, sink folds) is contained: the first
/// failure is recorded in the shared [`QueryContext`], the query is
/// poisoned, and all workers *drain* the remaining morsels as no-ops — the
/// run always winds down cleanly and the engine (and the shared pool) stays
/// usable. A worker that failed keeps its metrics but its sink state is
/// discarded at merge.
fn drive_run(
    run: &PipelineRun,
    p: &mut WorkerPartial,
    limit: u64,
    worker_bit: u32,
) -> DriveOutcome {
    let pipeline = &run.pipeline;
    let sink = &run.sink;
    let ctx = &run.ctx;
    let faults_armed = proteus_plugins::fault::armed();
    // Tier 0, morsel skipping: engages only when the spine leads with a
    // kernel filter, the scan recorded zone maps, and it builds no cache
    // (whose entry needs every row). Each morsel is classified against the
    // zone bounds before its lanes render.
    let skip_pred = match pipeline.stages.first() {
        Some(Stage::KernelFilter(kernel))
            if !pipeline.scan.zones.is_empty() && pipeline.scan.cache.is_none() =>
        {
            Some(kernel)
        }
        _ => None,
    };
    let mut claimed = 0u64;
    loop {
        if claimed >= limit {
            return DriveOutcome {
                claimed,
                more: run.next_morsel.load(Ordering::Relaxed) < run.morsel_count,
            };
        }
        let morsel = run.next_morsel.fetch_add(1, Ordering::Relaxed);
        if morsel >= run.morsel_count {
            return DriveOutcome {
                claimed,
                more: false,
            };
        }
        if claimed == 0 {
            run.workers_mask
                .fetch_or(1u64 << (worker_bit.min(63)), Ordering::Relaxed);
            // A refused debit poisons the query: the checkpoint below then
            // drains this worker's morsels unexecuted.
            if !reserve_group_state(&mut p.state, &mut p.state_bytes, ctx) {
                p.failed = true;
            }
        }
        claimed += 1;
        // The cooperative checkpoint: poisoned / cancelled / past-deadline
        // queries *drain* the remaining morsels without executing them. The
        // un-armed fast path is a single relaxed load of the poison flag;
        // the global morsel index strides the armed path's wall-clock read.
        if !ctx.checkpoint(morsel) {
            continue;
        }
        p.metrics.morsels += 1;
        let state = &mut p.state;
        let cache_chunks = &mut p.cache_chunks;
        let cur = &mut p.cur;
        let spare = &mut p.spare;
        let scratch = &mut p.scratch;
        let metrics = &mut p.metrics;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> std::result::Result<(), EngineError> {
                if faults_armed {
                    if let Err(detail) = proteus_plugins::fault::check("dispatch.morsel") {
                        return Err(EngineError::Internal {
                            site: "dispatch.morsel".to_string(),
                            detail,
                        });
                    }
                }
                let verdict = match skip_pred {
                    Some(kernel) => {
                        kernels::classify_morsel(kernel, &pipeline.scan.zones, morsel as usize)
                    }
                    None => ZoneVerdict::Ambiguous,
                };
                if verdict == ZoneVerdict::NonePass {
                    // No row of this morsel can pass the leading kernel
                    // filter: skip it without running a single fill.
                    metrics.morsels_skipped += 1;
                    return Ok(());
                }
                let start = morsel * MORSEL_SIZE as u64;
                let count = ((pipeline.scan.row_count - start) as usize).min(MORSEL_SIZE);
                fill_morsel(&pipeline.scan, start, count, cur, cache_chunks, metrics);
                let stages = if verdict == ZoneVerdict::AllPass {
                    // Every row passes: keep the identity selection and drop
                    // straight past the leading kernel filter.
                    metrics.morsels_short_circuited += 1;
                    &pipeline.stages[1..]
                } else {
                    &pipeline.stages[..]
                };
                process_stages(stages, cur, spare, sink, state, scratch, morsel, metrics)
            },
        ));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(err)) => {
                ctx.fail(err);
                p.failed = true;
                continue;
            }
            Err(payload) => {
                ctx.fail(panic_error(payload, "morsel execution"));
                p.failed = true;
                continue;
            }
        }
        // Memory budget: debit this morsel's sink-state growth (and, when a
        // cache build rides the scan, the 8 bytes per value of the lanes
        // this worker holds for it).
        if ctx.budgeted() {
            let bytes = approx_state_bytes(&p.state);
            let site = state_site(&p.state);
            if !ctx.debit(site, bytes.saturating_sub(p.state_bytes)) {
                p.failed = true;
                continue;
            }
            p.state_bytes = bytes;
            if pipeline.scan.cache.is_some() {
                let bytes = p.metrics.cached_values * 8;
                if !ctx.debit("cache build", bytes.saturating_sub(p.cache_bytes)) {
                    p.failed = true;
                    continue;
                }
                p.cache_bytes = bytes;
            }
        }
    }
}

impl PoolTask for PipelineRun {
    /// A pool worker's slice: claim up to [`STEAL_SLICE_MORSELS`] morsels,
    /// then detach so the worker can re-pick the neediest run. Poisoned runs
    /// report exhaustion immediately — their submitter drains the queue as
    /// no-ops without pool help.
    fn steal_slice(&self, worker_id: usize) -> bool {
        if self.ctx.poisoned() || self.next_morsel.load(Ordering::Relaxed) >= self.morsel_count {
            return false;
        }
        let bit = 1 + (worker_id as u32 % 63);
        let mut guard = AttachGuard::new(self);
        let outcome = drive_run(self, guard.partial_mut(), STEAL_SLICE_MORSELS, bit);
        drop(guard);
        if outcome.claimed > 0 {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        outcome.more
    }
}

/// One batch of a left-outer tail: the unmatched build `entries`, shaped
/// like probe output rows whose probe side is null — the stored build
/// slots gathered by entry id, each live probe slot an all-null column of
/// the kind the probe batches hold it in (or null `Value`s).
fn fill_tail(probe: &ProbeStage, entries: &[u32], tail: &mut BindingBatch) {
    tail.reset_sparse(probe.width, entries.len());
    gather_build(probe.table.store(), entries, tail);
    for (&slot, &kind) in probe.probe_live.iter().zip(&probe.probe_kinds) {
        let out = probe.build_width + slot;
        match kind {
            Some(kind) => tail.typed_col_mut(out).begin_nulls(kind, entries.len()),
            None => {
                for row in 0..entries.len() {
                    tail.put(row, out, Value::Null);
                }
            }
        }
    }
}

/// Runs a prepared pipeline into a sink with up to `env.threads` workers:
/// the calling thread drives the run to completion; when more than one
/// worker is allowed, the run is also offered to the scheduler's pool, whose
/// workers steal bounded slices of it.
///
/// Failure semantics: any worker failure (panic, injected fault,
/// cancellation, deadline, budget) poisons the query, the remaining morsels
/// drain, and the *first* recorded failure is returned — with all partial
/// sink state discarded. The cache side effect is finalized **only** when
/// the whole run succeeded, so a failed or cancelled query never registers
/// a half-built cache: the chunks of every worker are then joined in tag
/// order, by the same merge the collect sink uses.
fn execute_pipeline(
    pipeline: PreparedPipeline,
    sink: SinkSpec,
    env: &ExecEnv,
    metrics: &mut ExecutionMetrics,
) -> Result<SinkResult> {
    let morsel_count = pipeline.scan.row_count.div_ceil(MORSEL_SIZE as u64);
    let threads = env.threads.max(1).min(morsel_count.max(1) as usize);
    metrics.threads_used = metrics.threads_used.max(threads as u64);

    let run = Arc::new(PipelineRun::new(pipeline, sink, Arc::clone(&env.ctx)));
    // Offer the run to the pool (up to threads - 1 helpers steal slices)
    // and drive it to completion on this thread — a query never waits on
    // pool capacity to make progress. A serial run is not offered at all.
    let handle = (threads > 1).then(|| {
        env.scheduler
            .offer(Arc::clone(&run) as Arc<dyn PoolTask>, threads - 1)
    });
    {
        let mut guard = AttachGuard::new(&run);
        drive_run(&run, guard.partial_mut(), u64::MAX, 0);
    }
    // Retiring the handle waits out any helper mid-slice: after this, every
    // partial is parked and the run is quiescent.
    drop(handle);

    metrics.sched_steals += run.steals.load(Ordering::Relaxed);
    let touched = run.workers_mask.load(Ordering::Relaxed).count_ones() as u64;
    metrics.workers_touched = metrics.workers_touched.max(touched.max(1));

    let mut partials: Vec<SinkState> = Vec::new();
    let mut cache_chunks: Vec<Vec<CacheChunk>> = Vec::new();
    for partial in run.take_partials() {
        metrics.merge_counters(&partial.metrics);
        if !partial.failed {
            partials.push(partial.state);
            cache_chunks.push(partial.cache_chunks);
        }
    }

    let ctx = &run.ctx;
    if ctx.poisoned() {
        return Err(take_failure(ctx));
    }

    let pipeline = &run.pipeline;
    let sink = &run.sink;
    // Left-outer tails: the unmatched build entries leave in batches of at
    // most a morsel, padded with a null probe side, and run through the
    // remaining stages into one extra partial. Runs on the calling thread,
    // with the same panic containment as the workers.
    for (idx, stage) in pipeline.stages.iter().enumerate() {
        if let Stage::Probe(
            probe @ ProbeStage {
                matched: Some(flags),
                ..
            },
        ) = stage
        {
            let mut unmatched = Vec::new();
            flags.for_each_unmatched(probe.table.len(), |entry| unmatched.push(entry));
            if unmatched.is_empty() {
                continue;
            }
            let mut tail = BindingBatch::new();
            let mut spare = BindingBatch::new();
            let mut state = sink.new_state();
            let mut scratch = kernels::Scratch::new();
            // Tag tail rows past every real morsel so they sort last.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for entries in unmatched.chunks(MORSEL_SIZE) {
                    fill_tail(probe, entries, &mut tail);
                    process_stages(
                        &pipeline.stages[idx + 1..],
                        &mut tail,
                        &mut spare,
                        sink,
                        &mut state,
                        &mut scratch,
                        run.morsel_count,
                        metrics,
                    )?;
                }
                Ok(())
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(err)) => {
                    ctx.fail(err);
                    return Err(take_failure(ctx));
                }
                Err(payload) => {
                    ctx.fail(panic_error(payload, "left-outer tail"));
                    return Err(take_failure(ctx));
                }
            }
            partials.push(state);
        }
    }

    // Merge the worker partials, containing panics (and honoring the
    // `merge.partial` chaos site) the same way the morsel path does.
    let merged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> std::result::Result<SinkResult, EngineError> {
            if proteus_plugins::fault::armed() {
                if let Err(detail) = proteus_plugins::fault::check("merge.partial") {
                    return Err(EngineError::Internal {
                        site: "merge.partial".to_string(),
                        detail,
                    });
                }
            }
            Ok(sink.merge(partials))
        },
    ));
    let merged = match merged {
        Ok(Ok(result)) => result,
        Ok(Err(err)) => {
            ctx.fail(err);
            return Err(take_failure(ctx));
        }
        Err(payload) => {
            ctx.fail(panic_error(payload, "partial merge"));
            return Err(take_failure(ctx));
        }
    };

    // Finalize the cache side effect only now that the whole run succeeded:
    // a failed query drops its half-built cache instead of registering it.
    if let Some(builder) = &pipeline.scan.cache {
        builder.finish_if_current(&in_tag_order(cache_chunks));
    }

    Ok(merged)
}

/// Pulls the recorded failure out of a poisoned context. The fallback arm
/// covers the (unreachable in practice) poisoned-without-failure state.
fn take_failure(ctx: &QueryContext) -> EngineError {
    ctx.take_failure().unwrap_or(EngineError::Internal {
        site: "query context".to_string(),
        detail: "query poisoned without a recorded failure".to_string(),
    })
}

// ---------------------------------------------------------------------------
// Public (crate) entry points, one per sink shape.
// ---------------------------------------------------------------------------

/// Runs `producer` into a radix group table (a keyless one when `keys` is
/// empty: a reduce).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_nest(
    producer: Producer,
    keys: Vec<CompiledExpr>,
    monoids: Vec<Monoid>,
    value_exprs: Vec<CompiledExpr>,
    predicate: Option<CompiledPredicate>,
    kernel: Option<SinkKernel>,
    env: &ExecEnv,
    metrics: &mut ExecutionMetrics,
) -> Result<RadixGroupTable> {
    let mut pipeline = prepare(producer, env, metrics)?;
    insert_hydration(&mut pipeline, false);
    split_filter_first(&mut pipeline);
    let key_kinds = match &kernel {
        Some(kernel) => kernel
            .key_slots
            .iter()
            .map(|&slot| pipeline.kinds.get(slot).copied().flatten())
            .collect(),
        None => vec![None; keys.len()],
    };
    let spec = SinkSpec::Nest {
        keys,
        monoids,
        value_exprs,
        predicate,
        kernel,
        key_kinds,
    };
    match execute_pipeline(pipeline, spec, env, metrics)? {
        SinkResult::Groups(table) => Ok(*table),
        _ => unreachable!(),
    }
}

/// Runs `producer` collecting every surviving binding (scan order).
pub(crate) fn run_collect(
    producer: Producer,
    env: &ExecEnv,
    metrics: &mut ExecutionMetrics,
) -> Result<Vec<Binding>> {
    let mut pipeline = prepare(producer, env, metrics)?;
    insert_hydration(&mut pipeline, false);
    split_filter_first(&mut pipeline);
    match execute_pipeline(pipeline, SinkSpec::Collect, env, metrics)? {
        SinkResult::Rows(rows) => Ok(rows),
        _ => unreachable!(),
    }
}

/// Runs `producer` materializing the columnar build store of a join: key
/// components (typed-key ingest when `key_slots` is set) plus the live
/// payload slots, flattened per entry.
fn run_entries(
    producer: Producer,
    keys: Vec<CompiledExpr>,
    key_slots: Option<Vec<usize>>,
    live_slots: Vec<usize>,
    env: &ExecEnv,
    metrics: &mut ExecutionMetrics,
) -> Result<BuildStore> {
    let mut pipeline = prepare(producer, env, metrics)?;
    insert_hydration(&mut pipeline, key_slots.is_some());
    split_filter_first(&mut pipeline);
    let kind_of = |slot: usize| pipeline.kinds.get(slot).copied().flatten();
    let key_kinds = match &key_slots {
        Some(slots) => slots.iter().map(|&slot| kind_of(slot)).collect(),
        None => vec![None; keys.len()],
    };
    let live_kinds = live_slots.iter().map(|&slot| kind_of(slot)).collect();
    let spec = SinkSpec::Entries {
        keys,
        key_slots,
        live_slots,
        key_kinds,
        live_kinds,
    };
    match execute_pipeline(pipeline, spec, env, metrics)? {
        SinkResult::Entries(store) => Ok(store),
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use proteus_algebra::{DataType, Schema, Value};
    use proteus_plugins::{
        CostProfile, DatasetStats, FieldFill, InputPlugin, Oid, ScanAccessors, TypedColumn,
        TypedFill, TypedKind,
    };
    use proteus_storage::SourceFormat;

    use crate::engine::{EngineConfig, QueryEngine};

    /// Rows each typed fill rendered, and the calls it took, per field.
    #[derive(Default)]
    struct Rendered {
        rows: [AtomicU64; 2],
        calls: [AtomicU64; 2],
    }

    /// Three morsels of `k` (the predicate field: `row % 100`, except in the
    /// last morsel, where it never drops below 50) and `v` (the payload:
    /// the row number), through typed fills that count what they render.
    struct Counting {
        schema: Schema,
        rendered: Arc<Rendered>,
    }

    const ROWS: u64 = 3 * 1024;

    fn k_at(row: Oid) -> i64 {
        if row < 2048 {
            (row % 100) as i64
        } else {
            50 + (row % 50) as i64
        }
    }

    impl InputPlugin for Counting {
        fn dataset(&self) -> &str {
            "t"
        }
        fn format(&self) -> SourceFormat {
            SourceFormat::Binary
        }
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn len(&self) -> u64 {
            ROWS
        }
        fn generate(&self, fields: &[String]) -> proteus_plugins::Result<ScanAccessors> {
            let fields = fields
                .iter()
                .map(|name| {
                    let field = usize::from(name == "v");
                    let rendered = Arc::clone(&self.rendered);
                    let fill: TypedFill =
                        Arc::new(move |start, count, sel: &[u32], out: &mut TypedColumn| {
                            rendered.rows[field].fetch_add(sel.len() as u64, Ordering::Relaxed);
                            rendered.calls[field].fetch_add(1, Ordering::Relaxed);
                            out.fill_selected(TypedKind::I64, count, sel, |out, row| {
                                let oid = start + Oid::from(row);
                                out.push_i64(if field == 0 { k_at(oid) } else { oid as i64 })
                            });
                        });
                    (name.clone(), FieldFill::Typed(TypedKind::I64, fill))
                })
                .collect();
            Ok(ScanAccessors {
                row_count: ROWS,
                fields,
                access_path: "counting".into(),
                bad_rows: 0,
            })
        }
        fn read_value(&self, oid: Oid, field: &str) -> proteus_plugins::Result<Value> {
            Ok(Value::Int(if field == "k" {
                k_at(oid)
            } else {
                oid as i64
            }))
        }
        fn read_path(&self, oid: Oid, path: &[String]) -> proteus_plugins::Result<Value> {
            self.read_value(oid, &path.join("."))
        }
        fn statistics(&self) -> DatasetStats {
            DatasetStats::with_cardinality(ROWS)
        }
        fn cost_profile(&self) -> CostProfile {
            CostProfile::binary()
        }
    }

    #[test]
    fn payload_fields_render_only_the_rows_the_leading_kernel_filter_keeps() {
        let rendered = Arc::new(Rendered::default());
        let engine = QueryEngine::new(EngineConfig::without_caching());
        engine.register_plugin(Arc::new(Counting {
            schema: Schema::from_pairs(vec![("k", DataType::Int), ("v", DataType::Int)]),
            rendered: Arc::clone(&rendered),
        }));
        // 2% of the first two morsels pass; none of the third does.
        let result = engine
            .sql("SELECT COUNT(*), SUM(v) FROM t WHERE k < 2")
            .unwrap();
        let survivors: Vec<i64> = (0..ROWS)
            .filter(|&r| k_at(r) < 2)
            .map(|r| r as i64)
            .collect();
        assert_eq!(
            result.scalar("count_0"),
            Some(Value::Int(survivors.len() as i64))
        );
        assert_eq!(
            result.scalar("sum_1"),
            Some(Value::Int(survivors.iter().sum()))
        );
        let load =
            |counters: &[AtomicU64; 2]| counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        // The predicate field renders every row, once per morsel.
        assert_eq!(load(&rendered.rows)[0], ROWS);
        assert_eq!(load(&rendered.calls)[0], 3);
        // The payload renders exactly the survivors (2% of the rows), and
        // the morsel without one makes no payload call.
        assert_eq!(load(&rendered.rows)[1], survivors.len() as u64);
        assert_eq!(survivors.len(), 42);
        assert_eq!(load(&rendered.calls)[1], 2);
    }
}
