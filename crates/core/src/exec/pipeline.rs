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
//! [`BindingBatch`]es and a private sink partial (accumulators / radix group
//! table / row buffer), and the partials are merged under the monoid's
//! associative ⊕ when the run drains. With `parallelism = 1` the same batch
//! code runs inline on the calling thread — the serial path and the parallel
//! path are the same code, so their results only differ by floating-point
//! summation order.
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
    BatchFill, ColumnStats, TypedExpand, TypedFill, TypedKind, ZoneMap, ZONE_ROWS,
};
use proteus_storage::CacheStore;

use crate::cache_builder::CacheBuilder;
use crate::error::{EngineError, Result};
use crate::exec::batch::{BindingBatch, MORSEL_SIZE};
use crate::exec::context::QueryContext;
use crate::exec::expr::{CompiledExpr, CompiledPredicate};
use crate::exec::kernels::{self, KernelPred, SinkKernel, ZoneVerdict};
use crate::exec::mask;
use crate::exec::metrics::ExecutionMetrics;
use crate::exec::radix::{
    hash_key_components, key_components_eq, BuildStore, MatchedBitmap, RadixGroupTable,
    RadixHashTable,
};
use crate::exec::scheduler::{PoolTask, Scheduler};
use crate::exec::Binding;

/// Everything a pipeline run needs from the dispatcher: the worker cap, the
/// numeric mode, the query's lifecycle context, and the scheduler to offer
/// runs to. One `ExecEnv` serves the whole query — nested runs (join build
/// sides) inherit it.
pub(crate) struct ExecEnv {
    pub(crate) threads: usize,
    pub(crate) mode: kernels::NumericMode,
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
    /// Set once a kernel predicate references the slot.
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
        /// kernel planner replace the slot's `Value` fill.
        typed: Vec<TypedSlotFill>,
        width: usize,
        cache_builder: CacheBuilder,
        cache_field_slots: Vec<usize>,
        cache_store: Option<CacheStore>,
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
        /// Build-side slots something downstream of the join reads — the
        /// only slots the build store materializes (filled by codegen).
        build_live: Vec<usize>,
        /// Probe-side slots copied into the join output (filled by codegen).
        probe_live: Vec<usize>,
        kind: JoinKind,
    },
}

// ---------------------------------------------------------------------------
// Prepared (executable) form: a scan driving a linear stage chain.
// ---------------------------------------------------------------------------

/// Cache-building side effect attached to a scan. Requires in-order OIDs, so
/// its presence forces the spine onto the serial path.
struct CacheSideEffect {
    builder: Mutex<Option<CacheBuilder>>,
    slots: Vec<usize>,
    store: CacheStore,
}

struct PreparedScan {
    row_count: u64,
    width: usize,
    fills: Vec<(usize, BatchFill)>,
    /// Activated typed fills: `(slot, filler, hydrate?)`.
    typed_fills: Vec<(usize, TypedFill, bool)>,
    cache: Option<CacheSideEffect>,
    /// Per-morsel zone maps keyed by typed slot (Tier 0: morsel skipping).
    zones: Vec<(usize, Arc<ZoneMap>)>,
}

// A zone entry must describe exactly one morsel for `classify_morsel(z)` to
// speak for morsel `z`.
const _: () = assert!(MORSEL_SIZE == ZONE_ROWS);

enum Stage {
    /// Shrinks the selection via a vectorized columnar kernel.
    KernelFilter(KernelPred),
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
    Probe {
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
        /// Probe-side slots copied into the output (the rest stay null —
        /// nothing downstream reads them).
        probe_live: Vec<usize>,
        /// Present for left-outer joins: the shared packed bitmap of
        /// per-build-entry matched flags.
        matched: Option<Arc<MatchedBitmap>>,
    },
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
    /// The query's numeric mode, seeded into every worker's
    /// [`kernels::Scratch`] so spine stages (probe, build hashing) see it.
    mode: kernels::NumericMode,
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
            cache_field_slots,
            cache_store,
            zones,
            slot_stats: _,
            bad_rows,
        } => {
            metrics.bad_rows += bad_rows;
            let cache = match (cache_builder.is_enabled(), cache_store) {
                (true, Some(store)) => Some(CacheSideEffect {
                    builder: Mutex::new(Some(cache_builder)),
                    slots: cache_field_slots,
                    store,
                }),
                _ => None,
            };
            let typed_fills = typed
                .into_iter()
                .filter(|t| t.active)
                .map(|t| (t.slot, t.fill, t.hydrate))
                .collect();
            Ok(PreparedPipeline {
                scan: PreparedScan {
                    row_count,
                    width,
                    fills,
                    typed_fills,
                    cache,
                    zones,
                },
                stages: Vec::new(),
                mode: env.mode,
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
            prepared.stages.push(Stage::Expand(ExpandStage {
                expand,
                lane_slots: lanes.iter().map(|lane| lane.slot).collect(),
                hydrate_lanes: lanes
                    .iter()
                    .filter(|lane| lane.hydrate)
                    .map(|lane| lane.slot)
                    .collect(),
                outer,
                width: parent_names.len() + lanes.len(),
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
            kind,
        } => {
            // Materialize the build side with its own morsel run.
            let store = run_entries(
                *build,
                build_keys,
                build_key_slots,
                build_live,
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
            let matched =
                (kind == JoinKind::LeftOuter).then(|| Arc::new(MatchedBitmap::new(table.len())));
            prepared.stages.push(Stage::Probe {
                table,
                probe_keys,
                key_slots: probe_key_slots,
                residual,
                build_width,
                width: build_width + probe_width,
                probe_live,
                matched,
            });
            Ok(prepared)
        }
    }
}

fn current_width(prepared: &PreparedPipeline) -> usize {
    prepared
        .stages
        .iter()
        .rev()
        .find_map(|stage| match stage {
            Stage::Unnest(UnnestStage { width, .. })
            | Stage::Expand(ExpandStage { width, .. })
            | Stage::Probe { width, .. } => Some(*width),
            Stage::KernelFilter(_) | Stage::Filter(_) | Stage::Hydrate(_) => None,
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
/// after it. Each hydration lists every flagged slot; `hydrate` skips the
/// ones the batch at hand holds no typed column for.
///
/// When the row-consuming stage is a *kernel-keyed probe*, hydration is
/// skipped entirely: the probe reads no rows (keys hash from typed columns)
/// and its gather copies live slots straight out of the typed columns, so
/// only *matched* rows ever materialize a `Value` — everything after the
/// probe reads the gathered join-output rows. The same applies when the
/// pipeline ends at a typed-key build sink (`sink_reads_typed`): the build
/// ingest keys and payload both read the typed columns.
fn insert_hydration(pipeline: &mut PreparedPipeline, sink_reads_typed: bool) {
    let mut slots: Vec<usize> = pipeline
        .scan
        .typed_fills
        .iter()
        .filter(|(_, _, hydrate)| *hydrate)
        .map(|(slot, _, _)| *slot)
        .collect();
    for stage in &pipeline.stages {
        if let Stage::Expand(expand) = stage {
            slots.extend(&expand.hydrate_lanes);
        }
    }
    if slots.is_empty() {
        return;
    }
    let mut hydrated = false;
    let mut at = 0;
    while at < pipeline.stages.len() {
        match &pipeline.stages[at] {
            Stage::KernelFilter(_) | Stage::Hydrate(_) => {}
            Stage::Expand(_) => hydrated = false,
            Stage::Filter(_) if hydrated => {}
            Stage::Filter(_) => {
                pipeline.stages.insert(at, Stage::Hydrate(slots.clone()));
                hydrated = true;
                at += 1;
            }
            // Past either of these the batch is rebuilt row-wise: no typed
            // column survives, nothing is left to hydrate.
            Stage::Unnest(_) | Stage::Probe { .. } => {
                let typed_probe = matches!(
                    &pipeline.stages[at],
                    Stage::Probe {
                        key_slots: Some(_),
                        ..
                    }
                );
                if !hydrated && !typed_probe {
                    pipeline.stages.insert(at, Stage::Hydrate(slots));
                }
                return;
            }
        }
        at += 1;
    }
    if !hydrated && !sink_reads_typed {
        pipeline.stages.push(Stage::Hydrate(slots));
    }
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

/// What the pipeline folds its batches into.
enum SinkSpec {
    Reduce {
        specs: Vec<(Monoid, CompiledExpr)>,
        /// Closure part of the sink predicate (the residual when a kernel
        /// predicate exists, the whole predicate otherwise).
        predicate: Option<CompiledPredicate>,
        /// Kernel plan: columnwise aggregate inputs + kernel predicate mask.
        kernel: Option<SinkKernel>,
    },
    Nest {
        keys: Vec<CompiledExpr>,
        monoids: Vec<Monoid>,
        value_exprs: Vec<CompiledExpr>,
        predicate: Option<CompiledPredicate>,
        /// Kernel plan: typed key ingest + columnwise aggregate inputs.
        kernel: Option<SinkKernel>,
    },
    Collect,
    /// Join-build materialization into a columnar [`BuildStore`]: key
    /// components + live payload slots, flattened per entry.
    Entries {
        /// Closure key extractors (the fallback ingest).
        keys: Vec<CompiledExpr>,
        /// Typed slots serving the key components (the kernel ingest:
        /// batch-hashed straight from the typed columns).
        key_slots: Option<Vec<usize>>,
        /// Build slots something downstream of the join reads.
        live_slots: Vec<usize>,
    },
}

/// One reduce output's worker partial.
enum ReducePartial {
    /// Fixed-size accumulator state (sum/count/min/max/avg/and/or).
    Scalar(Accumulator),
    /// Collection elements tagged with their morsel, so the merged output
    /// preserves scan order under a parallel fold (the same morsel-tagged
    /// ordered merge the Collect/Entries sinks use). Sets dedup locally —
    /// the first local occurrence carries the smallest tag, so the ordered
    /// global dedup still keeps the scan-order-first element.
    Tagged(Vec<(u64, Value)>),
}

impl ReducePartial {
    fn new(monoid: Monoid) -> ReducePartial {
        if monoid.is_collection() {
            ReducePartial::Tagged(Vec::new())
        } else {
            ReducePartial::Scalar(Accumulator::zero(monoid))
        }
    }

    /// Mirrors `Accumulator::merge` for one folded value.
    fn fold(&mut self, monoid: Monoid, value: Value, morsel: u64) {
        match self {
            ReducePartial::Scalar(acc) => {
                let _ = acc.merge(monoid, value);
            }
            ReducePartial::Tagged(items) => {
                if monoid == Monoid::Set && items.iter().any(|(_, v)| v.value_eq(&value)) {
                    return;
                }
                items.push((morsel, value));
            }
        }
    }
}

/// One worker's columnar build-side partial: per-entry morsel tag and key
/// hash, with key components and live payload values flattened into arenas —
/// no per-entry `Vec<Value>` is ever allocated. Tags ascend within a
/// partial (workers claim morsels in increasing order), so the merge is a
/// k-way merge by morsel.
#[derive(Default)]
struct EntriesPartial {
    tags: Vec<u64>,
    hashes: Vec<u64>,
    keys: Vec<Value>,
    payload: Vec<Value>,
}

/// A worker-private sink partial.
enum SinkState {
    Reduce(Vec<ReducePartial>),
    Nest(RadixGroupTable),
    /// Rows tagged with their morsel index so the merged output preserves
    /// scan order regardless of which worker claimed which morsel.
    Collect(Vec<(u64, Binding)>),
    Entries(EntriesPartial),
}

/// The merged result of a pipeline run.
enum SinkResult {
    Accumulators(Vec<Accumulator>),
    Groups(RadixGroupTable),
    Rows(Vec<Binding>),
    Entries(BuildStore),
}

impl SinkSpec {
    fn new_state(&self) -> SinkState {
        match self {
            SinkSpec::Reduce { specs, .. } => {
                SinkState::Reduce(specs.iter().map(|(m, _)| ReducePartial::new(*m)).collect())
            }
            SinkSpec::Nest { keys, monoids, .. } => {
                SinkState::Nest(RadixGroupTable::new(keys.len(), monoids.clone()))
            }
            SinkSpec::Collect => SinkState::Collect(Vec::new()),
            SinkSpec::Entries { .. } => SinkState::Entries(EntriesPartial::default()),
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

    /// Folds one batch into a worker-local partial.
    fn consume(
        &self,
        state: &mut SinkState,
        batch: &BindingBatch,
        scratch: &mut kernels::Scratch,
        morsel: u64,
        metrics: &mut ExecutionMetrics,
    ) {
        match (self, state) {
            (
                SinkSpec::Reduce {
                    specs,
                    predicate,
                    kernel: Some(sink_kernel),
                },
                SinkState::Reduce(partials),
            ) => {
                let masked =
                    Self::masked_rows(sink_kernel.predicate.as_ref(), predicate, batch, scratch);
                if masked.is_empty() {
                    scratch.put_sel(masked);
                    return;
                }
                let rendered = sink_kernel.render(batch, batch.rows(), scratch);
                let mut closure_specs = 0u64;
                for (i, (monoid, expr)) in specs.iter().enumerate() {
                    if rendered.is_kernel(i) {
                        let ReducePartial::Scalar(acc) = &mut partials[i] else {
                            unreachable!("kernel-classified collection monoid");
                        };
                        metrics.simd_rows += rendered.fold_rows(i, *monoid, acc, &masked);
                    } else {
                        closure_specs += 1;
                        for &r in &masked {
                            partials[i].fold(*monoid, expr(batch.row(r)), morsel);
                        }
                    }
                }
                metrics.agg_kernel_rows += masked.len() as u64 * sink_kernel.kernel_specs() as u64;
                metrics.agg_fallback_rows += masked.len() as u64 * closure_specs;
                rendered.release(scratch);
                scratch.put_sel(masked);
            }
            (
                SinkSpec::Reduce {
                    specs,
                    predicate,
                    kernel: None,
                },
                SinkState::Reduce(partials),
            ) => {
                let mut consumed = 0u64;
                batch.for_each_selected(|row| {
                    if let Some(pred) = predicate {
                        if !pred(row) {
                            return;
                        }
                    }
                    consumed += 1;
                    for ((monoid, expr), partial) in specs.iter().zip(partials.iter_mut()) {
                        partial.fold(*monoid, expr(row), morsel);
                    }
                });
                metrics.agg_fallback_rows += consumed * specs.len() as u64;
            }
            (
                SinkSpec::Nest {
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
                    return;
                }
                let typed_keys = kernels::TypedKeys::bind(&sink_kernel.key_slots, batch)
                    .with_mode(sink_kernel.mode);
                let mut hashes = scratch.take_u64s();
                metrics.simd_rows += typed_keys.hash_rows(&masked, &mut hashes);
                // Resolve every row's group id first, then fold columnwise:
                // one tight loop per kernel spec over (group id, row).
                let mut gids = scratch.take_sel();
                typed_keys.resolve_groups(table, &masked, &hashes, &mut gids, scratch);
                let rendered = sink_kernel.render(batch, batch.rows(), scratch);
                let stride = value_exprs.len();
                for spec in 0..stride {
                    if rendered.is_kernel(spec) {
                        let monoid = table.monoids()[spec];
                        metrics.simd_rows += rendered.fold_groups(
                            spec,
                            monoid,
                            table.accs_mut(),
                            stride,
                            &gids,
                            &masked,
                        );
                    }
                }
                if sink_kernel.kernel_specs() < stride {
                    // Closure-fallback specs (collection monoids, untyped
                    // inputs) fold per row into the same resolved groups.
                    for (&gid, &r) in gids.iter().zip(&masked) {
                        table.fold_group(gid, morsel, |accumulators, monoids| {
                            for (spec, (acc, monoid)) in
                                accumulators.iter_mut().zip(monoids).enumerate()
                            {
                                if !rendered.is_kernel(spec) {
                                    let _ = acc.merge(*monoid, value_exprs[spec](batch.row(r)));
                                }
                            }
                        });
                    }
                }
                // One probe per row; under `Relaxed`, one per run of
                // adjacent rows in the same group (what folds as one
                // `fold_rows` call).
                let probes = if sink_kernel.mode == kernels::NumericMode::Relaxed {
                    1 + gids.windows(2).filter(|pair| pair[0] != pair[1]).count()
                } else {
                    gids.len()
                };
                scratch.put_sel(gids);
                let kernel_specs = sink_kernel.kernel_specs() as u64;
                metrics.hash_probes += probes as u64;
                metrics.agg_kernel_rows += masked.len() as u64 * kernel_specs;
                metrics.agg_fallback_rows +=
                    masked.len() as u64 * (value_exprs.len() as u64 - kernel_specs);
                rendered.release(scratch);
                scratch.put_u64s(hashes);
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
                let mut probes = 0u64;
                // Scratch key buffer: the key components are cloned into the
                // table only when a row starts a new group.
                let mut key_buf = scratch.take_values();
                batch.for_each_selected(|row| {
                    if let Some(pred) = predicate {
                        if !pred(row) {
                            return;
                        }
                    }
                    key_buf.clear();
                    key_buf.extend(keys.iter().map(|k| k(row)));
                    let hash = hash_key_components(&key_buf);
                    probes += 1;
                    table.merge_with(
                        hash,
                        |stored| key_components_eq(stored, &key_buf),
                        |arena| arena.extend(key_buf.iter().cloned()),
                        morsel,
                        |accumulators, monoids| {
                            for ((acc, monoid), expr) in
                                accumulators.iter_mut().zip(monoids).zip(value_exprs)
                            {
                                let _ = acc.merge(*monoid, expr(row));
                            }
                        },
                    );
                });
                scratch.put_values(key_buf);
                metrics.hash_probes += probes;
                metrics.agg_fallback_rows += probes * value_exprs.len() as u64;
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
                },
                SinkState::Entries(partial),
            ) => {
                match key_slots {
                    Some(slots) => {
                        // Kernel ingest: batch-hash the whole selection from
                        // the typed columns, materialize components lane-wise.
                        let typed_keys =
                            kernels::TypedKeys::bind(slots, batch).with_mode(scratch.mode());
                        // Live payload slots read the typed columns where
                        // the scan filled them (hydration is skipped ahead
                        // of a typed-key build sink).
                        let live_cols: Vec<_> =
                            live_slots.iter().map(|&s| batch.typed_col(s)).collect();
                        let mut hashes = scratch.take_u64s();
                        metrics.simd_rows += typed_keys.hash_rows(batch.sel(), &mut hashes);
                        for (&r, &hash) in batch.sel().iter().zip(&hashes) {
                            partial.tags.push(morsel);
                            partial.hashes.push(hash);
                            typed_keys.materialize_into(r as usize, &mut partial.keys);
                            partial
                                .payload
                                .extend(live_slots.iter().zip(&live_cols).map(
                                    |(&s, col)| match col {
                                        Some(col) => col.value_at(r as usize),
                                        None => batch.row(r)[s].clone(),
                                    },
                                ));
                        }
                        metrics.join_kernel_rows += batch.active() as u64;
                        scratch.put_u64s(hashes);
                    }
                    None => {
                        // Closure fallback: key components evaluate into the
                        // arena directly — no `Value::List` wrapper at any
                        // arity, and single keys are just one component.
                        batch.for_each_selected(|row| {
                            let start = partial.keys.len();
                            partial.keys.extend(keys.iter().map(|k| k(row)));
                            let hash = hash_key_components(&partial.keys[start..]);
                            partial.hashes.push(hash);
                            partial.tags.push(morsel);
                            partial
                                .payload
                                .extend(live_slots.iter().map(|&s| row[s].clone()));
                        });
                        metrics.join_fallback_rows += batch.active() as u64;
                    }
                }
            }
            _ => unreachable!("sink state does not match sink spec"),
        }
    }

    /// Merges worker partials (in worker order) into the final result.
    fn merge(&self, partials: Vec<SinkState>) -> SinkResult {
        match self {
            SinkSpec::Reduce { specs, .. } => {
                let mut merged: Vec<Accumulator> =
                    specs.iter().map(|(m, _)| Accumulator::zero(*m)).collect();
                let mut tagged: Vec<Vec<(u64, Value)>> = specs.iter().map(|_| Vec::new()).collect();
                for partial in partials {
                    if let SinkState::Reduce(parts) = partial {
                        for (i, part) in parts.into_iter().enumerate() {
                            match part {
                                ReducePartial::Scalar(acc) => {
                                    let _ = merged[i].combine(specs[i].0, acc);
                                }
                                ReducePartial::Tagged(items) => tagged[i].extend(items),
                            }
                        }
                    }
                }
                // Collection partials: restore scan order across workers by
                // the morsel tag (stable, so within-morsel order is kept),
                // then fold under the monoid — `Set` dedups globally here.
                for (i, mut items) in tagged.into_iter().enumerate() {
                    if specs[i].0.is_collection() {
                        items.sort_by_key(|(tag, _)| *tag);
                        for (_, value) in items {
                            let _ = merged[i].merge(specs[i].0, value);
                        }
                    }
                }
                SinkResult::Accumulators(merged)
            }
            SinkSpec::Nest { keys, monoids, .. } => {
                // The first partial *is* the merged table (the serial path
                // moves nothing); the rest are absorbed in worker order.
                let mut tables = partials.into_iter().filter_map(|p| match p {
                    SinkState::Nest(table) => Some(table),
                    _ => None,
                });
                let mut merged = tables
                    .next()
                    .unwrap_or_else(|| RadixGroupTable::new(keys.len(), monoids.clone()));
                for table in tables {
                    merged.absorb(table);
                }
                SinkResult::Groups(merged)
            }
            SinkSpec::Collect => {
                let mut tagged: Vec<(u64, Binding)> = Vec::new();
                for partial in partials {
                    if let SinkState::Collect(rows) = partial {
                        tagged.extend(rows);
                    }
                }
                tagged.sort_by_key(|(morsel, _)| *morsel);
                SinkResult::Rows(tagged.into_iter().map(|(_, row)| row).collect())
            }
            SinkSpec::Entries {
                keys, live_slots, ..
            } => {
                let arity = keys.len();
                let mut parts: Vec<EntriesPartial> = partials
                    .into_iter()
                    .filter_map(|p| match p {
                        SinkState::Entries(e) => Some(e),
                        _ => None,
                    })
                    .collect();
                // Serial fast path: one partial's arenas *are* the store.
                if parts.len() == 1 {
                    if let Some(p) = parts.pop() {
                        return SinkResult::Entries(BuildStore::from_parts(
                            arity,
                            live_slots.clone(),
                            p.hashes,
                            p.keys,
                            p.payload,
                        ));
                    }
                }
                // Restore scan order across workers: per-partial tags
                // ascend and every morsel belongs to one worker, so a k-way
                // merge by (tag, worker index) reproduces the serial entry
                // order exactly. Values are moved, not cloned.
                let live_width = live_slots.len();
                let total: usize = parts.iter().map(|p| p.hashes.len()).sum();
                let mut store = BuildStore::new(arity, live_slots.clone());
                let mut cursors = vec![0usize; parts.len()];
                for _ in 0..total {
                    // `total` is the sum of the partial lengths, so some
                    // cursor always has entries left; the else arm is
                    // unreachable but keeps the merge abort-free.
                    let Some(w) = (0..parts.len())
                        .filter(|&w| cursors[w] < parts[w].tags.len())
                        .min_by_key(|&w| (parts[w].tags[cursors[w]], w))
                    else {
                        break;
                    };
                    let i = cursors[w];
                    cursors[w] += 1;
                    let p = &mut parts[w];
                    store.push_taken(
                        p.hashes[i],
                        &mut p.keys[i * arity..(i + 1) * arity],
                        &mut p.payload[i * live_width..(i + 1) * live_width],
                    );
                }
                SinkResult::Entries(store)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The morsel executor.
// ---------------------------------------------------------------------------

/// Fills one morsel's worth of scan output into `batch`.
fn fill_morsel(
    scan: &PreparedScan,
    start: u64,
    count: usize,
    batch: &mut BindingBatch,
    metrics: &mut ExecutionMetrics,
) {
    batch.reset(scan.width, count);
    let width = scan.width;
    let data = batch.data_mut();
    for (slot, fill) in &scan.fills {
        fill(start, count, data, *slot, width);
    }
    for (slot, fill, _) in &scan.typed_fills {
        fill(start, count, batch.typed_col_mut(*slot));
    }
    metrics.tuples_scanned += count as u64;

    if let Some(cache) = &scan.cache {
        // Chaos-harness site: fires inside the worker's catch_unwind, so an
        // injected error/panic here exercises the half-built-cache path.
        proteus_plugins::fault::check_infallible("cache.build");
        let mut guard = cache.builder.lock().unwrap_or_else(|e| e.into_inner());
        // A builder left with no usable column has turned itself off: skip
        // the per-row copy for the rest of the scan.
        if let Some(builder) = guard.as_mut().filter(|builder| builder.is_enabled()) {
            let mut values: Vec<Value> = Vec::with_capacity(cache.slots.len());
            for i in 0..count {
                values.clear();
                let row = batch.row(i as u32);
                values.extend(cache.slots.iter().map(|slot| row[*slot].clone()));
                metrics.cached_values += builder.observe(start + i as u64, &values);
            }
        }
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

/// Applies `stages` to `cur` (ping-ponging with `spare`), then folds the
/// surviving rows into the sink partial.
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
) {
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
            Stage::Probe {
                table,
                probe_keys,
                key_slots,
                residual,
                build_width,
                width,
                probe_live,
                matched,
            } => {
                let store = table.store();
                let mut pairs = scratch.take_pairs();
                match key_slots {
                    Some(slots) => {
                        // Kernel probe: batch-hash the whole selection from
                        // the typed columns, then walk the clustered hash
                        // runs with lane-vs-stored-key compares. No `Value`
                        // is materialized per probe row.
                        let typed_keys =
                            kernels::TypedKeys::bind(slots, cur).with_mode(scratch.mode());
                        let mut hashes = scratch.take_u64s();
                        metrics.simd_rows += typed_keys.hash_rows(cur.sel(), &mut hashes);
                        // Single numeric keys take the specialized loop;
                        // everything else runs the generic componentwise
                        // compares. Batch hashing buys both a fixed probe
                        // lookahead: pull each row's clustered sub-run
                        // toward cache while earlier rows are confirmed.
                        if typed_keys.probe_rows_numeric(table, cur.sel(), &hashes, |entry, r| {
                            pairs.push((entry, r))
                        }) {
                            if scratch.mode() == kernels::NumericMode::Relaxed {
                                // The chunked lane-gather probe engaged.
                                metrics.simd_rows += cur.active() as u64;
                            }
                        } else {
                            for (i, (&r, &hash)) in cur.sel().iter().zip(&hashes).enumerate() {
                                if let Some(&ahead) =
                                    hashes.get(i + crate::exec::radix::PROBE_LOOKAHEAD)
                                {
                                    table.prefetch(ahead);
                                }
                                table.probe_hashed(
                                    hash,
                                    |entry| typed_keys.eq_store(r as usize, store, entry),
                                    |entry| pairs.push((entry, r)),
                                );
                            }
                        }
                        metrics.join_kernel_rows += cur.active() as u64;
                        scratch.put_u64s(hashes);
                    }
                    None => {
                        // Closure fallback: key components evaluate into a
                        // recycled scratch buffer (no `Value::List` wrapper
                        // at any arity), hash/compare componentwise.
                        let mut key_buf = scratch.take_values();
                        for &r in cur.sel() {
                            let row = cur.row(r);
                            key_buf.clear();
                            key_buf.extend(probe_keys.iter().map(|k| k(row)));
                            table.probe_hashed(
                                hash_key_components(&key_buf),
                                |entry| key_components_eq(store.key_components(entry), &key_buf),
                                |entry| pairs.push((entry, r)),
                            );
                        }
                        metrics.join_fallback_rows += cur.active() as u64;
                        scratch.put_values(key_buf);
                    }
                }
                metrics.hash_probes += cur.active() as u64;

                // Gather the matched rows columnwise into the output batch:
                // only live slots are written; dead slots are never read
                // (liveness covers every downstream reader, and a collect
                // sink marks all slots live), so the reset skips
                // null-filling them.
                spare.reset_sparse(*width, pairs.len());
                for (comp, &slot) in store.live_slots().iter().enumerate() {
                    for (out_row, &(entry, _)) in pairs.iter().enumerate() {
                        // Matched entries scatter over the payload arena;
                        // pull upcoming entries in while copying (an entry's
                        // payload values are contiguous, so the first
                        // component's pass covers them all).
                        if comp == 0 {
                            if let Some(&(ahead, _)) = pairs.get(out_row + 8) {
                                store.prefetch_payload(ahead);
                            }
                        }
                        spare.put(out_row, slot, store.payload(entry)[comp].clone());
                    }
                }
                for &slot in probe_live {
                    let out_slot = build_width + slot;
                    // Typed slots gather straight from the column — matched
                    // rows are the only ones that ever become a `Value`
                    // (hydration is skipped ahead of a kernel-keyed probe).
                    match cur.typed_col(slot) {
                        Some(col) => {
                            for (out_row, &(_, r)) in pairs.iter().enumerate() {
                                spare.put(out_row, out_slot, col.value_at(r as usize));
                            }
                        }
                        None => {
                            for (out_row, &(_, r)) in pairs.iter().enumerate() {
                                spare.put(out_row, out_slot, cur.row(r)[slot].clone());
                            }
                        }
                    }
                }
                if let Some(pred) = residual {
                    spare.retain(|row| pred(row));
                }
                if let Some(flags) = matched {
                    for &out_row in spare.sel() {
                        let (entry, _) = pairs[out_row as usize];
                        flags.set(entry as usize);
                    }
                }
                scratch.put_pairs(pairs);
                std::mem::swap(cur, spare);
            }
        }
    }
    sink.consume(state, cur, scratch, morsel, metrics);
    metrics.batch_grows += cur.take_alloc_events() + spare.take_alloc_events();
}

/// Rough per-`Value` cost (enum size plus small-heap overhead) used by the
/// memory-budget estimates. The budget bounds the dominant sink-state
/// allocations at morsel granularity; it is not allocator truth.
const VALUE_COST: u64 = 48;

/// Estimated bytes held by a worker's sink partial. O(1) per call — totals
/// derive from lengths/counts, never from walking the stored values.
fn approx_state_bytes(state: &SinkState) -> u64 {
    match state {
        SinkState::Reduce(parts) => parts
            .iter()
            .map(|p| match p {
                ReducePartial::Scalar(_) => 64,
                ReducePartial::Tagged(items) => items.len() as u64 * (VALUE_COST + 8),
            })
            .sum(),
        SinkState::Nest(table) => table.approx_bytes(VALUE_COST),
        SinkState::Collect(rows) => {
            let width = rows.first().map(|(_, r)| r.len()).unwrap_or(0) as u64;
            rows.len() as u64 * (16 + width * VALUE_COST)
        }
        SinkState::Entries(p) => {
            (p.keys.len() + p.payload.len()) as u64 * VALUE_COST + p.hashes.len() as u64 * 16
        }
    }
}

/// The budget site name reported when a sink partial trips the cap.
fn state_site(state: &SinkState) -> &'static str {
    match state {
        SinkState::Reduce(_) => "reduce partial",
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
    cache_bytes: u64,
}

impl WorkerPartial {
    fn new(sink: &SinkSpec, mode: kernels::NumericMode) -> WorkerPartial {
        WorkerPartial {
            state: sink.new_state(),
            metrics: ExecutionMetrics::new(),
            cur: BindingBatch::new(),
            spare: BindingBatch::new(),
            scratch: kernels::Scratch::with_mode(mode),
            failed: false,
            state_bytes: 0,
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
            .unwrap_or_else(|| WorkerPartial::new(&run.sink, run.pipeline.mode));
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
    // kernel filter, the scan recorded zone maps, and no cache side effect
    // needs to observe every row. Each morsel is classified against the
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
                fill_morsel(&pipeline.scan, start, count, cur, metrics);
                let stages = if verdict == ZoneVerdict::AllPass {
                    // Every row passes: keep the identity selection and drop
                    // straight past the leading kernel filter.
                    metrics.morsels_short_circuited += 1;
                    &pipeline.stages[1..]
                } else {
                    &pipeline.stages[..]
                };
                process_stages(stages, cur, spare, sink, state, scratch, morsel, metrics);
                Ok(())
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
        // Memory budget: debit this morsel's sink-state growth (and cache
        // growth when a cache build rides the scan).
        if ctx.budgeted() {
            let bytes = approx_state_bytes(&p.state);
            let site = state_site(&p.state);
            if !ctx.debit(site, bytes.saturating_sub(p.state_bytes)) {
                p.failed = true;
                continue;
            }
            p.state_bytes = bytes;
            if pipeline.scan.cache.is_some() {
                let bytes = p.metrics.cached_values * 24;
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
/// a half-built cache.
fn execute_pipeline(
    pipeline: PreparedPipeline,
    sink: SinkSpec,
    env: &ExecEnv,
    metrics: &mut ExecutionMetrics,
) -> Result<SinkResult> {
    let morsel_count = pipeline.scan.row_count.div_ceil(MORSEL_SIZE as u64);
    // A cache-building side effect needs in-order OIDs: stay serial.
    let threads = if pipeline.scan.cache.is_some() {
        1
    } else {
        env.threads.max(1).min(morsel_count.max(1) as usize)
    };
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
    for partial in run.take_partials() {
        metrics.merge_counters(&partial.metrics);
        if !partial.failed {
            partials.push(partial.state);
        }
    }

    let ctx = &run.ctx;
    if ctx.poisoned() {
        return Err(take_failure(ctx));
    }

    let pipeline = &run.pipeline;
    let sink = &run.sink;
    // Left-outer tails: emit unmatched build rows padded with nulls and run
    // them through the remaining stages into one extra partial. Runs on the
    // calling thread, with the same panic containment as the workers.
    for (idx, stage) in pipeline.stages.iter().enumerate() {
        if let Stage::Probe {
            table,
            width,
            matched: Some(flags),
            ..
        } = stage
        {
            let store = table.store();
            let mut tail = BindingBatch::new();
            tail.reset_empty(*width);
            flags.for_each_unmatched(table.len(), |entry| {
                // Null row, then the stored live slots — exactly the
                // shape of a probe output row with a null probe side.
                tail.push_row_of(&[], &[]);
                for (comp, &slot) in store.live_slots().iter().enumerate() {
                    tail.set_last(slot, store.payload(entry)[comp].clone());
                }
            });
            if !tail.is_empty() {
                let mut spare = BindingBatch::new();
                let mut state = sink.new_state();
                let mut scratch = kernels::Scratch::with_mode(pipeline.mode);
                // Tag tail rows past every real morsel so they sort last.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    process_stages(
                        &pipeline.stages[idx + 1..],
                        &mut tail,
                        &mut spare,
                        sink,
                        &mut state,
                        &mut scratch,
                        run.morsel_count,
                        metrics,
                    );
                }));
                if let Err(payload) = outcome {
                    ctx.fail(panic_error(payload, "left-outer tail"));
                    return Err(take_failure(ctx));
                }
                partials.push(state);
            }
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
    if let Some(cache) = &pipeline.scan.cache {
        let builder = cache
            .builder
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(builder) = builder {
            builder.finish_if_current(&cache.store);
        }
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

/// Runs `producer` into per-query reduce accumulators.
pub(crate) fn run_reduce(
    producer: Producer,
    specs: Vec<(Monoid, CompiledExpr)>,
    predicate: Option<CompiledPredicate>,
    kernel: Option<SinkKernel>,
    env: &ExecEnv,
    metrics: &mut ExecutionMetrics,
) -> Result<Vec<Accumulator>> {
    let mut pipeline = prepare(producer, env, metrics)?;
    insert_hydration(&mut pipeline, false);
    let spec = SinkSpec::Reduce {
        specs,
        predicate,
        kernel,
    };
    match execute_pipeline(pipeline, spec, env, metrics)? {
        SinkResult::Accumulators(accumulators) => Ok(accumulators),
        _ => unreachable!(),
    }
}

/// Runs `producer` into a radix group table.
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
    let spec = SinkSpec::Nest {
        keys,
        monoids,
        value_exprs,
        predicate,
        kernel,
    };
    match execute_pipeline(pipeline, spec, env, metrics)? {
        SinkResult::Groups(table) => Ok(table),
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
    let spec = SinkSpec::Entries {
        keys,
        key_slots,
        live_slots,
    };
    match execute_pipeline(pipeline, spec, env, metrics)? {
        SinkResult::Entries(store) => Ok(store),
        _ => unreachable!(),
    }
}
