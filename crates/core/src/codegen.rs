//! On-demand engine generation (§5.1, "An Engine per Query").
//!
//! The compiler traverses the physical plan once, post-order. Every visited
//! operator contributes a specialized stage, and every scan asks the relevant
//! input plug-in to `generate()` fills specialized to the dataset
//! instance and the query's field-of-interest list. The stages are stitched
//! ("blended") into a single fused pipeline per query: scans drive a tight
//! loop, selections become inlined predicate closures, unnests expand in
//! place, joins materialize their build side into a radix hash table and keep
//! streaming the probe side, and reduce/nest sit at the root as sinks.
//!
//! The paper lowers the plan to LLVM IR and JIT-compiles it; here the plan is
//! lowered to monomorphized Rust closures fused at query time (see DESIGN.md
//! for the substitution argument). A human-readable pseudo-IR equivalent to
//! Figure 3 is emitted alongside for inspection and tests.
//!
//! # Kernel classification (the vectorized tiers)
//!
//! Compilation is also where the vectorized tiers are decided (see
//! `ARCHITECTURE.md` at the repo root). For each selection the compiler asks
//! [`kernels::plan_predicate`] to split the conjunction into a kernel part —
//! evaluated over typed morsel columns into a packed 64-bit selection
//! bitmask ([`crate::exec::mask`]) — and a compiled-closure residual; for
//! each reduce/nest sink it asks [`kernels::plan_sink`] to classify output
//! specs and group keys; for each join side it asks
//! [`kernels::plan_key_slots`] for an all-or-nothing typed-key plan; for each
//! unnest, `plan_typed_expand` decides between the plug-in's typed expand
//! hook (element leaves become layout slots and typed lanes) and the closure
//! floor, and writes the verdict into the IR line. Every
//! classification *activates* the typed fills the kernels read
//! (`try_activate_typed_slots`) and withholds `Value` hydration from slots
//! nothing downstream reads in boxed form (`PlanCtx::value_refs` — the
//! referenced-name liveness pass in `finalize_typed_fills`). The planners
//! only choose representations; semantics are pinned by the kernel ≡ closure
//! bit-exactness contract documented in [`kernels`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proteus_algebra::{
    BinaryOp, Expr, JoinKind, LogicalPlan, Monoid, Path, Record, ReduceSpec, Value,
};
use proteus_plugins::{BatchFill, ColumnStats, FieldFill, PluginRegistry, TypedKind, ZoneMap};
use proteus_storage::CacheStore;

use crate::cache_builder::{should_cache_field, CacheBuilder};
use crate::error::{EngineError, Result};
use crate::exec::expr::{
    compile_expr, compile_predicate, BindingLayout, CompiledExpr, CompiledPredicate,
};
use crate::exec::kernels;
use crate::exec::metrics::ExecutionMetrics;
use crate::exec::pipeline::{
    run_collect, run_nest, run_reduce, ExpandLane, Producer, TypedSlotFill,
};

/// The query compiler: turns optimized plans into specialized pipelines.
#[derive(Clone)]
pub struct Compiler {
    registry: PluginRegistry,
    caches: Option<CacheStore>,
    vectorized: bool,
    morsel_skipping: bool,
    numeric_mode: kernels::NumericMode,
}

/// Per-compilation planner state: which slot names any compiled closure
/// (residual predicates, sink expressions, collected/copied rows) reads in
/// `Value` form. Typed slots outside this set are never hydrated — their
/// data never round-trips through `Value` at all.
#[derive(Default)]
struct PlanCtx {
    value_refs: HashSet<String>,
    /// Per unnest alias: every path its own predicate and the operators above
    /// it reference (`unnest_refs`; empty for plans without an unnest). How
    /// an unnest learns, before its parents compile, whether everything
    /// downstream reads its alias leaf by leaf, and which parent slots are
    /// worth carrying across it.
    unnest_refs: HashMap<String, Vec<Path>>,
    /// The plan's root collects whole bindings, so every slot — an unnest
    /// alias included — is read whole.
    collects_bindings: bool,
}

impl PlanCtx {
    /// Marks every slot an expression resolves to as `Value`-consumed.
    fn note_expr(&mut self, expr: &Expr, layout: &BindingLayout) {
        for path in expr.referenced_paths() {
            if let Some((slot, _)) = layout.resolve(&path) {
                self.value_refs.insert(layout.slots()[slot].clone());
            }
        }
    }

    /// Marks a whole layout as `Value`-consumed (rows copied wholesale:
    /// collect sinks).
    fn note_all(&mut self, layout: &BindingLayout) {
        for slot in layout.slots() {
            self.value_refs.insert(slot.clone());
        }
    }

    /// The slots of `layout` (an unnest's input) that the unnest's own
    /// predicate or anything above it references: the candidates for being
    /// carried across. The collection path is not among them unless someone
    /// else reads it too.
    fn slots_read_above(&self, alias: &str, layout: &BindingLayout) -> Vec<usize> {
        if self.collects_bindings {
            return (0..layout.len()).collect();
        }
        let mut slots: Vec<usize> = self
            .unnest_refs
            .get(alias)
            .into_iter()
            .flatten()
            .filter_map(|path| layout.resolve(path).map(|(slot, _)| slot))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }
}

/// Records, per unnest alias in `plan`, the paths referenced by the unnest's
/// predicate and by every operator above it (`above` is the walk's running
/// list). An alias two unnests share gets both lists.
fn unnest_refs(plan: &LogicalPlan, above: &mut Vec<Path>, out: &mut HashMap<String, Vec<Path>>) {
    let mark = above.len();
    for expr in plan.node_expressions() {
        above.extend(expr.referenced_paths());
    }
    if let LogicalPlan::Unnest { alias, path, .. } = plan {
        out.entry(alias.clone())
            .or_default()
            .extend(above.iter().cloned());
        above.push(path.clone());
    }
    for child in plan.children() {
        unnest_refs(child, above, out);
    }
    above.truncate(mark);
}

impl Compiler {
    /// Creates a compiler over a plug-in registry, optionally with adaptive
    /// caching enabled. Vectorized predicate kernels are on by default.
    pub fn new(registry: PluginRegistry, caches: Option<CacheStore>) -> Compiler {
        Compiler {
            registry,
            caches,
            vectorized: true,
            morsel_skipping: true,
            numeric_mode: kernels::NumericMode::Strict,
        }
    }

    /// Enables or disables the vectorized predicate kernels (builder style);
    /// with `false` every selection compiles to per-tuple closures, the
    /// pre-kernel execution model.
    pub fn with_vectorization(mut self, vectorized: bool) -> Compiler {
        self.vectorized = vectorized;
        self
    }

    /// Enables or disables zone-map morsel skipping (builder style; on by
    /// default). With `false` the scan attaches no zone maps, so every
    /// morsel fills and runs the compare kernels — the pre-skipping model.
    /// Skipping rides on the kernel tier, so disabling vectorization
    /// disables it too.
    pub fn with_morsel_skipping(mut self, morsel_skipping: bool) -> Compiler {
        self.morsel_skipping = morsel_skipping;
        self
    }

    /// Selects the query's numeric mode (builder style; `strict` by
    /// default). Under [`NumericMode::Relaxed`](kernels::NumericMode) the
    /// generated engine's `sum`/`avg` folds lane-split (permitting float
    /// reassociation) and batch hashing / numeric probe compares take their
    /// chunked explicit-lane loops.
    pub fn with_numeric_mode(mut self, mode: kernels::NumericMode) -> Compiler {
        self.numeric_mode = mode;
        self
    }

    /// Compiles a plan into an executable query.
    pub fn compile(&self, plan: &LogicalPlan) -> Result<CompiledQuery> {
        let started = Instant::now();
        let mut ir = IrEmitter::new();
        let mut access_paths = Vec::new();
        let mut ctx = PlanCtx::default();
        let mut has_unnest = false;
        plan.visit(&mut |node| has_unnest |= matches!(node, LogicalPlan::Unnest { .. }));
        if has_unnest {
            unnest_refs(plan, &mut Vec::new(), &mut ctx.unnest_refs);
            ctx.collects_bindings =
                !matches!(plan, LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. });
        }

        let (sink, mut producer, layout) = match plan {
            LogicalPlan::Reduce {
                input,
                outputs,
                predicate,
            } => {
                let (mut producer, layout) =
                    self.compile_producer(input, &mut ir, &mut access_paths, &mut ctx)?;
                let sink = self.compile_reduce(
                    outputs,
                    predicate.as_ref(),
                    &mut producer,
                    &layout,
                    &mut ir,
                    &mut ctx,
                )?;
                (sink, producer, layout)
            }
            LogicalPlan::Nest {
                input,
                group_by,
                group_aliases,
                outputs,
                predicate,
            } => {
                let (mut producer, layout) =
                    self.compile_producer(input, &mut ir, &mut access_paths, &mut ctx)?;
                let sink = self.compile_nest(
                    group_by,
                    group_aliases,
                    outputs,
                    predicate.as_ref(),
                    &mut producer,
                    &layout,
                    &mut ir,
                    &mut ctx,
                )?;
                (sink, producer, layout)
            }
            other => {
                let (producer, layout) =
                    self.compile_producer(other, &mut ir, &mut access_paths, &mut ctx)?;
                ir.line(0, "collect bindings into output records");
                ctx.note_all(&layout);
                (Sink::Collect, producer, layout)
            }
        };

        finalize_typed_fills(&mut producer, &ctx.value_refs);

        Ok(CompiledQuery {
            sink,
            producer,
            layout,
            numeric_mode: self.numeric_mode,
            ir: ir.finish(),
            compile_time: started.elapsed(),
            access_paths,
        })
    }

    /// Classifies a sink against the typed slots its producer can serve
    /// (vectorized engines over plain scan/filter spines only), activating
    /// the typed fills the kernel plan reads. Returns the plan plus the
    /// predicate part that stays a closure.
    fn plan_sink_kernel(
        &self,
        outputs: &[ReduceSpec],
        group_by: &[Expr],
        predicate: Option<&Expr>,
        producer: &mut Producer,
        layout: &BindingLayout,
    ) -> Option<kernels::PlannedSink> {
        if !self.vectorized {
            return None;
        }
        let typed_slots = scan_typed_kinds(producer)?;
        let mut planned = kernels::plan_sink(outputs, group_by, predicate, layout, &typed_slots)?;
        planned.kernel.mode = self.numeric_mode;
        try_activate_typed_slots(producer, &planned.used_slots);
        Some(planned)
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_reduce(
        &self,
        outputs: &[ReduceSpec],
        predicate: Option<&Expr>,
        producer: &mut Producer,
        layout: &BindingLayout,
        ir: &mut IrEmitter,
        ctx: &mut PlanCtx,
    ) -> Result<Sink> {
        let planned = self.plan_sink_kernel(outputs, &[], predicate, producer, layout);
        let is_kernel = |i: usize| planned.as_ref().is_some_and(|p| p.kernel.aggs[i].is_some());
        let lane_fold = |i: usize, monoid: Monoid| {
            is_kernel(i)
                && self.numeric_mode == kernels::NumericMode::Relaxed
                && matches!(monoid, Monoid::Sum | Monoid::Avg)
        };
        let mut specs = Vec::with_capacity(outputs.len());
        for (i, output) in outputs.iter().enumerate() {
            let vect_note = if lane_fold(i, output.monoid) {
                "   // vectorized aggregate kernel (relaxed lanes)"
            } else if is_kernel(i) {
                "   // vectorized aggregate kernel"
            } else {
                ""
            };
            ir.line(
                1,
                &format!(
                    "acc_{} := merge_{}({}){vect_note}",
                    output.alias, output.monoid, output.expr
                ),
            );
            // Kernel-classified specs read their inputs from the typed
            // columns; only closure-fallback specs consume `Value` rows.
            if !is_kernel(i) {
                ctx.note_expr(&output.expr, layout);
            }
            specs.push((
                output.monoid,
                compile_expr(&output.expr, layout)?,
                output.alias.clone(),
            ));
        }
        let closure_pred = match &planned {
            Some(p) => p.pred_residual.clone(),
            None => predicate.cloned(),
        };
        let predicate = match (predicate, &closure_pred) {
            (Some(p), residual) => {
                let vect_note = if planned
                    .as_ref()
                    .is_some_and(|p| p.kernel.predicate.is_some())
                {
                    "   // vectorized reduce predicate"
                } else {
                    ""
                };
                ir.line(1, &format!("if (eval({p})) merge accumulators{vect_note}"));
                match residual {
                    Some(residual) => {
                        ctx.note_expr(residual, layout);
                        Some(compile_predicate(residual, layout)?)
                    }
                    None => None,
                }
            }
            (None, _) => None,
        };
        ir.line(0, "return accumulators");
        Ok(Sink::Reduce {
            specs,
            predicate,
            kernel: planned.map(|p| p.kernel),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_nest(
        &self,
        group_by: &[Expr],
        group_aliases: &[String],
        outputs: &[ReduceSpec],
        predicate: Option<&Expr>,
        producer: &mut Producer,
        layout: &BindingLayout,
        ir: &mut IrEmitter,
        ctx: &mut PlanCtx,
    ) -> Result<Sink> {
        let planned = self.plan_sink_kernel(outputs, group_by, predicate, producer, layout);
        let is_kernel = |i: usize| planned.as_ref().is_some_and(|p| p.kernel.aggs[i].is_some());
        // Typed key ingest reads (hashes, compares, materializes) the key
        // components straight from the typed columns; without it the keys
        // are evaluated from hydrated `Value` rows.
        if planned.is_none() {
            for g in group_by {
                ctx.note_expr(g, layout);
            }
        }
        for (i, output) in outputs.iter().enumerate() {
            if !is_kernel(i) {
                ctx.note_expr(&output.expr, layout);
            }
        }
        let closure_pred = match &planned {
            Some(p) => p.pred_residual.clone(),
            None => predicate.cloned(),
        };
        if let Some(p) = &closure_pred {
            ctx.note_expr(p, layout);
        }
        let keys: Vec<CompiledExpr> = group_by
            .iter()
            .map(|g| compile_expr(g, layout))
            .collect::<Result<_>>()?;
        let key_aliases: Vec<String> = group_by
            .iter()
            .enumerate()
            .map(|(i, g)| {
                group_aliases.get(i).cloned().unwrap_or_else(|| match g {
                    Expr::Path(p) => p.leaf().to_string(),
                    _ => format!("key{i}"),
                })
            })
            .collect();
        let mut specs = Vec::with_capacity(outputs.len());
        for output in outputs {
            specs.push((
                output.monoid,
                compile_expr(&output.expr, layout)?,
                output.alias.clone(),
            ));
        }
        ir.line(
            1,
            &format!(
                "group := radix_group(key = [{}]){}",
                group_by
                    .iter()
                    .map(|g| g.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                if planned.is_some() {
                    "   // typed key ingest"
                } else {
                    ""
                }
            ),
        );
        for (i, output) in outputs.iter().enumerate() {
            ir.line(
                1,
                &format!(
                    "group.acc_{} := merge_{}({}){}",
                    output.alias,
                    output.monoid,
                    output.expr,
                    if is_kernel(i)
                        && self.numeric_mode == kernels::NumericMode::Relaxed
                        && matches!(output.monoid, Monoid::Sum | Monoid::Avg)
                    {
                        "   // vectorized aggregate kernel (relaxed lanes)"
                    } else if is_kernel(i) {
                        "   // vectorized aggregate kernel"
                    } else {
                        ""
                    }
                ),
            );
        }
        let predicate = match &closure_pred {
            Some(p) => Some(compile_predicate(p, layout)?),
            None => None,
        };
        ir.line(0, "return one record per group");
        Ok(Sink::Nest {
            keys,
            key_aliases,
            specs,
            predicate,
            kernel: planned.map(|p| p.kernel),
        })
    }

    fn compile_producer(
        &self,
        plan: &LogicalPlan,
        ir: &mut IrEmitter,
        access_paths: &mut Vec<String>,
        ctx: &mut PlanCtx,
    ) -> Result<(Producer, BindingLayout)> {
        match plan {
            LogicalPlan::Scan {
                dataset,
                alias,
                schema,
                projected_fields,
            } => self.compile_scan(dataset, alias, schema, projected_fields, ir, access_paths),
            LogicalPlan::Select { input, predicate } => {
                let (producer, layout) = self.compile_producer(input, ir, access_paths, ctx)?;
                let filter = self.compile_filter(producer, predicate, 1, &layout, ir, ctx)?;
                Ok((filter, layout))
            }
            LogicalPlan::Unnest {
                input,
                path,
                alias,
                predicate,
                outer,
            } => {
                let (producer, mut layout) = self.compile_producer(input, ir, access_paths, ctx)?;
                let header = format!(
                    "for {alias} in unnest({path}) {{   // unnestInit/HasNext/GetNext{}",
                    if *outer { ", outer" } else { "" }
                );
                let typed = self.plan_typed_expand(
                    &producer,
                    &layout,
                    path,
                    alias,
                    *outer && predicate.is_some(),
                    ctx,
                );
                match typed {
                    Ok((collection_slot, expand, leaves)) => {
                        // Typed tier: element leaves are lanes of the
                        // expanded batch, and the element predicate is an
                        // ordinary selection over them — kernel-planned like
                        // any other.
                        ir.line(
                            1,
                            &format!("{header}, typed expand [{}]", leaves.join(", ")),
                        );
                        let parent_names = layout.slots().to_vec();
                        let parent_live = ctx.slots_read_above(alias, &layout);
                        let lanes = leaves
                            .iter()
                            .zip(&expand.kinds)
                            .map(|(leaf, kind)| {
                                let name = lane_name(alias, leaf);
                                ExpandLane {
                                    slot: layout.slot_for(&name),
                                    name,
                                    kind: *kind,
                                    hydrate: false,
                                }
                            })
                            .collect();
                        let mut producer = Producer::Expand {
                            input: Box::new(producer),
                            expand: expand.expand,
                            lanes,
                            collection_slot,
                            outer: *outer,
                            parent_names,
                            parent_typed: Vec::new(),
                            parent_live,
                        };
                        if let Some(p) = predicate {
                            producer = self.compile_filter(producer, p, 2, &layout, ir, ctx)?;
                        }
                        Ok((producer, layout))
                    }
                    Err(why) => {
                        // Closure floor: the collection is read as a `Value`
                        // out of the input row, and each element is bound
                        // whole to the alias slot.
                        ir.line(1, &format!("{header}, closure floor: {why}"));
                        ctx.note_expr(&Expr::Path(path.clone()), &layout);
                        let (collection_slot, collection_path) =
                            layout.resolve(path).ok_or_else(|| {
                                EngineError::Unsupported(format!(
                                    "path {path} is not bound by any slot (layout: {:?})",
                                    layout.slots()
                                ))
                            })?;
                        let parent_names = layout.slots().to_vec();
                        // Reading the collection out of the input row is no
                        // reason to copy it into every output row: only
                        // references from here on up are. The finalize pass
                        // narrows these to the ones read in `Value` form.
                        let parent_live = ctx.slots_read_above(alias, &layout);
                        let slot = layout.slot_for(alias);
                        let predicate = match predicate {
                            Some(p) => {
                                ir.line(2, &format!("if (eval({p})) {{"));
                                ctx.note_expr(p, &layout);
                                Some(compile_predicate(p, &layout)?)
                            }
                            None => None,
                        };
                        Ok((
                            Producer::Unnest {
                                input: Box::new(producer),
                                collection_slot,
                                collection_path,
                                slot,
                                predicate,
                                outer: *outer,
                                parent_names,
                                parent_live,
                            },
                            layout,
                        ))
                    }
                }
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
                kind,
            } => self.compile_join(left, right, predicate, *kind, ir, access_paths, ctx),
            LogicalPlan::Reduce { .. } | LogicalPlan::Nest { .. } => Err(EngineError::Unsupported(
                "aggregation below the plan root is not supported by the generated engine"
                    .to_string(),
            )),
        }
    }

    /// Compiles a selection over `producer`. The predicate planner
    /// classifies the conjunction against the typed slots the producer can
    /// serve: eligible conjuncts become a columnar kernel (and activate the
    /// typed fills they read); the rest stay a compiled closure.
    fn compile_filter(
        &self,
        mut producer: Producer,
        predicate: &Expr,
        indent: usize,
        layout: &BindingLayout,
        ir: &mut IrEmitter,
        ctx: &mut PlanCtx,
    ) -> Result<Producer> {
        let mut kernel = None;
        let mut residual: Option<Expr> = Some(predicate.clone());
        if self.vectorized {
            if let Some(typed_slots) = scan_typed_kinds(&producer) {
                // Conjuncts order by estimated selectivity (from the
                // scan's observed bounds) so the most selective
                // compare packs first and the evaluator's dead-mask
                // exit can retire the rest.
                if let Some(planned) = kernels::plan_predicate_with_stats(
                    predicate,
                    layout,
                    &typed_slots,
                    scan_slot_stats(&producer),
                ) {
                    try_activate_typed_slots(&mut producer, &planned.used_slots);
                    kernel = Some(planned.kernel);
                    residual = planned.residual;
                }
            }
        }
        let vect_note = if kernel.is_some() {
            "   // vectorized columnar kernel"
        } else {
            ""
        };
        ir.line(indent, &format!("if (eval({predicate})) {{{vect_note}"));
        let compiled = match &residual {
            Some(expr) => {
                ctx.note_expr(expr, layout);
                Some(compile_predicate(expr, layout)?)
            }
            None => None,
        };
        Ok(Producer::Filter {
            input: Box::new(producer),
            kernel,
            predicate: compiled,
        })
    }

    /// Decides whether an unnest runs on the typed tier: the scan slot of
    /// its collection, the expand hook of the scanned plug-in and the element
    /// leaves it renders — or why the closure floor has to run instead.
    fn plan_typed_expand(
        &self,
        producer: &Producer,
        layout: &BindingLayout,
        path: &Path,
        alias: &str,
        outer_with_predicate: bool,
        ctx: &PlanCtx,
    ) -> std::result::Result<(usize, proteus_plugins::ExpandAccessors, Vec<String>), String> {
        if !self.vectorized {
            return Err("vectorization is off".into());
        }
        // Parent rows must still be scan rows: the hook addresses a
        // collection by the OID its row stands for.
        let Some(dataset) = plain_scan_dataset(producer) else {
            return Err("the input is not a plain scan".into());
        };
        let collection_slot = match layout.index_of(&path.dotted()) {
            Some(slot) if !path.segments.is_empty() => slot,
            _ => return Err(format!("{path} is not a scan field")),
        };
        if outer_with_predicate {
            return Err("an outer unnest with an embedded predicate".into());
        }
        if ctx.collects_bindings {
            return Err(format!("{alias} is collected whole"));
        }
        let mut leaves: Vec<String> = Vec::new();
        let references = ctx.unnest_refs.get(alias).into_iter().flatten();
        for reference in references.filter(|p| p.base == alias) {
            match reference.segments.as_slice() {
                // The element itself: a lane when the elements are scalars.
                [] => leaves.push(String::new()),
                [leaf] => leaves.push(leaf.clone()),
                _ => return Err(format!("{reference} is not an element leaf")),
            }
        }
        leaves.sort_unstable();
        leaves.dedup();
        if leaves
            .iter()
            .any(|leaf| layout.index_of(&lane_name(alias, leaf)).is_some())
        {
            return Err(format!("{alias} shadows a bound name"));
        }
        let collection = path.segments.join(".");
        let plugin = self.resolve_plugin(dataset).map_err(|e| e.to_string())?;
        match plugin.generate_expand(&collection, &leaves) {
            Some(expand) => Ok((collection_slot, expand, leaves)),
            None => Err(format!(
                "the plug-in offers no typed expand of {collection} for [{}] \
                 (no hook, or tokens no single lane kind holds)",
                leaves
                    .iter()
                    .map(|leaf| lane_name(alias, leaf))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }

    /// Resolves a scanned dataset to its plug-in.
    fn resolve_plugin(&self, dataset: &str) -> Result<Arc<dyn proteus_plugins::InputPlugin>> {
        self.registry
            .get(dataset)
            .ok_or_else(|| EngineError::UnknownDataset(dataset.to_string()))
    }

    fn compile_scan(
        &self,
        dataset: &str,
        alias: &str,
        schema: &proteus_algebra::Schema,
        projected_fields: &[String],
        ir: &mut IrEmitter,
        access_paths: &mut Vec<String>,
    ) -> Result<(Producer, BindingLayout)> {
        // Revision fence of the cache-building side effect: captured before
        // the plug-in is resolved, so a build over data an invalidation has
        // since replaced is refused at registration.
        let revision = self
            .caches
            .as_ref()
            .map(|store| store.dataset_revision(dataset));
        let plugin = self.resolve_plugin(dataset)?;
        let format = plugin.format();
        // The type a field is cached as, if the caching policy caches it.
        let cache_type = |field: &str| {
            let data_type = &plugin.schema().field(field)?.data_type;
            should_cache_field(format, data_type).then(|| data_type.clone())
        };

        // Field-of-interest list: what projection pushdown computed, falling
        // back to the full schema when the plan (or the query) needs it all.
        let fields: Vec<String> = if projected_fields.is_empty() {
            let names = if schema.is_empty() {
                plugin.schema().names()
            } else {
                schema.names()
            };
            names.into_iter().map(|s| s.to_string()).collect()
        } else {
            // Pushdown projects nested leaves as dotted fields (`geo.lat`);
            // only the JSON structural index serves those. Everyone else
            // reads the top-level field whole and the path navigates it —
            // unless the dotted name is itself a column (`sepal.length`).
            let serves_leaves = format == proteus_storage::SourceFormat::Json;
            let mut fields: Vec<String> = Vec::with_capacity(projected_fields.len());
            for field in projected_fields {
                let field = match field.split_once('.') {
                    Some((top, _)) if !serves_leaves && plugin.schema().field(field).is_none() => {
                        top
                    }
                    _ => field.as_str(),
                };
                if !fields.iter().any(|kept| kept == field) {
                    fields.push(field.to_string());
                }
            }
            fields
        };

        let mut layout = BindingLayout::new();
        let mut served_from_cache: Vec<String> = Vec::new();
        let mut fields_from_plugin: Vec<String> = Vec::new();
        let mut slot_of_field: Vec<(String, usize)> = Vec::new();
        // One fill per slot, from a cache entry or from the plug-in.
        let mut field_fills: Vec<(usize, String, FieldFill)> = Vec::new();
        // Tier 0: per-morsel zone maps, keyed by typed slot. The kernel tier
        // is the consumer, so vectorization off implies skipping off.
        let zone_maps_wanted = self.vectorized && self.morsel_skipping;
        let mut zones: Vec<(usize, Arc<ZoneMap>)> = Vec::new();

        for field in &fields {
            let slot = layout.slot_for(&format!("{alias}.{field}"));
            slot_of_field.push((field.clone(), slot));
            // Partial cache reuse ("replacing a part of an operator"): a
            // previous query may have cached this column in binary form, in
            // memory or spilled to disk.
            if let Some(store) = &self.caches {
                let cacheable = cache_type(field).is_some();
                if let Some((entry, index)) =
                    store.lookup_column(dataset, field, plugin.len(), cacheable)
                {
                    // Handles to the entry's own column and to the zone maps
                    // memoized in it: a hit copies and derives nothing.
                    let column = entry.columns()[index].1.clone();
                    field_fills.push((slot, field.clone(), FieldFill::Column(column)));
                    if zone_maps_wanted {
                        let maps = proteus_plugins::cache::entry_zone_maps(&entry);
                        zones.push((slot, maps[index].clone()));
                    }
                    served_from_cache.push(format!("{field} (cache {})", entry.name));
                    continue;
                }
            }
            fields_from_plugin.push(field.clone());
        }

        let mut bad_rows = 0;
        if !fields_from_plugin.is_empty() {
            let scan = plugin.generate(&fields_from_plugin)?;
            access_paths.push(format!("{dataset}: {}", scan.access_path));
            bad_rows = scan.bad_rows;
            for (field, fill) in scan.fields {
                let slot = slot_of_field
                    .iter()
                    .find(|(f, _)| *f == field)
                    .map(|(_, s)| *s)
                    .expect("generated fill for an unrequested field");
                field_fills.push((slot, field, fill));
            }
        } else {
            access_paths.push(format!("{dataset}: fully served from caches"));
        }
        // Lower each fill to its row-major filler and, when the field has a
        // typed form, its (not yet activated) vectorized filler.
        let mut fills: Vec<(usize, BatchFill)> = Vec::with_capacity(field_fills.len());
        let mut typed: Vec<TypedSlotFill> = Vec::new();
        for (slot, field, fill) in field_fills {
            if let Some((kind, typed_fill)) = self.vectorized.then(|| fill.typed()).flatten() {
                typed.push(TypedSlotFill {
                    slot,
                    name: format!("{alias}.{field}"),
                    kind,
                    fill: typed_fill,
                    active: false,
                    hydrate: false,
                });
            }
            fills.push((slot, fill.values()));
        }
        if zone_maps_wanted && !fields_from_plugin.is_empty() {
            // Binary plug-ins answer from their recorded maps; CSV and
            // JSON derive (and memoize) them from their own typed fills, so
            // the bounds agree with the lanes the kernels will compare.
            for (field, zm) in plugin.zone_maps(&fields_from_plugin) {
                if let Some((_, slot)) = slot_of_field.iter().find(|(f, _)| *f == field) {
                    zones.push((*slot, zm));
                }
            }
        }
        // Dataset-level per-slot statistics for the selectivity-ordered
        // predicate planner (compile-time only; dropped at prepare).
        let slot_stats: Vec<(usize, ColumnStats)> = if self.vectorized {
            let stats = plugin.statistics();
            slot_of_field
                .iter()
                .filter_map(|(field, slot)| stats.column(field).map(|cs| (*slot, cs.clone())))
                .collect()
        } else {
            Vec::new()
        };

        // Cache-building side-effect: numeric fields read from verbose
        // sources that are not already cached.
        let cache_builder = match revision {
            Some(revision) => {
                let to_cache: Vec<(String, proteus_algebra::DataType)> = fields_from_plugin
                    .iter()
                    .filter_map(|field| Some((field.clone(), cache_type(field)?)))
                    .collect();
                if to_cache.is_empty() {
                    CacheBuilder::disabled()
                } else {
                    ir.line(
                        1,
                        &format!(
                            "cache[{}] += [{}]   // output plug-in, eager numeric caching",
                            dataset,
                            to_cache
                                .iter()
                                .map(|(n, _)| n.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    );
                    CacheBuilder::new(dataset, format, to_cache, revision)
                }
            }
            None => CacheBuilder::disabled(),
        };
        let cache_field_slots: Vec<usize> = cache_builder
            .field_names()
            .iter()
            .map(|name| {
                slot_of_field
                    .iter()
                    .find(|(f, _)| f == name)
                    .map(|(_, s)| *s)
                    .expect("cached field must have a slot")
            })
            .collect();
        // The cache-building side effect observes every scanned row's Value
        // form before filtering; fields it captures must stay on the
        // row-major fill path.
        typed.retain(|t| !cache_field_slots.contains(&t.slot));

        ir.line(
            0,
            &format!("while (!eof({dataset})) {{   // scan {dataset} as {alias}"),
        );
        for (field, _) in &slot_of_field {
            let origin = if served_from_cache
                .iter()
                .any(|s| s.starts_with(field.as_str()))
            {
                "cache"
            } else {
                "input plug-in"
            };
            ir.line(1, &format!("{alias}.{field} := readValue({origin})"));
        }

        Ok((
            Producer::Scan {
                dataset: dataset.to_string(),
                row_count: plugin.len(),
                fills,
                typed,
                width: layout.len(),
                cache_builder,
                cache_field_slots,
                cache_store: self.caches.clone(),
                zones,
                slot_stats,
                bad_rows,
            },
            layout,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        predicate: &Expr,
        kind: JoinKind,
        ir: &mut IrEmitter,
        access_paths: &mut Vec<String>,
        ctx: &mut PlanCtx,
    ) -> Result<(Producer, BindingLayout)> {
        let (mut build, build_layout) = self.compile_producer(left, ir, access_paths, ctx)?;
        ir.line(0, "materialize + hash-index build side");
        let (mut probe, probe_layout) = self.compile_producer(right, ir, access_paths, ctx)?;

        let mut combined = build_layout.clone();
        let probe_offset = combined.extend_with(&probe_layout);
        let _ = probe_offset;

        // Split the predicate into equi-key pairs and residual conjuncts.
        let mut build_key_exprs: Vec<Expr> = Vec::new();
        let mut probe_key_exprs: Vec<Expr> = Vec::new();
        let mut residual_conjuncts: Vec<Expr> = Vec::new();
        for conjunct in predicate.split_conjunction() {
            if conjunct == Expr::boolean(true) {
                continue;
            }
            if let Expr::Binary {
                op: BinaryOp::Eq,
                left: l,
                right: r,
            } = &conjunct
            {
                if let (Expr::Path(lp), Expr::Path(rp)) = (l.as_ref(), r.as_ref()) {
                    let l_on_build = build_layout.resolve(lp).is_some();
                    let r_on_build = build_layout.resolve(rp).is_some();
                    let l_on_probe = probe_layout.resolve(lp).is_some();
                    let r_on_probe = probe_layout.resolve(rp).is_some();
                    if l_on_build && r_on_probe && !r_on_build {
                        build_key_exprs.push(Expr::Path(lp.clone()));
                        probe_key_exprs.push(Expr::Path(rp.clone()));
                        continue;
                    }
                    if r_on_build && l_on_probe && !l_on_build {
                        build_key_exprs.push(Expr::Path(rp.clone()));
                        probe_key_exprs.push(Expr::Path(lp.clone()));
                        continue;
                    }
                }
            }
            residual_conjuncts.push(conjunct);
        }

        // Key classification, each side on its own: when every key of a side
        // resolves to a typed scan slot, that side hashes/compares its keys
        // straight from the typed columns and its key `Value`s never
        // materialize; otherwise its key closures run and the slots they
        // read are hydrated. (Nested/record-shaped keys stay closures.)
        let build_key_slots = self.join_key_slots(&build_key_exprs, &mut build, &build_layout);
        if build_key_slots.is_none() {
            for key in &build_key_exprs {
                ctx.note_expr(key, &build_layout);
            }
        }
        let probe_key_slots = self.join_key_slots(&probe_key_exprs, &mut probe, &probe_layout);
        if probe_key_slots.is_none() {
            for key in &probe_key_exprs {
                ctx.note_expr(key, &probe_layout);
            }
        }

        let build_keys: Vec<CompiledExpr> = build_key_exprs
            .iter()
            .map(|k| compile_expr(k, &build_layout))
            .collect::<Result<_>>()?;
        let probe_keys: Vec<CompiledExpr> = probe_key_exprs
            .iter()
            .map(|k| compile_expr(k, &probe_layout))
            .collect::<Result<_>>()?;

        let residual = if residual_conjuncts.is_empty() {
            None
        } else {
            let expr = Expr::conjunction(residual_conjuncts);
            // The residual reads join-output rows, so the slots it touches
            // (either side) must be hydrated, stored and copied.
            ctx.note_expr(&expr, &combined);
            Some(compile_predicate(&expr, &combined)?)
        };

        ir.line(
            0,
            &format!(
                "probe radix hash table for each probe-side tuple {{{}",
                if probe_key_slots.is_some() {
                    "   // vectorized probe keys"
                } else {
                    ""
                }
            ),
        );

        Ok((
            Producer::Join {
                build: Box::new(build),
                probe: Box::new(probe),
                build_keys,
                probe_keys,
                build_key_slots,
                probe_key_slots,
                residual,
                build_width: build_layout.len(),
                build_names: build_layout.slots().to_vec(),
                probe_names: probe_layout.slots().to_vec(),
                // Liveness is a whole-plan property: filled by the finalize
                // pass once every downstream `Value` reference is known.
                build_live: Vec::new(),
                probe_live: Vec::new(),
                kind,
            },
            combined,
        ))
    }

    /// Classifies one join side's equi-keys against its scan's typed slots,
    /// activating the typed fills the kernel path reads. `None` when the
    /// side must extract keys through closures.
    fn join_key_slots(
        &self,
        keys: &[Expr],
        producer: &mut Producer,
        layout: &BindingLayout,
    ) -> Option<Vec<usize>> {
        if !self.vectorized || keys.is_empty() {
            return None;
        }
        let typed_slots = scan_typed_kinds(producer)?;
        let slots = kernels::plan_key_slots(keys, layout, &typed_slots)?;
        try_activate_typed_slots(producer, &slots);
        Some(slots)
    }
}

/// The typed slot kinds a producer's batches can carry — a scan's typed
/// fills, seen through filters, plus the element lanes (and, from below, the
/// gatherable parent columns) of a typed unnest — or `None` when the batches
/// carry no typed columns (closure-floor unnest and join outputs are rebuilt
/// row-wise).
fn scan_typed_kinds(producer: &Producer) -> Option<HashMap<usize, TypedKind>> {
    match producer {
        Producer::Scan { typed, .. } => Some(typed.iter().map(|t| (t.slot, t.kind)).collect()),
        Producer::Filter { input, .. } => scan_typed_kinds(input),
        Producer::Expand { input, lanes, .. } => {
            let mut kinds = scan_typed_kinds(input)?;
            kinds.extend(lanes.iter().map(|lane| (lane.slot, lane.kind)));
            Some(kinds)
        }
        _ => None,
    }
}

/// The dataset of an (optionally filter-wrapped) scan — a spine whose batch
/// rows are still the scan's rows — or `None` for anything else.
fn plain_scan_dataset(producer: &Producer) -> Option<&str> {
    match producer {
        Producer::Scan { dataset, .. } => Some(dataset),
        Producer::Filter { input, .. } => plain_scan_dataset(input),
        _ => None,
    }
}

/// The slot name an element leaf of a typed unnest lands in: `i.qty`, or the
/// alias itself for the element lane of a collection of scalars.
fn lane_name(alias: &str, leaf: &str) -> String {
    if leaf.is_empty() {
        alias.to_string()
    } else {
        format!("{alias}.{leaf}")
    }
}

/// The per-slot dataset statistics an (optionally filter-wrapped) scan
/// aggregated from its zone maps; empty for producers without a scan
/// underneath.
fn scan_slot_stats(producer: &Producer) -> &[(usize, ColumnStats)] {
    match producer {
        Producer::Scan { slot_stats, .. } => slot_stats,
        Producer::Filter { input, .. } => scan_slot_stats(input),
        _ => &[],
    }
}

/// Activates the typed fills of the slots a planned kernel or join
/// ingest/gather reads. Recurses through filters to the scan; a typed unnest
/// on the way keeps its own lanes and notes the parent slots it now has to
/// gather as typed columns. Producers with no typed scan underneath
/// (join-output or closure-unnest sides, where activation is an optimization
/// rather than a planning invariant) are left untouched.
fn try_activate_typed_slots(producer: &mut Producer, slots: &[usize]) {
    match producer {
        Producer::Scan { typed, .. } => {
            for t in typed.iter_mut() {
                if slots.contains(&t.slot) {
                    t.active = true;
                }
            }
        }
        Producer::Filter { input, .. } => try_activate_typed_slots(input, slots),
        Producer::Expand {
            input,
            parent_names,
            parent_typed,
            ..
        } => {
            for &slot in slots {
                if slot < parent_names.len() && !parent_typed.contains(&slot) {
                    parent_typed.push(slot);
                }
            }
            try_activate_typed_slots(input, parent_typed);
        }
        _ => {}
    }
}

/// Drops the row-major fill of one scan slot (seen through filters).
fn drop_value_fill(producer: &mut Producer, slot: usize) {
    match producer {
        Producer::Scan { fills, .. } => fills.retain(|(s, _)| *s != slot),
        Producer::Filter { input, .. } => drop_value_fill(input, slot),
        _ => {}
    }
}

/// Post-pass over the finished producer tree, once every downstream `Value`
/// reference is known. Activated typed slots drop their row-major `Value`
/// fills (the data no longer round-trips through `Value` on the scan path)
/// and learn whether anything downstream still needs hydration into `Value`
/// form. Joins learn their *live* slot sets the same way: only build slots
/// someone reads are stored in the build arena, only probe slots someone
/// reads are copied into the join output — everything else stays null and
/// never touches a `Value`. So do both unnests: per element they carry across
/// only the parent slots someone reads.
fn finalize_typed_fills(producer: &mut Producer, value_refs: &HashSet<String>) {
    match producer {
        Producer::Scan { fills, typed, .. } => {
            for t in typed.iter_mut() {
                if t.active {
                    fills.retain(|(slot, _)| *slot != t.slot);
                    t.hydrate = value_refs.contains(&t.name);
                }
            }
        }
        Producer::Filter { input, .. } => finalize_typed_fills(input, value_refs),
        Producer::Unnest {
            input,
            parent_names,
            parent_live,
            ..
        } => {
            parent_live.retain(|slot| value_refs.contains(&parent_names[*slot]));
            finalize_typed_fills(input, value_refs)
        }
        Producer::Expand {
            input,
            lanes,
            collection_slot,
            parent_names,
            parent_typed,
            parent_live,
            ..
        } => {
            for lane in lanes.iter_mut() {
                lane.hydrate = value_refs.contains(&lane.name);
            }
            parent_live.retain(|slot| value_refs.contains(&parent_names[*slot]));
            // The hook reads the collection off the raw data: unless
            // something (above or below) wants it whole, it never becomes a
            // `Value`.
            if !value_refs.contains(&parent_names[*collection_slot]) {
                drop_value_fill(input, *collection_slot);
            }
            for slot in parent_typed.iter() {
                if !parent_live.contains(slot) {
                    parent_live.push(*slot);
                }
            }
            finalize_typed_fills(input, value_refs)
        }
        Producer::Join {
            build,
            probe,
            build_key_slots,
            probe_key_slots,
            build_names,
            probe_names,
            build_live,
            probe_live,
            ..
        } => {
            *build_live = live_slots_of(build_names, value_refs);
            *probe_live = live_slots_of(probe_names, value_refs);
            // On kernel-keyed sides the ingest/gather reads live slots
            // straight from typed columns and full-side hydration is
            // skipped, so only matched rows materialize a `Value` —
            // activate the typed fills those reads come from (slots the
            // scan cannot serve typed keep their row-major fills and are
            // read as rows).
            if build_key_slots.is_some() {
                try_activate_typed_slots(build, build_live);
            }
            if probe_key_slots.is_some() {
                try_activate_typed_slots(probe, probe_live);
            }
            finalize_typed_fills(build, value_refs);
            finalize_typed_fills(probe, value_refs);
        }
    }
}

/// The slot indices of `names` something downstream reads in `Value` form.
fn live_slots_of(names: &[String], value_refs: &HashSet<String>) -> Vec<usize> {
    names
        .iter()
        .enumerate()
        .filter_map(|(slot, name)| value_refs.contains(name).then_some(slot))
        .collect()
}

/// The sink at the root of the generated pipeline.
enum Sink {
    /// ∆ reduce: fold everything into one record.
    Reduce {
        specs: Vec<(Monoid, CompiledExpr, String)>,
        predicate: Option<CompiledPredicate>,
        /// Vectorized sink plan (columnwise aggregate inputs + kernel
        /// predicate mask), when the sink classified kernel-eligible.
        kernel: Option<kernels::SinkKernel>,
    },
    /// Γ nest: radix grouping.
    Nest {
        keys: Vec<CompiledExpr>,
        key_aliases: Vec<String>,
        specs: Vec<(Monoid, CompiledExpr, String)>,
        predicate: Option<CompiledPredicate>,
        /// Vectorized sink plan (typed key ingest + columnwise aggregates).
        kernel: Option<kernels::SinkKernel>,
    },
    /// No aggregation: emit one record per binding.
    Collect,
}

/// The result of executing a compiled query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Output rows (records).
    pub rows: Vec<Value>,
    /// Metrics collected during execution.
    pub metrics: ExecutionMetrics,
}

/// A query compiled into a specialized pipeline.
pub struct CompiledQuery {
    sink: Sink,
    producer: Producer,
    layout: BindingLayout,
    /// The numeric mode the engine was generated under (seeded into every
    /// pipeline worker's scratch at execution time).
    numeric_mode: kernels::NumericMode,
    /// Pseudo-IR of the generated engine (Figure 3 analogue).
    pub ir: String,
    /// Time spent generating the engine.
    pub compile_time: Duration,
    /// The access path each plug-in chose (one entry per scanned dataset).
    pub access_paths: Vec<String>,
}

impl CompiledQuery {
    /// Executes the generated pipeline on the serial path (one worker).
    pub fn execute(self) -> Result<QueryOutput> {
        self.execute_with_parallelism(1)
    }

    /// Executes the generated pipeline with up to `parallelism` morsel
    /// workers (`0` = one worker per available CPU) from the process-wide
    /// pool, with no lifecycle limits. Scans with a pending cache-building
    /// side effect run serially regardless, because cache entries require
    /// in-order OIDs.
    pub fn execute_with_parallelism(self, parallelism: usize) -> Result<QueryOutput> {
        self.execute_with_scheduler(
            parallelism,
            std::sync::Arc::new(crate::exec::QueryContext::disabled()),
            crate::exec::Scheduler::global(),
        )
    }

    /// Executes the generated pipeline under a query lifecycle context on a
    /// worker-pool [`crate::exec::Scheduler`]: the calling thread drives
    /// every pipeline run to completion while idle pool workers steal
    /// bounded morsel slices. Cooperative cancellation, wall-clock deadline
    /// and memory budget are all observed at morsel boundaries, worker
    /// panics are contained, and a failing query reports the *first*
    /// structured error. A timed-out query's
    /// [`crate::EngineError::DeadlineExceeded`] carries the metrics of the
    /// work that completed before the deadline fired. Admission is the
    /// *caller's* job (the engine admits once per query before calling
    /// this) — this method only provisions workers.
    pub fn execute_with_scheduler(
        self,
        parallelism: usize,
        ctx: std::sync::Arc<crate::exec::QueryContext>,
        scheduler: std::sync::Arc<crate::exec::Scheduler>,
    ) -> Result<QueryOutput> {
        let started = Instant::now();
        let compile_time = self.compile_time;
        let mut result = self.dispatch(parallelism, ctx, scheduler);
        match &mut result {
            Ok(output) => {
                output.metrics.compile_time = compile_time;
                output.metrics.exec_time = started.elapsed();
            }
            Err(crate::EngineError::DeadlineExceeded { partial, .. }) => {
                partial.compile_time = compile_time;
                partial.exec_time = started.elapsed();
            }
            Err(_) => {}
        }
        result
    }

    /// Sink dispatch: runs the pipeline into its sink shape. On failure the
    /// partial metrics are folded into errors that carry them.
    fn dispatch(
        self,
        parallelism: usize,
        ctx: std::sync::Arc<crate::exec::QueryContext>,
        scheduler: std::sync::Arc<crate::exec::Scheduler>,
    ) -> Result<QueryOutput> {
        let env = crate::exec::pipeline::ExecEnv {
            threads: resolve_parallelism(parallelism),
            mode: self.numeric_mode,
            ctx,
            scheduler,
        };
        let mut metrics = ExecutionMetrics::new();
        let patch_partial = |err: crate::EngineError, metrics: ExecutionMetrics| match err {
            crate::EngineError::DeadlineExceeded { timeout_ms, .. } => {
                crate::EngineError::DeadlineExceeded {
                    timeout_ms,
                    partial: Box::new(metrics),
                }
            }
            other => other,
        };
        let rows = match self.sink {
            Sink::Reduce {
                specs,
                predicate,
                kernel,
            } => {
                let exec_specs: Vec<(Monoid, CompiledExpr)> =
                    specs.iter().map(|(m, e, _)| (*m, e.clone())).collect();
                let accumulators = match run_reduce(
                    self.producer,
                    exec_specs,
                    predicate,
                    kernel,
                    &env,
                    &mut metrics,
                ) {
                    Ok(accumulators) => accumulators,
                    Err(err) => return Err(patch_partial(err, metrics)),
                };
                let mut record = Record::empty();
                for ((monoid, _, alias), acc) in specs.iter().zip(accumulators) {
                    record.set(alias.clone(), acc.finish(*monoid));
                }
                vec![Value::Record(record)]
            }
            Sink::Nest {
                keys,
                key_aliases,
                specs,
                predicate,
                kernel,
            } => {
                let monoids: Vec<Monoid> = specs.iter().map(|(m, _, _)| *m).collect();
                let value_exprs: Vec<CompiledExpr> =
                    specs.iter().map(|(_, e, _)| e.clone()).collect();
                let table = match run_nest(
                    self.producer,
                    keys,
                    monoids,
                    value_exprs,
                    predicate,
                    kernel,
                    &env,
                    &mut metrics,
                ) {
                    Ok(table) => table,
                    Err(err) => return Err(patch_partial(err, metrics)),
                };
                metrics.intermediate_tuples += table.group_count() as u64;
                // Resolve the output record's shape once: key aliases then
                // spec aliases, a repeated name keeping its first position
                // and its last writer (`Record::set` semantics).
                #[derive(Clone, Copy)]
                enum Source {
                    Key(usize),
                    Output(usize),
                }
                let mut fields: Vec<(&String, Source)> = Vec::new();
                let sources = (0..key_aliases.len())
                    .map(Source::Key)
                    .chain((0..specs.len()).map(Source::Output));
                let names = key_aliases.iter().chain(specs.iter().map(|(_, _, a)| a));
                for (name, source) in names.zip(sources) {
                    match fields.iter_mut().find(|(n, _)| *n == name) {
                        Some(field) => field.1 = source,
                        None => fields.push((name, source)),
                    }
                }
                // Records are built straight from the table's arenas.
                table.into_rows(|key, outputs| {
                    Value::Record(Record::new(
                        fields
                            .iter()
                            .map(|(name, source)| {
                                let value = match *source {
                                    Source::Key(i) => &mut key[i],
                                    Source::Output(j) => &mut outputs[j],
                                };
                                ((*name).clone(), std::mem::replace(value, Value::Null))
                            })
                            .collect(),
                    ))
                })
            }
            Sink::Collect => {
                let slots: Vec<String> = self.layout.slots().to_vec();
                let bindings = match run_collect(self.producer, &env, &mut metrics) {
                    Ok(bindings) => bindings,
                    Err(err) => return Err(patch_partial(err, metrics)),
                };
                bindings
                    .into_iter()
                    .map(|binding| {
                        let mut record = Record::empty();
                        for (slot, value) in slots.iter().zip(binding) {
                            record.set(slot.clone(), value);
                        }
                        Value::Record(record)
                    })
                    .collect()
            }
        };
        metrics.tuples_output = rows.len() as u64;
        Ok(QueryOutput { rows, metrics })
    }
}

/// Resolves a parallelism knob: `0` means one worker per available CPU
/// (overridable with `PROTEUS_THREADS`), anything else is taken literally.
pub fn resolve_parallelism(parallelism: usize) -> usize {
    if parallelism > 0 {
        return parallelism;
    }
    if let Ok(forced) = std::env::var("PROTEUS_THREADS") {
        if let Ok(n) = forced.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Emits the human-readable pseudo-IR of the generated engine.
struct IrEmitter {
    lines: Vec<String>,
}

impl IrEmitter {
    fn new() -> IrEmitter {
        IrEmitter { lines: Vec::new() }
    }

    fn line(&mut self, indent: usize, text: &str) {
        self.lines.push(format!("{}{}", "  ".repeat(indent), text));
    }

    fn finish(self) -> String {
        self.lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proteus_algebra::{Path, Schema};
    use proteus_plugins::binary::ColumnPlugin;
    use proteus_plugins::json::JsonPlugin;
    use proteus_storage::{ColumnData, MemoryManager};

    fn registry() -> PluginRegistry {
        let registry = PluginRegistry::new();
        registry.register(Arc::new(
            ColumnPlugin::from_pairs(
                "lineitem",
                vec![
                    (
                        "l_orderkey".to_string(),
                        ColumnData::Int((0..1000).map(|i| i % 200).collect()),
                    ),
                    (
                        "l_linenumber".to_string(),
                        ColumnData::Int((0..1000).map(|i| i % 7).collect()),
                    ),
                    (
                        "l_quantity".to_string(),
                        ColumnData::Float((0..1000).map(|i| (i % 50) as f64).collect()),
                    ),
                ],
            )
            .unwrap(),
        ));
        registry.register(Arc::new(
            ColumnPlugin::from_pairs(
                "orders",
                vec![
                    (
                        "o_orderkey".to_string(),
                        ColumnData::Int((0..200).collect()),
                    ),
                    (
                        "o_totalprice".to_string(),
                        ColumnData::Float((0..200).map(|i| i as f64 * 10.0).collect()),
                    ),
                ],
            )
            .unwrap(),
        ));
        let mut json = String::new();
        for i in 0..50 {
            json.push_str(&format!(
                "{{\"id\": {i}, \"tags\": [{}]}}\n",
                (0..(i % 4))
                    .map(|t| format!("{{\"v\": {t}}}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        registry.register(Arc::new(
            JsonPlugin::from_bytes("events", Bytes::from(json)).unwrap(),
        ));
        registry
    }

    fn scan(name: &str, alias: &str) -> LogicalPlan {
        LogicalPlan::scan(name, alias, Schema::empty())
    }

    fn count(plan: LogicalPlan) -> LogicalPlan {
        plan.reduce(vec![ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt")])
    }

    fn run(plan: &LogicalPlan) -> QueryOutput {
        let compiler = Compiler::new(registry(), None);
        compiler.compile(plan).unwrap().execute().unwrap()
    }

    fn scalar(output: &QueryOutput, field: &str) -> Value {
        output.rows[0]
            .as_record()
            .unwrap()
            .get(field)
            .unwrap()
            .clone()
    }

    /// A multi-morsel `execute_with_parallelism(4)` ran on the pool: four
    /// workers allowed, and between one (the submitter drained the queue
    /// before a helper woke) and four distinct workers claimed morsels.
    fn assert_ran_on_the_pool(metrics: &ExecutionMetrics, what: &str) {
        assert_eq!(metrics.threads_used, 4, "{what}: worker cap");
        assert!(
            (1..=metrics.threads_used).contains(&metrics.workers_touched),
            "{what}: workers_touched = {}",
            metrics.workers_touched
        );
    }

    #[test]
    fn filtered_count_matches_expectation() {
        let plan =
            count(scan("lineitem", "l").select(Expr::path("l.l_orderkey").lt(Expr::int(100))));
        let out = run(&proteus_algebra::rewrite::rewrite(plan));
        assert_eq!(scalar(&out, "cnt"), Value::Int(500));
        assert_eq!(out.metrics.tuples_scanned, 1000);
        assert_eq!(out.metrics.predicate_evals, 1000);
    }

    #[test]
    fn multiple_aggregates_in_one_pass() {
        let plan = scan("lineitem", "l")
            .select(Expr::path("l.l_orderkey").lt(Expr::int(100)))
            .reduce(vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Max, Expr::path("l.l_quantity"), "maxq"),
                ReduceSpec::new(Monoid::Sum, Expr::path("l.l_quantity"), "sumq"),
            ]);
        let out = run(&proteus_algebra::rewrite::rewrite(plan));
        assert_eq!(scalar(&out, "cnt"), Value::Int(500));
        assert_eq!(scalar(&out, "maxq"), Value::Float(49.0));
    }

    #[test]
    fn join_count_matches_reference_interpreter() {
        let plan = count(
            scan("orders", "o")
                .join(
                    scan("lineitem", "l"),
                    Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                    JoinKind::Inner,
                )
                .select(Expr::path("o.o_totalprice").lt(Expr::int(500))),
        );
        let rewritten = proteus_algebra::rewrite::rewrite(plan.clone());
        let out = run(&rewritten);
        // Reference answer through the algebra interpreter.
        let mut catalog = proteus_algebra::interp::MemoryCatalog::new();
        catalog.register(
            "orders",
            (0..200)
                .map(|i| {
                    Value::record(vec![
                        ("o_orderkey", Value::Int(i)),
                        ("o_totalprice", Value::Float(i as f64 * 10.0)),
                    ])
                })
                .collect(),
        );
        catalog.register(
            "lineitem",
            (0..1000)
                .map(|i| {
                    Value::record(vec![
                        ("l_orderkey", Value::Int(i % 200)),
                        ("l_linenumber", Value::Int(i % 7)),
                        ("l_quantity", Value::Float((i % 50) as f64)),
                    ])
                })
                .collect(),
        );
        let expected = proteus_algebra::interp::execute(&plan, &catalog).unwrap();
        assert_eq!(
            scalar(&out, "cnt"),
            expected[0].as_record().unwrap().get("cnt").unwrap().clone()
        );
        assert!(out.metrics.hash_probes > 0);
        assert!(out.metrics.intermediate_tuples > 0);
    }

    #[test]
    fn group_by_produces_one_row_per_group() {
        let plan = scan("lineitem", "l").nest(
            vec![Expr::path("l.l_linenumber")],
            vec!["line".into()],
            vec![
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ReduceSpec::new(Monoid::Sum, Expr::path("l.l_quantity"), "total"),
            ],
        );
        let out = run(&proteus_algebra::rewrite::rewrite(plan));
        assert_eq!(out.rows.len(), 7);
        let total: i64 = out
            .rows
            .iter()
            .map(|r| r.as_record().unwrap().get("cnt").unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn unnest_over_json_counts_nested_elements() {
        let plan = count(scan("events", "e").unnest(Path::parse("e.tags"), "t"));
        let out = run(&proteus_algebra::rewrite::rewrite(plan));
        // Each event i has i % 4 tags: sum over 50 events.
        let expected: i64 = (0..50).map(|i| i % 4).sum();
        assert_eq!(scalar(&out, "cnt"), Value::Int(expected));
    }

    #[test]
    fn unnest_with_predicate_on_element() {
        let plan = count(
            scan("events", "e")
                .unnest(Path::parse("e.tags"), "t")
                .select(Expr::path("t.v").gt(Expr::int(0))),
        );
        let out = run(&proteus_algebra::rewrite::rewrite(plan));
        let expected: i64 = (0..50)
            .map(|i| (0..(i % 4)).filter(|t| *t > 0).count() as i64)
            .sum();
        assert_eq!(scalar(&out, "cnt"), Value::Int(expected));
    }

    #[test]
    fn ir_contains_scan_loop_and_predicate() {
        let compiler = Compiler::new(registry(), None);
        let plan = proteus_algebra::rewrite::rewrite(count(
            scan("lineitem", "l").select(Expr::path("l.l_orderkey").lt(Expr::int(10))),
        ));
        let compiled = compiler.compile(&plan).unwrap();
        assert!(compiled.ir.contains("while (!eof(lineitem))"));
        assert!(compiled.ir.contains("if (eval((l.l_orderkey < 10)))"));
        assert!(compiled.ir.contains("acc_cnt"));
        assert!(compiled.compile_time < Duration::from_millis(50));
        assert!(!compiled.access_paths.is_empty());
    }

    #[test]
    fn unknown_dataset_fails_at_compile_time() {
        let compiler = Compiler::new(registry(), None);
        let plan = count(scan("ghost", "g"));
        assert!(matches!(
            compiler.compile(&plan),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    /// Registers `measurements`, a 100-row CSV — a verbose source, so the
    /// caching policy applies (binary data is not cached).
    fn register_measurements(registry: &PluginRegistry) {
        let csv: String = (0..100)
            .map(|i| format!("{i}|{}\n", i as f64 + 0.25))
            .collect();
        registry.register(Arc::new(
            proteus_plugins::csv::CsvPlugin::from_bytes(
                "measurements",
                Bytes::from(csv),
                Schema::from_pairs(vec![
                    ("id", proteus_algebra::DataType::Int),
                    ("reading", proteus_algebra::DataType::Float),
                ]),
                proteus_plugins::csv::CsvOptions::default(),
            )
            .unwrap(),
        ));
    }

    #[test]
    fn caching_side_effect_populates_store_and_is_reused() {
        let store = CacheStore::new(MemoryManager::with_budget(64 << 20));
        let registry = registry();
        register_measurements(&registry);
        let compiler = Compiler::new(registry, Some(store.clone()));
        let plan = proteus_algebra::rewrite::rewrite(count(
            scan("measurements", "m").select(Expr::path("m.reading").gt(Expr::float(50.0))),
        ));
        let first = compiler.compile(&plan).unwrap().execute().unwrap();
        assert!(first.metrics.cached_values > 0);
        assert_eq!(store.stats().entries, 1);

        // Second compilation serves the field from the cache.
        let second = compiler.compile(&plan).unwrap();
        assert!(second
            .access_paths
            .iter()
            .any(|p| p.contains("cache") || p.contains("fully served")));
        let out = second.execute().unwrap();
        assert_eq!(
            out.rows[0].as_record().unwrap().get("cnt"),
            first.rows[0].as_record().unwrap().get("cnt")
        );
    }

    #[test]
    fn warm_compiles_borrow_the_entrys_column_and_zone_map() {
        fn scan_zones(producer: &Producer) -> &[(usize, Arc<ZoneMap>)] {
            match producer {
                Producer::Scan { zones, .. } => zones,
                Producer::Filter { input, .. } => scan_zones(input),
                _ => &[],
            }
        }
        let store = CacheStore::new(MemoryManager::with_budget(64 << 20));
        let registry = registry();
        register_measurements(&registry);
        let compiler = Compiler::new(registry, Some(store.clone()));
        let plan = proteus_algebra::rewrite::rewrite(count(
            scan("measurements", "m").select(Expr::path("m.reading").gt(Expr::float(50.0))),
        ));
        let uncached = compiler.compile(&plan).unwrap().execute().unwrap();
        let entry = store.caches_for_dataset("measurements").remove(0);
        let column = entry.column("reading").unwrap();
        assert_eq!(Arc::strong_count(column), 1);
        assert_eq!(entry.hits(), 0);

        // Each warm compile holds handles to the store's allocation (one
        // per fill it generated), not copies, and counts one hit.
        let first = compiler.compile(&plan).unwrap();
        let held_by_one = Arc::strong_count(column) - 1;
        assert!(held_by_one >= 1);
        let second = compiler.compile(&plan).unwrap();
        assert_eq!(Arc::strong_count(column), 1 + 2 * held_by_one);
        assert_eq!(entry.hits(), 2);

        // Both read the one zone map memoized in the entry.
        let memoized = proteus_plugins::cache::entry_zone_maps(&entry);
        for compiled in [&first, &second] {
            let zones = scan_zones(&compiled.producer);
            assert_eq!(zones.len(), 1);
            assert!(Arc::ptr_eq(&zones[0].1, &memoized[0]));
        }

        // Dropping a compiled query — by running it or not — lets go.
        drop(first);
        assert_eq!(Arc::strong_count(column), 1 + held_by_one);
        let warm = second.execute().unwrap();
        assert_eq!(Arc::strong_count(column), 1);
        assert_eq!(warm.rows, uncached.rows);
    }

    #[test]
    fn parallel_execution_matches_serial_across_shapes() {
        let compiler = Compiler::new(registry(), None);
        let plans = vec![
            count(scan("lineitem", "l").select(Expr::path("l.l_orderkey").lt(Expr::int(100)))),
            scan("lineitem", "l").nest(
                vec![Expr::path("l.l_linenumber")],
                vec!["line".into()],
                vec![
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ReduceSpec::new(Monoid::Max, Expr::path("l.l_quantity"), "maxq"),
                ],
            ),
            count(
                scan("orders", "o")
                    .join(
                        scan("lineitem", "l"),
                        Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                        JoinKind::Inner,
                    )
                    .select(Expr::path("o.o_totalprice").lt(Expr::int(500))),
            ),
            count(scan("events", "e").unnest(Path::parse("e.tags"), "t")),
            scan("orders", "o").select(Expr::path("o.o_orderkey").lt(Expr::int(10))),
        ];
        for plan in plans {
            let plan = proteus_algebra::rewrite::rewrite(plan);
            let serial = compiler.compile(&plan).unwrap().execute().unwrap();
            let parallel = compiler
                .compile(&plan)
                .unwrap()
                .execute_with_parallelism(4)
                .unwrap();
            // Integer-only aggregates and morsel-ordered collects are exact.
            // (These datasets fit in one morsel, so the worker cap clamps to
            // one and the run is never offered to the pool; multi-worker
            // execution is covered below.)
            assert_eq!(serial.rows, parallel.rows, "plan {plan:?}");
            assert_eq!(parallel.metrics.threads_used, 1);
            assert_eq!(parallel.metrics.workers_touched, 1);
            assert_eq!(
                serial.metrics.tuples_scanned,
                parallel.metrics.tuples_scanned
            );
        }
    }

    #[test]
    fn multi_morsel_plans_really_run_on_multiple_workers() {
        // > 4 morsels of data so execute_with_parallelism(4) genuinely offers
        // the run to three pool helpers (threads are clamped to the morsel
        // count).
        let rows = 8 * crate::exec::MORSEL_SIZE as i64;
        let registry = PluginRegistry::new();
        registry.register(Arc::new(
            proteus_plugins::binary::ColumnPlugin::from_pairs(
                "big",
                vec![
                    (
                        "key".to_string(),
                        ColumnData::Int((0..rows).map(|i| i % 500).collect()),
                    ),
                    (
                        "bucket".to_string(),
                        ColumnData::Int((0..rows).map(|i| i % 13).collect()),
                    ),
                ],
            )
            .unwrap(),
        ));
        let compiler = Compiler::new(registry, None);
        let plans = vec![
            count(scan("big", "b").select(Expr::path("b.key").lt(Expr::int(250)))),
            scan("big", "b").nest(
                vec![Expr::path("b.bucket")],
                vec!["bucket".into()],
                vec![
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ReduceSpec::new(Monoid::Sum, Expr::path("b.key"), "total"),
                ],
            ),
        ];
        for plan in plans {
            let plan = proteus_algebra::rewrite::rewrite(plan);
            let serial = compiler.compile(&plan).unwrap().execute().unwrap();
            let parallel = compiler
                .compile(&plan)
                .unwrap()
                .execute_with_parallelism(4)
                .unwrap();
            assert_eq!(serial.metrics.threads_used, 1);
            assert_eq!(serial.metrics.workers_touched, 1);
            assert_ran_on_the_pool(&parallel.metrics, "parallel run");
            assert!(parallel.metrics.morsels >= 8);
            assert_eq!(serial.rows, parallel.rows, "plan {plan:?}");
        }
    }

    #[test]
    fn collection_reduce_sinks_fan_out_in_scan_order() {
        // List/bag/set reduce folds are order-sensitive; the parallel path
        // restores scan order with morsel-tagged elements, so fanning out
        // must produce the exact serial element order.
        let rows = 4 * crate::exec::MORSEL_SIZE as i64;
        let registry = PluginRegistry::new();
        registry.register(Arc::new(
            proteus_plugins::binary::ColumnPlugin::from_pairs(
                "seq",
                vec![("v".to_string(), ColumnData::Int((0..rows).collect()))],
            )
            .unwrap(),
        ));
        let compiler = Compiler::new(registry, None);
        for monoid in [Monoid::List, Monoid::Bag, Monoid::Set] {
            let plan = proteus_algebra::rewrite::rewrite(
                scan("seq", "s").reduce(vec![ReduceSpec::new(monoid, Expr::path("s.v"), "all")]),
            );
            let serial = compiler.compile(&plan).unwrap().execute().unwrap();
            let parallel = compiler
                .compile(&plan)
                .unwrap()
                .execute_with_parallelism(4)
                .unwrap();
            assert_ran_on_the_pool(&parallel.metrics, &format!("{monoid} reduce"));
            // Element order is preserved exactly.
            assert_eq!(serial.rows, parallel.rows, "{monoid}");
        }
    }

    #[test]
    fn collection_nest_sinks_run_parallel_in_order() {
        // Grouped list folds carry per-element morsel tags inside every
        // group accumulator, so the parallel merge reproduces the serial
        // element order exactly — no serial pin.
        let rows = 4 * crate::exec::MORSEL_SIZE as i64;
        let registry = PluginRegistry::new();
        registry.register(Arc::new(
            proteus_plugins::binary::ColumnPlugin::from_pairs(
                "seq",
                vec![
                    (
                        "g".to_string(),
                        ColumnData::Int((0..rows).map(|i| i % 3).collect()),
                    ),
                    ("v".to_string(), ColumnData::Int((0..rows).collect())),
                ],
            )
            .unwrap(),
        ));
        let compiler = Compiler::new(registry, None);
        let plan = proteus_algebra::rewrite::rewrite(scan("seq", "s").nest(
            vec![Expr::path("s.g")],
            vec!["g".into()],
            vec![ReduceSpec::new(Monoid::List, Expr::path("s.v"), "all")],
        ));
        let serial = compiler.compile(&plan).unwrap().execute().unwrap();
        let parallel = compiler
            .compile(&plan)
            .unwrap()
            .execute_with_parallelism(4)
            .unwrap();
        assert_ran_on_the_pool(&parallel.metrics, "list nest");
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn fully_kernel_aggregates_never_fold_through_closures() {
        // `SELECT SUM(q), COUNT(*) WHERE k < 100`: predicate, aggregate
        // inputs and the count all classify, so no spec ever folds through
        // `Accumulator::merge` closures and no per-tuple Value/Binding is
        // materialized.
        let compiler = Compiler::new(registry(), None);
        let plan = proteus_algebra::rewrite::rewrite(
            scan("lineitem", "l")
                .select(Expr::path("l.l_orderkey").lt(Expr::int(100)))
                .reduce(vec![
                    ReduceSpec::new(Monoid::Sum, Expr::path("l.l_quantity"), "total"),
                    ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                ]),
        );
        let compiled = compiler.compile(&plan).unwrap();
        assert!(compiled.ir.contains("vectorized aggregate kernel"));
        let out = compiled.execute().unwrap();
        assert_eq!(scalar(&out, "cnt"), Value::Int(500));
        // 500 surviving rows × 2 kernel specs; zero closure folds.
        assert_eq!(out.metrics.agg_kernel_rows, 1000);
        assert_eq!(out.metrics.agg_fallback_rows, 0);
        assert_eq!(out.metrics.binding_allocs, 0);

        // The closure engine folds the same rows through merge closures.
        let closures = Compiler::new(registry(), None).with_vectorization(false);
        let out = closures.compile(&plan).unwrap().execute().unwrap();
        assert_eq!(out.metrics.agg_kernel_rows, 0);
        assert_eq!(out.metrics.agg_fallback_rows, 1000);
    }

    #[test]
    fn fully_kernel_group_by_ingests_typed_keys() {
        // `SELECT line, SUM(q), COUNT(*) GROUP BY line WHERE k < 100`: the
        // key is hashed straight from the typed column and both aggregates
        // fold columnwise — the closure fold count stays zero.
        let compiler = Compiler::new(registry(), None);
        let plan = proteus_algebra::rewrite::rewrite(
            scan("lineitem", "l")
                .select(Expr::path("l.l_orderkey").lt(Expr::int(100)))
                .nest(
                    vec![Expr::path("l.l_linenumber")],
                    vec!["line".into()],
                    vec![
                        ReduceSpec::new(Monoid::Sum, Expr::path("l.l_quantity"), "total"),
                        ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
                    ],
                ),
        );
        let compiled = compiler.compile(&plan).unwrap();
        assert!(compiled.ir.contains("typed key ingest"));
        let out = compiled.execute().unwrap();
        assert_eq!(out.rows.len(), 7);
        assert_eq!(out.metrics.agg_kernel_rows, 1000);
        assert_eq!(out.metrics.agg_fallback_rows, 0);
        assert_eq!(out.metrics.binding_allocs, 0);
        let total: i64 = out
            .rows
            .iter()
            .map(|r| r.as_record().unwrap().get("cnt").unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn reduce_predicate_folds_into_the_kernel_mask() {
        // A kernel-eligible reduce-level predicate masks without closures.
        let compiler = Compiler::new(registry(), None);
        let plan = LogicalPlan::Reduce {
            input: Box::new(scan("lineitem", "l")),
            outputs: vec![
                ReduceSpec::new(Monoid::Sum, Expr::path("l.l_quantity"), "total"),
                ReduceSpec::new(Monoid::Count, Expr::int(1), "cnt"),
            ],
            predicate: Some(Expr::path("l.l_orderkey").lt(Expr::int(100))),
        };
        let out = compiler.compile(&plan).unwrap().execute().unwrap();
        assert_eq!(scalar(&out, "cnt"), Value::Int(500));
        assert_eq!(out.metrics.agg_kernel_rows, 1000);
        assert_eq!(out.metrics.agg_fallback_rows, 0);

        // Closure reference agrees.
        let closures = Compiler::new(registry(), None).with_vectorization(false);
        let reference = closures.compile(&plan).unwrap().execute().unwrap();
        assert_eq!(out.rows, reference.rows);
    }

    #[test]
    fn fully_kernel_join_probes_typed_keys() {
        // `COUNT(*)` over orders ⋈ lineitem: both sides' keys resolve to
        // typed slots, so build ingest and probe hash/compare straight from
        // the typed columns — no per-tuple `Value` key, no per-entry
        // `Vec<Value>` binding, and (count reads nothing) no slot is ever
        // hydrated or copied into the join output.
        let compiler = Compiler::new(registry(), None);
        let plan = proteus_algebra::rewrite::rewrite(count(
            scan("orders", "o")
                .join(
                    scan("lineitem", "l"),
                    Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                    JoinKind::Inner,
                )
                .select(Expr::path("o.o_totalprice").lt(Expr::int(500))),
        ));
        let compiled = compiler.compile(&plan).unwrap();
        assert!(compiled.ir.contains("vectorized probe keys"));
        let out = compiled.execute().unwrap();
        assert!(out.metrics.join_kernel_rows > 0, "{}", out.metrics);
        assert_eq!(out.metrics.join_fallback_rows, 0, "{}", out.metrics);
        assert_eq!(out.metrics.binding_allocs, 0, "{}", out.metrics);

        // The closure engine extracts every key through compiled closures
        // and must agree bit for bit.
        let closures = Compiler::new(registry(), None).with_vectorization(false);
        let reference = closures.compile(&plan).unwrap().execute().unwrap();
        assert_eq!(out.rows, reference.rows);
        assert_eq!(reference.metrics.join_kernel_rows, 0);
        assert!(reference.metrics.join_fallback_rows > 0);
        // The columnar build store removed the per-entry binding allocation
        // from the closure path too.
        assert_eq!(reference.metrics.binding_allocs, 0);
    }

    #[test]
    fn join_copies_only_live_slots_into_the_output() {
        // A sum over one probe column: only that column (plus nothing from
        // the build side) is live, so the probe gather touches exactly one
        // slot per match — and the result still matches the closure engine.
        let compiler = Compiler::new(registry(), None);
        let plan = proteus_algebra::rewrite::rewrite(
            scan("orders", "o")
                .join(
                    scan("lineitem", "l"),
                    Expr::path("o.o_orderkey").eq(Expr::path("l.l_orderkey")),
                    JoinKind::Inner,
                )
                .reduce(vec![ReduceSpec::new(
                    Monoid::Sum,
                    Expr::path("l.l_quantity"),
                    "total",
                )]),
        );
        let out = compiler.compile(&plan).unwrap().execute().unwrap();
        let closures = Compiler::new(registry(), None).with_vectorization(false);
        let reference = closures.compile(&plan).unwrap().execute().unwrap();
        assert_eq!(out.rows, reference.rows);
        assert!(out.metrics.join_kernel_rows > 0);
        assert_eq!(out.metrics.join_fallback_rows, 0);
    }

    #[test]
    fn steady_state_scan_path_makes_no_per_tuple_allocations() {
        // Selection + reduce over 1000 rows: the batch buffers allocate once
        // (first morsel) and are recycled afterwards; no per-tuple Binding is
        // ever materialized.
        let plan = proteus_algebra::rewrite::rewrite(count(
            scan("lineitem", "l").select(Expr::path("l.l_orderkey").lt(Expr::int(100))),
        ));
        let compiler = Compiler::new(registry(), None);
        let out = compiler.compile(&plan).unwrap().execute().unwrap();
        assert!(out.metrics.morsels > 0);
        assert_eq!(
            out.metrics.binding_allocs, 0,
            "scan path materialized per-tuple bindings"
        );
        // The batch buffers stabilize: first morsel allocates, the rest recycle.
        assert!(out.metrics.batch_grows <= 4);
        assert!(out.metrics.batch_grows < out.metrics.tuples_scanned / 100);
    }

    #[test]
    fn collect_sink_emits_binding_records() {
        let plan = scan("orders", "o").select(Expr::path("o.o_orderkey").lt(Expr::int(3)));
        let out = run(&proteus_algebra::rewrite::rewrite(plan));
        assert_eq!(out.rows.len(), 3);
        assert!(out.rows[0]
            .as_record()
            .unwrap()
            .get("o.o_orderkey")
            .is_some());
    }
}
