//! Runtime building blocks of the generated query pipelines.
//!
//! A reading-order map of the whole execution architecture — the five tiers
//! (zone-map skipping → closure interpreter → morsel pipelines → typed
//! kernels → typed sinks/joins/unnests), the kernel ≡ closure bit-exactness
//! contract, and the per-operator eligibility/fallback rules — lives in
//! `ARCHITECTURE.md` at the repository root. This module doc covers the
//! same ground closer to the code.
//!
//! # Bindings and layouts
//!
//! The generated engine works over *positional bindings*: a binding is a flat
//! sequence of values whose slots are assigned at compile time (one slot per
//! scanned field / unnest variable), so the per-tuple path performs direct
//! index accesses — never name lookups or schema checks. These bindings are
//! the reproduction of the paper's "virtual memory buffers" that the LLVM
//! compiler promotes to registers.
//!
//! # Morsel/batch execution model
//!
//! Since the batched-execution rework, the pipelines are **batch-at-a-time
//! and morsel-parallel** rather than tuple-at-a-time:
//!
//! * A scan partitions its OID range into morsels of
//!   [`batch::MORSEL_SIZE`] tuples. Each morsel is rendered by the input
//!   plug-ins' *batch fillers* into a reusable [`batch::BindingBatch`] — a
//!   row-major `rows × width` buffer plus a selection vector. One indirect
//!   call per (field, morsel) replaces one per (field, tuple), and the
//!   buffers are recycled across morsels, so the steady-state scan path
//!   performs **zero per-tuple heap allocations**
//!   (`ExecutionMetrics::binding_allocs` stays 0; buffer growth is tracked
//!   separately in `batch_grows` and is O(pipeline depth), not O(tuples)).
//! * Selections only shrink the selection vector in place; unnests and join
//!   probes expand into a second recycled batch (ping-pong buffering, two
//!   batches per worker).
//! * Join build sides are materialized once into a shared radix hash table
//!   ([`radix::RadixHashTable`]); probe morsels then stream against it from
//!   every worker. Left-outer joins track per-entry match flags and, after
//!   the probe drains, run the unmatched entries through the rest of the
//!   spine in morsel-sized batches with a null probe side.
//! * Morsels are claimed from an atomic counter by the submitting thread
//!   and by workers of the shared pool that steal slices of the run
//!   ([`pipeline`], [`scheduler`]); every worker folds into a *private* sink
//!   partial (a radix group table — keyless for a reduce — a row buffer, or
//!   a build-store chunk) and
//!   the partials are merged under the monoid's associative ⊕ when the run
//!   drains. `parallelism = 1` runs the identical batch code inline — serial
//!   and parallel execution differ only in floating-point summation order.
//! * A join build side is *materialized* in parallel (its own morsel run)
//!   and then indexed in one pass over the stored hashes on the preparing
//!   thread ([`radix::RadixHashTable::build`]); a query spawns no threads of
//!   its own — the pool is the only place the engine creates any.
//!
//! Collected (non-aggregated) outputs are tagged with their morsel index and
//! re-sorted on merge, so row order matches the serial scan order no matter
//! which worker claimed which morsel.
//!
//! # Typed columns, vectorized kernels, closure fallback
//!
//! Selections have a second, column-at-a-time evaluation tier on top of the
//! compiled closures:
//!
//! * **Typed columns.** For each slot referenced by a kernel-eligible
//!   predicate, the scan asks the plug-in for a *typed fill*
//!   ([`proteus_plugins::TypedFill`]): the morsel's values land in a
//!   [`proteus_plugins::TypedColumn`] — raw `i64`/`f64`/`bool` vectors or
//!   per-morsel interned strings, each with a null bitmap — instead of the
//!   row-major `Value` buffer. Binary and cached columnar data is a plain
//!   lane copy; CSV/JSON parse their raw bytes straight into the vector.
//!   Behind a leading kernel filter the slots it does not read render only
//!   for its survivors (filter-first, `pipeline::split_filter_first`).
//! * **Kernels.** The predicate planner (`codegen`) classifies each
//!   selection conjunct at prepare time. Eligible conjuncts (comparisons,
//!   `+`/`-`/`*` arithmetic, `AND`/`OR`/`NOT`, `IS NULL`, string
//!   equality/ordering/`contains` vs literals) compile to a
//!   [`kernels::KernelPred`] evaluated by dense branch-free loops that pack
//!   64 verdicts per word into a packed bitmask ([`mask`]): `AND`/`OR`/`NOT`
//!   combine whole words, null propagation `OR`s/`AND NOT`s the columns' own
//!   packed null bitmaps (same word layout), and the mask compress-stores
//!   into the selection vector by `trailing_zeros` iteration over its set
//!   bits. String kernels compare each *unique* pooled string once per
//!   morsel.
//! * **Closure fallback.** Everything else — record/list-shaped
//!   expressions, conditionals, division, paths navigated inside a slot's
//!   value, untyped slots — stays on the compiled-closure path, as does any
//!   filter above a join or a closure-floor unnest (those rebuild batches
//!   row-wise, dropping typed columns).
//! * **Hydration.** Typed slots whose `Value` form something downstream
//!   still reads (closure residuals, sink expressions, collected rows) are
//!   materialized *after* the kernels, for the surviving selection only;
//!   slots nothing reads (e.g. the filter column of a `COUNT(*)`) never
//!   round-trip through `Value` at all.
//!
//! `ExecutionMetrics::kernel_rows` / `fallback_rows` report which tier
//! evaluated each row's predicates; kernel ≡ closure equivalence is enforced
//! by seed-sweep property tests ([`kernels`] and
//! `tests/kernel_equivalence.rs`).
//!
//! # Vectorized aggregation: the third tier
//!
//! The typed tier runs end-to-end — scan → kernel filter → **kernel
//! aggregate** — so a kernel-eligible `SELECT k, SUM(v) … WHERE p` morsel
//! never materializes a `Value`:
//!
//! * **One aggregate sink.** The sink planner ([`kernels::plan_sink`])
//!   classifies every output spec: `sum`/`min`/`max`/`avg` over the
//!   numeric-expression subset, `and`/`or` over predicate shapes, `count`
//!   unconditionally (its input is never evaluated). Classified inputs
//!   render columnwise once per batch and fold with dense loops that mirror
//!   `Accumulator::merge` bit for bit — running f64 sums in row order,
//!   strict-replace `total_cmp` extremes, nulls skipped exactly where the
//!   closure skips them. A kernel-eligible sink predicate (`SUM(x) WHERE
//!   p`) becomes a mask in the same pass; only residual conjuncts and
//!   ineligible specs (collection monoids, division, record/list shapes)
//!   fall back to closures, spec by spec. The fold's target is the group
//!   table ([`radix::RadixGroupTable`]), for a group-by and a reduce alike:
//!   a reduce is a group-by over zero keys, whose table has one dense slot
//!   — every row is group 0, with no hash, no id vector and no seen mark,
//!   and the kernels fold over a one-slot copy of group 0's state that
//!   stays in a register. The table keeps
//!   one typed group state: every kernel-classified output spec owns a flat
//!   [`radix::AggLane`] indexed by group id (`i64` counts, `f64` sums, sum
//!   and count for `avg`, a typed extreme plus a presence bit for
//!   `min`/`max`, booleans for `and`/`or`); only collection monoids,
//!   closure-fallback specs and the closure tier keep an `Accumulator` per
//!   group. Group ids come one of two ways, picked at compile time from the
//!   data. **Dense ids**: when every key is an `i64` slot whose zone-map
//!   totals bound it ([`kernels::plan_dense_keys`]: |min|, |max| ≤ 2⁵³, the
//!   product of the spans — one null slot per key whose map counts nulls —
//!   at most 65 536 and at most the scan's rows), a row's group id is its
//!   key's mixed-radix offset ([`kernels::TypedKeys::dense_ids`]) into a
//!   state allocated once per worker: no hash, no index walk, no stored key;
//!   a lane outside its bound fails the query with `EngineError::Internal`
//!   instead of mis-grouping. **Hashed ids** otherwise: components hash
//!   lane-wise (pool strings pre-hashed per morsel) through the same mixer
//!   as `hash_key_components`, and one open-addressed index of group ids
//!   over a key-only [`radix::BuildStore`] — the join's key columns:
//!   `i64` / `f64` / `bool` lanes for typed key slots, `Value`s for strings
//!   and closure keys — resolves every row through one find-or-create
//!   ([`radix::RadixGroupTable::resolve`]). The typed ingest
//!   ([`kernels::TypedKeys::resolve_groups`]) compares lane to stored
//!   column with the join's compare ([`kernels::TypedKeys::eq_store`]),
//!   the closure tier ([`radix::RadixGroupTable::merge_with`]) hydrated
//!   components ([`radix::BuildStore::key_eq_values`]), `absorb` column to
//!   column — all under the group null rule ([`radix::GROUP_NULLS`]: a
//!   null groups with a null). A key is stored only when its group is
//!   first inserted. Either way each kernel spec then
//!   folds in its own tight loop over `(group id, row)`
//!   ([`kernels::RenderedAggs::fold_groups`], one dispatch per spec per
//!   morsel), closure-fallback specs per row into the same resolved groups.
//!   The closure tier reuses a scratch key buffer and clones it on first
//!   insertion only. Groups leave in
//!   `(hash & 63, hash)` order at every worker count — dense groups hash
//!   their rendered key once each, at emit.
//! * **Hydration.** Slots only the sink's kernels read are never hydrated —
//!   codegen classifies sinks at compile time, activates typed fills for
//!   aggregate-input and key slots, and drops their `Value` fills.
//! * **Parallel collection monoids.** Bag/set/list outputs — of a reduce
//!   and of every group alike — run morsel-parallel: each group's
//!   accumulator carries per-element morsel tags, and
//!   [`radix::RadixGroupTable::absorb`] merges element lists in tag order,
//!   sets deduping as they merge (the first occurrence carries the smallest
//!   tag) — identical to serial ingest at any worker count.
//!
//! # Typed unnests
//!
//! An unnest directly over a scan whose alias is only ever read leaf by
//! leaf (`i.qty`) does not bind elements at all: the plug-in's expand hook
//! ([`proteus_plugins::InputPlugin::generate_expand`]) renders, per morsel,
//! a parent-row index plus one typed lane per leaf, the lanes become typed
//! columns of the output batch and the live parent slots are gathered
//! across by the parent index (`pipeline`'s `Stage::Expand`). The typed
//! slot map sees through it, so the element predicate is a kernel filter
//! and the sink takes its aggregate kernels; hydration restarts after it.
//! The closure unnest — collection `Value` borrowed from the row, one
//! output row per element, only live parent slots cloned — is the floor for
//! every other shape, and the generated IR names the tier and the reason.
//!
//! # One numeric mode
//!
//! The kernel ≡ closure bit-exactness contract above holds for every query:
//! kernel `sum`/`avg` folds add in row order, exactly as the closure engine
//! does, so every tier gives one answer. There is no reassociating mode —
//! [`NumericMode`] has the single variant `Strict` and is kept only for an
//! existing caller (see `ARCHITECTURE.md`, "Numeric semantics").
//!
//! `ExecutionMetrics::agg_kernel_rows` / `agg_fallback_rows` report which
//! tier folded each (row × output spec); aggregate kernel ≡ closure
//! equivalence is enforced by the same seed-sweep suites.
//!
//! # Vectorized joins: typed build store, typed probe output
//!
//! Radix hash joins run on the same typed tier, so a kernel-eligible
//! equi-join never materializes a per-tuple `Value` on either side — nor
//! above it:
//!
//! * **Lane-typed build store.** The build side materializes into a
//!   [`radix::BuildStore`]: the per-entry key hash plus one column per key
//!   component and per *live* payload slot, each a [`radix::StoreColumn`] —
//!   typed lanes (`i64`, `f64`, `bool`, with null words) where the build
//!   scan filled the slot typed, `Value`s for strings, closure-evaluated
//!   keys and nested values. The [`radix::RadixHashTable`] indexes the
//!   store's entry ids through the open-addressed index the group table also
//!   uses over its key-only store of the same columns (4-byte slots, linear
//!   probing, load ≤ ½) — one slot per distinct
//!   hash, repeats chained behind it — so a probe walks a handful of slots
//!   from its hash's home slot however often keys repeat; no entry data
//!   moves, and entries of one key match in build-scan order.
//! * **Key classification.** Codegen classifies each join side on its own
//!   at compile time: when every equi-key resolves to a typed slot
//!   ([`kernels::plan_key_slots`] — all-or-nothing per side, so every
//!   component hashes through one tier), that side's keys are batch-hashed
//!   columnwise by [`kernels::TypedKeys`] (the group-by machinery) with
//!   `Value::stable_hash` parity, and probe rows confirm candidates lane to
//!   lane against the build key column ([`kernels::TypedKeys::eq_store`]:
//!   float views by `total_cmp`, so `3` ≡ `3.0`; single numeric keys take a
//!   dedicated hoisted-lane loop). A null key component joins nothing
//!   ([`radix::key_eq`] under [`radix::JOIN_NULLS`]). Because the kernel path hashes whole morsels
//!   up front, the probe loop prefetches each row's home slot a fixed
//!   lookahead ahead. Nested paths, computed keys and untyped slots keep
//!   that side on the closure-fallback path, whose key components evaluate
//!   into a scratch key (no `Value::List` wrapper at any arity).
//! * **Typed probe output.** Matches gather the build store's lane columns
//!   by entry id and the probe batch's typed columns through the match list
//!   into typed columns of the output batch; `Value` columns are copied
//!   value by value. Codegen's `scan_typed_kinds` sees through the join, so
//!   filters, reduces and group-bys above it are planned like over a scan,
//!   and the slots they read are activated on the side they come from.
//! * **Liveness.** The referenced-name analysis runs over *both* join
//!   layouts: only build slots something downstream reads (as `Value`s or
//!   through a kernel) are stored, and only live probe slots are gathered
//!   into the join output — a `COUNT(*)` over a join hydrates nothing.
//! * **Parallelism.** Each worker fills a store chunk per run of consecutive
//!   morsels, tagged with the run's first morsel; the chunks are joined in
//!   tag order, so the store — and therefore probe/match order — is
//!   bit-identical to the serial build at any worker count, for inner and
//!   left-outer kinds.
//!
//! `ExecutionMetrics::join_kernel_rows` / `join_fallback_rows` report which
//! tier keyed each build/probe row; join kernel ≡ closure equivalence is
//! enforced by seed-sweep property tests in [`kernels`] and engine-level
//! inner/left-outer suites in `tests/kernel_equivalence.rs`.

pub mod batch;
pub mod context;
pub mod expr;
pub mod kernels;
pub mod mask;
pub mod metrics;
pub mod pipeline;
pub mod radix;
pub mod scheduler;

pub use batch::{BindingBatch, MORSEL_SIZE};
pub use context::{CancellationToken, MemoryBudget, QueryContext};
pub use expr::{compile_expr, compile_predicate, BindingLayout, CompiledExpr, CompiledPredicate};
pub use kernels::NumericMode;
pub use metrics::ExecutionMetrics;
pub use scheduler::{AdmissionConfig, AdmissionPermit, DrainReport, Scheduler, SchedulerConfig};

use proteus_algebra::Value;

/// A runtime binding: one value per layout slot.
pub type Binding = Vec<Value>;
