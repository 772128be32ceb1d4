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
//!   every worker. Left-outer joins track per-entry match flags and emit the
//!   null-padded tail after the probe drains.
//! * Morsels are claimed from an atomic counter by the submitting thread
//!   and by workers of the shared pool that steal slices of the run
//!   ([`pipeline`], [`scheduler`]); every worker folds into a *private* sink
//!   partial (reduce accumulators, a radix group table, or a row buffer) and
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
//!   slice append; CSV/JSON parse their raw bytes straight into the vector.
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
//! * **Reduce sinks.** The sink planner ([`kernels::plan_sink`]) classifies
//!   every output spec: `sum`/`min`/`max`/`avg` over the numeric-expression
//!   subset, `and`/`or` over predicate shapes, `count` unconditionally (its
//!   input is never evaluated). Classified inputs render columnwise once per
//!   batch and fold into `Accumulator`s with dense loops that mirror
//!   `Accumulator::merge` bit for bit — running f64 sums in row order,
//!   strict-replace `total_cmp` extremes, nulls skipped exactly where the
//!   closure skips them. A kernel-eligible *reduce-level* predicate
//!   (`SUM(x) WHERE p`) becomes a mask in the same pass; only residual
//!   conjuncts and ineligible specs (collection monoids, division,
//!   record/list shapes) fall back to closures, spec by spec.
//! * **Group-by sinks.** The group table ([`radix::RadixGroupTable`]) is a
//!   hash table in the plain sense: group state lives in flat arenas indexed
//!   by group id (key hash, key components, one accumulator per monoid) and
//!   one open-addressed index of group ids finds a row's group in O(1)
//!   whatever the group count. When every group key resolves to a typed
//!   slot the ingest is columnar, in two steps per morsel: components hash
//!   lane-wise (pool strings pre-hashed per morsel) through the same mixer
//!   as `hash_key_components` and every row's group id is resolved
//!   ([`kernels::TypedKeys::resolve_groups`] — numeric, boolean and null
//!   components compare as flat [`radix::KeyLane`]s, the `f64` bit pattern
//!   that `value_eq`'s float view compares; strings are confirmed against
//!   the stored `Value`; key `Value`s are materialized only when a group is
//!   first inserted); then each kernel-classified aggregate folds in its
//!   own tight loop over `(group id, row)`
//!   ([`kernels::RenderedAggs::fold_groups`], one dispatch per spec per
//!   morsel), closure-fallback specs per row into the same resolved groups.
//!   The closure tier reuses a scratch key buffer, clones it on first
//!   insertion only, and goes through the same index
//!   ([`radix::RadixGroupTable::merge_with`]). Groups leave in
//!   `(hash & 63, hash)` order at every worker count.
//! * **Hydration.** Slots only the sink's kernels read are never hydrated —
//!   codegen classifies sinks at compile time, activates typed fills for
//!   aggregate-input and key slots, and drops their `Value` fills.
//! * **Parallel collection monoids.** Bag/set/list *reduce* sinks no longer
//!   pin the pipeline to the serial path: elements are tagged with their
//!   morsel index per worker and merged in morsel order (the same ordered
//!   merge Collect/Entries use), with sets deduping locally first (the local
//!   first occurrence carries the smallest tag). Grouped collections run
//!   morsel-parallel the same way: each group's accumulator carries
//!   per-element morsel tags, and [`radix::RadixGroupTable::absorb`] merges
//!   element lists in tag order — identical to serial ingest at any worker
//!   count.
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
//! # Numeric modes: the relaxed explicit-lane tier
//!
//! The kernel ≡ closure bit-exactness contract above is itself a per-query
//! choice ([`NumericMode`], default [`NumericMode::Strict`]). A query that
//! opts into [`NumericMode::Relaxed`] permits float reassociation, and the
//! hot scalar loops take fixed-width explicit-lane forms: `sum`/`avg` folds
//! lane-split into [`kernels::FOLD_LANES`] independent partial accumulators
//! combined pairwise (null words folding per 64-row lane group), batch key
//! hashing chunks into [`radix::HASH_LANES`] independent mix chains, and
//! the single-numeric-key probe hoists its compares into eight-wide lane
//! gathers. Hashing and probing stay bit-identical (per-row chains never
//! interact); only float summation order changes, within the relative
//! epsilon documented in `ARCHITECTURE.md` ("Numeric modes").
//! `ExecutionMetrics::simd_rows` counts rows the lane loops processed —
//! always 0 under `strict`.
//!
//! `ExecutionMetrics::agg_kernel_rows` / `agg_fallback_rows` report which
//! tier folded each (row × output spec); aggregate kernel ≡ closure
//! equivalence is enforced by the same seed-sweep suites.
//!
//! # Vectorized joins: typed-key build & probe
//!
//! Radix hash joins run on the same typed tier, so a kernel-eligible
//! equi-join never materializes a per-tuple `Value` on either side:
//!
//! * **Columnar build store.** The build side materializes into a
//!   [`radix::BuildStore`] — per-entry key hash, key components and *live*
//!   payload values flattened into contiguous arenas indexed by entry id —
//!   instead of a `(Value, Vec<Value>)` pair per entry. The
//!   [`radix::RadixHashTable`] indexes the store's entry ids through the
//!   open-addressed index the group table also uses (4-byte slots, linear
//!   probing, load ≤ ½) — one slot per distinct hash, repeats chained behind
//!   it — so a probe walks a handful of slots from its hash's home slot
//!   however often keys repeat; no entry data moves, and entries of one key
//!   match in build-scan order. Numeric key columns additionally carry an
//!   `f64` total-order view, so probe compares against them are one
//!   branchless float comparison (single numeric keys take a dedicated
//!   hoisted-lane loop). Because the kernel path hashes whole morsels up
//!   front, the probe loop prefetches each row's home slot (and each match's
//!   payload) a fixed lookahead ahead — memory latency the one-row-at-a-time
//!   closure fallback cannot hide.
//! * **Key classification.** Codegen classifies each join side on its own
//!   at prepare time: when every equi-key resolves to a typed scan slot
//!   ([`kernels::plan_key_slots`] — all-or-nothing per side, so every
//!   component hashes through one tier), that side's keys are batch-hashed
//!   columnwise by [`kernels::TypedKeys`] (the group-by machinery) with
//!   `Value::stable_hash` parity, and probe rows confirm candidates with
//!   lane-vs-stored-key `value_eq` compares ([`kernels::TypedKeys::eq_store`]).
//!   Nested paths, computed keys and untyped slots keep that side on the
//!   closure-fallback path — which also stopped boxing: key components
//!   evaluate into the store arenas (build) or a recycled scratch buffer
//!   (probe) componentwise, with no `Value::List` wrapper at any arity.
//! * **Liveness.** The referenced-name analysis runs over *both* join
//!   layouts: only build slots something downstream reads are stored in the
//!   arena, and only live probe slots are gathered (columnwise) into the
//!   join output batch — a `COUNT(*)` over a join hydrates nothing at all.
//! * **Parallelism.** Worker-private build partials keep the same flattened
//!   arenas and merge by morsel tag (a k-way merge that *moves* values), so
//!   the store — and therefore probe/match order — is bit-identical to the
//!   serial build at any worker count, for inner and left-outer kinds.
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
