//! Radix-partitioned hash join and grouping.
//!
//! §5.1: "Proteus uses hash-based algorithms for the join and grouping
//! operators, namely variations of the radix hash join algorithm. While parts
//! of the join implementation are indeed generated at runtime, other parts,
//! like clustering the materialized entries based on their hash values, are
//! wrapped in a C++ function." The same split exists here: key extraction is
//! a compiled closure per query; the partition/cluster/probe machinery below
//! is ordinary pre-existing library code invoked by the generated pipeline.

use proteus_algebra::monoid::Accumulator;
use proteus_algebra::{Monoid, Value};

/// Number of radix partitions (64 = 6 radix bits), chosen so each partition's
/// working set stays cache-resident for the scaled-down datasets.
pub const RADIX_PARTITIONS: usize = 64;

fn partition_of(hash: u64) -> usize {
    (hash as usize) & (RADIX_PARTITIONS - 1)
}

/// Incremental multi-column key hasher: FNV-1a over per-component hashes,
/// seeded with the arity. The typed group-by ingest feeds it component
/// hashes computed straight from raw column lanes
/// (`Value::stable_hash_numeric` & friends), so both key paths — hydrated
/// `Value` components and typed lanes — mix identically.
pub struct KeyHash(u64);

impl KeyHash {
    /// Starts a key hash for a key of `arity` components.
    pub fn new(arity: usize) -> KeyHash {
        KeyHash(Self::seed(arity))
    }

    /// The seed state for a key of `arity` components (the raw-state mixer
    /// entry point used by the columnwise hash loops).
    #[inline]
    pub fn seed(arity: usize) -> u64 {
        0xcbf2_9ce4_8422_2325 ^ (arity as u64)
    }

    /// One raw mixing step: folds a component's stable hash into the state.
    #[inline]
    pub fn mix(state: u64, component_hash: u64) -> u64 {
        let mut h = state ^ component_hash;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        // Finalization round so low bits (the radix) mix well.
        h ^ (h >> 29)
    }

    /// Mixes in the next component's stable hash.
    #[inline]
    pub fn push(&mut self, component_hash: u64) {
        self.0 = Self::mix(self.0, component_hash);
    }

    /// The mixed key hash.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// One mixing step over [`HASH_LANES`] independent states at once: the
    /// relaxed-tier batch-hashing kernel. Each lane is exactly
    /// [`KeyHash::mix`] — the chains never interact, so chunking changes
    /// the loop shape, not the hashes.
    #[inline]
    pub fn mix_lanes(states: &mut [u64; HASH_LANES], component_hashes: &[u64; HASH_LANES]) {
        for (state, &comp) in states.iter_mut().zip(component_hashes) {
            *state = Self::mix(*state, comp);
        }
    }
}

/// Width of the chunked batch-hash loop ([`KeyHash::mix_lanes`]): eight
/// 64-bit states fill two AVX2 registers, and the multiply-xor mix body
/// vectorizes (or at least pipelines) across independent lanes.
pub const HASH_LANES: usize = 8;

/// Hashes a multi-column key from its components *in place* — no
/// `Value::List` is materialized per entry. Consistent with
/// `Value::value_eq` componentwise equality: components hash through
/// [`Value::stable_hash`] and are combined with an order-sensitive mixer.
pub fn hash_key_components(values: &[Value]) -> u64 {
    let mut h = KeyHash::new(values.len());
    for value in values {
        h.push(value.stable_hash());
    }
    h.finish()
}

/// Componentwise [`Value::value_eq`] between a stored key and a probe key
/// (equal-arity slices; the closure-fallback probe compare).
pub fn key_components_eq(stored: &[Value], probe: &[Value]) -> bool {
    stored.len() == probe.len() && stored.iter().zip(probe).all(|(a, b)| a.value_eq(b))
}

/// The columnar build side of a radix hash join.
///
/// Entries live in flattened arenas indexed by entry id — `arity` key
/// components and `live_slots.len()` payload values per entry, plus the
/// precomputed key hash — so materializing a build row costs **zero**
/// per-entry heap allocations (no `(Value, Vec<Value>)` pair per tuple).
/// The payload keeps only the *live* subset of the build binding: the slots
/// something downstream of the join actually reads.
pub struct BuildStore {
    arity: usize,
    /// Build-binding slot index of each stored payload column (ascending).
    live_slots: Vec<usize>,
    /// Per entry: the key hash ([`hash_key_components`] of the components).
    hashes: Vec<u64>,
    /// Flattened key components: entry `e` at `e*arity .. (e+1)*arity`.
    keys: Vec<Value>,
    /// Flattened live payload: entry `e` at `e*lw .. (e+1)*lw`.
    payload: Vec<Value>,
    /// Per key component: the `f64` total-order view of every entry, built
    /// when all non-null components of the column are numeric — the typed
    /// fast path of the lane-vs-stored-key probe compares.
    num_views: Vec<Option<Vec<f64>>>,
}

impl BuildStore {
    /// Empty store for keys of `arity` components storing the given build
    /// slots.
    pub fn new(arity: usize, live_slots: Vec<usize>) -> BuildStore {
        BuildStore {
            arity,
            live_slots,
            hashes: Vec::new(),
            keys: Vec::new(),
            payload: Vec::new(),
            num_views: Vec::new(),
        }
    }

    /// Wraps already-flattened arenas (the serial single-partial fast path:
    /// the sink's buffers become the store without copying).
    pub fn from_parts(
        arity: usize,
        live_slots: Vec<usize>,
        hashes: Vec<u64>,
        keys: Vec<Value>,
        payload: Vec<Value>,
    ) -> BuildStore {
        debug_assert_eq!(keys.len(), hashes.len() * arity);
        debug_assert_eq!(payload.len(), hashes.len() * live_slots.len());
        BuildStore {
            arity,
            live_slots,
            hashes,
            keys,
            payload,
            num_views: Vec::new(),
        }
    }

    /// Appends one entry, hashing and cloning its components (test/bench
    /// convenience; the pipeline uses [`BuildStore::push_taken`]).
    pub fn push_entry(&mut self, key: &[Value], payload: &[Value]) {
        debug_assert_eq!(key.len(), self.arity);
        debug_assert_eq!(payload.len(), self.live_slots.len());
        self.hashes.push(hash_key_components(key));
        self.keys.extend(key.iter().cloned());
        self.payload.extend(payload.iter().cloned());
    }

    /// Appends one entry with a precomputed hash, *moving* the values out of
    /// the caller's buffers (the multi-worker ordered merge).
    pub fn push_taken(&mut self, hash: u64, key: &mut [Value], payload: &mut [Value]) {
        debug_assert_eq!(key.len(), self.arity);
        debug_assert_eq!(payload.len(), self.live_slots.len());
        self.hashes.push(hash);
        self.keys
            .extend(key.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
        self.payload.extend(
            payload
                .iter_mut()
                .map(|v| std::mem::replace(v, Value::Null)),
        );
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no entries were materialized.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Key component arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The stored build-binding slots, in payload-column order.
    pub fn live_slots(&self) -> &[usize] {
        &self.live_slots
    }

    /// The key components of one entry.
    #[inline]
    pub fn key_components(&self, entry: u32) -> &[Value] {
        let start = entry as usize * self.arity;
        &self.keys[start..start + self.arity]
    }

    /// One key component of one entry.
    #[inline]
    pub fn key_component(&self, entry: u32, comp: usize) -> &Value {
        &self.keys[entry as usize * self.arity + comp]
    }

    /// The numeric fast view of key component `comp`, when every non-null
    /// stored component is numeric (indexed by entry id; lanes at null
    /// entries are placeholders, guarded by the component's null check).
    #[inline]
    pub fn num_view(&self, comp: usize) -> Option<&[f64]> {
        self.num_views.get(comp)?.as_deref()
    }

    /// The live payload values of one entry (parallel to
    /// [`BuildStore::live_slots`]).
    #[inline]
    pub fn payload(&self, entry: u32) -> &[Value] {
        let lw = self.live_slots.len();
        let start = entry as usize * lw;
        &self.payload[start..start + lw]
    }

    /// Hints the CPU to pull one entry's payload values toward cache (the
    /// probe gather walks matched entries in probe order — a random scatter
    /// over the arena). No-op outside x86-64.
    #[inline]
    pub fn prefetch_payload(&self, entry: u32) {
        let start = entry as usize * self.live_slots.len();
        if let Some(first) = self.payload.get(start) {
            prefetch_ptr(first);
        }
    }

    /// Builds the per-component numeric views ("typed where eligible"):
    /// a column qualifies when every non-null component is numeric, so the
    /// probe compare reduces to one `f64` total-order comparison per
    /// candidate instead of a `Value` match.
    fn build_num_views(&mut self) {
        self.num_views = (0..self.arity)
            .map(|comp| {
                let eligible = (0..self.len() as u32)
                    .map(|e| self.key_component(e, comp))
                    .all(|v| v.is_null() || v.is_numeric());
                eligible.then(|| {
                    (0..self.len() as u32)
                        .map(|e| self.key_component(e, comp).as_float().unwrap_or(f64::NAN))
                        .collect()
                })
            })
            .collect();
    }

    /// Approximate bytes materialized by the build side (for metrics).
    pub fn materialized_bytes(&self) -> u64 {
        // Hash + id pair, key components, live payload values (Value ≈ 16 B).
        self.len() as u64 * (16 + (self.arity + self.live_slots.len()) as u64 * 16)
    }
}

/// A packed, shared bitmap of per-build-entry matched flags for left-outer
/// joins: bit `entry & 63` of word `entry >> 6`, the same word layout as the
/// kernel selection masks (`crate::exec::mask`) and the [`TypedColumn`]
/// null bitmaps. Probe workers set bits concurrently with relaxed
/// `fetch_or`s — the flag only ever goes `false → true` and is read after
/// the probe drains, so no ordering is required — and the unmatched tail
/// scan walks *zero* bits word-at-a-time instead of loading one
/// `AtomicBool` per entry.
///
/// [`TypedColumn`]: proteus_plugins::TypedColumn
pub struct MatchedBitmap {
    words: Vec<std::sync::atomic::AtomicU64>,
}

impl MatchedBitmap {
    /// An all-unmatched bitmap for `entries` build entries.
    pub fn new(entries: usize) -> MatchedBitmap {
        MatchedBitmap {
            words: (0..entries.div_ceil(64))
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        }
    }

    /// Marks one entry matched (thread-safe, relaxed).
    #[inline]
    pub fn set(&self, entry: usize) {
        self.words[entry >> 6].fetch_or(1 << (entry & 63), std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether the entry was matched.
    #[inline]
    pub fn get(&self, entry: usize) -> bool {
        self.words[entry >> 6].load(std::sync::atomic::Ordering::Relaxed) >> (entry & 63) & 1 == 1
    }

    /// Calls `f` for every *unmatched* entry of `0..entries`, in ascending
    /// order (the left-outer null-padded tail emission).
    pub fn for_each_unmatched(&self, entries: usize, mut f: impl FnMut(u32)) {
        for (wi, word) in self.words.iter().enumerate() {
            let base = (wi as u32) << 6;
            // Complement: set bits are now the unmatched entries; clamp the
            // final word's tail.
            let mut w = !word.load(std::sync::atomic::Ordering::Relaxed);
            if (entries as u32) - base < 64 {
                w &= (1u64 << (entries - wi * 64)) - 1;
            }
            while w != 0 {
                f(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }
}

/// A radix-partitioned hash table over a columnar [`BuildStore`]: each
/// partition holds `(key hash, entry id)` pairs clustered (sorted) by hash,
/// ties in entry-id (build scan) order. The heavy entry data never moves
/// during the build — only the 12-byte pairs are scattered and sorted.
pub struct RadixHashTable {
    store: BuildStore,
    partitions: Vec<Vec<HashPair>>,
    /// Per partition: 257 offsets bucketing the clustered run by the top
    /// byte of the hash (entries are sorted by full hash, so the top byte
    /// is monotonic within a partition). Probes jump straight to a ~`n/256`
    /// sub-run instead of binary-searching the whole partition.
    dirs: Vec<Vec<u32>>,
}

/// Join-table fan-out: 256 partitions (8 radix bits) over the low hash
/// bits, finer than the group table's [`RADIX_PARTITIONS`] because the
/// probe side only reads — each probe lands in a ~`n/256` partition whose
/// top-byte directory then narrows the search to a handful of entries.
const JOIN_RADIX_PARTITIONS: usize = 256;

fn join_partition_of(hash: u64) -> usize {
    (hash as usize) & (JOIN_RADIX_PARTITIONS - 1)
}

/// One clustered `(key hash, entry id)` pair of a join partition.
type HashPair = (u64, u32);

/// How many probe rows the batched join loops run ahead of themselves when
/// issuing cache prefetches (sub-runs and payload entries). Shared by the
/// generic and single-numeric probe loops so the two tiers stay in
/// lockstep.
pub const PROBE_LOOKAHEAD: usize = 16;

/// Hints the CPU to pull the cache line holding `value` toward L1. No-op
/// outside x86-64.
#[inline]
fn prefetch_ptr<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `value` is a live reference; prefetching any valid address
    // has no observable effect beyond the cache.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(value as *const T as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// The top-byte directories of clustered partitions.
fn build_dirs(partitions: &[Vec<HashPair>]) -> Vec<Vec<u32>> {
    partitions
        .iter()
        .map(|partition| {
            let mut counts = [0u32; 256];
            for &(hash, _) in partition {
                counts[(hash >> 56) as usize] += 1;
            }
            let mut dir = Vec::with_capacity(257);
            let mut acc = 0u32;
            dir.push(0);
            for count in counts {
                acc += count;
                dir.push(acc);
            }
            dir
        })
        .collect()
}

/// Entries below this size build serially: the scatter fits in cache and
/// thread spawn/merge overhead would dominate.
const PARALLEL_BUILD_THRESHOLD: usize = 4096;

impl RadixHashTable {
    /// Builds the table by partitioning (clustering) the store's entries on
    /// their key hash.
    pub fn build(store: BuildStore) -> RadixHashTable {
        Self::build_parallel(store, 1)
    }

    /// Morsel-parallel build: the partition (scatter) phase fans out over
    /// contiguous entry-id chunks and the cluster phase over the radix
    /// digits. Chunk partials are concatenated in chunk order before the
    /// stable per-digit sort, so the result is bit-identical to the serial
    /// build — probe/match order does not depend on the worker count.
    ///
    /// Builds of `PARALLEL_BUILD_THRESHOLD` (4 096) entries or more spawn a
    /// `std::thread::scope` of `threads` workers per phase. These are the
    /// only threads a query spawns for itself: they are not pool workers, so
    /// admission control does not bound them.
    pub fn build_parallel(mut store: BuildStore, threads: usize) -> RadixHashTable {
        store.build_num_views();
        let len = store.len();
        if threads <= 1 || len < PARALLEL_BUILD_THRESHOLD {
            let mut partitions: Vec<Vec<HashPair>> =
                (0..JOIN_RADIX_PARTITIONS).map(|_| Vec::new()).collect();
            for (id, &hash) in store.hashes.iter().enumerate() {
                partitions[join_partition_of(hash)].push((hash, id as u32));
            }
            for partition in &mut partitions {
                // Stable: ties keep entry-id (insertion) order.
                partition.sort_by_key(|(hash, _)| *hash);
            }
            let dirs = build_dirs(&partitions);
            return RadixHashTable {
                store,
                partitions,
                dirs,
            };
        }
        let threads = threads.min(len);

        // Phase 1: scatter each contiguous id chunk into per-thread local
        // radix buckets (ids stay global; only (hash, id) pairs move).
        let chunk_size = len.div_ceil(threads);
        let hashes = &store.hashes;
        let locals: Vec<Vec<Vec<HashPair>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let base = (t * chunk_size).min(len);
                        let end = (base + chunk_size).min(len);
                        let mut local: Vec<Vec<HashPair>> =
                            (0..JOIN_RADIX_PARTITIONS).map(|_| Vec::new()).collect();
                        for (id, &hash) in hashes[base..end].iter().enumerate() {
                            local[join_partition_of(hash)].push((hash, (base + id) as u32));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                // Propagate a worker panic with its original payload (the
                // pipeline layer contains it) instead of aborting with a
                // second panic here.
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        // Regroup the chunk-local buckets by radix digit, preserving chunk
        // order so concatenation matches the serial insertion order.
        let mut by_digit: Vec<Vec<Vec<HashPair>>> =
            (0..JOIN_RADIX_PARTITIONS).map(|_| Vec::new()).collect();
        for thread_local in locals {
            for (digit, bucket) in thread_local.into_iter().enumerate() {
                by_digit[digit].push(bucket);
            }
        }

        // Phase 2: cluster per radix digit, digits striped across workers.
        let mut jobs: Vec<Vec<(usize, Vec<Vec<HashPair>>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (digit, buckets) in by_digit.into_iter().enumerate() {
            jobs[digit % threads].push((digit, buckets));
        }
        let clustered: Vec<Vec<(usize, Vec<HashPair>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| {
                    scope.spawn(move || {
                        job.into_iter()
                            .map(|(digit, buckets)| {
                                let total: usize = buckets.iter().map(Vec::len).sum();
                                let mut merged = Vec::with_capacity(total);
                                for bucket in buckets {
                                    merged.extend(bucket);
                                }
                                // Stable sort: ties keep insertion order,
                                // exactly like the serial build.
                                merged.sort_by_key(|(hash, _)| *hash);
                                (digit, merged)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        let mut partitions: Vec<Vec<HashPair>> =
            (0..JOIN_RADIX_PARTITIONS).map(|_| Vec::new()).collect();
        for job in clustered {
            for (digit, merged) in job {
                partitions[digit] = merged;
            }
        }
        let dirs = build_dirs(&partitions);
        RadixHashTable {
            store,
            partitions,
            dirs,
        }
    }

    /// The columnar build store behind the table.
    pub fn store(&self) -> &BuildStore {
        &self.store
    }

    /// Number of build-side entries.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no entries were materialized.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Probes with a precomputed key hash: walks the clustered hash run,
    /// calling `key_eq(entry id)` to confirm candidates and `on_match` for
    /// every confirmed entry (in entry-id order within the run). Returns the
    /// number of matches. The caller supplies the compare — typed probe
    /// lanes and hydrated `Value` keys share this entry point.
    pub fn probe_hashed(
        &self,
        hash: u64,
        mut key_eq: impl FnMut(u32) -> bool,
        mut on_match: impl FnMut(u32),
    ) -> usize {
        let digit = join_partition_of(hash);
        let partition = &self.partitions[digit];
        // The top-byte directory narrows the search to a ~n/256 sub-run.
        let dir = &self.dirs[digit];
        let byte = (hash >> 56) as usize;
        let (lo, hi) = (dir[byte] as usize, dir[byte + 1] as usize);
        // Sub-runs average a handful of entries (8 partition bits × 8
        // directory bits), so a linear scan to the hash run beats a binary
        // search's unpredictable branches.
        let mut idx = lo;
        while idx < hi && partition[idx].0 < hash {
            idx += 1;
        }
        let mut matches = 0;
        while idx < hi && partition[idx].0 == hash {
            let entry = partition[idx].1;
            if key_eq(entry) {
                on_match(entry);
                matches += 1;
            }
            idx += 1;
        }
        matches
    }

    /// Hints the CPU to pull the clustered sub-run a future probe of `hash`
    /// will search into cache. The kernel probe path hashes whole morsels
    /// up front, so it can issue these a fixed lookahead ahead of the probe
    /// loop — hiding the table's memory latency behind useful work (the
    /// per-row closure fallback has no precomputed hashes to look ahead
    /// with). No-op outside x86-64.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        let digit = join_partition_of(hash);
        let dir = &self.dirs[digit];
        let byte = (hash >> 56) as usize;
        let (lo, hi) = (dir[byte] as usize, dir[byte + 1] as usize);
        let partition = &self.partitions[digit];
        // Pull the sub-run's first and middle lines: entries are 16 bytes
        // (4 per cache line) and runs start unaligned, so a several-entry
        // scan regularly straddles two lines — fetching both measurably
        // beats fetching just the front.
        for probe in [lo, lo + (hi - lo) / 2] {
            if let Some(entry) = partition.get(probe) {
                prefetch_ptr(entry);
            }
        }
    }

    /// Probes with hydrated key components (the closure-fallback path and
    /// tests): hashes in place, compares componentwise.
    pub fn probe_components(&self, key: &[Value], on_match: impl FnMut(u32)) -> usize {
        self.probe_hashed(
            hash_key_components(key),
            |entry| key_components_eq(self.store.key_components(entry), key),
            on_match,
        )
    }

    /// Approximate bytes materialized by the build side (for metrics).
    pub fn materialized_bytes(&self) -> u64 {
        self.store.materialized_bytes()
    }
}

/// One group of a [`RadixGroupTable`].
struct GroupEntry {
    /// The key hash.
    hash: u64,
    /// The key components.
    key: Vec<Value>,
    /// Per-monoid accumulator states.
    accs: Vec<Accumulator>,
    /// Per *collection* output spec (parallel to the table's
    /// `collection_specs`): the morsel tag of each accumulated element, in
    /// accumulator order. What lets grouped `bag`/`set`/`list` outputs run
    /// morsel-parallel: [`RadixGroupTable::absorb`] merges the element lists
    /// in tag order, reproducing the serial ingest order exactly.
    tags: Vec<Vec<u64>>,
}

/// A radix-partitioned grouping (aggregation) table: the runtime of the
/// `nest` operator. In a morsel-parallel pipeline every worker folds into a
/// private table and the partials are [`absorb`](RadixGroupTable::absorb)ed
/// pairwise at the end.
pub struct RadixGroupTable {
    partitions: Vec<Vec<GroupEntry>>,
    monoids: Vec<Monoid>,
    /// Indices of the collection-monoid output specs (ascending), whose
    /// per-element morsel tags are tracked for order-exact parallel merge.
    collection_specs: Vec<usize>,
    /// Reused buffer for pre-fold collection lengths (the per-row path
    /// allocates nothing for existing groups).
    len_scratch: Vec<usize>,
    groups: usize,
}

/// Number of elements held by a collection accumulator (0 for scalars).
fn collection_len(acc: &Accumulator) -> usize {
    match acc {
        Accumulator::Collection(items) => items.len(),
        _ => 0,
    }
}

/// Tag-ordered two-way merge of one group's collection elements. Both sides
/// are tag-sorted (workers claim morsels in increasing order, so each
/// worker's elements accumulate in ascending tag order; a tag never appears
/// on both sides because each morsel is folded by exactly one worker).
/// `Set` dedups with [`Value::value_eq`] in merged order, keeping the
/// earliest-tagged representative — exactly what serial ingest keeps.
// Invariant: each `next().expect` follows a successful `peek()` on the same
// iterator, so the element is always present.
#[allow(clippy::expect_used)]
fn merge_tagged(
    monoid: Monoid,
    ours: &mut Vec<Value>,
    our_tags: &mut Vec<u64>,
    theirs: Vec<Value>,
    their_tags: Vec<u64>,
) {
    debug_assert_eq!(theirs.len(), their_tags.len());
    debug_assert_eq!(ours.len(), our_tags.len());
    let dedup = monoid == Monoid::Set;
    let mut a = std::mem::take(ours)
        .into_iter()
        .zip(std::mem::take(our_tags))
        .peekable();
    let mut b = theirs.into_iter().zip(their_tags).peekable();
    loop {
        let take_a = match (a.peek(), b.peek()) {
            (Some((_, ta)), Some((_, tb))) => ta <= tb,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (item, tag) = if take_a {
            a.next().expect("peeked")
        } else {
            b.next().expect("peeked")
        };
        if dedup && ours.iter().any(|existing| existing.value_eq(&item)) {
            continue;
        }
        ours.push(item);
        our_tags.push(tag);
    }
}

impl RadixGroupTable {
    /// Creates a table whose per-group accumulators follow `monoids`.
    pub fn new(monoids: Vec<Monoid>) -> RadixGroupTable {
        let collection_specs = monoids
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_collection())
            .map(|(i, _)| i)
            .collect();
        RadixGroupTable {
            partitions: (0..RADIX_PARTITIONS).map(|_| Vec::new()).collect(),
            monoids,
            collection_specs,
            len_scratch: Vec::new(),
            groups: 0,
        }
    }

    /// Folds one input: finds (or creates) the group of `key` and merges the
    /// per-monoid values. (Serial convenience entry — morsel tag 0.)
    // Invariant: `merge_with` invokes its fold callback exactly once, so the
    // `values.take()` always yields the staged input.
    #[allow(clippy::expect_used)]
    pub fn merge(&mut self, key: Vec<Value>, values: Vec<Value>) {
        // Hash the key components in place — no cloned Value::List per entry.
        let hash = hash_key_components(&key);
        let mut values = Some(values);
        self.merge_with(
            hash,
            |k| k.len() == key.len() && k.iter().zip(&key).all(|(a, b)| a.value_eq(b)),
            || key.clone(),
            0,
            |accumulators, monoids| {
                for ((acc, monoid), value) in accumulators
                    .iter_mut()
                    .zip(monoids)
                    .zip(values.take().expect("fold runs once"))
                {
                    let _ = acc.merge(*monoid, value);
                }
            },
        );
    }

    /// The generic find-or-create fold: locates the group of a pre-hashed
    /// key (`key_eq` compares against a candidate group's stored components)
    /// and hands its accumulators to `fold`. The key is only materialized —
    /// via `make_key` — when the group is first inserted, so callers that
    /// read key components from typed columns or a reused scratch buffer
    /// allocate **nothing** on the per-row path for existing groups.
    ///
    /// `tag` is the caller's morsel index: elements `fold` appends to
    /// collection accumulators are recorded under it, so parallel partials
    /// can later merge in exact serial order (pass 0 when serial).
    pub fn merge_with(
        &mut self,
        hash: u64,
        key_eq: impl Fn(&[Value]) -> bool,
        make_key: impl FnOnce() -> Vec<Value>,
        tag: u64,
        fold: impl FnOnce(&mut [Accumulator], &[Monoid]),
    ) {
        let partition = &mut self.partitions[partition_of(hash)];
        let found = partition
            .iter_mut()
            .find(|entry| entry.hash == hash && key_eq(&entry.key));
        match found {
            Some(entry) => {
                if self.collection_specs.is_empty() {
                    fold(&mut entry.accs, &self.monoids);
                } else {
                    // Tag whatever elements the fold appends: record the
                    // collection lengths before, extend the tag lists after
                    // (a `set` dedup hit appends nothing and tags nothing).
                    self.len_scratch.clear();
                    self.len_scratch.extend(
                        self.collection_specs
                            .iter()
                            .map(|&spec| collection_len(&entry.accs[spec])),
                    );
                    fold(&mut entry.accs, &self.monoids);
                    for (ci, &spec) in self.collection_specs.iter().enumerate() {
                        let added = collection_len(&entry.accs[spec]) - self.len_scratch[ci];
                        entry.tags[ci].extend(std::iter::repeat_n(tag, added));
                    }
                }
            }
            None => {
                let mut accs: Vec<Accumulator> =
                    self.monoids.iter().map(|m| Accumulator::zero(*m)).collect();
                fold(&mut accs, &self.monoids);
                let tags = self
                    .collection_specs
                    .iter()
                    .map(|&spec| vec![tag; collection_len(&accs[spec])])
                    .collect();
                partition.push(GroupEntry {
                    hash,
                    key: make_key(),
                    accs,
                    tags,
                });
                self.groups += 1;
            }
        }
    }

    /// Absorbs another table's partial groups (same monoids): scalar
    /// accumulator states are combined under the monoid's associative ⊕;
    /// collection accumulators merge element-wise in morsel-tag order
    /// (`merge_tagged`), so the result is identical to a serial ingest.
    // Invariant: every group entry carries exactly one tag list per
    // collection spec (enforced at insertion), so the `next().expect` in the
    // spec loop always yields.
    #[allow(clippy::expect_used)]
    pub fn absorb(&mut self, other: RadixGroupTable) {
        debug_assert_eq!(self.monoids, other.monoids);
        for (pid, partition) in other.partitions.into_iter().enumerate() {
            for entry in partition {
                let target = &mut self.partitions[pid];
                let found = target
                    .iter_mut()
                    .find(|e| e.hash == entry.hash && key_components_eq(&e.key, &entry.key));
                match found {
                    Some(existing) => {
                        let GroupEntry {
                            accs: in_accs,
                            tags: in_tags,
                            ..
                        } = entry;
                        // `collection_specs` ascends, so the incoming tag
                        // lists are consumed in spec order.
                        let mut tag_lists = in_tags.into_iter();
                        let mut ci = 0;
                        for (spec, ((acc, monoid), partial)) in existing
                            .accs
                            .iter_mut()
                            .zip(&self.monoids)
                            .zip(in_accs)
                            .enumerate()
                        {
                            if self.collection_specs.get(ci) == Some(&spec) {
                                let Accumulator::Collection(theirs) = partial else {
                                    unreachable!("collection spec holds a scalar accumulator");
                                };
                                let Accumulator::Collection(ours) = acc else {
                                    unreachable!("collection spec holds a scalar accumulator");
                                };
                                let their_tags =
                                    tag_lists.next().expect("tag list per collection spec");
                                merge_tagged(
                                    *monoid,
                                    ours,
                                    &mut existing.tags[ci],
                                    theirs,
                                    their_tags,
                                );
                                ci += 1;
                            } else {
                                let _ = acc.combine(*monoid, partial);
                            }
                        }
                    }
                    None => {
                        target.push(entry);
                        self.groups += 1;
                    }
                }
            }
        }
    }

    /// Number of groups formed.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Finalizes the table into `(key, outputs)` rows. Rows come out in
    /// (partition, key hash) order so serial and parallel executions of the
    /// same query produce the same row order. (Collection elements are
    /// already tag-ordered by [`RadixGroupTable::absorb`]; the tags drop
    /// here.)
    pub fn finish(self) -> Vec<(Vec<Value>, Vec<Value>)> {
        let monoids = self.monoids;
        let mut rows = Vec::with_capacity(self.groups);
        for mut partition in self.partitions {
            partition.sort_by_key(|entry| entry.hash);
            for entry in partition {
                let outputs: Vec<Value> = entry
                    .accs
                    .into_iter()
                    .zip(&monoids)
                    .map(|(acc, monoid)| acc.finish(*monoid))
                    .collect();
                rows.push((entry.key, outputs));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_of(entries: &[(Value, Value)]) -> BuildStore {
        let mut store = BuildStore::new(1, vec![0]);
        for (key, payload) in entries {
            store.push_entry(std::slice::from_ref(key), std::slice::from_ref(payload));
        }
        store
    }

    #[test]
    fn join_table_finds_all_matches() {
        let entries: Vec<(Value, Value)> = (0..1000)
            .map(|i| (Value::Int(i % 100), Value::Int(i)))
            .collect();
        let table = RadixHashTable::build(store_of(&entries));
        assert_eq!(table.len(), 1000);
        let mut matches = Vec::new();
        let count = table.probe_components(&[Value::Int(7)], |e| {
            matches.push(table.store().payload(e)[0].clone())
        });
        assert_eq!(count, 10);
        assert!(matches.iter().all(|v| v.as_int().unwrap() % 100 == 7));
        assert_eq!(table.probe_components(&[Value::Int(500)], |_| {}), 0);
    }

    #[test]
    fn join_table_handles_int_float_key_equivalence() {
        let table = RadixHashTable::build(store_of(&[(Value::Int(3), Value::Int(1))]));
        assert_eq!(table.probe_components(&[Value::Float(3.0)], |_| {}), 1);
        // The numeric fast view is built for the all-int key column.
        assert!(table.store().num_view(0).is_some());
    }

    #[test]
    fn join_table_string_keys() {
        let table = RadixHashTable::build(store_of(&[
            (Value::str("a"), Value::Int(1)),
            (Value::str("b"), Value::Int(2)),
            (Value::str("a"), Value::Int(3)),
        ]));
        assert_eq!(table.probe_components(&[Value::str("a")], |_| {}), 2);
        assert!(table.materialized_bytes() > 0);
        assert!(!table.is_empty());
        // Strings have no numeric view; compares go through the components.
        assert!(table.store().num_view(0).is_none());
    }

    #[test]
    fn probe_reports_entry_ids_in_build_order() {
        let table = RadixHashTable::build(store_of(&[
            (Value::Int(1), Value::Int(10)),
            (Value::Int(2), Value::Int(20)),
            (Value::Int(1), Value::Int(30)),
        ]));
        let mut ids = Vec::new();
        table.probe_components(&[Value::Int(1)], |id| ids.push(id));
        // Duplicate keys match in entry-id (build scan) order.
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(table.store().key_components(2), &[Value::Int(1)]);
    }

    #[test]
    fn multi_key_store_probes_componentwise() {
        let mut store = BuildStore::new(2, vec![0, 2]);
        store.push_entry(
            &[Value::Int(1), Value::str("x")],
            &[Value::Int(10), Value::Int(100)],
        );
        store.push_entry(
            &[Value::Int(1), Value::str("y")],
            &[Value::Int(20), Value::Int(200)],
        );
        let table = RadixHashTable::build(store);
        let mut hits = Vec::new();
        // Numeric component matches through the float view (Int vs Float).
        table.probe_components(&[Value::Float(1.0), Value::str("y")], |e| hits.push(e));
        assert_eq!(hits, vec![1]);
        assert_eq!(table.store().payload(1), &[Value::Int(20), Value::Int(200)]);
        assert_eq!(table.store().live_slots(), &[0, 2]);
        assert_eq!(table.store().arity(), 2);
    }

    #[test]
    fn parallel_build_is_identical_to_serial() {
        // Above the parallel threshold, with duplicate keys so hash ties
        // exercise the stable-ordering contract.
        let entries: Vec<(Value, Value)> = (0..10_000)
            .map(|i| {
                let key = match i % 3 {
                    0 => Value::Int(i % 257),
                    1 => Value::str(format!("k{}", i % 101)),
                    _ => Value::Float((i % 53) as f64 / 2.0),
                };
                (key, Value::Int(i))
            })
            .collect();
        let serial = RadixHashTable::build(store_of(&entries));
        for threads in [2, 3, 8] {
            let parallel = RadixHashTable::build_parallel(store_of(&entries), threads);
            assert_eq!(parallel.len(), serial.len());
            // Partition-for-partition identical (hash, id) clustering.
            assert_eq!(serial.partitions, parallel.partitions, "threads={threads}");
            // Probe match order identical too.
            let mut a = Vec::new();
            serial.probe_components(&[Value::Int(7)], |e| a.push(e));
            let mut b = Vec::new();
            parallel.probe_components(&[Value::Int(7)], |e| b.push(e));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn small_or_serial_parallel_build_falls_back() {
        let entries: Vec<(Value, Value)> =
            (0..100).map(|i| (Value::Int(i), Value::Int(i))).collect();
        let table = RadixHashTable::build_parallel(store_of(&entries), 4);
        assert_eq!(table.len(), 100);
        assert_eq!(table.probe_components(&[Value::Int(42)], |_| {}), 1);
    }

    #[test]
    fn push_taken_moves_values_and_matches_push_entry() {
        let mut a = BuildStore::new(1, vec![0]);
        a.push_entry(&[Value::str("k")], &[Value::Int(1)]);
        let mut key = vec![Value::str("k")];
        let mut payload = vec![Value::Int(1)];
        let mut b = BuildStore::new(1, vec![0]);
        b.push_taken(hash_key_components(&key), &mut key, &mut payload);
        assert_eq!(a.hashes, b.hashes);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.payload, b.payload);
        // The donor buffers were drained to nulls.
        assert_eq!(key, vec![Value::Null]);
    }

    #[test]
    fn group_table_aggregates_per_key() {
        let mut table = RadixGroupTable::new(vec![Monoid::Count, Monoid::Sum]);
        for i in 0..100i64 {
            table.merge(vec![Value::Int(i % 4)], vec![Value::Int(1), Value::Int(i)]);
        }
        assert_eq!(table.group_count(), 4);
        let rows = table.finish();
        assert_eq!(rows.len(), 4);
        let total_count: i64 = rows.iter().map(|(_, outs)| outs[0].as_int().unwrap()).sum();
        assert_eq!(total_count, 100);
        let total_sum: i64 = rows.iter().map(|(_, outs)| outs[1].as_int().unwrap()).sum();
        assert_eq!(total_sum, (0..100).sum::<i64>());
    }

    #[test]
    fn group_table_multi_column_keys() {
        let mut table = RadixGroupTable::new(vec![Monoid::Count]);
        table.merge(vec![Value::Int(1), Value::str("x")], vec![Value::Int(1)]);
        table.merge(vec![Value::Int(1), Value::str("y")], vec![Value::Int(1)]);
        table.merge(vec![Value::Int(1), Value::str("x")], vec![Value::Int(1)]);
        assert_eq!(table.group_count(), 2);
    }

    #[test]
    fn key_component_hash_is_consistent_with_componentwise_equality() {
        // Int/Float numeric equivalence must collide, like Value::stable_hash.
        assert_eq!(
            hash_key_components(&[Value::Int(3), Value::str("a")]),
            hash_key_components(&[Value::Float(3.0), Value::str("a")]),
        );
        // Order matters.
        assert_ne!(
            hash_key_components(&[Value::Int(1), Value::Int(2)]),
            hash_key_components(&[Value::Int(2), Value::Int(1)]),
        );
    }

    #[test]
    fn absorb_equals_single_table_fold() {
        let mut whole = RadixGroupTable::new(vec![Monoid::Count, Monoid::Sum]);
        let mut left = RadixGroupTable::new(vec![Monoid::Count, Monoid::Sum]);
        let mut right = RadixGroupTable::new(vec![Monoid::Count, Monoid::Sum]);
        for i in 0..200i64 {
            let key = vec![Value::Int(i % 7)];
            let values = vec![Value::Int(1), Value::Int(i)];
            whole.merge(key.clone(), values.clone());
            if i % 2 == 0 {
                left.merge(key, values);
            } else {
                right.merge(key, values);
            }
        }
        left.absorb(right);
        assert_eq!(left.group_count(), whole.group_count());
        assert_eq!(left.finish(), whole.finish());
    }

    #[test]
    fn empty_group_table_finishes_empty() {
        let table = RadixGroupTable::new(vec![Monoid::Max]);
        assert_eq!(table.group_count(), 0);
        assert!(table.finish().is_empty());
    }

    #[test]
    fn matched_bitmap_word_boundaries() {
        // Entry counts straddling the 64-entry word boundary, including the
        // exact-multiple case where the final word must not be clamped.
        for entries in [1usize, 63, 64, 65, 127, 128, 129] {
            let bitmap = MatchedBitmap::new(entries);
            let matched: Vec<usize> = (0..entries).filter(|e| e % 3 == 0).collect();
            for &e in &matched {
                bitmap.set(e);
            }
            for e in 0..entries {
                assert_eq!(bitmap.get(e), e % 3 == 0, "entries={entries} bit {e}");
            }
            let expected: Vec<u32> = (0..entries as u32).filter(|e| e % 3 != 0).collect();
            let mut unmatched = Vec::new();
            bitmap.for_each_unmatched(entries, |e| unmatched.push(e));
            assert_eq!(unmatched, expected, "entries={entries}");
        }
    }
}
