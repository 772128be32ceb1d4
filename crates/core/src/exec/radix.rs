//! Hash join and hash grouping.
//!
//! §5.1: "Proteus uses hash-based algorithms for the join and grouping
//! operators, namely variations of the radix hash join algorithm. While parts
//! of the join implementation are indeed generated at runtime, other parts,
//! like clustering the materialized entries based on their hash values, are
//! wrapped in a C++ function." The same split exists here: key extraction is
//! a compiled closure (or a typed-column reader) per query; the machinery
//! below is ordinary pre-existing library code invoked by the generated
//! pipeline.
//!
//! * **Join** ([`RadixHashTable`]): a columnar [`BuildStore`] behind an
//!   open-addressed index of its entry ids (`IdIndex`, one slot per distinct
//!   hash, repeats chained behind it); nothing is scattered or sorted to be
//!   indexed, and entries of one key match in entry-id order.
//! * **Grouping** ([`RadixGroupTable`]): flat per-group arenas (hash, key
//!   components, accumulators) behind the same index, of group ids — an O(1)
//!   find-or-create per row. The only radix left is the *emission order*:
//!   groups leave in `(hash & 63, hash)` order ([`GROUP_EMIT_RADIX_BITS`]),
//!   the order every ordered comparison in the suites was pinned on.

use proteus_algebra::monoid::Accumulator;
use proteus_algebra::{Monoid, Value};

/// Low key-hash bits that lead the emission order of a [`RadixGroupTable`]:
/// groups leave sorted by `(hash & 63, hash)`. Nothing is partitioned on
/// these bits — lookup is one open-addressed index — but result order is
/// part of the engine's contract (serial ≡ parallel row for row), so the
/// order stays the one the suites compare against.
pub const GROUP_EMIT_RADIX_BITS: u32 = 6;

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
}

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
        // Hash + chain link + index slots, key components, live payload values
        // (Value ≈ 16 B).
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

/// Marks a free slot of an [`IdIndex`].
const EMPTY_SLOT: u32 = u32::MAX;

/// The open-addressed index both tables find their ids through: a
/// power-of-two array of ids probed linearly from `hash & mask`, at load ≤ ½
/// so every probe sequence ends at a free slot. The hashes stay in the
/// owner's arena and are passed in.
struct IdIndex {
    slots: Vec<u32>,
}

impl IdIndex {
    /// Indexes the ids `0..hashes.len()` in `slot_count` slots (a power of
    /// two, at least twice as many). Without a `chain` every id takes a slot
    /// of its own. With one (an entry per id) ids of equal hash share a slot,
    /// so a hash held by many ids lengthens no probe sequence: the slot holds
    /// the lowest and `chain[id]` is the next higher id of that hash
    /// (`EMPTY_SLOT` after the last). Ids go in descending, each the new head.
    fn build(slot_count: usize, hashes: &[u64], mut chain: Option<&mut [u32]>) -> IdIndex {
        debug_assert!(hashes.len() < EMPTY_SLOT as usize);
        let mut index = IdIndex {
            slots: vec![EMPTY_SLOT; slot_count],
        };
        for (id, &hash) in hashes.iter().enumerate().rev() {
            let (Ok(slot) | Err(slot)) = index.walk(hashes, hash, |_| chain.is_some());
            if let Some(chain) = &mut chain {
                chain[id] = index.slots[slot];
            }
            index.slots[slot] = id as u32;
        }
        index
    }

    /// Walks the probe sequence of `hash`, offering `accept` every indexed id
    /// whose stored hash equals `hash`: the slot of the first id it accepts,
    /// or the free slot that ends the sequence.
    #[inline]
    fn walk(
        &self,
        hashes: &[u64],
        hash: u64,
        mut accept: impl FnMut(usize) -> bool,
    ) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY_SLOT {
                return Err(slot);
            }
            if hashes[id as usize] == hash && accept(id as usize) {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The index's invariants over the ids `0..hashes.len()` (and the
    /// `chain` it was built with), armed by `debug_assertions` only: a
    /// power-of-two slot count, load at most ½, each id in exactly one slot or
    /// chain, slots found along their hash's probe sequence, chains ascending
    /// within one hash.
    fn check_invariants(&self, hashes: &[u64], chain: Option<&[u32]>) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(self.slots.len().is_power_of_two());
        assert!(hashes.len() * 2 <= self.slots.len(), "index load above 1/2");
        let mut reached = 0;
        for (slot, &head) in self.slots.iter().enumerate() {
            if head == EMPTY_SLOT {
                continue;
            }
            let mut id = head as usize;
            // A chained index holds one id per hash: the first met is this one.
            let found = self.walk(hashes, hashes[id], |met| chain.is_some() || met == id);
            assert_eq!(found, Ok(slot), "id {id} unreachable");
            reached += 1;
            while let Some(&next) = chain.map(|c| &c[id]).filter(|&&n| n != EMPTY_SLOT) {
                let ordered = next as usize > id && hashes[next as usize] == hashes[id];
                assert!(ordered, "chain of id {id} descends or mixes hashes");
                (id, reached) = (next as usize, reached + 1);
            }
        }
        assert_eq!(reached, hashes.len(), "indexed ids != ids");
    }
}

/// The join hash table: a columnar [`BuildStore`] behind an `IdIndex` of
/// its entry ids, built in one pass over the stored hashes — no entry data
/// moves. The index holds one entry per distinct hash and `next` chains the
/// others behind it in entry-id (build scan) order, so build and probe stay
/// linear however often a key repeats: a probe walks distinct hashes only,
/// then the chain of its own.
pub struct RadixHashTable {
    store: BuildStore,
    index: IdIndex,
    /// Per entry: the next higher entry id of the same hash (`EMPTY_SLOT`
    /// after the last).
    next: Vec<u32>,
}

/// How many probe rows the batched join loops run ahead of themselves when
/// issuing cache prefetches (index slots and payload entries). Shared by the
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

impl RadixHashTable {
    /// Builds the table: indexes the store's entry ids by their key hash.
    pub fn build(mut store: BuildStore) -> RadixHashTable {
        store.build_num_views();
        let mut next = vec![EMPTY_SLOT; store.len()];
        let slot_count = (store.len() * 2).next_power_of_two();
        let index = IdIndex::build(slot_count, &store.hashes, Some(&mut next));
        index.check_invariants(&store.hashes, Some(&next));
        RadixHashTable { store, index, next }
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

    /// Probes with a precomputed key hash: walks the hash's probe sequence to
    /// the first entry stored under that hash and follows its chain, calling
    /// `key_eq(entry id)` to confirm each entry and `on_match` for every
    /// confirmed one (in entry-id order).
    /// Returns the number of matches. The caller supplies the compare — typed
    /// probe lanes and hydrated `Value` keys share this entry point.
    pub fn probe_hashed(
        &self,
        hash: u64,
        mut key_eq: impl FnMut(u32) -> bool,
        mut on_match: impl FnMut(u32),
    ) -> usize {
        let Ok(slot) = self.index.walk(&self.store.hashes, hash, |_| true) else {
            return 0;
        };
        let mut matches = 0;
        let mut entry = self.index.slots[slot];
        while entry != EMPTY_SLOT {
            if key_eq(entry) {
                on_match(entry);
                matches += 1;
            }
            entry = self.next[entry as usize];
        }
        matches
    }

    /// Hints the CPU to pull the index slot a future probe of `hash` starts
    /// at into cache. The kernel probe path hashes whole morsels up front,
    /// so it can issue these a fixed lookahead ahead of the probe loop (the
    /// per-row closure fallback has no precomputed hashes to look ahead
    /// with). No-op outside x86-64.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        let slots = &self.index.slots;
        prefetch_ptr(&slots[hash as usize & (slots.len() - 1)]);
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

/// Kind tag of a [`KeyLane`]: the component is null.
const LANE_NULL: u8 = 0;
/// Kind tag of a [`KeyLane`]: the component is a boolean (`bits` is 0 or 1).
const LANE_BOOL: u8 = 1;
/// Kind tag of a [`KeyLane`]: the component is numeric (`bits` is the bit
/// pattern of its `f64` view).
const LANE_NUM: u8 = 2;
/// Kind tag of a [`KeyLane`]: anything else (`bits` is the component's
/// [`Value::stable_hash`]); equal lanes still need a `value_eq` on the values.
const LANE_OTHER: u8 = 3;

/// The flat compare lane of one group-key component, stored beside the
/// `Value` keys of a [`RadixGroupTable`] (what [`BuildStore::num_view`] is to
/// joins). Two components are [`Value::value_eq`] only if their lanes are
/// equal, and for nulls, booleans and numerics equal lanes are also
/// *sufficient*: `f64::total_cmp` calls two floats equal exactly when their
/// bit patterns are, so comparing `bits` reproduces the float-view compare
/// (`Int(3)` ≡ `Float(3.0)`, `-0.0` ≠ `+0.0`, NaN by bits, ints collapsing
/// above 2⁵³). Strings and nested values carry their stable hash and are
/// confirmed against the stored `Value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLane {
    bits: u64,
    kind: u8,
}

impl KeyLane {
    /// The lane of a null component.
    pub const NULL: KeyLane = KeyLane {
        bits: 0,
        kind: LANE_NULL,
    };

    /// The lane of a boolean component.
    #[inline]
    pub fn bool(b: bool) -> KeyLane {
        KeyLane {
            bits: b as u64,
            kind: LANE_BOOL,
        }
    }

    /// The lane of a numeric component, from its float view.
    #[inline]
    pub fn num(float_view: f64) -> KeyLane {
        KeyLane {
            bits: float_view.to_bits(),
            kind: LANE_NUM,
        }
    }

    /// The lane of a string or nested component, from its
    /// [`Value::stable_hash`].
    #[inline]
    pub fn other(stable_hash: u64) -> KeyLane {
        KeyLane {
            bits: stable_hash,
            kind: LANE_OTHER,
        }
    }

    /// The lane of a hydrated component.
    pub fn of(value: &Value) -> KeyLane {
        match value {
            Value::Null => KeyLane::NULL,
            Value::Bool(b) => KeyLane::bool(*b),
            Value::Int(i) => KeyLane::num(*i as f64),
            Value::Float(f) => KeyLane::num(*f),
            Value::Date(d) => KeyLane::num(*d as f64),
            other => KeyLane::other(other.stable_hash()),
        }
    }

    /// Whether equal lanes leave the values still to be compared.
    #[inline]
    fn needs_value_eq(self) -> bool {
        self.kind == LANE_OTHER
    }
}

/// Lane-wise key compare: every stored lane equals its probe lane, and the
/// components whose lanes cannot decide (`other_eq(component)`) agree too.
#[inline]
fn lanes_match(
    stored: &[KeyLane],
    probe: &[KeyLane],
    mut other_eq: impl FnMut(usize) -> bool,
) -> bool {
    stored
        .iter()
        .zip(probe)
        .enumerate()
        .all(|(comp, (s, p))| s == p && (!p.needs_value_eq() || other_eq(comp)))
}

/// Slots a fresh group index starts with (room for 32 groups at load ½).
const INITIAL_INDEX_SLOTS: usize = 64;

/// The grouping (aggregation) hash table: the runtime of the `nest`
/// operator. In a morsel-parallel pipeline every worker folds into a private
/// table and the partials are [`absorb`](RadixGroupTable::absorb)ed in
/// worker order at the end.
///
/// Group state is flat: a group is its id, and everything about it lives in
/// dense arenas indexed by that id — the key hash, `arity` key components
/// (as `Value`s and as [`KeyLane`]s), one accumulator per monoid, and (only
/// when a collection monoid is present) one morsel-tag list per collection
/// output. Lookup goes through an `IdIndex` of group ids (rebuilt from the
/// stored hashes on growth), so finding a row's group costs O(1) whatever the
/// group count.
/// The closure tier ([`merge_with`](RadixGroupTable::merge_with)), the typed
/// ingest ([`resolve_lanes`](RadixGroupTable::resolve_lanes)) and `absorb`
/// all resolve groups through that one index.
pub struct RadixGroupTable {
    arity: usize,
    monoids: Vec<Monoid>,
    /// Indices of the collection-monoid output specs (ascending), whose
    /// per-element morsel tags are tracked for order-exact parallel merge.
    collection_specs: Vec<usize>,
    /// The group ids, by key hash.
    index: IdIndex,
    /// Per group: the key hash.
    hashes: Vec<u64>,
    /// Flattened key components: group `g` at `g*arity .. (g+1)*arity`.
    keys: Vec<Value>,
    /// Flattened compare lanes, parallel to `keys`.
    lanes: Vec<KeyLane>,
    /// Flattened accumulators: group `g` at `g*m .. (g+1)*m`, `m` monoids.
    accs: Vec<Accumulator>,
    /// Flattened per-collection-spec tag lists (group `g`, collection spec
    /// `ci` at `g*c + ci`, `c` collection specs; empty without any): the
    /// morsel tag of each accumulated element, in accumulator order. What
    /// lets grouped `bag`/`set`/`list` outputs run morsel-parallel:
    /// [`RadixGroupTable::absorb`] merges the element lists in tag order,
    /// reproducing the serial ingest order exactly.
    tags: Vec<Vec<u64>>,
    /// Running number of elements held by collection accumulators (what the
    /// memory budget sees of grouped `bag`/`set`/`list` outputs).
    collected: u64,
    /// Reused buffer for pre-fold collection lengths (the per-row path
    /// allocates nothing for existing groups).
    len_scratch: Vec<usize>,
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
    /// Creates a table for keys of `arity` components whose per-group
    /// accumulators follow `monoids`.
    pub fn new(arity: usize, monoids: Vec<Monoid>) -> RadixGroupTable {
        let collection_specs = monoids
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_collection())
            .map(|(i, _)| i)
            .collect();
        RadixGroupTable {
            arity,
            monoids,
            collection_specs,
            index: IdIndex::build(INITIAL_INDEX_SLOTS, &[], None),
            hashes: Vec::new(),
            keys: Vec::new(),
            lanes: Vec::new(),
            accs: Vec::new(),
            tags: Vec::new(),
            collected: 0,
            len_scratch: Vec::new(),
        }
    }

    /// The per-group monoids (the stride of [`RadixGroupTable::accs_mut`]).
    pub fn monoids(&self) -> &[Monoid] {
        &self.monoids
    }

    /// Number of groups formed.
    pub fn group_count(&self) -> usize {
        self.hashes.len()
    }

    /// The flat accumulator arena: group `g`, output spec `s` at
    /// `g * monoids().len() + s`. The columnwise kernel folds write scalar
    /// accumulators here directly; collection accumulators must go through
    /// [`RadixGroupTable::fold_group`], which tags what it appends.
    pub fn accs_mut(&mut self) -> &mut [Accumulator] {
        &mut self.accs
    }

    /// Estimated bytes held by the table, at `value_cost` bytes per stored
    /// `Value`/accumulator. O(1): arena and index lengths plus the running
    /// count of collected elements (each with its 8-byte morsel tag) — never
    /// a walk over the groups.
    pub fn approx_bytes(&self, value_cost: u64) -> u64 {
        (self.keys.len() + self.accs.len()) as u64 * value_cost
            + self.hashes.len() as u64 * 8
            + (self.lanes.len() * std::mem::size_of::<KeyLane>()) as u64
            + self.index.slots.len() as u64 * 4
            + self.collected * (value_cost + 8)
    }

    /// Makes room for one more group, doubling the index (rebuilt from the
    /// stored hashes) when its load would pass ½.
    #[inline]
    fn reserve_one(&mut self) {
        if (self.hashes.len() + 1) * 2 > self.index.slots.len() {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        self.index = IdIndex::build(self.index.slots.len() * 2, &self.hashes, None);
        self.check_invariants();
    }

    /// Claims `slot` for a new group of `hash` whose key components and
    /// lanes the caller has just appended (its accumulators and tag lists
    /// are the caller's to append too).
    fn claim(&mut self, slot: usize, hash: u64) -> u32 {
        let gid = self.hashes.len();
        debug_assert!(gid < EMPTY_SLOT as usize);
        debug_assert_eq!(self.keys.len(), (gid + 1) * self.arity);
        debug_assert_eq!(self.lanes.len(), (gid + 1) * self.arity);
        self.index.slots[slot] = gid as u32;
        self.hashes.push(hash);
        gid as u32
    }

    /// [`claim`](RadixGroupTable::claim) for a group first seen by an
    /// ingest: its accumulators start at the monoids' zeros.
    fn claim_zeroed(&mut self, slot: usize, hash: u64) -> u32 {
        self.accs
            .extend(self.monoids.iter().map(|m| Accumulator::zero(*m)));
        self.tags
            .extend(self.collection_specs.iter().map(|_| Vec::new()));
        self.claim(slot, hash)
    }

    /// The generic find-or-create: the id of the group of a pre-hashed key
    /// (`key_eq` compares against a candidate group's stored components).
    /// The key is only materialized — `push_key` appends its `arity`
    /// components to the key arena — when the group is first inserted, so
    /// callers that read key components from a reused scratch buffer
    /// allocate **nothing** on the per-row path for existing groups.
    fn resolve_with(
        &mut self,
        hash: u64,
        key_eq: impl Fn(&[Value]) -> bool,
        push_key: impl FnOnce(&mut Vec<Value>),
    ) -> u32 {
        self.reserve_one();
        let arity = self.arity;
        match self.index.walk(&self.hashes, hash, |g| {
            key_eq(&self.keys[g * arity..(g + 1) * arity])
        }) {
            Ok(slot) => self.index.slots[slot],
            Err(slot) => {
                let start = self.keys.len();
                push_key(&mut self.keys);
                self.lanes
                    .extend(self.keys[start..].iter().map(KeyLane::of));
                self.claim_zeroed(slot, hash)
            }
        }
    }

    /// The typed find-or-create: the id of the group whose stored lanes
    /// equal `probe` (one lane per component), with `other_eq(component,
    /// stored value)` confirming the string/nested components lanes cannot
    /// decide. `push_key` appends the key's components to the key arena on
    /// first insertion; their lanes are `probe` itself.
    #[inline]
    pub fn resolve_lanes(
        &mut self,
        hash: u64,
        probe: &[KeyLane],
        other_eq: impl Fn(usize, &Value) -> bool,
        push_key: impl FnOnce(&mut Vec<Value>),
    ) -> u32 {
        debug_assert_eq!(probe.len(), self.arity);
        self.reserve_one();
        let arity = self.arity;
        let found = self.index.walk(&self.hashes, hash, |g| {
            let base = g * arity;
            lanes_match(&self.lanes[base..base + arity], probe, |comp| {
                other_eq(comp, &self.keys[base + comp])
            })
        });
        match found {
            Ok(slot) => self.index.slots[slot],
            Err(slot) => {
                let start = self.keys.len();
                push_key(&mut self.keys);
                debug_assert!(self.keys[start..]
                    .iter()
                    .map(KeyLane::of)
                    .eq(probe.iter().copied()));
                self.lanes.extend_from_slice(probe);
                self.claim_zeroed(slot, hash)
            }
        }
    }

    /// Hands group `gid`'s accumulators to `fold`. `tag` is the caller's
    /// morsel index: elements `fold` appends to collection accumulators are
    /// recorded under it, so parallel partials can later merge in exact
    /// serial order (pass 0 when serial).
    #[inline]
    pub fn fold_group(
        &mut self,
        gid: u32,
        tag: u64,
        fold: impl FnOnce(&mut [Accumulator], &[Monoid]),
    ) {
        let stride = self.monoids.len();
        let base = gid as usize * stride;
        let accs = &mut self.accs[base..base + stride];
        if self.collection_specs.is_empty() {
            fold(accs, &self.monoids);
            return;
        }
        // Tag whatever elements the fold appends: record the collection
        // lengths before, extend the tag lists after (a `set` dedup hit
        // appends nothing and tags nothing).
        self.len_scratch.clear();
        self.len_scratch.extend(
            self.collection_specs
                .iter()
                .map(|&spec| collection_len(&accs[spec])),
        );
        fold(accs, &self.monoids);
        let tag_base = gid as usize * self.collection_specs.len();
        for (ci, &spec) in self.collection_specs.iter().enumerate() {
            let added = collection_len(&accs[spec]) - self.len_scratch[ci];
            self.tags[tag_base + ci].extend(std::iter::repeat_n(tag, added));
            self.collected += added as u64;
        }
    }

    /// The generic find-or-create fold (the closure tier's per-row entry):
    /// locates the group of a pre-hashed key — `key_eq` compares against a
    /// candidate group's stored components, `push_key` appends the key's
    /// `arity` components to the key arena if the group is new — and hands
    /// its accumulators to `fold` under morsel tag `tag`
    /// ([`RadixGroupTable::fold_group`]).
    pub fn merge_with(
        &mut self,
        hash: u64,
        key_eq: impl Fn(&[Value]) -> bool,
        push_key: impl FnOnce(&mut Vec<Value>),
        tag: u64,
        fold: impl FnOnce(&mut [Accumulator], &[Monoid]),
    ) {
        let gid = self.resolve_with(hash, key_eq, push_key);
        self.fold_group(gid, tag, fold);
    }

    /// Folds one input: finds (or creates) the group of `key` and merges the
    /// per-monoid values. (Serial convenience over
    /// [`RadixGroupTable::merge_with`] — morsel tag 0.)
    pub fn merge(&mut self, key: Vec<Value>, values: Vec<Value>) {
        // Hash the key components in place — no cloned Value::List per entry.
        let hash = hash_key_components(&key);
        self.merge_with(
            hash,
            |stored| key_components_eq(stored, &key),
            |arena| arena.extend(key.iter().cloned()),
            0,
            |accumulators, monoids| {
                for ((acc, monoid), value) in accumulators.iter_mut().zip(monoids).zip(values) {
                    let _ = acc.merge(*monoid, value);
                }
            },
        );
    }

    /// Absorbs another table's partial groups (same arity and monoids),
    /// moving them out of its arenas: scalar accumulator states are combined
    /// under the monoid's associative ⊕; collection accumulators merge
    /// element-wise in morsel-tag order (`merge_tagged`), so the result is
    /// identical to a serial ingest.
    // Invariant: every group carries exactly one tag list per collection
    // spec (enforced at insertion), so the `next().expect` in the spec loop
    // always yields.
    #[allow(clippy::expect_used)]
    pub fn absorb(&mut self, other: RadixGroupTable) {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert_eq!(self.monoids, other.monoids);
        let arity = self.arity;
        let stride = self.monoids.len();
        let tag_stride = self.collection_specs.len();
        self.collected += other.collected;
        let mut in_keys = other.keys.into_iter();
        let mut in_accs = other.accs.into_iter();
        let mut in_tags = other.tags.into_iter();
        for (in_gid, hash) in other.hashes.into_iter().enumerate() {
            self.reserve_one();
            let in_lanes = &other.lanes[in_gid * arity..(in_gid + 1) * arity];
            let in_key = &in_keys.as_slice()[..arity];
            let found = self.index.walk(&self.hashes, hash, |g| {
                let base = g * arity;
                lanes_match(&self.lanes[base..base + arity], in_lanes, |comp| {
                    self.keys[base + comp].value_eq(&in_key[comp])
                })
            });
            match found {
                Ok(slot) => {
                    let gid = self.index.slots[slot] as usize;
                    in_keys.by_ref().take(arity).for_each(drop);
                    let base = gid * stride;
                    let mut ci = 0;
                    for (spec, partial) in in_accs.by_ref().take(stride).enumerate() {
                        let monoid = self.monoids[spec];
                        let acc = &mut self.accs[base + spec];
                        if !monoid.is_collection() {
                            let _ = acc.combine(monoid, partial);
                            continue;
                        }
                        let (Accumulator::Collection(ours), Accumulator::Collection(theirs)) =
                            (acc, partial)
                        else {
                            unreachable!("collection spec holds a scalar accumulator");
                        };
                        let their_tags = in_tags.next().expect("tag list per collection spec");
                        let offered = (ours.len() + theirs.len()) as u64;
                        let our_tags = &mut self.tags[gid * tag_stride + ci];
                        merge_tagged(monoid, ours, our_tags, theirs, their_tags);
                        // A `set` merge may drop duplicates both sides held.
                        self.collected -= offered - ours.len() as u64;
                        ci += 1;
                    }
                }
                Err(slot) => {
                    self.keys.extend(in_keys.by_ref().take(arity));
                    self.lanes.extend_from_slice(in_lanes);
                    self.accs.extend(in_accs.by_ref().take(stride));
                    self.tags.extend(in_tags.by_ref().take(tag_stride));
                    self.claim(slot, hash);
                }
            }
        }
        self.check_invariants();
    }

    /// The table's structural invariants, armed by `debug_assertions` only
    /// (CI's `release-debug-assertions` job runs them on the optimized
    /// paths): after every index rebuild and every `absorb`, the arenas hold
    /// exactly `groups × stride` elements and the index holds every group id
    /// ([`IdIndex::check_invariants`]).
    fn check_invariants(&self) {
        let groups = self.hashes.len();
        debug_assert_eq!(self.keys.len(), groups * self.arity);
        debug_assert_eq!(self.lanes.len(), groups * self.arity);
        debug_assert_eq!(self.accs.len(), groups * self.monoids.len());
        debug_assert_eq!(self.tags.len(), groups * self.collection_specs.len());
        self.index.check_invariants(&self.hashes, None);
    }

    /// Finalizes the table into one `T` per group: `row(key components,
    /// finished outputs)` may move the values out of the two slices. Rows
    /// leave in `(hash & 63, hash)` order (ties in group-id order), so
    /// serial and parallel executions of the same query produce the same row
    /// order. (Collection elements are already tag-ordered by
    /// [`RadixGroupTable::absorb`]; the tags drop here.)
    pub fn into_rows<T>(self, mut row: impl FnMut(&mut [Value], &mut [Value]) -> T) -> Vec<T> {
        let (arity, stride) = (self.arity, self.monoids.len());
        // Rotating the low radix bits to the top makes one integer compare
        // order by (hash & 63, hash).
        let mut order: Vec<(u64, u32)> = self
            .hashes
            .iter()
            .enumerate()
            .map(|(gid, hash)| (hash.rotate_right(GROUP_EMIT_RADIX_BITS), gid as u32))
            .collect();
        order.sort_unstable();
        let mut keys = self.keys;
        let mut outputs: Vec<Value> = self
            .accs
            .into_iter()
            .zip(self.monoids.iter().cycle())
            .map(|(acc, monoid)| acc.finish(*monoid))
            .collect();
        order
            .into_iter()
            .map(|(_, gid)| {
                let g = gid as usize;
                row(
                    &mut keys[g * arity..(g + 1) * arity],
                    &mut outputs[g * stride..(g + 1) * stride],
                )
            })
            .collect()
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

    /// The oracle: a nested loop over every entry — ids whose stored hash
    /// and key components both equal the probe's, in entry-id order.
    fn naive_matches(store: &BuildStore, hash: u64, key: &[Value]) -> Vec<u32> {
        (0..store.len() as u32)
            .filter(|&e| store.hashes[e as usize] == hash)
            .filter(|&e| key_components_eq(store.key_components(e), key))
            .collect()
    }

    /// What the table reports for `key` probed under `hash`.
    fn probe_ids(table: &RadixHashTable, hash: u64, key: &[Value]) -> Vec<u32> {
        let mut ids = Vec::new();
        let count = table.probe_hashed(
            hash,
            |e| key_components_eq(table.store().key_components(e), key),
            |e| ids.push(e),
        );
        assert_eq!(count, ids.len());
        ids
    }

    #[test]
    fn heavy_duplicates_match_in_ascending_build_order() {
        // One key on 1 200 entries, interleaved with 300 distinct ones: the
        // duplicates form one chain behind one slot, met in entry-id order.
        let entries: Vec<(Value, Value)> = (0..1_500i64)
            .map(|i| {
                let key = if i % 5 == 0 { i } else { -1 };
                (Value::Int(key), Value::Int(i))
            })
            .collect();
        let table = RadixHashTable::build(store_of(&entries));
        for key in [-1i64, 0, 5, 1_495, 7] {
            let key = [Value::Int(key)];
            let hash = hash_key_components(&key);
            let expected = naive_matches(table.store(), hash, &key);
            assert_eq!(probe_ids(&table, hash, &key), expected, "key {key:?}");
        }
        let heavy = [Value::Int(-1)];
        let ids = probe_ids(&table, hash_key_components(&heavy), &heavy);
        assert_eq!(ids.len(), 1_200);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn repeated_keys_lengthen_no_probe_sequence() {
        // 120 000 entries on 8 keys: a probe — hit or miss — must not walk
        // the copies. They take 8 slots of the index; the rest is chains.
        let entries: Vec<(Value, Value)> = (0..120_000i64)
            .map(|i| (Value::Int(i % 8), Value::Int(i)))
            .collect();
        let table = RadixHashTable::build(store_of(&entries));
        let occupied = table.index.slots.iter().filter(|&&id| id != EMPTY_SLOT);
        assert_eq!(occupied.count(), 8);
        for key in [0i64, 7, 8, -1] {
            let key = [Value::Int(key)];
            let hash = hash_key_components(&key);
            let expected = naive_matches(table.store(), hash, &key);
            assert_eq!(probe_ids(&table, hash, &key), expected, "key {key:?}");
        }
        // Misses end within the 8 occupied slots, whatever the hash.
        let steps_to_miss = |hash: u64| {
            let home = hash as usize & (table.index.slots.len() - 1);
            let end = table
                .index
                .walk(&table.store.hashes, hash, |_| unreachable!());
            end.unwrap_err().wrapping_sub(home) & (table.index.slots.len() - 1)
        };
        assert!((1_000u64..3_000)
            .all(|miss| steps_to_miss(miss.wrapping_mul(0x9E37_79B9_7F4A_7C15)) <= 8));
    }

    #[test]
    fn one_home_slot_and_a_wrapping_probe_sequence() {
        // Six entries → a 16-slot index. Every hash ends in 0xF, so all four
        // distinct hashes start at the last slot and the sequence wraps to
        // slots 0..3; entries 1 and 4 share hash and key, 2 and 5 share a
        // hash but not a key — each pair is one slot plus a chain link.
        let hashes: Vec<u64> = vec![0x1F, 0x2F, 0x3F, 0x4F, 0x2F, 0x3F];
        let keys: Vec<Value> = [10, 20, 30, 40, 20, 31].map(Value::Int).to_vec();
        let payload: Vec<Value> = (0..6).map(Value::Int).collect();
        let store = BuildStore::from_parts(1, vec![0], hashes.clone(), keys.clone(), payload);
        let table = RadixHashTable::build(store);
        assert_eq!(table.index.slots.len(), 16);
        assert_eq!(table.index.slots[15], 2);
        assert_eq!(table.index.slots[..4], [1, 3, 0, EMPTY_SLOT]);
        const END: u32 = EMPTY_SLOT;
        assert_eq!(table.next, [END, 4, 5, END, END, END]);
        for hash in [0x1F, 0x2F, 0x3F, 0x4F, 0x5F, 0x0F, 0x20] {
            for key in keys.iter().chain(&[Value::Int(99)]) {
                let key = std::slice::from_ref(key);
                let expected = naive_matches(table.store(), hash, key);
                assert_eq!(probe_ids(&table, hash, key), expected, "{hash:#x} {key:?}");
            }
        }
        assert_eq!(probe_ids(&table, 0x2F, &[Value::Int(20)]), vec![1, 4]);
        assert_eq!(probe_ids(&table, 0x3F, &[Value::Int(31)]), vec![5]);
        table.prefetch(0x2F);
    }

    #[test]
    fn empty_and_one_entry_stores() {
        let empty = RadixHashTable::build(BuildStore::new(1, vec![0]));
        assert!(empty.is_empty());
        assert_eq!(
            empty.probe_components(&[Value::Int(1)], |_| unreachable!()),
            0
        );
        empty.prefetch(u64::MAX);

        let one = RadixHashTable::build(store_of(&[(Value::str("k"), Value::Int(1))]));
        assert_eq!(one.len(), 1);
        assert_eq!(one.index.slots.len(), 2);
        let mut ids = Vec::new();
        assert_eq!(one.probe_components(&[Value::str("k")], |e| ids.push(e)), 1);
        assert_eq!(ids, vec![0]);
        assert_eq!(
            one.probe_components(&[Value::str("j")], |_| unreachable!()),
            0
        );
    }

    #[test]
    fn numeric_and_null_keys_probe_like_value_eq() {
        let keys = [
            Value::Int(3),
            Value::Null,
            Value::Float(3.0),
            Value::str("3"),
            Value::Null,
            Value::Float(2.5),
        ];
        let entries: Vec<(Value, Value)> =
            keys.iter().cloned().zip((0..).map(Value::Int)).collect();
        let table = RadixHashTable::build(store_of(&entries));
        for probe in keys.iter().chain(&[Value::Int(2), Value::Bool(true)]) {
            let probe = std::slice::from_ref(probe);
            let expected = naive_matches(table.store(), hash_key_components(probe), probe);
            let mut ids = Vec::new();
            table.probe_components(probe, |e| ids.push(e));
            assert_eq!(ids, expected, "probe {probe:?}");
        }
        // `Int(3)` ≡ `Float(3.0)`, through either spelling; null keys are
        // stored and found like any other (`value_eq`: null ≡ null).
        for three in [Value::Int(3), Value::Float(3.0)] {
            let mut ids = Vec::new();
            table.probe_components(&[three], |e| ids.push(e));
            assert_eq!(ids, vec![0, 2]);
        }
        let mut nulls = Vec::new();
        table.probe_components(&[Value::Null], |e| nulls.push(e));
        assert_eq!(nulls, vec![1, 4]);
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

    /// The finished groups of a table, in emission order.
    fn rows_of(table: RadixGroupTable) -> Vec<(Vec<Value>, Vec<Value>)> {
        table.into_rows(|key, outputs| (key.to_vec(), outputs.to_vec()))
    }

    /// The oracle: groups found by a linear `value_eq` scan over every key
    /// seen so far (no hashing at all), emitted in `(hash & 63, hash)` order.
    struct Oracle {
        monoids: Vec<Monoid>,
        groups: Vec<(Vec<Value>, Vec<Accumulator>)>,
    }

    impl Oracle {
        fn new(monoids: &[Monoid]) -> Oracle {
            Oracle {
                monoids: monoids.to_vec(),
                groups: Vec::new(),
            }
        }

        /// Folds one input; returns the group's id (first-sight order).
        fn merge(&mut self, key: &[Value], values: &[Value]) -> usize {
            let gid = match self
                .groups
                .iter()
                .position(|(k, _)| key_components_eq(k, key))
            {
                Some(gid) => gid,
                None => {
                    let zeros = self.monoids.iter().map(|m| Accumulator::zero(*m));
                    self.groups.push((key.to_vec(), zeros.collect()));
                    self.groups.len() - 1
                }
            };
            for ((acc, monoid), value) in
                self.groups[gid].1.iter_mut().zip(&self.monoids).zip(values)
            {
                acc.merge(*monoid, value.clone()).unwrap();
            }
            gid
        }

        fn rows(self) -> Vec<(Vec<Value>, Vec<Value>)> {
            let monoids = self.monoids;
            let mut groups = self.groups;
            // Stable: hash ties keep first-sight order, like group ids do.
            groups.sort_by_key(|(key, _)| {
                let hash = hash_key_components(key);
                (hash & 63, hash)
            });
            groups
                .into_iter()
                .map(|(key, accs)| {
                    let outputs = accs.into_iter().zip(&monoids).map(|(a, m)| a.finish(*m));
                    (key, outputs.collect())
                })
                .collect()
        }
    }

    /// The group id `key` resolves to through the hydrated-key entry.
    fn resolve_value(table: &mut RadixGroupTable, key: &[Value]) -> u32 {
        table.resolve_with(
            hash_key_components(key),
            |stored| key_components_eq(stored, key),
            |arena| arena.extend(key.iter().cloned()),
        )
    }

    /// The group id `key` resolves to through the lane entry (what the
    /// typed ingest calls), lanes rendered from the hydrated components.
    fn resolve_lane(table: &mut RadixGroupTable, key: &[Value]) -> u32 {
        let lanes: Vec<KeyLane> = key.iter().map(KeyLane::of).collect();
        table.resolve_lanes(
            hash_key_components(key),
            &lanes,
            |comp, stored| stored.value_eq(&key[comp]),
            |arena| arena.extend(key.iter().cloned()),
        )
    }

    #[test]
    fn group_table_aggregates_per_key() {
        let mut table = RadixGroupTable::new(1, vec![Monoid::Count, Monoid::Sum]);
        for i in 0..100i64 {
            table.merge(vec![Value::Int(i % 4)], vec![Value::Int(1), Value::Int(i)]);
        }
        assert_eq!(table.group_count(), 4);
        let rows = rows_of(table);
        assert_eq!(rows.len(), 4);
        let total_count: i64 = rows.iter().map(|(_, outs)| outs[0].as_int().unwrap()).sum();
        assert_eq!(total_count, 100);
        let total_sum: f64 = rows
            .iter()
            .map(|(_, outs)| outs[1].as_float().unwrap())
            .sum();
        assert_eq!(total_sum, (0..100).sum::<i64>() as f64);
    }

    #[test]
    fn group_table_multi_column_keys_match_the_oracle() {
        let monoids = [Monoid::Count, Monoid::Max];
        for arity in [2usize, 3] {
            let mut table = RadixGroupTable::new(arity, monoids.to_vec());
            let mut oracle = Oracle::new(&monoids);
            for i in 0..500i64 {
                let mut key = vec![
                    Value::Int(i % 7),
                    Value::str(format!("s{}", i % 3)),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    },
                ];
                key.truncate(arity);
                let values = vec![Value::Int(1), Value::Int(i)];
                oracle.merge(&key, &values);
                table.merge(key, values);
            }
            assert_eq!(table.group_count(), oracle.groups.len());
            assert_eq!(rows_of(table), oracle.rows(), "arity {arity}");
        }
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
    fn forced_full_hash_collisions_keep_different_keys_apart() {
        // `merge_with` and `resolve_lanes` take the hash, so every key below
        // shares one full 64-bit hash: one probe chain, told apart by the
        // key compare alone.
        let keys: Vec<Value> = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Float(2.5),
            Value::str("1"),
            Value::str("one"),
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
        ];
        let count = |acc: &mut [Accumulator], monoids: &[Monoid]| {
            acc[0].merge(monoids[0], Value::Int(1)).unwrap();
        };
        let mut table = RadixGroupTable::new(1, vec![Monoid::Count]);
        for round in 0..3 {
            for (i, key) in keys.iter().enumerate() {
                let key = std::slice::from_ref(key);
                if (round + i) % 2 == 0 {
                    table.merge_with(
                        42,
                        |stored| key_components_eq(stored, key),
                        |arena| arena.extend(key.iter().cloned()),
                        0,
                        count,
                    );
                } else {
                    let lane = [KeyLane::of(&key[0])];
                    let gid = table.resolve_lanes(
                        42,
                        &lane,
                        |_, stored| stored.value_eq(&key[0]),
                        |arena| arena.extend(key.iter().cloned()),
                    );
                    table.fold_group(gid, 0, count);
                }
            }
        }
        assert_eq!(table.group_count(), keys.len());
        // Equal hashes: emission falls back to group-id (first-sight) order.
        let rows = rows_of(table);
        for ((key, outputs), expected) in rows.iter().zip(&keys) {
            assert!(key[0].value_eq(expected), "{key:?} vs {expected:?}");
            assert_eq!(outputs, &[Value::Int(3)]);
        }
    }

    #[test]
    fn equal_string_lanes_still_need_the_value_compare() {
        // A string lane carries a 64-bit hash: equal lanes are necessary,
        // not sufficient — the stored value has the last word. Null, bool
        // and numeric lanes decide alone and never ask.
        let text = [KeyLane::of(&Value::str("left"))];
        assert!(lanes_match(&text, &text, |_| true));
        assert!(!lanes_match(&text, &text, |_| false));
        let decided = [
            KeyLane::of(&Value::Int(3)),
            KeyLane::NULL,
            KeyLane::bool(true),
        ];
        assert!(lanes_match(&decided, &decided, |_| unreachable!()));
        assert_eq!(KeyLane::of(&Value::Float(3.0)), decided[0]);
        assert_ne!(KeyLane::of(&Value::Int(1)), decided[2]);
        assert_ne!(KeyLane::of(&Value::Int(0)), KeyLane::NULL);
        assert_ne!(
            KeyLane::of(&Value::str("left")),
            KeyLane::of(&Value::str("right"))
        );
    }

    #[test]
    fn growth_across_index_rebuilds_keeps_ids_and_accumulators() {
        const GROUPS: i64 = 20_000;
        let mut table = RadixGroupTable::new(2, vec![Monoid::Count, Monoid::Sum]);
        let key_of = |i: i64| vec![Value::Int(i), Value::str(format!("g{}", i % 11))];
        let mut ids = Vec::new();
        for i in 0..GROUPS {
            let key = key_of(i);
            // Alternate the two find-or-create entries: both go through the
            // same index and must agree on ids.
            let gid = if i % 2 == 0 {
                resolve_value(&mut table, &key)
            } else {
                resolve_lane(&mut table, &key)
            };
            assert_eq!(gid as i64, i, "ids are dense, in first-sight order");
            table.fold_group(gid, 0, |accs, monoids| {
                accs[0].merge(monoids[0], Value::Int(1)).unwrap();
                accs[1].merge(monoids[1], Value::Int(i)).unwrap();
            });
            ids.push(gid);
        }
        // 64 slots at birth, load ≤ ½: 20 000 groups took ten rebuilds.
        assert_eq!(table.index.slots.len(), 65_536);
        assert_eq!(table.group_count(), GROUPS as usize);
        // Every key still resolves to the id it was given before the
        // rebuilds, through either entry, and no group is created.
        for i in (0..GROUPS).rev() {
            let key = key_of(i);
            assert_eq!(resolve_lane(&mut table, &key), ids[i as usize]);
            assert_eq!(resolve_value(&mut table, &key), ids[i as usize]);
        }
        assert_eq!(table.group_count(), GROUPS as usize);
        table.check_invariants();
        let rows = rows_of(table);
        assert_eq!(rows.len(), GROUPS as usize);
        for (key, outputs) in rows {
            let i = key[0].as_int().unwrap();
            assert_eq!(key, key_of(i));
            assert_eq!(outputs, vec![Value::Int(1), Value::Int(i)]);
        }
    }

    #[test]
    fn numeric_null_and_bool_keys_group_like_value_eq() {
        const TWO_53: i64 = 1 << 53;
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        let keys = vec![
            Value::Int(3),
            Value::Float(3.0), // ≡ Int(3)
            Value::Date(3),    // ≡ Int(3)
            Value::Float(0.0),
            Value::Float(-0.0), // ≠ +0.0
            Value::Int(0),      // ≡ +0.0
            Value::Float(nan),
            Value::Float(other_nan), // NaN by bits: a group of its own
            Value::Float(nan),
            Value::Null,
            Value::Null, // ≡ null
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(1),          // ≠ Bool(true)
            Value::Int(TWO_53),     // the float view collapses the next int…
            Value::Int(TWO_53 + 1), // …onto this one, as `value_eq` does
            Value::Float(TWO_53 as f64),
            Value::Int(TWO_53 + 2), // representable: a group of its own
            Value::str("3"),        // ≠ Int(3)
        ];
        // Sanity of the table above against `value_eq` itself.
        assert!(Value::Int(TWO_53).value_eq(&Value::Int(TWO_53 + 1)));
        assert!(!Value::Float(0.0).value_eq(&Value::Float(-0.0)));
        assert!(!Value::Float(nan).value_eq(&Value::Float(other_nan)));

        let monoids = [Monoid::Count];
        for entry in [resolve_value, resolve_lane] {
            let mut table = RadixGroupTable::new(1, monoids.to_vec());
            let mut oracle = Oracle::new(&monoids);
            for key in &keys {
                let key = std::slice::from_ref(key);
                let expected = oracle.merge(key, &[Value::Int(1)]);
                let gid = entry(&mut table, key);
                assert_eq!(gid as usize, expected, "key {key:?}");
                table.fold_group(gid, 0, |accs, m| {
                    accs[0].merge(m[0], Value::Int(1)).unwrap();
                });
            }
            assert_eq!(oracle.groups.len(), 12);
            // Through `Debug`: NaN keys are not `==` themselves.
            assert_eq!(
                format!("{:?}", rows_of(table)),
                format!("{:?}", oracle.rows())
            );
        }
    }

    /// Splits a fixed input over `partials` worker tables morsel by morsel
    /// (16 rows a morsel, dealt round-robin — each worker's tags ascend, as
    /// in the pipeline), absorbs them in worker order, and compares with the
    /// single table that ingested every row in order.
    fn absorb_matches_single_table(monoids: &[Monoid], partials: usize) {
        let mut whole = RadixGroupTable::new(2, monoids.to_vec());
        let mut parts: Vec<RadixGroupTable> = (0..partials)
            .map(|_| RadixGroupTable::new(2, monoids.to_vec()))
            .collect();
        for i in 0..600i64 {
            let morsel = (i / 16) as u64;
            let key = vec![Value::Int(i % 13), Value::str(format!("k{}", i % 2))];
            // Values with repeats, so `set` has something to drop.
            let values: Vec<Value> = monoids
                .iter()
                .map(|m| match m {
                    Monoid::And | Monoid::Or => Value::Bool(i % 9 == 0),
                    _ => Value::Int(i % 9),
                })
                .collect();
            let hash = hash_key_components(&key);
            for table in [&mut whole, &mut parts[morsel as usize % partials]] {
                table.merge_with(
                    hash,
                    |stored| key_components_eq(stored, &key),
                    |arena| arena.extend(key.iter().cloned()),
                    morsel,
                    |accs, monoids| {
                        for ((acc, monoid), value) in accs.iter_mut().zip(monoids).zip(&values) {
                            acc.merge(*monoid, value.clone()).unwrap();
                        }
                    },
                );
            }
        }
        let mut parts = parts.into_iter();
        let mut merged = parts.next().unwrap();
        for part in parts {
            merged.absorb(part);
        }
        assert_eq!(merged.group_count(), whole.group_count());
        assert_eq!(merged.collected, whole.collected, "{monoids:?} x{partials}");
        assert_eq!(
            merged.approx_bytes(48) - merged.index.slots.len() as u64 * 4,
            whole.approx_bytes(48) - whole.index.slots.len() as u64 * 4,
        );
        assert_eq!(rows_of(merged), rows_of(whole), "{monoids:?} x{partials}");
    }

    #[test]
    fn absorb_equals_single_table_fold() {
        for partials in [1, 2, 4] {
            absorb_matches_single_table(&[Monoid::Count, Monoid::Sum, Monoid::Min], partials);
            absorb_matches_single_table(&[Monoid::Bag], partials);
            absorb_matches_single_table(&[Monoid::Set], partials);
            absorb_matches_single_table(&[Monoid::List], partials);
            absorb_matches_single_table(
                &[Monoid::Avg, Monoid::Set, Monoid::Or, Monoid::Bag],
                partials,
            );
        }
    }

    #[test]
    fn emission_order_is_radix_then_hash() {
        let mut table = RadixGroupTable::new(2, vec![Monoid::Count]);
        for i in 0..24i64 {
            table.merge(
                vec![Value::Int(i), Value::str(format!("k{}", i % 5))],
                vec![Value::Int(1)],
            );
        }
        let rows = rows_of(table);
        let order: Vec<i64> = rows.iter().map(|(k, _)| k[0].as_int().unwrap()).collect();
        // Pinned: the order the 64-list table of PRs 1–17 produced for this
        // input — sorted by (hash & 63, hash).
        assert_eq!(
            order,
            [
                8, 16, 1, 13, 9, 12, 7, 17, 0, 21, 19, 14, 10, 4, 3, 15, 20, 5, 23, 6, 18, 22, 11,
                2
            ]
        );
        let hashes: Vec<u64> = rows.iter().map(|(k, _)| hash_key_components(k)).collect();
        assert!(hashes
            .windows(2)
            .all(|w| (w[0] & 63, w[0]) < (w[1] & 63, w[1])));
    }

    #[test]
    fn approx_bytes_sees_arity_monoids_and_collected_elements() {
        let fill = |arity: usize, monoids: Vec<Monoid>| {
            let mut table = RadixGroupTable::new(arity, monoids.clone());
            for i in 0..1_000i64 {
                table.merge(
                    vec![Value::Int(i % 4); arity],
                    vec![Value::Int(i); monoids.len()],
                );
            }
            table
        };
        let narrow = fill(1, vec![Monoid::Count]);
        let wide = fill(3, vec![Monoid::Count, Monoid::Sum, Monoid::Max]);
        assert!(wide.approx_bytes(48) > narrow.approx_bytes(48));
        // Four groups whatever the row count — but a bag holds every row.
        let bag = fill(1, vec![Monoid::Bag]);
        assert_eq!(bag.collected, 1_000);
        assert!(bag.approx_bytes(48) >= 1_000 * (48 + 8));
        // A set holds the distinct values only.
        let mut set = RadixGroupTable::new(1, vec![Monoid::Set]);
        for i in 0..1_000i64 {
            set.merge(vec![Value::Int(0)], vec![Value::Int(i % 10)]);
        }
        assert_eq!(set.collected, 10);
    }

    #[test]
    fn empty_group_table_finishes_empty() {
        let table = RadixGroupTable::new(1, vec![Monoid::Max]);
        assert_eq!(table.group_count(), 0);
        assert!(rows_of(table).is_empty());
    }

    #[test]
    fn keyless_table_holds_one_group() {
        let mut table = RadixGroupTable::new(0, vec![Monoid::Count]);
        let mut other = RadixGroupTable::new(0, vec![Monoid::Count]);
        for _ in 0..5 {
            table.merge(vec![], vec![Value::Int(1)]);
            other.merge(vec![], vec![Value::Int(1)]);
        }
        table.absorb(other);
        assert_eq!(rows_of(table), vec![(vec![], vec![Value::Int(10)])]);
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
