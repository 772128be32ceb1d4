//! Hash join and hash grouping.
//!
//! §5.1: "Proteus uses hash-based algorithms for the join and grouping
//! operators, namely variations of the radix hash join algorithm. While parts
//! of the join implementation are indeed generated at runtime, other parts,
//! like clustering the materialized entries based on their hash values, are
//! wrapped in a C++ function." The same split exists here: key extraction is
//! a compiled closure (or a typed-column reader) per query; the machinery
//! below is ordinary pre-existing library code invoked by the generated
//! pipeline. Key and payload access is specialised to the data's own layout
//! the way the paper generates it: a slot the build scan filled typed stays
//! a typed lane in the store, is compared lane to lane by the probe and
//! leaves the probe as a typed column.
//!
//! * **One key store** ([`BuildStore`]): a key component is kept in a
//!   [`StoreColumn`] — typed lanes where the scan filled the slot typed,
//!   `Value`s for strings and closure keys — beside one hash per entry, and
//!   compared by one rule ([`key_eq`], lane to lane, lane to `Value` or
//!   `Value` to `Value`) under one parameter, the null rule: a null joins
//!   nothing ([`JOIN_NULLS`]) but groups with a null ([`GROUP_NULLS`]).
//! * **Join** ([`RadixHashTable`]): the store, one column per key component
//!   and live payload slot, behind an open-addressed index of its entry ids
//!   (`IdIndex`, one slot per distinct hash, repeats chained behind it);
//!   nothing is scattered or sorted to be indexed, and entries of one key
//!   match in entry-id order.
//! * **Grouping** ([`RadixGroupTable`]): one typed lane per kernel spec
//!   ([`AggLane`]) and accumulators for the rest, indexed by group id. Ids
//!   come from the same index over a key-only store — entry `g` is group
//!   `g`'s key — through one find-or-create per row
//!   ([`RadixGroupTable::resolve`]), or, when the compiler bounded every
//!   key ([`DenseKey`]), are the key's offset in a dense id space that
//!   stores no key at all. The only radix left is the *emission order*:
//!   groups leave in `(hash & 63, hash)` order ([`GROUP_EMIT_RADIX_BITS`]),
//!   the order every ordered comparison in the suites was pinned on.

use std::cmp::Ordering;

use proteus_algebra::monoid::Accumulator;
use proteus_algebra::{Monoid, Value};
use proteus_plugins::{TypedColumn, TypedKind};

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

/// The null rule of the key compares for an equi-join key: a null equals
/// nothing, not even another null (`null = null` is false), so a row with a
/// null key component matches no row of the other side.
pub const JOIN_NULLS: bool = false;

/// The null rule of the key compares for a group-by key: a null equals a
/// null, so null keys form one group.
pub const GROUP_NULLS: bool = true;

/// The one key compare: whether a stored key component and a probe one are
/// the same key. Non-null components compare by [`Value::value_eq`] —
/// numerics through their float view, so `Int(3)` ≡ `Float(3.0)`, `-0.0` ≠
/// `+0.0`, NaN equals NaN of the same bits, and ints above 2⁵³ merge where
/// their float views do. A null equals a null only when `nulls_equal`
/// ([`GROUP_NULLS`]); under [`JOIN_NULLS`] it equals nothing.
#[inline]
pub fn key_eq(stored: &Value, probe: &Value, nulls_equal: bool) -> bool {
    null_rule(stored.is_null(), probe.is_null(), nulls_equal)
        .unwrap_or_else(|| stored.value_eq(probe))
}

/// The null rule of every key compare: the verdict when either component
/// is null, `None` when both are values to compare.
#[inline]
fn null_rule(a_null: bool, b_null: bool, nulls_equal: bool) -> Option<bool> {
    (a_null || b_null).then_some(nulls_equal && a_null && b_null)
}

/// A numeric lane's float view (what [`Value::value_eq`] compares), `None`
/// for a boolean or string lane.
#[inline]
fn float_view(col: &TypedColumn, i: usize) -> Option<f64> {
    match col.kind() {
        TypedKind::I64 => Some(col.i64_values()[i] as f64),
        TypedKind::F64 => Some(col.f64_values()[i]),
        TypedKind::Bool | TypedKind::Str => None,
    }
}

/// [`key_eq`] between entry `i` of lane `a` and entry `j` of lane `b`,
/// without a `Value`: numerics by their float views' `total_cmp`, booleans
/// by value, and a numeric never equals a boolean. (No store keeps string
/// lanes: a typed string meets a stored one through
/// [`lane_value_key_eq`].)
#[inline]
fn lane_key_eq(a: &TypedColumn, i: usize, b: &TypedColumn, j: usize, nulls_equal: bool) -> bool {
    debug_assert!(a.kind() != TypedKind::Str || b.kind() != TypedKind::Str);
    null_rule(a.is_null(i), b.is_null(j), nulls_equal).unwrap_or_else(|| {
        match (a.kind(), b.kind()) {
            (TypedKind::Bool, TypedKind::Bool) => a.bool_values()[i] == b.bool_values()[j],
            _ => match (float_view(a, i), float_view(b, j)) {
                (Some(x), Some(y)) => x.total_cmp(&y) == Ordering::Equal,
                _ => false,
            },
        }
    })
}

/// [`key_eq`] between entry `i` of a lane and a `Value` — what `key_eq`
/// says of `col.value_at(i)` — without rendering the lane.
#[inline]
fn lane_value_key_eq(col: &TypedColumn, i: usize, value: &Value, nulls_equal: bool) -> bool {
    null_rule(col.is_null(i), value.is_null(), nulls_equal).unwrap_or_else(|| {
        match (col.kind(), value) {
            (TypedKind::Bool, Value::Bool(b)) => col.bool_values()[i] == *b,
            (TypedKind::Str, Value::Str(s)) => {
                let (ids, pool) = col.str_parts();
                *pool[ids[i] as usize] == **s
            }
            (TypedKind::I64 | TypedKind::F64, v) if v.is_numeric() => match float_view(col, i) {
                Some(x) => x.total_cmp(&v.as_float().unwrap_or(f64::NAN)) == Ordering::Equal,
                None => false,
            },
            _ => false,
        }
    })
}

/// One column of a [`BuildStore`]: a key component or a live payload slot,
/// one value per entry, in the representation the build scan handed over.
#[derive(Debug, Clone)]
pub enum StoreColumn {
    /// Typed lanes (`I64`, `F64` or `Bool`, with null words): a slot the
    /// build scan filled typed. No entry of it is ever a `Value`.
    Lanes(TypedColumn),
    /// Everything else: strings, closure-evaluated keys, nested values.
    Values(Vec<Value>),
}

impl StoreColumn {
    /// Whether a slot filled typed as `kind` is stored as lanes: `I64`,
    /// `F64` and `Bool` are; strings are kept as `Value`s (a store pools no
    /// strings).
    pub fn is_lane_kind(kind: TypedKind) -> bool {
        matches!(kind, TypedKind::I64 | TypedKind::F64 | TypedKind::Bool)
    }

    /// An empty column: lanes of `kind` when it is a lane kind
    /// ([`StoreColumn::is_lane_kind`]), `Value`s otherwise.
    pub fn new(kind: Option<TypedKind>) -> StoreColumn {
        match kind {
            Some(kind) if StoreColumn::is_lane_kind(kind) => {
                StoreColumn::Lanes(TypedColumn::new(kind))
            }
            _ => StoreColumn::Values(Vec::new()),
        }
    }

    /// The lane kind of a typed column, `None` for a `Value` column.
    pub fn kind(&self) -> Option<TypedKind> {
        match self {
            StoreColumn::Lanes(lanes) => Some(lanes.kind()),
            StoreColumn::Values(_) => None,
        }
    }

    fn len(&self) -> usize {
        match self {
            StoreColumn::Lanes(lanes) => lanes.len(),
            StoreColumn::Values(values) => values.len(),
        }
    }

    /// Appends the entries of a column of the same representation.
    fn append(&mut self, other: StoreColumn) {
        match (self, other) {
            (StoreColumn::Lanes(lanes), StoreColumn::Lanes(other)) => lanes.append(&other),
            (StoreColumn::Values(values), StoreColumn::Values(mut other)) => {
                values.append(&mut other)
            }
            _ => unreachable!("build chunks of one store share their column kinds"),
        }
    }

    /// Bytes one entry of a column of `kind` holds: 8 for an `i64` / `f64`
    /// lane, 1 for a boolean one, `value_bytes` for a `Value`.
    fn entry_bytes(kind: Option<TypedKind>, value_bytes: u64) -> u64 {
        match kind {
            Some(TypedKind::Bool) => 1,
            Some(TypedKind::I64 | TypedKind::F64) => 8,
            _ => value_bytes,
        }
    }

    /// Whether entry `entry` and row `row` of a typed probe column are one
    /// key ([`key_eq`] under the given null rule).
    #[inline]
    pub(crate) fn eq_lane(
        &self,
        entry: u32,
        probe: &TypedColumn,
        row: usize,
        nulls_equal: bool,
    ) -> bool {
        match self {
            StoreColumn::Lanes(lanes) => {
                lane_key_eq(probe, row, lanes, entry as usize, nulls_equal)
            }
            StoreColumn::Values(values) => {
                lane_value_key_eq(probe, row, &values[entry as usize], nulls_equal)
            }
        }
    }

    /// Whether entry `entry` and a hydrated probe component are one key
    /// ([`key_eq`] under the given null rule).
    #[inline]
    pub(crate) fn eq_value(&self, entry: u32, probe: &Value, nulls_equal: bool) -> bool {
        match self {
            StoreColumn::Lanes(lanes) => {
                lane_value_key_eq(lanes, entry as usize, probe, nulls_equal)
            }
            StoreColumn::Values(values) => key_eq(&values[entry as usize], probe, nulls_equal),
        }
    }

    /// Whether entry `entry` and entry `theirs` of a column of the same
    /// representation are one key ([`key_eq`] under the given null rule).
    fn eq_entry(&self, entry: u32, other: &StoreColumn, theirs: u32, nulls_equal: bool) -> bool {
        match (self, other) {
            (StoreColumn::Lanes(ours), StoreColumn::Lanes(other)) => {
                lane_key_eq(ours, entry as usize, other, theirs as usize, nulls_equal)
            }
            (StoreColumn::Values(ours), StoreColumn::Values(other)) => {
                key_eq(&ours[entry as usize], &other[theirs as usize], nulls_equal)
            }
            _ => unreachable!("comparing store columns of two kinds"),
        }
    }

    /// Appends rows `rows` of a typed column: gathered into lanes, or
    /// rendered as `Value`s (a string slot).
    pub(crate) fn extend_rows(&mut self, src: &TypedColumn, rows: &[u32]) {
        match self {
            StoreColumn::Lanes(lanes) => lanes.extend_gathered(src, rows),
            StoreColumn::Values(values) => {
                values.extend(rows.iter().map(|&r| src.value_at(r as usize)))
            }
        }
    }

    /// Appends a `Value` to a `Value` column (a closure-evaluated key).
    fn push_value(&mut self, value: Value) {
        match self {
            StoreColumn::Values(values) => values.push(value),
            StoreColumn::Lanes(_) => unreachable!("a closure key into a lane column"),
        }
    }

    /// Appends entry `entry` of a column of the same representation.
    fn push_from(&mut self, other: &StoreColumn, entry: u32) {
        match (self, other) {
            (StoreColumn::Lanes(ours), StoreColumn::Lanes(other)) => {
                ours.extend_gathered(other, &[entry])
            }
            (StoreColumn::Values(ours), StoreColumn::Values(other)) => {
                ours.push(other[entry as usize].clone())
            }
            _ => unreachable!("moving an entry across store column kinds"),
        }
    }

    /// Entry `entry` as a [`Value`], moved out of a `Value` column (the
    /// group table's emit, which reads each entry once).
    fn take_value(&mut self, entry: u32) -> Value {
        match self {
            StoreColumn::Lanes(lanes) => lanes.value_at(entry as usize),
            StoreColumn::Values(values) => {
                std::mem::replace(&mut values[entry as usize], Value::Null)
            }
        }
    }
}

/// The columnar build side of a radix hash join — and, with key columns
/// only, the key store of a [`RadixGroupTable`]'s hashed ids.
///
/// One column per key component and one per *live* payload slot (the build
/// slots something downstream of the join reads), plus the precomputed key
/// hash per entry, all indexed by entry id. A column keeps the
/// representation the build scan filled the slot in ([`StoreColumn`]): typed
/// lanes for `I64` / `F64` / `Bool` slots, `Value`s for the rest — so a
/// typed slot never becomes a `Value` between the build scan and the probe
/// output. Workers fill one store per run of consecutive morsels; the runs
/// are joined in morsel order (`BuildStore::append`).
#[derive(Debug)]
pub struct BuildStore {
    /// Build-binding slot index of each stored payload column (ascending).
    live_slots: Vec<usize>,
    /// Per entry: the key hash ([`hash_key_components`] of the components).
    hashes: Vec<u64>,
    keys: Vec<StoreColumn>,
    payload: Vec<StoreColumn>,
}

impl BuildStore {
    /// Empty store for keys of `arity` components storing the given build
    /// slots, every column of `Value`s (the closure-tier shape; tests and
    /// benches fill it through [`BuildStore::push_entry`]).
    pub fn new(arity: usize, live_slots: Vec<usize>) -> BuildStore {
        let key_kinds = vec![None; arity];
        let payload_kinds = vec![None; live_slots.len()];
        BuildStore::with_kinds(&key_kinds, live_slots, &payload_kinds)
    }

    /// Empty store whose key components and payload columns (parallel to
    /// `live_slots`) take the given lane kinds ([`StoreColumn::new`]).
    pub fn with_kinds(
        key_kinds: &[Option<TypedKind>],
        live_slots: Vec<usize>,
        payload_kinds: &[Option<TypedKind>],
    ) -> BuildStore {
        debug_assert_eq!(live_slots.len(), payload_kinds.len());
        BuildStore {
            live_slots,
            hashes: Vec::new(),
            keys: key_kinds.iter().map(|&k| StoreColumn::new(k)).collect(),
            payload: payload_kinds.iter().map(|&k| StoreColumn::new(k)).collect(),
        }
    }

    /// Appends one entry to an all-`Value` store, hashing and cloning its
    /// components (test and bench convenience; the pipeline fills the
    /// columns a morsel at a time).
    pub fn push_entry(&mut self, key: &[Value], payload: &[Value]) {
        debug_assert_eq!(key.len(), self.arity());
        debug_assert_eq!(payload.len(), self.live_slots.len());
        self.hashes.push(hash_key_components(key));
        for (col, value) in self
            .keys
            .iter_mut()
            .chain(&mut self.payload)
            .zip(key.iter().chain(payload))
        {
            col.push_value(value.clone());
        }
    }

    /// The per-entry key hashes, for the ingest to extend.
    pub(crate) fn hashes_mut(&mut self) -> &mut Vec<u64> {
        &mut self.hashes
    }

    /// Key component `comp`'s column, for the ingest to extend.
    pub(crate) fn key_mut(&mut self, comp: usize) -> &mut StoreColumn {
        &mut self.keys[comp]
    }

    /// Payload column `col` (parallel to [`BuildStore::live_slots`]), for
    /// the ingest to extend.
    pub(crate) fn payload_mut(&mut self, col: usize) -> &mut StoreColumn {
        &mut self.payload[col]
    }

    /// Makes room for `additional` more entries in every column.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.hashes.reserve(additional);
        for col in self.keys.iter_mut().chain(&mut self.payload) {
            match col {
                StoreColumn::Lanes(lanes) => lanes.reserve(additional),
                StoreColumn::Values(values) => values.reserve(additional),
            }
        }
    }

    /// Appends `other`'s entries after this store's (the morsel-ordered join
    /// of the workers' chunks; both stores have the same column kinds).
    pub(crate) fn append(&mut self, other: BuildStore) {
        self.hashes.extend_from_slice(&other.hashes);
        for (col, other) in self.keys.iter_mut().zip(other.keys) {
            col.append(other);
        }
        for (col, other) in self.payload.iter_mut().zip(other.payload) {
            col.append(other);
        }
        self.check_lengths();
    }

    /// Every column holds one value per entry (armed by `debug_assertions`).
    fn check_lengths(&self) {
        debug_assert!(self
            .keys
            .iter()
            .chain(&self.payload)
            .all(|col| col.len() == self.hashes.len()));
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
        self.keys.len()
    }

    /// The stored build-binding slots, in payload-column order.
    pub fn live_slots(&self) -> &[usize] {
        &self.live_slots
    }

    /// Key component `comp`'s column.
    #[inline]
    pub fn key(&self, comp: usize) -> &StoreColumn {
        &self.keys[comp]
    }

    /// The payload columns, parallel to [`BuildStore::live_slots`].
    pub fn payload(&self) -> &[StoreColumn] {
        &self.payload
    }

    /// Whether entry `entry`'s key equals a hydrated probe key (the closure
    /// tier's compare): componentwise [`key_eq`] under the null rule
    /// ([`JOIN_NULLS`] or [`GROUP_NULLS`]).
    pub fn key_eq_values(&self, entry: u32, key: &[Value], nulls_equal: bool) -> bool {
        self.keys.len() == key.len()
            && self
                .keys
                .iter()
                .zip(key)
                .all(|(col, probe)| col.eq_value(entry, probe, nulls_equal))
    }

    /// Whether entry `entry`'s key equals entry `theirs` of a store with the
    /// same key columns: componentwise [`key_eq`], column to column.
    fn key_eq_entry(&self, entry: u32, other: &BuildStore, theirs: u32, nulls_equal: bool) -> bool {
        self.keys
            .iter()
            .zip(&other.keys)
            .all(|(ours, other)| ours.eq_entry(entry, other, theirs, nulls_equal))
    }

    /// Approximate bytes materialized by the build side (for metrics): per
    /// entry 16 for the hash, its chain link and its share of the index,
    /// plus each column's value — 8 for an `i64` / `f64` lane, 1 for a
    /// boolean one, 16 for a `Value`.
    pub fn materialized_bytes(&self) -> u64 {
        self.len() as u64
            * BuildStore::entry_cost(
                self.keys.iter().chain(&self.payload).map(StoreColumn::kind),
                16,
            )
    }

    /// Bytes one entry of a store whose columns have these kinds costs: 16
    /// for the hash, its chain link and its share of the index, plus each
    /// column's value, a `Value` counted at `value_bytes` (the memory
    /// budget charges its own estimate).
    pub fn entry_cost(kinds: impl IntoIterator<Item = Option<TypedKind>>, value_bytes: u64) -> u64 {
        16 + kinds
            .into_iter()
            .map(|kind| StoreColumn::entry_bytes(kind, value_bytes))
            .sum::<u64>()
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
    pub fn build(store: BuildStore) -> RadixHashTable {
        store.check_lengths();
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
            |entry| self.store.key_eq_values(entry, key, JOIN_NULLS),
            on_match,
        )
    }

    /// Approximate bytes materialized by the build side (for metrics).
    pub fn materialized_bytes(&self) -> u64 {
        self.store.materialized_bytes()
    }
}

/// Slots a fresh group index starts with (room for 32 groups at load ½).
const INITIAL_INDEX_SLOTS: usize = 64;

/// Most slots a dense group state may span (see [`DenseKey`]).
pub const DENSE_MAX_SLOTS: u64 = 65_536;

/// The compile-time bound of one dense group-key component: an `i64` key
/// whose values all lie in `min..=max` (its zone-map totals), plus one slot
/// for null when the map counts nulls. With every key bounded, a group's id
/// is the mixed-radix offset of its key — `(g − g_min)·h_span + (h − h_min)`
/// for two keys — so finding a row's group needs no hash, no index walk and
/// no stored key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseKey {
    /// Smallest key value.
    pub min: i64,
    /// Largest key value.
    pub max: i64,
    /// Whether null keys get the slot after `max`.
    pub nullable: bool,
}

impl DenseKey {
    /// Slots this component spans: its values, then the null slot.
    pub fn span(&self) -> usize {
        (self.max - self.min) as usize + 1 + usize::from(self.nullable)
    }

    /// The key of digit `digit`, as `TypedColumn::value_at` renders the lane.
    fn value_of(&self, digit: usize) -> Value {
        if self.nullable && digit + 1 == self.span() {
            Value::Null
        } else {
            Value::Int(self.min + digit as i64)
        }
    }
}

/// The typed shape of a kernel-classified output spec's group state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// `count`: an `i64` per group.
    Count,
    /// `sum`: a running `f64` per group.
    Sum,
    /// `avg`: a running `f64` sum and a `u64` count per group.
    Avg,
    /// `max` (`max: true`) or `min`: the extreme — the `i64` when the input
    /// is integral (`int`), else the `f64` — plus a presence bit per group.
    Extreme {
        /// `max` rather than `min`.
        max: bool,
        /// The input expression is integral.
        int: bool,
    },
    /// `or` (`or: true`) or `and`: a running boolean per group.
    Bool {
        /// `or` rather than `and`.
        or: bool,
    },
}

/// The group state of one kernel-classified output spec: a flat lane
/// indexed by group id. Each variant reproduces its monoid's
/// [`Accumulator`] bit for bit: `RenderedAggs::fold_groups` is its
/// `merge`, absorbing a partial's lane is its `combine`, and finishing a
/// group is its `finish`.
pub enum AggLane {
    /// `count`.
    Count(Vec<i64>),
    /// `sum`.
    Sum(Vec<f64>),
    /// `avg`.
    Avg {
        /// Running sums.
        sums: Vec<f64>,
        /// Non-null inputs folded.
        counts: Vec<u64>,
    },
    /// `min` / `max`.
    Extreme {
        /// `max` rather than `min`.
        max: bool,
        /// Values are `i64`s (else `f64` bit patterns).
        int: bool,
        /// The running extreme's bits (`i64 as u64` or `f64::to_bits`).
        values: Vec<u64>,
        /// Whether a non-null input reached the group.
        present: Vec<bool>,
    },
    /// `and` / `or`.
    Bool {
        /// `or` rather than `and`.
        or: bool,
        /// Running booleans.
        bits: Vec<bool>,
    },
}

impl AggLane {
    /// An empty lane of `kind`.
    pub fn new(kind: LaneKind) -> AggLane {
        match kind {
            LaneKind::Count => AggLane::Count(Vec::new()),
            LaneKind::Sum => AggLane::Sum(Vec::new()),
            LaneKind::Avg => AggLane::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            LaneKind::Extreme { max, int } => AggLane::Extreme {
                max,
                int,
                values: Vec::new(),
                present: Vec::new(),
            },
            LaneKind::Bool { or } => AggLane::Bool {
                or,
                bits: Vec::new(),
            },
        }
    }

    /// Grows the lane to `groups` groups, the new ones at the monoid's zero.
    fn resize(&mut self, groups: usize) {
        match self {
            AggLane::Count(counts) => counts.resize(groups, 0),
            AggLane::Sum(sums) => sums.resize(groups, 0.0),
            AggLane::Avg { sums, counts } => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
            }
            AggLane::Extreme {
                values, present, ..
            } => {
                values.resize(groups, 0);
                present.resize(groups, false);
            }
            AggLane::Bool { or, bits } => bits.resize(groups, !*or),
        }
    }

    /// Bytes one group takes in the lane.
    fn bytes_per_group(&self) -> u64 {
        match self {
            AggLane::Count(_) | AggLane::Sum(_) => 8,
            AggLane::Avg { .. } => 16,
            AggLane::Extreme { .. } => 9,
            AggLane::Bool { .. } => 1,
        }
    }

    /// The float view the extremes compare through (`i64 as f64` for
    /// integral lanes, as `Value::total_cmp` orders them).
    #[inline]
    pub fn extreme_view(int: bool, bits: u64) -> f64 {
        if int {
            bits as i64 as f64
        } else {
            f64::from_bits(bits)
        }
    }

    /// Folds group `src` of `other` (a lane of the same kind) into group
    /// `dst`: `Accumulator::combine`, or — when `fresh`, a group no input
    /// reached yet — a plain copy, as a moved accumulator would be.
    fn absorb(&mut self, dst: usize, other: &AggLane, src: usize, fresh: bool) {
        match (self, other) {
            (AggLane::Count(ours), AggLane::Count(theirs)) => {
                ours[dst] = if fresh { 0 } else { ours[dst] } + theirs[src];
            }
            (AggLane::Sum(ours), AggLane::Sum(theirs)) => {
                ours[dst] = if fresh {
                    theirs[src]
                } else {
                    ours[dst] + theirs[src]
                };
            }
            (
                AggLane::Avg { sums, counts },
                AggLane::Avg {
                    sums: their_sums,
                    counts: their_counts,
                },
            ) => {
                if fresh {
                    sums[dst] = their_sums[src];
                    counts[dst] = their_counts[src];
                } else {
                    sums[dst] += their_sums[src];
                    counts[dst] += their_counts[src];
                }
            }
            (
                AggLane::Extreme {
                    max,
                    int,
                    values,
                    present,
                },
                AggLane::Extreme {
                    values: their_values,
                    present: their_present,
                    ..
                },
            ) => {
                if fresh {
                    values[dst] = their_values[src];
                    present[dst] = their_present[src];
                } else if their_present[src] {
                    let want = if *max {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    };
                    let theirs = Self::extreme_view(*int, their_values[src]);
                    let replace = !present[dst]
                        || theirs.total_cmp(&Self::extreme_view(*int, values[dst])) == want;
                    if replace {
                        values[dst] = their_values[src];
                        present[dst] = true;
                    }
                }
            }
            (AggLane::Bool { or, bits }, AggLane::Bool { bits: theirs, .. }) => {
                bits[dst] = if fresh {
                    theirs[src]
                } else if *or {
                    bits[dst] || theirs[src]
                } else {
                    bits[dst] && theirs[src]
                };
            }
            _ => unreachable!("absorbing a lane of another kind"),
        }
    }

    /// The output value of group `gid`: what `Accumulator::finish` renders
    /// (integral sums as `Int`, an empty average or extreme as null).
    fn finish(&self, gid: usize) -> Value {
        match self {
            AggLane::Count(counts) => Value::Int(counts[gid]),
            AggLane::Sum(sums) => Accumulator::Float(sums[gid]).finish(Monoid::Sum),
            AggLane::Avg { sums, counts } => Accumulator::AvgState {
                sum: sums[gid],
                count: counts[gid],
            }
            .finish(Monoid::Avg),
            AggLane::Extreme {
                int,
                values,
                present,
                ..
            } => match (present[gid], *int) {
                (false, _) => Value::Null,
                (true, true) => Value::Int(values[gid] as i64),
                (true, false) => Value::Float(f64::from_bits(values[gid])),
            },
            AggLane::Bool { bits, .. } => Value::Bool(bits[gid]),
        }
    }
}

/// How a [`RadixGroupTable`] finds a row's group id.
enum GroupIds {
    /// By hash: an `IdIndex` of group ids over a key-only [`BuildStore`] —
    /// entry `g` is group `g`'s key and hash, each component in the column
    /// a join build keeps it in (typed lanes for an `I64` / `F64` / `Bool`
    /// key slot, `Value`s for strings and closure keys).
    Hashed {
        /// The group ids, by key hash.
        index: IdIndex,
        /// Per group: its key components and key hash.
        store: BuildStore,
    },
    /// By offset: the group id is the mixed-radix offset of the key within
    /// the compiled [`DenseKey`] bounds (the last key varies fastest).
    Dense {
        /// The compiled bounds, one per key component.
        keys: Vec<DenseKey>,
        /// The product of the spans: the id space.
        slots: usize,
        /// Per slot: whether a row reached it (a keyless table's one slot
        /// always). Empty until the state is
        /// [allocated](RadixGroupTable::allocate).
        seen: Vec<bool>,
    },
}

/// The grouping (aggregation) table: the runtime of the `nest` and `reduce`
/// operators. In a morsel-parallel pipeline every worker folds into a
/// private table and the partials are
/// [`absorb`](RadixGroupTable::absorb)ed in worker order at the end.
///
/// Group state is flat: a group is its id, and everything about it lives in
/// arenas indexed by that id. Each kernel-classified output spec owns one
/// typed [`AggLane`]; the remaining specs — collection monoids, closure
/// fallbacks, and every spec of the closure tier — keep one [`Accumulator`]
/// per group, and (only when a collection monoid is present) one morsel-tag
/// list per collection output.
///
/// Ids come one of two ways (`GroupIds`): through an `IdIndex` over a
/// key-only [`BuildStore`] — the join's key columns and compare, under the
/// group null rule — found or created by one
/// [`resolve`](RadixGroupTable::resolve), or — when the compiler bounded
/// every key ([`RadixGroupTable::dense`]) — as the key's offset in a
/// preallocated id space, where the table stores no key or hash per group.
/// A reduce is the dense case over zero keys: one slot, and every row of
/// either tier folds into group 0 without an id.
pub struct RadixGroupTable {
    arity: usize,
    monoids: Vec<Monoid>,
    ids: GroupIds,
    /// Per output spec: its typed lane, or `None` when the spec folds
    /// through the accumulator arena.
    lanes: Vec<Option<AggLane>>,
    /// The monoids of the accumulator specs, in spec order.
    acc_monoids: Vec<Monoid>,
    /// Positions (in `acc_monoids`) of the collection monoids, whose
    /// per-element morsel tags are tracked for order-exact parallel merge.
    collection_specs: Vec<usize>,
    /// Flattened accumulators: group `g` at `g*a .. (g+1)*a`, `a`
    /// accumulator specs.
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
    /// A hashed table whose key components are stored as a join build
    /// stores them: `key_kinds` are the kinds of the typed key columns
    /// (`None`: a `Value` column, [`StoreColumn::new`]). Its specs with a
    /// lane kind keep typed lanes (`lane_kinds` is parallel to `monoids`).
    pub fn hashed(
        key_kinds: &[Option<TypedKind>],
        monoids: Vec<Monoid>,
        lane_kinds: &[Option<LaneKind>],
    ) -> RadixGroupTable {
        let ids = GroupIds::Hashed {
            index: IdIndex::build(INITIAL_INDEX_SLOTS, &[], None),
            store: BuildStore::with_kinds(key_kinds, Vec::new(), &[]),
        };
        RadixGroupTable::with_ids(key_kinds.len(), monoids, lane_kinds, ids)
    }

    /// A dense-id table over the compiled key bounds. Nothing is allocated
    /// until [`RadixGroupTable::allocate`] (the pipeline debits
    /// [`RadixGroupTable::unallocated_bytes`] first). Over zero keys — a
    /// reduce, SQL's `GROUP BY ()` — the id space is one slot: group 0 holds
    /// every row and is emitted even when no row reached it.
    pub fn dense(
        keys: Vec<DenseKey>,
        monoids: Vec<Monoid>,
        lane_kinds: &[Option<LaneKind>],
    ) -> RadixGroupTable {
        let (arity, slots) = (keys.len(), keys.iter().map(DenseKey::span).product());
        debug_assert!(slots as u64 <= DENSE_MAX_SLOTS);
        let ids = GroupIds::Dense {
            keys,
            slots,
            seen: Vec::new(),
        };
        RadixGroupTable::with_ids(arity, monoids, lane_kinds, ids)
    }

    fn with_ids(
        arity: usize,
        monoids: Vec<Monoid>,
        lane_kinds: &[Option<LaneKind>],
        ids: GroupIds,
    ) -> RadixGroupTable {
        debug_assert_eq!(lane_kinds.len(), monoids.len());
        let acc_monoids: Vec<Monoid> = monoids
            .iter()
            .zip(lane_kinds)
            .filter(|(_, kind)| kind.is_none())
            .map(|(m, _)| *m)
            .collect();
        debug_assert!(monoids
            .iter()
            .zip(lane_kinds)
            .all(|(m, kind)| kind.is_none() || !m.is_collection()));
        let collection_specs = acc_monoids
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_collection())
            .map(|(i, _)| i)
            .collect();
        RadixGroupTable {
            arity,
            lanes: lane_kinds.iter().map(|k| k.map(AggLane::new)).collect(),
            monoids,
            ids,
            acc_monoids,
            collection_specs,
            accs: Vec::new(),
            tags: Vec::new(),
            collected: 0,
            len_scratch: Vec::new(),
        }
    }

    /// Number of groups formed.
    pub fn group_count(&self) -> usize {
        match &self.ids {
            GroupIds::Hashed { store, .. } => store.len(),
            GroupIds::Dense { seen, .. } => seen.iter().filter(|&&s| s).count(),
        }
    }

    /// Whether the table groups over zero keys: one dense slot, group 0.
    pub fn keyless(&self) -> bool {
        matches!(&self.ids, GroupIds::Dense { keys, .. } if keys.is_empty())
    }

    /// The compiled key bounds, when group ids are dense.
    pub fn dense_keys(&self) -> Option<&[DenseKey]> {
        match &self.ids {
            GroupIds::Dense { keys, .. } => Some(keys),
            GroupIds::Hashed { .. } => None,
        }
    }

    /// The typed lane of output spec `spec`, if it has one.
    pub fn lane_mut(&mut self, spec: usize) -> Option<&mut AggLane> {
        self.lanes[spec].as_mut()
    }

    /// Bytes one group's state takes, at `value_cost` per accumulator.
    fn group_bytes(&self, value_cost: u64) -> u64 {
        let lanes: u64 = self
            .lanes
            .iter()
            .flatten()
            .map(AggLane::bytes_per_group)
            .sum();
        lanes + self.acc_monoids.len() as u64 * value_cost
    }

    /// Bytes a dense state not yet allocated will take (its seen map, lanes
    /// and accumulators over every slot); 0 once allocated and for hashed
    /// ids, which grow group by group.
    pub fn unallocated_bytes(&self, value_cost: u64) -> u64 {
        match &self.ids {
            GroupIds::Dense { slots, .. } if self.unallocated() => {
                *slots as u64 * (1 + self.group_bytes(value_cost))
            }
            _ => 0,
        }
    }

    /// Whether a dense state still waits for [`RadixGroupTable::allocate`].
    fn unallocated(&self) -> bool {
        matches!(&self.ids, GroupIds::Dense { seen, .. } if seen.is_empty())
    }

    /// Estimated bytes held by the table, at `value_cost` bytes per stored
    /// `Value`/accumulator. O(1): arena and index lengths plus the running
    /// count of collected elements (each with its 8-byte morsel tag) — never
    /// a walk over the groups.
    pub fn approx_bytes(&self, value_cost: u64) -> u64 {
        let (groups, ids) = match &self.ids {
            GroupIds::Hashed { index, store } => {
                let key_bytes: u64 = store
                    .keys
                    .iter()
                    .map(|col| StoreColumn::entry_bytes(col.kind(), value_cost))
                    .sum();
                let groups = store.len() as u64;
                (
                    groups,
                    groups * (8 + key_bytes) + index.slots.len() as u64 * 4,
                )
            }
            GroupIds::Dense { seen, .. } => (seen.len() as u64, seen.len() as u64),
        };
        ids + groups * self.group_bytes(value_cost) + self.collected * (value_cost + 8)
    }

    /// Grows every per-group arena to `groups` groups, new groups at the
    /// monoids' zeros.
    fn grow_state(&mut self, groups: usize) {
        for lane in self.lanes.iter_mut().flatten() {
            lane.resize(groups);
        }
        let stride = self.acc_monoids.len();
        if let Some(have) = self.accs.len().checked_div(stride) {
            for _ in have..groups {
                self.accs
                    .extend(self.acc_monoids.iter().map(|m| Accumulator::zero(*m)));
            }
        }
        let collections = self.collection_specs.len();
        self.tags.resize_with(groups * collections, Vec::new);
    }

    /// Allocates a dense state: every slot's lanes and accumulators at the
    /// monoids' zeros, and the seen map — a keyless table's one slot seen
    /// from the start. A no-op once allocated and for hashed ids.
    pub fn allocate(&mut self) {
        if let GroupIds::Dense { keys, slots, seen } = &mut self.ids {
            if seen.is_empty() {
                *seen = vec![keys.is_empty(); *slots];
                let slots = *slots;
                self.grow_state(slots);
            }
        }
    }

    /// Dense ids: records that rows reached the groups `gids` — the offsets
    /// the caller computed from the key lanes — allocating the state on
    /// first use.
    pub fn mark_seen(&mut self, gids: &[u32]) {
        self.allocate();
        let GroupIds::Dense { seen, .. } = &mut self.ids else {
            unreachable!("mark_seen on hashed group ids");
        };
        for &gid in gids {
            seen[gid as usize] = true;
        }
    }

    /// The one find-or-create of hashed ids: the id of the group of a
    /// pre-hashed key. `key_eq(store, group)` compares the key against a
    /// candidate group's stored key — the typed ingest through
    /// `TypedKeys::eq_store`, the closure tier through
    /// [`BuildStore::key_eq_values`], `absorb` column to column, all under
    /// [`GROUP_NULLS`]. Only for a new group does `push_key` append the
    /// key's components to the key columns (its lanes and accumulators
    /// start at the monoids' zeros), so the per-row path allocates nothing
    /// for existing groups.
    #[inline]
    pub fn resolve(
        &mut self,
        hash: u64,
        mut key_eq: impl FnMut(&BuildStore, u32) -> bool,
        push_key: impl FnOnce(&mut BuildStore),
    ) -> u32 {
        let GroupIds::Hashed { index, store } = &mut self.ids else {
            unreachable!("hashed resolve on dense group ids");
        };
        if (store.len() + 1) * 2 > index.slots.len() {
            grow_index(index, &store.hashes);
        }
        match index.walk(&store.hashes, hash, |g| key_eq(store, g as u32)) {
            Ok(slot) => index.slots[slot],
            Err(slot) => {
                let gid = store.len();
                debug_assert!(gid < EMPTY_SLOT as usize);
                push_key(store);
                store.hashes.push(hash);
                store.check_lengths();
                index.slots[slot] = gid as u32;
                self.grow_state(gid + 1);
                gid as u32
            }
        }
    }

    /// Hands group `gid`'s accumulators — one per accumulator spec, with
    /// their monoids — to `fold`. `tag` is the caller's morsel index:
    /// elements `fold` appends to collection accumulators are recorded under
    /// it, so parallel partials can later merge in exact serial order (pass
    /// 0 when serial).
    #[inline]
    pub fn fold_group(
        &mut self,
        gid: u32,
        tag: u64,
        fold: impl FnOnce(&mut [Accumulator], &[Monoid]),
    ) {
        let stride = self.acc_monoids.len();
        let base = gid as usize * stride;
        let accs = &mut self.accs[base..base + stride];
        if self.collection_specs.is_empty() {
            fold(accs, &self.acc_monoids);
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
        fold(accs, &self.acc_monoids);
        let tag_base = gid as usize * self.collection_specs.len();
        for (ci, &spec) in self.collection_specs.iter().enumerate() {
            let added = collection_len(&accs[spec]) - self.len_scratch[ci];
            self.tags[tag_base + ci].extend(std::iter::repeat_n(tag, added));
            self.collected += added as u64;
        }
    }

    /// The closure tier's per-row entry: finds (or creates) the group of
    /// the hydrated key `key`, pre-hashed to `hash`
    /// ([`RadixGroupTable::resolve`]; its components are cloned into the
    /// key columns only if the group is new), and hands its accumulators to
    /// `fold` under morsel tag `tag` ([`RadixGroupTable::fold_group`]).
    pub fn merge_with(
        &mut self,
        hash: u64,
        key: &[Value],
        tag: u64,
        fold: impl FnOnce(&mut [Accumulator], &[Monoid]),
    ) {
        let gid = self.resolve(
            hash,
            |store, g| store.key_eq_values(g, key, GROUP_NULLS),
            |store| {
                for (comp, value) in key.iter().enumerate() {
                    store.key_mut(comp).push_value(value.clone());
                }
            },
        );
        self.fold_group(gid, tag, fold);
    }

    /// Folds one input: finds (or creates) the group of `key` and merges the
    /// per-monoid values. (Serial convenience over
    /// [`RadixGroupTable::merge_with`] — morsel tag 0; every spec must fold
    /// through accumulators.)
    pub fn merge(&mut self, key: Vec<Value>, values: Vec<Value>) {
        self.merge_with(
            hash_key_components(&key),
            &key,
            0,
            |accumulators, monoids| {
                for ((acc, monoid), value) in accumulators.iter_mut().zip(monoids).zip(values) {
                    let _ = acc.merge(*monoid, value);
                }
            },
        );
    }

    /// Absorbs another table's partial groups (same ids, lanes and
    /// monoids), moving them out of its arenas. Groups new to this table
    /// take the other's state as it is; shared ones combine — lanes through
    /// [`AggLane`]'s ⊕, scalar accumulators under the monoid's ⊕, collection
    /// accumulators element-wise in morsel-tag order (`merge_tagged`) — so
    /// the result is identical to a serial ingest. Dense ids merge slot by
    /// slot; hashed ids find or create each group of `other`, in its id
    /// order, through [`RadixGroupTable::resolve`] — keys compared and
    /// copied column to column.
    pub fn absorb(&mut self, mut other: RadixGroupTable) {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert_eq!(self.monoids, other.monoids);
        if other.unallocated() {
            return;
        }
        if self.unallocated() {
            *self = other;
            return;
        }
        self.collected += other.collected;
        let their_ids = std::mem::replace(&mut other.ids, GroupIds::dense_placeholder());
        match their_ids {
            GroupIds::Dense {
                seen: their_seen, ..
            } => {
                for (slot, _) in their_seen.iter().enumerate().filter(|(_, &s)| s) {
                    let GroupIds::Dense { seen, .. } = &mut self.ids else {
                        unreachable!("absorbing dense ids into hashed ones");
                    };
                    let fresh = !std::mem::replace(&mut seen[slot], true);
                    self.absorb_group(slot, &mut other, slot, fresh);
                }
            }
            GroupIds::Hashed { store: theirs, .. } => {
                for src in 0..theirs.len() as u32 {
                    let groups = self.group_count();
                    let dst = self.resolve(
                        theirs.hashes[src as usize],
                        |store, g| store.key_eq_entry(g, &theirs, src, GROUP_NULLS),
                        |store| {
                            for (ours, other) in store.keys.iter_mut().zip(&theirs.keys) {
                                ours.push_from(other, src);
                            }
                        },
                    ) as usize;
                    self.absorb_group(dst, &mut other, src as usize, dst == groups);
                }
            }
        }
        self.check_invariants();
    }

    /// Folds group `src` of `other` into group `dst` (`fresh`: `dst` holds
    /// no input yet and takes `src`'s state as it is).
    // Invariant: every group carries exactly one tag list per collection
    // spec, so the tag lists indexed below exist.
    fn absorb_group(&mut self, dst: usize, other: &mut RadixGroupTable, src: usize, fresh: bool) {
        for (ours, theirs) in self.lanes.iter_mut().zip(&other.lanes) {
            if let (Some(ours), Some(theirs)) = (ours, theirs) {
                ours.absorb(dst, theirs, src, fresh);
            }
        }
        let stride = self.acc_monoids.len();
        let tag_stride = self.collection_specs.len();
        let mut ci = 0;
        for (spec, &monoid) in self.acc_monoids.iter().enumerate() {
            let partial =
                std::mem::replace(&mut other.accs[src * stride + spec], Accumulator::Int(0));
            let acc = &mut self.accs[dst * stride + spec];
            if !monoid.is_collection() {
                if fresh {
                    *acc = partial;
                } else {
                    let _ = acc.combine(monoid, partial);
                }
                continue;
            }
            let their_tags = std::mem::take(&mut other.tags[src * tag_stride + ci]);
            let our_tags = &mut self.tags[dst * tag_stride + ci];
            ci += 1;
            if fresh {
                *acc = partial;
                *our_tags = their_tags;
                continue;
            }
            let (Accumulator::Collection(ours), Accumulator::Collection(theirs)) = (acc, partial)
            else {
                unreachable!("collection spec holds a scalar accumulator");
            };
            let offered = (ours.len() + theirs.len()) as u64;
            merge_tagged(monoid, ours, our_tags, theirs, their_tags);
            // A `set` merge may drop duplicates both sides held.
            self.collected -= offered - ours.len() as u64;
        }
    }

    /// The table's structural invariants, armed by `debug_assertions` only
    /// (CI's `release-debug-assertions` job runs them on the optimized
    /// paths): after every index rebuild and every `absorb`, the arenas hold
    /// exactly `groups × stride` elements and a hashed index holds every
    /// group id ([`IdIndex::check_invariants`]).
    fn check_invariants(&self) {
        let groups = match &self.ids {
            GroupIds::Hashed { index, store } => {
                store.check_lengths();
                index.check_invariants(&store.hashes, None);
                store.len()
            }
            GroupIds::Dense { seen, .. } => seen.len(),
        };
        debug_assert_eq!(self.accs.len(), groups * self.acc_monoids.len());
        debug_assert_eq!(self.tags.len(), groups * self.collection_specs.len());
        debug_assert!(self
            .lanes
            .iter()
            .flatten()
            .all(|lane| lane_len(lane) == groups));
    }

    /// The groups in emission order, `(hash & 63, hash)` with ties in
    /// group-id order. Dense groups hash their rendered key here, once each.
    fn emit_order(&self) -> Vec<u32> {
        // Rotating the low radix bits to the top makes one integer compare
        // order by (hash & 63, hash).
        let mut order: Vec<(u64, u32)> = match &self.ids {
            GroupIds::Hashed { store, .. } => store
                .hashes
                .iter()
                .enumerate()
                .map(|(gid, hash)| (hash.rotate_right(GROUP_EMIT_RADIX_BITS), gid as u32))
                .collect(),
            GroupIds::Dense { keys, seen, .. } => {
                let mut key = vec![Value::Null; keys.len()];
                seen.iter()
                    .enumerate()
                    .filter(|(_, &s)| s)
                    .map(|(gid, _)| {
                        render_dense_key(keys, gid, &mut key);
                        let hash = hash_key_components(&key);
                        (hash.rotate_right(GROUP_EMIT_RADIX_BITS), gid as u32)
                    })
                    .collect()
            }
        };
        order.sort_unstable();
        order.into_iter().map(|(_, gid)| gid).collect()
    }

    /// Finalizes the table into one `T` per group: `row(key components,
    /// finished outputs)` may move the values out of the two slices. Rows
    /// leave in `(hash & 63, hash)` order (ties in group-id order), so
    /// serial and parallel executions of the same query produce the same row
    /// order. Dense keys are rendered from their offsets, lanes finish as
    /// their accumulators would, and a keyless table emits its one group
    /// even when nothing reached it. (Collection elements are already
    /// tag-ordered by [`RadixGroupTable::absorb`]; the tags drop here.)
    pub fn into_rows<T>(mut self, mut row: impl FnMut(&mut [Value], &mut [Value]) -> T) -> Vec<T> {
        if self.keyless() {
            self.allocate();
        }
        let order = self.emit_order();
        let acc_stride = self.acc_monoids.len();
        let mut key = vec![Value::Null; self.arity];
        let mut outputs = vec![Value::Null; self.monoids.len()];
        let mut rows = Vec::with_capacity(order.len());
        for gid in order {
            let g = gid as usize;
            match &mut self.ids {
                GroupIds::Hashed { store, .. } => {
                    for (out, col) in key.iter_mut().zip(&mut store.keys) {
                        *out = col.take_value(gid);
                    }
                }
                GroupIds::Dense { keys, .. } => render_dense_key(keys, g, &mut key),
            }
            let mut accs = self.accs[g * acc_stride..(g + 1) * acc_stride]
                .iter_mut()
                .zip(&self.acc_monoids);
            for (out, lane) in outputs.iter_mut().zip(&self.lanes) {
                *out = match lane {
                    Some(lane) => lane.finish(g),
                    None => match accs.next() {
                        Some((acc, monoid)) => {
                            std::mem::replace(acc, Accumulator::Int(0)).finish(*monoid)
                        }
                        None => unreachable!("an accumulator per accumulator spec"),
                    },
                };
            }
            rows.push(row(&mut key, &mut outputs));
        }
        rows
    }
}

impl GroupIds {
    /// An empty stand-in left behind when a partial's ids are moved out.
    fn dense_placeholder() -> GroupIds {
        GroupIds::Dense {
            keys: Vec::new(),
            slots: 0,
            seen: Vec::new(),
        }
    }
}

/// Groups held by a lane.
fn lane_len(lane: &AggLane) -> usize {
    match lane {
        AggLane::Count(v) => v.len(),
        AggLane::Sum(v) => v.len(),
        AggLane::Avg { sums, .. } => sums.len(),
        AggLane::Extreme { values, .. } => values.len(),
        AggLane::Bool { bits, .. } => bits.len(),
    }
}

/// Renders the key of dense group `gid` into `out`: the mixed-radix digits
/// of the offset (the last key varies fastest), each as its key value.
fn render_dense_key(keys: &[DenseKey], gid: usize, out: &mut [Value]) {
    let mut rest = gid;
    for (key, out) in keys.iter().zip(out.iter_mut()).rev() {
        let span = key.span();
        *out = key.value_of(rest % span);
        rest /= span;
    }
}

/// Doubles a group index, rebuilt from the stored hashes (one more group
/// would take its load past ½).
#[cold]
fn grow_index(index: &mut IdIndex, hashes: &[u64]) {
    *index = IdIndex::build(index.slots.len() * 2, hashes, None);
    index.check_invariants(hashes, None);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RadixGroupTable {
        /// A hashed table for keys of `arity` closure-evaluated (`Value`)
        /// components whose every output spec folds through accumulators
        /// (the closure tier's table).
        pub(crate) fn new(arity: usize, monoids: Vec<Monoid>) -> RadixGroupTable {
            let kinds = vec![None; monoids.len()];
            RadixGroupTable::hashed(&vec![None; arity], monoids, &kinds)
        }
    }

    impl StoreColumn {
        /// Entry `entry` as a [`Value`].
        fn value_at(&self, entry: u32) -> Value {
            match self {
                StoreColumn::Lanes(lanes) => lanes.value_at(entry as usize),
                StoreColumn::Values(values) => values[entry as usize].clone(),
            }
        }
    }

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
            matches.push(table.store().payload()[0].value_at(e))
        });
        assert_eq!(count, 10);
        assert!(matches.iter().all(|v| v.as_int().unwrap() % 100 == 7));
        assert_eq!(table.probe_components(&[Value::Int(500)], |_| {}), 0);
    }

    #[test]
    fn join_table_handles_int_float_key_equivalence() {
        let table = RadixHashTable::build(store_of(&[(Value::Int(3), Value::Int(1))]));
        assert_eq!(table.probe_components(&[Value::Float(3.0)], |_| {}), 1);
        // A typed `i64` key lane compares through its float view too.
        let mut lanes = TypedColumn::new(TypedKind::I64);
        lanes.push_i64(3);
        let mut store = BuildStore::with_kinds(&[Some(TypedKind::I64)], vec![], &[]);
        store
            .hashes_mut()
            .push(hash_key_components(&[Value::Int(3)]));
        *store.key_mut(0) = StoreColumn::Lanes(lanes);
        let typed = RadixHashTable::build(store);
        assert_eq!(typed.probe_components(&[Value::Float(3.0)], |_| {}), 1);
        assert_eq!(typed.probe_components(&[Value::Float(3.5)], |_| {}), 0);
        assert_eq!(typed.store().key(0).kind(), Some(TypedKind::I64));
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
        // Strings are stored as values, whatever kind the probe lanes are.
        assert_eq!(table.store().key(0).kind(), None);
        assert_eq!(StoreColumn::new(Some(TypedKind::Str)).kind(), None);
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
        assert_eq!(table.store().key(0).value_at(2), Value::Int(1));
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
        let payload: Vec<Value> = table
            .store()
            .payload()
            .iter()
            .map(|c| c.value_at(1))
            .collect();
        assert_eq!(payload, [Value::Int(20), Value::Int(200)]);
        assert_eq!(table.store().live_slots(), &[0, 2]);
        assert_eq!(table.store().arity(), 2);
    }

    /// The oracle: a nested loop over every entry — ids whose stored hash
    /// and key components both equal the probe's, in entry-id order.
    fn naive_matches(store: &BuildStore, hash: u64, key: &[Value]) -> Vec<u32> {
        (0..store.len() as u32)
            .filter(|&e| store.hashes[e as usize] == hash)
            .filter(|&e| store.key_eq_values(e, key, JOIN_NULLS))
            .collect()
    }

    /// What the table reports for `key` probed under `hash`.
    fn probe_ids(table: &RadixHashTable, hash: u64, key: &[Value]) -> Vec<u32> {
        let mut ids = Vec::new();
        let count = table.probe_hashed(
            hash,
            |e| table.store().key_eq_values(e, key, JOIN_NULLS),
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
        let mut store = BuildStore::new(1, vec![0]);
        for (key, payload) in keys.iter().zip((0..6).map(Value::Int)) {
            store.push_entry(std::slice::from_ref(key), &[payload]);
        }
        store.hashes = hashes.clone();
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
    fn numeric_keys_probe_like_value_eq_and_null_keys_join_nothing() {
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
        // stored (a left-outer join still emits them) but join nothing, as
        // `null = null` is false.
        for three in [Value::Int(3), Value::Float(3.0)] {
            let mut ids = Vec::new();
            table.probe_components(&[three], |e| ids.push(e));
            assert_eq!(ids, vec![0, 2]);
        }
        assert_eq!(table.len(), keys.len());
        assert_eq!(table.probe_components(&[Value::Null], |_| {}), 0);
    }

    #[test]
    fn append_joins_chunks_in_entry_order() {
        // Three chunks of a typed-key store with a nullable `f64` payload
        // lane and a `Value` payload column, appended, equal the store the
        // whole input fills at once: hashes, lanes, null bits and values.
        let rows: Vec<(i64, Option<f64>, Value)> = (0..200)
            .map(|i| {
                (
                    i % 7,
                    (i % 5 != 0).then_some(i as f64 / 4.0),
                    Value::str(format!("s{i}")),
                )
            })
            .collect();
        let fill = |rows: &[(i64, Option<f64>, Value)]| {
            let mut store = BuildStore::with_kinds(
                &[Some(TypedKind::I64)],
                vec![1, 2],
                &[Some(TypedKind::F64), Some(TypedKind::Str)],
            );
            let (mut key, mut w) = (
                TypedColumn::new(TypedKind::I64),
                TypedColumn::new(TypedKind::F64),
            );
            for (k, f, s) in rows {
                store
                    .hashes_mut()
                    .push(hash_key_components(&[Value::Int(*k)]));
                key.push_i64(*k);
                match f {
                    Some(f) => w.push_f64(*f),
                    None => w.push_null(),
                }
                match store.payload_mut(1) {
                    StoreColumn::Values(values) => values.push(s.clone()),
                    StoreColumn::Lanes(_) => unreachable!("strings are stored as values"),
                }
            }
            *store.key_mut(0) = StoreColumn::Lanes(key);
            *store.payload_mut(0) = StoreColumn::Lanes(w);
            store
        };
        let whole = fill(&rows);
        let mut joined = fill(&rows[..63]);
        joined.append(fill(&rows[63..64]));
        joined.append(fill(&rows[64..]));
        assert_eq!(joined.hashes, whole.hashes);
        for e in 0..rows.len() as u32 {
            assert_eq!(joined.key(0).value_at(e), whole.key(0).value_at(e));
            for col in 0..2 {
                assert_eq!(
                    joined.payload()[col].value_at(e),
                    whole.payload()[col].value_at(e)
                );
            }
        }
        assert_eq!(joined.payload()[0].value_at(5), Value::Null);
        assert_eq!(joined.materialized_bytes(), 200 * (16 + 8 + 8 + 16));
        let table = RadixHashTable::build(joined);
        let mut ids = Vec::new();
        table.probe_components(&[Value::Float(3.0)], |e| ids.push(e));
        assert_eq!(ids, (0..200).filter(|i| i % 7 == 3).collect::<Vec<u32>>());
    }

    /// Slots of a hashed table's index.
    fn index_slots(table: &RadixGroupTable) -> usize {
        match &table.ids {
            GroupIds::Hashed { index, .. } => index.slots.len(),
            GroupIds::Dense { .. } => unreachable!("dense ids have no index"),
        }
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
                .position(|(k, _)| k.iter().zip(key).all(|(a, b)| a.value_eq(b)))
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

    /// A one-row lane of `kind` holding `value` (null, or of that kind).
    fn lane_of(kind: TypedKind, value: &Value) -> TypedColumn {
        let mut lane = TypedColumn::new(kind);
        match value {
            Value::Null => lane.push_null(),
            Value::Int(i) => lane.push_i64(*i),
            Value::Float(f) => lane.push_f64(*f),
            Value::Bool(b) => lane.push_bool(*b),
            Value::Str(s) => lane.push_str(s),
            other => unreachable!("no lane holds {other:?}"),
        }
        lane
    }

    /// The lane kinds a hydrated component can be read from: its own, or
    /// any for a null.
    fn lane_kinds_of(value: &Value) -> Vec<TypedKind> {
        match value {
            Value::Null => vec![
                TypedKind::I64,
                TypedKind::F64,
                TypedKind::Bool,
                TypedKind::Str,
            ],
            Value::Int(_) => vec![TypedKind::I64],
            Value::Float(_) => vec![TypedKind::F64],
            Value::Bool(_) => vec![TypedKind::Bool],
            Value::Str(_) => vec![TypedKind::Str],
            _ => Vec::new(),
        }
    }

    /// The key store of a hashed table.
    fn key_store(table: &RadixGroupTable) -> &BuildStore {
        match &table.ids {
            GroupIds::Hashed { store, .. } => store,
            GroupIds::Dense { .. } => unreachable!("dense ids store no key"),
        }
    }

    /// The group id `key` resolves to under `hash` through the closure
    /// tier's compare (hydrated components against the stored columns). A
    /// new key lands in a lane column through a one-row lane.
    fn resolve_value(table: &mut RadixGroupTable, hash: u64, key: &[Value]) -> u32 {
        table.resolve(
            hash,
            |store, g| store.key_eq_values(g, key, GROUP_NULLS),
            |store| {
                for (comp, value) in key.iter().enumerate() {
                    match store.key(comp).kind() {
                        Some(kind) => store.key_mut(comp).extend_rows(&lane_of(kind, value), &[0]),
                        None => store.key_mut(comp).push_value(value.clone()),
                    }
                }
            },
        )
    }

    /// The group id `key` resolves to under `hash` through the typed
    /// ingest's compare: each component a one-row lane (of its column's
    /// kind where the column keeps lanes) against the stored column.
    fn resolve_typed(table: &mut RadixGroupTable, hash: u64, key: &[Value]) -> u32 {
        let store = key_store(table);
        let lanes: Vec<TypedColumn> = key
            .iter()
            .enumerate()
            .map(|(comp, value)| {
                let kind = store.key(comp).kind();
                lane_of(kind.unwrap_or_else(|| lane_kinds_of(value)[0]), value)
            })
            .collect();
        table.resolve(
            hash,
            |store, g| {
                lanes
                    .iter()
                    .enumerate()
                    .all(|(comp, lane)| store.key(comp).eq_lane(g, lane, 0, GROUP_NULLS))
            },
            |store| {
                for (comp, lane) in lanes.iter().enumerate() {
                    store.key_mut(comp).extend_rows(lane, &[0]);
                }
            },
        )
    }

    /// [`resolve_value`] and [`resolve_typed`] under the key's own hash.
    fn by_value(table: &mut RadixGroupTable, key: &[Value]) -> u32 {
        resolve_value(table, hash_key_components(key), key)
    }

    fn by_lanes(table: &mut RadixGroupTable, key: &[Value]) -> u32 {
        resolve_typed(table, hash_key_components(key), key)
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
        // `merge_with` and `resolve` take the hash, so every key below
        // shares one full 64-bit hash: one probe chain, told apart by the
        // key compare alone — over `Value` columns and over an `f64` lane.
        let nan = f64::NAN;
        let mixed = [1, 2].map(Value::Int).into_iter().chain([
            Value::Float(2.5),
            Value::str("1"),
            Value::str("one"),
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
        ]);
        let floats = [1.0, 2.5, nan, -0.0, 0.0, f64::from_bits(nan.to_bits() ^ 1)]
            .map(Value::Float)
            .into_iter()
            .chain([Value::Null]);
        let count = |acc: &mut [Accumulator], monoids: &[Monoid]| {
            acc[0].merge(monoids[0], Value::Int(1)).unwrap();
        };
        for (kind, keys) in [
            (None, mixed.collect::<Vec<_>>()),
            (Some(TypedKind::F64), floats.collect()),
        ] {
            let mut table = RadixGroupTable::hashed(&[kind], vec![Monoid::Count], &[None]);
            for round in 0..3 {
                for (i, key) in keys.iter().enumerate() {
                    let key = std::slice::from_ref(key);
                    let gid = match (round + i) % 3 {
                        0 if kind.is_none() => {
                            table.merge_with(42, key, 0, count);
                            continue;
                        }
                        0 | 1 => resolve_value(&mut table, 42, key),
                        _ => resolve_typed(&mut table, 42, key),
                    };
                    table.fold_group(gid, 0, count);
                }
            }
            assert_eq!(table.group_count(), keys.len(), "{kind:?}");
            // Equal hashes: emission falls back to group-id (first-sight) order.
            let rows = rows_of(table);
            for ((key, outputs), expected) in rows.iter().zip(&keys) {
                assert!(
                    key_eq(&key[0], expected, GROUP_NULLS),
                    "{key:?} vs {expected:?}"
                );
                assert_eq!(outputs, &[Value::Int(3)]);
            }
        }
    }

    #[test]
    fn one_key_compare_over_values_store_columns_and_lanes() {
        // Each pair, and whether it is one key when grouping and when
        // joining, through every representation a component can take: two
        // `Value`s, a lane against a `Value` (both ways round), two lanes,
        // and the store columns' compares.
        const TWO_53: i64 = 1 << 53;
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        let cases = [
            (Value::Int(3), Value::Float(3.0), true, true),
            (Value::Float(-0.0), Value::Float(0.0), false, false),
            (Value::Float(-0.0), Value::Int(0), false, false),
            (Value::Float(0.0), Value::Int(0), true, true),
            (Value::Float(nan), Value::Float(nan), true, true),
            (Value::Float(nan), Value::Float(other_nan), false, false),
            (Value::Int(TWO_53), Value::Int(TWO_53 + 1), true, true),
            (
                Value::Int(TWO_53 + 1),
                Value::Float(TWO_53 as f64),
                true,
                true,
            ),
            (Value::Int(TWO_53), Value::Int(TWO_53 + 2), false, false),
            (Value::str("left"), Value::str("left"), true, true),
            (Value::str("left"), Value::str("right"), false, false),
            (Value::str("3"), Value::Int(3), false, false),
            (Value::Bool(true), Value::Bool(true), true, true),
            (Value::Bool(true), Value::Int(1), false, false),
            (Value::Bool(false), Value::Null, false, false),
            (Value::Int(0), Value::Null, false, false),
            (Value::str(""), Value::Null, false, false),
            (Value::Null, Value::Null, true, false),
        ];
        for (a, b, grouped, joined) in &cases {
            for (rule, expected) in [(GROUP_NULLS, *grouped), (JOIN_NULLS, *joined)] {
                let what = format!("{a:?} vs {b:?}, nulls equal {rule}");
                for (x, y) in [(a, b), (b, a)] {
                    assert_eq!(key_eq(x, y, rule), expected, "{what}");
                    let (mut xs, mut ys) = (
                        BuildStore::new(1, Vec::new()),
                        BuildStore::new(1, Vec::new()),
                    );
                    xs.push_entry(std::slice::from_ref(x), &[]);
                    ys.push_entry(std::slice::from_ref(y), &[]);
                    assert_eq!(
                        xs.key_eq_values(0, std::slice::from_ref(y), rule),
                        expected,
                        "{what}"
                    );
                    assert_eq!(xs.key_eq_entry(0, &ys, 0, rule), expected, "{what}");
                    for y_kind in lane_kinds_of(y) {
                        let y_lane = lane_of(y_kind, y);
                        assert_eq!(lane_value_key_eq(&y_lane, 0, x, rule), expected, "{what}");
                        assert_eq!(xs.key(0).eq_lane(0, &y_lane, 0, rule), expected, "{what}");
                        for x_kind in lane_kinds_of(x) {
                            if x_kind == TypedKind::Str && y_kind == TypedKind::Str {
                                continue; // no store keeps string lanes
                            }
                            let x_lane = lane_of(x_kind, x);
                            assert_eq!(
                                lane_key_eq(&x_lane, 0, &y_lane, 0, rule),
                                expected,
                                "{what}"
                            );
                            if StoreColumn::is_lane_kind(x_kind)
                                && StoreColumn::is_lane_kind(y_kind)
                            {
                                let lanes = StoreColumn::Lanes(x_lane);
                                assert_eq!(lanes.eq_lane(0, &y_lane, 0, rule), expected, "{what}");
                                assert_eq!(lanes.eq_value(0, y, rule), expected, "{what}");
                                let theirs = StoreColumn::Lanes(y_lane.clone());
                                assert_eq!(lanes.eq_entry(0, &theirs, 0, rule), expected, "{what}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn growth_across_index_rebuilds_keeps_ids_and_accumulators() {
        const GROUPS: i64 = 20_000;
        // An `i64` lane column beside a `Value` one (a string slot).
        let kinds = [Some(TypedKind::I64), Some(TypedKind::Str)];
        let mut table =
            RadixGroupTable::hashed(&kinds, vec![Monoid::Count, Monoid::Sum], &[None, None]);
        let key_of = |i: i64| vec![Value::Int(i), Value::str(format!("g{}", i % 11))];
        let mut ids = Vec::new();
        for i in 0..GROUPS {
            let key = key_of(i);
            // Alternate the two compares: both go through the same index
            // and must agree on ids.
            let gid = if i % 2 == 0 {
                by_value(&mut table, &key)
            } else {
                by_lanes(&mut table, &key)
            };
            assert_eq!(gid as i64, i, "ids are dense, in first-sight order");
            table.fold_group(gid, 0, |accs, monoids| {
                accs[0].merge(monoids[0], Value::Int(1)).unwrap();
                accs[1].merge(monoids[1], Value::Int(i)).unwrap();
            });
            ids.push(gid);
        }
        // 64 slots at birth, load ≤ ½: 20 000 groups took ten rebuilds.
        assert_eq!(index_slots(&table), 65_536);
        assert_eq!(table.group_count(), GROUPS as usize);
        // Every key still resolves to the id it was given before the
        // rebuilds, through either entry, and no group is created.
        for i in (0..GROUPS).rev() {
            let key = key_of(i);
            assert_eq!(by_lanes(&mut table, &key), ids[i as usize]);
            assert_eq!(by_value(&mut table, &key), ids[i as usize]);
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

        // All of them in one `Value` column (the closure tier's), and the
        // ints, floats and bools — nulls included — each in a lane column
        // of its kind, the two compares alternating.
        let of_kind = |keep: fn(&Value) -> bool| -> Vec<Value> {
            keys.iter()
                .filter(|k| k.is_null() || keep(k))
                .cloned()
                .collect()
        };
        let tables = [
            (None, keys.clone()),
            (
                Some(TypedKind::I64),
                of_kind(|k| matches!(k, Value::Int(_))),
            ),
            (
                Some(TypedKind::F64),
                of_kind(|k| matches!(k, Value::Float(_))),
            ),
            (
                Some(TypedKind::Bool),
                of_kind(|k| matches!(k, Value::Bool(_))),
            ),
        ];
        let monoids = [Monoid::Count];
        for (kind, keys) in tables {
            let mut table = RadixGroupTable::hashed(&[kind], monoids.to_vec(), &[None]);
            let mut oracle = Oracle::new(&monoids);
            for (i, key) in keys.iter().enumerate() {
                let key = std::slice::from_ref(key);
                let expected = oracle.merge(key, &[Value::Int(1)]);
                let gid = match key[0] {
                    Value::Date(_) => by_value(&mut table, key),
                    _ if i % 2 == 0 => by_value(&mut table, key),
                    _ => by_lanes(&mut table, key),
                };
                assert_eq!(gid as usize, expected, "{kind:?}: key {key:?}");
                table.fold_group(gid, 0, |accs, m| {
                    accs[0].merge(m[0], Value::Int(1)).unwrap();
                });
            }
            if kind.is_none() {
                assert_eq!(oracle.groups.len(), 12);
            }
            // Through `Debug`: NaN keys are not `==` themselves.
            assert_eq!(
                format!("{:?}", rows_of(table)),
                format!("{:?}", oracle.rows()),
                "{kind:?}"
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
                table.merge_with(hash, &key, morsel, |accs, monoids| {
                    for ((acc, monoid), value) in accs.iter_mut().zip(monoids).zip(&values) {
                        acc.merge(*monoid, value.clone()).unwrap();
                    }
                });
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
            merged.approx_bytes(48) - index_slots(&merged) as u64 * 4,
            whole.approx_bytes(48) - index_slots(&whole) as u64 * 4,
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

    /// A keyless table over `monoids`: lanes for the scalar monoids (`int`
    /// extremes), accumulators for the collections.
    fn keyless(monoids: &[Monoid]) -> RadixGroupTable {
        let lanes: Vec<Option<LaneKind>> = monoids
            .iter()
            .map(|m| match m {
                Monoid::Count => Some(LaneKind::Count),
                Monoid::Sum => Some(LaneKind::Sum),
                Monoid::Avg => Some(LaneKind::Avg),
                Monoid::Max | Monoid::Min => Some(LaneKind::Extreme {
                    max: *m == Monoid::Max,
                    int: true,
                }),
                Monoid::And | Monoid::Or => Some(LaneKind::Bool {
                    or: *m == Monoid::Or,
                }),
                Monoid::Bag | Monoid::Set | Monoid::List => None,
            })
            .collect();
        RadixGroupTable::dense(Vec::new(), monoids.to_vec(), &lanes)
    }

    /// Folds `value` into group 0 of a keyless table, under morsel tag `tag`:
    /// lanes as the kernels do, accumulators through `Accumulator::merge`.
    fn fold_keyless(table: &mut RadixGroupTable, tag: u64, value: &Value) {
        table.allocate();
        for spec in 0..table.monoids.len() {
            if let Some(lane) = table.lane_mut(spec) {
                fold_lane(lane, 0, value);
            }
        }
        table.fold_group(0, tag, |accumulators, monoids| {
            for (acc, monoid) in accumulators.iter_mut().zip(monoids) {
                acc.merge(*monoid, value.clone()).unwrap();
            }
        });
    }

    #[test]
    fn keyless_table_holds_one_group() {
        let mut table = keyless(&[Monoid::Count]);
        let mut other = keyless(&[Monoid::Count]);
        assert!(table.keyless());
        assert_eq!(table.unallocated_bytes(48), 1 + 8);
        for _ in 0..5 {
            fold_keyless(&mut table, 0, &Value::Int(1));
            fold_keyless(&mut other, 1, &Value::Int(1));
        }
        assert_eq!(table.group_count(), 1);
        table.absorb(other);
        assert_eq!(table.group_count(), 1);
        assert_eq!(rows_of(table), vec![(vec![], vec![Value::Int(10)])]);
    }

    #[test]
    fn an_empty_keyless_table_emits_one_row_at_the_zeros() {
        let monoids = [
            Monoid::Count,
            Monoid::Sum,
            Monoid::Avg,
            Monoid::Min,
            Monoid::Max,
            Monoid::And,
            Monoid::Or,
            Monoid::Bag,
            Monoid::Set,
            Monoid::List,
        ];
        let zeros: Vec<Value> = monoids
            .iter()
            .map(|m| Accumulator::zero(*m).finish(*m))
            .collect();
        // Never allocated (no morsel reached it), and allocated but empty.
        let mut allocated = keyless(&monoids);
        allocated.allocate();
        for table in [keyless(&monoids), allocated] {
            assert_eq!(rows_of(table), vec![(vec![], zeros.clone())]);
        }
    }

    #[test]
    fn absorbing_keyless_partials_equals_one_serial_table() {
        let monoids = [
            Monoid::Count,
            Monoid::Sum,
            Monoid::Avg,
            Monoid::Min,
            Monoid::Max,
            Monoid::And,
            Monoid::Or,
            Monoid::Bag,
            Monoid::Set,
            Monoid::List,
        ];
        for partials in [1, 2, 4] {
            let mut whole = keyless(&monoids);
            // The morsels go round-robin to partials 1..=`partials`. The
            // first partial is allocated but takes no row (a worker that
            // reserved its state and found no morsel left); the last is never
            // allocated.
            let mut parts: Vec<RadixGroupTable> =
                (0..partials + 2).map(|_| keyless(&monoids)).collect();
            parts[0].allocate();
            for i in 0..600i64 {
                let morsel = (i / 16) as u64;
                // Repeats across morsels and partials, so `set` drops some.
                let value = match i % 5 {
                    0 => Value::Null,
                    _ => Value::Int(i % 23 - 11),
                };
                fold_keyless(&mut whole, morsel, &value);
                fold_keyless(&mut parts[1 + morsel as usize % partials], morsel, &value);
            }
            let mut parts = parts.into_iter();
            let mut merged = parts.next().unwrap();
            for part in parts {
                merged.absorb(part);
            }
            assert_eq!(merged.collected, whole.collected, "x{partials}");
            assert_eq!(
                format!("{:?}", rows_of(merged)),
                format!("{:?}", rows_of(whole)),
                "x{partials}"
            );
        }
    }

    /// Folds one input into group `g` of a typed lane the way
    /// `RenderedAggs::fold_groups` does (the reference is `Accumulator::merge`).
    fn fold_lane(lane: &mut AggLane, g: usize, value: &Value) {
        let float = || value.as_float().unwrap();
        match lane {
            AggLane::Count(counts) => counts[g] += 1,
            AggLane::Sum(sums) if !value.is_null() => sums[g] += float(),
            AggLane::Avg { sums, counts } if !value.is_null() => {
                sums[g] += float();
                counts[g] += 1;
            }
            AggLane::Extreme {
                max,
                int,
                values,
                present,
            } if !value.is_null() => {
                let want = if *max {
                    Ordering::Greater
                } else {
                    Ordering::Less
                };
                let view = float();
                if !present[g] || view.total_cmp(&AggLane::extreme_view(*int, values[g])) == want {
                    values[g] = if *int {
                        value.as_int().unwrap() as u64
                    } else {
                        view.to_bits()
                    };
                    present[g] = true;
                }
            }
            AggLane::Bool { or, bits } => {
                let bit = *value == Value::Bool(true);
                bits[g] = if *or { bits[g] || bit } else { bits[g] && bit };
            }
            _ => {}
        }
    }

    /// The dense id of a key: its mixed-radix offset within `keys`.
    fn dense_id(keys: &[DenseKey], key: &[Value]) -> u32 {
        keys.iter().zip(key).fold(0, |id, (k, v)| {
            let digit = match v {
                Value::Null => k.span() - 1,
                v => (v.as_int().unwrap() - k.min) as usize,
            };
            id * k.span() as u32 + digit as u32
        })
    }

    #[test]
    fn dense_ids_group_exactly_like_hashed_ids() {
        // Keys g∈[-3,4] with nulls and h∈[0,2]; lanes of every kind beside
        // a collection spec on accumulators. The same rows go through the
        // closure tier's table (accumulators only, hashed), a hashed table
        // with typed lanes and lane key columns, and a dense one — split over 1, 2 and 4 partials
        // absorbed in worker order — and must finish to the same rows.
        let monoids = vec![
            Monoid::Count,
            Monoid::Sum,
            Monoid::Min,
            Monoid::Max,
            Monoid::Avg,
            Monoid::Or,
            Monoid::List,
        ];
        let kinds = [
            Some(LaneKind::Count),
            Some(LaneKind::Sum),
            Some(LaneKind::Extreme {
                max: false,
                int: true,
            }),
            Some(LaneKind::Extreme {
                max: true,
                int: false,
            }),
            Some(LaneKind::Avg),
            Some(LaneKind::Bool { or: true }),
            None,
        ];
        let bounds = vec![
            DenseKey {
                min: -3,
                max: 4,
                nullable: true,
            },
            DenseKey {
                min: 0,
                max: 2,
                nullable: false,
            },
        ];
        // Hashed ids keep both keys as `i64` lanes, null bits and all.
        let key_kinds = [Some(TypedKind::I64); 2];
        let floats = [0.5, -0.0, 0.0, f64::NAN, -2.25, 7.0];
        let input = |i: i64| {
            let g = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i % 8 - 3)
            };
            let int = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int((i * 37) % 23 - 11)
            };
            let float = Value::Float(floats[(i % 6) as usize]);
            let values = vec![
                Value::Int(1),
                float.clone(),
                int.clone(),
                float.clone(),
                int,
                Value::Bool(i % 13 == 0),
                Value::Int(i),
            ];
            (vec![g, Value::Int(i % 3)], values)
        };
        let mut whole = RadixGroupTable::new(2, monoids.clone());
        for i in 0..700 {
            let (key, values) = input(i);
            whole.merge(key, values);
        }
        let expected = format!("{:?}", rows_of(whole));
        for partials in [1usize, 2, 4] {
            for dense in [false, true] {
                let new_table = || match dense {
                    true => RadixGroupTable::dense(bounds.clone(), monoids.clone(), &kinds),
                    false => RadixGroupTable::hashed(&key_kinds, monoids.clone(), &kinds),
                };
                let mut parts: Vec<RadixGroupTable> = (0..partials).map(|_| new_table()).collect();
                for i in 0..700i64 {
                    let morsel = (i / 16) as u64;
                    let table = &mut parts[morsel as usize % partials];
                    let (key, values) = input(i);
                    let gid = if dense {
                        let gid = dense_id(&bounds, &key);
                        table.mark_seen(&[gid]);
                        gid
                    } else if i % 2 == 0 {
                        by_value(table, &key)
                    } else {
                        by_lanes(table, &key)
                    };
                    for (spec, value) in values.iter().enumerate() {
                        if let Some(lane) = table.lane_mut(spec) {
                            fold_lane(lane, gid as usize, value);
                        }
                    }
                    table.fold_group(gid, morsel, |accs, acc_monoids| {
                        accs[0].merge(acc_monoids[0], values[6].clone()).unwrap();
                    });
                }
                let mut parts = parts.into_iter();
                let mut merged = parts.next().unwrap();
                for part in parts {
                    merged.absorb(part);
                }
                assert_eq!(merged.dense_keys().is_some(), dense);
                assert_eq!(merged.group_count(), 27, "x{partials} dense {dense}");
                assert_eq!(
                    format!("{:?}", rows_of(merged)),
                    expected,
                    "x{partials} dense {dense}"
                );
            }
        }
    }

    #[test]
    fn a_dense_state_is_sized_before_it_is_allocated() {
        let bounds = vec![DenseKey {
            min: 10,
            max: 19,
            nullable: false,
        }];
        let kinds = [Some(LaneKind::Count), Some(LaneKind::Avg), None];
        let monoids = vec![Monoid::Count, Monoid::Avg, Monoid::Bag];
        let mut table = RadixGroupTable::dense(bounds, monoids, &kinds);
        // Ten slots of a seen byte, an 8-byte count, a 16-byte average and
        // one 48-byte accumulator.
        assert_eq!(table.unallocated_bytes(48), 10 * (1 + 8 + 16 + 48));
        assert_eq!(table.approx_bytes(48), 0);
        assert_eq!(table.group_count(), 0);
        table.allocate();
        assert_eq!(table.unallocated_bytes(48), 0);
        assert_eq!(table.approx_bytes(48), 10 * (1 + 8 + 16 + 48));
        // Unseen slots are no groups: nothing is emitted for them.
        table.mark_seen(&[3, 3, 9]);
        assert_eq!(table.group_count(), 2);
        let keys: Vec<Value> = rows_of(table)
            .into_iter()
            .map(|(k, _)| k[0].clone())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(sorted, vec![Value::Int(13), Value::Int(19)]);
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
