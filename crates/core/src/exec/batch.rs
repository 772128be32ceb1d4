//! Reusable binding batches: the unit of morsel-at-a-time execution.
//!
//! A [`BindingBatch`] is a row-major buffer of `rows × width` values plus a
//! *selection vector*. Operators fill a batch once per morsel and then only
//! shrink the selection (filters) or produce into a second reusable batch
//! (unnest, join probe) — the steady-state scan path performs **zero
//! per-tuple heap allocations**: the backing storage is recycled across
//! morsels and only grows on first use (or on unnest/join fan-out beyond any
//! previously seen batch size). A produced batch may carry typed columns of
//! its own: the typed unnest lands element lanes and gathered parent columns
//! in the second batch's typed slots, so the kernels run over expanded rows
//! exactly as they run over scanned ones.

use proteus_algebra::Value;
use proteus_plugins::{TypedColumn, TypedKind};

/// Number of tuples per morsel. Chosen so a morsel of a few projected
/// columns stays comfortably inside L2 while amortizing per-morsel overhead
/// (fill dispatch, selection resets, work-queue claims).
pub const MORSEL_SIZE: usize = 1024;

/// A reusable, selectively-consumed batch of bindings.
#[derive(Debug, Default)]
pub struct BindingBatch {
    width: usize,
    rows: usize,
    data: Vec<Value>,
    sel: Vec<u32>,
    /// Typed columnar buffers, one (lazily allocated, recycled) per slot.
    /// Only slots the planner routed through the vectorized path are live;
    /// their row-major `data` cells stay `Value::Null` until
    /// [`BindingBatch::hydrate`] materializes the selected rows.
    typed: Vec<TypedColumn>,
    typed_live: Vec<bool>,
    /// Number of times the backing buffers had to (re)allocate.
    allocs: u64,
}

impl BindingBatch {
    /// An empty batch; storage is allocated lazily on first fill.
    pub fn new() -> BindingBatch {
        BindingBatch::default()
    }

    /// Binding width (slots per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows currently materialized (before selection).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The active row indexes.
    pub fn sel(&self) -> &[u32] {
        &self.sel
    }

    /// Number of active rows.
    pub fn active(&self) -> usize {
        self.sel.len()
    }

    /// True when no rows survive the selection.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Allocation events observed so far (used by
    /// [`ExecutionMetrics::binding_allocs`](crate::exec::metrics::ExecutionMetrics)).
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Row `i` as a value slice (a borrowed binding).
    #[inline]
    pub fn row(&self, i: u32) -> &[Value] {
        let start = i as usize * self.width;
        &self.data[start..start + self.width]
    }

    /// Resets the batch to `rows × width` null values with an identity
    /// selection, recycling the existing storage.
    pub fn reset(&mut self, width: usize, rows: usize) {
        self.width = width;
        self.rows = rows;
        let needed = rows * width;
        let had_capacity = self.data.capacity();
        self.data.clear();
        self.data.resize(needed, Value::Null);
        if self.data.capacity() > had_capacity {
            self.allocs += 1;
        }
        self.typed_live.clear();
        self.reset_sel(rows);
    }

    /// Like [`BindingBatch::reset`] but without null-initializing reused
    /// storage: whatever the buffer held last time is left in place. For
    /// callers that overwrite every slot anything downstream reads (the join
    /// probe gather writes exactly the *live* slots; dead slots are never
    /// read by construction — a collect sink marks every slot live).
    pub fn reset_sparse(&mut self, width: usize, rows: usize) {
        self.width = width;
        self.rows = rows;
        let needed = rows * width;
        if self.data.len() < needed {
            let had_capacity = self.data.capacity();
            self.data.resize(needed, Value::Null);
            if self.data.capacity() > had_capacity {
                self.allocs += 1;
            }
        } else {
            self.data.truncate(needed);
        }
        self.typed_live.clear();
        self.reset_sel(rows);
    }

    /// Resets to an empty batch of the given width (rows appended via
    /// [`BindingBatch::push_row_of`]).
    pub fn reset_empty(&mut self, width: usize) {
        self.width = width;
        self.rows = 0;
        self.data.clear();
        self.sel.clear();
        self.typed_live.clear();
    }

    // -- typed columnar slots (the vectorized scan path) --------------------

    /// Mutable access to slot `slot`'s typed column, marking it live for this
    /// morsel. The column buffers are recycled across morsels.
    pub fn typed_col_mut(&mut self, slot: usize) -> &mut TypedColumn {
        if self.typed.len() <= slot {
            self.typed
                .resize_with(slot + 1, || TypedColumn::new(TypedKind::I64));
        }
        if self.typed_live.len() <= slot {
            self.typed_live.resize(slot + 1, false);
        }
        self.typed_live[slot] = true;
        &mut self.typed[slot]
    }

    /// The selection alongside slot `slot`'s typed column (marked live, as
    /// by [`BindingBatch::typed_col_mut`]): how a column is filled for the
    /// selected rows only.
    pub fn sel_and_typed_col_mut(&mut self, slot: usize) -> (&[u32], &mut TypedColumn) {
        self.typed_col_mut(slot);
        (&self.sel, &mut self.typed[slot])
    }

    /// The live typed column of a slot, if the scan filled one this morsel.
    pub fn typed_col(&self, slot: usize) -> Option<&TypedColumn> {
        if self.typed_live.get(slot).copied().unwrap_or(false) {
            self.typed.get(slot)
        } else {
            None
        }
    }

    /// Materializes the listed typed slots into the row-major `Value`
    /// storage, **selected rows only** — rows the vectorized kernels already
    /// filtered out never round-trip through `Value`.
    pub fn hydrate(&mut self, slots: &[usize]) {
        let width = self.width;
        for &slot in slots {
            if !self.typed_live.get(slot).copied().unwrap_or(false) {
                continue;
            }
            let col = &self.typed[slot];
            for &i in &self.sel {
                self.data[i as usize * width + slot] = col.value_at(i as usize);
            }
        }
    }

    /// Shrinks the selection to the rows whose bit is set in the packed
    /// bitmask (`mask` is indexed by *row*, not by selection slot; see
    /// [`crate::exec::mask`] for the word layout).
    ///
    /// From the identity selection — the state after every scan, and the
    /// common case for a morsel's first filter — the selection is rebuilt
    /// density-adaptively ([`crate::exec::mask::push_selected`]): sparse
    /// masks walk their set bits with `trailing_zeros` (cost ∝ survivors),
    /// dense masks compact branch-free per row. An already-shrunk selection
    /// is compressed in place with branch-free per-row bit tests.
    pub fn compress_sel(&mut self, mask: &[u64]) {
        if self.sel.len() == self.rows {
            // The selection only ever shrinks from the identity built by
            // `reset`/`push_row_of`, so full length ⟹ identity: rebuild it
            // from the mask's set bits directly.
            self.sel.clear();
            crate::exec::mask::push_selected(mask, self.rows, &mut self.sel);
            return;
        }
        let mut out = 0usize;
        for idx in 0..self.sel.len() {
            let row = self.sel[idx];
            self.sel[out] = row;
            out += (mask[row as usize >> 6] >> (row & 63) & 1) as usize;
        }
        self.sel.truncate(out);
    }

    /// Rebuilds the identity selection `0..rows`.
    fn reset_sel(&mut self, rows: usize) {
        let had_capacity = self.sel.capacity();
        self.sel.clear();
        self.sel.extend(0..rows as u32);
        if self.sel.capacity() > had_capacity {
            self.allocs += 1;
        }
    }

    /// Writes `value` at `(row, slot)`.
    #[inline]
    pub fn put(&mut self, row: usize, slot: usize, value: Value) {
        self.data[row * self.width + slot] = value;
    }

    /// Direct mutable access to the backing storage (row-major, stride =
    /// width). Used by the plug-ins' batch fillers.
    pub fn data_mut(&mut self) -> &mut [Value] {
        &mut self.data
    }

    /// Appends one row that copies `src`'s `live` slots and leaves every
    /// other slot null (the unnest output shape: per element, only the
    /// parent slots something downstream reads are cloned), returning the
    /// new row's index.
    pub fn push_row_of(&mut self, src: &[Value], live: &[usize]) -> u32 {
        let base = self.data.len();
        let had_capacity = self.data.capacity();
        self.data.resize(base + self.width, Value::Null);
        if self.data.capacity() > had_capacity {
            self.allocs += 1;
        }
        for &slot in live {
            self.data[base + slot] = src[slot].clone();
        }
        let idx = self.rows as u32;
        self.rows += 1;
        self.sel.push(idx);
        idx
    }

    /// Overwrites one slot of the most recently pushed row.
    pub fn set_last(&mut self, slot: usize, value: Value) {
        debug_assert!(self.rows > 0);
        let row = self.rows - 1;
        self.put(row, slot, value);
    }

    /// The most recently pushed row.
    pub fn last_row(&self) -> &[Value] {
        debug_assert!(self.rows > 0);
        self.row(self.rows as u32 - 1)
    }

    /// Removes the most recently pushed row (append-mode batches only:
    /// assumes the selection still mirrors the push order).
    pub fn pop_row(&mut self) {
        debug_assert!(self.rows > 0);
        self.rows -= 1;
        self.data.truncate(self.rows * self.width);
        self.sel.pop();
    }

    /// Returns the allocation events observed since the last call, resetting
    /// the counter (drained into `ExecutionMetrics::binding_allocs` once per
    /// morsel).
    pub fn take_alloc_events(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Filters the selection in place: keeps row `i` when `keep(row_i)`.
    pub fn retain<F: FnMut(&[Value]) -> bool>(&mut self, mut keep: F) {
        let width = self.width;
        let data = &self.data;
        self.sel.retain(|&i| {
            let start = i as usize * width;
            keep(&data[start..start + width])
        });
    }

    /// Iterates the selected rows.
    pub fn for_each_selected<F: FnMut(&[Value])>(&self, mut f: F) {
        for &i in &self.sel {
            f(self.row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_recycles_storage_without_reallocating() {
        let mut batch = BindingBatch::new();
        batch.reset(3, MORSEL_SIZE);
        assert_eq!(batch.rows(), MORSEL_SIZE);
        assert_eq!(batch.active(), MORSEL_SIZE);
        let allocs_after_first = batch.alloc_events();
        assert!(allocs_after_first >= 1);
        for _ in 0..100 {
            batch.reset(3, MORSEL_SIZE);
        }
        assert_eq!(batch.alloc_events(), allocs_after_first);
    }

    #[test]
    fn put_and_row_round_trip() {
        let mut batch = BindingBatch::new();
        batch.reset(2, 4);
        batch.put(1, 0, Value::Int(7));
        batch.put(1, 1, Value::str("x"));
        assert_eq!(batch.row(1), &[Value::Int(7), Value::str("x")]);
        assert_eq!(batch.row(0), &[Value::Null, Value::Null]);
    }

    #[test]
    fn retain_shrinks_selection_only() {
        let mut batch = BindingBatch::new();
        batch.reset(1, 10);
        for i in 0..10 {
            batch.put(i, 0, Value::Int(i as i64));
        }
        batch.retain(|row| matches!(row[0], Value::Int(i) if i % 2 == 0));
        assert_eq!(batch.active(), 5);
        assert_eq!(batch.rows(), 10);
        let mut seen = Vec::new();
        batch.for_each_selected(|row| seen.push(row[0].clone()));
        assert_eq!(
            seen,
            vec![
                Value::Int(0),
                Value::Int(2),
                Value::Int(4),
                Value::Int(6),
                Value::Int(8)
            ]
        );
    }

    #[test]
    fn push_row_of_copies_only_the_live_slots() {
        let mut batch = BindingBatch::new();
        batch.reset_empty(4);
        let src = [Value::Int(1), Value::str("dead"), Value::Int(3)];
        batch.push_row_of(&src, &[0, 2]);
        batch.set_last(3, Value::Int(9));
        assert_eq!(
            batch.row(0),
            &[Value::Int(1), Value::Null, Value::Int(3), Value::Int(9)]
        );
        assert_eq!(batch.sel(), &[0]);
    }
}
