//! Packed 64-bit selection bitmasks.
//!
//! The mask a predicate kernel produces for one morsel is a `Vec<u64>` of
//! `words_for(rows)` words: bit `i & 63` of word `i >> 6` is row `i`'s
//! verdict. This is the same word layout as [`TypedColumn`] null bitmaps
//! (`proteus_plugins::TypedColumn::null_words`), so null propagation is a
//! word-wise `OR`/`AND NOT` against the column's own bitmap — no per-row
//! branch anywhere between the comparison loop and the selection vector.
//!
//! Compared to the `Vec<bool>` representation this replaced, a packed mask
//! is 8× denser, `AND`/`OR`/`NOT` combine 64 rows per instruction, null
//! bitmaps fold in without per-row tests, and the mask → selection-vector
//! compress-store adapts to density ([`push_selected`]): sparse masks walk
//! their set bits with `trailing_zeros`, dense masks compact branch-free
//! per row.
//!
//! # Invariant
//!
//! Every function here maintains: a mask for `rows` rows has **exactly**
//! [`words_for`]`(rows)` words and every bit at position `>= rows` (the tail
//! of the last word) is **zero**. Word-wise combiners preserve the invariant
//! for free; [`not`] re-clears the tail after complementing. Consumers may
//! therefore iterate set bits without re-checking `rows`.
//!
//! [`TypedColumn`]: proteus_plugins::TypedColumn

/// Number of 64-bit words a mask for `rows` rows occupies.
#[inline]
pub fn words_for(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// Bit `i` of the mask (row `i`'s verdict).
#[inline]
pub fn get(mask: &[u64], i: usize) -> bool {
    mask[i >> 6] >> (i & 63) & 1 == 1
}

/// Resets the mask to `rows` rows of `value` (tail bits zero).
pub fn fill(mask: &mut Vec<u64>, rows: usize, value: bool) {
    mask.clear();
    mask.resize(words_for(rows), if value { !0u64 } else { 0 });
    if value {
        clear_tail(mask, rows);
    }
}

/// Zeroes every bit at position `>= rows` in the last word.
#[inline]
pub fn clear_tail(mask: &mut [u64], rows: usize) {
    if rows & 63 != 0 {
        if let Some(last) = mask.last_mut() {
            *last &= (1u64 << (rows & 63)) - 1;
        }
    }
}

/// Complements the mask in place, re-establishing the zero-tail invariant.
pub fn not(mask: &mut [u64], rows: usize) {
    for w in mask.iter_mut() {
        *w = !*w;
    }
    clear_tail(mask, rows);
}

/// `dst &= src`, word-wise. `src` may be shorter (missing words count as
/// all-zero — the shape of a column null bitmap that stops at its last set
/// bit); the excess `dst` words are cleared.
pub fn and(dst: &mut [u64], src: &[u64]) {
    let n = src.len().min(dst.len());
    for (d, s) in dst[..n].iter_mut().zip(src) {
        *d &= *s;
    }
    for d in dst[n..].iter_mut() {
        *d = 0;
    }
}

/// `dst |= src`, word-wise. `src` may be shorter (missing words count as
/// all-zero).
pub fn or(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= *s;
    }
}

/// `dst &= !src`, word-wise. `src` may be shorter (missing words count as
/// all-zero, i.e. those `dst` words are untouched).
pub fn and_not(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= !*s;
    }
}

/// Rebuilds the mask as a copy of `src` sized for `rows` rows (`src` may be
/// shorter; missing words become zero).
pub fn copy_from(mask: &mut Vec<u64>, rows: usize, src: &[u64]) {
    mask.clear();
    let words = words_for(rows);
    let n = src.len().min(words);
    mask.extend_from_slice(&src[..n]);
    mask.resize(words, 0);
}

/// Packs a 64-byte buffer of 0/1 verdicts into one mask word: eight
/// byte-lane movemasks via the `0x0102_0408_1020_4080` multiply trick.
/// Exact for 0/1 bytes — every per-byte partial sum is ≤ `0xFF`, so no
/// carry ever crosses a byte boundary into the extracted top byte.
// Invariant: each `try_into` converts an exactly-8-byte slice of the fixed
// 64-byte buffer, so it cannot fail.
#[allow(clippy::unwrap_used)]
#[inline]
fn pack64(bytes: &[u8; 64]) -> u64 {
    let mut w = 0u64;
    for k in 0..8 {
        let v = u64::from_le_bytes(bytes[k * 8..k * 8 + 8].try_into().unwrap());
        w |= ((v.wrapping_mul(0x0102_0408_1020_4080) >> 56) & 0xff) << (k * 8);
    }
    w
}

/// Packs `f(lane)` over a dense lane slice into the mask, one word per 64
/// lanes. Two stages per full word: the (monomorphized, branch-free)
/// comparison fills a 64-byte stack buffer — a plain byte-store loop the
/// compiler can vectorize — and `pack64` collapses the bytes to bits, 8
/// lanes per multiply. No per-row branch, no per-row shift dependency.
pub fn pack_slice<T: Copy>(mask: &mut Vec<u64>, lanes: &[T], mut f: impl FnMut(T) -> bool) {
    mask.clear();
    mask.reserve(words_for(lanes.len()));
    let mut chunks = lanes.chunks_exact(64);
    for chunk in &mut chunks {
        let mut bytes = [0u8; 64];
        for (b, &x) in bytes.iter_mut().zip(chunk) {
            *b = f(x) as u8;
        }
        mask.push(pack64(&bytes));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut bits = 0u64;
        for (b, &x) in rem.iter().enumerate() {
            bits |= (f(x) as u64) << b;
        }
        mask.push(bits);
    }
}

/// Packs `f(a_lane, b_lane)` over two parallel lane slices into the mask
/// (the column-vs-column comparison shape; same two-stage scheme as
/// [`pack_slice`]).
pub fn pack_zip<A: Copy, B: Copy>(
    mask: &mut Vec<u64>,
    a: &[A],
    b: &[B],
    mut f: impl FnMut(A, B) -> bool,
) {
    debug_assert_eq!(a.len(), b.len());
    mask.clear();
    mask.reserve(words_for(a.len()));
    let mut a_chunks = a.chunks_exact(64);
    let mut b_chunks = b.chunks_exact(64);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        let mut bytes = [0u8; 64];
        for ((o, &x), &y) in bytes.iter_mut().zip(ca).zip(cb) {
            *o = f(x, y) as u8;
        }
        mask.push(pack64(&bytes));
    }
    let (ra, rb) = (a_chunks.remainder(), b_chunks.remainder());
    if !ra.is_empty() {
        let mut bits = 0u64;
        for (i, (&x, &y)) in ra.iter().zip(rb).enumerate() {
            bits |= (f(x, y) as u64) << i;
        }
        mask.push(bits);
    }
}

/// Packs `f(i)` over row indexes `0..rows` into the mask (the generic shape
/// for computed operands; same two-stage scheme as [`pack_slice`]).
pub fn pack_rows(mask: &mut Vec<u64>, rows: usize, mut f: impl FnMut(usize) -> bool) {
    mask.clear();
    mask.reserve(words_for(rows));
    let mut base = 0usize;
    while base + 64 <= rows {
        let mut bytes = [0u8; 64];
        for (b, o) in bytes.iter_mut().enumerate() {
            *o = f(base + b) as u8;
        }
        mask.push(pack64(&bytes));
        base += 64;
    }
    if base < rows {
        let mut bits = 0u64;
        for b in 0..rows - base {
            bits |= (f(base + b) as u64) << b;
        }
        mask.push(bits);
    }
}

/// Calls `f(row)` for every set bit, in ascending row order, via
/// `trailing_zeros` iteration — cost proportional to the number of
/// *survivors*, not to `rows` (the compress-store of an identity selection).
#[inline]
pub fn for_each_set(mask: &[u64], mut f: impl FnMut(u32)) {
    for (wi, &word) in mask.iter().enumerate() {
        let mut w = word;
        let base = (wi as u32) << 6;
        while w != 0 {
            f(base + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// Number of set bits.
pub fn count_ones(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// Appends the row index of every set bit to `out`, in ascending order —
/// the mask → selection-vector compress-store for an identity selection.
///
/// Density-adaptive: sparse masks (≤ ¼ of rows set) walk set bits with
/// [`for_each_set`], paying per *survivor*; denser masks use a branch-free
/// per-row bit-test compaction instead, because the `trailing_zeros` walk's
/// loop-carried `w &= w - 1` dependency costs more than one predictable
/// store+add per row once survivors dominate. The `count_ones` pre-pass is
/// a handful of words per morsel.
pub fn push_selected(mask: &[u64], rows: usize, out: &mut Vec<u32>) {
    debug_assert!(mask.len() >= words_for(rows));
    let survivors = count_ones(mask);
    if survivors * 4 <= rows {
        for_each_set(mask, |r| out.push(r));
        return;
    }
    let start = out.len();
    out.resize(start + rows, 0);
    let dst = &mut out[start..];
    let mut n = 0usize;
    for (wi, &w) in mask[..words_for(rows)].iter().enumerate() {
        let base = wi << 6;
        for b in 0..64.min(rows - base) {
            dst[n] = (base + b) as u32;
            n += (w >> b & 1) as usize;
        }
    }
    out.truncate(start + n);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference packer: the old `Vec<bool>` representation.
    fn pack_naive(bools: &[bool]) -> Vec<u64> {
        let mut mask = vec![0u64; words_for(bools.len())];
        for (i, &b) in bools.iter().enumerate() {
            if b {
                mask[i >> 6] |= 1 << (i & 63);
            }
        }
        mask
    }

    /// Row counts that straddle every word-boundary shape: empty, single
    /// row, one-below/at/above one and two full words, and a long tail.
    const EDGE_ROWS: &[usize] = &[0, 1, 63, 64, 65, 127, 128, 129, 200];

    #[test]
    fn pack_round_trips_against_boolean_reference() {
        for &rows in EDGE_ROWS {
            let bools: Vec<bool> = (0..rows).map(|i| i % 3 == 0).collect();
            let mut mask = Vec::new();
            pack_slice(&mut mask, &bools, |b| b);
            assert_eq!(mask, pack_naive(&bools), "rows={rows}");
            assert_eq!(mask.len(), words_for(rows));
            for (i, &b) in bools.iter().enumerate() {
                assert_eq!(get(&mask, i), b, "rows={rows} bit {i}");
            }
        }
    }

    #[test]
    fn pack_rows_and_pack_zip_agree_with_pack_slice() {
        for &rows in EDGE_ROWS {
            let a: Vec<i64> = (0..rows as i64).collect();
            let b: Vec<i64> = (0..rows as i64).map(|i| i % 5).collect();
            let mut by_slice = Vec::new();
            pack_slice(&mut by_slice, &a, |x| x % 7 < 3);
            let mut by_rows = Vec::new();
            pack_rows(&mut by_rows, rows, |i| a[i] % 7 < 3);
            assert_eq!(by_slice, by_rows, "rows={rows}");
            let mut zipped = Vec::new();
            pack_zip(&mut zipped, &a, &b, |x, y| x > y);
            let mut zipped_by_rows = Vec::new();
            pack_rows(&mut zipped_by_rows, rows, |i| a[i] > b[i]);
            assert_eq!(zipped, zipped_by_rows, "rows={rows}");
        }
    }

    #[test]
    fn fill_and_not_keep_the_tail_clear() {
        for &rows in EDGE_ROWS {
            let mut mask = Vec::new();
            fill(&mut mask, rows, true);
            assert_eq!(count_ones(&mask), rows, "all-one fill rows={rows}");
            not(&mut mask, rows);
            assert_eq!(count_ones(&mask), 0, "NOT all-ones rows={rows}");
            not(&mut mask, rows);
            assert_eq!(count_ones(&mask), rows, "NOT all-zeros rows={rows}");
            fill(&mut mask, rows, false);
            assert_eq!(count_ones(&mask), 0, "all-zero fill rows={rows}");
        }
    }

    #[test]
    fn word_wise_combiners_match_per_row_logic() {
        let rows = 129;
        let a_bools: Vec<bool> = (0..rows).map(|i| i % 2 == 0).collect();
        let b_bools: Vec<bool> = (0..rows).map(|i| i % 3 == 0).collect();
        let (a, b) = (pack_naive(&a_bools), pack_naive(&b_bools));

        let mut m = a.clone();
        and(&mut m, &b);
        for i in 0..rows {
            assert_eq!(get(&m, i), a_bools[i] && b_bools[i]);
        }
        let mut m = a.clone();
        or(&mut m, &b);
        for i in 0..rows {
            assert_eq!(get(&m, i), a_bools[i] || b_bools[i]);
        }
        let mut m = a.clone();
        and_not(&mut m, &b);
        for i in 0..rows {
            assert_eq!(get(&m, i), a_bools[i] && !b_bools[i]);
        }
    }

    #[test]
    fn shorter_src_counts_as_zero_words() {
        // A null bitmap that stops at its last set bit: rows=129 but only
        // one word of nulls.
        let rows = 129;
        let nulls = vec![u64::MAX]; // rows 0..64 null
        let mut m = Vec::new();
        fill(&mut m, rows, true);
        and_not(&mut m, &nulls);
        for i in 0..rows {
            assert_eq!(get(&m, i), i >= 64, "and_not bit {i}");
        }
        let mut m = Vec::new();
        fill(&mut m, rows, false);
        or(&mut m, &nulls);
        for i in 0..rows {
            assert_eq!(get(&m, i), i < 64, "or bit {i}");
        }
        let mut m = Vec::new();
        fill(&mut m, rows, true);
        and(&mut m, &nulls);
        for i in 0..rows {
            assert_eq!(get(&m, i), i < 64, "and bit {i}");
        }
        let mut m = Vec::new();
        copy_from(&mut m, rows, &nulls);
        assert_eq!(m.len(), words_for(rows));
        for i in 0..rows {
            assert_eq!(get(&m, i), i < 64, "copy_from bit {i}");
        }
    }

    #[test]
    fn push_selected_dense_and_sparse_agree() {
        for &rows in EDGE_ROWS {
            // Sparse (1/8 set) takes the trailing_zeros path, dense (3/4
            // set) the branch-free compaction; both must emit exactly the
            // set rows in order.
            for sparse in [true, false] {
                let bools: Vec<bool> = (0..rows)
                    .map(|i| if sparse { i % 8 == 0 } else { i % 4 != 3 })
                    .collect();
                let mask = pack_naive(&bools);
                let expected: Vec<u32> = (0..rows as u32).filter(|&i| bools[i as usize]).collect();
                let mut out = vec![7u32; 3]; // pre-existing prefix must survive
                push_selected(&mask, rows, &mut out);
                assert_eq!(&out[..3], &[7, 7, 7], "rows={rows} sparse={sparse}");
                assert_eq!(&out[3..], &expected[..], "rows={rows} sparse={sparse}");
            }
        }
    }

    #[test]
    fn for_each_set_iterates_in_row_order() {
        for &rows in EDGE_ROWS {
            let bools: Vec<bool> = (0..rows).map(|i| i % 7 == 1 || i == rows - 1).collect();
            let mask = pack_naive(&bools);
            let expected: Vec<u32> = (0..rows as u32).filter(|&i| bools[i as usize]).collect();
            let mut seen = Vec::new();
            for_each_set(&mask, |r| seen.push(r));
            assert_eq!(seen, expected, "rows={rows}");
        }
    }
}
