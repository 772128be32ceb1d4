//! Seeded input generation: every file a workload reads is derived from
//! `--seed` alone, so the same seed gives byte-identical files and the
//! program under test receives only the generated inputs.
//!
//! The generator is the benchmark's own (SplitMix64), not the workspace's
//! `rand` shim, so a later change to that shim cannot silently change the
//! inputs the baseline was measured on.

use std::fmt::Write as _;
use std::path::Path;

use proteus_storage::{ColumnData, ColumnTable};

/// SplitMix64: tiny, fast, and good enough for shuffles and uniform picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named purpose (one file, one query
    /// sequence), so adding a consumer never shifts another's values.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2^-40 at our sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Row counts of every generated dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Records in `events.json` and `events.csv`.
    pub events: usize,
    /// Rows in binary `fact` (`fact_sorted` has 2.5 times as many).
    pub fact: usize,
    /// Rows in each `churn_<i>.csv`.
    pub churn: usize,
}

/// Distinct values of `events.grp` and `fact.g`.
pub const GROUPS: u64 = 1000;
/// Distinct values of `events.tag`.
pub const TAGS: u64 = 50;
/// Distinct values of `fact.h` (the second group-by key).
pub const SUBGROUPS: u64 = 16;
/// One `fact.k` in `DIM_EVERY` has a `dim` row: a 10% match rate.
pub const DIM_EVERY: usize = 10;
/// Number of `churn_<i>.csv` files.
pub const CHURN_FILES: usize = 6;

impl Sizes {
    pub const FULL: Sizes = Sizes {
        events: 60_000,
        fact: 400_000,
        churn: 60_000,
    };

    /// 1/50 of the full sizes: the unit-test smoke.
    pub const QUICK: Sizes = Sizes {
        events: Sizes::FULL.events / 50,
        fact: Sizes::FULL.fact / 50,
        churn: Sizes::FULL.churn / 50,
    };

    /// `fact_sorted` serves point queries, whose cost does not grow with the
    /// table, so it stays larger than the shuffled `fact` that every
    /// `binary_olap` query scans in full.
    pub fn fact_sorted(&self) -> usize {
        self.fact * 5 / 2
    }
}

fn permutation(n: usize, rng: &mut Rng) -> Vec<i64> {
    let mut ids: Vec<i64> = (0..n as i64).collect();
    rng.shuffle(&mut ids);
    ids
}

/// A value with two decimals, always rendered with a decimal point so JSON
/// schema inference types the field as a float.
fn cents(rng: &mut Rng) -> f64 {
    rng.below(100_000) as f64 / 100.0
}

fn push_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// `events.json` and `events.csv`: the same records in both formats. `id`
/// is a shuffled permutation (so zone maps cannot hide the parsing work),
/// ~2% of `val` are null, and JSON adds a nested `geo` record and a small
/// `items` array of 0–3 records.
pub fn write_events(dir: &Path, n: usize, seed: u64) -> std::io::Result<()> {
    let mut rng = Rng::stream(seed, "events");
    let ids = permutation(n, &mut rng);
    let mut json = String::with_capacity(n * 150);
    let mut csv = String::with_capacity(n * 32);
    for (row, id) in ids.iter().enumerate() {
        let grp = rng.below(GROUPS);
        let tag = rng.below(TAGS);
        // The first records stay non-null so the inferred JSON type is float.
        let val = (row < 8 || rng.below(50) != 0).then(|| cents(&mut rng));
        let _ = write!(json, "{{\"id\": {id}, \"grp\": {grp}, \"val\": ");
        let _ = write!(csv, "{id}|{grp}|");
        match val {
            Some(v) => {
                push_f64(&mut json, v);
                push_f64(&mut csv, v);
            }
            None => json.push_str("null"),
        }
        let _ = write!(json, ", \"tag\": \"tag_{tag:02}\", \"geo\": {{\"lat\": ");
        let _ = writeln!(csv, "|tag_{tag:02}");
        push_f64(&mut json, cents(&mut rng) / 10.0);
        json.push_str(", \"lon\": ");
        push_f64(&mut json, cents(&mut rng) / 10.0);
        json.push_str("}, \"items\": [");
        for item in 0..rng.below(4) {
            if item > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "{{\"sku\": {}, \"qty\": {}}}",
                rng.below(500),
                1 + rng.below(9)
            );
        }
        json.push_str("]}\n");
    }
    std::fs::write(dir.join("events.json"), json)?;
    std::fs::write(dir.join("events.csv"), csv)
}

fn storage_err(e: proteus_storage::StorageError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Binary `fact` (shuffled on `k`) or `fact_sorted` (same rows clustered on
/// `k`): `k` is a permutation of `0..n`, `g` has 1 000 values, `h` 16, `v`
/// is a float. Both layouts hold the same rows because `g`, `h`, `v` are
/// functions of the row's position in the shared seeded stream, re-ordered
/// by `k` for the sorted layout.
pub fn write_fact(dir: &Path, n: usize, seed: u64, sorted: bool) -> std::io::Result<()> {
    let mut rng = Rng::stream(seed, "fact");
    let keys = permutation(n, &mut rng);
    let mut g = vec![0i64; n];
    let mut h = vec![0i64; n];
    let mut v = vec![0f64; n];
    for (row, key) in keys.iter().enumerate() {
        // Sorted layout: the row with key `k` lands at position `k`.
        let at = if sorted { *key as usize } else { row };
        g[at] = rng.below(GROUPS) as i64;
        h[at] = rng.below(SUBGROUPS) as i64;
        v[at] = cents(&mut rng);
    }
    let k = if sorted {
        (0..n as i64).collect()
    } else {
        keys
    };
    let name = if sorted { "fact_sorted" } else { "fact" };
    ColumnTable::write(
        dir.join(name),
        &[
            ("k".to_string(), ColumnData::Int(k)),
            ("g".to_string(), ColumnData::Int(g)),
            ("h".to_string(), ColumnData::Int(h)),
            ("v".to_string(), ColumnData::Float(v)),
        ],
    )
    .map(|_| ())
    .map_err(storage_err)
}

/// Binary `dim`: one row per `DIM_EVERY`-th key of a `keyspace`-sized fact
/// or events table, shuffled, with a float payload `w`.
pub fn write_dim(dir: &Path, keyspace: usize, seed: u64) -> std::io::Result<()> {
    let mut rng = Rng::stream(seed, "dim");
    let mut dk: Vec<i64> = (0..keyspace as i64).step_by(DIM_EVERY).collect();
    rng.shuffle(&mut dk);
    let w = dk.iter().map(|_| cents(&mut rng)).collect();
    ColumnTable::write(
        dir.join("dim"),
        &[
            ("dk".to_string(), ColumnData::Int(dk)),
            ("w".to_string(), ColumnData::Float(w)),
        ],
    )
    .map(|_| ())
    .map_err(storage_err)
}

/// `churn_<i>.csv`: `a` (row number, clustered), `b` (1 009 values), `c`
/// (float).
pub fn write_churn(dir: &Path, n: usize, seed: u64) -> std::io::Result<()> {
    for file in 0..CHURN_FILES {
        let mut rng = Rng::stream(seed, &format!("churn_{file}"));
        let mut csv = String::with_capacity(n * 20);
        for a in 0..n {
            let _ = write!(csv, "{a}|{}|", rng.below(1009));
            push_f64(&mut csv, cents(&mut rng));
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("churn_{file}.csv")), csv)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("proteus_e2e_datagen_{}", std::process::id()))
            .join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn generate(name: &str, seed: u64) -> Vec<Vec<u8>> {
        let dir = scratch(name);
        write_events(&dir, 500, seed).unwrap();
        write_fact(&dir, 2000, seed, false).unwrap();
        write_churn(&dir, 300, seed).unwrap();
        let mut files = vec![
            std::fs::read(dir.join("events.json")).unwrap(),
            std::fs::read(dir.join("events.csv")).unwrap(),
            std::fs::read(dir.join("churn_3.csv")).unwrap(),
        ];
        let mut columns: Vec<_> = std::fs::read_dir(dir.join("fact"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        columns.sort();
        files.extend(columns.iter().map(|p| std::fs::read(p).unwrap()));
        std::fs::remove_dir_all(&dir).unwrap();
        files
    }

    #[test]
    fn same_seed_gives_byte_identical_files_and_another_seed_differs() {
        let a = generate("a", 7);
        let b = generate("b", 7);
        let c = generate("c", 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), c.len());
        // Every data-bearing file differs under another seed.
        for (x, y) in a.iter().zip(&c).take(3) {
            assert_ne!(x, y);
        }
        assert_ne!(a[3..], c[3..]);
    }

    #[test]
    fn sorted_and_shuffled_fact_hold_the_same_rows() {
        let dir = scratch("layouts");
        write_fact(&dir, 1000, 3, false).unwrap();
        write_fact(&dir, 1000, 3, true).unwrap();
        let rows = |name: &str| {
            let table = ColumnTable::open(dir.join(name)).unwrap();
            let col = |c: &str| match table.read_column(c).unwrap() {
                ColumnData::Int(v) => v.iter().map(|x| *x as f64).collect::<Vec<_>>(),
                ColumnData::Float(v) => v,
                _ => unreachable!(),
            };
            let (k, g, v) = (col("k"), col("g"), col("v"));
            let mut rows: Vec<(i64, i64, i64)> = (0..k.len())
                .map(|i| (k[i] as i64, g[i] as i64, (v[i] * 100.0).round() as i64))
                .collect();
            rows.sort();
            rows
        };
        let sorted = rows("fact_sorted");
        assert_eq!(sorted, rows("fact"));
        assert!(sorted.iter().enumerate().all(|(i, r)| r.0 == i as i64));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
