//! Cache persistence: spill files and warm-restart snapshots.
//!
//! Evicted-but-hot cache entries and full cache-directory snapshots are
//! written as `.pcache` files, one entry per file:
//!
//! ```text
//! "PCHE" | version u16 | reserved u16 | body_len u64 | body_crc32 u32 | body
//! ```
//!
//! The body carries the complete [`CacheEntry`] — identity (name, source
//! dataset and format), heat (build cost, hit count), OIDs, every column in
//! the `PCOL` layout, and per-column zone
//! frames (min/max/null-count per 1024-row chunk). The zone frames are
//! redundant with the columns by construction; the reader recomputes them
//! and rejects the file on any bitwise mismatch, so a file whose payload
//! decoded "successfully" but inconsistently is still refused. Bad magic,
//! unknown versions, truncation and CRC mismatches are all surfaced as
//! [`StorageError::Corrupt`] — callers degrade to a cache miss, never to a
//! wrong answer.
//!
//! Spill files are read back by the store's per-field lookup
//! (`CacheStore::lookup_column`) inside the query that needs the entry, and
//! written by the eviction inside the query whose build evicted it, so both
//! directions sit on a query's path: the checksum is table-driven.

use std::path::Path;

use crate::cache::{CacheEntry, CacheStore, SourceFormat, CACHE_ZONE_ROWS};
use crate::column::ColumnData;
use crate::error::{Result, StorageError};

const MAGIC: &[u8; 4] = b"PCHE";

/// On-disk snapshot format version; bumped on any layout change so stale
/// files from older builds are rejected instead of misread. Version 2
/// dropped the plan signature and the eagerness code from the body.
pub const CACHE_SNAPSHOT_VERSION: u16 = 2;

const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 4;

/// Outcome of [`warm`]: how many snapshot files were restored, refused
/// (corrupt/stale/fault-injected), or dropped for lack of budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmReport {
    /// Entries restored into the store.
    pub loaded: usize,
    /// Files rejected as corrupt, truncated, stale-versioned, or refused by
    /// the `cache.load` fault site.
    pub rejected: usize,
    /// Well-formed entries that did not fit the arena budget.
    pub skipped: usize,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), one table lookup per byte.

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ *byte as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Body writer/reader.

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64_bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(StorageError::Corrupt(format!(
                "truncated cache frame: need {} bytes at offset {}, have {}",
                n,
                self.pos,
                self.data.len() - self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn f64_bits(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Corrupt("non-UTF-8 string in cache frame".into()))
    }
    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

// ---------------------------------------------------------------------------
// Zone frames: per-column, per-1024-row min/max/null summaries. They are
// derived from the column on both sides; comparing them bitwise gives the
// reader an independent consistency check on the decoded payload.

#[derive(PartialEq)]
struct ZoneFrame {
    rows: u32,
    nulls: u32,
    min_bits: u64,
    max_bits: u64,
    numeric: u8,
}

fn zone_frames(col: &ColumnData) -> Vec<ZoneFrame> {
    let rows = col.len();
    let chunks = rows.div_ceil(CACHE_ZONE_ROWS).max(1);
    (0..chunks)
        .map(|c| {
            let start = c * CACHE_ZONE_ROWS;
            let count = (rows - start).min(CACHE_ZONE_ROWS);
            let (min, max, numeric) = match col {
                ColumnData::Int(v) => {
                    let slice = &v[start..start + count];
                    (
                        slice.iter().copied().min().unwrap_or(0) as f64,
                        slice.iter().copied().max().unwrap_or(0) as f64,
                        1,
                    )
                }
                ColumnData::Float(v) => {
                    let slice = &v[start..start + count];
                    (
                        slice.iter().copied().fold(f64::INFINITY, f64::min),
                        slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        1,
                    )
                }
                _ => (0.0, 0.0, 0),
            };
            ZoneFrame {
                rows: count as u32,
                nulls: 0,
                min_bits: min.to_bits(),
                max_bits: max.to_bits(),
                numeric,
            }
        })
        .collect()
}

fn format_code(format: SourceFormat) -> u8 {
    match format {
        SourceFormat::Binary => 0,
        SourceFormat::Csv => 1,
        SourceFormat::Json => 2,
    }
}

fn format_from_code(code: u8) -> Result<SourceFormat> {
    match code {
        0 => Ok(SourceFormat::Binary),
        1 => Ok(SourceFormat::Csv),
        2 => Ok(SourceFormat::Json),
        other => Err(StorageError::Corrupt(format!(
            "unknown source-format code {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Entry files.

/// Deterministic file name for an entry: a sanitized prefix for human
/// inspection plus an FNV-1a hash of the full name for uniqueness.
pub fn entry_file_name(name: &str) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.as_bytes() {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let prefix: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(40)
        .collect();
    format!("{prefix}-{hash:016x}.pcache")
}

fn encode_entry(entry: &CacheEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&entry.name);
    w.str(&entry.source_dataset);
    w.u8(format_code(entry.source_format));
    w.u64(entry.build_cost);
    w.u64(entry.hits());
    w.u32(entry.expressions.len() as u32);
    for expr in &entry.expressions {
        w.str(expr);
    }
    w.u64(entry.oids().len() as u64);
    for oid in entry.oids() {
        w.u64(*oid);
    }
    w.u32(entry.columns().len() as u32);
    for (name, col) in entry.columns() {
        w.str(name);
        w.bytes(&col.to_bytes());
        let frames = zone_frames(col);
        w.u32(frames.len() as u32);
        for frame in frames {
            w.u32(frame.rows);
            w.u32(frame.nulls);
            w.f64_bits(f64::from_bits(frame.min_bits));
            w.f64_bits(f64::from_bits(frame.max_bits));
            w.u8(frame.numeric);
        }
    }
    w.buf
}

fn decode_entry(body: &[u8]) -> Result<CacheEntry> {
    let mut r = Reader::new(body);
    let name = r.str()?;
    let source_dataset = r.str()?;
    let source_format = format_from_code(r.u8()?)?;
    let build_cost = r.u64()?;
    let hit_count = r.u64()?;
    let expr_count = r.u32()? as usize;
    let mut expressions = Vec::with_capacity(expr_count.min(4096));
    for _ in 0..expr_count {
        expressions.push(r.str()?);
    }
    let oid_count = r.u64()? as usize;
    if oid_count.saturating_mul(8) > body.len() {
        return Err(StorageError::Corrupt(format!(
            "oid count {oid_count} exceeds frame size"
        )));
    }
    let mut oids = Vec::with_capacity(oid_count);
    for _ in 0..oid_count {
        oids.push(r.u64()?);
    }
    let col_count = r.u32()? as usize;
    let mut columns = Vec::with_capacity(col_count.min(4096));
    for _ in 0..col_count {
        let col_name = r.str()?;
        let blob_len = r.u64()? as usize;
        let blob = r.take(blob_len)?;
        let col = ColumnData::from_bytes(blob)?;
        if col.len() != oids.len() {
            return Err(StorageError::Corrupt(format!(
                "column {col_name} has {} rows, expected {}",
                col.len(),
                oids.len()
            )));
        }
        // Zone frames must match what we would derive from the decoded
        // column — an independent consistency check beyond the CRC.
        let expected = zone_frames(&col);
        let frame_count = r.u32()? as usize;
        if frame_count != expected.len() {
            return Err(StorageError::Corrupt(format!(
                "column {col_name}: {frame_count} zone frames, expected {}",
                expected.len()
            )));
        }
        for want in &expected {
            let frame = ZoneFrame {
                rows: r.u32()?,
                nulls: r.u32()?,
                min_bits: r.f64_bits()?.to_bits(),
                max_bits: r.f64_bits()?.to_bits(),
                numeric: r.u8()?,
            };
            if frame != *want {
                return Err(StorageError::Corrupt(format!(
                    "column {col_name}: zone frame does not match column data"
                )));
            }
        }
        columns.push((col_name, col));
    }
    if !r.done() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after cache frame",
            body.len() - r.pos
        )));
    }
    let mut entry = crate::cache::make_entry(name, source_dataset, source_format, columns, oids);
    entry.expressions = expressions;
    entry.build_cost = build_cost;
    entry.set_hits(hit_count);
    Ok(entry)
}

/// Writes one cache entry to `path` (atomically, via a temp file rename).
pub fn write_entry(entry: &CacheEntry, path: &Path) -> Result<()> {
    let body = encode_entry(entry);
    let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
    frame.extend_from_slice(MAGIC);
    frame.extend_from_slice(&CACHE_SNAPSHOT_VERSION.to_le_bytes());
    frame.extend_from_slice(&0u16.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    let tmp = path.with_extension("pcache.tmp");
    std::fs::write(&tmp, &frame)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads one cache entry from `path`, rejecting bad magic, unknown
/// versions, truncation, CRC mismatches and inconsistent zone frames as
/// [`StorageError::Corrupt`]. The returned entry carries its persisted
/// heat (`build_cost`, hit count); `byte_size` is left for the store to
/// recompute on insert.
pub fn read_entry(path: &Path) -> Result<CacheEntry> {
    let data = std::fs::read(path)?;
    if data.len() < HEADER_LEN {
        return Err(StorageError::Corrupt(format!(
            "cache file too short ({} bytes)",
            data.len()
        )));
    }
    if &data[0..4] != MAGIC {
        return Err(StorageError::Corrupt("bad cache-file magic".into()));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != CACHE_SNAPSHOT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "cache file version {version}, expected {CACHE_SNAPSHOT_VERSION}"
        )));
    }
    let body_len = u64::from_le_bytes([
        data[8], data[9], data[10], data[11], data[12], data[13], data[14], data[15],
    ]) as usize;
    let crc = u32::from_le_bytes([data[16], data[17], data[18], data[19]]);
    let body = &data[HEADER_LEN..];
    if body.len() != body_len {
        return Err(StorageError::Corrupt(format!(
            "cache body is {} bytes, header says {}",
            body.len(),
            body_len
        )));
    }
    if crc32(body) != crc {
        return Err(StorageError::Corrupt("cache body CRC mismatch".into()));
    }
    decode_entry(body)
}

/// Snapshots every live cache entry into `dir` (created if needed; old
/// `.pcache` files are removed first so the directory mirrors the store).
/// Entries refused by the `cache.spill` fault site are skipped. Returns
/// the number of entries written.
pub fn snapshot(store: &CacheStore, dir: &Path) -> Result<usize> {
    std::fs::create_dir_all(dir)?;
    for existing in std::fs::read_dir(dir)? {
        let path = existing?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("pcache") {
            let _ = std::fs::remove_file(&path);
        }
    }
    let mut entries = store.entries_snapshot();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let mut written = 0;
    for entry in entries {
        if store.probe("cache.spill").is_err() {
            continue;
        }
        write_entry(&entry, &dir.join(entry_file_name(&entry.name)))?;
        written += 1;
    }
    Ok(written)
}

/// Restores a snapshot directory into the store. Files that fail the
/// `cache.load` fault site or any integrity check count as `rejected`;
/// well-formed entries the budget cannot hold count as `skipped`. Load
/// order is deterministic (sorted file names), so which entries survive a
/// tight budget is reproducible.
pub fn warm(store: &CacheStore, dir: &Path) -> Result<WarmReport> {
    let mut report = WarmReport::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pcache"))
        .collect();
    paths.sort();
    for path in paths {
        if store.probe("cache.load").is_err() {
            report.rejected += 1;
            continue;
        }
        let entry = match read_entry(&path) {
            Ok(entry) => entry,
            Err(_) => {
                report.rejected += 1;
                continue;
            }
        };
        match store.insert(entry) {
            Ok(()) => report.loaded += 1,
            Err(_) => report.skipped += 1,
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::make_entry;
    use crate::memory::MemoryManager;

    fn sample_entry() -> CacheEntry {
        let mut entry = make_entry(
            "lineitem::price+qty",
            "lineitem",
            SourceFormat::Json,
            vec![
                (
                    "price".to_string(),
                    ColumnData::Float((0..2000).map(|i| i as f64 * 1.5).collect()),
                ),
                ("qty".to_string(), ColumnData::Int((0..2000).collect())),
                (
                    "tag".to_string(),
                    ColumnData::Str((0..2000).map(|i| format!("t{i}")).collect()),
                ),
            ],
            (0..2000).collect(),
        );
        entry.build_cost = 12345;
        entry.set_hits(7);
        entry
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("proteus_persist_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let dir = tmp_dir("roundtrip");
        let entry = sample_entry();
        let path = dir.join(entry_file_name(&entry.name));
        write_entry(&entry, &path).unwrap();
        let restored = read_entry(&path).unwrap();
        assert_eq!(restored.name, entry.name);
        assert_eq!(restored.source_dataset, entry.source_dataset);
        assert_eq!(restored.source_format, entry.source_format);
        assert_eq!(restored.columns(), entry.columns());
        assert_eq!(restored.oids(), entry.oids());
        assert_eq!(restored.build_cost, 12345);
        assert_eq!(restored.hits(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = tmp_dir("truncated");
        let entry = sample_entry();
        let path = dir.join("e.pcache");
        write_entry(&entry, &path).unwrap();
        let data = std::fs::read(&path).unwrap();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 5, data.len() - 1] {
            std::fs::write(&path, &data[..cut]).unwrap();
            assert!(
                matches!(read_entry(&path), Err(StorageError::Corrupt(_))),
                "cut at {cut} must be rejected"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let dir = tmp_dir("corrupt");
        let entry = sample_entry();
        let path = dir.join("e.pcache");
        write_entry(&entry, &path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte: CRC must catch it.
        let mid = HEADER_LEN + (data.len() - HEADER_LEN) / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(read_entry(&path), Err(StorageError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The bitwise CRC the table is derived from.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for byte in data {
            crc ^= *byte as u32;
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_matches_the_bitwise_reference() {
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_byte = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for seed in 0..8 {
            for len in 1..=17 {
                let data: Vec<u8> = (0..len).map(|_| next_byte()).collect();
                assert_eq!(
                    crc32(&data),
                    reference_crc32(&data),
                    "seed {seed} len {len}"
                );
            }
        }
        let body: Vec<u8> = (0..1_400_000).map(|_| next_byte()).collect();
        assert_eq!(crc32(&body), reference_crc32(&body));
    }

    #[test]
    fn stale_version_is_rejected() {
        let dir = tmp_dir("version");
        let entry = sample_entry();
        let path = dir.join("e.pcache");
        write_entry(&entry, &path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[4] = 0xFE;
        data[5] = 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(read_entry(&path), Err(StorageError::Corrupt(_))));
        // A version-1 file (the layout with a plan signature) is refused,
        // and a warm restart counts it as rejected.
        data[4..6].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(read_entry(&path), Err(StorageError::Corrupt(_))));
        let store = CacheStore::new(MemoryManager::with_budget(1 << 22));
        let report = warm(&store, &dir).unwrap();
        assert_eq!((report.loaded, report.rejected), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_file_is_rejected() {
        let dir = tmp_dir("garbage");
        let path = dir.join("e.pcache");
        std::fs::write(&path, b"not a cache file at all, but long enough....").unwrap();
        assert!(matches!(read_entry(&path), Err(StorageError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_and_warm_round_trip() {
        let dir = tmp_dir("snapshot");
        let store = CacheStore::new(MemoryManager::with_budget(1 << 22));
        store.insert(sample_entry()).unwrap();
        let mut second = sample_entry();
        second.name = "other".into();
        second.source_dataset = "orders".into();
        store.insert(second).unwrap();
        assert_eq!(snapshot(&store, &dir).unwrap(), 2);

        let restored = CacheStore::new(MemoryManager::with_budget(1 << 22));
        let report = warm(&restored, &dir).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.rejected, 0);
        let entry = restored.get("lineitem::price+qty").unwrap();
        assert_eq!(entry.columns(), sample_entry().columns());
        assert_eq!(restored.get("other").unwrap().source_dataset, "orders");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_rejects_corrupt_keeps_good() {
        let dir = tmp_dir("warm_mixed");
        let store = CacheStore::new(MemoryManager::with_budget(1 << 22));
        store.insert(sample_entry()).unwrap();
        snapshot(&store, &dir).unwrap();
        std::fs::write(dir.join("zz_bad.pcache"), b"garbage garbage garbage").unwrap();

        let restored = CacheStore::new(MemoryManager::with_budget(1 << 22));
        let report = warm(&restored, &dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_skips_entries_over_budget() {
        let dir = tmp_dir("warm_budget");
        let store = CacheStore::new(MemoryManager::with_budget(1 << 22));
        store.insert(sample_entry()).unwrap();
        snapshot(&store, &dir).unwrap();

        let tiny = CacheStore::new(MemoryManager::with_budget(64));
        let report = warm(&tiny, &dir).unwrap();
        assert_eq!(report.loaded, 0);
        assert_eq!(report.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_file_names_are_distinct_and_safe() {
        let a = entry_file_name("ds::a+b");
        let b = entry_file_name("ds::a+c");
        assert_ne!(a, b);
        assert!(a.ends_with(".pcache"));
        assert!(!a.contains(':') && !a.contains('+'));
    }
}
