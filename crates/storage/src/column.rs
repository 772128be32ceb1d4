//! Typed column vectors and the on-disk binary column format.
//!
//! §7.1: "Proteus operates over binary column files similar to the ones of
//! MonetDB." This module provides the [`ColumnData`] vectors that the cache
//! store, the binary-column input plug-in and the column-store baseline
//! engines all share, plus reading/writing them as binary files.
//!
//! On-disk layout of a column file:
//!
//! ```text
//! magic "PCOL" | type code u8 | row count u64 LE | payload
//!   Int/Float/Date : row_count × 8-byte LE values
//!   Bool           : row_count × 1 byte
//!   Str            : row_count × (u32 LE length) offsets table, then bytes
//! ```
//!
//! A [`ColumnTable`] is a directory holding one `.col` file per column plus a
//! `_schema.txt` manifest (`name:type` per line) so a table can be reopened
//! without out-of-band schema knowledge.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use proteus_algebra::{DataType, Field, Schema, Value};

use crate::error::{Result, StorageError};

const MAGIC: &[u8; 4] = b"PCOL";

/// A typed, fully materialized column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// UTF-8 strings.
    Str(Vec<String>),
}

impl ColumnData {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The [`DataType`] of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Str(_) => DataType::String,
        }
    }

    /// The value at a row index.
    pub fn value_at(&self, idx: usize) -> Option<Value> {
        match self {
            ColumnData::Int(v) => v.get(idx).map(|x| Value::Int(*x)),
            ColumnData::Float(v) => v.get(idx).map(|x| Value::Float(*x)),
            ColumnData::Bool(v) => v.get(idx).map(|x| Value::Bool(*x)),
            ColumnData::Str(v) => v.get(idx).map(|x| Value::Str(x.clone())),
        }
    }

    /// Fills a strided destination slice with the values of rows
    /// `start..start + count`: value `i` lands at `out[base + i * stride]`.
    ///
    /// This is the column side of the morsel scan path: one call per
    /// (column, morsel) with a monomorphic inner loop, instead of one
    /// type-dispatched access per tuple.
    pub fn fill_values(
        &self,
        start: usize,
        count: usize,
        out: &mut [Value],
        base: usize,
        stride: usize,
    ) {
        match self {
            ColumnData::Int(v) => {
                for (i, x) in v[start..start + count].iter().enumerate() {
                    out[base + i * stride] = Value::Int(*x);
                }
            }
            ColumnData::Float(v) => {
                for (i, x) in v[start..start + count].iter().enumerate() {
                    out[base + i * stride] = Value::Float(*x);
                }
            }
            ColumnData::Bool(v) => {
                for (i, x) in v[start..start + count].iter().enumerate() {
                    out[base + i * stride] = Value::Bool(*x);
                }
            }
            ColumnData::Str(v) => {
                for (i, x) in v[start..start + count].iter().enumerate() {
                    out[base + i * stride] = Value::Str(x.clone());
                }
            }
        }
    }

    /// Appends a value, coercing numerics; errors on class mismatch.
    pub fn push_value(&mut self, value: &Value) -> Result<()> {
        match (self, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(*x),
            (ColumnData::Int(v), Value::Date(x)) => v.push(*x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(*x),
            (ColumnData::Float(v), Value::Int(x)) => v.push(*x as f64),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(*x),
            (ColumnData::Str(v), Value::Str(x)) => v.push(x.clone()),
            (col, other) => {
                return Err(StorageError::TypeMismatch(format!(
                    "cannot append {other:?} to a {:?} column",
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Creates an empty column of the given type (strings for Any).
    pub fn empty_of(data_type: &DataType) -> ColumnData {
        match data_type {
            DataType::Int | DataType::Date => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            _ => ColumnData::Str(Vec::new()),
        }
    }

    /// Approximate in-memory footprint in bytes (used for cache accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.iter().map(|s| s.len() + 4).sum(),
        }
    }

    /// Serializes the column to the binary column file layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size() + 16);
        out.extend_from_slice(MAGIC);
        match self {
            ColumnData::Int(v) => {
                out.push(0);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Float(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Bool(v) => {
                out.push(2);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    out.push(u8::from(*x));
                }
            }
            ColumnData::Str(v) => {
                out.push(3);
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for s in v {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                }
                for s in v {
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        out
    }

    /// Parses a column from its binary layout.
    pub fn from_bytes(data: &[u8]) -> Result<ColumnData> {
        let (type_code, count) = parse_header(data)?;
        let payload = &data[HEADER_BYTES..];
        match type_code {
            0 | 1 => {
                let need = payload_bytes(type_code, count)?;
                if payload.len() < need {
                    return Err(StorageError::Corrupt(format!(
                        "truncated numeric payload: need {need} bytes at byte offset 13, have {}",
                        payload.len()
                    )));
                }
                let words = payload[..need].chunks_exact(8).map(|word| {
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(word);
                    bytes
                });
                if type_code == 0 {
                    Ok(ColumnData::Int(words.map(i64::from_le_bytes).collect()))
                } else {
                    Ok(ColumnData::Float(words.map(f64::from_le_bytes).collect()))
                }
            }
            2 => {
                if payload.len() < count {
                    return Err(StorageError::Corrupt(format!(
                        "truncated bool payload: need {} bytes at byte offset 13, have {}",
                        count,
                        payload.len()
                    )));
                }
                Ok(ColumnData::Bool(
                    payload[..count].iter().map(|b| *b != 0).collect(),
                ))
            }
            3 => {
                let need = payload_bytes(type_code, count)?;
                if payload.len() < need {
                    return Err(StorageError::Corrupt(format!(
                        "truncated string offsets: need {need} bytes at byte offset 13, have {}",
                        payload.len()
                    )));
                }
                let mut lengths = Vec::with_capacity(count);
                for i in 0..count {
                    lengths.push(
                        u32::from_le_bytes(payload[i * 4..i * 4 + 4].try_into().unwrap()) as usize,
                    );
                }
                let mut strings = Vec::with_capacity(count);
                let mut offset = need;
                for len in lengths {
                    if offset + len > payload.len() {
                        return Err(StorageError::Corrupt(format!(
                            "truncated string payload: string of {} bytes at byte offset {} overruns column end {}",
                            len,
                            13 + offset,
                            13 + payload.len()
                        )));
                    }
                    let s = std::str::from_utf8(&payload[offset..offset + len])
                        .map_err(|_| {
                            StorageError::Corrupt("invalid utf-8 in string column".into())
                        })?
                        .to_string();
                    strings.push(s);
                    offset += len;
                }
                Ok(ColumnData::Str(strings))
            }
            other => Err(StorageError::Corrupt(format!(
                "unknown column type code {other}"
            ))),
        }
    }
}

/// Bytes of a column file's header: magic, type code, row count.
const HEADER_BYTES: usize = 13;

/// The type code and row count of a column file's header (its first
/// [`HEADER_BYTES`] bytes): corrupt when the magic is wrong or the bytes run
/// short.
fn parse_header(data: &[u8]) -> Result<(u8, usize)> {
    if data.len() < HEADER_BYTES || &data[0..4] != MAGIC {
        return Err(StorageError::Corrupt("bad column magic".into()));
    }
    let mut count = [0u8; 8];
    count.copy_from_slice(&data[5..HEADER_BYTES]);
    let count = u64::from_le_bytes(count);
    let count = usize::try_from(count).map_err(|_| {
        StorageError::Corrupt(format!("row count {count} does not fit this platform"))
    })?;
    Ok((data[4], count))
}

/// The fewest payload bytes `count` rows of `type_code` take (for strings,
/// the length table): corrupt for an unknown type code, and for a row count
/// that overflows the product (it would otherwise pass the length check with
/// a wrapped size and abort on the allocation).
fn payload_bytes(type_code: u8, count: usize) -> Result<usize> {
    let width = match type_code {
        0 | 1 => 8,
        2 => 1,
        3 => 4,
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown column type code {other}"
            )))
        }
    };
    count.checked_mul(width).ok_or_else(|| {
        StorageError::Corrupt(format!(
            "row count {count} overflows the payload size ({width} bytes per row)"
        ))
    })
}

/// A table stored column-by-column on disk.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    /// Directory holding the column files.
    pub dir: PathBuf,
    /// Table schema.
    pub schema: Schema,
    /// Number of rows.
    pub row_count: usize,
}

impl ColumnTable {
    /// Writes a set of named columns as a column table directory.
    pub fn write(dir: impl AsRef<Path>, columns: &[(String, ColumnData)]) -> Result<ColumnTable> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let row_count = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        let mut manifest = String::new();
        for (name, column) in columns {
            if column.len() != row_count {
                return Err(StorageError::Corrupt(format!(
                    "column {name} has {} rows, expected {row_count}",
                    column.len()
                )));
            }
            fs::write(dir.join(format!("{name}.col")), column.to_bytes())?;
            let type_name = match column.data_type() {
                DataType::Int => "int",
                DataType::Float => "float",
                DataType::Bool => "bool",
                _ => "string",
            };
            manifest.push_str(&format!("{name}:{type_name}\n"));
        }
        fs::write(dir.join("_schema.txt"), &manifest)?;
        let schema = Schema::new(
            columns
                .iter()
                .map(|(name, col)| Field::new(name.clone(), col.data_type()))
                .collect(),
        );
        Ok(ColumnTable {
            dir,
            schema,
            row_count,
        })
    }

    /// Opens an existing column table directory by reading its manifest.
    pub fn open(dir: impl AsRef<Path>) -> Result<ColumnTable> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = fs::read_to_string(dir.join("_schema.txt")).map_err(|_| {
            StorageError::NotFound(format!("{} is not a column table", dir.display()))
        })?;
        let mut fields = Vec::new();
        for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
            let (name, type_name) = line
                .split_once(':')
                .ok_or_else(|| StorageError::Corrupt(format!("bad manifest line: {line}")))?;
            let data_type = match type_name.trim() {
                "int" => DataType::Int,
                "float" => DataType::Float,
                "bool" => DataType::Bool,
                _ => DataType::String,
            };
            fields.push(Field::new(name.trim(), data_type));
        }
        let schema = Schema::new(fields);
        let row_count = match schema.fields().first() {
            Some(field) => Self::row_count_of(&dir, &field.name)?,
            None => 0,
        };
        Ok(ColumnTable {
            dir,
            schema,
            row_count,
        })
    }

    /// Reads one column of the table.
    pub fn read_column(&self, name: &str) -> Result<ColumnData> {
        if self.schema.index_of(name).is_none() {
            return Err(StorageError::NotFound(format!(
                "column {name} in {}",
                self.dir.display()
            )));
        }
        Self::read_column_file(&self.dir, name)
    }

    /// The row count of one column file, from its header alone: the header
    /// must be sound and the file long enough for that many rows (for
    /// strings, their length table), so a truncated or corrupt column is
    /// refused without its payload being read or decoded.
    fn row_count_of(dir: &Path, name: &str) -> Result<usize> {
        let file = fs::File::open(dir.join(format!("{name}.col")))?;
        let file_len = file.metadata()?.len();
        let mut header = Vec::with_capacity(HEADER_BYTES);
        file.take(HEADER_BYTES as u64).read_to_end(&mut header)?;
        let (type_code, count) = parse_header(&header)?;
        let need = payload_bytes(type_code, count)?;
        let have = file_len.saturating_sub(HEADER_BYTES as u64);
        if have < need as u64 {
            return Err(StorageError::Corrupt(format!(
                "truncated column {name}: {count} rows need {need} payload bytes at byte offset {HEADER_BYTES}, the file has {have}"
            )));
        }
        Ok(count)
    }

    fn read_column_file(dir: &Path, name: &str) -> Result<ColumnData> {
        let bytes = fs::read(dir.join(format!("{name}.col")))?;
        ColumnData::from_bytes(&bytes)
    }

    /// Total on-disk size of the table in bytes.
    pub fn disk_size(&self) -> Result<u64> {
        let mut total = 0;
        for entry in fs::read_dir(&self.dir)? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("proteus_col_tests").join(name);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn int_column_round_trip() {
        let col = ColumnData::Int(vec![1, -5, 1 << 40]);
        let parsed = ColumnData::from_bytes(&col.to_bytes()).unwrap();
        assert_eq!(col, parsed);
    }

    #[test]
    fn float_and_bool_round_trip() {
        let col = ColumnData::Float(vec![1.5, -2.25, 0.0]);
        assert_eq!(ColumnData::from_bytes(&col.to_bytes()).unwrap(), col);
        let col = ColumnData::Bool(vec![true, false, true]);
        assert_eq!(ColumnData::from_bytes(&col.to_bytes()).unwrap(), col);
    }

    #[test]
    fn string_column_round_trip() {
        let col = ColumnData::Str(vec!["".into(), "héllo".into(), "proteus".into()]);
        assert_eq!(ColumnData::from_bytes(&col.to_bytes()).unwrap(), col);
    }

    #[test]
    fn corrupt_data_is_rejected() {
        assert!(ColumnData::from_bytes(b"nope").is_err());
        let mut bytes = ColumnData::Int(vec![1, 2, 3]).to_bytes();
        bytes.truncate(bytes.len() - 4);
        assert!(ColumnData::from_bytes(&bytes).is_err());
    }

    #[test]
    fn a_row_count_that_overflows_the_payload_size_is_corrupt() {
        // Each count times its value width wraps to 8 in 64-bit arithmetic,
        // so an unchecked length check would pass on the 8 payload bytes.
        for (type_code, count) in [
            (0u8, (1u64 << 61) + 1),
            (1, (1 << 61) + 1),
            (3, (1 << 62) + 2),
        ] {
            let mut bytes = MAGIC.to_vec();
            bytes.push(type_code);
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes.extend_from_slice(&[0; 8]);
            assert_eq!(bytes.len(), 21);
            assert!(
                matches!(
                    ColumnData::from_bytes(&bytes),
                    Err(StorageError::Corrupt(_))
                ),
                "type code {type_code}"
            );
        }
    }

    /// A two-column table directory whose column `a` or `b` holds `bytes`
    /// (the other one two valid rows).
    fn table_with(name: &str, corrupt_first: bool, bytes: &[u8]) -> PathBuf {
        let dir = temp_dir(name);
        fs::write(dir.join("_schema.txt"), "a:int\nb:int\n").unwrap();
        let valid = ColumnData::Int(vec![1, 2]).to_bytes();
        let (a, b) = if corrupt_first {
            (bytes, valid.as_slice())
        } else {
            (valid.as_slice(), bytes)
        };
        fs::write(dir.join("a.col"), a).unwrap();
        fs::write(dir.join("b.col"), b).unwrap();
        dir
    }

    #[test]
    fn corrupt_columns_are_refused_at_open_and_at_read() {
        let header = |code: u8, count: u64| {
            let mut bytes = MAGIC.to_vec();
            bytes.push(code);
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes
        };
        let mut bad_magic = ColumnData::Int(vec![1, 2]).to_bytes();
        bad_magic[0] = b'X';
        let mut unknown_code = ColumnData::Int(vec![1, 2]).to_bytes();
        unknown_code[4] = 9;
        let mut huge = header(0, (1 << 61) + 1);
        huge.extend_from_slice(&[0; 8]);
        let mut max = header(1, u64::MAX);
        max.extend_from_slice(&[0; 8]);
        let mut short_ints = ColumnData::Int(vec![1, 2, 3]).to_bytes();
        short_ints.pop();
        let mut short_bools = ColumnData::Bool(vec![true, false]).to_bytes();
        short_bools.pop();
        let mut short_strings = ColumnData::Str(vec!["ab".into(), "c".into()]).to_bytes();
        short_strings.truncate(HEADER_BYTES + 7);
        let cases = [
            ("bad magic", bad_magic),
            ("unknown type code", unknown_code),
            ("2^61 + 1 rows", huge),
            ("u64::MAX rows", max),
            ("ints one byte short", short_ints),
            ("bools one byte short", short_bools),
            ("string lengths one byte short", short_strings),
            ("a short header", MAGIC.to_vec()),
        ];
        for (i, (what, bytes)) in cases.iter().enumerate() {
            let dir = table_with(&format!("corrupt_open_{i}"), true, bytes);
            assert!(
                matches!(ColumnTable::open(&dir), Err(StorageError::Corrupt(_))),
                "open, {what}"
            );
            let dir = table_with(&format!("corrupt_read_{i}"), false, bytes);
            let table = ColumnTable::open(&dir).unwrap();
            assert_eq!(table.row_count, 2);
            assert!(
                matches!(table.read_column("b"), Err(StorageError::Corrupt(_))),
                "read, {what}"
            );
        }
    }

    #[test]
    fn push_value_coerces_numerics() {
        let mut col = ColumnData::Float(Vec::new());
        col.push_value(&Value::Int(3)).unwrap();
        col.push_value(&Value::Float(1.5)).unwrap();
        assert_eq!(col, ColumnData::Float(vec![3.0, 1.5]));
        assert!(col.push_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn value_at_and_len() {
        let col = ColumnData::Str(vec!["a".into(), "b".into()]);
        assert_eq!(col.len(), 2);
        assert_eq!(col.value_at(1), Some(Value::Str("b".into())));
        assert_eq!(col.value_at(5), None);
    }

    #[test]
    fn table_write_open_read() {
        let dir = temp_dir("write_open");
        let columns = vec![
            ("id".to_string(), ColumnData::Int(vec![1, 2, 3])),
            (
                "price".to_string(),
                ColumnData::Float(vec![10.0, 20.0, 30.0]),
            ),
            (
                "name".to_string(),
                ColumnData::Str(vec!["a".into(), "b".into(), "c".into()]),
            ),
        ];
        let table = ColumnTable::write(&dir, &columns).unwrap();
        assert_eq!(table.row_count, 3);

        let reopened = ColumnTable::open(&dir).unwrap();
        assert_eq!(reopened.row_count, 3);
        assert_eq!(reopened.schema.names(), vec!["id", "price", "name"]);
        assert_eq!(
            reopened.read_column("price").unwrap(),
            ColumnData::Float(vec![10.0, 20.0, 30.0])
        );
        assert!(reopened.read_column("missing").is_err());
        assert!(reopened.disk_size().unwrap() > 0);
    }

    #[test]
    fn mismatched_row_counts_rejected() {
        let dir = temp_dir("mismatch");
        let columns = vec![
            ("a".to_string(), ColumnData::Int(vec![1, 2])),
            ("b".to_string(), ColumnData::Int(vec![1])),
        ];
        assert!(ColumnTable::write(&dir, &columns).is_err());
    }

    #[test]
    fn open_missing_table_is_not_found() {
        assert!(matches!(
            ColumnTable::open("/nonexistent/proteus/table"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn empty_of_matches_types() {
        assert_eq!(
            ColumnData::empty_of(&DataType::Int).data_type(),
            DataType::Int
        );
        assert_eq!(
            ColumnData::empty_of(&DataType::String).data_type(),
            DataType::String
        );
    }
}
