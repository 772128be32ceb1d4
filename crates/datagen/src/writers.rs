//! Dataset writers: the same generated rows are written as CSV, JSON, binary
//! rows and binary columns so every engine and every experiment reads its
//! native representation of identical data.

use std::fmt::Write;
use std::fs;
use std::path::Path;

use proteus_algebra::{Schema, Value};
use proteus_storage::{ColumnData, ColumnTable, RowTable};

/// Renders a value as JSON text. Non-finite floats render as `null` (JSON
/// has no NaN or infinity); names and strings escape `"`, `\` and every
/// byte below 0x20.
pub fn value_to_json(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Date(d) => d.to_string(),
        Value::Float(f) if !f.is_finite() => "null".to_string(),
        Value::Float(f) => {
            if f.fract() == 0.0 {
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        Value::Str(s) => json_string(s),
        Value::List(items) => {
            let rendered: Vec<String> = items.iter().map(value_to_json).collect();
            format!("[{}]", rendered.join(", "))
        }
        Value::Record(record) => {
            let rendered: Vec<String> = record
                .iter()
                .map(|(name, v)| json_member(name, v))
                .collect();
            format!("{{{}}}", rendered.join(", "))
        }
    }
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One `"name": value` member of a JSON object.
fn json_member(name: &str, value: &Value) -> String {
    format!("{}: {}", json_string(name), value_to_json(value))
}

/// Writes rows as newline-delimited JSON objects. When `shuffle_fields` is
/// set, each object's field order is rotated differently (the Symantec JSON
/// input has "arbitrary field order" and §7.1 stresses that no field-order
/// assumption is made).
pub fn write_json(
    path: impl AsRef<Path>,
    rows: &[Value],
    shuffle_fields: bool,
) -> std::io::Result<()> {
    let mut out = String::new();
    for (idx, row) in rows.iter().enumerate() {
        let rendered = if shuffle_fields {
            match row.as_record() {
                Ok(record) if record.len() > 1 => {
                    let fields: Vec<(&str, &Value)> = record.iter().collect();
                    let rotation = idx % fields.len();
                    let rotated: Vec<String> = (0..fields.len())
                        .map(|i| {
                            let (name, value) = fields[(i + rotation) % fields.len()];
                            json_member(name, value)
                        })
                        .collect();
                    format!("{{{}}}", rotated.join(", "))
                }
                _ => value_to_json(row),
            }
        } else {
            value_to_json(row)
        };
        out.push_str(&rendered);
        out.push('\n');
    }
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)
}

/// Writes rows as a delimited CSV file following the schema's field order.
pub fn write_csv(
    path: impl AsRef<Path>,
    rows: &[Value],
    schema: &Schema,
    delimiter: char,
) -> std::io::Result<()> {
    let mut out = String::new();
    for row in rows {
        let record = match row.as_record() {
            Ok(r) => r,
            Err(_) => continue,
        };
        let mut first = true;
        for field in schema.fields() {
            if !first {
                out.push(delimiter);
            }
            first = false;
            match record.get(&field.name) {
                Some(Value::Str(s)) => out.push_str(s),
                Some(Value::Null) | None => {}
                Some(Value::Float(f)) => out.push_str(&format!("{f}")),
                Some(other) => out.push_str(&other.to_string()),
            }
        }
        out.push('\n');
    }
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)
}

/// Writes rows as a binary column-table directory.
pub fn write_column_table(
    dir: impl AsRef<Path>,
    rows: &[Value],
    schema: &Schema,
) -> proteus_storage::Result<ColumnTable> {
    let mut columns: Vec<(String, ColumnData)> = schema
        .fields()
        .iter()
        .map(|f| (f.name.clone(), ColumnData::empty_of(&f.data_type)))
        .collect();
    for row in rows {
        let record = row.as_record().map_err(|e| {
            proteus_storage::StorageError::TypeMismatch(format!("row is not a record: {e}"))
        })?;
        for ((name, column), field) in columns.iter_mut().zip(schema.fields()) {
            let value = record.get(name).cloned().unwrap_or(Value::Null);
            let coerced = if value.is_null() {
                match column {
                    ColumnData::Int(_) => Value::Int(0),
                    ColumnData::Float(_) => Value::Float(0.0),
                    ColumnData::Bool(_) => Value::Bool(false),
                    ColumnData::Str(_) => Value::Str(String::new()),
                }
            } else if matches!(field.data_type, proteus_algebra::DataType::String)
                && !matches!(value, Value::Str(_))
            {
                Value::Str(value.to_string())
            } else {
                value
            };
            column.push_value(&coerced)?;
        }
    }
    ColumnTable::write(dir, &columns)
}

/// Writes rows as a binary row file.
pub fn write_row_table(
    path: impl AsRef<Path>,
    rows: &[Value],
    schema: &Schema,
) -> proteus_storage::Result<RowTable> {
    RowTable::write(path, schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{TpchGenerator, TpchScale};
    use proteus_algebra::DataType;
    use proteus_plugins::InputPlugin;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("proteus_writer_tests").join(name);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn json_rendering_round_trips_through_the_plugin_parser() {
        let row = Value::record(vec![
            ("id", Value::Int(3)),
            ("name", Value::Str("a \"quoted\" name".into())),
            (
                "scores",
                Value::List(vec![Value::Float(1.5), Value::Int(2)]),
            ),
            ("nested", Value::record(vec![("x", Value::Bool(true))])),
            ("missing", Value::Null),
        ]);
        let text = value_to_json(&row);
        let parsed = proteus_plugins::json::parse_json_value(text.as_bytes()).unwrap();
        assert_eq!(
            parsed.as_record().unwrap().get("name"),
            Some(&Value::Str("a \"quoted\" name".into()))
        );
        assert_eq!(
            parsed
                .as_record()
                .unwrap()
                .get("nested")
                .unwrap()
                .navigate(&["x".to_string()]),
            Value::Bool(true)
        );
    }

    #[test]
    fn escapes_and_non_finite_floats_round_trip_through_the_plugin_parser() {
        // Every control character, a quote and a backslash, in a field name
        // and in a string value.
        let awkward: String = (0u8..0x20).map(char::from).chain(['"', '\\']).collect();
        let name = format!("k{awkward}");
        let row = Value::Record(proteus_algebra::Record::new(vec![
            (name.clone(), Value::Str(awkward.clone())),
            ("nan".to_string(), Value::Float(f64::NAN)),
            ("inf".to_string(), Value::Float(f64::INFINITY)),
            ("neg_inf".to_string(), Value::Float(f64::NEG_INFINITY)),
        ]));
        let text = value_to_json(&row);
        assert!(!text.contains('\n'), "one NDJSON line: {text}");
        let parsed = proteus_plugins::json::parse_json_value(text.as_bytes()).unwrap();
        let record = parsed.as_record().unwrap();
        assert_eq!(record.get(&name), Some(&Value::Str(awkward)));
        // JSON has no NaN or infinity: they are written as null.
        for field in ["nan", "inf", "neg_inf"] {
            assert_eq!(record.get(field), Some(&Value::Null), "{field}");
        }
        // The same through the NDJSON writer, with the field shuffle that
        // renders members on their own.
        let dir = temp_dir("escapes");
        let path = dir.join("rows.json");
        write_json(&path, &[row.clone(), row], true).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let plugin =
            proteus_plugins::json::JsonPlugin::from_bytes("rows", bytes::Bytes::from(text))
                .unwrap();
        assert_eq!(plugin.len(), 2);
        for oid in 0..2 {
            assert_eq!(plugin.read_value(oid, "nan").unwrap(), Value::Null);
        }
    }

    #[test]
    fn write_json_with_field_shuffle_parses_and_varies_order() {
        let dir = temp_dir("shuffle");
        let rows: Vec<Value> = (0..5)
            .map(|i| {
                Value::record(vec![
                    ("a", Value::Int(i)),
                    ("b", Value::Int(i * 2)),
                    ("c", Value::Str(format!("s{i}"))),
                ])
            })
            .collect();
        let path = dir.join("rows.json");
        write_json(&path, &rows, true).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let first_line = text.lines().next().unwrap();
        let second_line = text.lines().nth(1).unwrap();
        // Field order differs between consecutive objects.
        assert_ne!(
            first_line.find("\"a\"").unwrap() < first_line.find("\"b\"").unwrap(),
            second_line.find("\"a\"").unwrap() < second_line.find("\"b\"").unwrap()
        );
        let plugin =
            proteus_plugins::json::JsonPlugin::from_bytes("t", bytes::Bytes::from(text)).unwrap();
        assert_eq!(plugin.len(), 5);
    }

    #[test]
    fn csv_and_binary_writers_round_trip_tpch() {
        let dir = temp_dir("tpch");
        let mut generator = TpchGenerator::new(TpchScale(0.02));
        let (orders, lineitems) = generator.generate();
        let schema = TpchGenerator::lineitem_schema();

        let csv_path = dir.join("lineitem.csv");
        write_csv(&csv_path, &lineitems, &schema, '|').unwrap();
        let csv_text = fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv_text.lines().count(), lineitems.len());

        let col_dir = dir.join("lineitem_cols");
        let table = write_column_table(&col_dir, &lineitems, &schema).unwrap();
        assert_eq!(table.row_count, lineitems.len());

        let row_path = dir.join("orders.prow");
        let row_table =
            write_row_table(&row_path, &orders, &TpchGenerator::orders_schema()).unwrap();
        assert_eq!(row_table.row_count, orders.len());
    }

    #[test]
    fn csv_writer_respects_schema_order_and_nulls() {
        let dir = temp_dir("nulls");
        let schema = Schema::from_pairs(vec![
            ("a", DataType::Int),
            ("b", DataType::String),
            ("c", DataType::Float),
        ]);
        let rows = vec![Value::record(vec![
            ("c", Value::Float(1.5)),
            ("a", Value::Int(7)),
        ])];
        let path = dir.join("x.csv");
        write_csv(&path, &rows, &schema, '|').unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "7||1.5\n");
    }
}
