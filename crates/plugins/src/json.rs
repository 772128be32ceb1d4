//! The JSON input plug-in and its two-level structural index (Figure 4).
//!
//! When Proteus accesses a JSON file for the first time it validates the
//! input and, as a side-effect, builds a *structural index* per JSON object:
//!
//! * **Level 1** stores, for every token of the object (field values,
//!   nested objects, arrays), its binary start/end positions in the file and
//!   its type.
//! * **Level 0** is an associative array mapping field names — including
//!   nested-record paths such as `c.d.d1` — to their Level-1 entries, so a
//!   field lookup is a hash probe instead of a scan over the object's tokens.
//!   Array *contents* are deliberately not registered: the explicit `unnest`
//!   operator handles them uniformly — the expand hook
//!   ([`InputPlugin::generate_expand`]) walks an object's array token at query
//!   time and renders the requested element leaves straight into typed lanes,
//!   so the index does not grow and no `Value` tree is built.
//!
//! When every object turns out to have the same fields in the same order
//! (machine-generated data), the plug-in drops Level 0 entirely and keeps a
//! single shared field-order table — the "specializing per dataset contents"
//! optimization of §5.2.
//!
//! The file may be newline-delimited objects (NDJSON) or a single top-level
//! array of objects; both forms appear in the paper's workloads.
//!
//! Nested-record leaves (`geo.lat`) are scan fields like any other: a leaf
//! whose tokens are all of one kind — checked over the whole file the first
//! time a query reads the leaf, then remembered — is served through the same
//! null-preserving typed fills as the top-level numerics; a leaf of mixed
//! kinds is read token by token, as navigating the materialized record would.
//! Every path is resolved against the index once per `generate` call
//! ([`JsonStructuralIndex::resolve`]); on deterministic layouts the per-value
//! lookup is then an array index, not a hash of the path string.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use proteus_algebra::{DataType, Field, Record, Schema, Value};
use proteus_storage::{MemoryManager, SourceFormat};

use crate::api::{
    BadRowPolicy, ExpandAccessors, ExpandOutput, FieldFill, InputPlugin, Oid, ScanAccessors,
    TypedColumn, TypedExpand, TypedFill, TypedKind,
};
use crate::error::{PluginError, Result};
use crate::stats::{CostProfile, DatasetStats, StatsCollector};
use crate::zonemap::{derive_zone_maps, ZoneMap};

/// Type of an indexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenType {
    /// A nested JSON object.
    Object,
    /// A JSON array.
    Array,
    /// A string value.
    String,
    /// A numeric value.
    Number,
    /// A boolean value.
    Bool,
    /// A null.
    Null,
}

/// One Level-1 entry: the position and type of a token inside the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEntry {
    /// Absolute byte offset of the token start.
    pub start: u64,
    /// Absolute byte offset one past the token end.
    pub end: u64,
    /// Token type.
    pub token_type: TokenType,
}

/// The per-object structural index.
#[derive(Debug, Clone, Default)]
pub struct ObjectIndex {
    /// Absolute span of the whole object.
    pub start: u64,
    /// End of the object (exclusive).
    pub end: u64,
    /// Level 1: token entries in field-discovery order.
    pub entries: Vec<TokenEntry>,
    /// Level 0: dotted field path → Level-1 entry position. Empty when the
    /// dataset-wide deterministic layout is in effect.
    pub level0: Vec<(String, u32)>,
}

/// The dataset-wide structural index.
#[derive(Debug, Clone)]
pub struct JsonStructuralIndex {
    /// Per-object indexes (the OID is the position in this vector).
    pub objects: Vec<ObjectIndex>,
    /// Shared path → slot table used when the layout is deterministic.
    pub shared_layout: Option<HashMap<String, u32>>,
    /// Paths in discovery order of the first object (used for schema
    /// inference and to validate determinism).
    pub first_object_paths: Vec<String>,
}

impl JsonStructuralIndex {
    /// True when Level 0 was dropped in favour of a shared layout.
    pub fn is_deterministic(&self) -> bool {
        self.shared_layout.is_some()
    }

    /// Number of indexed objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Approximate index footprint in bytes. Level-1 entries cost 17 bytes
    /// (two u64 positions + type tag); Level-0 entries cost their path string
    /// plus a 4-byte slot; the deterministic variant pays the path strings
    /// only once.
    pub fn size_bytes(&self) -> usize {
        let level1: usize = self.objects.iter().map(|o| 16 + o.entries.len() * 17).sum();
        let level0: usize = self
            .objects
            .iter()
            .map(|o| o.level0.iter().map(|(p, _)| p.len() + 4).sum::<usize>())
            .sum();
        let shared: usize = self
            .shared_layout
            .as_ref()
            .map(|m| m.keys().map(|p| p.len() + 4).sum())
            .unwrap_or(0);
        level1 + level0 + shared
    }

    /// Resolves a dotted path against the index once, so the per-object
    /// lookups that follow skip the path-string hash.
    pub fn resolve(&self, path: &str) -> PathSlot {
        match &self.shared_layout {
            Some(shared) => shared
                .get(path)
                .map_or(PathSlot::Absent, |slot| PathSlot::Fixed(*slot)),
            None => PathSlot::PerObject,
        }
    }

    /// Finds the Level-1 entry of a [resolved](Self::resolve) path within an
    /// object. A key an object repeats reads as its last occurrence, on both
    /// layouts (what `Record::set` does when the object is materialized).
    pub fn lookup_resolved(&self, oid: usize, path: &str, slot: PathSlot) -> Option<TokenEntry> {
        let object = self.objects.get(oid)?;
        let slot = match slot {
            PathSlot::Fixed(slot) => slot,
            PathSlot::Absent => return None,
            PathSlot::PerObject => object
                .level0
                .iter()
                .rev()
                .find(|(p, _)| p == path)
                .map(|(_, slot)| *slot)?,
        };
        object.entries.get(slot as usize).copied()
    }

    /// Finds the Level-1 entry for a dotted path within an object.
    pub fn lookup(&self, oid: usize, path: &str) -> Option<TokenEntry> {
        self.lookup_resolved(oid, path, self.resolve(path))
    }
}

/// Where a dotted path lives, resolved once per dataset instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSlot {
    /// Deterministic layout: the path's Level-1 slot, the same in every
    /// object.
    Fixed(u32),
    /// Deterministic layout, and no object has the path.
    Absent,
    /// Level 0 was kept: each object's own path list is searched.
    PerObject,
}

// ---------------------------------------------------------------------------
// Position-tracking JSON parsing.
// ---------------------------------------------------------------------------

/// Deepest nesting of objects and arrays the parser follows. The parser
/// recurses once per level, so without a cap a file of a few hundred KB of
/// `[` overflows the stack; deeper input is reported as malformed. 512
/// levels stay well inside a 2 MiB thread stack even in an unoptimized
/// build.
const MAX_DEPTH: usize = 512;

struct JsonParser<'a> {
    data: &'a [u8],
    pos: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(data: &'a [u8], pos: usize) -> Self {
        JsonParser {
            data,
            pos,
            depth: 0,
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn skip_ws(&mut self) {
        while self.pos < self.data.len() && self.data[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }

    fn error(&self, msg: &str) -> PluginError {
        PluginError::Malformed {
            dataset: "<json>".into(),
            detail: format!("{msg} at byte {}", self.pos),
        }
    }

    /// Skips one JSON value, returning its span and type without building a
    /// [`Value`]. Used by the index builder and by lazy access.
    fn skip_value(&mut self) -> Result<TokenEntry> {
        self.skip_ws();
        let start = self.pos as u64;
        let token_type = match self.peek() {
            Some(b'{') => {
                self.nested(Self::skip_object)?;
                TokenType::Object
            }
            Some(b'[') => {
                self.nested(Self::skip_array)?;
                TokenType::Array
            }
            Some(b'"') => {
                self.skip_string()?;
                TokenType::String
            }
            Some(b't') | Some(b'f') => {
                self.skip_literal()?;
                TokenType::Bool
            }
            Some(b'n') => {
                self.skip_literal()?;
                TokenType::Null
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.skip_number();
                TokenType::Number
            }
            _ => return Err(self.error("unexpected character")),
        };
        Ok(TokenEntry {
            start,
            end: self.pos as u64,
            token_type,
        })
    }

    fn skip_object(&mut self) -> Result<()> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.skip_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn skip_array(&mut self) -> Result<()> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn skip_string(&mut self) -> Result<()> {
        self.expect(b'"')?;
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                b'\\' => {
                    self.pos += 1;
                }
                b'"' => return Ok(()),
                _ => {}
            }
        }
        Err(self.error("unterminated string"))
    }

    fn skip_number(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn skip_literal(&mut self) -> Result<()> {
        for lit in ["true", "false", "null"] {
            if self.data[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(());
            }
        }
        Err(self.error("invalid literal"))
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", c as char)))
        }
    }

    /// Parses the string starting at the current position (returning its
    /// unescaped contents): unescaped spans are copied as UTF-8 and `\uXXXX`
    /// escapes decode, surrogate pairs included. Lenient where the file was
    /// only skipped over at registration: invalid UTF-8, a lone surrogate or
    /// malformed hex digits read as U+FFFD, an unknown escape as its letter.
    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let span = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&String::from_utf8_lossy(&self.data[span..self.pos]));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape(),
                        other => other as char,
                    });
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The four hex digits of a `\uXXXX` escape (the parser stands right
    /// after the `u`); `None`, consuming nothing, when they are malformed.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.data.get(self.pos..self.pos + 4)?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        let code = u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()?;
        self.pos += 4;
        Some(code)
    }

    /// Decodes the `\uXXXX` escape whose digits start at the parser position,
    /// pairing a high surrogate with the `\uXXXX` low surrogate after it.
    fn unicode_escape(&mut self) -> char {
        let Some(high) = self.hex4() else {
            return char::REPLACEMENT_CHARACTER;
        };
        let mut code = high;
        if (0xd800..0xdc00).contains(&high) && self.data[self.pos..].starts_with(b"\\u") {
            let rewind = self.pos;
            self.pos += 2;
            match self.hex4() {
                Some(low) if (0xdc00..0xe000).contains(&low) => {
                    code = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                }
                _ => self.pos = rewind,
            }
        }
        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    /// Reads one collection element standing at the parser position and
    /// skips past it: `tokens[i]` becomes the token of leaf `leaves[i]`
    /// (`""` is the element itself), `None` where the element is not a
    /// record or lacks the key. A key the element repeats keeps its last
    /// value, as `Record::set` does.
    fn element_tokens(
        &mut self,
        leaves: &[String],
        tokens: &mut [Option<TokenEntry>],
    ) -> Result<()> {
        tokens.fill(None);
        self.skip_ws();
        let whole = if self.peek() == Some(b'{') {
            let start = self.pos as u64;
            self.pos += 1;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
            } else {
                loop {
                    self.skip_ws();
                    let key_at = self.pos;
                    self.skip_string()?;
                    let raw = &self.data[key_at + 1..self.pos - 1];
                    // Keys almost never carry escapes: compare the raw bytes
                    // and unescape only the ones that do.
                    let unescaped = if raw.contains(&b'\\') {
                        Some(JsonParser::new(self.data, key_at).parse_string()?)
                    } else {
                        None
                    };
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.skip_value()?;
                    for (leaf, token) in leaves.iter().zip(tokens.iter_mut()) {
                        let hit = match &unescaped {
                            Some(key) => key == leaf,
                            None => raw == leaf.as_bytes(),
                        };
                        if hit && !leaf.is_empty() {
                            *token = Some(value);
                        }
                    }
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            TokenEntry {
                start,
                end: self.pos as u64,
                token_type: TokenType::Object,
            }
        } else {
            self.skip_value()?
        };
        for (leaf, token) in leaves.iter().zip(tokens.iter_mut()) {
            if leaf.is_empty() {
                *token = Some(whole);
            }
        }
        Ok(())
    }

    /// Fully parses one JSON value into a [`Value`].
    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => {
                self.skip_literal()?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.skip_literal()?;
                Ok(Value::Bool(false))
            }
            Some(b'n') => {
                self.skip_literal()?;
                Ok(Value::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                self.skip_number();
                let text = std::str::from_utf8(&self.data[start..self.pos])
                    .map_err(|_| self.error("invalid number bytes"))?;
                if text.contains('.') || text.contains('e') || text.contains('E') {
                    text.parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| self.error("invalid float"))
                } else {
                    text.parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| self.error("invalid integer"))
                }
            }
            _ => Err(self.error("unexpected character")),
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.pos += 1;
        let mut rec = Record::empty();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Record(rec));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            rec.set(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Record(rec));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }
}

/// Parses a standalone JSON value from a byte slice (exposed for tests and
/// for the document-store baseline which ingests JSON). The slice must hold
/// exactly one value: anything but whitespace after it is an error.
pub fn parse_json_value(data: &[u8]) -> Result<Value> {
    let mut parser = JsonParser::new(data, 0);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos < data.len() {
        return Err(parser.error("trailing bytes after the value"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Index construction.
// ---------------------------------------------------------------------------

/// Builds the structural index of one object starting at `start`.
/// Returns the object index and the position one past the object.
fn index_object(data: &[u8], start: usize) -> Result<(ObjectIndex, usize)> {
    let mut parser = JsonParser::new(data, start);
    parser.skip_ws();
    let object_start = parser.pos as u64;
    if parser.peek() != Some(b'{') {
        return Err(parser.error("expected object"));
    }

    let mut entries = Vec::new();
    let mut level0 = Vec::new();
    parser.nested(|parser| index_object_fields(parser, "", &mut entries, &mut level0))?;

    Ok((
        ObjectIndex {
            start: object_start,
            end: parser.pos as u64,
            entries,
            level0,
        },
        parser.pos,
    ))
}

/// Indexes the fields of the object whose '{' is at the parser position,
/// prefixing registered paths with `prefix`.
fn index_object_fields(
    parser: &mut JsonParser<'_>,
    prefix: &str,
    entries: &mut Vec<TokenEntry>,
    level0: &mut Vec<(String, u32)>,
) -> Result<()> {
    parser.expect(b'{')?;
    parser.skip_ws();
    if parser.peek() == Some(b'}') {
        parser.pos += 1;
        return Ok(());
    }
    loop {
        parser.skip_ws();
        let key = parser.parse_string()?;
        parser.skip_ws();
        parser.expect(b':')?;
        parser.skip_ws();
        let path = if prefix.is_empty() {
            key
        } else {
            format!("{prefix}.{key}")
        };
        if parser.peek() == Some(b'{') {
            // Nested record: register the object span itself and recurse so
            // nested leaves (c.d.d1) are directly addressable from Level 0.
            let start = parser.pos as u64;
            parser.nested(|parser| index_object_fields(parser, &path, entries, level0))?;
            let entry = TokenEntry {
                start,
                end: parser.pos as u64,
                token_type: TokenType::Object,
            };
            entries.push(entry);
            level0.push((path, (entries.len() - 1) as u32));
        } else {
            let entry = parser.skip_value()?;
            entries.push(entry);
            level0.push((path, (entries.len() - 1) as u32));
        }
        parser.skip_ws();
        match parser.peek() {
            Some(b',') => parser.pos += 1,
            Some(b'}') => {
                parser.pos += 1;
                return Ok(());
            }
            _ => return Err(parser.error("expected ',' or '}'")),
        }
    }
}

/// Builds the dataset-wide structural index, detecting NDJSON vs top-level
/// array and the deterministic-layout optimization. Malformed objects are
/// rejected ([`BadRowPolicy::Fail`]).
pub fn build_index(data: &[u8]) -> Result<JsonStructuralIndex> {
    build_index_with_policy(data, BadRowPolicy::Fail).map(|(index, _)| index)
}

/// [`build_index`] with an explicit bad-row policy. Under `Skip`/`Null`
/// a malformed object is abandoned and indexing resumes after the next
/// newline (NDJSON's natural record boundary — in array form this may
/// also drop trailing objects that share the damaged line): `Skip` drops
/// the object entirely, `Null` keeps an empty per-object index so every
/// field of that OID reads as null. Returns the index and the number of
/// bad objects.
pub fn build_index_with_policy(
    data: &[u8],
    policy: BadRowPolicy,
) -> Result<(JsonStructuralIndex, u64)> {
    let mut objects = Vec::new();
    let mut bad_rows = 0u64;
    let mut pos = 0usize;
    // Skip leading whitespace to detect the container form.
    while pos < data.len() && data[pos].is_ascii_whitespace() {
        pos += 1;
    }
    let array_form = data.get(pos) == Some(&b'[');
    if array_form {
        pos += 1;
    }
    loop {
        while pos < data.len() && (data[pos].is_ascii_whitespace() || data[pos] == b',') {
            pos += 1;
        }
        if pos >= data.len() || data[pos] == b']' {
            break;
        }
        match index_object(data, pos) {
            Ok((object, next)) => {
                objects.push(object);
                pos = next;
            }
            Err(e) => match policy {
                BadRowPolicy::Fail => {
                    let ordinal = objects.len() + 1;
                    return Err(match e {
                        PluginError::Malformed { dataset, detail } => PluginError::Malformed {
                            dataset,
                            detail: format!("object {ordinal}: {detail}"),
                        },
                        other => other,
                    });
                }
                BadRowPolicy::Skip | BadRowPolicy::Null => {
                    bad_rows += 1;
                    let resume = data[pos..]
                        .iter()
                        .position(|b| *b == b'\n')
                        .map(|p| pos + p + 1)
                        .unwrap_or(data.len());
                    if policy == BadRowPolicy::Null {
                        objects.push(ObjectIndex {
                            start: pos as u64,
                            end: resume as u64,
                            ..ObjectIndex::default()
                        });
                    }
                    pos = resume;
                }
            },
        }
    }

    // Determinism check: identical path sequences across all objects.
    let first_object_paths: Vec<String> = objects
        .first()
        .map(|o| o.level0.iter().map(|(p, _)| p.clone()).collect())
        .unwrap_or_default();
    let deterministic = !objects.is_empty()
        && objects.iter().all(|o| {
            o.level0.len() == first_object_paths.len()
                && o.level0
                    .iter()
                    .zip(&first_object_paths)
                    .all(|((p, _), expected)| p == expected)
        });

    let shared_layout = if deterministic {
        let map: HashMap<String, u32> = objects[0]
            .level0
            .iter()
            .map(|(p, slot)| (p.clone(), *slot))
            .collect();
        // Drop per-object Level 0 — it is now redundant.
        for object in &mut objects {
            object.level0.clear();
        }
        Some(map)
    } else {
        None
    };

    Ok((
        JsonStructuralIndex {
            objects,
            shared_layout,
            first_object_paths,
        },
        bad_rows,
    ))
}

// ---------------------------------------------------------------------------
// The plug-in.
// ---------------------------------------------------------------------------

struct JsonInner {
    dataset: String,
    data: Bytes,
    schema: Schema,
    index: JsonStructuralIndex,
    stats: DatasetStats,
    /// Objects dropped (`Skip`) or nulled (`Null`) at registration.
    bad_rows: u64,
    /// Lazily derived per-morsel zone maps (one extra parse pass per column,
    /// memoized for the plug-in's lifetime).
    zone_maps: std::sync::Mutex<HashMap<String, Arc<ZoneMap>>>,
    /// The lane kind of every nested leaf queries have read so far, from a
    /// walk over every token the file holds for it; `None` = the tokens are
    /// of two kinds, or of one no lane represents. Memoized per leaf, like
    /// the zone maps, so any later set of known leaves is a lookup.
    lane_kinds: std::sync::Mutex<HashMap<LaneKey, Option<TypedKind>>>,
}

/// A leaf and where it lives: in the elements of the collection at a path,
/// or (`None`) in the objects themselves, as a dotted path (`geo.lat`).
type LaneKey = (Option<String>, String);

/// A field path bound to one dataset's index: resolved once (by `generate`,
/// by the expand hook), so each per-value lookup is an array index on
/// deterministic layouts and a Level-0 search otherwise.
#[derive(Clone)]
struct BoundPath {
    dotted: String,
    slot: PathSlot,
}

/// What one leaf token says about the lane that has to hold it.
enum LaneEvidence {
    /// Missing or `null`: any lane holds it as a null bit.
    Nothing,
    Kind(TypedKind),
    /// A record, an array, or a number that does not parse.
    Unrepresentable,
}

/// The JSON input plug-in.
#[derive(Clone)]
pub struct JsonPlugin {
    inner: Arc<JsonInner>,
}

impl JsonPlugin {
    /// Opens a JSON file through the memory manager; validating the file and
    /// building the structural index happen here (the "first/cold access").
    pub fn open(
        dataset: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        memory: &MemoryManager,
    ) -> Result<JsonPlugin> {
        Self::open_with_policy(dataset, path, memory, BadRowPolicy::Fail)
    }

    /// [`JsonPlugin::open`] with an explicit bad-row policy.
    pub fn open_with_policy(
        dataset: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        memory: &MemoryManager,
        policy: BadRowPolicy,
    ) -> Result<JsonPlugin> {
        let data = memory.map_file(path)?;
        Self::from_bytes_with_policy(dataset, data, policy)
    }

    /// Builds a plug-in over an in-memory JSON buffer. Malformed objects
    /// reject the dataset (the historical behavior, [`BadRowPolicy::Fail`]);
    /// use [`JsonPlugin::from_bytes_with_policy`] to skip or null them.
    pub fn from_bytes(dataset: impl Into<String>, data: Bytes) -> Result<JsonPlugin> {
        Self::from_bytes_with_policy(dataset, data, BadRowPolicy::Fail)
    }

    /// [`JsonPlugin::from_bytes`] with an explicit bad-row policy, applied
    /// while the structural index is built (the "first/cold access" —
    /// query hot paths never re-validate).
    pub fn from_bytes_with_policy(
        dataset: impl Into<String>,
        data: Bytes,
        policy: BadRowPolicy,
    ) -> Result<JsonPlugin> {
        let dataset = dataset.into();
        let (index, bad_rows) = build_index_with_policy(&data, policy).map_err(|e| match e {
            PluginError::Malformed { detail, .. } => PluginError::Malformed {
                dataset: dataset.clone(),
                detail,
            },
            other => other,
        })?;
        let schema = infer_schema(&data, &index);
        let stats = collect_stats(&data, &index, &schema);
        Ok(JsonPlugin {
            inner: Arc::new(JsonInner {
                dataset,
                data,
                schema,
                index,
                stats,
                bad_rows,
                zone_maps: Default::default(),
                lane_kinds: Default::default(),
            }),
        })
    }

    /// Objects skipped or nulled at registration under a lenient
    /// [`BadRowPolicy`].
    pub fn bad_rows(&self) -> u64 {
        self.inner.bad_rows
    }

    /// The structural index (for the index-size and determinism experiments).
    pub fn structural_index(&self) -> &JsonStructuralIndex {
        &self.inner.index
    }

    fn entry_value(&self, entry: TokenEntry) -> Result<Value> {
        let inner = &self.inner;
        let slice = &inner.data[entry.start as usize..entry.end as usize];
        match entry.token_type {
            TokenType::Null => Ok(Value::Null),
            TokenType::Bool => Ok(Value::Bool(slice.starts_with(b"true"))),
            TokenType::Number => {
                let text = std::str::from_utf8(slice).unwrap_or("").trim();
                if text.contains('.') || text.contains('e') || text.contains('E') {
                    Ok(text.parse::<f64>().map(Value::Float).unwrap_or(Value::Null))
                } else {
                    Ok(text.parse::<i64>().map(Value::Int).unwrap_or(Value::Null))
                }
            }
            TokenType::String => JsonParser::new(&inner.data, entry.start as usize)
                .parse_string()
                .map(Value::Str),
            TokenType::Object | TokenType::Array => parse_json_value(slice),
        }
    }

    fn lookup_path(&self, oid: Oid, dotted: &str) -> Result<Option<TokenEntry>> {
        if oid as usize >= self.inner.index.object_count() {
            return Err(PluginError::OidOutOfRange {
                dataset: self.inner.dataset.clone(),
                oid,
            });
        }
        Ok(self.inner.index.lookup(oid as usize, dotted))
    }

    fn bind(&self, dotted: &str) -> BoundPath {
        BoundPath {
            dotted: dotted.to_string(),
            slot: self.inner.index.resolve(dotted),
        }
    }

    /// The token at a bound path (`None` for a missing field or an OID past
    /// the end).
    fn token(&self, oid: Oid, path: &BoundPath) -> Option<TokenEntry> {
        self.inner
            .index
            .lookup_resolved(oid as usize, &path.dotted, path.slot)
    }

    fn token_bytes(&self, entry: TokenEntry) -> &[u8] {
        &self.inner.data[entry.start as usize..entry.end as usize]
    }

    /// Raw token text of a numeric field, or `None` when the field is
    /// missing or holds a non-number token (e.g. `null`) — the shared miss
    /// definition of the nullable numeric typed fills.
    fn numeric_field_text(&self, oid: Oid, path: &BoundPath) -> Option<&str> {
        let entry = self.token(oid, path)?;
        if entry.token_type != TokenType::Number {
            return None;
        }
        std::str::from_utf8(self.token_bytes(entry)).ok()
    }

    fn int_at(&self, oid: Oid, path: &BoundPath) -> Option<i64> {
        self.numeric_field_text(oid, path)?.trim().parse().ok()
    }

    fn float_at(&self, oid: Oid, path: &BoundPath) -> Option<f64> {
        self.numeric_field_text(oid, path)?.trim().parse().ok()
    }

    /// A bool field: `None` when it is missing or holds a non-bool token.
    fn bool_at(&self, oid: Oid, path: &BoundPath) -> Option<bool> {
        let entry = self.token(oid, path)?;
        (entry.token_type == TokenType::Bool).then(|| self.token_bytes(entry).starts_with(b"true"))
    }

    /// The unescaped text of a string token; `None` for any other token.
    fn string_token(&self, entry: TokenEntry) -> Option<String> {
        if entry.token_type != TokenType::String {
            return None;
        }
        JsonParser::new(&self.inner.data, entry.start as usize)
            .parse_string()
            .ok()
    }

    fn string_at(&self, oid: Oid, path: &BoundPath) -> Option<String> {
        self.string_token(self.token(oid, path)?)
    }

    /// The null-preserving typed fill of one field: a missing field, a
    /// `null` and a token of another type are a null bit, which the
    /// row-major form reads as `Value::Null` — aggregates skip them
    /// identically in both tiers. Only the selected objects are looked up
    /// in the structural index and parsed.
    fn nullable_fill<T: 'static>(
        &self,
        path: BoundPath,
        kind: TypedKind,
        read: impl Fn(&JsonPlugin, Oid, &BoundPath) -> Option<T> + Send + Sync + 'static,
        push: impl Fn(&mut TypedColumn, T) + Send + Sync + 'static,
    ) -> FieldFill {
        let plugin = self.clone();
        let fill: TypedFill = Arc::new(move |start, count, sel: &[u32], out: &mut TypedColumn| {
            let render = |out: &mut TypedColumn, row: u32| {
                let value = read(&plugin, start + Oid::from(row), &path);
                match value {
                    Some(v) => push(out, v),
                    None => out.push_null(),
                }
            };
            if sel.len() == count {
                return out.fill_selected(kind, count, sel, render);
            }
            // A sparse selection fetches its rows ahead of itself.
            let mut ahead = sel.iter();
            out.fill_selected(kind, count, sel, |out, row| {
                plugin.prefetch_ahead(start, ahead.as_slice(), &path);
                ahead.next();
                render(out, row)
            });
        });
        FieldFill::Typed(kind, fill)
    }

    /// Pulls what reading `path` touches for the selected rows ahead of
    /// `ahead[0]` toward the cache, in three dependent stages — an object's
    /// index, then its Level-1 entry, then the token's bytes — each reading
    /// only what an earlier call already fetched. A dense fill walks the
    /// index and the file in order, and the hardware prefetcher follows;
    /// the gaps of a sparse selection break that stream, and without this a
    /// fill over half the rows costs about what a fill over all of them does.
    fn prefetch_ahead(&self, start: Oid, ahead: &[u32], path: &BoundPath) {
        const DISTANCE: usize = 8;
        let index = &self.inner.index;
        let object = |k: usize| {
            let row = *ahead.get(k)?;
            index.objects.get((start + Oid::from(row)) as usize)
        };
        // Without a shared layout the path's slot differs per object: the
        // first entry stands in for it.
        fn entry(object: &ObjectIndex, slot: PathSlot) -> Option<&TokenEntry> {
            match slot {
                PathSlot::Fixed(slot) => object.entries.get(slot as usize),
                PathSlot::Absent | PathSlot::PerObject => object.entries.first(),
            }
        }
        if let Some(object) = object(2 * DISTANCE) {
            prefetch(object);
        }
        if let Some(entry) = object(DISTANCE).and_then(|o| entry(o, path.slot)) {
            prefetch(entry);
        }
        let token = object(DISTANCE / 2).and_then(|o| entry(o, path.slot));
        if let Some(byte) = token.and_then(|t| self.inner.data.get(t.start as usize)) {
            prefetch(byte);
        }
    }

    /// Visits the elements of one object's collection in order, handing each
    /// element's leaf tokens (see `JsonParser::element_tokens`) to `visit`.
    /// Mirrors what unnesting the collection's `Value` yields: a missing
    /// field or `null` has no elements, an array has its items, and anything
    /// else — a scalar or a record where an array was expected — is a
    /// collection of one.
    fn for_each_element(
        &self,
        oid: Oid,
        collection: &BoundPath,
        leaves: &[String],
        tokens: &mut [Option<TokenEntry>],
        mut visit: impl FnMut(&[Option<TokenEntry>]),
    ) {
        let Some(entry) = self.token(oid, collection) else {
            return;
        };
        let mut parser = JsonParser::new(&self.inner.data, entry.start as usize);
        match entry.token_type {
            TokenType::Null => {}
            TokenType::Array => {
                parser.pos += 1;
                loop {
                    parser.skip_ws();
                    match parser.peek() {
                        Some(b',') => parser.pos += 1,
                        Some(b']') | None => break,
                        // The array was validated when the index was built;
                        // an element that does not parse ends the walk.
                        Some(_) => match parser.element_tokens(leaves, tokens) {
                            Ok(()) => visit(tokens),
                            Err(_) => break,
                        },
                    }
                }
            }
            _ => {
                if parser.element_tokens(leaves, tokens).is_ok() {
                    visit(tokens);
                }
            }
        }
    }

    fn lane_evidence(&self, token: Option<TokenEntry>) -> LaneEvidence {
        let Some(entry) = token else {
            return LaneEvidence::Nothing;
        };
        match entry.token_type {
            TokenType::Null => LaneEvidence::Nothing,
            TokenType::Bool => LaneEvidence::Kind(TypedKind::Bool),
            TokenType::String => LaneEvidence::Kind(TypedKind::Str),
            TokenType::Object | TokenType::Array => LaneEvidence::Unrepresentable,
            // The split `parse_value` makes: a fraction or an exponent is a
            // float, anything else must fit an `i64`.
            TokenType::Number => match std::str::from_utf8(self.token_bytes(entry)) {
                Ok(text) if text.contains(['.', 'e', 'E']) => match text.parse::<f64>() {
                    Ok(_) => LaneEvidence::Kind(TypedKind::F64),
                    Err(_) => LaneEvidence::Unrepresentable,
                },
                Ok(text) if text.parse::<i64>().is_ok() => LaneEvidence::Kind(TypedKind::I64),
                _ => LaneEvidence::Unrepresentable,
            },
        }
    }

    /// The lane kind of each requested leaf — of the elements of
    /// `collection`, or of the objects themselves (dotted paths) when there
    /// is none — or `None` where the leaf's tokens are of two kinds (an int
    /// and a float count as two) or of one no lane holds. A leaf nothing
    /// ever sets is an all-null integer lane. Leaves not met before cost one
    /// walk over the file, on the compiling thread; verdicts are kept per
    /// leaf, so a leaf is walked for once only, whatever it is asked with.
    fn lane_kinds(
        &self,
        collection: Option<&BoundPath>,
        leaves: &[String],
    ) -> Vec<Option<TypedKind>> {
        let key = |leaf: &String| (collection.map(|c| c.dotted.clone()), leaf.clone());
        let memo = || {
            self.inner
                .lane_kinds
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        let known = memo();
        let unknown: Vec<String> = leaves
            .iter()
            .filter(|leaf| !known.contains_key(&key(leaf)))
            .cloned()
            .collect();
        drop(known);
        if !unknown.is_empty() {
            // Per unknown leaf: the one kind seen so far, and whether that
            // still describes every token.
            let mut seen: Vec<Option<TypedKind>> = vec![None; unknown.len()];
            let mut uniform = vec![true; unknown.len()];
            let mut observe = |tokens: &[Option<TokenEntry>]| {
                for (i, token) in tokens.iter().enumerate() {
                    match self.lane_evidence(*token) {
                        LaneEvidence::Nothing => {}
                        LaneEvidence::Kind(kind) if seen[i].is_none_or(|s| s == kind) => {
                            seen[i] = Some(kind)
                        }
                        _ => uniform[i] = false,
                    }
                }
            };
            let mut tokens = vec![None; unknown.len()];
            let paths: Vec<BoundPath> = match collection {
                Some(_) => Vec::new(),
                None => unknown.iter().map(|leaf| self.bind(leaf)).collect(),
            };
            for oid in 0..self.len() {
                match collection {
                    Some(collection) => {
                        self.for_each_element(oid, collection, &unknown, &mut tokens, &mut observe)
                    }
                    None => {
                        for (token, path) in tokens.iter_mut().zip(&paths) {
                            *token = self.token(oid, path);
                        }
                        observe(&tokens);
                    }
                }
            }
            let mut memo = memo();
            for (i, leaf) in unknown.iter().enumerate() {
                let kind = uniform[i].then(|| seen[i].unwrap_or(TypedKind::I64));
                memo.insert(key(leaf), kind);
            }
        }
        let memo = memo();
        leaves.iter().map(|leaf| memo[&key(leaf)]).collect()
    }

    /// Appends one leaf token to its lane. `lane_kinds` vouched that every
    /// token in the file is null or of the lane's kind; anything else could
    /// only be a null bit.
    fn push_token(&self, lane: &mut TypedColumn, token: Option<TokenEntry>) {
        let text = |entry: TokenEntry| std::str::from_utf8(self.token_bytes(entry)).ok();
        let pushed = token.is_some_and(|entry| match (lane.kind(), entry.token_type) {
            (TypedKind::I64, TokenType::Number) => text(entry)
                .and_then(|t| t.parse().ok())
                .map(|v| lane.push_i64(v))
                .is_some(),
            (TypedKind::F64, TokenType::Number) => text(entry)
                .and_then(|t| t.parse().ok())
                .map(|v| lane.push_f64(v))
                .is_some(),
            (TypedKind::Bool, TokenType::Bool) => {
                lane.push_bool(self.token_bytes(entry).starts_with(b"true"));
                true
            }
            (TypedKind::Str, TokenType::String) => {
                let bytes = self.token_bytes(entry);
                match std::str::from_utf8(&bytes[1..bytes.len() - 1]) {
                    // No escapes: intern the bytes of the file in place.
                    Ok(plain) if !plain.contains('\\') => lane.push_str(plain),
                    _ => lane.push_str(&self.string_token(entry).unwrap_or_default()),
                }
                true
            }
            _ => false,
        });
        if !pushed {
            lane.push_null();
        }
    }
}

/// Asks the CPU to pull the cache line holding `value` in (see
/// `JsonPlugin::prefetch_ahead`). A hint only; it changes no value.
#[inline]
fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `value` is a live reference, and a prefetch of any address has
    // no effect beyond the cache.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(value as *const T as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// Maps a token to the [`DataType`] it evidences (`Null` → `Any`).
fn token_data_type(data: &[u8], entry: &TokenEntry) -> DataType {
    match entry.token_type {
        TokenType::Number => {
            let text =
                std::str::from_utf8(&data[entry.start as usize..entry.end as usize]).unwrap_or("");
            if text.contains('.') || text.contains('e') {
                DataType::Float
            } else {
                DataType::Int
            }
        }
        TokenType::String => DataType::String,
        TokenType::Bool => DataType::Bool,
        TokenType::Array => DataType::Collection(
            proteus_algebra::CollectionKind::List,
            Box::new(DataType::Any),
        ),
        TokenType::Object => DataType::Record(vec![]),
        TokenType::Null => DataType::Any,
    }
}

/// Infers a top-level schema. Objects that share one layout take its
/// fields, typed by the first object's tokens; otherwise the schema is the
/// union of every object's top-level fields in first-seen order (the empty
/// sentinels a `Null` bad-row policy leaves behind add none). A field is
/// typed by its first non-null token: a leading `null` says nothing about
/// the field's type, so a nullable numeric column still types (and
/// vectorizes) as numeric.
fn infer_schema(data: &[u8], index: &JsonStructuralIndex) -> Schema {
    let mut fields = Vec::new();
    if let Some(shared) = &index.shared_layout {
        let Some(first) = index.objects.first() else {
            return Schema::new(fields);
        };
        let mut paths: Vec<(&String, u32)> = shared.iter().map(|(p, s)| (p, *s)).collect();
        paths.sort_by_key(|(_, slot)| *slot);
        for (path, slot) in paths {
            // Top-level fields only (nested ones are reachable via readPath).
            if path.contains('.') {
                continue;
            }
            let mut data_type = token_data_type(data, &first.entries[slot as usize]);
            if matches!(data_type, DataType::Any) {
                // Look ahead a bounded number of objects for the first
                // non-null token.
                for oid in 1..index.object_count().min(64) {
                    if let Some(later) = index.lookup(oid, path) {
                        if later.token_type != TokenType::Null {
                            data_type = token_data_type(data, &later);
                            break;
                        }
                    }
                }
            }
            fields.push(Field::nullable(path.clone(), data_type));
        }
        return Schema::new(fields);
    }
    // Per top-level path, in first-seen order: its position in `fields` and
    // whether a non-null token has typed it yet.
    let mut seen: HashMap<&str, (usize, bool)> = HashMap::new();
    for object in &index.objects {
        for (path, slot) in &object.level0 {
            if path.contains('.') {
                continue;
            }
            let entry = &object.entries[*slot as usize];
            let typed = entry.token_type != TokenType::Null;
            match seen.get_mut(path.as_str()) {
                Some((_, true)) => {}
                Some((at, known)) => {
                    if typed {
                        fields[*at] = Field::nullable(path.clone(), token_data_type(data, entry));
                        *known = true;
                    }
                }
                None => {
                    seen.insert(path, (fields.len(), typed));
                    fields.push(Field::nullable(path.clone(), token_data_type(data, entry)));
                }
            }
        }
    }
    Schema::new(fields)
}

fn collect_stats(data: &[u8], index: &JsonStructuralIndex, schema: &Schema) -> DatasetStats {
    let mut stats = DatasetStats::with_cardinality(index.object_count() as u64);
    for field in schema.fields() {
        if !field.data_type.is_numeric() {
            continue;
        }
        let mut collector = StatsCollector::new();
        let slot = index.resolve(&field.name);
        for oid in 0..index.object_count() {
            if let Some(entry) = index.lookup_resolved(oid, &field.name, slot) {
                let slice = &data[entry.start as usize..entry.end as usize];
                let text = std::str::from_utf8(slice).unwrap_or("").trim();
                let value = if matches!(field.data_type, DataType::Float) {
                    text.parse::<f64>().map(Value::Float).unwrap_or(Value::Null)
                } else {
                    text.parse::<i64>().map(Value::Int).unwrap_or(Value::Null)
                };
                collector.observe(&value);
            }
        }
        stats.columns.insert(field.name.clone(), collector.finish());
    }
    stats
}

impl InputPlugin for JsonPlugin {
    fn dataset(&self) -> &str {
        &self.inner.dataset
    }

    fn format(&self) -> SourceFormat {
        SourceFormat::Json
    }

    fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    fn len(&self) -> u64 {
        self.inner.index.object_count() as u64
    }

    fn generate(&self, fields: &[String]) -> Result<ScanAccessors> {
        crate::fault::check("json.decode").map_err(|detail| PluginError::Malformed {
            dataset: self.inner.dataset.clone(),
            detail,
        })?;
        let mut fills = Vec::with_capacity(fields.len());
        // Nested-record leaves (`geo.lat`): Level 0 indexes them like
        // top-level fields, so a leaf whose tokens are all of one kind is
        // typed and served like one. Any other leaf is read token by token,
        // dynamically — what navigating the materialized record yields.
        let nested_leaves: Vec<String> = fields
            .iter()
            .filter(|field| field.contains('.') && self.inner.schema.field(field).is_none())
            .cloned()
            .collect();
        let mut leaf_kinds = self.lane_kinds(None, &nested_leaves).into_iter();
        for field in fields {
            let nested = field.contains('.');
            let data_type = match self.inner.schema.field(field) {
                Some(f) => f.data_type.clone(),
                None if nested => match leaf_kinds.next().flatten() {
                    Some(TypedKind::I64) => DataType::Int,
                    Some(TypedKind::F64) => DataType::Float,
                    Some(TypedKind::Str) => DataType::String,
                    Some(TypedKind::Bool) => DataType::Bool,
                    None => DataType::Any,
                },
                None => DataType::Any,
            };
            let path = self.bind(field);
            let fill = match data_type {
                DataType::Int => self.nullable_fill(
                    path,
                    TypedKind::I64,
                    JsonPlugin::int_at,
                    TypedColumn::push_i64,
                ),
                DataType::Float => self.nullable_fill(
                    path,
                    TypedKind::F64,
                    JsonPlugin::float_at,
                    TypedColumn::push_f64,
                ),
                DataType::Bool => self.nullable_fill(
                    path,
                    TypedKind::Bool,
                    JsonPlugin::bool_at,
                    TypedColumn::push_bool,
                ),
                // A nested string leaf is often absent: keep the null that
                // reading it out of the whole record would have produced.
                DataType::String if nested => self.nullable_fill(
                    path,
                    TypedKind::Str,
                    JsonPlugin::string_at,
                    |col: &mut TypedColumn, s: String| col.push_str(&s),
                ),
                // A top-level string field reads `""` where it is missing
                // or not a string (ARCHITECTURE.md, "Scan fills: one per field").
                DataType::String => self.nullable_fill(
                    path,
                    TypedKind::Str,
                    |plugin: &JsonPlugin, oid, path: &BoundPath| {
                        Some(plugin.string_at(oid, path).unwrap_or_default())
                    },
                    |col: &mut TypedColumn, s: String| col.push_str(&s),
                ),
                // Records, arrays, mixed-kind leaves: token by token into
                // `Value`s, with no typed form.
                _ => {
                    let plugin = self.clone();
                    FieldFill::Values(Arc::new(move |start, count, out, base, stride| {
                        for i in 0..count {
                            out[base + i * stride] = plugin
                                .token(start + i as Oid, &path)
                                .and_then(|e| plugin.entry_value(e).ok())
                                .unwrap_or(Value::Null);
                        }
                    }))
                }
            };
            fills.push((field.clone(), fill));
        }
        let mut access_path = if self.inner.index.is_deterministic() {
            "json(structural-index, deterministic layout, level-0 dropped".to_string()
        } else {
            "json(structural-index level-0 + level-1".to_string()
        };
        let typed_leaves: Vec<&str> = fills
            .iter()
            .filter(|(name, fill)| name.contains('.') && matches!(fill, FieldFill::Typed(..)))
            .map(|(name, _)| name.as_str())
            .collect();
        if !typed_leaves.is_empty() {
            access_path.push_str(&format!(
                "; typed nested leaves [{}]",
                typed_leaves.join(", ")
            ));
        }
        access_path.push(')');
        let scan = ScanAccessors {
            row_count: self.len(),
            fields: fills,
            access_path,
            bad_rows: self.inner.bad_rows,
        };
        Ok(crate::fault::instrument_scan(scan, "json.decode"))
    }

    fn read_value(&self, oid: Oid, field: &str) -> Result<Value> {
        match self.lookup_path(oid, field)? {
            Some(entry) => self.entry_value(entry),
            None => Ok(Value::Null),
        }
    }

    fn read_path(&self, oid: Oid, path: &[String]) -> Result<Value> {
        let dotted = path.join(".");
        match self.lookup_path(oid, &dotted)? {
            Some(entry) => self.entry_value(entry),
            None => {
                // The path may traverse an array or an unregistered nested
                // field: fall back to materializing the top-level field and
                // navigating in memory.
                if let Some(first) = path.first() {
                    match self.lookup_path(oid, first)? {
                        Some(entry) => {
                            let value = self.entry_value(entry)?;
                            Ok(value.navigate(&path[1..]))
                        }
                        None => Ok(Value::Null),
                    }
                } else {
                    Ok(Value::Null)
                }
            }
        }
    }

    fn generate_expand(&self, path: &str, leaves: &[String]) -> Option<ExpandAccessors> {
        let collection = self.bind(path);
        let kinds: Vec<TypedKind> = self
            .lane_kinds(Some(&collection), leaves)
            .into_iter()
            .collect::<Option<_>>()?;
        let (plugin, leaves, lane_kinds) = (self.clone(), leaves.to_vec(), kinds.clone());
        // The expander decodes like a fill does: same chaos-harness site.
        let faults_armed = crate::fault::armed();
        let expand: TypedExpand = Arc::new(move |start, rows, outer, out: &mut ExpandOutput| {
            if faults_armed {
                crate::fault::check_infallible("json.decode");
            }
            out.parents.clear();
            out.lanes
                .resize_with(lane_kinds.len(), || TypedColumn::new(TypedKind::I64));
            for (lane, kind) in out.lanes.iter_mut().zip(&lane_kinds) {
                lane.begin(*kind, rows.len());
            }
            let mut tokens = vec![None; leaves.len()];
            for &row in rows {
                let before = out.parents.len();
                let oid = start + Oid::from(row);
                plugin.for_each_element(oid, &collection, &leaves, &mut tokens, |tokens| {
                    out.parents.push(row);
                    for (lane, token) in out.lanes.iter_mut().zip(tokens) {
                        plugin.push_token(lane, *token);
                    }
                });
                if outer && out.parents.len() == before {
                    out.parents.push(row);
                    out.lanes.iter_mut().for_each(TypedColumn::push_null);
                }
            }
        });
        Some(ExpandAccessors { kinds, expand })
    }

    fn statistics(&self) -> DatasetStats {
        self.inner.stats.clone()
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::json()
    }

    fn zone_maps(&self, fields: &[String]) -> Vec<(String, Arc<ZoneMap>)> {
        derive_zone_maps(&self.inner.zone_maps, fields, |missing| {
            self.generate(missing).ok()
        })
    }

    fn cached_zone_maps(&self) -> Vec<(String, Arc<ZoneMap>)> {
        self.inner
            .zone_maps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(n, zm)| (n.clone(), zm.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure_4_object() -> &'static str {
        r#"{"a": 1, "b": "two", "c": {"d": {"d1": 3}}, "e": [10, 20, 30], "f": [{"x": 1}, {"x": 2}]}"#
    }

    fn ndjson_sample() -> String {
        let mut s = String::new();
        for i in 0..20 {
            s.push_str(&format!(
                "{{\"orderkey\": {i}, \"price\": {:.2}, \"comment\": \"obj {i}\", \"items\": [{}]}}\n",
                i as f64 * 2.5,
                (0..(i % 3)).map(|j| format!("{{\"qty\": {j}}}")).collect::<Vec<_>>().join(", ")
            ));
        }
        s
    }

    #[test]
    fn parse_json_value_round_trips_figure_4() {
        let v = parse_json_value(figure_4_object().as_bytes()).unwrap();
        let rec = v.as_record().unwrap();
        assert_eq!(rec.get("a"), Some(&Value::Int(1)));
        assert_eq!(rec.get("b"), Some(&Value::Str("two".into())));
        let path = vec!["c".to_string(), "d".to_string(), "d1".to_string()];
        assert_eq!(v.navigate(&path), Value::Int(3));
        assert_eq!(rec.get("e").unwrap().as_list().unwrap().len(), 3);
    }

    #[test]
    fn index_registers_nested_records_but_not_array_contents() {
        let plugin =
            JsonPlugin::from_bytes("fig4", Bytes::from(figure_4_object().to_string())).unwrap();
        let index = plugin.structural_index();
        assert_eq!(index.object_count(), 1);
        // Nested record path is directly addressable.
        assert!(index.lookup(0, "c.d.d1").is_some());
        // Array contents are not registered in Level 0.
        assert!(index.lookup(0, "e.0").is_none());
        assert!(index.lookup(0, "f.x").is_none());
    }

    #[test]
    fn read_value_and_path() {
        let plugin =
            JsonPlugin::from_bytes("fig4", Bytes::from(figure_4_object().to_string())).unwrap();
        assert_eq!(plugin.read_value(0, "a").unwrap(), Value::Int(1));
        assert_eq!(plugin.read_value(0, "b").unwrap(), Value::Str("two".into()));
        assert_eq!(
            plugin
                .read_path(0, &["c".into(), "d".into(), "d1".into()])
                .unwrap(),
            Value::Int(3)
        );
        // Missing fields are null, not errors (JSON optionality).
        assert_eq!(plugin.read_value(0, "missing").unwrap(), Value::Null);
    }

    /// Runs the expand hook over every object of `plugin` and renders what
    /// it appended as `(parent row, lane values)` entries.
    fn expand_all(
        plugin: &JsonPlugin,
        path: &str,
        leaves: &[&str],
        outer: bool,
    ) -> Option<Vec<(u32, Vec<Value>)>> {
        let leaves: Vec<String> = leaves.iter().map(|l| l.to_string()).collect();
        let hook = plugin.generate_expand(path, &leaves)?;
        assert_eq!(hook.kinds.len(), leaves.len());
        let rows: Vec<u32> = (0..plugin.len() as u32).collect();
        let mut out = ExpandOutput::default();
        (hook.expand)(0, &rows, outer, &mut out);
        assert!(out.lanes.iter().all(|lane| lane.len() == out.parents.len()));
        for (lane, kind) in out.lanes.iter().zip(&hook.kinds) {
            assert_eq!(lane.kind(), *kind);
        }
        Some(
            out.parents
                .iter()
                .enumerate()
                .map(|(i, parent)| (*parent, out.lanes.iter().map(|l| l.value_at(i)).collect()))
                .collect(),
        )
    }

    #[test]
    fn expand_renders_element_leaves_as_typed_lanes() {
        let plugin =
            JsonPlugin::from_bytes("fig4", Bytes::from(figure_4_object().to_string())).unwrap();
        // Scalar elements are their own lane.
        assert_eq!(
            expand_all(&plugin, "e", &[""], false).unwrap(),
            vec![
                (0, vec![Value::Int(10)]),
                (0, vec![Value::Int(20)]),
                (0, vec![Value::Int(30)])
            ]
        );
        // Record elements: one lane per requested leaf, missing → null.
        assert_eq!(
            expand_all(&plugin, "f", &["x", "nope"], false).unwrap(),
            vec![
                (0, vec![Value::Int(1), Value::Null]),
                (0, vec![Value::Int(2), Value::Null])
            ]
        );
        // No leaves: the parent index alone.
        assert_eq!(expand_all(&plugin, "f", &[], false).unwrap().len(), 2);
        // A scalar where an array is expected is a collection of one; a
        // missing field has no elements, one all-null entry when outer.
        assert_eq!(
            expand_all(&plugin, "a", &[""], false).unwrap(),
            vec![(0, vec![Value::Int(1)])]
        );
        assert_eq!(expand_all(&plugin, "zzz", &["x"], false).unwrap(), vec![]);
        assert_eq!(
            expand_all(&plugin, "zzz", &["x"], true).unwrap(),
            vec![(0, vec![Value::Null])]
        );
        // Records as the lane itself, or a nested path, are not representable.
        assert!(expand_all(&plugin, "f", &[""], false).is_none());
        assert!(expand_all(&plugin, "c", &["d"], false).is_none());
    }

    #[test]
    fn expand_agrees_with_unnesting_the_materialized_value() {
        // Odd whitespace, `]`/`}`/`\"` inside strings, duplicate and
        // reordered keys, nested containers, non-record elements, nulls.
        let data = r#"{"id": 0, "items": [ {"qty": 1, "sku": "a]b"} ,{"sku":"q\"}","qty":2}]}
{"id": 1, "items": []}
{"id": 2}
{"id": 3, "items": null}
{"id": 4, "items": [{"qty": 3, "qty": 4, "sub": {"qty": [9]}}, 7, null, {"sku": null}]}
{"id": 5, "items": {"qty": 5, "sku": "one"}}
{"id": 6, "items": [{"sku": "caf\u00e9 \ud83d\ude00", "qty": 6}]}"#;
        let plugin = JsonPlugin::from_bytes("t", Bytes::from(data.to_string())).unwrap();
        assert!(!plugin.structural_index().is_deterministic());
        let got = expand_all(&plugin, "items", &["qty", "sku"], false).unwrap();
        let mut expected = Vec::new();
        for oid in 0..plugin.len() {
            let items = match plugin.read_value(oid, "items").unwrap() {
                Value::List(items) => items,
                Value::Null => Vec::new(),
                other => vec![other],
            };
            for item in items {
                let leaf = |name: &str| item.navigate(&[name.to_string()]);
                expected.push((oid as u32, vec![leaf("qty"), leaf("sku")]));
            }
        }
        assert_eq!(got, expected);
        assert_eq!(got.len(), 8);
        assert_eq!(got[2], (4, vec![Value::Int(4), Value::Null]));
        assert_eq!(got[7].1[1], Value::Str("café 😀".into()));
    }

    #[test]
    fn expand_declines_lanes_of_mixed_kinds() {
        let mixed = |leaf: &str| format!("{{\"items\": [{{\"v\": 1}}, {{\"v\": {leaf}}}]}}");
        for unrepresentable in ["1.5", "\"s\"", "true", "[1]", "{}", "99999999999999999999"] {
            let plugin = JsonPlugin::from_bytes("t", Bytes::from(mixed(unrepresentable))).unwrap();
            assert!(
                plugin
                    .generate_expand("items", &["v".to_string()])
                    .is_none(),
                "{unrepresentable}"
            );
            // Leaves nobody mixes still expand, and the verdict is memoized.
            assert!(plugin
                .generate_expand("items", &["w".to_string()])
                .is_some());
            assert!(plugin
                .generate_expand("items", &["v".to_string()])
                .is_none());
        }
        let plugin = JsonPlugin::from_bytes("t", Bytes::from(mixed("null"))).unwrap();
        assert!(plugin
            .generate_expand("items", &["v".to_string()])
            .is_some());
    }

    #[test]
    fn strings_decode_utf8_and_unicode_escapes() {
        // Regression: bytes were pushed `as char` (`cafÃ©`) and `\uXXXX`
        // kept verbatim, so `WHERE name = 'café'` never matched.
        let data = r#"{"name": "café", "u": "\u00e9\ud83d\ude00", "odd": "\ud83dx\u12", "items": [{"s": "naïve \u00fc"}]}"#;
        let plugin = JsonPlugin::from_bytes("t", Bytes::from(data.to_string())).unwrap();
        // Row-major fill and read_value.
        assert_eq!(
            plugin.read_value(0, "name").unwrap(),
            Value::Str("café".into())
        );
        assert_eq!(plugin.read_value(0, "u").unwrap(), Value::Str("é😀".into()));
        // A lone surrogate and malformed digits degrade to U+FFFD, nothing is
        // dropped after them.
        assert_eq!(
            plugin.read_value(0, "odd").unwrap(),
            Value::Str("\u{fffd}x\u{fffd}12".into())
        );
        let scan = plugin
            .generate(&["name".to_string(), "u".to_string()])
            .unwrap();
        assert_eq!(
            scan.fill("name").unwrap().values_at(0, 1),
            [Value::Str("café".into())]
        );
        // Typed string fill.
        assert_eq!(
            scan.fill("u").unwrap().typed_at(0, 1).unwrap(),
            [Value::Str("é😀".into())]
        );
        // Element string lane of the expand hook.
        assert_eq!(
            expand_all(&plugin, "items", &["s"], false).unwrap(),
            vec![(0, vec![Value::Str("naïve ü".into())])]
        );
        // The whole-value parser decodes the same way.
        assert_eq!(
            parse_json_value(br#"["\u00e9", "caf\u00e9\n"]"#).unwrap(),
            Value::List(vec![Value::Str("é".into()), Value::Str("café\n".into())])
        );
    }

    #[test]
    fn nested_leaves_are_typed_scan_fields() {
        let mut data = String::new();
        for i in 0..10 {
            let lat = if i == 3 {
                "null".to_string()
            } else {
                format!("{}.5", i)
            };
            let city = if i % 2 == 0 {
                format!(", \"city\": \"c{i}\"")
            } else {
                String::new()
            };
            // Leaves of two kinds, far from the first object: an int leaf
            // with one float, a string leaf with one int.
            let m = if i == 8 { "2.5".into() } else { i.to_string() };
            let s = if i == 9 {
                "7".into()
            } else {
                format!("\"s{i}\"")
            };
            data.push_str(&format!(
                "{{\"id\": {i}, \"geo\": {{\"lat\": {lat}, \"n\": {i}, \"m\": {m}, \"s\": {s}{city}}}}}\n"
            ));
        }
        let plugin = JsonPlugin::from_bytes("t", Bytes::from(data)).unwrap();
        let fields: Vec<String> = ["geo.lat", "geo.n", "geo.city", "geo.nope", "geo.m", "geo.s"]
            .iter()
            .map(|f| f.to_string())
            .collect();
        let scan = plugin.generate(&fields).unwrap();
        assert!(
            scan.access_path
                .ends_with("typed nested leaves [geo.lat, geo.n, geo.city, geo.nope])"),
            "{}",
            scan.access_path
        );
        let kind = |field: &str| scan.fill(field).unwrap().typed().map(|(kind, _)| kind);
        assert_eq!(kind("geo.lat"), Some(TypedKind::F64));
        assert_eq!(kind("geo.n"), Some(TypedKind::I64));
        assert_eq!(kind("geo.city"), Some(TypedKind::Str));
        // A leaf no object sets is an all-null lane.
        assert_eq!(kind("geo.nope"), Some(TypedKind::I64));
        // Mixed leaves are not typed: every token reads as what it is.
        assert!(kind("geo.m").is_none() && kind("geo.s").is_none());
        let m = scan.fill("geo.m").unwrap().values_at(7, 2);
        assert_eq!(m, [Value::Int(7), Value::Float(2.5)]);
        assert_eq!(scan.fill("geo.s").unwrap().values_at(9, 1), [Value::Int(7)]);
        // Typed fill ≡ row-major fill ≡ navigating the whole record.
        for field in &fields {
            let fill = scan.fill(field).unwrap();
            let values = fill.values_at(0, 10);
            let typed = fill.typed_at(0, 10);
            let leaf = field.split('.').nth(1).unwrap().to_string();
            for oid in 0..10usize {
                let whole = plugin
                    .read_value(oid as u64, "geo")
                    .unwrap()
                    .navigate(std::slice::from_ref(&leaf));
                assert_eq!(values[oid], whole, "{field} oid {oid}");
                if let Some(typed) = &typed {
                    assert_eq!(typed[oid], whole, "{field} oid {oid}");
                }
            }
        }
    }

    #[test]
    fn ndjson_objects_get_oids_in_order() {
        let plugin = JsonPlugin::from_bytes("orders", Bytes::from(ndjson_sample())).unwrap();
        assert_eq!(plugin.len(), 20);
        for oid in 0..20u64 {
            assert_eq!(
                plugin.read_value(oid, "orderkey").unwrap(),
                Value::Int(oid as i64)
            );
        }
    }

    #[test]
    fn deterministic_layout_detected_for_uniform_objects() {
        let plugin = JsonPlugin::from_bytes("orders", Bytes::from(ndjson_sample())).unwrap();
        assert!(plugin.structural_index().is_deterministic());
        assert!(plugin
            .generate(&["orderkey".into()])
            .unwrap()
            .access_path
            .contains("deterministic"));
        // Level 0 dropped: per-object maps are empty.
        assert!(plugin
            .structural_index()
            .objects
            .iter()
            .all(|o| o.level0.is_empty()));
    }

    #[test]
    fn shuffled_field_order_disables_determinism_but_still_works() {
        let data = r#"{"a": 1, "b": 2}
{"b": 20, "a": 10}
"#;
        let plugin = JsonPlugin::from_bytes("t", Bytes::from(data.to_string())).unwrap();
        assert!(!plugin.structural_index().is_deterministic());
        assert_eq!(plugin.read_value(0, "a").unwrap(), Value::Int(1));
        assert_eq!(plugin.read_value(1, "a").unwrap(), Value::Int(10));
        assert_eq!(plugin.read_value(1, "b").unwrap(), Value::Int(20));
    }

    #[test]
    fn top_level_array_form_is_supported() {
        let data = r#"[{"x": 1}, {"x": 2}, {"x": 3}]"#;
        let plugin = JsonPlugin::from_bytes("arr", Bytes::from(data.to_string())).unwrap();
        assert_eq!(plugin.len(), 3);
        assert_eq!(plugin.read_value(2, "x").unwrap(), Value::Int(3));
    }

    #[test]
    fn generated_accessors_match_read_value() {
        let plugin = JsonPlugin::from_bytes("orders", Bytes::from(ndjson_sample())).unwrap();
        let scan = plugin
            .generate(&[
                "orderkey".to_string(),
                "price".to_string(),
                "comment".to_string(),
            ])
            .unwrap();
        for (field, fill) in &scan.fields {
            let values = fill.values_at(0, plugin.len() as usize);
            for oid in 0..plugin.len() {
                assert_eq!(values[oid as usize], plugin.read_value(oid, field).unwrap());
            }
        }
    }

    #[test]
    fn schema_inference_covers_top_level_fields() {
        let plugin = JsonPlugin::from_bytes("orders", Bytes::from(ndjson_sample())).unwrap();
        let schema = plugin.schema();
        assert_eq!(schema.field("orderkey").unwrap().data_type, DataType::Int);
        assert_eq!(schema.field("price").unwrap().data_type, DataType::Float);
        assert_eq!(schema.field("comment").unwrap().data_type, DataType::String);
        assert!(matches!(
            schema.field("items").unwrap().data_type,
            DataType::Collection(_, _)
        ));
    }

    #[test]
    fn statistics_computed_for_numeric_fields() {
        let plugin = JsonPlugin::from_bytes("orders", Bytes::from(ndjson_sample())).unwrap();
        let stats = plugin.statistics();
        assert_eq!(stats.cardinality, 20);
        let key = stats.column("orderkey").unwrap();
        assert_eq!(key.min, Value::Int(0));
        assert_eq!(key.max, Value::Int(19));
    }

    #[test]
    fn index_size_reported_and_smaller_when_deterministic() {
        let uniform = JsonPlugin::from_bytes("u", Bytes::from(ndjson_sample())).unwrap();
        let mut shuffled_text = String::new();
        for i in 0..20 {
            if i % 2 == 0 {
                shuffled_text.push_str(&format!(
                    "{{\"orderkey\": {i}, \"price\": 1.0, \"comment\": \"c\", \"items\": []}}\n"
                ));
            } else {
                shuffled_text.push_str(&format!(
                    "{{\"price\": 1.0, \"orderkey\": {i}, \"comment\": \"c\", \"items\": []}}\n"
                ));
            }
        }
        let shuffled = JsonPlugin::from_bytes("s", Bytes::from(shuffled_text)).unwrap();
        assert!(uniform.structural_index().is_deterministic());
        assert!(!shuffled.structural_index().is_deterministic());
        assert!(uniform.structural_index().size_bytes() > 0);
        // Same number of objects/fields: the deterministic index must be
        // more compact because it stores path strings once.
        assert!(uniform.structural_index().size_bytes() < shuffled.structural_index().size_bytes());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(JsonPlugin::from_bytes("bad", Bytes::from_static(b"{\"a\": }")).is_err());
        assert!(JsonPlugin::from_bytes("bad", Bytes::from_static(b"{\"a\" 1}")).is_err());
        assert!(parse_json_value(b"[1, 2,").is_err());
        // One value and nothing but whitespace after it.
        assert!(parse_json_value(b"1 2").is_err());
        assert!(parse_json_value(b"{\"a\":1} garbage").is_err());
        assert!(parse_json_value(b"[1]]").is_err());
        assert_eq!(parse_json_value(b" 1 \n").unwrap(), Value::Int(1));
    }

    /// `{"x":1,"a":[[…]]}` with `arrays` nested arrays, as one NDJSON line.
    fn deep_line(arrays: usize) -> String {
        format!(
            "{{\"x\":1,\"a\":{}{}}}\n",
            "[".repeat(arrays),
            "]".repeat(arrays)
        )
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_malformed_not_a_stack_overflow() {
        // ~200 KB of `[`: without the cap the recursive descent overflows
        // this test thread's stack and aborts the process.
        match JsonPlugin::from_bytes("deep", Bytes::from(deep_line(100_000))) {
            Err(PluginError::Malformed { detail, .. }) => {
                assert!(detail.contains("nesting deeper than"), "{detail}");
                // The offset of the first `[` past the cap.
                let offset = r#"{"x":1,"a":"#.len() + MAX_DEPTH - 1;
                assert!(detail.contains(&format!("at byte {offset}")), "{detail}");
            }
            Err(other) => panic!("expected Malformed, got {other:?}"),
            Ok(_) => panic!("a 100 000-level nesting was accepted"),
        }
        // Nested records hit the same cap, and so does a standalone value.
        let records = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        assert!(matches!(
            JsonPlugin::from_bytes("deep", Bytes::from(records)),
            Err(PluginError::Malformed { .. })
        ));
        let array = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse_json_value(array.as_bytes()).is_err());

        // Under a lenient policy the deep object is one bad row.
        let text = deep_line(100_000) + "{\"x\":2,\"a\":[]}\n";
        let plugin =
            JsonPlugin::from_bytes_with_policy("deep", Bytes::from(text), BadRowPolicy::Skip)
                .unwrap();
        assert_eq!(plugin.len(), 1);
        assert_eq!(plugin.read_value(0, "x").unwrap(), Value::Int(2));

        // Up to the cap (the object itself is one level) nothing changes.
        let text = deep_line(MAX_DEPTH - 1);
        let plugin = JsonPlugin::from_bytes("deep", Bytes::from(text.clone())).unwrap();
        assert_eq!(plugin.read_value(0, "x").unwrap(), Value::Int(1));
        assert!(JsonPlugin::from_bytes("deep", Bytes::from(deep_line(MAX_DEPTH))).is_err());
        assert!(parse_json_value(text.trim_end().as_bytes()).is_ok());
    }

    #[test]
    fn oid_out_of_range_is_error() {
        let plugin =
            JsonPlugin::from_bytes("fig4", Bytes::from(figure_4_object().to_string())).unwrap();
        assert!(matches!(
            plugin.read_value(5, "a"),
            Err(PluginError::OidOutOfRange { .. })
        ));
    }
}
