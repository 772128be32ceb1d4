//! Framing, JSON rendering and JSON parsing of the wire protocol.
//!
//! Every frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON — one object per frame, at most [`MAX_FRAME_BYTES`], its
//! first member always `"type"`:
//!
//! ```text
//! client → server   {"type":"query","sql":"…"}
//!                   {"type":"cancel"}
//! server → client   {"type":"rows","fields":["k","v","g"],"rows":[[1,2.5,7],[2,0.5,7],…]}
//!                   {"type":"rows","rows":[3,"x",[1,2],…]}
//!                   {"type":"metrics","rows":5000,…}      success trailer
//!                   {"type":"error","kind":"…",…}         failure trailer
//! ```
//!
//! **Result rows travel in batches.** A `rows` frame with a `fields` header
//! carries records positionally: the field names once, then one array of
//! values per row, in header order. A record whose field list (names and
//! order) differs from the open frame's closes that frame and opens one with
//! its own header. Rows that are not records travel as full JSON values in a
//! header-less `rows` frame. Members appear in the order shown, so the
//! client decodes a frame in one pass ([`rows_from_frame`]).
//!
//! **Writes are batched too.** [`ReplyWriter`] renders a reply into one
//! reused buffer and hands it to the socket — length prefixes included — in
//! a single `write_all` each time it passes [`BATCH_BYTES`], and once more
//! together with the trailer: a 5 000-row reply is a handful of writes, a
//! one-row reply exactly one, and the first batch is on the wire while later
//! rows are still being rendered. Readers on both sides sit behind a
//! `BufReader` and reuse one frame buffer ([`read_frame_into`]).
//!
//! Every socket write goes through the chaos site `service.write` and every
//! frame read through `service.read`, so the fault harness can fail either
//! direction with the usual `PROTEUS_FAULTS` syntax.
//!
//! Values cross the wire as plain JSON with these conventions:
//!
//! * dates (days since 1970-01-01) render as `{"$date":n}` so the client
//!   reconstructs [`Value::Date`] instead of a bare integer;
//! * non-finite floats (`NaN`, `±∞`) render as `null` — JSON has no
//!   representation for them, and a lossy null beats an unparseable frame;
//! * a finite float always renders as a float token, so it never comes back
//!   as an integer: integral values below 1e15 in magnitude get a forced
//!   `.0`, values from 1e15 up use exponent form (`1e19`), everything else
//!   is Rust's shortest round-trip decimal.
//!
//! Everything else round-trips exactly: integers stay integers, strings keep
//! their UTF-8 and control characters (`\u00XX` escapes), and record field
//! order is preserved.

use std::io::{Read, Write};

use proteus_algebra::{Record, Value};
use proteus_core::{EngineError, ExecutionMetrics};

/// Hard cap on a single frame, both directions: a length prefix beyond it
/// is treated as a protocol error, not an allocation request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// The batch bound: a reply's encode buffer is written out each time it
/// grows past this many bytes.
pub const BATCH_BYTES: usize = 64 << 10;

/// Nesting depth past which a received value is rejected instead of parsed
/// recursively (frames come from the network).
const MAX_DEPTH: usize = 64;

fn injected(site: &str, detail: String) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}: {detail}"))
}

// -- framing -----------------------------------------------------------------

/// Hands whole frames (length prefixes included) to the socket in one
/// write. Chaos site: `service.write`.
fn write_out(out: &mut impl Write, frames: &[u8]) -> std::io::Result<()> {
    if proteus_plugins::fault::armed() {
        if let Err(detail) = proteus_plugins::fault::check("service.write") {
            return Err(injected("service.write", detail));
        }
    }
    out.write_all(frames)?;
    out.flush()
}

fn frame_too_large(len: usize) -> std::io::Error {
    std::io::Error::other(format!(
        "frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte cap"
    ))
}

/// Appends the frame whose body is `json` to `buf`.
fn push_frame(buf: &mut Vec<u8>, json: &str) -> std::io::Result<()> {
    if json.len() > MAX_FRAME_BYTES {
        return Err(frame_too_large(json.len()));
    }
    buf.extend_from_slice(&(json.len() as u32).to_be_bytes());
    buf.extend_from_slice(json.as_bytes());
    Ok(())
}

/// Writes one frame, prefix and body in a single write. Chaos site:
/// `service.write`.
pub fn write_frame(out: &mut impl Write, json: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(4 + json.len());
    push_frame(&mut buf, json)?;
    write_out(out, &buf)
}

/// Reads one frame into `body` (cleared first, so one buffer serves a whole
/// connection). Returns `Ok(false)` on a clean EOF at a frame boundary (the
/// peer closed the connection). Chaos site: `service.read`.
pub fn read_frame_into(input: &mut impl Read, body: &mut Vec<u8>) -> std::io::Result<bool> {
    if proteus_plugins::fault::armed() {
        if let Err(detail) = proteus_plugins::fault::check("service.read") {
            return Err(injected("service.read", detail));
        }
    }
    let mut len = [0u8; 4];
    // Hand-rolled first-byte read so EOF *between* frames is a clean close
    // while EOF *inside* a frame stays an error.
    let mut filled = 0;
    while filled < len.len() {
        match input.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::other(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES} byte cap"
        )));
    }
    body.clear();
    body.resize(len, 0);
    input.read_exact(body)?;
    Ok(true)
}

/// Reads one frame into a fresh buffer; `Ok(None)` on a clean EOF. See
/// [`read_frame_into`].
pub fn read_frame(input: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_frame_into(input, &mut body)?.then_some(body))
}

// -- JSON rendering ----------------------------------------------------------

fn push_fmt(out: &mut Vec<u8>, args: std::fmt::Arguments<'_>) {
    out.write_fmt(args)
        .expect("writing to a Vec<u8> cannot fail");
}

fn escape_into(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    out.push(b'"');
    // Every byte that needs an escape is ASCII, so it never sits inside a
    // multi-byte character: the spans between them are copied verbatim.
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"\\u00",
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(escape);
        // `\u00` takes the byte's two hex digits.
        if escape.len() > 2 {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
        }
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
}

/// The one renderer behind every frame: appends `value` as wire JSON (see
/// the module docs for the date and float conventions).
fn render_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::Int(i) => push_fmt(out, format_args!("{i}")),
        Value::Date(d) => push_fmt(out, format_args!("{{\"$date\":{d}}}")),
        Value::Float(f) if !f.is_finite() => out.extend_from_slice(b"null"),
        Value::Float(f) => {
            if f.abs() >= 1e15 {
                push_fmt(out, format_args!("{f:e}"));
            } else if f.fract() == 0.0 {
                push_fmt(out, format_args!("{f:.1}"));
            } else {
                push_fmt(out, format_args!("{f}"));
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::List(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                render_value(item, out);
            }
            out.push(b']');
        }
        Value::Record(record) => {
            out.push(b'{');
            for (i, (name, v)) in record.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                escape_into(name, out);
                out.push(b':');
                render_value(v, out);
            }
            out.push(b'}');
        }
    }
}

fn into_json(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the renderer emits UTF-8")
}

/// `s` as a JSON string token.
fn quoted(s: &str) -> String {
    let mut out = Vec::new();
    escape_into(s, &mut out);
    into_json(out)
}

/// Renders a [`Value`] as wire JSON (see the module docs for the date and
/// float conventions).
pub fn value_to_json(value: &Value) -> String {
    let mut out = Vec::new();
    render_value(value, &mut out);
    into_json(out)
}

// -- the reply writer --------------------------------------------------------

/// Opens a `rows` frame in `buf` (length prefix to be patched by
/// [`close_rows_frame`]) and returns where it starts. `header` is the
/// record whose field names the frame's rows share; `None` opens a
/// header-less frame of full values.
fn open_rows_frame(buf: &mut Vec<u8>, header: Option<&Record>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.extend_from_slice(b"{\"type\":\"rows\",");
    if let Some(record) = header {
        buf.extend_from_slice(b"\"fields\":[");
        for (i, (name, _)) in record.iter().enumerate() {
            if i > 0 {
                buf.push(b',');
            }
            escape_into(name, buf);
        }
        buf.extend_from_slice(b"],");
    }
    buf.extend_from_slice(b"\"rows\":[");
    start
}

fn close_rows_frame(buf: &mut Vec<u8>, start: usize) -> std::io::Result<()> {
    buf.extend_from_slice(b"]}");
    let len = buf.len() - start - 4;
    if len > MAX_FRAME_BYTES {
        return Err(frame_too_large(len));
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

fn same_fields(a: Option<&Record>, b: Option<&Record>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.len() == b.len() && a.iter().zip(b.iter()).all(|((an, _), (bn, _))| an == bn)
        }
        _ => false,
    }
}

/// The write half of a connection: renders each reply into one reused
/// buffer and writes it out in batches (see the module docs).
pub struct ReplyWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> ReplyWriter<W> {
    /// Wraps the write half of a connection.
    pub fn new(out: W) -> ReplyWriter<W> {
        ReplyWriter {
            out,
            buf: Vec::new(),
        }
    }

    /// The wrapped writer.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// Writes one reply: `rows` as batched `rows` frames, then `trailer`
    /// (a [`metrics_frame`] or an [`error_frame`]) in the same write as the
    /// last batch. An error reply is `reply(&[], &error_frame(..))`.
    pub fn reply(&mut self, rows: &[Value], trailer: &str) -> std::io::Result<()> {
        let written = self.encode(rows, trailer);
        // One bounded buffer per connection: a reply with an outsized row
        // does not keep its high-water mark allocated.
        self.buf.clear();
        self.buf.shrink_to(2 * BATCH_BYTES);
        written
    }

    fn encode(&mut self, rows: &[Value], trailer: &str) -> std::io::Result<()> {
        let buf = &mut self.buf;
        // The open frame: where it starts and the record its header names.
        let mut open: Option<(usize, Option<&Record>)> = None;
        for row in rows {
            let header = match row {
                Value::Record(record) => Some(record),
                _ => None,
            };
            if let Some((start, open_header)) = open {
                if same_fields(open_header, header) {
                    buf.push(b',');
                } else {
                    close_rows_frame(buf, start)?;
                    open = None;
                }
            }
            if open.is_none() {
                open = Some((open_rows_frame(buf, header), header));
            }
            match header {
                Some(record) => {
                    buf.push(b'[');
                    for (i, (_, value)) in record.iter().enumerate() {
                        if i > 0 {
                            buf.push(b',');
                        }
                        render_value(value, buf);
                    }
                    buf.push(b']');
                }
                None => render_value(row, buf),
            }
            if buf.len() >= BATCH_BYTES {
                if let Some((start, _)) = open.take() {
                    close_rows_frame(buf, start)?;
                }
                write_out(&mut self.out, buf)?;
                buf.clear();
            }
        }
        if let Some((start, _)) = open {
            close_rows_frame(buf, start)?;
        }
        push_frame(buf, trailer)?;
        write_out(&mut self.out, buf)
    }
}

// -- JSON parsing ------------------------------------------------------------

/// A one-pass parser of wire JSON that builds final [`Value`]s directly:
/// `{"$date":n}` becomes [`Value::Date`] as it is read, strings are decoded
/// as UTF-8 with full `\uXXXX` (surrogate pairs included) handling.
struct Parser<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(data: &'a [u8]) -> Parser<'a> {
        Parser { data, pos: 0 }
    }

    fn error(&self, what: &str) -> String {
        format!("malformed frame: {what} at byte {}", self.pos)
    }

    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.data.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Consumes `byte` if it is the next token.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        if found {
            self.pos += 1;
        }
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    /// Nothing but whitespace may follow the frame's one object.
    fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing bytes")),
        }
    }

    /// The rest of an array or object whose opening bracket has been
    /// consumed: `item` once per comma-separated element, up to and
    /// including `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.expect(close);
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.data[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .data
                .get(self.pos)
                .and_then(|b| char::from(*b).to_digit(16))
                .ok_or_else(|| self.error("bad \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// The code point of a `\u` escape whose `\u` has been consumed.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&high) {
            if !self.data[self.pos..].starts_with(b"\\u") {
                return Err(self.error("lone surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.error("lone surrogate"));
            }
            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let span = self.pos;
            while !matches!(self.data.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.data[span..self.pos])
                    .map_err(|_| self.error("string is not UTF-8"))?,
            );
            match self.data.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let escape = self.data.get(self.pos + 1).copied();
                    self.pos += 2;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.error("bad escape")),
                    });
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// A number token: an integer unless it has a fraction or an exponent.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.data.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.data[start..self.pos])
            .expect("number tokens are ASCII by construction");
        let parsed = if float {
            text.parse().ok().map(Value::Float)
        } else {
            text.parse().ok().map(Value::Int)
        };
        parsed.ok_or_else(|| self.error("invalid number"))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.sequence(b'}', |p| {
                    let name = p.member()?;
                    fields.push((name, p.value(depth + 1)?));
                    Ok(())
                })?;
                if let [(name, Value::Int(days))] = fields.as_slice() {
                    if name == "$date" {
                        return Ok(Value::Date(*days));
                    }
                }
                Ok(Value::Record(Record::new(fields)))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::List(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// `"name":` of the next object member.
    fn member(&mut self) -> Result<String, String> {
        let name = self.string()?;
        self.expect(b':')?;
        Ok(name)
    }

    /// One row of a `rows` frame with a header: `[v, v, …]`, one value per
    /// header entry, built straight into the final record.
    fn positional_row(&mut self, names: &[String]) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut fields = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                self.expect(b',')?;
            }
            fields.push((name.clone(), self.value(2)?));
        }
        self.expect(b']')?;
        Ok(Value::Record(Record::new(fields)))
    }
}

/// Parses wire JSON back into a [`Value`], reversing the `$date`
/// convention.
pub fn value_from_json(bytes: &[u8]) -> Result<Value, String> {
    let mut parser = Parser::new(bytes);
    let value = parser.value(0)?;
    parser.end()?;
    Ok(value)
}

/// Decodes `frame` if it is a `rows` frame: appends its rows to `out` as
/// final values (records for a frame with a `fields` header) and returns
/// `true`. Any other frame is left to [`value_from_json`] (`false`, `out`
/// untouched). A `rows` frame that is truncated, out of member order or has
/// a row whose arity differs from its header is an error.
pub fn rows_from_frame(frame: &[u8], out: &mut Vec<Value>) -> Result<bool, String> {
    let mut parser = Parser::new(frame);
    parser.expect(b'{')?;
    if parser.member()? != "type" || parser.string()? != "rows" {
        return Ok(false);
    }
    parser.expect(b',')?;
    let mut member = parser.member()?;
    let mut fields = None;
    if member == "fields" {
        parser.expect(b'[')?;
        let mut names = Vec::new();
        parser.sequence(b']', |p| {
            names.push(p.string()?);
            Ok(())
        })?;
        fields = Some(names);
        parser.expect(b',')?;
        member = parser.member()?;
    }
    if member != "rows" {
        return Err(parser.error("expected the \"rows\" member"));
    }
    parser.expect(b'[')?;
    parser.sequence(b']', |p| {
        out.push(match &fields {
            Some(names) => p.positional_row(names)?,
            None => p.value(1)?,
        });
        Ok(())
    })?;
    parser.expect(b'}')?;
    parser.end()?;
    Ok(true)
}

// -- frame builders ----------------------------------------------------------

/// The client's query submission frame.
pub fn query_frame(sql: &str) -> String {
    format!("{{\"type\":\"query\",\"sql\":{}}}", quoted(sql))
}

/// The client's cancel frame (cancels the connection's in-flight query).
pub fn cancel_frame() -> String {
    "{\"type\":\"cancel\"}".to_string()
}

/// One result row as a header-less `rows` frame of its own. The server
/// batches through [`ReplyWriter`]; this helper serves tests and tools that
/// want a single row's frame.
pub fn row_frame(row: &Value) -> String {
    let mut out = b"{\"type\":\"rows\",\"rows\":[".to_vec();
    render_value(row, &mut out);
    out.extend_from_slice(b"]}");
    into_json(out)
}

/// The success trailer: every counter of [`ExecutionMetrics`] under its
/// field name, plus timings in microseconds.
pub fn metrics_frame(metrics: &ExecutionMetrics, rows: u64) -> String {
    use std::fmt::Write;
    let mut out = format!("{{\"type\": \"metrics\", \"rows\": {rows}");
    for (name, value) in metrics.counters() {
        let _ = write!(out, ", \"{name}\": {value}");
    }
    let _ = write!(
        out,
        ", \"compile_us\": {}, \"exec_us\": {}}}",
        metrics.compile_time.as_micros(),
        metrics.exec_time.as_micros()
    );
    out
}

/// Maps every [`EngineError`] variant onto a structured error frame: a
/// stable `kind` tag, the display message, and the variant's own fields.
pub fn error_frame(err: &EngineError) -> String {
    let (kind, extra) = match err {
        EngineError::Algebra(_) => ("algebra", String::new()),
        EngineError::Plugin(_) => ("plugin", String::new()),
        EngineError::Storage(_) => ("storage", String::new()),
        EngineError::UnknownDataset(_) => ("unknown_dataset", String::new()),
        EngineError::Unsupported(_) => ("unsupported", String::new()),
        EngineError::Cancelled => ("cancelled", String::new()),
        EngineError::DeadlineExceeded { timeout_ms, .. } => (
            "deadline_exceeded",
            format!(", \"timeout_ms\": {timeout_ms}"),
        ),
        EngineError::ResourceExhausted {
            site,
            used_bytes,
            budget_bytes,
        } => (
            "resource_exhausted",
            format!(
                ", \"site\": {}, \"used_bytes\": {used_bytes}, \"budget_bytes\": {budget_bytes}",
                quoted(site)
            ),
        ),
        EngineError::WorkerPanic { .. } => ("worker_panic", String::new()),
        EngineError::Overloaded {
            queued,
            capacity,
            retry_after_ms,
        } => (
            "overloaded",
            format!(
                ", \"queued\": {queued}, \"capacity\": {capacity}, \
                 \"retry_after_ms\": {retry_after_ms}"
            ),
        ),
        EngineError::Internal { site, .. } => ("internal", format!(", \"site\": {}", quoted(site))),
    };
    format!(
        "{{\"type\": \"error\", \"kind\": \"{kind}\", \"message\": {}{extra}}}",
        quoted(&err.to_string())
    )
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use super::*;

    /// Keeps what was written and counts the `write` calls it took.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Hands out at most `chunk` bytes per `read`, like a socket, and counts
    /// the calls.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Encodes one reply the way the connection worker does.
    fn encode_reply(rows: &[Value]) -> CountingWriter {
        let mut writer = ReplyWriter::new(CountingWriter::default());
        let trailer = metrics_frame(&ExecutionMetrics::new(), rows.len() as u64);
        writer.reply(rows, &trailer).unwrap();
        writer.out
    }

    /// Decodes one reply the way `Client::query` does: the rows and the
    /// trailer frame.
    fn decode_reply(input: &mut impl Read) -> Result<(Vec<Value>, Value), String> {
        let mut input = BufReader::new(input);
        let (mut frame, mut rows) = (Vec::new(), Vec::new());
        loop {
            if !read_frame_into(&mut input, &mut frame).map_err(|e| e.to_string())? {
                return Err("reply ended without a trailer".to_string());
            }
            if !rows_from_frame(&frame, &mut rows)? {
                return Ok((rows, value_from_json(&frame)?));
            }
        }
    }

    /// Round-trips `rows` through the batch path and checks them bit for
    /// bit (`Debug` tells `-0.0` from `0.0`, which `==` does not).
    fn assert_round_trip(rows: &[Value], expected: &[Value]) -> CountingWriter {
        let written = encode_reply(rows);
        let (back, trailer) = decode_reply(&mut written.bytes.as_slice()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{expected:?}"));
        let trailer = trailer.as_record().unwrap();
        assert_eq!(trailer.get("type"), Some(&Value::Str("metrics".into())));
        assert_eq!(trailer.get("rows"), Some(&Value::Int(rows.len() as i64)));
        written
    }

    #[test]
    fn metrics_trailer_is_pinned_byte_for_byte() {
        // Clients (`parse_metrics`, the end-to-end harness) read the
        // trailer by key; this is the exact string every release so far
        // has put on the wire for these values.
        let metrics = ExecutionMetrics {
            tuples_scanned: 1,
            tuples_output: 2,
            intermediate_tuples: 3,
            intermediate_bytes: 4,
            predicate_evals: 5,
            kernel_rows: 6,
            fallback_rows: 7,
            agg_kernel_rows: 8,
            agg_fallback_rows: 9,
            join_kernel_rows: 10,
            join_fallback_rows: 11,
            hash_probes: 13,
            cached_values: 14,
            morsels: 15,
            morsels_skipped: 16,
            morsels_short_circuited: 17,
            index_rows: 18,
            binding_allocs: 19,
            batch_grows: 20,
            bad_rows: 21,
            threads_used: 22,
            workers_touched: 23,
            queue_wait_us: 24,
            sched_steals: 25,
            compile_time: std::time::Duration::from_micros(26),
            exec_time: std::time::Duration::from_nanos(27_999),
        };
        assert_eq!(
            metrics_frame(&metrics, 28),
            "{\"type\": \"metrics\", \"rows\": 28, \"tuples_scanned\": 1, \
             \"tuples_output\": 2, \"intermediate_tuples\": 3, \"intermediate_bytes\": 4, \
             \"predicate_evals\": 5, \"kernel_rows\": 6, \"fallback_rows\": 7, \
             \"agg_kernel_rows\": 8, \"agg_fallback_rows\": 9, \"join_kernel_rows\": 10, \
             \"join_fallback_rows\": 11, \"hash_probes\": 13, \
             \"cached_values\": 14, \"morsels\": 15, \"morsels_skipped\": 16, \
             \"morsels_short_circuited\": 17, \"index_rows\": 18, \"binding_allocs\": 19, \
             \"batch_grows\": 20, \"bad_rows\": 21, \"threads_used\": 22, \
             \"workers_touched\": 23, \"queue_wait_us\": 24, \"sched_steals\": 25, \
             \"compile_us\": 26, \"exec_us\": 27}"
        );
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\": \"cancel\"}").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let frame = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(frame, b"{\"type\": \"cancel\"}");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut out = CountingWriter::default();
        write_frame(&mut out, &query_frame("SELECT 1")).unwrap();
        assert_eq!(out.writes, 1);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{}").unwrap();
        buf.truncate(5);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let bytes = u32::MAX.to_be_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn values_round_trip_including_dates_and_escapes() {
        let value = Value::record(vec![
            ("i", Value::Int(42)),
            ("f", Value::Float(2.5)),
            ("whole", Value::Float(3.0)),
            ("s", Value::Str("a \"b\"\n\\c".into())),
            ("d", Value::Date(19000)),
            ("n", Value::Null),
            (
                "l",
                Value::List(vec![Value::Bool(true), Value::Bool(false)]),
            ),
        ]);
        let json = value_to_json(&value);
        let back = value_from_json(json.as_bytes()).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn control_characters_and_utf8_round_trip() {
        let text: String = (0u8..0x20).map(char::from).collect::<String>() + "\u{7f} é ✓ 🦀 \"\\/";
        let value = Value::Str(text);
        let json = value_to_json(&value);
        assert!(
            json.is_ascii() || json.contains('é'),
            "UTF-8 is not escaped"
        );
        assert!(json.contains("\\u0001") && json.contains("\\u001f"));
        assert!(!json.bytes().any(|b| b < 0x20), "no raw control bytes");
        assert_eq!(value_from_json(json.as_bytes()).unwrap(), value);
        // Escapes another renderer may send: \b \f \/ and a surrogate pair.
        assert_eq!(
            value_from_json(r#""\b\f\/é\ud83e\udd80""#.as_bytes()).unwrap(),
            Value::Str("\u{8}\u{c}/é🦀".into())
        );
        for bad in [
            &br#""\ud83e""#[..],
            br#""\udd80""#,
            br#""\u12""#,
            br#""\x""#,
            b"\"\xff\"",
        ] {
            assert!(value_from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(value_to_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(value_to_json(&Value::Float(f64::INFINITY)), "null");
        assert_eq!(value_to_json(&Value::Float(f64::NEG_INFINITY)), "null");
    }

    /// A finite float comes back as the same float — never as an integer,
    /// never as a parse error — whatever its magnitude.
    #[test]
    fn floats_round_trip_as_floats_at_every_magnitude() {
        let floats = [
            1e15,
            -1e15,
            1e19,
            -1e19,
            999_999_999_999_999.0,
            1_000_000_000_000_000.5,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            -0.0,
            0.0,
            3.0,
            0.1,
            1e-7,
        ];
        for f in floats {
            let json = value_to_json(&Value::Float(f));
            match value_from_json(json.as_bytes()) {
                Ok(Value::Float(back)) => assert_eq!(back.to_bits(), f.to_bits(), "{json}"),
                other => panic!("{f:e} rendered as {json} came back as {other:?}"),
            }
        }
        // The same through the batch path, where a SUM travels positionally.
        let rows: Vec<Value> = floats
            .iter()
            .map(|f| Value::record(vec![("sum_0", Value::Float(*f))]))
            .collect();
        assert_round_trip(&rows, &rows);
    }

    #[test]
    fn error_frames_carry_variant_fields() {
        let frame = error_frame(&EngineError::Overloaded {
            queued: 3,
            capacity: 8,
            retry_after_ms: 25,
        });
        let value = value_from_json(frame.as_bytes()).unwrap();
        let rec = value.as_record().unwrap();
        assert_eq!(rec.get("kind"), Some(&Value::Str("overloaded".into())));
        assert_eq!(rec.get("retry_after_ms"), Some(&Value::Int(25)));
        assert_eq!(rec.get("queued"), Some(&Value::Int(3)));
        assert_eq!(rec.get("capacity"), Some(&Value::Int(8)));
    }

    // -- the batch path ------------------------------------------------------

    /// splitmix64: the tests' own seeded generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        const PIECES: [&str; 12] = [
            "a", "Zürich", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "日本", "🦀", " ", "/",
        ];
        (0..rng.below(6))
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        match rng.below(if depth < 3 { 10 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::Int(rng.next() as i64),
            3 => Value::Int(rng.below(2000) as i64 - 1000),
            4 => Value::Float(f64::from_bits(rng.next())),
            5 => Value::Float((rng.below(2000) as f64 - 1000.0) / 8.0),
            6 => Value::Date(rng.below(40_000) as i64 - 10_000),
            7 => Value::Str(random_string(rng)),
            8 => Value::List(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Record(Record::new(
                (0..rng.below(4))
                    .map(|i| (format!("n{i}"), random_value(rng, depth + 1)))
                    .collect(),
            )),
        }
    }

    /// A result row: mostly records drawn from a few field lists, in runs
    /// (so frames both fill up and change header), now and then a bare
    /// scalar or list.
    fn random_row(rng: &mut Rng, shape: u64) -> Value {
        const SHAPES: [&[&str]; 4] = [&["k", "v", "g"], &["k", "v"], &["v", "k", "g"], &[]];
        if shape == 4 {
            return random_value(rng, 1);
        }
        Value::Record(Record::new(
            SHAPES[shape as usize]
                .iter()
                .map(|name| (name.to_string(), random_value(rng, 1)))
                .collect(),
        ))
    }

    /// What a value looks like after the wire: non-finite floats are null.
    fn after_the_wire(value: &Value) -> Value {
        match value {
            Value::Float(f) if !f.is_finite() => Value::Null,
            Value::List(items) => Value::List(items.iter().map(after_the_wire).collect()),
            Value::Record(record) => Value::Record(Record::new(
                record
                    .iter()
                    .map(|(name, v)| (name.to_string(), after_the_wire(v)))
                    .collect(),
            )),
            other => other.clone(),
        }
    }

    #[test]
    fn mixed_rows_round_trip_through_batched_frames() {
        for (seed, len) in [(1, 0), (2, 1), (3, 7), (4, 300), (5, 5_000), (6, 20_000)] {
            let mut rng = Rng(seed);
            let mut shape = 0;
            let rows: Vec<Value> = (0..len)
                .map(|_| {
                    if rng.below(8) == 0 {
                        shape = rng.below(5);
                    }
                    random_row(&mut rng, shape)
                })
                .collect();
            let expected: Vec<Value> = rows.iter().map(after_the_wire).collect();
            assert_round_trip(&rows, &expected);
        }
    }

    /// Result sizes around the batch bound: the last row that still fits,
    /// the row that fills the buffer exactly, and one past it.
    #[test]
    fn replies_round_trip_on_either_side_of_the_batch_bound() {
        let rows = |n: usize| -> Vec<Value> {
            (0..n)
                .map(|i| Value::record(vec![("number", Value::Int(1_000_000 + i as i64))]))
                .collect()
        };
        // Prefix and header, then `[1000000]` per row and a comma between.
        let open = 4 + "{\"type\":\"rows\",\"fields\":[\"number\"],\"rows\":[".len();
        assert_eq!((BATCH_BYTES - open + 1) % 10, 0, "a row ends on the bound");
        let fills = (BATCH_BYTES - open + 1) / 10;
        for (n, writes) in [(fills - 1, 1), (fills, 2), (fills + 1, 2)] {
            let written = assert_round_trip(&rows(n), &rows(n));
            assert_eq!(written.writes, writes, "{n} rows");
        }
        // The empty reply and the one-row reply leave in one write.
        assert_eq!(assert_round_trip(&[], &[]).writes, 1);
        assert_eq!(assert_round_trip(&rows(1), &rows(1)).writes, 1);
    }

    #[test]
    fn five_thousand_rows_take_a_handful_of_writes_and_reads() {
        let rows: Vec<Value> = (0..5_000)
            .map(|i| {
                Value::record(vec![
                    ("k", Value::Int(700_000 + i)),
                    ("v", Value::Float(i as f64 * 0.37)),
                    ("g", Value::Int(i % 1000)),
                ])
            })
            .collect();
        let written = assert_round_trip(&rows, &rows);
        assert!(written.writes <= 8, "{} writes", written.writes);
        assert!(!String::from_utf8_lossy(&written.bytes).contains("\"row\""));

        // A socket hands over at most its buffer per read; 64 KiB here.
        let mut socket = CountingReader {
            bytes: &written.bytes,
            chunk: BATCH_BYTES,
            reads: 0,
        };
        let (back, _) = decode_reply(&mut socket).unwrap();
        assert_eq!(back.len(), rows.len());
        assert!(socket.reads <= 12, "{} reads", socket.reads);
    }

    #[test]
    fn heterogeneous_rows_open_a_frame_per_field_list() {
        let rows = vec![
            Value::record(vec![("a", Value::Int(1)), ("b", Value::Int(2))]),
            Value::record(vec![("a", Value::Int(3)), ("b", Value::Int(4))]),
            Value::record(vec![("b", Value::Int(5)), ("a", Value::Int(6))]),
            Value::Int(7),
            Value::List(vec![Value::Int(8)]),
            Value::record(vec![("a", Value::Int(9)), ("b", Value::Int(10))]),
        ];
        let written = assert_round_trip(&rows, &rows);
        let mut input = written.bytes.as_slice();
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut input).unwrap() {
            frames.push(String::from_utf8(frame).unwrap());
        }
        assert_eq!(
            frames[..4],
            [
                r#"{"type":"rows","fields":["a","b"],"rows":[[1,2],[3,4]]}"#,
                r#"{"type":"rows","fields":["b","a"],"rows":[[5,6]]}"#,
                r#"{"type":"rows","rows":[7,[8]]}"#,
                r#"{"type":"rows","fields":["a","b"],"rows":[[9,10]]}"#,
            ]
        );
        assert_eq!(frames.len(), 5, "four rows frames and the trailer");
    }

    #[test]
    fn row_frame_is_a_rows_frame_of_one() {
        let row = Value::record(vec![("k", Value::Int(1)), ("d", Value::Date(3))]);
        let mut rows = Vec::new();
        assert!(rows_from_frame(row_frame(&row).as_bytes(), &mut rows).unwrap());
        assert_eq!(rows, [row]);
        // Control frames are not for the rows decoder.
        assert!(!rows_from_frame(cancel_frame().as_bytes(), &mut rows).unwrap());
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn truncated_or_malformed_rows_frames_are_errors_not_panics() {
        let frame =
            r#"{"type":"rows","fields":["k","s"],"rows":[[1,"aé"],[2.5,{"$date":3}]]}"#.as_bytes();
        let mut rows = Vec::new();
        assert!(rows_from_frame(frame, &mut rows).unwrap());
        assert_eq!(rows.len(), 2);
        for cut in 0..frame.len() {
            assert!(
                rows_from_frame(&frame[..cut], &mut rows).is_err(),
                "cut at {cut}"
            );
        }
        let deep = format!("{{\"type\":\"rows\",\"rows\":[{}]}}", "[".repeat(100_000));
        for bad in [
            &br#"{"type":"rows","fields":["k","s"],"rows":[[1]]}"#[..],
            br#"{"type":"rows","fields":["k"],"rows":[[1,2]]}"#,
            br#"{"type":"rows","fields":["k"],"rows":[1]}"#,
            br#"{"type":"rows","fields":[1],"rows":[]}"#,
            br#"{"type":"rows","fields":"k","rows":[]}"#,
            br#"{"type":"rows","rows":[[1]],"fields":["k"]}"#,
            br#"{"type":"rows","rows":{}}"#,
            br#"{"type":"rows"}"#,
            br#"{"type":"rows","rows":[1,]}"#,
            br#"{"type":"rows","rows":[01x]}"#,
            br#"{"type":"rows","rows":[99999999999999999999]}"#,
            br#"{"type":"rows","rows":[tru]}"#,
            br#"{"type":"rows","rows":[]} x"#,
            br#"{"type":rows}"#,
            b"[]",
            deep.as_bytes(),
        ] {
            assert!(
                rows_from_frame(bad, &mut rows).is_err(),
                "{}",
                String::from_utf8_lossy(&bad[..bad.len().min(80)])
            );
        }
        assert!(value_from_json(b"{\"a\": 1} x").is_err(), "trailing bytes");
    }

    #[test]
    fn an_outsized_row_does_not_stay_allocated() {
        let mut writer = ReplyWriter::new(CountingWriter::default());
        let big = Value::record(vec![("s", Value::Str("x".repeat(1 << 20)))]);
        writer.reply(&[big], &cancel_frame()).unwrap();
        assert!(writer.buf.capacity() <= 2 * BATCH_BYTES);
    }
}
