//! The matching std-only client.
//!
//! One [`Client`] is one TCP connection with one query in flight at a time:
//! [`Client::query`] writes a query frame and reads batched `rows` frames —
//! through a `BufReader`, each decoded in one pass straight into its final
//! records ([`wire::rows_from_frame`]) — until the `metrics` (success) or
//! `error` trailer. [`Client::query_with_backoff`] layers the shedding
//! contract on top — an `overloaded` error carries `retry_after_ms`, and the
//! client sleeps exactly that long before each retry.
//!
//! [`Client::cancel_handle`] clones the socket so another thread can send a
//! `cancel` frame while the main thread is blocked reading rows; the server
//! then fails the in-flight query with `kind == "cancelled"`. Dropping the
//! client (closing the socket) mid-query has the same effect server-side.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use proteus_algebra::Value;

use crate::wire;

/// A structured error frame from the server: the stable `kind` tag plus the
/// variant-specific fields (`None` when the variant doesn't carry them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine tag: `algebra`, `plugin`, `storage`, `unknown_dataset`,
    /// `unsupported`, `cancelled`, `deadline_exceeded`, `resource_exhausted`,
    /// `worker_panic`, `overloaded`, or `internal`.
    pub kind: String,
    /// The engine's display message.
    pub message: String,
    /// Shedding hint (`kind == "overloaded"` only).
    pub retry_after_ms: Option<u64>,
    /// Queue depth observed at shedding time (`overloaded` only).
    pub queued: Option<u64>,
    /// Admission queue capacity (`overloaded` only).
    pub capacity: Option<u64>,
    /// The deadline that fired (`deadline_exceeded` only).
    pub timeout_ms: Option<u64>,
    /// The debit site that tripped (`resource_exhausted` / `internal`).
    pub site: Option<String>,
    /// Bytes in use when the budget tripped (`resource_exhausted` only).
    pub used_bytes: Option<u64>,
    /// The budget that tripped (`resource_exhausted` only).
    pub budget_bytes: Option<u64>,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket itself failed (connect, read, or write).
    Io(std::io::Error),
    /// The server sent something outside the frame grammar.
    Protocol(String),
    /// The server executed the request and reported an engine error.
    Engine(Box<WireError>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Engine(e) => write!(f, "engine error ({}): {}", e.kind, e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// The subset of [`proteus_core::ExecutionMetrics`] the metrics trailer
/// carries, parsed back into numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Result rows streamed before this trailer.
    pub rows: u64,
    /// Base-data tuples scanned.
    pub tuples_scanned: u64,
    /// Morsels dispatched.
    pub morsels: u64,
    /// Worker-count cap the query ran under.
    pub threads_used: u64,
    /// Distinct scheduler workers that actually touched the query.
    pub workers_touched: u64,
    /// Microseconds spent queued in admission before execution.
    pub queue_wait_us: u64,
    /// Work-stealing slices pool workers contributed.
    pub sched_steals: u64,
    /// Compile time in microseconds.
    pub compile_us: u64,
    /// Execution time in microseconds.
    pub exec_us: u64,
}

/// A successful query: the streamed rows plus the metrics trailer.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Result rows, in arrival order.
    pub rows: Vec<Value>,
    /// The server's metrics trailer.
    pub metrics: WireMetrics,
}

/// Sends `cancel` frames for a [`Client`] from another thread.
pub struct CancelHandle {
    stream: TcpStream,
}

impl CancelHandle {
    /// Asks the server to cancel the connection's in-flight query. The
    /// blocked [`Client::query`] call then returns `kind == "cancelled"`.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        wire::write_frame(&mut self.stream, &wire::cancel_frame())?;
        Ok(())
    }
}

/// One connection to a [`crate::Server`].
pub struct Client {
    /// Reads go through the buffer; writes go to the socket inside it.
    stream: BufReader<TcpStream>,
    /// The frame being decoded, reused from one frame to the next.
    frame: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: BufReader::new(stream),
            frame: Vec::new(),
        })
    }

    /// A second handle on the same socket for out-of-band cancels. Safe to
    /// use while `query` is blocked: the handle only *writes* (the reader
    /// thread server-side picks the frame up) and the client thread only
    /// *reads*, so the two never interleave on the same direction.
    pub fn cancel_handle(&self) -> Result<CancelHandle, ClientError> {
        Ok(CancelHandle {
            stream: self.stream.get_ref().try_clone()?,
        })
    }

    /// Runs one query and collects the full reply.
    pub fn query(&mut self, sql: &str) -> Result<QueryReply, ClientError> {
        wire::write_frame(self.stream.get_mut(), &wire::query_frame(sql))?;
        let mut rows = Vec::new();
        loop {
            if !wire::read_frame_into(&mut self.stream, &mut self.frame)? {
                return Err(ClientError::Protocol(
                    "server closed the connection mid-reply".to_string(),
                ));
            }
            if wire::rows_from_frame(&self.frame, &mut rows).map_err(ClientError::Protocol)? {
                continue;
            }
            let frame = wire::value_from_json(&self.frame).map_err(ClientError::Protocol)?;
            let record = frame
                .as_record()
                .map_err(|e| ClientError::Protocol(e.to_string()))?;
            match record.get("type").and_then(|v| v.as_str().ok()) {
                Some("metrics") => {
                    return Ok(QueryReply {
                        rows,
                        metrics: parse_metrics(record),
                    })
                }
                Some("error") => return Err(ClientError::Engine(Box::new(parse_error(record)))),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame type {other:?}"
                    )))
                }
            }
        }
    }

    /// Runs one query, honoring the server's shedding contract: on an
    /// `overloaded` error, sleeps the server-provided `retry_after_ms` and
    /// retries, up to `max_retries` times. Every other outcome is returned
    /// as-is.
    pub fn query_with_backoff(
        &mut self,
        sql: &str,
        max_retries: u32,
    ) -> Result<QueryReply, ClientError> {
        let mut attempt = 0;
        loop {
            match self.query(sql) {
                Err(ClientError::Engine(err)) if err.kind == "overloaded" => {
                    if attempt >= max_retries {
                        return Err(ClientError::Engine(err));
                    }
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(err.retry_after_ms.unwrap_or(50)));
                }
                other => return other,
            }
        }
    }
}

fn field_u64(record: &proteus_algebra::Record, name: &str) -> u64 {
    match record.get(name) {
        Some(Value::Int(i)) => u64::try_from(*i).unwrap_or(0),
        _ => 0,
    }
}

fn parse_metrics(record: &proteus_algebra::Record) -> WireMetrics {
    WireMetrics {
        rows: field_u64(record, "rows"),
        tuples_scanned: field_u64(record, "tuples_scanned"),
        morsels: field_u64(record, "morsels"),
        threads_used: field_u64(record, "threads_used"),
        workers_touched: field_u64(record, "workers_touched"),
        queue_wait_us: field_u64(record, "queue_wait_us"),
        sched_steals: field_u64(record, "sched_steals"),
        compile_us: field_u64(record, "compile_us"),
        exec_us: field_u64(record, "exec_us"),
    }
}

fn parse_error(record: &proteus_algebra::Record) -> WireError {
    let opt_u64 = |name: &str| match record.get(name) {
        Some(Value::Int(i)) => u64::try_from(*i).ok(),
        _ => None,
    };
    WireError {
        kind: record
            .get("kind")
            .and_then(|v| v.as_str().ok())
            .unwrap_or("unknown")
            .to_string(),
        message: record
            .get("message")
            .and_then(|v| v.as_str().ok())
            .unwrap_or_default()
            .to_string(),
        retry_after_ms: opt_u64("retry_after_ms"),
        queued: opt_u64("queued"),
        capacity: opt_u64("capacity"),
        timeout_ms: opt_u64("timeout_ms"),
        site: record
            .get("site")
            .and_then(|v| v.as_str().ok())
            .map(str::to_string),
        used_bytes: opt_u64("used_bytes"),
        budget_bytes: opt_u64("budget_bytes"),
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    /// A `rows` frame the decoder cannot finish — cut short, wrong arity,
    /// not JSON — fails the query with a protocol error.
    #[test]
    fn a_truncated_or_malformed_rows_frame_is_a_protocol_error() {
        for body in [
            r#"{"type":"rows","fields":["k","v"],"rows":[[1,2.5],[2,"#,
            r#"{"type":"rows","fields":["k"],"rows":[[1,2]]}"#,
            r#"{"type":"rows","rows":[nope]}"#,
            r#"{"type":"rows","rows":[1]}{"type":"metrics"}"#,
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                wire::read_frame(&mut stream).unwrap().unwrap();
                wire::write_frame(&mut stream, body).unwrap();
            });
            let mut client = Client::connect(addr).unwrap();
            match client.query("SELECT k FROM t") {
                Err(ClientError::Protocol(_)) => {}
                other => panic!("{body}: expected a protocol error, got {other:?}"),
            }
            server.join().unwrap();
        }
    }
}
