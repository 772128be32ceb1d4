//! The TCP query service.
//!
//! Connection model: **two threads per connection**.
//!
//! * The *reader* blocks on the socket. A `query` frame is forwarded to the
//!   worker; a `cancel` frame (or EOF / a read error — i.e. the client went
//!   away) fires the in-flight query's cancellation token, so an abandoned
//!   query stops at its next morsel checkpoint.
//! * The *worker* executes queries one at a time on the shared engine
//!   (scheduler admission included) and writes every response through its
//!   [`wire::ReplyWriter`]: the borrowed result rows as batched `rows`
//!   frames, then one `metrics` or `error` trailer — one socket write per
//!   64 KiB batch, the last one carrying the trailer. Because the worker
//!   owns the write half exclusively, response frames never interleave.
//!
//! [`Server::shutdown`] drains gracefully: stop accepting, drain the
//! engine's scheduler (in-flight queries finish or are cancelled within the
//! grace period and their — possibly `cancelled` — responses are written in
//! full), join the workers, then close the sockets and join the readers. An
//! engine on the process-wide scheduler gets its admission reopened at the
//! end, so the drain does not outlive the server.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use proteus_algebra::Value;
use proteus_core::exec::{DrainReport, Scheduler};
use proteus_core::{CancellationToken, QueryEngine};

use crate::wire;

/// A client→server frame, decoded by the reader thread.
enum ConnEvent {
    Query(String),
    /// The peer disconnected (EOF or read error): stop the worker after the
    /// in-flight query (whose token the reader already fired) unwinds.
    Closed,
}

struct ConnShared {
    /// The in-flight query's cancellation token, when one is running.
    cancel: Mutex<Option<CancellationToken>>,
}

impl ConnShared {
    fn fire_cancel(&self) {
        if let Some(token) = self
            .cancel
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            token.cancel();
        }
    }
}

fn reader_main(stream: TcpStream, shared: Arc<ConnShared>, events: Sender<ConnEvent>) {
    let mut input = BufReader::new(stream);
    let mut frame = Vec::new();
    // The loop exits on clean EOF, a read error (client went away), or a
    // protocol violation (unparseable frame / unknown type).
    while let Ok(true) = wire::read_frame_into(&mut input, &mut frame) {
        let Ok(Value::Record(members)) = wire::value_from_json(&frame) else {
            break;
        };
        let (mut kind, mut sql) = (None, None);
        for member in members.into_fields() {
            match member {
                (name, Value::Str(text)) if name == "type" => kind = Some(text),
                (name, Value::Str(text)) if name == "sql" => sql = Some(text),
                _ => {}
            }
        }
        match kind.as_deref() {
            Some("query") => {
                if events
                    .send(ConnEvent::Query(sql.unwrap_or_default()))
                    .is_err()
                {
                    break;
                }
            }
            Some("cancel") => shared.fire_cancel(),
            _ => break,
        }
    }
    shared.fire_cancel();
    let _ = events.send(ConnEvent::Closed);
}

fn worker_main(
    stream: TcpStream,
    shared: Arc<ConnShared>,
    events: Receiver<ConnEvent>,
    engine: Arc<QueryEngine>,
    stop: Arc<AtomicBool>,
) {
    let mut out = wire::ReplyWriter::new(stream);
    loop {
        // Poll the stop flag between queries so shutdown can join workers
        // without racing their in-progress writes.
        let event = match events.recv_timeout(Duration::from_millis(50)) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let sql = match event {
            ConnEvent::Query(sql) => sql,
            ConnEvent::Closed => break,
        };
        let token = CancellationToken::new();
        *shared.cancel.lock().unwrap_or_else(PoisonError::into_inner) = Some(token.clone());
        let result = engine.sql_with_cancellation(&sql, Some(token));
        *shared.cancel.lock().unwrap_or_else(PoisonError::into_inner) = None;
        let write = match result {
            Ok(result) => {
                let rows = result.flattened_rows();
                let trailer = wire::metrics_frame(&result.metrics, rows.len() as u64);
                out.reply(rows, &trailer)
            }
            Err(err) => out.reply(&[], &wire::error_frame(&err)),
        };
        if write.is_err() {
            // The socket is gone (or an injected `service.write` fault
            // fired): nothing more can reach this client.
            break;
        }
    }
    let stream = out.get_mut();
    let _ = stream.flush();
    // Close the socket for real so a client blocked on a reply sees EOF
    // instead of hanging — the write half dying mid-reply must surface.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

struct Connection {
    stream: TcpStream,
    reader: JoinHandle<()>,
    worker: JoinHandle<()>,
}

struct ServerShared {
    engine: Arc<QueryEngine>,
    stop: Arc<AtomicBool>,
    conns: Mutex<Vec<Connection>>,
}

/// The TCP front door: accepts connections and runs their queries on a
/// shared [`QueryEngine`] (one engine, one scheduler, many clients).
pub struct Server {
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections.
    pub fn start(engine: Arc<QueryEngine>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Nonblocking accept + stop-flag polling: std has no way to unblock
        // a blocking accept, and the 5 ms poll only runs while idle.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            engine,
            stop: Arc::new(AtomicBool::new(false)),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("proteus-accept".to_string())
            .spawn(move || accept_main(listener, accept_shared))?;
        Ok(Server {
            shared,
            accept: Some(accept),
            local_addr,
        })
    }

    /// The bound address (for clients, when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, drain the engine's scheduler
    /// (in-flight queries finish or are cancelled within `grace` and their
    /// responses are written in full), then close every connection.
    ///
    /// An engine with its own scheduler stays closed for good. An engine on
    /// [`Scheduler::global`] shares it with every other default-config
    /// engine of the process, so its admission is reopened once this
    /// server's connections are gone (while the drain runs, those engines
    /// are shed like this one).
    pub fn shutdown(mut self, grace: Duration) -> DrainReport {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let report = self.shared.engine.drain(grace);
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        // Join workers FIRST: each finishes writing its in-flight response
        // (the drain already failed or completed the query behind it), so
        // no response is cut off by the socket close below.
        for conn in &conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Read);
        }
        for conn in conns {
            let _ = conn.worker.join();
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            let _ = conn.reader.join();
        }
        let scheduler = self.shared.engine.scheduler();
        if Arc::ptr_eq(scheduler, &Scheduler::global()) {
            scheduler.resume();
        }
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort stop when the caller skipped `shutdown`.
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_main(listener: TcpListener, shared: Arc<ServerShared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if let Err(_e) = spawn_connection(stream, &shared) {
                    // Thread spawn failure: drop the connection; the client
                    // sees a close and may retry.
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_connection(stream: TcpStream, shared: &Arc<ServerShared>) -> std::io::Result<()> {
    let conn_shared = Arc::new(ConnShared {
        cancel: Mutex::new(None),
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let read_stream = stream.try_clone()?;
    let write_stream = stream.try_clone()?;
    let reader_shared = conn_shared.clone();
    let reader = std::thread::Builder::new()
        .name("proteus-conn-read".to_string())
        .spawn(move || reader_main(read_stream, reader_shared, tx))?;
    let engine = shared.engine.clone();
    let stop = shared.stop.clone();
    let worker = std::thread::Builder::new()
        .name("proteus-conn-work".to_string())
        .spawn(move || worker_main(write_stream, conn_shared, rx, engine, stop))?;
    shared
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Connection {
            stream,
            reader,
            worker,
        });
    Ok(())
}
