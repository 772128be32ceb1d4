//! # proteus-service
//!
//! The network front door of the engine: a **std-only** TCP query service
//! plus a matching client (no external dependencies — the build environment
//! is offline, so the whole stack is `std::net` + the crate's own JSON
//! renderer and parser in [`wire`]).
//!
//! The service exists for the concurrency layer underneath it: every
//! connection's queries run on the engine's shared worker-pool scheduler
//! (`proteus_core::exec::scheduler`), so N clients share one pool with
//! admission control, overload shedding and per-query fault isolation —
//! a panicking, cancelled, budget-tripped or timed-out query on one
//! connection never perturbs another connection's results.
//!
//! ## Wire protocol
//!
//! Length-prefixed JSON frames, both directions: a 4-byte big-endian byte
//! length followed by exactly that many bytes of UTF-8 JSON (one object per
//! frame, 64 MiB cap). See [`wire`] for the frame grammar:
//!
//! * client → server: `{"type":"query","sql":…}` and `{"type":"cancel"}`
//! * server → client: result rows in batched `{"type":"rows",…}` frames —
//!   field names once per frame, values positional; up to 64 KiB of frames
//!   per socket write — then one `{"type":"metrics",…}` on success or one
//!   `{"type":"error","kind":…}` mapping every
//!   [`proteus_core::EngineError`] variant — `overloaded` carries
//!   `retry_after_ms`, which [`Client::query_with_backoff`] honors.
//!
//! Closing the client connection mid-query **cancels the query**: the
//! server's per-connection reader observes EOF and fires the in-flight
//! query's cancellation token, so an abandoned query stops at its next
//! morsel checkpoint instead of running to completion for nobody.
//!
//! [`Server::shutdown`] is the graceful drain: stop accepting, drain the
//! engine's scheduler (in-flight queries finish or are cancelled within a
//! grace period), and join every connection thread — responses already in
//! flight are written in full before their connections close. The
//! process-wide scheduler is reopened afterwards; a dedicated one stays
//! closed.
//!
//! The chaos harness reaches this tier through the `service.read` and
//! `service.write` fault sites (same `PROTEUS_FAULTS` syntax as the engine
//! sites).

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, QueryReply, WireError, WireMetrics};
pub use server::Server;
