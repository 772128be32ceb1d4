//! # proteus-plugins
//!
//! The custom data access layer of the Proteus reproduction (§5.2).
//!
//! Every supported data format is wrapped by an *input plug-in* that exposes
//! the uniform API of Table 2 (`generate`, `readValue`, `readPath`,
//! `unnestInit`/`unnestHasNext`/`unnestGetNext` as one generated, typed
//! expander, `hashValue`, `flushValue`)
//! and, crucially, *specializes* its access primitives per query and per
//! dataset instance:
//!
//! * [`csv`] — CSV files with a structural index storing the byte positions
//!   of every Nth field of each row, plus a fixed-width fast path when all
//!   rows have the same layout.
//! * [`json`] — JSON files with the two-level structural index of Figure 4
//!   (Level 1: token positions, Level 0: field-name → position map) and the
//!   deterministic variant for machine-generated data with stable field
//!   order.
//! * [`binary`] — relational binary data, both column-oriented
//!   ([`binary::ColumnPlugin`]) and row-oriented ([`binary::RowPlugin`]).
//! * [`cache`] — the zone maps of a cache entry (§6), derived once and kept
//!   inside the entry.
//! * [`api`] — the plug-in trait plus the one fill per field plug-ins hand
//!   to the generated query pipelines.
//! * [`stats`] — per-dataset statistics and the per-plug-in cost profiles the
//!   optimizer consumes.
//! * [`zonemap`] — per-morsel min/max/null zone maps: the statistics the
//!   engine consults to skip or short-circuit whole morsels before any lanes
//!   render.
//! * [`registry`] — maps dataset names to plug-ins and auto-detects formats.
//! * [`fault`] — the failpoint-style fault-injection harness the chaos
//!   tests use to fire every failure path deterministically.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod binary;
pub mod cache;
pub mod csv;
pub mod error;
pub mod fault;
pub mod json;
pub mod registry;
pub mod stats;
pub mod zonemap;

pub use api::{
    BadRowPolicy, BatchFill, ExpandAccessors, ExpandOutput, FieldFill, InputPlugin, Oid,
    ScanAccessors, TypedColumn, TypedExpand, TypedFill, TypedKind,
};
pub use error::{PluginError, Result};
pub use registry::PluginRegistry;
pub use stats::{ColumnStats, CostProfile, DatasetStats};
pub use zonemap::{ZoneEntry, ZoneMap, ZONE_ROWS};
