//! # proteus-storage
//!
//! The storage substrate of the Proteus reproduction:
//!
//! * [`memory`] — the Memory Manager of §4: input files are mapped into
//!   memory and treated as memory-resident; cache structures are pinned in a
//!   budgeted arena.
//! * [`column`](mod@column) — typed in-memory column vectors plus the on-disk binary
//!   column format ("Proteus operates over binary column files similar to the
//!   ones of MonetDB", §7.1).
//! * [`row`] — the on-disk binary row format (row-oriented relational binary
//!   data, one of the plug-in formats of §5.2).
//! * [`cache`] — the adaptive cache store of §6 grown into a production
//!   subsystem: scanned fields cached as binary columns, looked up per
//!   (dataset, field), budgeted with cost/benefit eviction, spilled to disk
//!   when hot and reloaded on the next lookup, and handed out as `Arc`
//!   handles so readers survive rebuilds.
//! * [`persist`] — checksummed, versioned on-disk cache frames backing
//!   spill and warm-restart snapshots.

pub mod cache;
pub mod column;
pub mod error;
pub mod memory;
pub mod persist;
pub mod row;

pub use cache::{CacheEntry, CacheSidecar, CacheStats, CacheStore, SourceFormat};
pub use column::{ColumnData, ColumnTable};
pub use error::{Result, StorageError};
pub use memory::MemoryManager;
pub use persist::WarmReport;
pub use row::{RowTable, RowTableReader};
