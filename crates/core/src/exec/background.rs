//! Background cache builds.
//!
//! With `EngineConfig::background_cache_builds` on, a scan that would
//! populate a cache no longer does so inline: the foreground query runs the
//! uncached plan immediately (fully parallel — the serial pinning that
//! in-order cache OIDs force no longer applies to it), and the build is
//! submitted to the scheduler as its own admitted task:
//!
//! * **Admission.** The build takes a normal concurrency slot via
//!   [`Scheduler::try_admit`] — never queueing, never displacing foreground
//!   work. If no slot is free the build is simply skipped; the next query
//!   over the dataset offers it again.
//! * **Lifecycle.** The build runs under its own [`QueryContext`] with the
//!   engine's timeout/memory budget, so a runaway build cancels or trips
//!   `ResourceExhausted` exactly like a query, and a scheduler drain
//!   cancels it with the foreground stragglers.
//! * **No half-built caches.** The builder only registers on a fully
//!   successful scan, and only if the dataset's revision still matches the
//!   one captured at spawn ([`CacheStore::insert_if_current`]) — an
//!   invalidation racing the build wins unconditionally.
//! * **Containment.** The chunk loop runs under `catch_unwind`; an injected
//!   `cache.build` panic (or any escape) abandons the build, signals
//!   completion and releases the slot — it can never wedge a pool worker or
//!   leak admission slots.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use proteus_algebra::{DataType, Value};
use proteus_plugins::{BatchFill, PluginRegistry};
use proteus_storage::{CacheStore, SourceFormat};

use crate::cache_builder::CacheBuilder;
use crate::exec::context::QueryContext;
use crate::exec::scheduler::{AdmissionPermit, PoolTask, Scheduler, TaskHandle};

/// Rows scanned per steal: large enough to amortize the state lock, small
/// enough that cancellation/deadline checks stay responsive.
const BUILD_CHUNK_ROWS: u64 = 4096;

/// A cache build the compiler deferred: which dataset to rescan and which
/// numeric fields to collect (already filtered by the caching policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheBuildSpec {
    /// Source dataset to scan.
    pub dataset: String,
    /// Its format (stamped on the entry; drives the eviction bias).
    pub format: SourceFormat,
    /// `(field, type)` pairs to cache, in column order.
    pub fields: Vec<(String, DataType)>,
}

impl CacheBuildSpec {
    /// The name the finished cache will register under — also the dedupe
    /// key for in-flight builds.
    pub fn cache_name(&self) -> String {
        format!(
            "{}::{}",
            self.dataset,
            self.fields
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join("+")
        )
    }
}

/// Completion latch: flipped exactly once when the build finishes (with any
/// outcome), waited on by [`BackgroundBuilds::wait_all`].
struct DoneSignal {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl DoneSignal {
    fn new() -> DoneSignal {
        DoneSignal {
            flag: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn signal(&self) {
        *self.flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }

    fn is_set(&self) -> bool {
        *self.flag.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until signalled or `deadline`; returns whether it was set.
    fn wait_until(&self, deadline: Instant) -> bool {
        let mut flag = self.flag.lock().unwrap_or_else(PoisonError::into_inner);
        while !*flag {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _timeout) = self
                .cv
                .wait_timeout(flag, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            flag = next;
        }
        true
    }
}

/// Mutable scan state of one build. Exactly one worker advances it at a
/// time (the state mutex), which is what keeps OIDs in order — the cache
/// contract — while still letting *different* builds run on different
/// workers.
struct BuildState {
    builder: CacheBuilder,
    fills: Vec<BatchFill>,
    nfields: usize,
    row_count: u64,
    next_row: u64,
    scratch: Vec<Value>,
}

enum Step {
    More,
    Done,
    Abort,
}

impl BuildState {
    fn advance(&mut self, ctx: &QueryContext) -> Step {
        // Chaos site shared with the foreground build path: an injected
        // error abandons the build cleanly.
        if proteus_plugins::fault::check("cache.build").is_err() {
            return Step::Abort;
        }
        if !ctx.checkpoint(0) {
            return Step::Abort;
        }
        let start = self.next_row;
        let count = BUILD_CHUNK_ROWS.min(self.row_count - start);
        if count == 0 {
            return Step::Done;
        }
        // Same accounting heuristic as the foreground cache-build debit.
        if !ctx.debit("cache build", count * self.nfields as u64 * 24) {
            return Step::Abort;
        }
        let needed = count as usize * self.nfields;
        if self.scratch.len() < needed {
            self.scratch.resize(needed, Value::Null);
        }
        for (base, fill) in self.fills.iter().enumerate() {
            fill(
                start,
                count as usize,
                &mut self.scratch[..needed],
                base,
                self.nfields,
            );
        }
        for row in 0..count as usize {
            let values = &self.scratch[row * self.nfields..(row + 1) * self.nfields];
            self.builder.observe(start + row as u64, values);
        }
        self.next_row = start + count;
        if self.next_row == self.row_count {
            Step::Done
        } else {
            Step::More
        }
    }
}

/// The pool task: scans the dataset chunk by chunk, then registers the
/// entry (revision-guarded). Holds its admission permit until completion.
struct BuildTask {
    store: CacheStore,
    ctx: Arc<QueryContext>,
    state: Mutex<Option<BuildState>>,
    done: Arc<DoneSignal>,
    permit: Mutex<Option<AdmissionPermit>>,
}

impl BuildTask {
    /// Ends the build with any outcome: clears state, releases the
    /// admission slot, flips the latch.
    fn complete(&self) {
        drop(
            self.permit
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        self.done.signal();
    }
}

impl PoolTask for BuildTask {
    fn steal_slice(&self, _worker_id: usize) -> bool {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(state) = guard.as_mut() else {
            return false;
        };
        // Panics (the `cache.build` panic action, or any bug in a plug-in
        // filler) abandon the build: without this, the pool worker would
        // re-steal a task that can never set `exhausted`.
        let outcome = catch_unwind(AssertUnwindSafe(|| state.advance(&self.ctx)));
        match outcome {
            Ok(Step::More) => true,
            Ok(Step::Done) => {
                if let Some(state) = guard.take() {
                    if state.builder.finish_if_current(&self.store).is_some() {
                        self.store.note_background_build();
                    }
                }
                drop(guard);
                self.complete();
                false
            }
            Ok(Step::Abort) | Err(_) => {
                guard.take();
                drop(guard);
                self.complete();
                false
            }
        }
    }
}

struct InFlight {
    key: String,
    dataset: String,
    ctx: Arc<QueryContext>,
    done: Arc<DoneSignal>,
    /// Keeps the task visible to pool workers; dropped when reaped.
    handle: Option<TaskHandle>,
}

/// Registry of in-flight background builds (one per engine).
#[derive(Default)]
pub(crate) struct BackgroundBuilds {
    inflight: Mutex<Vec<InFlight>>,
}

impl BackgroundBuilds {
    /// Drops finished builds (retiring their task handles).
    fn reap(&self) {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        inflight.retain(|entry| !entry.done.is_set());
    }

    /// Offers one deferred build to the scheduler. Best-effort on every
    /// axis: an already-running or already-registered build, a full
    /// scheduler, or a failed fill generation all just skip (returning
    /// `false`) — the next query over the dataset re-offers it.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        &self,
        scheduler: &Arc<Scheduler>,
        registry: &PluginRegistry,
        store: &CacheStore,
        spec: CacheBuildSpec,
        timeout: Option<Duration>,
        memory_budget: Option<u64>,
        lifecycle: bool,
    ) -> bool {
        self.reap();
        let key = spec.cache_name();
        // A completed build (this engine's or a warm restart's) makes the
        // rescan pointless; an in-flight one must not run twice.
        if store.get(&key).is_some() {
            return false;
        }
        {
            let inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            if inflight.iter().any(|e| e.key == key) {
                return false;
            }
        }
        // Revision fence: captured before the plug-in is resolved, checked
        // again under the store lock at registration.
        let revision = store.dataset_revision(&spec.dataset);
        let Some(plugin) = registry.get(&spec.dataset) else {
            return false;
        };
        let ctx = Arc::new(QueryContext::new(None, timeout, memory_budget, lifecycle));
        let Ok(permit) = scheduler.try_admit(&ctx) else {
            return false;
        };
        let field_names: Vec<String> = spec.fields.iter().map(|(n, _)| n.clone()).collect();
        let Ok(scan) = plugin.generate(&field_names) else {
            return false; // permit drops here, releasing the slot
        };
        let mut fills = Vec::with_capacity(field_names.len());
        for name in &field_names {
            match scan.fill(name) {
                Some(fill) => fills.push(fill.values()),
                None => return false,
            }
        }
        let state = BuildState {
            builder: CacheBuilder::new(
                spec.dataset.clone(),
                spec.format,
                spec.fields.clone(),
                revision,
            ),
            nfields: fills.len(),
            fills,
            row_count: scan.row_count,
            next_row: 0,
            scratch: Vec::new(),
        };
        let done = Arc::new(DoneSignal::new());
        let task = Arc::new(BuildTask {
            store: store.clone(),
            ctx: ctx.clone(),
            state: Mutex::new(Some(state)),
            done: done.clone(),
            permit: Mutex::new(Some(permit)),
        });
        let handle = scheduler.offer(task, 1);
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(InFlight {
                key,
                dataset: spec.dataset,
                ctx,
                done,
                handle: Some(handle),
            });
        true
    }

    /// Cancels every in-flight build over `dataset` (data changed: their
    /// results are stale and the revision fence would reject them anyway —
    /// this just stops them from scanning on).
    pub fn cancel_dataset(&self, dataset: &str) {
        let inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        for entry in inflight.iter() {
            if entry.dataset == dataset {
                entry.ctx.fail(crate::error::EngineError::Cancelled);
            }
        }
    }

    /// Waits up to `timeout` for every in-flight build to finish (with any
    /// outcome). Returns the number still pending at the deadline.
    pub fn wait_all(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut pending = 0;
        let mut finished: Vec<Arc<DoneSignal>> = Vec::new();
        {
            let inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            for entry in inflight.iter() {
                finished.push(entry.done.clone());
            }
        }
        for done in finished {
            if !done.wait_until(deadline) {
                pending += 1;
            }
        }
        self.reap();
        pending
    }

    /// In-flight (not yet reaped) builds — diagnostics/tests.
    pub fn len(&self) -> usize {
        self.reap();
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // Retire the task before the registry forgets it: if the build is
        // still running (engine drop with builds in flight), cancel it so
        // the handle's helpers-quiescent wait is short.
        if !self.done.is_set() {
            self.ctx.fail(crate::error::EngineError::Cancelled);
        }
        self.handle.take();
    }
}
