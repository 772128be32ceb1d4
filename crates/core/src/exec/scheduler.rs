//! The shared worker-pool scheduler: many concurrent queries, one pool.
//!
//! A process serving concurrent traffic would oversubscribe the machine if
//! every in-flight query brought workers of its own. The [`Scheduler`] is a
//! single pool of **persistent workers** shared by every query:
//!
//! * Each pipeline run keeps its own morsel queue (an atomic counter) and is
//!   *offered* to the pool. The submitting thread always works its own run
//!   to completion — a query never waits on pool capacity to make progress,
//!   so a serial query never touches the pool and admission can never
//!   deadlock a running query.
//! * Pool workers **steal slices**: a worker attaches to a run, claims a
//!   bounded slice of morsels, parks its partial back on the run and then
//!   re-picks the run with the *fewest* attached workers. Slice-sized
//!   stealing is the fairness mechanism — no query can monopolize the pool
//!   for longer than one slice per worker.
//! * Every query's [`QueryContext`] (poison / cancel / deadline / budget)
//!   is enforced at the morsel-boundary checkpoints and at steal boundaries:
//!   a poisoned run drains instantly and its pool workers move on to other
//!   queries. A panic on the steal path itself is contained by the worker
//!   loop — a pool worker can never die and shrink the pool.
//!
//! On top sits **admission control**: a scheduler configured with an
//! [`AdmissionConfig`] runs at most `max_concurrent` queries, queues at most
//! `queue_capacity` more, and *sheds* everything beyond that with a
//! structured [`EngineError::Overloaded`] carrying a retry-after hint —
//! bounded queues instead of unbounded pileup. [`Scheduler::drain`] is the
//! graceful shutdown: stop admitting, let in-flight queries finish within a
//! grace period, then cancel the stragglers through their own contexts.
//!
//! The chaos harness covers this tier through the `scheduler.admit` and
//! `scheduler.steal` fault sites (same `PROTEUS_FAULTS` syntax as the
//! plug-in sites).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};
use crate::exec::context::QueryContext;

/// Hard cap on pool size, far above any sane worker count — a backstop
/// against runaway growth requests, not a tuning knob.
const MAX_POOL_WORKERS: usize = 256;

/// Fallback retry-after hint (ms) for schedulers without an admission
/// config (only reachable while such a scheduler is draining).
const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// Admission policy of a scheduler: how many queries run at once, how many
/// may wait, and what back-off rejected clients are told.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queries executing concurrently; further arrivals queue.
    pub max_concurrent: usize,
    /// Bounded pending queue beyond `max_concurrent`; arrivals past it are
    /// shed with [`EngineError::Overloaded`].
    pub queue_capacity: usize,
    /// Retry-after hint carried by `Overloaded`, in milliseconds.
    pub retry_after_ms: u64,
}

impl AdmissionConfig {
    /// An admission policy of `max_concurrent` slots and `queue_capacity`
    /// pending slots with a 50 ms retry hint.
    pub fn new(max_concurrent: usize, queue_capacity: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: max_concurrent.max(1),
            queue_capacity,
            retry_after_ms: 50,
        }
    }

    /// Overrides the retry-after hint (builder style).
    pub fn with_retry_after_ms(mut self, ms: u64) -> AdmissionConfig {
        self.retry_after_ms = ms;
        self
    }
}

/// Scheduler construction knobs.
#[derive(Debug, Clone, Default)]
pub struct SchedulerConfig {
    /// Maximum pool workers. `0` means "as many as queries ask for", up to
    /// an internal backstop. Workers spawn lazily, on the first run that
    /// wants them, and persist for the scheduler's lifetime.
    pub max_workers: usize,
    /// Admission policy. `None` admits everything (the scheduler still
    /// tracks in-flight queries so [`Scheduler::drain`] works).
    pub admission: Option<AdmissionConfig>,
}

/// A unit of stealable work: one pipeline run's morsel queue.
///
/// `steal_slice` claims a bounded slice of morsels and returns whether the
/// run may still have morsels left. Implementations contain their own
/// per-morsel failures; a return is never an error.
pub(crate) trait PoolTask: Send + Sync {
    fn steal_slice(&self, worker_id: usize) -> bool;
}

struct TaskEntry {
    task: Arc<dyn PoolTask>,
    id: u64,
    /// Pool workers allowed on this run at once (the query's worker cap
    /// minus the submitting thread).
    max_helpers: usize,
    helpers: AtomicUsize,
    /// Set once a steal observed the morsel queue empty: pool workers stop
    /// picking the run (the submitter retires it shortly after).
    exhausted: AtomicBool,
}

#[derive(Default)]
struct TaskQueue {
    tasks: Vec<Arc<TaskEntry>>,
    next_id: u64,
    stop: bool,
}

/// State shared between the scheduler handle and its pool workers.
struct PoolShared {
    queue: Mutex<TaskQueue>,
    work_cv: Condvar,
}

impl PoolShared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, TaskQueue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Fairness pick: the non-exhausted run with spare helper capacity and the
/// fewest helpers attached (ties to the older run).
fn pick_task(queue: &TaskQueue) -> Option<Arc<TaskEntry>> {
    queue
        .tasks
        .iter()
        .filter(|e| !e.exhausted.load(Ordering::Relaxed))
        .filter(|e| e.helpers.load(Ordering::Relaxed) < e.max_helpers)
        .min_by_key(|e| (e.helpers.load(Ordering::Relaxed), e.id))
        .cloned()
}

fn pool_worker_main(shared: Arc<PoolShared>, worker_id: usize) {
    loop {
        let entry = {
            let mut queue = shared.lock_queue();
            loop {
                if queue.stop {
                    return;
                }
                if let Some(entry) = pick_task(&queue) {
                    entry.helpers.fetch_add(1, Ordering::Relaxed);
                    break entry;
                }
                queue = shared
                    .work_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The steal itself runs under catch_unwind: an injected panic at the
        // `scheduler.steal` site (or any escape from the slice, which the
        // per-morsel containment makes unreachable in practice) must never
        // kill a pool worker — the pool's size is part of the service's
        // capacity contract.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proteus_plugins::fault::check_infallible("scheduler.steal");
            entry.task.steal_slice(worker_id)
        }));
        entry.helpers.fetch_sub(1, Ordering::Release);
        match outcome {
            Ok(true) => {}
            Ok(false) => entry.exhausted.store(true, Ordering::Relaxed),
            // Contained; back off briefly so an always-firing fault site
            // cannot spin the worker hot while the submitter drains the run.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
        // Helper capacity freed (or more work observed): let waiting
        // workers reconsider the queue.
        shared.work_cv.notify_all();
    }
}

/// Keeps a run visible to pool workers; dropping it retires the run.
///
/// Retiring **waits out in-flight helpers**: a worker that picked the run
/// just before the retire may still be mid-slice, and the caller is about to
/// merge the run's parked partials — the drop returns only once no helper is
/// inside `steal_slice`, so the partials are quiescent.
pub(crate) struct TaskHandle {
    shared: Arc<PoolShared>,
    entry: Arc<TaskEntry>,
}

impl Drop for TaskHandle {
    fn drop(&mut self) {
        let mut queue = self.shared.lock_queue();
        let id = self.entry.id;
        queue.tasks.retain(|e| e.id != id);
        // Helpers increment under the queue lock (at pick) and decrement
        // after `steal_slice` returns, so once the entry is gone from the
        // queue AND the count is zero, no helper is or will be in the run.
        while self.entry.helpers.load(Ordering::Acquire) > 0 {
            let (next, _timeout) = self
                .shared
                .work_cv
                .wait_timeout(queue, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
            queue = next;
        }
        drop(queue);
        self.shared.work_cv.notify_all();
    }
}

// -- admission --------------------------------------------------------------

struct AdmitState {
    running: usize,
    queued: usize,
    draining: bool,
    next_ticket: u64,
    /// Contexts of admitted, still-running queries — what `drain` cancels
    /// when the grace period runs out.
    active: Vec<(u64, Arc<QueryContext>)>,
}

/// One admitted query's slot. Dropping the permit releases the concurrency
/// slot and wakes the admission queue.
pub struct AdmissionPermit {
    scheduler: Arc<Scheduler>,
    ticket: u64,
    /// Time spent waiting in the admission queue before the slot freed.
    pub queue_wait: Duration,
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("ticket", &self.ticket)
            .field("queue_wait", &self.queue_wait)
            .finish()
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self.scheduler.lock_admit();
        state.running = state.running.saturating_sub(1);
        state.active.retain(|(t, _)| *t != self.ticket);
        drop(state);
        self.scheduler.admit_cv.notify_all();
    }
}

/// What [`Scheduler::drain`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// In-flight queries that finished on their own within the grace period.
    pub completed: usize,
    /// Queries still running at the deadline, cancelled through their
    /// contexts (they stop at their next morsel checkpoint).
    pub cancelled: usize,
}

// -- the scheduler ----------------------------------------------------------

/// A long-lived shared worker pool plus admission control. See the module
/// docs for the execution model.
pub struct Scheduler {
    shared: Arc<PoolShared>,
    max_workers: usize,
    admission: Option<AdmissionConfig>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    admit_state: Mutex<AdmitState>,
    admit_cv: Condvar,
}

impl Scheduler {
    /// Creates a scheduler. Pool workers spawn lazily as runs request them.
    pub fn new(config: SchedulerConfig) -> Arc<Scheduler> {
        let max_workers = match config.max_workers {
            0 => MAX_POOL_WORKERS,
            n => n.min(MAX_POOL_WORKERS),
        };
        Arc::new(Scheduler {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(TaskQueue::default()),
                work_cv: Condvar::new(),
            }),
            max_workers,
            admission: config.admission,
            workers: Mutex::new(Vec::new()),
            admit_state: Mutex::new(AdmitState {
                running: 0,
                queued: 0,
                draining: false,
                next_ticket: 0,
                active: Vec::new(),
            }),
            admit_cv: Condvar::new(),
        })
    }

    /// The process-wide default scheduler: unlimited admission, pool sized
    /// by demand. Engines without an explicit [`AdmissionConfig`] share it,
    /// which is exactly the point — their queries steal work from one pool.
    pub fn global() -> Arc<Scheduler> {
        static GLOBAL: OnceLock<Arc<Scheduler>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Scheduler::new(SchedulerConfig::default()))
            .clone()
    }

    fn lock_admit(&self) -> std::sync::MutexGuard<'_, AdmitState> {
        self.admit_state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Pool workers currently alive.
    pub fn worker_count(&self) -> usize {
        self.workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Grows the pool (up to the configured cap) so at least `want` workers
    /// exist. Lazy: a process that only ever runs serial queries spawns no
    /// pool threads at all.
    fn ensure_workers(&self, want: usize) {
        let want = want.min(self.max_workers);
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        while workers.len() < want {
            let shared = self.shared.clone();
            let id = workers.len();
            let handle = std::thread::Builder::new()
                .name(format!("proteus-pool-{id}"))
                .spawn(move || pool_worker_main(shared, id));
            match handle {
                Ok(handle) => workers.push(handle),
                // Thread spawn failure (resource exhaustion): run with the
                // workers we have — the submitting thread always makes
                // progress without the pool.
                Err(_) => break,
            }
        }
    }

    /// Offers a run to the pool: up to `max_helpers` workers will steal
    /// slices from it until the returned handle is dropped. The caller
    /// (the submitting thread) keeps working the run itself.
    pub(crate) fn offer(&self, task: Arc<dyn PoolTask>, max_helpers: usize) -> TaskHandle {
        self.ensure_workers(max_helpers);
        let entry = {
            let mut queue = self.shared.lock_queue();
            let id = queue.next_id;
            queue.next_id += 1;
            let entry = Arc::new(TaskEntry {
                task,
                id,
                max_helpers,
                helpers: AtomicUsize::new(0),
                exhausted: AtomicBool::new(false),
            });
            queue.tasks.push(entry.clone());
            entry
        };
        self.shared.work_cv.notify_all();
        TaskHandle {
            shared: self.shared.clone(),
            entry,
        }
    }

    /// Admits one query, blocking in the bounded pending queue if every
    /// concurrency slot is taken. Returns [`EngineError::Overloaded`] when
    /// the queue is full (or the scheduler is draining) — the query is shed
    /// before any execution state exists. A queued query's own context is
    /// honored while it waits: cancellation or a deadline pulls it out of
    /// the queue with its usual error.
    pub fn admit(self: &Arc<Self>, ctx: &Arc<QueryContext>) -> Result<AdmissionPermit> {
        // Chaos site: an injected failure here must surface structured, not
        // unwind into the engine's caller.
        let faulted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proteus_plugins::fault::check("scheduler.admit")
        }));
        match faulted {
            Ok(Ok(())) => {}
            Ok(Err(detail)) => {
                return Err(EngineError::Internal {
                    site: "scheduler.admit".to_string(),
                    detail,
                })
            }
            Err(payload) => return Err(super::pipeline::panic_error(payload, "scheduler.admit")),
        }

        let started = Instant::now();
        let mut waited = false;
        let mut state = self.lock_admit();
        let capacity = self
            .admission
            .as_ref()
            .map_or(0, |cfg| cfg.queue_capacity as u64);
        let retry_after_ms = self
            .admission
            .as_ref()
            .map_or(DEFAULT_RETRY_AFTER_MS, |cfg| cfg.retry_after_ms);
        if state.draining {
            return Err(EngineError::Overloaded {
                queued: state.queued as u64,
                capacity,
                retry_after_ms,
            });
        }
        if let Some(cfg) = &self.admission {
            if state.running >= cfg.max_concurrent {
                if state.queued >= cfg.queue_capacity {
                    return Err(EngineError::Overloaded {
                        queued: state.queued as u64,
                        capacity,
                        retry_after_ms,
                    });
                }
                state.queued += 1;
                waited = true;
                loop {
                    let (next, _timeout) = self
                        .admit_cv
                        .wait_timeout(state, Duration::from_millis(10))
                        .unwrap_or_else(PoisonError::into_inner);
                    state = next;
                    if state.draining {
                        state.queued -= 1;
                        return Err(EngineError::Overloaded {
                            queued: state.queued as u64,
                            capacity,
                            retry_after_ms,
                        });
                    }
                    // A cancelled / past-deadline query leaves the queue
                    // with its own failure instead of holding a slot.
                    if !ctx.checkpoint(0) {
                        state.queued -= 1;
                        return Err(ctx.take_failure().unwrap_or(EngineError::Cancelled));
                    }
                    if state.running < cfg.max_concurrent {
                        state.queued -= 1;
                        break;
                    }
                }
            }
        }
        state.running += 1;
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.active.push((ticket, ctx.clone()));
        Ok(AdmissionPermit {
            scheduler: self.clone(),
            ticket,
            // A slot free on arrival reports zero wait — lock acquisition
            // time is not queueing.
            queue_wait: if waited {
                started.elapsed()
            } else {
                Duration::ZERO
            },
        })
    }

    /// Non-blocking admission for best-effort work (background cache
    /// builds): takes a slot only if one is free right now, never queues.
    /// Returns [`EngineError::Overloaded`] when the scheduler is draining
    /// or at its concurrency limit — callers are expected to simply skip
    /// the work and retry on a later occasion. The admitted context is
    /// registered like any foreground query, so a drain cancels it too.
    pub fn try_admit(self: &Arc<Self>, ctx: &Arc<QueryContext>) -> Result<AdmissionPermit> {
        let mut state = self.lock_admit();
        let capacity = self
            .admission
            .as_ref()
            .map_or(0, |cfg| cfg.queue_capacity as u64);
        let retry_after_ms = self
            .admission
            .as_ref()
            .map_or(DEFAULT_RETRY_AFTER_MS, |cfg| cfg.retry_after_ms);
        let at_limit = self
            .admission
            .as_ref()
            .is_some_and(|cfg| state.running >= cfg.max_concurrent);
        if state.draining || at_limit {
            return Err(EngineError::Overloaded {
                queued: state.queued as u64,
                capacity,
                retry_after_ms,
            });
        }
        state.running += 1;
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.active.push((ticket, ctx.clone()));
        Ok(AdmissionPermit {
            scheduler: self.clone(),
            ticket,
            queue_wait: Duration::ZERO,
        })
    }

    /// In-flight (admitted, not yet released) queries.
    pub fn running(&self) -> usize {
        self.lock_admit().running
    }

    /// Graceful drain: stop admitting, give in-flight queries `grace` to
    /// finish, then cancel the stragglers through their contexts (they stop
    /// at their next morsel checkpoint) and wait up to `grace` again for
    /// them to unwind. Queued queries are rejected with `Overloaded` as
    /// they wake. Admission stays closed afterwards ([`Scheduler::resume`]
    /// reopens it — mainly for tests).
    pub fn drain(self: &Arc<Self>, grace: Duration) -> DrainReport {
        let mut state = self.lock_admit();
        state.draining = true;
        let initial = state.running;
        drop(state);
        self.admit_cv.notify_all();

        let deadline = Instant::now() + grace;
        let mut state = self.lock_admit();
        while state.running > 0 && Instant::now() < deadline {
            let (next, _timeout) = self
                .admit_cv
                .wait_timeout(state, Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
        let cancelled = state.running;
        let stragglers: Vec<Arc<QueryContext>> =
            state.active.iter().map(|(_, ctx)| ctx.clone()).collect();
        drop(state);
        for ctx in stragglers {
            ctx.fail(EngineError::Cancelled);
        }
        // Cancelled queries drain their morsel queues cooperatively; give
        // them the grace period again to unwind and release their permits.
        let deadline = Instant::now() + grace;
        let mut state = self.lock_admit();
        while state.running > 0 && Instant::now() < deadline {
            let (next, _timeout) = self
                .admit_cv
                .wait_timeout(state, Duration::from_millis(10))
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
        DrainReport {
            completed: initial - cancelled,
            cancelled,
        }
    }

    /// Reopens admission after a [`Scheduler::drain`].
    pub fn resume(&self) {
        self.lock_admit().draining = false;
        self.admit_cv.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.lock_queue();
            queue.stop = true;
        }
        self.shared.work_cv.notify_all();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct CountTask {
        remaining: AtomicU64,
    }

    impl PoolTask for CountTask {
        fn steal_slice(&self, _worker_id: usize) -> bool {
            loop {
                let left = self.remaining.load(Ordering::Relaxed);
                if left == 0 {
                    return false;
                }
                let take = left.min(4);
                if self
                    .remaining
                    .compare_exchange(left, left - take, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return left > take;
                }
            }
        }
    }

    #[test]
    fn pool_workers_drain_an_offered_task() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let task = Arc::new(CountTask {
            remaining: AtomicU64::new(1000),
        });
        let handle = sched.offer(task.clone(), 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        while task.remaining.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(task.remaining.load(Ordering::Relaxed), 0);
        assert!(sched.worker_count() >= 1);
        drop(handle);
    }

    #[test]
    fn admission_sheds_past_queue_capacity() {
        let sched = Scheduler::new(SchedulerConfig {
            max_workers: 1,
            admission: Some(AdmissionConfig::new(1, 1).with_retry_after_ms(7)),
        });
        let ctx1 = Arc::new(QueryContext::disabled());
        let permit1 = sched.admit(&ctx1).unwrap();
        assert_eq!(permit1.queue_wait, Duration::ZERO);
        assert_eq!(sched.running(), 1);

        // Second query queues; park it on a thread.
        let sched2 = sched.clone();
        let queued = std::thread::spawn(move || {
            let ctx = Arc::new(QueryContext::disabled());
            sched2.admit(&ctx).map(|p| p.queue_wait)
        });
        while sched.lock_admit().queued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Third query: queue full -> shed with the structured error.
        let ctx3 = Arc::new(QueryContext::disabled());
        match sched.admit(&ctx3) {
            Err(EngineError::Overloaded {
                queued,
                capacity,
                retry_after_ms,
            }) => {
                assert_eq!(queued, 1);
                assert_eq!(capacity, 1);
                assert_eq!(retry_after_ms, 7);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }

        drop(permit1);
        let wait = queued.join().expect("queued admit").expect("admitted");
        assert!(wait > Duration::ZERO);
        // The queued thread's permit dropped with it: every slot is free.
        assert_eq!(sched.running(), 0);
    }

    #[test]
    fn cancelled_query_leaves_the_admission_queue() {
        let sched = Scheduler::new(SchedulerConfig {
            max_workers: 1,
            admission: Some(AdmissionConfig::new(1, 4)),
        });
        let holder = Arc::new(QueryContext::disabled());
        let _permit = sched.admit(&holder).unwrap();

        let token = crate::exec::context::CancellationToken::new();
        let ctx = Arc::new(QueryContext::new(Some(token.clone()), None, None, true));
        let sched2 = sched.clone();
        let waiter = std::thread::spawn(move || sched2.admit(&ctx).map(|_| ()));
        while sched.lock_admit().queued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.cancel();
        match waiter.join().expect("join") {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(sched.lock_admit().queued, 0);
    }

    #[test]
    fn drain_rejects_new_queries_and_cancels_stragglers() {
        let sched = Scheduler::new(SchedulerConfig {
            max_workers: 1,
            admission: Some(AdmissionConfig::new(4, 4)),
        });
        let token = crate::exec::context::CancellationToken::new();
        let ctx = Arc::new(QueryContext::new(Some(token), None, None, true));
        let permit = sched.admit(&ctx).unwrap();

        let sched2 = sched.clone();
        let ctx2 = ctx.clone();
        let release = std::thread::spawn(move || {
            // Simulate the query observing its cancelled context and
            // releasing its slot shortly after drain fires.
            while !ctx2.poisoned() {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(permit);
            sched2.running()
        });

        let report = sched.drain(Duration::from_millis(50));
        assert_eq!(report.cancelled, 1);
        assert!(ctx.poisoned());
        assert_eq!(release.join().expect("join"), 0);

        let late = Arc::new(QueryContext::disabled());
        assert!(matches!(
            sched.admit(&late),
            Err(EngineError::Overloaded { .. })
        ));
        sched.resume();
        assert!(sched.admit(&late).is_ok());
    }
}
