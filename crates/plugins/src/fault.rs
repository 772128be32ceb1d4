//! Failpoint-style fault injection for chaos testing.
//!
//! The execution stack calls [`fire`] at a handful of named *sites*
//! (plug-in decode, morsel dispatch, partial merge, cache build, join build,
//! and the concurrency tier: `scheduler.admit`, `scheduler.steal`,
//! `service.read`, `service.write`). In
//! production the whole module is a single relaxed atomic load per site —
//! no lock, no allocation. Tests (or an operator, via the `PROTEUS_FAULTS`
//! environment variable) arm a site with a [`FaultAction`]; the next time
//! execution passes through it the action fires: return an injected error,
//! panic (to exercise panic containment), or sleep (to make deadline and
//! cancellation tests deterministic).
//!
//! Configuration is process-global, so test suites that arm faults must
//! serialize themselves (see `tests/fault_injection.rs`).
//!
//! Syntax of `PROTEUS_FAULTS`: `site=action[@skip][;site=action...]` where
//! `action` is `error`, `panic`, or `sleep:<millis>`, and the optional
//! `@skip` makes the site pass through that many hits before firing (e.g.
//! `dispatch.morsel=panic@3` panics on the fourth morsel).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};

/// What an armed fault site does when execution reaches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Surface an injected error (`Err` with the site name).
    Error,
    /// Panic with the site name as payload (exercises `catch_unwind`).
    Panic,
    /// Sleep for the given number of milliseconds, then continue. Used to
    /// hold a query inside a specific stage so deadlines/cancellation can
    /// trip there deterministically.
    SleepMs(u64),
}

#[derive(Clone, Copy, Debug)]
struct FaultSpec {
    action: FaultAction,
    /// Number of hits to pass through before firing.
    skip: u64,
    /// Hits observed at this site since it was armed.
    seen: u64,
    /// Times the action actually fired.
    fired: u64,
}

/// Fast path: false means no site is armed anywhere in the process.
static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn registry() -> &'static Mutex<HashMap<String, FaultSpec>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, FaultSpec>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn with_registry<T>(f: impl FnOnce(&mut HashMap<String, FaultSpec>) -> T) -> T {
    let mut guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

fn init_from_env() {
    let Ok(spec) = std::env::var("PROTEUS_FAULTS") else {
        return;
    };
    for entry in spec.split(';').filter(|s| !s.trim().is_empty()) {
        let Some((site, action)) = entry.split_once('=') else {
            continue;
        };
        let (action, skip) = match action.split_once('@') {
            Some((a, n)) => (a, n.trim().parse::<u64>().unwrap_or(0)),
            None => (action, 0),
        };
        let action = match action.trim() {
            "error" => FaultAction::Error,
            "panic" => FaultAction::Panic,
            other => match other.strip_prefix("sleep:") {
                Some(ms) => FaultAction::SleepMs(ms.trim().parse::<u64>().unwrap_or(1)),
                None => continue,
            },
        };
        configure_after(site.trim(), action, skip);
    }
}

/// Arms `site` with `action`, firing on every hit.
pub fn configure(site: &str, action: FaultAction) {
    configure_after(site, action, 0);
}

/// Arms `site` with `action`, passing through the first `skip` hits.
pub fn configure_after(site: &str, action: FaultAction, skip: u64) {
    with_registry(|reg| {
        reg.insert(
            site.to_string(),
            FaultSpec {
                action,
                skip,
                seen: 0,
                fired: 0,
            },
        );
    });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms every site (hit counters are discarded).
pub fn clear() {
    with_registry(HashMap::clear);
    ARMED.store(false, Ordering::SeqCst);
}

/// Times the action at `site` has fired since it was armed.
pub fn fired(site: &str) -> u64 {
    with_registry(|reg| reg.get(site).map_or(0, |s| s.fired))
}

/// The fault hook: call at a named site; returns the action to apply, if
/// the site is armed and due. Disarmed cost is one relaxed atomic load.
#[inline]
pub fn fire(site: &str) -> Option<FaultAction> {
    ENV_INIT.call_once(init_from_env);
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    with_registry(|reg| {
        let spec = reg.get_mut(site)?;
        spec.seen += 1;
        if spec.seen <= spec.skip {
            return None;
        }
        spec.fired += 1;
        Some(spec.action)
    })
}

/// True when any site is armed (or `PROTEUS_FAULTS` is set). Plug-ins use
/// this to decide whether to wrap their morsel fills with fault checks, so
/// the disarmed hot path keeps zero extra indirection.
pub fn armed() -> bool {
    ENV_INIT.call_once(init_from_env);
    ARMED.load(Ordering::Relaxed)
}

/// Convenience wrapper used by the fault sites themselves: applies the
/// armed action. `SleepMs` sleeps and continues, `Panic` panics (the
/// executor's `catch_unwind` turns it into a structured error), `Error`
/// returns `Err` with a human-readable description for the caller to wrap
/// in its own error type.
#[inline]
pub fn check(site: &str) -> std::result::Result<(), String> {
    match fire(site) {
        None => Ok(()),
        Some(FaultAction::SleepMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(FaultAction::Panic) => panic!("injected panic at fault site `{site}`"),
        Some(FaultAction::Error) => Err(format!("injected error at fault site `{site}`")),
    }
}

/// Panic-payload prefix for `Error` actions fired at infallible sites
/// (morsel fill closures have no error channel): the executor's
/// `catch_unwind` recognizes the prefix and reports a structured injected
/// error instead of a worker panic.
pub const INJECTED_ERROR_SENTINEL: &str = "__proteus_injected_fault_error__: ";

/// Fault check for infallible hot-path sites: `Error` becomes a sentinel
/// panic (see [`INJECTED_ERROR_SENTINEL`]), everything else behaves like
/// [`check`].
#[inline]
pub fn check_infallible(site: &str) {
    if let Err(detail) = check(site) {
        panic!("{INJECTED_ERROR_SENTINEL}{detail}");
    }
}

/// Wraps each field's one fill with a fault check at `site` — only when
/// some fault is armed, so production scans are untouched. A raw column
/// becomes the equivalent typed fill, so whichever of
/// [`FieldFill::typed`](crate::api::FieldFill::typed) /
/// [`FieldFill::values`](crate::api::FieldFill::values) the engine calls
/// fires the site. Called by each plug-in at the end of `generate()`.
pub fn instrument_scan(
    mut scan: crate::api::ScanAccessors,
    site: &'static str,
) -> crate::api::ScanAccessors {
    use crate::api::FieldFill;
    use std::sync::Arc;
    if !armed() {
        return scan;
    }
    for (_, fill) in scan.fields.iter_mut() {
        *fill = match fill.typed() {
            Some((kind, inner)) => FieldFill::Typed(
                kind,
                Arc::new(
                    move |start, count, sel: &[u32], out: &mut crate::api::TypedColumn| {
                        check_infallible(site);
                        inner(start, count, sel, out);
                    },
                ),
            ),
            None => {
                let inner = fill.values();
                FieldFill::Values(Arc::new(
                    move |start, count, out: &mut [proteus_algebra::Value], base, stride| {
                        check_infallible(site);
                        inner(start, count, out, base, stride);
                    },
                ))
            }
        };
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global; these tests all use distinct sites so
    // they can run concurrently with each other (the chaos suite in
    // `tests/fault_injection.rs` serializes itself separately).

    #[test]
    fn disarmed_site_is_silent() {
        assert_eq!(fire("unit.nothing"), None);
        assert!(check("unit.nothing").is_ok());
    }

    #[test]
    fn error_action_fires_and_counts() {
        configure("unit.error", FaultAction::Error);
        let err = check("unit.error").unwrap_err();
        assert!(err.contains("unit.error"));
        assert_eq!(fired("unit.error"), 1);
        with_registry(|reg| {
            reg.remove("unit.error");
        });
    }

    #[test]
    fn skip_counts_pass_through_hits() {
        configure_after("unit.skip", FaultAction::Error, 2);
        assert!(check("unit.skip").is_ok());
        assert!(check("unit.skip").is_ok());
        assert!(check("unit.skip").is_err());
        assert_eq!(fired("unit.skip"), 1);
        with_registry(|reg| {
            reg.remove("unit.skip");
        });
    }

    #[test]
    fn sleep_action_continues() {
        configure("unit.sleep", FaultAction::SleepMs(1));
        assert!(check("unit.sleep").is_ok());
        assert_eq!(fired("unit.sleep"), 1);
        with_registry(|reg| {
            reg.remove("unit.sleep");
        });
    }

    #[test]
    #[should_panic(expected = "injected panic at fault site")]
    fn panic_action_panics() {
        configure("unit.panic", FaultAction::Panic);
        let _ = check("unit.panic");
    }
}
