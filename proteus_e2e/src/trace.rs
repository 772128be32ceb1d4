//! Outside-in spans: one span around each call the harness makes into a
//! layer's public functions. Spans are kept in memory and written when the
//! run ends (`trace.jsonl`); nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent == 0` marks a root; spans of one query share
/// `query`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Single-threaded span recorder with a parent stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    query: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
        }
    }

    /// Starts the next query: spans opened from now on carry its number.
    pub fn next_query(&mut self) {
        self.query += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            query: self.query,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it by an early return).
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize - 1].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// JSON lines `{id, parent, query, workload, name, start_ns, end_ns}`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"query\": {}, \"workload\": \"{workload}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of that interval its child spans cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Total duration per span name, in nanoseconds.
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.end_ns - s.start_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(1, 0, "query", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "exec", 40, 90),
            span(4, 3, "scan", 50, 70),
            // Overlaps `exec` and runs past the parent: counted once, clipped.
            span(5, 1, "late", 80, 120),
        ];
        let own = self_times(&spans);
        // 100 − (20 parse + 50 exec + 10 of `late` not already covered).
        assert_eq!(own["query"], 20);
        assert_eq!(own["parse"], 20);
        assert_eq!(own["exec"], 30);
        assert_eq!(own["scan"], 20);
        assert_eq!(own["late"], 40);
        assert_eq!(total_times(&spans)["exec"], 50);
    }

    #[test]
    fn tracer_nests_spans_and_closes_abandoned_children() {
        let mut t = Tracer::new();
        t.next_query();
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer); // `inner` was left open by an early return
        t.next_query();
        t.span("second", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 0)
        );
        assert_eq!((spans[0].query, spans[2].query), (1, 2));
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.to_jsonl("w").lines().count(), 3);
    }
}
