//! In-memory span tracing for the traced benchmark run.
//!
//! A [`Tracer`] belongs to one thread. Each span records its name,
//! start, end, parent span, and a request id (a contact index, a
//! publish `seq`, a match round). Self time — a span's duration minus
//! the time its direct children cover — is accumulated per span name
//! as spans close, so the per-layer table needs no second pass.
//! Span records are kept up to a cap (the aggregates keep counting past
//! it) and written out as JSON lines at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Span records kept per tracer; later spans still feed the aggregates.
pub const SPAN_CAP: usize = 200_000;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or, while open, pending) span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
    pub thread: u32,
}

/// Per-name aggregate: call count, total and self time, and every
/// duration (for percentiles).
#[derive(Debug, Clone, Default)]
pub struct LayerAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

struct Open {
    slot: u32,
    name: &'static str,
    started: Instant,
    child_ns: u64,
}

/// A single thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    thread: u32,
    spans: Vec<SpanRecord>,
    dropped: u64,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, LayerAgg>,
}

impl std::fmt::Debug for Open {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Open").field("name", &self.name).finish()
    }
}

impl Tracer {
    /// A tracer for thread number `thread`, timing relative to `t0`.
    pub fn new(t0: Instant, thread: u32) -> Self {
        Self {
            t0,
            thread,
            spans: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    fn ns_since_t0(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span; it nests under the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let started = Instant::now();
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRecord {
                name,
                start_ns: self.ns_since_t0(started),
                end_ns: 0,
                parent,
                request,
                thread: self.thread,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            slot,
            name,
            started,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let ended = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = ended.saturating_duration_since(open.started).as_nanos() as u64;
        if open.slot != NO_PARENT {
            self.spans[open.slot as usize].end_ns = self.ns_since_t0(ended);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.layers.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.durations_ns.push(dur);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            if self.spans.len() >= SPAN_CAP {
                self.dropped += 1;
                continue;
            }
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            self.spans.push(s);
        }
        self.dropped += other.dropped;
        for (name, agg) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.count += agg.count;
            mine.total_ns += agg.total_ns;
            mine.self_ns += agg.self_ns;
            mine.durations_ns.extend(agg.durations_ns);
        }
    }

    /// The aggregate for `name` (empty if no such span closed).
    pub fn layer(&self, name: &str) -> LayerAgg {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// Spans recorded (kept plus dropped past the cap).
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Writes the kept spans as JSON lines, one span per line, with a
    /// final line stating how many were dropped past the cap.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                line,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            );
            out.write_all(line.as_bytes())?;
        }
        writeln!(out, "{{\"dropped_past_cap\":{}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, 0);
        t.span("outer", 1, || ());
        let mut t2 = Tracer::new(t0, 1);
        t2.enter("outer", 2);
        t2.span("inner", 2, || std::thread::sleep(Duration::from_millis(5)));
        t2.exit();
        let outer = t2.layer("outer");
        let inner = t2.layer("inner");
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        t.merge(t2);
        assert_eq!(t.layer("outer").count, 2);
        assert_eq!(t.spans[2].parent, 1, "merged parent index is rebased");
    }
}
