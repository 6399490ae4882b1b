//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the program's public
//! functions, from the benchmark's side of the boundary. Each span has
//! a name, a start, an end and the span that caused it; all spans of a
//! run share the workload id. Spans stay in memory and are written as
//! JSON Lines when the run ends. With tracing off a span is a plain
//! call: no clock read, no allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans for one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent` (0 = root);
    /// `f` receives the new span's id to parent its own children.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let rec = SpanRec { id, parent, name, start_ns, end_ns };
        self.spans.lock().expect("span buffer poisoned by a panicking workload").push(rec);
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v =
            self.spans.lock().expect("span buffer poisoned by a panicking workload").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per span name: (count, total seconds, self seconds). Self time is a
/// span's duration minus the part of its interval its children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 * 1e-9;
        e.2 += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Renders the run's spans as JSON Lines, followed by the program's own
/// `alid-obs` spans (their times count from the tracer's epoch inside
/// the program, and their ids and parents refer to each other only).
pub fn render_jsonl(
    workload: &str,
    spans: &[SpanRec],
    obs: &[alid_obs::trace::SpanEvent],
) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"source\":\"benchmark\",\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            serde_json::to_string(&s.name.to_string()).expect("string renders"),
            s.start_ns,
            s.end_ns
        );
    }
    for e in obs {
        let _ = writeln!(
            out,
            "{{\"source\":\"alid-obs\",\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            e.id,
            e.parent,
            e.name,
            e.start_ns,
            e.start_ns + e.dur_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            SpanRec { id: 1, parent: 0, name: "root", start_ns: 0, end_ns: 100 },
            SpanRec { id: 2, parent: 1, name: "a", start_ns: 10, end_ns: 40 },
            SpanRec { id: 3, parent: 1, name: "a", start_ns: 30, end_ns: 50 },
            SpanRec { id: 4, parent: 1, name: "b", start_ns: 90, end_ns: 120 },
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert!((t["root"].2 - 50e-9).abs() < 1e-15);
        assert_eq!(t["a"].0, 2);
        assert!((t["a"].2 - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, |id| id), 0);
        assert!(tr.spans().is_empty());
    }
}
