//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent span and a tag (the request id for serve
//! spans, an item index elsewhere). Spans stay in memory and are written
//! out once at the end, together with per-name self times (a span's
//! duration minus the part of it its children cover). A disabled tracer
//! records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span identifier; [`ROOT`] means "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub tag: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span that will be [`Tracer::record`]ed later
    /// (so children can name it as parent before it ends).
    pub fn reserve(&self) -> SpanId {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        tag: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            tag,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id for its
    /// children.
    pub fn span<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        tag: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.reserve();
        let start = Instant::now();
        let r = f(id);
        self.record(id, parent, name, tag, start, Instant::now());
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span buffer poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Per-name count, total time and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans())
    }

    /// The spans and their self-time summary as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let spans = self.spans();
        let mut s = format!("{{\n  \"run\": {header},\n  \"self_times\": {{");
        for (i, (name, t)) in self_times(&spans).iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}    \"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        s.push_str("\n  },\n  \"span_fields\": [\"id\", \"parent\", \"name\", \"tag\", \"start_ns\", \"end_ns\"],\n  \"spans\": [");
        for (i, sp) in spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}    [{}, {}, \"{}\", {}, {}, {}]",
                sp.id, sp.parent, sp.name, sp.tag, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Self time of a span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children — the send
/// and reply halves of one request — are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |iv| {
            iv.sort_unstable();
            let (mut covered, mut cur_end) = (0u64, s.start_ns);
            for &(a, b) in iv.iter() {
                let (a, b) = (a.max(cur_end), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cur_end = b;
                }
            }
            covered
        });
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: SpanId, parent: SpanId, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tag: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_child_union() {
        let spans = [
            sp(1, ROOT, "req", 0, 100),
            sp(2, 1, "send", 0, 30),
            sp(3, 1, "reply", 20, 50),
            sp(4, 1, "late", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["req"].self_ns, 100 - 50 - 10);
        assert_eq!(t["send"].self_ns, 30);
        assert_eq!(t["req"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span(ROOT, "x", 0, |id| id);
        assert_eq!(v, ROOT);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span(ROOT, "outer", 0, |id| t.span(id, "inner", 1, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
    }
}
