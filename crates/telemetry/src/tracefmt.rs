//! Frozen trace data and its renderings (the trace counterpart of
//! [`crate::render`]).

use crate::render::{push_json_f64, push_json_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A span/event attribute value.
///
/// Attribute payloads are deliberately restricted to `Copy` data (numbers,
/// booleans, `&'static str`): recording a span into the flight recorder
/// must never allocate, so attributes carry no owned strings. Dynamic text
/// belongs in the [event stream](crate::emit), not in trace records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attr {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static text.
    Str(&'static str),
}

impl From<u64> for Attr {
    fn from(v: u64) -> Self {
        Attr::U64(v)
    }
}
impl From<usize> for Attr {
    fn from(v: usize) -> Self {
        Attr::U64(v as u64)
    }
}
impl From<u32> for Attr {
    fn from(v: u32) -> Self {
        Attr::U64(u64::from(v))
    }
}
impl From<i64> for Attr {
    fn from(v: i64) -> Self {
        Attr::I64(v)
    }
}
impl From<i32> for Attr {
    fn from(v: i32) -> Self {
        Attr::I64(i64::from(v))
    }
}
impl From<f64> for Attr {
    fn from(v: f64) -> Self {
        Attr::F64(v)
    }
}
impl From<bool> for Attr {
    fn from(v: bool) -> Self {
        Attr::Bool(v)
    }
}
impl From<&'static str> for Attr {
    fn from(v: &'static str) -> Self {
        Attr::Str(v)
    }
}

impl std::fmt::Display for Attr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Attr::U64(v) => write!(f, "{v}"),
            Attr::I64(v) => write!(f, "{v}"),
            Attr::F64(v) => write!(f, "{v}"),
            Attr::Bool(v) => write!(f, "{v}"),
            Attr::Str(v) => write!(f, "{v}"),
        }
    }
}

fn push_attr_json(out: &mut String, a: &Attr) {
    match a {
        Attr::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Attr::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Attr::F64(v) => push_json_f64(out, *v),
        Attr::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Attr::Str(v) => push_json_str(out, v),
    }
}

/// What kind of record a [`TraceRecord`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed span (has a duration).
    Span,
    /// An instantaneous event (a point in time).
    Instant,
}

/// One frozen flight-recorder record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Span or instant.
    pub kind: RecordKind,
    /// The span/event name.
    pub name: &'static str,
    /// Unique span id (nonzero; instants get ids too).
    pub id: u64,
    /// Id of the enclosing span at record time, `0` for roots.
    pub parent: u64,
    /// Small dense id of the recording thread (assigned in first-use
    /// order, *not* the OS thread id).
    pub thread: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End time (== `start_ns` for instants).
    pub end_ns: u64,
    /// `key=value` attributes.
    pub attrs: Vec<(&'static str, Attr)>,
}

impl TraceRecord {
    /// Span duration in nanoseconds (zero for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A frozen copy of the flight recorder, ordered by start time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Records, sorted by `(start_ns, id)`.
    pub records: Vec<TraceRecord>,
    /// Records lost to ring-buffer wraparound or write contention since
    /// the recorder started.
    pub dropped: u64,
}

/// Renders a nanosecond duration with an adaptive unit.
fn fmt_duration(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns_f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns_f / 1e6)
    } else {
        format!("{:.3} s", ns_f / 1e9)
    }
}

impl TraceSnapshot {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The newest `n` records (by the snapshot's start-time order),
    /// `dropped` carried over unchanged — the bounded view wire scrapes
    /// ship so one reply line cannot grow with recorder capacity.
    pub fn tail(&self, n: usize) -> TraceSnapshot {
        let skip = self.records.len().saturating_sub(n);
        TraceSnapshot {
            records: self.records[skip..].to_vec(),
            dropped: self.dropped,
        }
    }

    /// Chrome `chrome://tracing` / Perfetto JSON: an object whose
    /// `traceEvents` array holds one complete (`"ph":"X"`) event per span
    /// and one instant (`"ph":"i"`) event per point record. Timestamps and
    /// durations are microseconds since the trace epoch, as the format
    /// requires. Load the file via `chrome://tracing` → Load, or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, r.name);
            out.push_str(",\"cat\":\"coolopt\",\"ph\":");
            match r.kind {
                RecordKind::Span => out.push_str("\"X\""),
                RecordKind::Instant => out.push_str("\"i\",\"s\":\"t\""),
            }
            let _ = write!(out, ",\"pid\":1,\"tid\":{}", r.thread);
            out.push_str(",\"ts\":");
            push_json_f64(&mut out, r.start_ns as f64 / 1e3);
            if r.kind == RecordKind::Span {
                out.push_str(",\"dur\":");
                push_json_f64(&mut out, r.duration_ns() as f64 / 1e3);
            }
            let _ = write!(out, ",\"args\":{{\"id\":{},\"parent\":{}", r.id, r.parent);
            for (k, v) in &r.attrs {
                out.push(',');
                push_json_str(&mut out, k);
                out.push(':');
                push_attr_json(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// A collapsed text tree: spans nested under their parents (per
    /// thread), with durations and attributes. Orphans — children whose
    /// parent record was overwritten by ring wraparound — are promoted to
    /// roots rather than dropped.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if self.records.is_empty() {
            out.push_str("(flight recorder empty)\n");
            return out;
        }
        let present: std::collections::BTreeSet<u64> = self.records.iter().map(|r| r.id).collect();
        // parent id -> indices into records, preserving start order.
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots_by_thread: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            if r.parent != 0 && present.contains(&r.parent) {
                children.entry(r.parent).or_default().push(i);
            } else {
                roots_by_thread.entry(r.thread).or_default().push(i);
            }
        }
        fn render(
            out: &mut String,
            records: &[TraceRecord],
            children: &BTreeMap<u64, Vec<usize>>,
            idx: usize,
            depth: usize,
        ) {
            let r = &records[idx];
            for _ in 0..depth {
                out.push_str("  ");
            }
            match r.kind {
                RecordKind::Span => {
                    let _ = write!(out, "{} {}", r.name, fmt_duration(r.duration_ns()));
                }
                RecordKind::Instant => {
                    let _ = write!(out, "! {}", r.name);
                }
            }
            for (k, v) in &r.attrs {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            if let Some(kids) = children.get(&r.id) {
                for &kid in kids {
                    render(out, records, children, kid, depth + 1);
                }
            }
        }
        for (thread, roots) in &roots_by_thread {
            let _ = writeln!(out, "[thread {thread}]");
            for &root in roots {
                render(&mut out, &self.records, &children, root, 1);
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} records dropped by the ring buffer)", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, name: &'static str, id: u64, parent: u64, start: u64) -> TraceRecord {
        TraceRecord {
            kind,
            name,
            id,
            parent,
            thread: 1,
            start_ns: start,
            end_ns: start + 1_500,
            attrs: vec![("k", Attr::U64(7))],
        }
    }

    #[test]
    fn chrome_json_has_trace_events_array() {
        let snap = TraceSnapshot {
            records: vec![
                rec(RecordKind::Span, "outer", 1, 0, 0),
                rec(RecordKind::Span, "inner", 2, 1, 100),
                rec(RecordKind::Instant, "mark", 3, 2, 200),
            ],
            dropped: 0,
        };
        let json = snap.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"k\":7"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn tree_nests_children_and_promotes_orphans() {
        let snap = TraceSnapshot {
            records: vec![
                rec(RecordKind::Span, "outer", 1, 0, 0),
                rec(RecordKind::Span, "inner", 2, 1, 100),
                // Parent id 99 was overwritten by wraparound.
                rec(RecordKind::Span, "orphan", 3, 99, 200),
            ],
            dropped: 5,
        };
        let tree = snap.render_tree();
        assert!(tree.contains("outer"), "{tree}");
        assert!(tree.contains("\n    inner"), "inner nests: {tree}");
        assert!(tree.contains("\n  orphan"), "orphan is a root: {tree}");
        assert!(tree.contains("5 records dropped"), "{tree}");
    }

    #[test]
    fn empty_snapshot_renders_placeholders() {
        let snap = TraceSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(
            snap.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        assert!(snap.render_tree().contains("empty"));
    }

    #[test]
    fn durations_format_adaptively() {
        assert_eq!(fmt_duration(12), "12 ns");
        assert_eq!(fmt_duration(4_200), "4.2 µs");
        assert_eq!(fmt_duration(7_300_000), "7.30 ms");
        assert_eq!(fmt_duration(2_450_000_000), "2.450 s");
    }
}
