//! The benchmark's own tracing: spans recorded around calls into each
//! layer, kept in memory until the run ends, plus the order statistics
//! every metric is reported with.
//!
//! These spans do not go through `coolopt_telemetry`'s flight recorder,
//! because that ring belongs to the measured program. Each reproduction
//! resets it, reads its `method_run` and `sweep` spans for the `reproduce`
//! metrics, and writes it out as part of its output (counted in
//! `reply_bytes_per_plan`). Spans of the benchmark's own in that ring
//! would be cut off by the reset and would change what is measured.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a layer call made by the benchmark's own code.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `proto.parse`.
    pub name: &'static str,
    /// Request (or iteration) the span belongs to; spans of one request
    /// share it.
    pub request: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span store. Nothing is written until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds of `at` since the recorder's epoch.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Median duration (µs) of spans named `name`; 0 when none ran.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Sum of durations (µs) of spans named `name`, grouped by request.
    pub fn per_request_us(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0.0) += s.us();
        }
        out
    }

    /// Every span as a Chrome-trace complete event on track `tid`.
    pub fn chrome_events(&self, tid: usize) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\
                     \"dur\":{:.3},\"args\":{{\"id\":{i},\"request\":{},\"parent\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.us(),
                    s.request,
                    s.parent.map_or(-1, |p| p as i64),
                )
            })
            .collect()
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
