//! Frozen metric data and its renderings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A frozen histogram: per-bucket (non-cumulative) counts over inclusive
/// upper `bounds`, with one trailing slot for `+Inf`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket edges (`le`), strictly increasing, without
    /// the `+Inf` edge.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (the last is
    /// the `+Inf` bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed samples.
    pub sum: f64,
    /// Number of observed samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean sample, or `None` when nothing was observed.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimated quantile `q ∈ [0, 1]` by linear interpolation within the
    /// winning bucket (Prometheus-style).
    ///
    /// Edge cases are pinned down rather than interpolated away: an empty
    /// snapshot (or a `q` outside `[0, 1]`, including NaN) yields `None`;
    /// a rank landing exactly on a bucket edge returns that edge itself
    /// (no floating-point drift from `lower + width · 1.0`); and a rank in
    /// the open-ended `+Inf` bucket reports the last *finite* bound — the
    /// bucket has no width to interpolate into.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || self.counts.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = seen + c;
            if (next as f64) >= rank && c > 0 {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                if i >= self.bounds.len() {
                    // The +Inf bucket is open-ended: report the last
                    // finite bound instead of inventing a width.
                    return Some(lower);
                }
                let upper = self.bounds[i];
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(if frac >= 1.0 {
                    upper
                } else if frac <= 0.0 {
                    lower
                } else {
                    lower + (upper - lower) * frac
                });
            }
            seen = next;
        }
        self.bounds.last().copied()
    }

    /// Bucket-wise sum of two snapshots of the *same* metric.
    ///
    /// # Panics
    ///
    /// Panics when the bucket layouts differ: one metric name must mean one
    /// layout (the registry enforces this at registration), and silently
    /// guessing a common layout would lose samples.
    pub fn merge(mut self, other: &HistogramSnapshot) -> HistogramSnapshot {
        if self.counts.is_empty() {
            return other.clone();
        }
        if other.counts.is_empty() {
            return self;
        }
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket layouts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
        self
    }

    /// Bucket-wise difference `self − base` (for per-phase deltas).
    /// Saturates at zero if `base` ran ahead.
    pub fn minus(mut self, base: &HistogramSnapshot) -> HistogramSnapshot {
        if base.counts.is_empty() {
            return self;
        }
        assert_eq!(
            self.bounds, base.bounds,
            "cannot diff histograms with different bucket layouts"
        );
        for (a, b) in self.counts.iter_mut().zip(&base.counts) {
            *a = a.saturating_sub(*b);
        }
        self.sum = (self.sum - base.sum).max(0.0);
        self.count = self.count.saturating_sub(base.count);
        self
    }
}

/// Every metric of a registry, frozen into plain data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Optional help strings by metric name (rendered as Prometheus
    /// `# HELP` lines; deliberately *not* part of [`Self::to_json`], whose
    /// schema is frozen at [`METRICS_SCHEMA`]).
    pub help: BTreeMap<String, String>,
}

/// Schema tag of [`RegistrySnapshot::to_json`].
pub const METRICS_SCHEMA: &str = "coolopt-telemetry-v1";

impl RegistrySnapshot {
    /// `true` when no metric holds any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Combines two snapshots: counters and histograms add (they count
    /// disjoint work), gauges keep the right-hand sample (later wins).
    /// This operation is associative, so sweep workers may fold in any
    /// grouping.
    pub fn merge(mut self, other: &RegistrySnapshot) -> RegistrySnapshot {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            let merged = self.histograms.remove(k).unwrap_or_default().merge(v);
            self.histograms.insert(k.clone(), merged);
        }
        for (k, v) in &other.help {
            self.help.insert(k.clone(), v.clone());
        }
        self
    }

    /// The delta `self − base`: counters and histogram buckets subtract
    /// (saturating), gauges keep `self`'s sample. Used for per-phase
    /// reports against a snapshot taken at phase start.
    pub fn minus(mut self, base: &RegistrySnapshot) -> RegistrySnapshot {
        for (k, v) in &base.counters {
            if let Some(slot) = self.counters.get_mut(k) {
                *slot = slot.saturating_sub(*v);
            }
        }
        let keys: Vec<String> = self.histograms.keys().cloned().collect();
        for k in keys {
            if let Some(b) = base.histograms.get(&k) {
                let diffed = self
                    .histograms
                    .remove(&k)
                    .expect("key just listed")
                    .minus(b);
                self.histograms.insert(k, diffed);
            }
        }
        self
    }

    /// Schema-stable JSON rendering (sorted keys, fixed field set):
    ///
    /// ```json
    /// {
    ///   "schema": "coolopt-telemetry-v1",
    ///   "counters": {"name": 1},
    ///   "gauges": {"name": 0.5},
    ///   "histograms": {
    ///     "name": {"buckets": [{"le": 0.001, "count": 2}],
    ///               "inf_count": 0, "sum": 0.0012, "count": 2}
    ///   }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":");
        push_json_str(&mut out, METRICS_SCHEMA);
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_json_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push_str(":{\"buckets\":[");
            for (j, (&le, &count)) in h.bounds.iter().zip(&h.counts).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"le\":");
                push_json_f64(&mut out, le);
                let _ = write!(out, ",\"count\":{count}}}");
            }
            let inf = h.counts.last().copied().unwrap_or(0);
            let _ = write!(out, "],\"inf_count\":{inf},\"sum\":");
            push_json_f64(&mut out, h.sum);
            let _ = write!(out, ",\"count\":{}}}", h.count);
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition (`# HELP`/`# TYPE` lines, cumulative
    /// `le` buckets, `_sum`/`_count` series). Help strings and label
    /// values are escaped per the text-exposition spec.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let help_line = |out: &mut String, name: &str| {
            if let Some(help) = self.help.get(name) {
                let _ = writeln!(out, "# HELP {name} {}", escape_prom_help(help));
            }
        };
        for (name, v) in &self.counters {
            help_line(&mut out, name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            help_line(&mut out, name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            help_line(&mut out, name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (&le, &count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    escape_prom_label_value(&le.to_string())
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }

    /// Human-readable end-of-run summary: counters, gauges, then
    /// histograms with count/mean/p50/p90/p99.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        let name_width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<name_width$} {:>14}", "counter", "value");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k:<name_width$} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<name_width$} {:>14}", "gauge", "value");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "{k:<name_width$} {v:>14.4}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<name_width$} {:>10} {:>12} {:>12} {:>12} {:>12}",
                "histogram", "count", "mean", "p50", "p90", "p99"
            );
            for (k, h) in &self.histograms {
                let fmt = |v: Option<f64>| match v {
                    Some(x) => format!("{x:.3e}"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{k:<name_width$} {:>10} {:>12} {:>12} {:>12} {:>12}",
                    h.count,
                    fmt(h.mean()),
                    fmt(h.quantile(0.50)),
                    fmt(h.quantile(0.90)),
                    fmt(h.quantile(0.99)),
                );
            }
        }
        out
    }
}

/// Escapes a Prometheus `# HELP` string per the text-exposition spec:
/// backslash and line feed (`\` → `\\`, newline → `\n`).
pub fn escape_prom_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a Prometheus label value per the text-exposition spec:
/// backslash, line feed and double quote (`\` → `\\`, newline → `\n`,
/// `"` → `\"`).
pub fn escape_prom_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

/// Appends a JSON string literal (quoted, escaped).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` as JSON (finite shortest-roundtrip; non-finite values
/// become `null`, which JSON cannot represent otherwise).
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}
