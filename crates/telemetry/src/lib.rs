//! Lightweight, dependency-free observability core for the CoolOpt stack.
//!
//! The crate provides three things:
//!
//! * **Metrics** — process-global, lock-free [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s, registered by name in a global
//!   [`Registry`] and acquired with [`counter`], [`gauge`] and
//!   [`histogram`]. [`Span::record_into`] times a scope into a histogram
//!   by merely existing. Everything is atomics: recording
//!   from many threads needs no locks on the hot path.
//! * **Export** — [`snapshot`] freezes the registry into a plain
//!   [`RegistrySnapshot`] that renders to a schema-stable JSON document
//!   ([`RegistrySnapshot::to_json`]), Prometheus text exposition
//!   ([`RegistrySnapshot::render_prometheus`], also available directly as
//!   [`render_prometheus`]) and a human end-of-run table
//!   ([`RegistrySnapshot::render_table`]). Snapshots [`merge`]
//!   (associatively) and [`diff`](RegistrySnapshot::minus), so sweeps can
//!   combine worker results or report per-phase deltas.
//! * **Events** — a structured progress stream ([`emit`], or the
//!   [`event!`]/[`info!`]/[`warn!`]/[`debug!`] macros) with `key=value`
//!   fields and three sinks: human text on stderr, JSON lines on stderr,
//!   or quiet. Binaries map `--json`/`--quiet` onto [`init_events`].
//!
//! # One build
//!
//! Everything above is compiled into every build. The crate once had an
//! `enabled` feature whose absence swapped in a zero-sized no-op mirror of
//! this API; it was deleted after measuring both builds (2-vCPU Intel Xeon
//! VM, release, interleaved runs): the full `reproduce` binary took a
//! median 0.352 s instrumented vs 0.359 s uninstrumented over 14 pairs,
//! with interquartile ranges of 24–32 % of the median, and the in-process
//! service bench of the time (since deleted; perfbench's `service.*`
//! metrics cover that layer now) gave the uninstrumented build a median
//! +3.4 % plans/s over 18 pairs (spread −15 % … +38 %), under 1 µs of a
//! ≈28 µs submission. Over TCP a request spends ≈40 ms waiting on the reply
//! write against ≈0.13 ms of request handling. [`metrics_enabled`] is
//! therefore always `true`, and the `enabled` feature selects nothing.
//!
//! [`merge`]: RegistrySnapshot::merge

#![warn(missing_docs)]

// Two groups, in this order: declaration order shapes code layout, and
// one alphabetical list measured ~10 % slower per sweep run on the
// `reproduce` benchmark workload.
mod dashboard;
mod event;
mod render;
mod tracefmt;
mod tsdbfmt;

mod metrics;
mod registry;
mod tracing;
mod tsdb;

pub use dashboard::{render_dashboard, Chart, ChartSeries};
pub use event::{
    emit, events_json, events_quiet, init_events, set_min_level, FieldValue, Level, SinkMode,
};
pub use metrics::{Counter, Gauge, Histogram, DEFAULT_LATENCY_BUCKETS};
pub use registry::{
    counter, describe, gauge, histogram, histogram_with, render_prometheus, snapshot, Registry,
};
pub use render::{
    escape_prom_help, escape_prom_label_value, HistogramSnapshot, RegistrySnapshot, METRICS_SCHEMA,
};
pub use tracefmt::{Attr, RecordKind, TraceRecord, TraceSnapshot};
pub use tracing::{
    current_span_id, flight_dropped, flight_snapshot, init_flight_recorder, reset_flight_recorder,
    span, span_child_of, trace_instant, Span, DEFAULT_FLIGHT_CAPACITY, MAX_SPAN_ATTRS,
};
pub use tsdb::{dashboard_charts, sample_registry_into, tsdb, Collector, CollectorHandle, Tsdb};
pub use tsdbfmt::{
    aggregate, wall_ms, Agg, QueryResult, RangeQuery, SeriesStats, TsdbConfig, TsdbStats,
};

/// Always `true`: the metrics core is compiled into every build.
///
/// Kept because the frozen v1 report schemas carry a `metrics_enabled`
/// field (and `tsdb_enabled`/`trace_enabled` in the service replies),
/// which exporters fill from here.
pub const fn metrics_enabled() -> bool {
    true
}
