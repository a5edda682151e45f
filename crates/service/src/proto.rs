//! Line-delimited JSON wire protocol for `coolopt-serve`.
//!
//! One request per line, one response line per request:
//!
//! ```json
//! {"tenant": "testbed_rack20/rack", "load": 12.0}
//! {"tenant": "testbed_rack20/rack", "loads": [1.0, 2.5, 14.0]}
//! {"cmd": "stats"}
//! {"cmd": "metrics"}
//! ```
//!
//! A tenant may be addressed by its registration key
//! (`"{scenario name}/{zone name}"`) or by its content-hash alias
//! (`"{content_hash}/{zone name}"`). Responses echo the tenant and carry
//! one [`PlanReply`] per requested load; service-level failures (unknown
//! tenant, shed by backpressure, malformed request) set `ok = false` with
//! a human-readable `error` and no results.
//!
//! The observability plane is in-protocol: `{"cmd": "stats"}` answers one
//! [`ServiceStatsDoc`] line (schema `coolopt-service-stats-v1` — per-tenant
//! windowed quantiles, SLO verdicts, burn rates), `{"cmd": "metrics"}`
//! answers a [`MetricsReply`] wrapping the Prometheus text exposition,
//! `{"cmd": "query"}` answers a [`QueryReply`] of compressed metric
//! *history* from the embedded time-series store (series selection by
//! exact name or `prefix*`, optional `start_ms`/`end_ms` window, optional
//! `step_ms` + `agg` alignment), and `{"cmd": "trace"}` ships the newest
//! flight-recorder spans as an embedded Chrome-trace fragment (bounded by
//! `limit`). All are safe concurrent with planning traffic,
//! re-registration and eviction — no scrape ever blocks a batch.
//!
//! [`serve_lines`] is the serve loop both `coolopt-serve` transports run:
//! bounded byte-level reads, so an over-long or non-UTF-8 line costs one
//! error reply, never the connection.

use crate::core::ServiceCore;
use crate::stats::ServiceStatsDoc;
use crate::{PlanResult, ServiceError};
use coolopt_core::Consolidation;
use coolopt_telemetry as telemetry;
use coolopt_telemetry::{Agg, RangeQuery};
use serde::{Deserialize, Serialize};
use serde_json::value::RawValue;
use std::io::{self, BufRead, Read};

/// One wire request: a planning submission (a single `load`, a burst of
/// `loads`, or both — the single load is planned after the burst), or an
/// observability command (`"cmd": "stats"` / `"cmd": "metrics"` /
/// `"cmd": "query"` / `"cmd": "trace"`, which need no tenant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Command selector: absent or `"plan"` plans loads; `"stats"`,
    /// `"metrics"`, `"query"` and `"trace"` scrape the observability
    /// plane.
    #[serde(default)]
    pub cmd: Option<String>,
    /// Tenant key or content-hash alias (planning requests only).
    #[serde(default)]
    pub tenant: String,
    /// A single load to plan.
    #[serde(default)]
    pub load: Option<f64>,
    /// A burst of loads to plan as one submission.
    #[serde(default)]
    pub loads: Option<Vec<f64>>,
    /// `query` only: series selector — exact name, `prefix*`, or absent /
    /// `"*"` for every series.
    #[serde(default)]
    pub series: Option<String>,
    /// `query` only: oldest timestamp to include (ms; unbounded when
    /// absent).
    #[serde(default)]
    pub start_ms: Option<i64>,
    /// `query` only: newest timestamp to include (ms; unbounded when
    /// absent).
    #[serde(default)]
    pub end_ms: Option<i64>,
    /// `query` only: step alignment in ms (absent or `<= 0` returns raw
    /// points).
    #[serde(default)]
    pub step_ms: Option<i64>,
    /// `query` only: bucket aggregator — `"min"`, `"max"`, `"mean"`
    /// (default) or `"last"`.
    #[serde(default)]
    pub agg: Option<String>,
    /// `query`: newest points kept per series (default 2048).
    /// `trace`: newest records shipped (default 256). Clamped to 4096.
    #[serde(default)]
    pub limit: Option<usize>,
}

/// The answer for one requested load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReply {
    /// The load as requested.
    pub load: f64,
    /// Whether any machine subset can carry the load (`plan` is present
    /// exactly when this is `true`).
    pub feasible: bool,
    /// The minimum-power consolidation, when feasible.
    #[serde(default)]
    pub plan: Option<Consolidation>,
    /// Engine-level rejection for this load (e.g. negative or non-finite),
    /// mirroring the sequential error text.
    #[serde(default)]
    pub error: Option<String>,
}

impl PlanReply {
    fn from_result(load: f64, result: PlanResult) -> Self {
        match result {
            Ok(Some(plan)) => PlanReply {
                load,
                feasible: true,
                plan: Some(plan),
                error: None,
            },
            Ok(None) => PlanReply {
                load,
                feasible: false,
                plan: None,
                error: None,
            },
            Err(e) => PlanReply {
                load,
                feasible: false,
                plan: None,
                error: Some(e.to_string()),
            },
        }
    }
}

/// One wire response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the requested tenant (empty when the request line did not
    /// even parse).
    pub tenant: String,
    /// Whether the submission was served. Per-load failures (an
    /// infeasible or rejected load) still count as served; `false` means
    /// the service refused the submission as a whole.
    pub ok: bool,
    /// Service-level failure, when `ok` is `false`.
    #[serde(default)]
    pub error: Option<String>,
    /// One reply per requested load, in request order.
    #[serde(default)]
    pub results: Vec<PlanReply>,
}

impl Response {
    fn refused(tenant: &str, error: &ServiceError) -> Self {
        Response {
            tenant: tenant.to_string(),
            ok: false,
            error: Some(error.to_string()),
            results: Vec::new(),
        }
    }

    /// The refusal of a line that is not a request at all.
    fn malformed(error: impl std::fmt::Display) -> Self {
        Response {
            tenant: String::new(),
            ok: false,
            error: Some(format!("malformed request: {error}")),
            results: Vec::new(),
        }
    }
}

/// Schema tag stamped on every [`MetricsReply`].
pub const METRICS_REPLY_SCHEMA: &str = "coolopt-service-metrics-v1";

/// The `{"cmd": "metrics"}` answer: Prometheus text exposition wrapped in
/// one JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Always [`METRICS_REPLY_SCHEMA`].
    pub schema: String,
    /// Always `true` (frozen v1 field).
    pub metrics_enabled: bool,
    /// Flight-recorder records lost to ring lap or contention.
    pub flight_dropped: u64,
    /// Prometheus text exposition of the full metrics registry plus the
    /// service counters, rendered from the same [`StatsSnapshot`] values
    /// the `stats` document reports.
    ///
    /// [`StatsSnapshot`]: crate::StatsSnapshot
    pub prometheus: String,
}

/// Schema tag stamped on every [`QueryReply`].
pub const QUERY_REPLY_SCHEMA: &str = "coolopt-service-query-v1";

/// Schema tag stamped on every [`TraceReply`].
pub const TRACE_REPLY_SCHEMA: &str = "coolopt-service-trace-v1";

/// One series in a [`QueryReply`]: the answered points plus the storage
/// accounting behind them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesDoc {
    /// The series name.
    pub name: String,
    /// `[t_ms, value]` samples (newest `limit` kept; non-finite values
    /// are dropped — the vendored JSON writer would render them `null`).
    pub points: Vec<(i64, f64)>,
    /// Samples ever appended (evicted ones included).
    pub appended: u64,
    /// Samples currently decodable across both retention tiers.
    pub retained_points: u64,
    /// Compressed bytes held across both tiers.
    pub stored_bytes: u64,
    /// Uncompressed-pair bytes over compressed bytes for this series.
    pub compression_ratio: f64,
}

/// The `{"cmd": "query"}` answer: compressed metric history out of the
/// embedded time-series store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryReply {
    /// Always [`QUERY_REPLY_SCHEMA`].
    pub schema: String,
    /// Always `true` (frozen v1 field).
    pub tsdb_enabled: bool,
    /// Echo of the effective series selector.
    pub pattern: String,
    /// Echo of the effective aggregator spelling.
    pub agg: String,
    /// Echo of the effective step (ms; `0` means raw points).
    pub step_ms: i64,
    /// Matched series, in name order.
    pub series: Vec<SeriesDoc>,
    /// Distinct series in the whole store (not just the matches).
    pub total_series: u64,
    /// Decodable samples in the whole store.
    pub total_points: u64,
    /// Compressed bytes held by the whole store.
    pub total_stored_bytes: u64,
    /// What those samples would cost as plain `(i64, f64)` pairs.
    pub total_raw_bytes: u64,
    /// `total_raw_bytes / total_stored_bytes` (zero when empty).
    pub compression_ratio: f64,
}

/// The `{"cmd": "trace"}` answer: the newest flight-recorder records as an
/// embedded Chrome-trace fragment. `chrome_json` is a raw value, written
/// into the reply line verbatim, so `reply.chrome_json` can be cut out and
/// loaded straight into `chrome://tracing` / Perfetto.
#[derive(Debug, Clone, Serialize)]
pub struct TraceReply {
    /// Always [`TRACE_REPLY_SCHEMA`].
    pub schema: String,
    /// Always `true` (frozen v1 field).
    pub trace_enabled: bool,
    /// Records in the full snapshot before the `limit` cut.
    pub total_records: u64,
    /// Records shipped in `chrome_json`.
    pub returned: u64,
    /// Records lost to ring lap or contention since recorder start.
    pub dropped: u64,
    /// Chrome `traceEvents` JSON object for the shipped records.
    pub chrome_json: Box<RawValue>,
}

/// One wire reply of any kind. [`Reply::encode`] renders the line to
/// write back.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A planning response (also carries request-level errors).
    Plan(Response),
    /// A `stats` snapshot.
    Stats(ServiceStatsDoc),
    /// A `metrics` exposition.
    Metrics(MetricsReply),
    /// A `query` range-query answer.
    Query(QueryReply),
    /// A `trace` flight-recorder scrape.
    Trace(TraceReply),
}

impl Reply {
    /// Renders the reply as its one-line JSON wire form.
    pub fn encode(&self) -> String {
        match self {
            Reply::Plan(response) => serde_json::to_string(response),
            Reply::Stats(doc) => serde_json::to_string(doc),
            Reply::Metrics(reply) => serde_json::to_string(reply),
            Reply::Query(reply) => serde_json::to_string(reply),
            Reply::Trace(reply) => serde_json::to_string(reply),
        }
        .expect("wire replies always encode")
    }
}

/// Serves one request line against `core`, returning the typed reply.
/// Never panics on malformed input.
pub fn handle_request(core: &ServiceCore, line: &str) -> Reply {
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(e) => return Reply::Plan(Response::malformed(e)),
    };
    match request.cmd.as_deref() {
        None | Some("plan") => Reply::Plan(handle_plan(core, request)),
        Some("stats") => Reply::Stats(core.stats_doc()),
        Some("metrics") => {
            // Surface the drop count in the exposition itself too, so a
            // plain Prometheus scrape sees recorder health.
            let dropped = telemetry::flight_dropped();
            telemetry::gauge("coolopt_flight_records_dropped").set(dropped as f64);
            let mut exposition = telemetry::snapshot();
            core.stats().snapshot().export_into(&mut exposition);
            Reply::Metrics(MetricsReply {
                schema: METRICS_REPLY_SCHEMA.to_string(),
                metrics_enabled: telemetry::metrics_enabled(),
                flight_dropped: dropped,
                prometheus: exposition.render_prometheus(),
            })
        }
        Some("query") => match handle_query(&request) {
            Ok(reply) => Reply::Query(reply),
            Err(error) => Reply::Plan(Response {
                tenant: request.tenant,
                ok: false,
                error: Some(error),
                results: Vec::new(),
            }),
        },
        Some("trace") => Reply::Trace(handle_trace(&request)),
        Some(other) => Reply::Plan(Response {
            tenant: request.tenant,
            ok: false,
            error: Some(format!("unknown command {other:?}")),
            results: Vec::new(),
        }),
    }
}

/// Points kept per series when a `query` names no `limit`.
const DEFAULT_QUERY_LIMIT: usize = 2048;

/// Records shipped when a `trace` names no `limit`.
const DEFAULT_TRACE_LIMIT: usize = 256;

/// Hard ceiling on `limit` — one reply stays one bounded line.
const MAX_LIMIT: usize = 4096;

fn handle_query(request: &Request) -> Result<QueryReply, String> {
    let agg = match request.agg.as_deref() {
        None | Some("") => Agg::default(),
        Some(s) => Agg::parse(s)
            .ok_or_else(|| format!("unknown agg {s:?} (expected min, max, mean or last)"))?,
    };
    let range = RangeQuery {
        start_ms: request.start_ms,
        end_ms: request.end_ms,
        step_ms: request.step_ms.unwrap_or(0).max(0),
        agg,
    };
    let limit = request
        .limit
        .unwrap_or(DEFAULT_QUERY_LIMIT)
        .clamp(1, MAX_LIMIT);
    let pattern = request.series.clone().unwrap_or_else(|| "*".to_string());
    let db = telemetry::tsdb();
    let series = db
        .query_matching(&pattern, &range)
        .into_iter()
        .map(|result| {
            let mut points: Vec<(i64, f64)> = result
                .points
                .into_iter()
                .filter(|&(_, v)| v.is_finite())
                .collect();
            let skip = points.len().saturating_sub(limit);
            points.drain(..skip);
            SeriesDoc {
                name: result.name,
                points,
                appended: result.stats.appended,
                retained_points: result.stats.retained_points + result.stats.down_points,
                stored_bytes: result.stats.stored_bytes + result.stats.down_bytes,
                compression_ratio: result.stats.compression_ratio(),
            }
        })
        .collect();
    let totals = db.stats();
    Ok(QueryReply {
        schema: QUERY_REPLY_SCHEMA.to_string(),
        tsdb_enabled: telemetry::metrics_enabled(),
        pattern,
        agg: agg.name().to_string(),
        step_ms: range.step_ms,
        series,
        total_series: totals.series,
        total_points: totals.points,
        total_stored_bytes: totals.stored_bytes,
        total_raw_bytes: totals.raw_bytes,
        compression_ratio: totals.compression_ratio(),
    })
}

fn handle_trace(request: &Request) -> TraceReply {
    let limit = request
        .limit
        .unwrap_or(DEFAULT_TRACE_LIMIT)
        .clamp(1, MAX_LIMIT);
    let snapshot = telemetry::flight_snapshot();
    let total_records = snapshot.records.len() as u64;
    let tail = snapshot.tail(limit);
    TraceReply {
        schema: TRACE_REPLY_SCHEMA.to_string(),
        trace_enabled: telemetry::metrics_enabled(),
        total_records,
        returned: tail.records.len() as u64,
        dropped: tail.dropped,
        chrome_json: RawValue::from_string(tail.to_chrome_json())
            .expect("the flight recorder renders one JSON document"),
    }
}

/// Serves one request line against `core`, returning the reply line to
/// write back (the string form of [`handle_request`]).
pub fn handle_line(core: &ServiceCore, line: &str) -> String {
    handle_request(core, line).encode()
}

/// Longest request line [`serve_lines`] buffers, in bytes, line ending
/// excluded. It sits above the 1 000 000-byte deeply nested line the
/// parser's recursion limit is tested with.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves line-delimited requests from `input` until it ends, writing one
/// reply line per non-blank request line to `output`.
///
/// Lines end at `\n` or `\r\n`; lines of only whitespace are skipped. At
/// most [`MAX_LINE_BYTES`] of a line are buffered: a longer line is
/// answered with one `ok: false` reply and discarded up to its newline. A
/// line that is not UTF-8 is answered with one `ok: false` "malformed
/// request" reply. Each reply is written with one `writeln!`.
///
/// # Errors
///
/// Returns the first read error from `input`. A failed write ends the loop
/// with `Ok(())`: nobody is left to answer.
pub fn serve_lines(
    core: &ServiceCore,
    mut input: impl BufRead,
    mut output: impl io::Write,
) -> io::Result<()> {
    let mut line = Vec::new();
    loop {
        line.clear();
        // Two bytes of headroom hold a full-length line's `\r\n`.
        let read = input
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 2)
            .read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(());
        }
        let terminated = line.last() == Some(&b'\n');
        if terminated {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        let encoded = if line.len() > MAX_LINE_BYTES {
            if !terminated {
                input.skip_until(b'\n')?;
            }
            let error = format!("line longer than {MAX_LINE_BYTES} bytes");
            Reply::Plan(Response::malformed(error)).encode()
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => handle_line(core, text),
                Err(e) => Reply::Plan(Response::malformed(e)).encode(),
            }
        };
        if writeln!(output, "{encoded}").is_err() {
            return Ok(());
        }
    }
}

fn handle_plan(core: &ServiceCore, request: Request) -> Response {
    let mut loads = request.loads.unwrap_or_default();
    if let Some(load) = request.load {
        loads.push(load);
    }
    if loads.is_empty() {
        return Response {
            tenant: request.tenant,
            ok: false,
            error: Some("request carries neither `load` nor `loads`".to_string()),
            results: Vec::new(),
        };
    }
    match core.submit(&request.tenant, &loads) {
        Ok(results) => Response {
            tenant: request.tenant,
            ok: true,
            error: None,
            results: loads
                .iter()
                .zip(results)
                .map(|(&load, result)| PlanReply::from_result(load, result))
                .collect(),
        },
        Err(e) => Response::refused(&request.tenant, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_reply_bytes_are_pinned() {
        let chrome_json = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"name":"submit","cat":"coolopt","ph":"X","pid":1,"tid":2,"ts":1.5,"dur":0.25,"#,
            r#""args":{"id":7,"parent":0,"tenant":"rack \"a\""}},"#,
            r#"{"name":"shed","cat":"coolopt","ph":"i","s":"t","pid":1,"tid":2,"ts":2.0,"#,
            r#""args":{"id":8,"parent":7}}]}"#,
        );
        let reply = Reply::Trace(TraceReply {
            schema: TRACE_REPLY_SCHEMA.to_string(),
            trace_enabled: true,
            total_records: 3,
            returned: 2,
            dropped: 1,
            chrome_json: RawValue::from_string(chrome_json.to_string()).unwrap(),
        });
        let expected = format!(
            "{}{chrome_json}}}",
            concat!(
                r#"{"schema":"coolopt-service-trace-v1","trace_enabled":true,"#,
                r#""total_records":3,"returned":2,"dropped":1,"chrome_json":"#,
            )
        );
        assert_eq!(reply.encode(), expected);
    }
}
