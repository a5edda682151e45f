//! The service stats snapshot document: schema `coolopt-service-stats-v1`.
//!
//! [`ServiceCore::stats_doc`] freezes the whole observability plane into
//! one serializable [`ServiceStatsDoc`]: the service counters with their
//! derived rates, the flight recorder's drop count, and one row per
//! tenant carrying windowed queue-wait/run quantiles and the SLO verdict.
//! This is what the in-protocol `stats` command returns and what
//! `coolopt-serve --stats-every` prints, so a live service is scrapeable
//! over the same wire that carries planning traffic.
//!
//! The snapshot is built entirely from atomics, each tenant's window ring
//! and short per-tenant locks — safe concurrent with planning traffic,
//! re-registration and eviction. A tenant row reads its latency and its
//! verdict from the same windows at one instant (counters may advance
//! between rows, never inside one field).

use crate::core::{ServiceCore, StatsSnapshot};
use crate::slo::{SloVerdict, WINDOWS, WINDOW_SECONDS};
use crate::tenant::Tenant;
use coolopt_telemetry as telemetry;
use serde::Serialize;

/// Schema tag stamped on every [`ServiceStatsDoc`].
pub const SERVICE_STATS_SCHEMA: &str = "coolopt-service-stats-v1";

/// Windowed latency quantiles for one attribution stage, in microseconds.
/// All quantiles are `null` when the window recorded nothing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyDoc {
    /// Loads recorded in the window.
    pub count: u64,
    /// Mean latency (µs), `null` on an empty window.
    pub mean_us: Option<f64>,
    /// Median (µs).
    pub p50_us: Option<f64>,
    /// 99th percentile (µs).
    pub p99_us: Option<f64>,
    /// 99.9th percentile (µs).
    pub p999_us: Option<f64>,
}

impl LatencyDoc {
    /// Renders a histogram snapshot (seconds domain) as microsecond
    /// quantiles.
    pub fn from_snapshot(snapshot: &telemetry::HistogramSnapshot) -> Self {
        let us = |q: f64| snapshot.quantile(q).map(|s| s * 1e6);
        LatencyDoc {
            count: snapshot.count,
            mean_us: if snapshot.count == 0 {
                None
            } else {
                Some(snapshot.sum / snapshot.count as f64 * 1e6)
            },
            p50_us: us(0.50),
            p99_us: us(0.99),
            p999_us: us(0.999),
        }
    }
}

/// One tenant's row in the stats snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantStatsDoc {
    /// Registration key (`"{scenario}/{zone}"` or an explicit key).
    pub key: String,
    /// Stable tenant id (hex).
    pub id: String,
    /// Machines in the published engine (0 before the first publish).
    pub machines: usize,
    /// Engine kind serving this tenant (`"flat"`, `"hier"`, or `"none"`).
    pub engine: String,
    /// Engine publication count.
    pub generation: u64,
    /// Loads pending in the admission queue right now.
    pub queued: usize,
    /// Windowed join → batch-start latency.
    pub queue_wait: LatencyDoc,
    /// Windowed batch-start → publish latency.
    pub run: LatencyDoc,
    /// The SLO verdict, evaluated at snapshot time.
    pub slo: SloVerdict,
}

impl TenantStatsDoc {
    fn of(tenant: &Tenant) -> Self {
        let (machines, engine) = match tenant.snapshot() {
            Some(snapshot) => (snapshot.machine_count(), snapshot.engine_name().to_string()),
            None => (0, "none".to_string()),
        };
        let slo = tenant.slo();
        let at_ns = slo.elapsed_ns();
        let (queue_wait, run) = slo.latency_at_ns(at_ns);
        TenantStatsDoc {
            key: tenant.key().to_string(),
            id: tenant.id().to_string(),
            machines,
            engine,
            generation: tenant.generation(),
            queued: tenant.queued(),
            queue_wait: LatencyDoc::from_snapshot(&queue_wait),
            run: LatencyDoc::from_snapshot(&run),
            slo: slo.verdict_at_ns(at_ns),
        }
    }
}

/// The full service stats snapshot. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceStatsDoc {
    /// Always [`SERVICE_STATS_SCHEMA`].
    pub schema: String,
    /// Always `true` (frozen v1 field).
    pub metrics_enabled: bool,
    /// Seconds since the service core was constructed.
    pub uptime_seconds: f64,
    /// Seconds per window of each tenant's ring (always 10).
    pub window_seconds: f64,
    /// Windows in each tenant's ring (always 6): the span of the latency
    /// quantiles and of the slow burn view.
    pub windows: usize,
    /// The service counters.
    pub totals: StatsSnapshot,
    /// Mean loads per drained micro-batch (0 before the first batch).
    pub mean_batch_size: f64,
    /// Shed loads over all admission attempts (0 before the first).
    pub shed_rate: f64,
    /// Flight-recorder records lost to ring lap or contention.
    pub flight_dropped: u64,
    /// One row per distinct registered tenant, sorted by key.
    pub tenants: Vec<TenantStatsDoc>,
}

impl ServiceCore {
    /// Freezes the observability plane into a [`ServiceStatsDoc`] — the
    /// payload of the wire `stats` command and the `--stats-every` line.
    pub fn stats_doc(&self) -> ServiceStatsDoc {
        let totals = self.stats().snapshot();
        let mut tenants: Vec<TenantStatsDoc> = self
            .tenants()
            .iter()
            .map(|t| TenantStatsDoc::of(t))
            .collect();
        tenants.sort_by(|a, b| a.key.cmp(&b.key));
        ServiceStatsDoc {
            schema: SERVICE_STATS_SCHEMA.to_string(),
            metrics_enabled: telemetry::metrics_enabled(),
            uptime_seconds: self.uptime_seconds(),
            window_seconds: WINDOW_SECONDS,
            windows: WINDOWS,
            mean_batch_size: totals.mean_batch_size(),
            shed_rate: totals.shed_rate(),
            totals,
            flight_dropped: telemetry::flight_dropped(),
            tenants,
        }
    }
}
