//! Planner-as-a-service: a sharded, multi-tenant concurrent query core.
//!
//! The consolidation engine answers a min-power plan query in well under a
//! microsecond when queries arrive *batched* ([`IndexSnapshot::query_batch`]
//! amortizes the envelope walk over the whole batch), but an online
//! controller does not see batches — it sees thousands of independent rooms
//! (*tenants*), each producing a continuous stream of single load queries
//! from many concurrent clients. This crate turns the engine into that
//! controller:
//!
//! * [`TenantRegistry`] — a sharded map `scenario content_hash → tenant`.
//!   Each tenant wraps the PR 3 [`SnapshotCell`]: reads are a pointer
//!   clone, registration/eviction take one short per-shard lock, and
//!   re-registering a changed scenario atomically swaps the published
//!   engine while in-flight queries keep the old one. Engine selection
//!   (exact flat vs hierarchical clustered) follows
//!   [`IndexSnapshot::for_parts`] unchanged.
//! * [`Coalescer`] — the admission layer. Concurrent submissions for the
//!   same tenant gather in a *filling* micro-batch; one submitter becomes
//!   the batch leader, waits its turn on the tenant's run token (at most
//!   one batch of a tenant plans at a time, so the next batch fills
//!   exactly while the current one runs — self-clocking group commit),
//!   drains the batch through one `query_batch` call and distributes the
//!   answers. Queues are bounded: past
//!   [`CoalesceConfig::max_queued`] pending loads a submission is **shed
//!   with an explicit error** ([`ServiceError::Overloaded`]) rather than
//!   queued without bound. A submission of more than
//!   [`CoalesceConfig::max_batch`] loads never reaches admission: it is
//!   refused with [`ServiceError::TooManyLoads`], which is neither shed
//!   nor an SLO attempt.
//! * [`ServiceCore`] — ties the two together and carries the
//!   [`ServiceStats`] (plans served, batches, shed count, batch-size
//!   distribution; the one global count of each, which the `stats`,
//!   `metrics` and `query` surfaces all read), a reply-latency histogram
//!   and `service_batch → service_plan_batch → service_reply`
//!   flight-recorder spans.
//! * The **observability plane** — every submission's latency is split
//!   into *queue wait* (join → batch start) and *run* (batch start →
//!   publish) and recorded, with its SLO attempts and bad outcomes, into
//!   one per-tenant ring of windows ([`slo`]), which does error-budget
//!   and multi-window burn-rate accounting against the tenant's declared
//!   [`SloPolicy`] (service default or the scenario's policy block),
//!   raising `warn`-level events with tail-sampled exemplar span ids on
//!   sustained burn. A live service answers in-protocol `stats`
//!   (schema `coolopt-service-stats-v1`, see [`stats`]) and `metrics`
//!   (Prometheus text) scrapes concurrent with planning traffic.
//!
//! # Correctness bar
//!
//! Coalescing must be invisible: the answer a client gets for load `L` is
//! bit-identical to what a sequential [`IndexSnapshot::query_min_power`]
//! against the tenant's published snapshot would return — the same
//! discipline that pins batched ≡ sequential at the index layer.
//! `tests/coalesce_identity.rs` proptests this under real thread
//! interleavings.
//!
//! [`SnapshotCell`]: coolopt_core::SnapshotCell
//! [`IndexSnapshot::query_batch`]: coolopt_core::IndexSnapshot::query_batch
//! [`IndexSnapshot::for_parts`]: coolopt_core::IndexSnapshot::for_parts
//! [`IndexSnapshot::query_min_power`]: coolopt_core::IndexSnapshot::query_min_power

#![warn(missing_docs)]

pub mod coalesce;
pub mod core;
pub mod proto;
pub mod registry;
pub mod slo;
pub mod stats;
pub mod tenant;

pub use crate::core::{ServiceConfig, ServiceCore, ServiceStats, StatsSnapshot};
pub use coalesce::{BatchMeta, CoalesceConfig, Coalescer};
pub use coolopt_scenario::SloPolicy;
pub use registry::TenantRegistry;
pub use slo::{BurnWindow, Exemplar, SloVerdict, BURN_ALERT_RATE};
pub use stats::{LatencyDoc, ServiceStatsDoc, TenantStatsDoc, SERVICE_STATS_SCHEMA};
pub use tenant::{Tenant, TenantId};

use coolopt_core::SolveError;
use std::fmt;

/// One per-load outcome: the minimum-power consolidation (or `None` when no
/// subset can carry the load), exactly as the engine's sequential query
/// would report it.
pub type PlanResult = Result<Option<coolopt_core::Consolidation>, SolveError>;

/// Service-layer error.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The tenant is not registered (or was evicted).
    UnknownTenant {
        /// The requested tenant.
        tenant: String,
    },
    /// Backpressure: the tenant's admission queue is full and the
    /// submission was shed instead of queued without bound.
    Overloaded {
        /// The overloaded tenant.
        tenant: String,
        /// Pending loads at shed time.
        queued: usize,
        /// The configured queue bound.
        limit: usize,
    },
    /// The submission carries more loads than one micro-batch
    /// ([`CoalesceConfig::max_batch`]) and was refused before admission.
    TooManyLoads {
        /// The addressed tenant.
        tenant: String,
        /// Loads the submission carried.
        loads: usize,
        /// The configured per-batch bound.
        limit: usize,
    },
    /// The engine rejected the query (mirrors the sequential error).
    Solve(SolveError),
    /// A scenario could not be turned into tenants.
    Scenario(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            ServiceError::Overloaded {
                tenant,
                queued,
                limit,
            } => write!(
                f,
                "tenant {tenant:?} overloaded: {queued} loads pending (limit {limit})"
            ),
            ServiceError::TooManyLoads {
                tenant,
                loads,
                limit,
            } => write!(
                f,
                "too many loads for tenant {tenant:?}: {loads} in one request (limit {limit})"
            ),
            ServiceError::Solve(e) => write!(f, "query failed: {e}"),
            ServiceError::Scenario(reason) => write!(f, "scenario rejected: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SolveError> for ServiceError {
    fn from(e: SolveError) -> Self {
        ServiceError::Solve(e)
    }
}
