//! Micro-batch admission: coalescing concurrent queries into `query_batch`.
//!
//! The engine's batched query path amortizes its envelope walk over a whole
//! batch (~4× per query at n = 200, ~5× at n = 20), but concurrent clients
//! submit *single* loads. The [`Coalescer`] recovers the batch shape with a
//! flat-combining scheme that needs no dedicated threads and no timers:
//!
//! 1. A submission joins the tenant's *filling* batch (or opens one and
//!    becomes its **leader**).
//! 2. The leader queues on the tenant's **run token** — a mutex admitting
//!    one planning batch per tenant at a time. While it waits, its batch
//!    keeps filling with later submissions: the next batch accumulates
//!    exactly as long as the current one takes to plan, so batch size
//!    adapts to load with no tuning parameter (group commit).
//! 3. Token in hand, the leader closes the batch, drains it through one
//!    [`IndexSnapshot::query_batch`] call against the tenant's *currently
//!    published* snapshot, publishes the answers and wakes the followers;
//!    each submitter takes the answers for its own contiguous range.
//!
//! Backpressure is explicit: a submission that would push the tenant's
//! pending-load count past [`CoalesceConfig::max_queued`] is shed with
//! [`Shed`] (surfaced as [`ServiceError::Overloaded`]) instead of growing
//! any queue without bound. A batch that reaches
//! [`CoalesceConfig::max_batch`] loads stops accepting joins; the next
//! submission simply opens the successor batch. A submission larger than
//! `max_batch` never gets here: [`Tenant::submit`] refuses it with
//! [`ServiceError::TooManyLoads`].
//!
//! [`IndexSnapshot::query_batch`]: coolopt_core::IndexSnapshot::query_batch
//! [`ServiceError::Overloaded`]: crate::ServiceError::Overloaded
//! [`ServiceError::TooManyLoads`]: crate::ServiceError::TooManyLoads
//! [`Tenant::submit`]: crate::Tenant::submit

use crate::core::ServiceStats;
use coolopt_core::{Consolidation, SnapshotCell, SolveError};
use coolopt_telemetry as telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission limits for one tenant's coalescer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Most loads one micro-batch carries; a full batch closes to joins and
    /// the next submission opens its successor. A tenant refuses a
    /// submission of more loads than this.
    pub max_batch: usize,
    /// Most loads allowed pending (filling + awaiting the run token) per
    /// tenant before submissions are shed with an error.
    pub max_queued: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_batch: 512,
            max_queued: 8192,
        }
    }
}

/// Shed notice: the submission was refused by backpressure, not planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Pending loads at shed time (including this submission's).
    pub queued: usize,
    /// The configured bound that was hit.
    pub limit: usize,
}

/// Batch life cycle. `Filling` accepts joins; the leader moves it through
/// `Running` (loads drained into one `query_batch` call) to `Done`
/// (answers published, followers woken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Filling,
    Running,
    Done,
}

/// Answers are taken (not cloned) by each submitter for its own disjoint
/// range, so `None` after `Done` means "infeasible", exactly as the
/// sequential query reports it.
pub type BatchOutcome = Result<Vec<Option<Consolidation>>, SolveError>;

/// Per-submission latency attribution, measured on the monotonic clock.
///
/// `queue_wait` is batch start minus this submission's join (how long its
/// loads sat filling / awaiting the run token); `run` is the shared
/// plan-and-publish time of the batch that served it. The split is what
/// each tenant's window ring and the `stats` scrape report —
/// queue-wait grows under contention, run grows with engine cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchMeta {
    /// Flight-recorder span id of the serving `service_batch` span.
    pub span_id: u64,
    /// This submission's join → batch start.
    pub queue_wait: Duration,
    /// Batch start → answers published (shared by the whole batch).
    pub run: Duration,
}

#[derive(Debug)]
struct BatchInner {
    phase: Phase,
    loads: Vec<f64>,
    outcome: Option<BatchOutcome>,
    /// Set by the leader when the batch is drained (start of `Running`).
    started: Option<Instant>,
    /// Set by the leader when answers are published (`Done`).
    finished: Option<Instant>,
    /// The serving `service_batch` span id, for exemplar attribution.
    span_id: u64,
}

#[derive(Debug)]
struct Batch {
    inner: Mutex<BatchInner>,
    done: Condvar,
}

impl Batch {
    fn open(loads: &[f64]) -> Arc<Self> {
        Arc::new(Batch {
            inner: Mutex::new(BatchInner {
                phase: Phase::Filling,
                loads: loads.to_vec(),
                outcome: None,
                started: None,
                finished: None,
                span_id: 0,
            }),
            done: Condvar::new(),
        })
    }
}

/// One tenant's admission/coalescing state. See the module docs for the
/// protocol.
#[derive(Debug)]
pub struct Coalescer {
    config: CoalesceConfig,
    /// The batch currently accepting joins, if any.
    filling: Mutex<Option<Arc<Batch>>>,
    /// Admits one planning batch per tenant at a time; the next batch fills
    /// while the current one runs.
    run_token: Mutex<()>,
    /// Loads pending (filling or awaiting the token) — the backpressure
    /// meter.
    queued: AtomicUsize,
    /// Process-wide statistics, shared across tenants.
    stats: Arc<ServiceStats>,
    /// Numeric tenant handle for span attribution.
    tenant_attr: u64,
}

impl Coalescer {
    /// A fresh coalescer recording into `stats` and attributing its spans
    /// to `tenant_attr`.
    pub fn new(config: CoalesceConfig, stats: Arc<ServiceStats>, tenant_attr: u64) -> Self {
        Coalescer {
            config,
            filling: Mutex::new(None),
            run_token: Mutex::new(()),
            queued: AtomicUsize::new(0),
            stats,
            tenant_attr,
        }
    }

    /// The admission limits this coalescer enforces.
    pub fn config(&self) -> CoalesceConfig {
        self.config
    }

    /// Loads currently pending for this tenant.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }

    /// Submits a contiguous run of pre-validated loads (each finite and
    /// non-negative) and blocks until their answers are available, planning
    /// them through at most one shared `query_batch` call per micro-batch.
    /// Returns one answer per submitted load, in submission order,
    /// bit-identical to sequential [`IndexSnapshot::query_min_power`]
    /// against the snapshot published in `cell` when the batch ran, plus a
    /// [`BatchMeta`] attributing this submission's latency to queue wait
    /// vs batch run time.
    ///
    /// # Errors
    ///
    /// [`Shed`] when backpressure refuses the submission. The engine itself
    /// cannot fail on pre-validated loads, but an engine error would be
    /// reported (cloned) to every submitter of the batch via `Ok`'s `Err`
    /// arm — see [`BatchOutcome`](self) — so no submitter ever hangs.
    ///
    /// [`IndexSnapshot::query_min_power`]: coolopt_core::IndexSnapshot::query_min_power
    pub fn submit(
        &self,
        loads: &[f64],
        cell: &SnapshotCell,
    ) -> Result<(BatchOutcome, BatchMeta), Shed> {
        let joined = Instant::now();
        let count = loads.len();
        if count == 0 {
            return Ok((Ok(Vec::new()), BatchMeta::default()));
        }
        let queued = self.queued.fetch_add(count, Ordering::AcqRel) + count;
        if queued > self.config.max_queued {
            self.queued.fetch_sub(count, Ordering::AcqRel);
            self.stats.record_shed(count);
            return Err(Shed {
                queued,
                limit: self.config.max_queued,
            });
        }

        let (batch, start, leader) = self.join(loads);
        if leader {
            self.lead(&batch, cell);
        }

        // Collect this submission's disjoint range.
        let mut inner = batch.inner.lock().expect("batch lock poisoned");
        while inner.phase != Phase::Done {
            inner = batch.done.wait(inner).expect("batch lock poisoned");
        }
        let result = match inner.outcome.as_mut().expect("done batch has an outcome") {
            Ok(answers) => Ok(answers[start..start + count]
                .iter_mut()
                .map(Option::take)
                .collect()),
            Err(e) => Err(e.clone()),
        };
        let meta = BatchMeta {
            span_id: inner.span_id,
            queue_wait: inner
                .started
                .map_or(Duration::ZERO, |s| s.saturating_duration_since(joined)),
            run: match (inner.started, inner.finished) {
                (Some(started), Some(finished)) => finished.saturating_duration_since(started),
                _ => Duration::ZERO,
            },
        };
        Ok((result, meta))
    }

    /// Joins the filling batch (follower) or opens a new one (leader).
    /// Returns the batch, the submission's start offset in it, and whether
    /// this submitter leads it.
    fn join(&self, loads: &[f64]) -> (Arc<Batch>, usize, bool) {
        let mut filling = self.filling.lock().expect("filling lock poisoned");
        if let Some(batch) = filling.as_ref() {
            let mut inner = batch.inner.lock().expect("batch lock poisoned");
            if inner.phase == Phase::Filling
                && inner.loads.len() + loads.len() <= self.config.max_batch
            {
                let start = inner.loads.len();
                inner.loads.extend_from_slice(loads);
                let batch = Arc::clone(batch);
                drop(inner);
                self.stats.record_coalesced(loads.len());
                return (batch, start, false);
            }
        }
        let batch = Batch::open(loads);
        *filling = Some(Arc::clone(&batch));
        (batch, 0, true)
    }

    /// The leader's path: wait for the run token (the batch keeps filling
    /// meanwhile), close and drain the batch, answer it with one
    /// `query_batch` call against the currently published snapshot, publish
    /// and wake the followers.
    fn lead(&self, batch: &Arc<Batch>, cell: &SnapshotCell) {
        let mut span = telemetry::span("service_batch").attr("tenant", self.tenant_attr);
        let token = self.run_token.lock().expect("run token poisoned");

        // Close: stop accepting joins (only if this batch is still the
        // filling one — a full batch was already superseded by a newer one).
        {
            let mut filling = self.filling.lock().expect("filling lock poisoned");
            if filling.as_ref().is_some_and(|b| Arc::ptr_eq(b, batch)) {
                *filling = None;
            }
        }

        // Drain.
        let loads = {
            let mut inner = batch.inner.lock().expect("batch lock poisoned");
            inner.phase = Phase::Running;
            inner.started = Some(Instant::now());
            inner.span_id = span.id();
            std::mem::take(&mut inner.loads)
        };
        self.queued.fetch_sub(loads.len(), Ordering::AcqRel);
        span.set_attr("size", loads.len());
        self.stats.record_batch(loads.len());

        // Plan — outside every lock but the run token, against whatever
        // snapshot is published *now* (a concurrent re-registration swaps
        // engines between batches, never inside one).
        let outcome = {
            let _plan_span = telemetry::span("service_plan_batch").attr("loads", loads.len());
            match cell.load() {
                Some(snapshot) => snapshot.query_batch(&loads, None),
                None => Err(SolveError::Infeasible {
                    reason: "tenant has no published engine".to_string(),
                }),
            }
        };

        // Publish and wake.
        {
            let _reply_span = telemetry::span("service_reply");
            let mut inner = batch.inner.lock().expect("batch lock poisoned");
            inner.outcome = Some(outcome);
            inner.phase = Phase::Done;
            inner.finished = Some(Instant::now());
            batch.done.notify_all();
        }
        drop(token);
    }
}
