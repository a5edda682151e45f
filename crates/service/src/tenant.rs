//! Tenants: one published engine + one admission queue per room/zone.
//!
//! A [`Tenant`] owns the pieces the service needs to answer queries for one
//! planning domain (one zone of one scenario, or an explicitly registered
//! `(pairs, terms)` model): a [`SnapshotCell`] holding the published engine
//! (flat or hierarchical, auto-selected by machine count) and a
//! [`Coalescer`] batching its concurrent queries. Tenants are addressed by
//! [`TenantId`] — a stable 64-bit FNV-1a hash of the tenant's key string —
//! so lookups never compare strings on the hot path.

use crate::coalesce::{BatchMeta, Coalescer};
use crate::core::{ServiceConfig, ServiceStats};
use crate::slo::{SloState, SloVerdict};
use crate::{PlanResult, ServiceError};
use coolopt_core::SnapshotCell;
use coolopt_core::{IndexSnapshot, ModelFingerprint, PowerTerms, SolveError};
use coolopt_scenario::{zone_machines, Scenario, SloPolicy};
use coolopt_telemetry as telemetry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stable tenant address: FNV-1a over the tenant's key string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u64);

impl TenantId {
    /// The id of the tenant keyed by `key` (e.g. `"testbed_rack20/rack"`).
    pub fn of(key: &str) -> Self {
        // FNV-1a, the same construction ModelFingerprint uses — cheap,
        // deterministic, and stable across processes.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TenantId(hash)
    }

    /// The raw 64-bit value (used as shard selector and span attribute).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The planning parts of one scenario zone: what a tenant's engine is
/// built from.
#[derive(Debug, Clone)]
pub struct ZoneParts {
    /// The zone's name inside its scenario.
    pub zone: String,
    /// Per-machine `(a_i, b_i) = (K_i, α_i/β_i)` consolidation pairs.
    pub pairs: Vec<(f64, f64)>,
    /// The zone's aggregate power terms.
    pub terms: PowerTerms,
}

/// Derives per-zone planning parts from a scenario's declared models — the
/// same derivation the fleet-scale smoke plans use: pairs from each
/// machine's `(K_i, α_i/β_i)` at the policy's planning `T_max`, and terms
/// from the zone means `w̄₂` and `ρ = c_f · w̄₁`, with the optional AC cap
/// mapped into normalized units as `t_cap = T_ac_cap / w̄₁`.
pub fn zone_parts(scenario: &Scenario) -> Result<Vec<ZoneParts>, ServiceError> {
    let t_max = scenario.policy.planning_t_max();
    scenario
        .zones
        .iter()
        .map(|spec| {
            let machines =
                zone_machines(scenario, spec).map_err(|e| ServiceError::Scenario(e.to_string()))?;
            if machines.is_empty() {
                return Err(ServiceError::Scenario(format!(
                    "zone {:?} declares no machines",
                    spec.name
                )));
            }
            let pairs: Vec<(f64, f64)> = machines
                .iter()
                .map(|m| {
                    (
                        m.thermal.k_coefficient(t_max, &m.power),
                        m.thermal.alpha_over_beta(),
                    )
                })
                .collect();
            let n = machines.len() as f64;
            let mean_w1 = machines
                .iter()
                .map(|m| m.power.w1().as_watts())
                .sum::<f64>()
                / n;
            let mean_w2 = machines
                .iter()
                .map(|m| m.power.w2().as_watts())
                .sum::<f64>()
                / n;
            let mut terms =
                PowerTerms::unbounded(mean_w2, spec.cooling.cf_watts_per_kelvin * mean_w1);
            terms.t_cap = spec.cooling.t_ac_cap.map(|t| t.as_kelvin() / mean_w1);
            Ok(ZoneParts {
                zone: spec.name.clone(),
                pairs,
                terms,
            })
        })
        .collect()
}

/// One registered planning domain: a published engine plus its admission
/// queue. See the module docs.
#[derive(Debug)]
pub struct Tenant {
    id: TenantId,
    key: String,
    cell: SnapshotCell,
    coalescer: Coalescer,
    /// Content hash of the scenario this tenant was last registered from
    /// (empty for explicit `register_parts` tenants) and the registry
    /// alias id derived from it, so re-registration can retire the stale
    /// alias.
    content: Mutex<ContentMeta>,
    /// Windowed latency attribution + SLO accounting.
    obs: TenantObs,
}

/// Per-tenant observability state: windowed queue-wait/run histograms
/// and the [`SloState`], whose attempts are the tenant's one count of
/// submitted loads.
#[derive(Debug)]
struct TenantObs {
    /// Join → batch start, per load, over the sliding window.
    queue_wait: telemetry::WindowedHistogram,
    /// Batch start → answers published, per load, over the sliding window.
    run: telemetry::WindowedHistogram,
    /// Error-budget / burn-rate accounting.
    slo: SloState,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct ContentMeta {
    pub(crate) hash: String,
    pub(crate) alias: Option<TenantId>,
}

impl Tenant {
    /// A fresh tenant keyed by `key`, with no engine published yet —
    /// callers publish one via [`Tenant::publish`] before serving. The
    /// SLO policy starts at the service default; scenario registration
    /// overrides it per the scenario's policy block.
    pub(crate) fn new(key: &str, config: &ServiceConfig, stats: Arc<ServiceStats>) -> Self {
        let id = TenantId::of(key);
        let obs = TenantObs {
            queue_wait: telemetry::WindowedHistogram::new(
                telemetry::DEFAULT_LATENCY_BUCKETS,
                config.slo_window_seconds,
                config.slo_windows,
            ),
            run: telemetry::WindowedHistogram::new(
                telemetry::DEFAULT_LATENCY_BUCKETS,
                config.slo_window_seconds,
                config.slo_windows,
            ),
            slo: SloState::new(
                key,
                config.slo,
                config.slo_window_seconds,
                config.slo_windows,
            ),
        };
        Tenant {
            id,
            key: key.to_string(),
            cell: SnapshotCell::new(),
            coalescer: Coalescer::new(config.coalesce, stats, id.raw()),
            content: Mutex::new(ContentMeta::default()),
            obs,
        }
    }

    /// The tenant's stable address.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The key string this tenant was registered under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The content hash of the scenario this tenant was registered from,
    /// if any.
    pub fn content_hash(&self) -> String {
        self.content
            .lock()
            .expect("content lock poisoned")
            .hash
            .clone()
    }

    pub(crate) fn content_meta(&self) -> ContentMeta {
        self.content.lock().expect("content lock poisoned").clone()
    }

    pub(crate) fn set_content_meta(&self, meta: ContentMeta) {
        *self.content.lock().expect("content lock poisoned") = meta;
    }

    /// The tenant's snapshot cell (exposed for tests and the bench).
    pub fn cell(&self) -> &SnapshotCell {
        &self.cell
    }

    /// Loads currently pending in this tenant's admission queue.
    pub fn queued(&self) -> usize {
        self.coalescer.queued()
    }

    /// Publication count of this tenant's cell — bumps once per engine
    /// swap, never on fingerprint-identical re-registration.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// Builds (outside any lock) and publishes the engine for `pairs` and
    /// `terms`, keyed by their fingerprint. A re-publish with an unchanged
    /// fingerprint is a cheap hit; a changed fingerprint atomically swaps
    /// the engine while in-flight batches finish on the old one.
    pub fn publish(
        &self,
        pairs: &[(f64, f64)],
        terms: PowerTerms,
    ) -> Result<Arc<IndexSnapshot>, ServiceError> {
        let fingerprint = ModelFingerprint::of_parts(pairs, &terms);
        self.cell
            .ensure(fingerprint, || IndexSnapshot::for_parts(pairs, terms))
            .map_err(ServiceError::Solve)
    }

    /// The currently published engine, if any.
    pub fn snapshot(&self) -> Option<Arc<IndexSnapshot>> {
        self.cell.load()
    }

    /// Answers `load` sequentially — the un-coalesced reference path the
    /// identity tests compare against.
    pub fn plan_sequential(&self, load: f64) -> PlanResult {
        match self.cell.load() {
            Some(snapshot) => snapshot.query_min_power(load, None),
            None => Err(SolveError::Infeasible {
                reason: format!("tenant {:?} has no published engine", self.key),
            }),
        }
    }

    /// Submits a burst of loads through the coalescer and blocks for their
    /// answers: one [`PlanResult`] per load, in order, each bit-identical
    /// to [`Tenant::plan_sequential`] against the engine published when
    /// the micro-batch ran.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TooManyLoads`] when the burst is larger than one
    /// micro-batch, and [`ServiceError::Overloaded`] when admission sheds
    /// it — either way none of its loads were planned. Only a shed burst
    /// counts against the SLO.
    pub fn submit(&self, loads: &[f64]) -> Result<Vec<PlanResult>, ServiceError> {
        let limit = self.coalescer.config().max_batch;
        if loads.len() > limit {
            return Err(ServiceError::TooManyLoads {
                tenant: self.key.clone(),
                loads: loads.len(),
                limit,
            });
        }
        let begin = Instant::now();
        // Loads the engine would reject (negative or non-finite) bypass
        // the batch and are answered directly, so their errors are exactly
        // the sequential ones and a bad load can never poison a batch.
        let admissible = |l: f64| l.is_finite() && l >= 0.0;
        let submitted = if loads.iter().all(|&l| admissible(l)) {
            self.submit_admissible(loads)
        } else {
            let valid: Vec<f64> = loads.iter().copied().filter(|&l| admissible(l)).collect();
            self.submit_admissible(&valid).map(|(answers, meta)| {
                let mut batched = answers.into_iter();
                let results = loads
                    .iter()
                    .map(|&load| {
                        if admissible(load) {
                            batched.next().expect("one answer per admissible load")
                        } else {
                            self.plan_sequential(load)
                        }
                    })
                    .collect();
                (results, meta)
            })
        };
        let (results, meta) = match submitted {
            Ok(v) => v,
            Err(e) => {
                if matches!(e, ServiceError::Overloaded { .. }) {
                    self.obs
                        .slo
                        .record_shed(self.obs.slo.elapsed_ns(), loads.len() as u64);
                }
                return Err(e);
            }
        };
        let elapsed = begin.elapsed().as_secs_f64();
        let n = loads.len() as u64;
        if let Some(meta) = meta {
            self.obs
                .queue_wait
                .observe_n(meta.queue_wait.as_secs_f64(), n);
            self.obs.run.observe_n(meta.run.as_secs_f64(), n);
        }
        self.obs.slo.record_served(
            self.obs.slo.elapsed_ns(),
            n,
            elapsed,
            meta.map_or(0, |m| m.span_id),
        );
        telemetry::histogram("coolopt_service_reply_seconds").observe(elapsed);
        Ok(results)
    }

    /// Convenience wrapper: submit one load.
    pub fn submit_one(&self, load: f64) -> Result<PlanResult, ServiceError> {
        let mut results = self.submit(std::slice::from_ref(&load))?;
        Ok(results.pop().expect("one answer for one load"))
    }

    fn submit_admissible(
        &self,
        loads: &[f64],
    ) -> Result<(Vec<PlanResult>, Option<BatchMeta>), ServiceError> {
        if loads.is_empty() {
            return Ok((Vec::new(), None));
        }
        let (outcome, meta) =
            self.coalescer
                .submit(loads, &self.cell)
                .map_err(|shed| ServiceError::Overloaded {
                    tenant: self.key.clone(),
                    queued: shed.queued,
                    limit: shed.limit,
                })?;
        let results = match outcome {
            Ok(answers) => answers.into_iter().map(Ok).collect(),
            // An engine-level batch error mirrors what every sequential
            // call would have returned (validation is per-load, so with
            // admissible loads this arm is unreachable in practice).
            Err(e) => loads.iter().map(|_| Err(e.clone())).collect(),
        };
        Ok((results, Some(meta)))
    }

    /// The tenant's current SLO policy.
    pub fn slo_policy(&self) -> SloPolicy {
        self.obs.slo.policy()
    }

    /// Replaces the SLO policy; applies to subsequent accounting (the
    /// windows already recorded keep their old verdicts' raw counts).
    pub fn set_slo(&self, policy: SloPolicy) {
        self.obs.slo.set_policy(policy);
    }

    /// Evaluates the tenant's SLO now: burn rates over the fast and slow
    /// windows, alert state, totals and tail-sampled exemplars.
    pub fn slo_verdict(&self) -> SloVerdict {
        self.obs.slo.verdict()
    }

    /// The sliding-window span (seconds per window, window count) this
    /// tenant accounts over.
    pub fn slo_window(&self) -> (f64, usize) {
        (self.obs.slo.window_seconds(), self.obs.slo.windows())
    }

    /// Windowed queue-wait latency (join → batch start) over the last
    /// `windows` windows.
    pub fn queue_wait_windowed(&self, windows: usize) -> telemetry::HistogramSnapshot {
        self.obs.queue_wait.windowed(windows)
    }

    /// Windowed batch-run latency (batch start → publish) over the last
    /// `windows` windows.
    pub fn run_windowed(&self, windows: usize) -> telemetry::HistogramSnapshot {
        self.obs.run.windowed(windows)
    }
}
