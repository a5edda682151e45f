//! The service core: registry + coalescers + statistics.

use crate::coalesce::CoalesceConfig;
use crate::registry::TenantRegistry;
use crate::tenant::{zone_parts, ContentMeta, Tenant, TenantId};
use crate::{PlanResult, ServiceError};
use coolopt_core::PowerTerms;
use coolopt_scenario::{Scenario, SloPolicy};
use coolopt_telemetry::{HistogramSnapshot, RegistrySnapshot};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Log₂ batch-size buckets tracked by [`ServiceStats`]: bucket `i` counts
/// batches of `2^i ..= 2^(i+1) - 1` loads (the last bucket is open-ended).
pub const BATCH_SIZE_BUCKET_COUNT: usize = 12;

/// Service-wide configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceConfig {
    /// Per-tenant admission limits.
    pub coalesce: CoalesceConfig,
    /// Default SLO for tenants whose scenario declares no override.
    pub slo: SloPolicy,
}

/// The service-wide counters: the one place plans, batches, coalesced
/// joins, sheds and batch sizes are counted. The `stats` document, the
/// Prometheus exposition and the time-series samples all read them. Plain
/// relaxed atomics — each is a single uncontended-in-the-common-case add.
#[derive(Debug, Default)]
pub struct ServiceStats {
    plans: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    batch_size_buckets: [AtomicU64; BATCH_SIZE_BUCKET_COUNT],
}

impl ServiceStats {
    /// Records one drained micro-batch of `size` loads.
    pub(crate) fn record_batch(&self, size: usize) {
        self.plans.fetch_add(size as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let bucket = (usize::BITS - 1 - size.max(1).leading_zeros()) as usize;
        self.batch_size_buckets[bucket.min(BATCH_SIZE_BUCKET_COUNT - 1)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `count` loads that joined an already-open batch.
    pub(crate) fn record_coalesced(&self, count: usize) {
        self.coalesced.fetch_add(count as u64, Ordering::Relaxed);
    }

    /// Records `count` loads refused by backpressure.
    pub(crate) fn record_shed(&self, count: usize) {
        self.shed.fetch_add(count as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            plans: self.plans.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batch_size_log2: self
                .batch_size_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of [`ServiceStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StatsSnapshot {
    /// Loads planned (answered through a micro-batch).
    pub plans: u64,
    /// Micro-batches drained (one `query_batch` call each).
    pub batches: u64,
    /// Loads that joined an already-open batch (the coalescing win).
    pub coalesced: u64,
    /// Loads refused by backpressure.
    pub shed: u64,
    /// Batch-size histogram: entry `i` counts batches of
    /// `2^i ..= 2^(i+1) - 1` loads (last entry open-ended).
    pub batch_size_log2: Vec<u64>,
}

impl StatsSnapshot {
    /// Mean loads per drained micro-batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.plans as f64 / self.batches as f64
    }

    /// Shed loads as a fraction of all admission attempts.
    pub fn shed_rate(&self) -> f64 {
        let attempts = self.plans + self.shed;
        if attempts == 0 {
            return 0.0;
        }
        self.shed as f64 / attempts as f64
    }

    /// Adds the service metrics to `registry` under their exposition
    /// names: `coolopt_service_{plans,batches,shed}_total` and the
    /// `coolopt_service_batch_size` histogram, rebuilt exactly from the
    /// log₂ buckets — bucket `i` gets `le` = 2^(i+1) − 1 (the last one
    /// `+Inf`), `_count` = batches and `_sum` = plans.
    pub(crate) fn export_into(&self, registry: &mut RegistrySnapshot) {
        for (name, value) in [
            ("coolopt_service_plans_total", self.plans),
            ("coolopt_service_batches_total", self.batches),
            ("coolopt_service_shed_total", self.shed),
        ] {
            registry.counters.insert(name.to_string(), value);
        }
        let batch_size = HistogramSnapshot {
            bounds: (1..self.batch_size_log2.len())
                .map(|i| ((1u64 << i) - 1) as f64)
                .collect(),
            counts: self.batch_size_log2.clone(),
            sum: self.plans as f64,
            count: self.batches,
        };
        registry
            .histograms
            .insert("coolopt_service_batch_size".to_string(), batch_size);
    }
}

/// The long-running multi-tenant query core. See the crate docs for the
/// architecture; in short: [`register_scenario`](ServiceCore::register_scenario)
/// (or [`register_parts`](ServiceCore::register_parts)) publishes engines,
/// [`submit`](ServiceCore::submit) answers query bursts through per-tenant
/// coalescers, and [`stats`](ServiceCore::stats) reports what happened.
#[derive(Debug)]
pub struct ServiceCore {
    config: ServiceConfig,
    registry: TenantRegistry,
    stats: Arc<ServiceStats>,
    /// Construction time, for the stats snapshot's uptime.
    started: Instant,
}

impl Default for ServiceCore {
    fn default() -> Self {
        ServiceCore::new(ServiceConfig::default())
    }
}

impl ServiceCore {
    /// A fresh, empty service core.
    pub fn new(config: ServiceConfig) -> Self {
        ServiceCore {
            config,
            registry: TenantRegistry::default(),
            stats: Arc::new(ServiceStats::default()),
            started: Instant::now(),
        }
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Seconds since this core was constructed.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The live statistics counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The tenant registry (exposed for tests and the bench).
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Registers (or re-registers) a tenant under `key` with an engine
    /// built from explicit `(pairs, terms)`. Re-registering an existing
    /// key with a changed model atomically swaps its published engine;
    /// with an unchanged model it is a cheap fingerprint hit. The engine
    /// build runs outside every registry lock.
    pub fn register_parts(
        &self,
        key: &str,
        pairs: &[(f64, f64)],
        terms: PowerTerms,
    ) -> Result<Arc<Tenant>, ServiceError> {
        let id = TenantId::of(key);
        // Racing registrations of the same new key converge on one tenant;
        // both then publish into its cell (fingerprint-keyed, so the
        // second identical publish is a hit, not a rebuild).
        let tenant = self.registry.get_or_insert_with(id, || {
            Arc::new(Tenant::new(key, &self.config, Arc::clone(&self.stats)))
        });
        tenant.publish(pairs, terms)?;
        Ok(tenant)
    }

    /// Registers every zone of `scenario` as a tenant keyed
    /// `"{scenario.name}/{zone.name}"`, each also addressable by the
    /// content-hash alias `"{content_hash}/{zone.name}"`. Re-registering
    /// an edited scenario (same name, new content) swaps each zone's
    /// engine in place — in-flight batches finish on the old engine — and
    /// retires the stale content-hash aliases.
    pub fn register_scenario(&self, scenario: &Scenario) -> Result<Vec<Arc<Tenant>>, ServiceError> {
        let parts = zone_parts(scenario)?;
        let hash = scenario.content_hash();
        let mut tenants = Vec::with_capacity(parts.len());
        for part in &parts {
            let key = format!("{}/{}", scenario.name, part.zone);
            let tenant = self.register_parts(&key, &part.pairs, part.terms)?;
            // The scenario's policy block wins over the service default —
            // including on re-registration, so an edited SLO takes effect
            // (and a removed one reverts to the default).
            tenant.set_slo(scenario.policy.slo.unwrap_or(self.config.slo));
            let alias = TenantId::of(&format!("{}/{}", hash, part.zone));
            let previous = tenant.content_meta();
            if previous.alias != Some(alias) {
                if let Some(stale) = previous.alias {
                    self.registry.remove(stale);
                }
                self.registry.insert(alias, Arc::clone(&tenant));
                tenant.set_content_meta(ContentMeta {
                    hash: hash.clone(),
                    alias: Some(alias),
                });
            }
            tenants.push(tenant);
        }
        Ok(tenants)
    }

    /// The tenant addressed by `key` (a registration key or a
    /// content-hash alias), if registered.
    pub fn get(&self, key: &str) -> Option<Arc<Tenant>> {
        self.registry.get(TenantId::of(key))
    }

    /// The tenant addressed by `id`, if registered.
    pub fn get_id(&self, id: TenantId) -> Option<Arc<Tenant>> {
        self.registry.get(id)
    }

    /// Evicts the tenant addressed by `key` (primary key and content-hash
    /// alias both retired). In-flight queries finish against the evicted
    /// tenant's engine; new lookups miss.
    pub fn evict(&self, key: &str) -> Option<Arc<Tenant>> {
        let tenant = self.registry.remove(TenantId::of(key))?;
        let meta = tenant.content_meta();
        if let Some(alias) = meta.alias {
            self.registry.remove(alias);
        }
        // `key` may itself have been the alias; retire the primary too.
        self.registry.remove(TenantId::of(tenant.key()));
        Some(tenant)
    }

    /// Every distinct registered tenant.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.registry.tenants()
    }

    /// Submits a burst of loads for `tenant` and blocks for the answers —
    /// see [`Tenant::submit`].
    pub fn submit(&self, tenant: &str, loads: &[f64]) -> Result<Vec<PlanResult>, ServiceError> {
        let tenant = self
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        tenant.submit(loads)
    }

    /// Appends one sample of every service-level signal into `db` at
    /// `now_ms`: the global counters plus, per tenant, plans served (SLO
    /// attempts − shed), queue depth and SLO burn rates. This is the
    /// [`coolopt_telemetry::Collector`] source the serve binary registers,
    /// and the only writer of service series in the store.
    pub fn sample_into(&self, db: &coolopt_telemetry::Tsdb, now_ms: i64) {
        let snapshot = self.stats.snapshot();
        db.append("coolopt_service.plans", now_ms, snapshot.plans as f64);
        db.append("coolopt_service.batches", now_ms, snapshot.batches as f64);
        db.append(
            "coolopt_service.coalesced",
            now_ms,
            snapshot.coalesced as f64,
        );
        db.append("coolopt_service.shed", now_ms, snapshot.shed as f64);
        for tenant in self.tenants() {
            let verdict = tenant.slo_verdict();
            let prefix = format!("coolopt_service.tenant.{}", tenant.key());
            db.append(
                &format!("{prefix}.plans"),
                now_ms,
                verdict.attempts.saturating_sub(verdict.shed) as f64,
            );
            db.append(&format!("{prefix}.queued"), now_ms, tenant.queued() as f64);
            db.append(
                &format!("{prefix}.burn_fast"),
                now_ms,
                verdict.fast_burn.burn_rate,
            );
            db.append(
                &format!("{prefix}.burn_slow"),
                now_ms,
                verdict.slow_burn.burn_rate,
            );
        }
    }

    /// Single-load convenience wrapper over [`ServiceCore::submit`].
    pub fn submit_one(&self, tenant: &str, load: f64) -> Result<PlanResult, ServiceError> {
        let tenant = self
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        tenant.submit_one(load)
    }
}
