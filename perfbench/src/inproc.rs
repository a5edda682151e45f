//! In-process counterparts of the wire workloads: the scenario files
//! loaded and planned inside the benchmark, used as the correctness
//! oracle and, in the traced run, replayed through each layer's public
//! functions one call at a time.

use crate::trace::{median, Recorder};
use coolopt_core::{Consolidation, IndexSnapshot};
use coolopt_scenario::Scenario;
use coolopt_service::proto::{self, PlanReply, Reply, Request, Response};
use coolopt_service::tenant::zone_parts;
use coolopt_service::{PlanResult, ServiceCore};
use std::sync::Arc;
use std::time::Instant;

/// One tenant the server registers, with the engine the oracle plans on.
pub struct Tenant {
    /// `"{scenario}/{zone}"`, the key requests address.
    pub key: String,
    pub machines: usize,
    /// Built from the same `zone_parts` the service derives.
    pub snapshot: Arc<IndexSnapshot>,
}

/// Loads `paths` and builds one oracle engine per zone, in registration
/// order.
pub fn tenants(paths: &[&str]) -> Result<Vec<Tenant>, String> {
    let mut out = Vec::new();
    for path in paths {
        let scenario = Scenario::load(path).map_err(|e| format!("{path}: {e}"))?;
        for part in zone_parts(&scenario).map_err(|e| format!("{path}: {e}"))? {
            let snapshot = IndexSnapshot::for_parts(&part.pairs, part.terms)
                .map_err(|e| format!("{path}: {e}"))?;
            out.push(Tenant {
                key: format!("{}/{}", scenario.name, part.zone),
                machines: part.pairs.len(),
                snapshot,
            });
        }
    }
    Ok(out)
}

/// `true` when two plans agree bit for bit in `k`, `on`, `t` and
/// `relative_power`.
pub fn same_plan(a: &Option<Consolidation>, b: &Option<Consolidation>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.k == b.k
                && a.on == b.on
                && a.t.to_bits() == b.t.to_bits()
                && a.relative_power.to_bits() == b.relative_power.to_bits()
        }
        _ => false,
    }
}

/// Median set-up costs of the layers a server pays at boot, in ms:
/// `(scenario.load, service.register, core.build)` over `reps` repetitions.
pub fn setup_costs(paths: &[&str], reps: usize) -> Result<(f64, f64, f64), String> {
    let (mut load, mut register, mut build) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        let scenarios = paths
            .iter()
            .map(|p| Scenario::load(p).map_err(|e| format!("{p}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        load.push(start.elapsed().as_secs_f64() * 1e3);

        let core = ServiceCore::default();
        let start = Instant::now();
        for s in &scenarios {
            core.register_scenario(s).map_err(|e| e.to_string())?;
        }
        register.push(start.elapsed().as_secs_f64() * 1e3);

        let parts = scenarios
            .iter()
            .map(|s| zone_parts(s).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let start = Instant::now();
        for part in parts.iter().flatten() {
            std::hint::black_box(
                IndexSnapshot::for_parts(&part.pairs, part.terms).map_err(|e| e.to_string())?,
            );
        }
        build.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&load), median(&register), median(&build)))
}

/// A [`ServiceCore`] registered from the same scenario files the server
/// serves.
pub fn service(paths: &[&str]) -> Result<ServiceCore, String> {
    let core = ServiceCore::default();
    for path in paths {
        let scenario = Scenario::load(path).map_err(|e| format!("{path}: {e}"))?;
        core.register_scenario(&scenario)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(core)
}

/// Replays one request line through each layer separately, recording a
/// span per call under `request`, and returns the `proto::handle_line`
/// duration in µs. Errors when the decomposed path does not reproduce the
/// reply `handle_line` gives.
pub fn replay_line(
    core: &ServiceCore,
    tenants: &[Tenant],
    line: &str,
    request: u64,
    rec: &mut Recorder,
) -> Result<f64, String> {
    let line = line.trim_end();
    let start = Instant::now();
    let whole = std::hint::black_box(proto::handle_line(core, line));
    let handle = rec.record("proto.handle_line", request, None, start, Instant::now());
    let handle_us = rec.spans()[handle].us();

    let parent = Some(handle);
    let parsed: Request = rec
        .time("proto.parse", request, parent, || {
            serde_json::from_str(line)
        })
        .map_err(|e| format!("request line does not parse: {e}"))?;
    let mut loads = parsed.loads.clone().unwrap_or_default();
    loads.extend(parsed.load);
    let results = rec
        .time("service.submit", request, parent, || {
            core.submit(&parsed.tenant, &loads)
        })
        .map_err(|e| e.to_string())?;
    let tenant = tenants
        .iter()
        .find(|t| t.key == parsed.tenant)
        .ok_or_else(|| format!("unknown tenant {:?}", parsed.tenant))?;
    if tenant.snapshot.is_hierarchical() {
        for &load in &loads {
            std::hint::black_box(rec.time("core.hier_query", request, parent, || {
                tenant.snapshot.query_min_power(load, None)
            }))
            .map_err(|e| e.to_string())?;
        }
    } else {
        std::hint::black_box(rec.time("core.flat_batch", request, parent, || {
            tenant.snapshot.query_batch(&loads, None)
        }))
        .map_err(|e| e.to_string())?;
    }
    let reply = Reply::Plan(Response {
        tenant: parsed.tenant.clone(),
        ok: true,
        error: None,
        results: loads
            .iter()
            .zip(results)
            .map(|(&load, result)| plan_reply(load, result))
            .collect(),
    });
    let encoded = rec.time("proto.encode", request, parent, || reply.encode());
    if encoded != whole {
        return Err(format!(
            "decomposed replay of request {request} differs from proto::handle_line"
        ));
    }
    Ok(handle_us)
}

/// The wire form of one per-load answer (as `proto` builds it).
fn plan_reply(load: f64, result: PlanResult) -> PlanReply {
    let (feasible, plan, error) = match result {
        Ok(plan) => (plan.is_some(), plan, None),
        Err(e) => (false, None, Some(e.to_string())),
    };
    PlanReply {
        load,
        feasible,
        plan,
        error,
    }
}
