//! Analytic trace replay on the linear-RC transient model.
//!
//! [`crate::runtime::run_load_trace_with`] drives the *numeric* room
//! substrate step by step — thousands of RK4 sub-steps per replan
//! interval. This module replays the same controller decisions on the fitted
//! [`RcNetwork`] instead: between control events the network is LTI, so an
//! exact-step [`Propagator`](coolopt_sim::Propagator) crosses a whole
//! recording interval with one matrix–vector product, and a
//! [`PropagatorCache`] keyed on `(step, input fingerprint)` makes repeated
//! plans (a controller revisits few distinct operating points) nearly free.
//!
//! The replay deliberately trades fidelity for speed relative to the full
//! simulation: machines switch power instantly (no boot transients), power
//! follows the fitted models (no sensor noise), and control events take
//! effect at recording-step boundaries. That makes it the right engine for
//! wide design sweeps, with the numeric substrate kept as the oracle.
//!
//! [`ReplayEngine::Rk4`] runs the *same* replay on the same [`RcNetwork`]
//! through a generic small-step integrator — the reference the exact-step
//! engine is tested against.

use crate::runtime::{TracePoint, RECORD_EVERY, REPLAN_INTERVAL};
use coolopt_alloc::{AllocationPlan, Method, Planner, PolicyError};
use coolopt_model::{RcNetwork, RcParams, RoomModel};
use coolopt_sim::{Integrator, LinearDynamics, LinearOde, PropagatorCache, Rk4, SimScratch};
use coolopt_telemetry as telemetry;
use coolopt_units::{Joules, Seconds, Temperature, Watts};
use serde::{Deserialize, Serialize};

/// How the replay advances the RC state across a recording step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum ReplayEngine {
    /// Exact-step propagator: one matrix–vector product per recording step,
    /// memoized per `(step, input)` pair. The fast path.
    #[default]
    Exact,
    /// Classic RK4 fallback at the given sub-step (accuracy oracle).
    Rk4(Seconds),
}

/// Knobs of an analytic replay. The replay keeps the runtime's cadence:
/// it replans at least every 900 s and steps, checks temperatures and
/// integrates energy every 10 s, on the RC network of
/// [`RcParams::default`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayOptions {
    /// The stepping engine.
    pub engine: ReplayEngine,
}

/// What an analytic replay produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Total predicted electrical energy over the trace.
    pub energy: Joules,
    /// Replayed duration.
    pub duration: Seconds,
    /// Mean total power.
    pub mean_power: Watts,
    /// Seconds during which some modeled CPU exceeded `T_max`.
    pub violation_seconds: f64,
    /// Hottest modeled CPU temperature seen at any sampling instant.
    pub max_cpu: Temperature,
    /// Number of plans applied.
    pub replans: usize,
    /// Number of planning attempts that failed (previous plan kept).
    pub plan_failures: usize,
    /// Distinct propagators built (exact engine only; zero for fallbacks),
    /// read from the cache's own tally — the single source of truth. Small
    /// counts on long traces are the cache paying off.
    pub propagators_built: usize,
    /// Propagator lookups served from the cache (exact engine only).
    pub propagator_hits: u64,
}

/// Fills `powers` with each machine's modeled draw under `plan` (zero for
/// machines the plan leaves off).
fn plan_powers(model: &RoomModel, plan: &AllocationPlan, powers: &mut Vec<f64>) {
    powers.clear();
    powers.resize(model.len(), 0.0);
    for &i in &plan.on {
        powers[i] = model.power().predict(plan.loads[i]).as_watts();
    }
}

/// Replays `trace` under `method` on the fitted transient model, planning
/// with a caller-owned `planner` (whose guard band applies, and whose
/// memoized solver engine is reused). `model` should be the *unguarded*
/// fitted model — it parameterizes the RC network and supplies the true
/// `T_max`.
///
/// # Errors
///
/// Returns [`PolicyError`] only if the *initial* plan fails; later failures
/// keep the previous plan and are counted in
/// [`ReplayOutcome::plan_failures`].
///
/// # Panics
///
/// Panics if `trace` is empty or not time-sorted, `total` is not
/// positive, or the fitted model is not RC-representable (some
/// `β_i ≤ 1/g`; see [`RcNetwork::new`]).
pub fn replay_trace_with(
    planner: &Planner,
    model: &RoomModel,
    method: Method,
    trace: &[TracePoint],
    total: Seconds,
    options: &ReplayOptions,
) -> Result<ReplayOutcome, PolicyError> {
    assert!(!trace.is_empty(), "trace must have at least one point");
    assert!(
        trace.windows(2).all(|w| w[0].at <= w[1].at),
        "trace must be time-sorted"
    );
    let total_s = total.as_secs_f64();
    assert!(
        total_s.is_finite() && total_s > 0.0,
        "total must be positive, got {total_s} s"
    );
    let h = RECORD_EVERY.as_secs_f64();
    let params = RcParams::default();

    let mut net = RcNetwork::new(model, params)
        .expect("fitted model must be RC-representable for analytic replay");
    let dim = LinearDynamics::dim(&net);
    let t_max = model.t_max();

    let mut replans = 0usize;
    let mut plan_failures = 0usize;
    let mut powers = Vec::with_capacity(model.len());
    let mut current = planner.plan(method, trace[0].load)?;
    plan_powers(model, &current, &mut powers);
    net.set_input(&powers, current.t_ac_target);
    replans += 1;

    let mut state = net.uniform_state(params.t_room_ref);
    let mut step_scratch = vec![0.0; dim];
    let mut sim_scratch = SimScratch::with_dim(dim);
    let mut cache = PropagatorCache::new();
    // The fallback engines integrate the same system through the generic
    // path; the ODE form is rebuilt only when the input (bias) changes.
    let mut ode = LinearOde::new(&net);

    let steps = (total_s / h).ceil() as usize;
    let mut energy = Joules::ZERO;
    let mut violation_seconds = 0.0;
    let mut max_cpu = f64::NEG_INFINITY;
    let mut trace_idx = 0usize;
    let mut next_replan = REPLAN_INTERVAL.as_secs_f64();

    for k in 0..steps {
        let now = k as f64 * h;
        let step_len = h.min(total_s - now);

        // Demand changes take effect at this boundary and force a replan.
        let mut demand_changed = false;
        while trace_idx + 1 < trace.len() && trace[trace_idx + 1].at.as_secs_f64() <= now {
            trace_idx += 1;
            demand_changed = true;
        }
        if demand_changed || now >= next_replan {
            match planner.plan(method, trace[trace_idx].load) {
                Ok(plan) => {
                    plan_powers(model, &plan, &mut powers);
                    net.set_input(&powers, plan.t_ac_target);
                    ode = LinearOde::new(&net);
                    current = plan;
                    replans += 1;
                }
                Err(_) => plan_failures += 1,
            }
            next_replan = now + REPLAN_INTERVAL.as_secs_f64();
        }

        let computing: f64 = powers.iter().sum();
        let cooling = model.cooling().predict(current.t_ac_target).as_watts();
        let power = computing + cooling;
        energy += Watts::new(power) * Seconds::new(step_len);

        match options.engine {
            ReplayEngine::Exact => {
                let prop =
                    cache.get_or_build(&net, Seconds::new(step_len), net.input_fingerprint());
                prop.step(&mut state, &mut step_scratch);
            }
            ReplayEngine::Rk4(dt) => {
                sub_step(
                    &Rk4::new(),
                    &ode,
                    now,
                    step_len,
                    dt,
                    &mut state,
                    &mut sim_scratch,
                );
            }
        }

        for i in 0..net.machines() {
            let t = state[net.cpu_index(i)];
            max_cpu = max_cpu.max(t);
            if t > t_max.as_kelvin() {
                violation_seconds += step_len;
                break;
            }
        }
    }

    telemetry::counter("coolopt_replans_total").add(replans as u64);
    telemetry::counter("coolopt_replan_failures_total").add(plan_failures as u64);
    Ok(ReplayOutcome {
        energy,
        duration: total,
        mean_power: energy / total,
        violation_seconds,
        max_cpu: Temperature::from_kelvin(max_cpu),
        replans,
        plan_failures,
        propagators_built: cache.builds() as usize,
        propagator_hits: cache.hits(),
    })
}

/// Crosses `step_len` with uniform sub-steps of at most `dt` through a
/// generic integrator.
fn sub_step<I: Integrator>(
    integrator: &I,
    ode: &LinearOde,
    t0: f64,
    step_len: f64,
    dt: Seconds,
    state: &mut [f64],
    scratch: &mut SimScratch,
) {
    let want = dt.as_secs_f64();
    assert!(
        want.is_finite() && want > 0.0,
        "fallback sub-step must be positive, got {want} s"
    );
    let m = (step_len / want).ceil().max(1.0) as usize;
    let sub = Seconds::new(step_len / m as f64);
    for j in 0..m {
        integrator.step_with(
            ode,
            Seconds::new(t0 + j as f64 * sub.as_secs_f64()),
            sub,
            state,
            scratch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::sinusoidal_trace;
    use crate::testbed::Testbed;

    fn setup(machines: usize, seed: u64) -> (Testbed, Planner) {
        let tb = Testbed::build_sized(machines, seed).unwrap();
        let planner = Planner::with_guard(
            &tb.profile.model,
            &tb.profile.cooling.set_points,
            coolopt_alloc::plan::DEFAULT_GUARD,
        );
        (tb, planner)
    }

    #[test]
    fn exact_engine_matches_the_rk4_fallback() {
        let (tb, planner) = setup(4, 41);
        let trace = sinusoidal_trace(4, 0.25, 0.75, Seconds::new(3600.0), 4);
        let total = Seconds::new(3600.0);
        let exact = replay_trace_with(
            &planner,
            &tb.profile.model,
            Method::numbered(8),
            &trace,
            total,
            &ReplayOptions::default(),
        )
        .unwrap();
        let rk4 = replay_trace_with(
            &planner,
            &tb.profile.model,
            Method::numbered(8),
            &trace,
            total,
            &ReplayOptions {
                engine: ReplayEngine::Rk4(Seconds::new(0.05)),
            },
        )
        .unwrap();
        // Controller decisions and (analytic) energy are engine-independent…
        assert_eq!(exact.replans, rk4.replans);
        assert_eq!(exact.plan_failures, rk4.plan_failures);
        assert_eq!(exact.energy, rk4.energy);
        // …and the exact-step states agree with the tiny-step oracle.
        assert!(
            (exact.max_cpu.as_kelvin() - rk4.max_cpu.as_kelvin()).abs() < 1e-5,
            "exact {} vs rk4 {}",
            exact.max_cpu,
            rk4.max_cpu
        );
        assert_eq!(exact.violation_seconds, rk4.violation_seconds);
        assert_eq!(rk4.propagators_built, 0);
        assert!(exact.propagators_built > 0);
    }

    #[test]
    fn propagator_cache_collapses_repeated_operating_points() {
        let (tb, planner) = setup(4, 43);
        // Constant demand, hourly trace with quarter-hour replans: every
        // interval reuses one (step, input) propagator.
        let trace = [TracePoint {
            at: Seconds::ZERO,
            load: 2.0,
        }];
        let outcome = replay_trace_with(
            &planner,
            &tb.profile.model,
            Method::numbered(8),
            &trace,
            Seconds::new(3600.0),
            &ReplayOptions::default(),
        )
        .unwrap();
        assert!(outcome.replans >= 4, "timer must fire: {}", outcome.replans);
        assert!(
            outcome.propagators_built <= 2,
            "cache failed to collapse repeats: built {}",
            outcome.propagators_built
        );
        assert_eq!(outcome.plan_failures, 0);
        assert!(outcome.mean_power.as_watts() > 0.0);
        assert!(outcome.max_cpu.as_celsius() > 25.0);
    }

    #[test]
    fn replay_approximates_the_numeric_substrate() {
        // The analytic replay should land in the same energy ballpark as
        // the full simulation (it ignores boot transients and noise, so
        // only a coarse agreement is expected). Both engines read one
        // cadence and plan with one planner, so on plateaus that start on
        // recording-step boundaries they replan at the same instants.
        let (mut tb, planner) = setup(4, 47);
        let flat = vec![TracePoint {
            at: Seconds::ZERO,
            load: 2.0,
        }];
        let hour = Seconds::new(3600.0);
        for (trace, total) in [
            (flat, Seconds::new(3000.0)),
            (sinusoidal_trace(4, 0.25, 0.75, hour, 4), hour),
        ] {
            let analytic = replay_trace_with(
                &planner,
                &tb.profile.model,
                Method::numbered(8),
                &trace,
                total,
                &ReplayOptions::default(),
            )
            .unwrap();
            let numeric = crate::runtime::run_load_trace_with(
                &planner,
                &mut tb,
                Method::numbered(8),
                &trace,
                total,
                &crate::runtime::RuntimeOptions::default(),
            )
            .unwrap();
            assert_eq!(analytic.replans, numeric.replans, "{trace:?}");
            assert_eq!(analytic.plan_failures, numeric.plan_failures, "{trace:?}");
            let a = analytic.mean_power.as_watts();
            let n = numeric.mean_power.as_watts();
            assert!(
                (a - n).abs() / n < 0.25,
                "analytic {a:.0} W vs numeric {n:.0} W on {trace:?}"
            );
        }
    }
}
