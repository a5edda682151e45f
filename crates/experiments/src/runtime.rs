//! Online replanning over a time-varying load trace — an extension beyond
//! the paper.
//!
//! The paper restricts itself to steady batch loads and says so: *"servers
//! are never at steady state [under dynamic load], and our steady state
//! analysis is not appropriate."* This module quantifies that caveat: a
//! controller re-solves the (steady-state-optimal) allocation whenever the
//! requested load changes or a replanning timer fires, applies it with
//! realistic boot transients, and accounts for everything the steady-state
//! analysis hides — energy during transients, throughput lost while
//! machines boot, and any temperature excursions.

use crate::testbed::Testbed;
use coolopt_alloc::{AllocationPlan, Method, Planner, PolicyError};
use coolopt_room::DT;
use coolopt_sim::health::SETTLE;
use coolopt_sim::{HealthConfig, HealthReport, ModelHealthMonitor};
use coolopt_telemetry as telemetry;
use coolopt_units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One step of a load trace: from `at` onwards, the room is asked to serve
/// `load` (absolute, in machine-capacities).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Time the demand takes effect.
    pub at: Seconds,
    /// Requested total load.
    pub load: f64,
}

/// A diurnal-looking test trace: load swings sinusoidally between
/// `min_frac` and `max_frac` of rack capacity over `duration`, quantized
/// into `steps` plateaus (batch arrival waves).
///
/// # Panics
///
/// Panics when `steps` is zero, either fraction is non-finite or outside
/// `[0, 1]`, `min_frac > max_frac`, or `duration` is not positive and
/// finite.
pub fn sinusoidal_trace(
    machines: usize,
    min_frac: f64,
    max_frac: f64,
    duration: Seconds,
    steps: usize,
) -> Vec<TracePoint> {
    assert!(steps > 0, "need at least one plateau");
    assert!(
        min_frac.is_finite() && max_frac.is_finite(),
        "fractions must be finite, got min {min_frac}, max {max_frac}"
    );
    assert!(
        min_frac <= max_frac,
        "min_frac {min_frac} must not exceed max_frac {max_frac}"
    );
    assert!(
        0.0 <= min_frac && max_frac <= 1.0,
        "fractions must satisfy 0 ≤ min ≤ max ≤ 1"
    );
    let secs = duration.as_secs_f64();
    assert!(
        secs.is_finite() && secs > 0.0,
        "duration must be positive and finite, got {secs} s"
    );
    (0..steps)
        .map(|k| {
            let phase = k as f64 / steps as f64 * std::f64::consts::TAU;
            let frac = min_frac + (max_frac - min_frac) * 0.5 * (1.0 - phase.cos());
            TracePoint {
                at: duration * (k as f64 / steps as f64),
                load: frac * machines as f64,
            }
        })
        .collect()
}

/// The controller replans at least this often, even if demand has not
/// changed (tracks drift). [`crate::replay`] replans on the same timer.
pub(crate) const REPLAN_INTERVAL: Seconds = Seconds::new(900.0);

/// Sampling cadence of the watchdog's residuals and of the time-series
/// store's plant series; [`crate::replay`] steps at it and
/// [`crate::multizone`] samples at it too.
pub(crate) const RECORD_EVERY: Seconds = Seconds::new(10.0);

/// Plant steps of [`coolopt_room::DT`] per [`RECORD_EVERY`].
pub(crate) const RECORD_STEPS: usize = (RECORD_EVERY.as_secs_f64() / DT.as_secs_f64()) as usize;

// The cast above truncates: the cadence must be a whole number of steps.
const _: () = assert!(RECORD_STEPS as f64 * DT.as_secs_f64() == RECORD_EVERY.as_secs_f64());

/// Controller knobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeOptions {
    /// Model-health watchdog fault injection. Residual samples are taken
    /// every 10 s of simulated time once the plant has settled after a
    /// plan application.
    pub health: HealthConfig,
    /// When set, the run also streams plant series into the process-global
    /// [time-series store](coolopt_telemetry::tsdb) every 10 s of
    /// simulated time:
    /// `{prefix}.computing_watts`, `{prefix}.cooling_watts` and
    /// `{prefix}.margin_kelvin`, stamped with *simulation* milliseconds
    /// (not wall time). The run owns every `{prefix}.*` series: it drops
    /// what an earlier run left there before its first sample.
    pub tsdb_prefix: Option<String>,
}

/// Energy split of one demand plateau of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentEnergy {
    /// Plateau start (trace-relative).
    pub start: Seconds,
    /// Demand the plateau requested.
    pub load: f64,
    /// Computing (server) energy over the plateau.
    pub computing: Joules,
    /// Cooling (CRAC) energy over the plateau.
    pub cooling: Joules,
}

/// What a trace run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceOutcome {
    /// Total electrical energy over the trace.
    pub energy: Joules,
    /// Computing (server) share of [`energy`](TraceOutcome::energy).
    pub computing_energy: Joules,
    /// Cooling (CRAC) share of [`energy`](TraceOutcome::energy).
    pub cooling_energy: Joules,
    /// Per-plateau energy split, one entry per trace point (in trace
    /// order; plateaus the run never reached report zero energy).
    pub segments: Vec<SegmentEnergy>,
    /// Trace duration.
    pub duration: Seconds,
    /// Mean total power.
    pub mean_power: Watts,
    /// Seconds during which some CPU exceeded the *true* `T_max`.
    pub violation_seconds: f64,
    /// Smallest observed distance (K) between the hottest CPU and the true
    /// `T_max` — the run's worst-case guard-band margin. Negative when a
    /// violation occurred; infinite if the room has no servers.
    pub min_margin_kelvin: f64,
    /// Load-seconds served divided by load-seconds requested (boot
    /// transients and infeasible plans lose throughput).
    pub served_fraction: f64,
    /// Number of plans applied.
    pub replans: usize,
    /// Number of planning attempts that failed (previous plan kept).
    pub plan_failures: usize,
    /// Model-health watchdog verdict. Every run fills it; it stays an
    /// `Option` so documents without the field still deserialize.
    #[serde(default)]
    pub health: Option<HealthReport>,
}

/// Drives the testbed's room through `trace` under `method`, replanning
/// online with `planner` (whose guard band applies). Several trace runs,
/// e.g. one per method in an ablation, can share one planner and its
/// memoized solver engine; [`crate::scenario_planner`] builds it.
///
/// # Errors
///
/// Returns [`PolicyError`] only if the *initial* plan fails; later failures
/// keep the previous plan running and are counted in
/// [`TraceOutcome::plan_failures`].
///
/// # Panics
///
/// Panics if `trace` is empty or not time-sorted.
pub fn run_load_trace_with(
    planner: &Planner,
    testbed: &mut Testbed,
    method: Method,
    trace: &[TracePoint],
    total: Seconds,
    options: &RuntimeOptions,
) -> Result<TraceOutcome, PolicyError> {
    assert!(!trace.is_empty(), "trace must have at least one point");
    assert!(
        trace.windows(2).all(|w| w[0].at <= w[1].at),
        "trace must be time-sorted"
    );

    let t_max = testbed.profile.model.t_max();
    let model = &testbed.profile.model;
    let machines = model.len();
    let mut trace_span = telemetry::span("trace_run")
        .attr("machines", machines)
        .attr("plateaus", trace.len())
        .record_into("coolopt_trace_run_seconds");

    // Every plan the controller can ever request is a plan for one of the
    // trace's demand plateaus, and plans are deterministic — so solve the
    // distinct demands up front in one batched query (the index is walked
    // once for the whole trace) and replay from the cache. Timer-driven
    // replans of an unchanged demand hit the same entry.
    let plan_cache: HashMap<u64, Result<AllocationPlan, PolicyError>> = {
        let mut distinct: Vec<f64> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for point in trace {
            if seen.insert(point.load.to_bits()) {
                distinct.push(point.load);
            }
        }
        let answers = planner.plan_batch(method, &distinct);
        distinct.iter().map(|l| l.to_bits()).zip(answers).collect()
    };
    let plan_for = |demand: f64| -> Result<AllocationPlan, PolicyError> {
        plan_cache
            .get(&demand.to_bits())
            .cloned()
            .unwrap_or_else(|| planner.plan(method, demand))
    };

    let apply = |room: &mut coolopt_room::MachineRoom, plan: &coolopt_alloc::AllocationPlan| {
        room.command_on_set(&plan.on);
        room.set_loads(&plan.loads)
            .expect("plans carry valid loads");
        room.set_set_point(plan.set_point);
    };

    // Eq. 8 predicts the steady-state CPU temperature each applied plan
    // commits to; the watchdog compares those predictions against the
    // simulated plant once it has settled. Predictions are constant per
    // plan, so they are recomputed only on application (NaN for machines
    // the plan leaves off — Eq. 8 does not describe a powered-down box).
    let predict = |plan: &AllocationPlan| -> Vec<f64> {
        let mut p = vec![f64::NAN; machines];
        for &i in &plan.on {
            p[i] = model
                .predict_cpu_temp(i, plan.loads[i], plan.t_ac_target)
                .as_kelvin();
        }
        p
    };
    let mut health = ModelHealthMonitor::new(machines, options.health);
    // The run owns its prefix's series: samples restart at t = 0, and
    // series must ascend.
    if let Some(prefix) = &options.tsdb_prefix {
        telemetry::tsdb().remove_matching(&format!("{prefix}.*"));
    }
    // The series names are built once; the step loop only appends.
    let tsdb_names: Option<[String; 3]> = options.tsdb_prefix.as_ref().map(|prefix| {
        ["computing_watts", "cooling_watts", "margin_kelvin"].map(|name| format!("{prefix}.{name}"))
    });

    let mut replans = 0usize;
    let mut plan_failures = 0usize;
    let mut current = {
        let _replan_span = telemetry::span("replan")
            .attr("at_seconds", 0.0)
            .attr("demand", trace[0].load);
        let plan = plan_for(trace[0].load)?;
        apply(&mut testbed.room, &plan);
        plan
    };
    let mut predicted = predict(&current);
    let mut last_apply = Seconds::ZERO;
    replans += 1;

    let steps = (total.as_secs_f64() / DT.as_secs_f64()).ceil() as usize;
    // The room's clock keeps running across experiments (profiling already
    // advanced it); the trace runs on time-since-start.
    let t0 = testbed.room.now();
    let mut trace_idx = 0usize;
    let mut next_replan = REPLAN_INTERVAL;
    let mut energy = Joules::ZERO;
    let mut computing_energy = Joules::ZERO;
    let mut cooling_energy = Joules::ZERO;
    let mut seg_split: Vec<(Joules, Joules)> = vec![(Joules::ZERO, Joules::ZERO); trace.len()];
    let mut served = 0.0;
    let mut requested = 0.0;
    let mut violation_seconds = 0.0;
    let mut min_margin_kelvin = f64::INFINITY;
    // One span covers each run of uninterrupted sim steps between replans,
    // so the trace shows plan → replan → step causality without emitting a
    // record per step (which would flush everything else out of the ring).
    let mut window: Option<telemetry::Span> = None;
    let mut window_steps: u64 = 0;
    let close_window = |window: &mut Option<telemetry::Span>, window_steps: &mut u64| {
        if let Some(mut w) = window.take() {
            w.set_attr("steps", *window_steps);
        }
        *window_steps = 0;
    };

    for k in 0..steps {
        let now = testbed.room.now() - t0;

        // Demand changes take effect immediately and force a replan.
        let mut demand_changed = false;
        while trace_idx + 1 < trace.len()
            && trace[trace_idx + 1].at.as_secs_f64() <= now.as_secs_f64()
        {
            trace_idx += 1;
            demand_changed = true;
        }
        let demand = trace[trace_idx].load;

        if demand_changed || now.as_secs_f64() >= next_replan.as_secs_f64() {
            close_window(&mut window, &mut window_steps);
            let mut replan_span = telemetry::span("replan")
                .attr("at_seconds", now.as_secs_f64())
                .attr("demand", demand);
            match plan_for(demand) {
                Ok(plan) => {
                    apply(&mut testbed.room, &plan);
                    current = plan;
                    predicted = predict(&current);
                    last_apply = now;
                    replans += 1;
                    replan_span.set_attr("ok", true);
                }
                Err(_) => {
                    plan_failures += 1;
                    replan_span.set_attr("ok", false);
                }
            }
            next_replan = now + REPLAN_INTERVAL;
        }

        if window.is_none() {
            window = Some(telemetry::span("sim_steps").attr("at_seconds", now.as_secs_f64()));
        }
        testbed.room.step();
        window_steps += 1;

        let pc = testbed.room.computing_power();
        let pk = testbed.room.cooling_power();
        let p = pc + pk; // `total_power`, without evaluating both again
        energy += p * DT;
        computing_energy += pc * DT;
        cooling_energy += pk * DT;
        seg_split[trace_idx].0 += pc * DT;
        seg_split[trace_idx].1 += pk * DT;
        served += testbed
            .room
            .servers()
            .iter()
            .map(|s| s.effective_load())
            .sum::<f64>()
            * DT.as_secs_f64();
        requested += demand * DT.as_secs_f64();
        let hottest = testbed
            .room
            .servers()
            .iter()
            .map(|s| s.cpu_temp().as_kelvin())
            .fold(f64::NEG_INFINITY, f64::max);
        if hottest > t_max.as_kelvin() {
            violation_seconds += DT.as_secs_f64();
        }
        min_margin_kelvin = min_margin_kelvin.min(t_max.as_kelvin() - hottest);
        // The watchdog skips the settle window after each plan
        // application: the margin monitor would otherwise escalate on the
        // inherited startup state / replan transients (min_margin_kelvin
        // above still records those), and Eq. 8 predicts steady state, so
        // unsettled residuals would false-trip the drift detector.
        let settled = (now - last_apply).as_secs_f64() >= SETTLE.as_secs_f64();
        if settled {
            health.observe_margin(now, t_max.as_kelvin() - hottest);
        }
        // Residual samples additionally follow the sampling cadence.
        if settled && k % RECORD_STEPS == 0 {
            for (i, s) in testbed.room.servers().iter().enumerate() {
                let pred = predicted[i];
                if s.is_on() && pred.is_finite() {
                    health.observe_residual(i, pred - s.cpu_temp().as_kelvin());
                }
            }
        }
        // The time-series store gets the energy split and the safety
        // margin at the same cadence, on the simulation clock.
        if k % RECORD_STEPS == 0 {
            if let Some([computing, cooling, margin]) = &tsdb_names {
                let db = telemetry::tsdb();
                let sim_ms = (now.as_secs_f64() * 1000.0) as i64;
                db.append(computing, sim_ms, pc.as_watts());
                db.append(cooling, sim_ms, pk.as_watts());
                db.append(margin, sim_ms, t_max.as_kelvin() - hottest);
            }
        }
    }
    close_window(&mut window, &mut window_steps);
    trace_span.set_attr("replans", replans);

    telemetry::counter("coolopt_replans_total").add(replans as u64);
    telemetry::counter("coolopt_replan_failures_total").add(plan_failures as u64);
    telemetry::gauge("coolopt_trace_margin_min_kelvin").set_min(min_margin_kelvin);
    telemetry::gauge("coolopt_trace_computing_joules").add(computing_energy.as_joules());
    telemetry::gauge("coolopt_trace_cooling_joules").add(cooling_energy.as_joules());

    let duration = Seconds::new(steps as f64 * DT.as_secs_f64());
    Ok(TraceOutcome {
        energy,
        computing_energy,
        cooling_energy,
        segments: trace
            .iter()
            .zip(seg_split)
            .map(|(point, (computing, cooling))| SegmentEnergy {
                start: point.at,
                load: point.load,
                computing,
                cooling,
            })
            .collect(),
        duration,
        mean_power: energy / duration,
        violation_seconds,
        min_margin_kelvin,
        served_fraction: if requested > 0.0 {
            served / requested
        } else {
            1.0
        },
        replans,
        plan_failures,
        health: Some(health.finish()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinusoidal_trace_spans_the_requested_band() {
        let trace = sinusoidal_trace(10, 0.2, 0.8, Seconds::new(3600.0), 12);
        assert_eq!(trace.len(), 12);
        let min = trace.iter().map(|p| p.load).fold(f64::INFINITY, f64::min);
        let max = trace
            .iter()
            .map(|p| p.load)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min >= 2.0 - 1e-9 && max <= 8.0 + 1e-9);
        assert!(max > 7.5, "peak should approach the requested maximum");
        assert!(trace.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn sinusoidal_trace_hits_both_boundary_plateaus() {
        // Even step counts place plateaus exactly at phase 0 (minimum) and
        // phase π (maximum).
        let trace = sinusoidal_trace(8, 0.25, 0.75, Seconds::new(1200.0), 6);
        assert!((trace[0].load - 0.25 * 8.0).abs() < 1e-12, "{trace:?}");
        assert!((trace[3].load - 0.75 * 8.0).abs() < 1e-12, "{trace:?}");
        // A degenerate band is a constant trace, not an error.
        let flat = sinusoidal_trace(8, 0.5, 0.5, Seconds::new(1200.0), 4);
        assert!(flat.iter().all(|p| (p.load - 4.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "min_frac")]
    fn sinusoidal_trace_rejects_inverted_band() {
        sinusoidal_trace(8, 0.8, 0.2, Seconds::new(100.0), 4);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sinusoidal_trace_rejects_nan_fraction() {
        sinusoidal_trace(8, f64::NAN, 0.5, Seconds::new(100.0), 4);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn sinusoidal_trace_rejects_nonpositive_duration() {
        sinusoidal_trace(8, 0.2, 0.8, Seconds::new(0.0), 4);
    }

    #[test]
    fn a_trace_run_replaces_its_prefix_series() {
        let mut tb = Testbed::build_sized(6, 11).unwrap();
        let planner = crate::scenario_planner(&tb, &crate::SweepOptions::default());
        let trace = [TracePoint {
            at: Seconds::ZERO,
            load: 3.0,
        }];
        let options = RuntimeOptions {
            tsdb_prefix: Some("trace_run_replaces_its_prefix".to_string()),
            ..RuntimeOptions::default()
        };
        let hour = Seconds::new(3600.0);
        for _ in 0..2 {
            run_load_trace_with(
                &planner,
                &mut tb,
                Method::numbered(8),
                &trace,
                hour,
                &options,
            )
            .unwrap();
        }
        let series = telemetry::tsdb().query_matching(
            "trace_run_replaces_its_prefix.*",
            &telemetry::RangeQuery::default(),
        );
        assert_eq!(series.len(), 3);
        for s in series {
            // One 1 h run at the 10 s cadence: 360 points, ascending.
            assert_eq!(s.points.len(), 360, "{}", s.name);
            assert!(s.points.windows(2).all(|w| w[0].0 < w[1].0), "{}", s.name);
        }
    }

    #[test]
    fn replanning_controller_tracks_a_varying_load() {
        let mut tb = Testbed::build_sized(4, 37).unwrap();
        let planner = crate::scenario_planner(&tb, &crate::SweepOptions::default());
        let trace = vec![
            TracePoint {
                at: Seconds::ZERO,
                load: 1.0,
            },
            TracePoint {
                at: Seconds::new(2500.0),
                load: 3.0,
            },
        ];
        let outcome = run_load_trace_with(
            &planner,
            &mut tb,
            Method::numbered(8),
            &trace,
            Seconds::new(5000.0),
            &RuntimeOptions::default(),
        )
        .unwrap();
        assert!(outcome.replans >= 2, "must replan at the demand step");
        assert_eq!(outcome.plan_failures, 0);
        // Some throughput is inevitably lost to boot transients, but the
        // bulk must be served.
        assert!(
            outcome.served_fraction > 0.9,
            "served only {:.1} %",
            outcome.served_fraction * 100.0
        );
        assert!(outcome.energy.as_joules() > 0.0);
        // Mean power over the plateau after the step up must exceed the
        // mean over the one before it (each plateau lasts 2500 s).
        let mean_watts = |s: &SegmentEnergy| (s.computing + s.cooling).as_joules() / 2500.0;
        let [early, late] = &outcome.segments[..] else {
            panic!("one segment per plateau: {:?}", outcome.segments);
        };
        let (early_mean, late_mean) = (mean_watts(early), mean_watts(late));
        assert!(
            late_mean > early_mean + 50.0,
            "power should rise after the demand step: {early_mean} → {late_mean}"
        );
    }
}
