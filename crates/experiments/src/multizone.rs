//! Multi-zone scenario validation: per-zone set-point planning against the
//! best single shared supply temperature, closed on the simulated plant.
//!
//! The planner side works purely on the scenario's **declared** models
//! ([`coolopt_scenario::zone_system`] → [`coolopt_core::solve_zones`]); the
//! plant side materializes the same document into a
//! [`coolopt_room::MachineRoom`] and simulates both plans to steady state.
//! The PR 5 model-health watchdog closes the loop: settled residuals between
//! the declared per-machine prediction and the simulated CPU temperatures
//! feed the drift detector, and the distance to the policy's `T_max` feeds
//! the margin monitor. A scenario whose declared `α/β/γ` disagree with its
//! own physics trips the watchdog here, before anyone trusts its plans.

use crate::runtime::RECORD_STEPS;
use coolopt_core::{solve_zones, solve_zones_uniform, SolveError, ZoneSolution, ZoneSystem};
use coolopt_room::materialize;
use coolopt_room::room::InvalidRoom;
use coolopt_room::DT;
use coolopt_scenario::{zone_system, Scenario, ScenarioError};
use coolopt_sim::{HealthConfig, HealthReport, ModelHealthMonitor};
use coolopt_telemetry as telemetry;
use coolopt_units::{Seconds, Temperature, Watts};
use std::fmt;

/// Why the multi-zone experiment could not run.
#[derive(Debug)]
pub enum MultiZoneError {
    /// The scenario document is invalid or does not assemble into a
    /// declared zone system.
    Scenario(ScenarioError),
    /// The per-zone planner failed on the declared system.
    Solve(SolveError),
    /// The scenario failed to materialize into a consistent plant.
    Room(InvalidRoom),
    /// The experiment needs at least two zones.
    SingleZone,
}

impl fmt::Display for MultiZoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiZoneError::Scenario(e) => write!(f, "scenario rejected: {e}"),
            MultiZoneError::Solve(e) => write!(f, "planning failed: {e}"),
            MultiZoneError::Room(e) => write!(f, "plant rejected: {e}"),
            MultiZoneError::SingleZone => {
                write!(f, "scenario has one zone; use the testbed pipeline")
            }
        }
    }
}

impl std::error::Error for MultiZoneError {}

impl From<ScenarioError> for MultiZoneError {
    fn from(e: ScenarioError) -> Self {
        MultiZoneError::Scenario(e)
    }
}

impl From<SolveError> for MultiZoneError {
    fn from(e: SolveError) -> Self {
        MultiZoneError::Solve(e)
    }
}

impl From<InvalidRoom> for MultiZoneError {
    fn from(e: InvalidRoom) -> Self {
        MultiZoneError::Room(e)
    }
}

/// Total load [`run_multizone`] drives, as a fraction of the machine count.
const LOAD_FRACTION: f64 = 0.5;

/// Settle budget per variant.
const MAX_SETTLE: Seconds = Seconds::new(6_000.0);

/// Knobs of [`run_multizone`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiZoneOptions {
    /// Post-settle measurement window (1 Hz sampling).
    pub window: Seconds,
    /// When set, both variants stream per-zone plant series into the
    /// process-global [time-series store](coolopt_telemetry::tsdb):
    /// `{prefix}.{variant}.zone{z}.computing_watts` plus room-level
    /// `cooling_watts` and `margin_kelvin`, every 10 s of simulation time.
    /// The run owns every `{prefix}.*` series: it drops what an earlier
    /// run left there before its first sample.
    pub tsdb_prefix: Option<&'static str>,
}

impl Default for MultiZoneOptions {
    fn default() -> Self {
        MultiZoneOptions {
            window: Seconds::new(300.0),
            tsdb_prefix: None,
        }
    }
}

/// Steady-state outcome of driving one plan on the simulated plant.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantOutcome {
    /// Commanded supply temperature per CRAC.
    pub t_ac: Vec<Temperature>,
    /// The planner's predicted total power (declared models).
    pub predicted_total: Watts,
    /// Measured mean computing power.
    pub computing: Watts,
    /// Measured mean cooling power.
    pub cooling: Watts,
    /// Measured mean total power.
    pub total: Watts,
    /// Hottest true CPU temperature during the window.
    pub max_cpu: Temperature,
    /// Smallest observed distance (K) between the hottest CPU and the
    /// policy's true `T_max` (negative = violation).
    pub min_margin_kelvin: f64,
    /// Whether the plant reached steady state within the settle budget.
    pub settled: bool,
    /// Watchdog verdict (`None` on the unwatched uniform variant).
    pub health: Option<HealthReport>,
}

/// The experiment's result: per-zone plan vs the uniform baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiZoneOutcome {
    /// Zone count.
    pub zones: usize,
    /// Machine count.
    pub machines: usize,
    /// Total load driven (absolute, machines × fraction).
    pub total_load: f64,
    /// The block-structured per-zone plan, validated on the plant.
    pub per_zone: VariantOutcome,
    /// The best single shared supply temperature, same plant.
    pub uniform: VariantOutcome,
}

impl MultiZoneOutcome {
    /// Measured savings of the per-zone plan over the uniform baseline,
    /// as a fraction of the uniform total.
    pub fn savings_fraction(&self) -> f64 {
        let u = self.uniform.total.as_watts();
        if u > 0.0 {
            (u - self.per_zone.total.as_watts()) / u
        } else {
            0.0
        }
    }
}

/// Plans per-zone and uniform set points on the declared models, then
/// simulates both on the materialized plant and compares steady-state
/// power, `T_max` margins, and watchdog verdicts.
///
/// # Errors
///
/// Returns [`MultiZoneError`] for single-zone documents, invalid scenarios,
/// planning failures, and plants that fail component validation.
pub fn run_multizone(
    scenario: &Scenario,
    options: &MultiZoneOptions,
) -> Result<MultiZoneOutcome, MultiZoneError> {
    if scenario.is_single_zone() {
        return Err(MultiZoneError::SingleZone);
    }
    let system = zone_system(scenario)?;
    let machines = system.total_machines();
    let total_load = LOAD_FRACTION * machines as f64;
    let per_plan = solve_zones(&system, total_load)?;
    let uni_plan = solve_zones_uniform(&system, total_load)?;
    telemetry::info!(
        "multizone",
        "planned per-zone and uniform set points",
        zones = system.len(),
        machines = machines,
        total_load = total_load,
        per_zone_watts = per_plan.total().as_watts(),
        uniform_watts = uni_plan.total().as_watts(),
    );
    if let Some(prefix) = options.tsdb_prefix {
        telemetry::tsdb().remove_matching(&format!("{prefix}.*"));
    }
    let per_zone = run_variant(scenario, &system, &per_plan, options, true)?;
    let uniform = run_variant(scenario, &system, &uni_plan, options, false)?;
    Ok(MultiZoneOutcome {
        zones: system.len(),
        machines,
        total_load,
        per_zone,
        uniform,
    })
}

/// Simulates one plan to steady state and measures it. The watchdog only
/// runs on the per-zone variant (`watch`): the uniform baseline shares the
/// same declared models, so one verdict covers both.
fn run_variant(
    scenario: &Scenario,
    system: &ZoneSystem,
    plan: &ZoneSolution,
    options: &MultiZoneOptions,
    watch: bool,
) -> Result<VariantOutcome, MultiZoneError> {
    let mut room = materialize(scenario)?;
    room.force_all_on();
    let flat_loads: Vec<f64> = plan.loads.iter().flatten().copied().collect();
    room.set_loads(&flat_loads)
        .expect("planned loads are valid fractions");
    room.set_fixed_supplies(&plan.t_ac);
    let settled = room.settle(MAX_SETTLE, 5.0);

    // Declared per-machine predictions at the commanded supply vector; the
    // residuals against the simulated plant feed the drift detector.
    let n = room.len();
    let mut predicted = vec![0.0; n];
    {
        let mut i = 0;
        for (z, zone_loads) in plan.loads.iter().enumerate() {
            for (j, &l) in zone_loads.iter().enumerate() {
                predicted[i] = system.predict_cpu_temp(z, j, l, &plan.t_ac).as_kelvin();
                i += 1;
            }
        }
    }

    let t_max = scenario.policy.t_max.as_kelvin();
    let mut monitor = ModelHealthMonitor::new(n, HealthConfig::default());
    let steps = (options.window.as_secs_f64() / DT.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    let mut computing = 0.0;
    let mut cooling = 0.0;
    let mut max_cpu = f64::NEG_INFINITY;
    let mut min_margin = f64::INFINITY;
    // Per-zone series names are built once; the measure loop only appends.
    let variant = if watch { "per_zone" } else { "uniform" };
    let tsdb_names: Option<(Vec<String>, String, String)> = options.tsdb_prefix.map(|prefix| {
        (
            (0..room.zone_count())
                .map(|z| format!("{prefix}.{variant}.zone{z}.computing_watts"))
                .collect(),
            format!("{prefix}.{variant}.cooling_watts"),
            format!("{prefix}.{variant}.margin_kelvin"),
        )
    });
    for k in 0..steps {
        room.step();
        computing += room.computing_power().as_watts();
        cooling += room.cooling_power().as_watts();
        let hottest = room
            .servers()
            .iter()
            .map(|s| s.cpu_temp().as_kelvin())
            .fold(f64::NEG_INFINITY, f64::max);
        max_cpu = max_cpu.max(hottest);
        min_margin = min_margin.min(t_max - hottest);
        // Stream per-zone power and the safety margin at the recording
        // cadence, on the simulation clock.
        if k % RECORD_STEPS == 0 {
            if let Some((zone_names, cooling_name, margin_name)) = &tsdb_names {
                let db = telemetry::tsdb();
                let sim_ms = (room.now().as_secs_f64() * 1000.0) as i64;
                let mut per_zone = vec![0.0; room.zone_count()];
                for (i, s) in room.servers().iter().enumerate() {
                    per_zone[room.zone_of(i)] += s.power_draw().as_watts();
                }
                for (name, watts) in zone_names.iter().zip(per_zone) {
                    db.append(name, sim_ms, watts);
                }
                db.append(cooling_name, sim_ms, room.cooling_power().as_watts());
                db.append(margin_name, sim_ms, t_max - hottest);
            }
        }
        if watch {
            monitor.observe_margin(room.now(), t_max - hottest);
            // Residuals at the runtime watchdog's cadence.
            if k % RECORD_STEPS == 0 {
                for (i, s) in room.servers().iter().enumerate() {
                    monitor.observe_residual(i, predicted[i] - s.cpu_temp().as_kelvin());
                }
            }
        }
    }
    let k = steps as f64;
    let computing = Watts::new(computing / k);
    let cooling = Watts::new(cooling / k);
    Ok(VariantOutcome {
        t_ac: plan.t_ac.clone(),
        predicted_total: plan.total(),
        computing,
        cooling,
        total: computing + cooling,
        max_cpu: Temperature::from_kelvin(max_cpu),
        min_margin_kelvin: min_margin,
        settled,
        health: watch.then(|| monitor.finish()),
    })
}

/// Renders the human-readable comparison table.
pub fn render_multizone(scenario: &Scenario, outcome: &MultiZoneOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Per-zone vs uniform set points on {:?} ({} zones, {} machines, load {:.1}) ==",
        scenario.name, outcome.zones, outcome.machines, outcome.total_load
    );
    let _ = writeln!(
        out,
        "{:>10} {:>24} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "plan", "T_ac (°C)", "predicted W", "measured W", "cooling W", "margin K", "settled"
    );
    for (label, v) in [
        ("per-zone", &outcome.per_zone),
        ("uniform", &outcome.uniform),
    ] {
        let supplies = v
            .t_ac
            .iter()
            .map(|t| format!("{:.2}", t.as_celsius()))
            .collect::<Vec<_>>()
            .join(" / ");
        let _ = writeln!(
            out,
            "{label:>10} {supplies:>24} {:>12.1} {:>12.1} {:>12.1} {:>10.2} {:>8}",
            v.predicted_total.as_watts(),
            v.total.as_watts(),
            v.cooling.as_watts(),
            v.min_margin_kelvin,
            v.settled,
        );
    }
    let _ = writeln!(
        out,
        "measured savings of per-zone over uniform: {:.2} %",
        outcome.savings_fraction() * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_zone_preset_beats_uniform_on_the_simulated_plant() {
        let scenario = coolopt_scenario::presets::two_zone_hetero(7);
        let options = MultiZoneOptions {
            window: Seconds::new(120.0),
            ..MultiZoneOptions::default()
        };
        let outcome = run_multizone(&scenario, &options).expect("experiment runs");
        eprintln!("{}", render_multizone(&scenario, &outcome));
        assert!(outcome.per_zone.settled && outcome.uniform.settled);
        // The acceptance bar: strictly cheaper than the best single global
        // supply temperature, with non-negative T_max margin and no drift.
        assert!(
            outcome.per_zone.total < outcome.uniform.total,
            "per-zone {} should beat uniform {}",
            outcome.per_zone.total,
            outcome.uniform.total
        );
        assert!(
            outcome.per_zone.min_margin_kelvin >= 0.0,
            "T_max margin {} must be non-negative",
            outcome.per_zone.min_margin_kelvin
        );
        if let Some(health) = &outcome.per_zone.health {
            assert!(health.healthy(), "declared models drifted: {health:?}");
        }
    }

    /// Calibration harness for the shipped two-zone preset: probes the
    /// materialized plant with supply-temperature and load steps and prints
    /// fitted per-zone `α`/`γ` gradients, per-class `w1/w2/β`, and per-CRAC
    /// `cf`/`T_SP`. Run it with `--ignored --nocapture` after changing the
    /// two-zone physics, and transplant the numbers into
    /// `coolopt_scenario::presets::two_zone_hetero`.
    #[test]
    #[ignore = "calibration harness; prints coefficients for the preset"]
    fn calibrate_two_zone_declared_models() {
        let scenario = coolopt_scenario::presets::two_zone_hetero(0);
        let coupling = coolopt_scenario::coupling_matrix(&scenario);
        let n = scenario.total_machines();
        // Mean per-machine (T_cpu K, P W) and per-CRAC electrical power at a
        // settled operating point.
        let probe = |t0: f64, t1: f64, load: f64| -> (Vec<f64>, Vec<f64>, [f64; 2]) {
            let mut room = materialize(&scenario).unwrap();
            room.force_all_on();
            room.set_loads(&vec![load; n]).unwrap();
            room.set_fixed_supplies(&[
                Temperature::from_celsius(t0),
                Temperature::from_celsius(t1),
            ]);
            assert!(room.settle(Seconds::new(10_000.0), 2.0), "probe settles");
            let steps = 400;
            let mut t = vec![0.0; n];
            let mut p = vec![0.0; n];
            let mut ac = [0.0; 2];
            for _ in 0..steps {
                room.step();
                for (i, s) in room.servers().iter().enumerate() {
                    t[i] += s.cpu_temp().as_kelvin();
                    p[i] += s.power_draw().as_watts();
                }
                let state = room.air_state();
                for (u, (crac, &ret)) in room.cracs().iter().zip(&state.returns).enumerate() {
                    ac[u] += crac.electrical_power(ret, crac.integral()).as_watts();
                }
            }
            let k = steps as f64;
            t.iter_mut().for_each(|v| *v /= k);
            p.iter_mut().for_each(|v| *v /= k);
            ac.iter_mut().for_each(|v| *v /= k);
            (t, p, ac)
        };

        // An 8 K supply step so the secant spans the planner's whole trust
        // region (the preset caps `T_ac` at 30 °C near / 24 °C far).
        let (tb, pb, acb) = probe(16.0, 16.0, 0.5);
        let (t0, _, ac0) = probe(24.0, 16.0, 0.5);
        let (t1, _, ac1) = probe(16.0, 24.0, 0.5);
        let (tl, pl, _) = probe(16.0, 16.0, 0.8);

        let zone_starts: Vec<usize> = scenario
            .zones
            .iter()
            .scan(0usize, |acc, z| {
                let s = *acc;
                *acc += z.machine_count();
                Some(s)
            })
            .collect();
        for (z, zone) in scenario.zones.iter().enumerate() {
            let nz = zone.machine_count();
            let start = zone_starts[z];
            let c0 = coupling[z][0];
            let c1 = coupling[z][1];
            // Per-machine fits, then a least-squares line over rack height.
            let mut alphas = Vec::new();
            let mut gammas = Vec::new();
            let mut betas = Vec::new();
            let mut w1s = Vec::new();
            let mut w2s = Vec::new();
            for j in 0..nz {
                let i = start + j;
                let s0 = (t0[i] - tb[i]) / 8.0;
                let s1 = (t1[i] - tb[i]) / 8.0;
                // Best α given the declared coupling row (least squares over
                // the two probes).
                let alpha = (s0 * c0 + s1 * c1) / (c0 * c0 + c1 * c1);
                let beta = (tl[i] - tb[i]) / (pl[i] - pb[i]);
                let w1 = (pl[i] - pb[i]) / 0.3;
                let w2 = pb[i] - w1 * 0.5;
                let t_eff = c0 * (16.0 + 273.15) + c1 * (16.0 + 273.15);
                let gamma = tb[i] - alpha * t_eff - beta * pb[i];
                alphas.push(alpha);
                gammas.push(gamma);
                betas.push(beta);
                w1s.push(w1);
                w2s.push(w2);
            }
            let fit_line = |ys: &[f64]| -> (f64, f64) {
                // y ≈ a + b·h with h = j/(n−1); returns (a, b).
                let m = ys.len() as f64;
                let hs: Vec<f64> = (0..ys.len())
                    .map(|j| j as f64 / (ys.len() - 1).max(1) as f64)
                    .collect();
                let hm = hs.iter().sum::<f64>() / m;
                let ym = ys.iter().sum::<f64>() / m;
                let num: f64 = hs.iter().zip(ys).map(|(h, y)| (h - hm) * (y - ym)).sum();
                let den: f64 = hs.iter().map(|h| (h - hm) * (h - hm)).sum();
                let b = if den > 0.0 { num / den } else { 0.0 };
                (ym - b * hm, b)
            };
            let (alpha_base, alpha_slope) = fit_line(&alphas);
            let (gamma_base, gamma_slope) = fit_line(&gammas);
            let beta = betas.iter().sum::<f64>() / nz as f64;
            let w1 = w1s.iter().sum::<f64>() / nz as f64;
            let w2 = w2s.iter().sum::<f64>() / nz as f64;
            // The plant's cooling response to a zone's supply temperature is
            // the change in **total** electrical power: part of a single
            // CRAC's own response is heat shifting to the other unit, and
            // only the remainder is a real saving. The two directional
            // responses genuinely differ (the far zone draws more room-air
            // makeup), and the plant is linear and separable over the
            // planner's trust region, so the secants are the model. `T_SP`
            // is split so the predicted base-point total matches the plant.
            let total_b = acb[0] + acb[1];
            let d_total = match z {
                0 => total_b - (ac0[0] + ac0[1]),
                _ => total_b - (ac1[0] + ac1[1]),
            };
            let cf = d_total / 8.0;
            let cf_total = (2.0 * total_b - (ac0[0] + ac0[1]) - (ac1[0] + ac1[1])) / 8.0;
            let t_sp = 16.0 + total_b / cf_total;
            println!(
                "zone {z} ({}): alpha {alpha_base:.4} span {:.4}, gamma {gamma_base:.2} K \
                 span {:.2} K, beta {beta:.4} K/W, w1 {w1:.2} W, w2 {w2:.2} W, \
                 cf {cf:.1} W/K, t_sp {t_sp:.2} °C",
                zone.name, -alpha_slope, gamma_slope,
            );
        }
    }

    #[test]
    #[ignore = "diagnostic sweep; prints the plant's supply-temperature response"]
    fn sweep_uniform_supplies() {
        let scenario = coolopt_scenario::presets::two_zone_hetero(0);
        let n = scenario.total_machines();
        for (t0, t1) in [
            (14.0, 14.0),
            (16.0, 16.0),
            (18.0, 18.0),
            (20.0, 20.0),
            (22.0, 22.0),
            (24.0, 24.0),
            (26.0, 26.0),
            (28.0, 28.0),
            // Asymmetric splits: warm the near zone, hold the far zone.
            (24.0, 20.0),
            (26.0, 20.0),
            (28.0, 20.0),
            (30.0, 20.0),
            (26.0, 18.0),
            (28.0, 18.0),
        ] {
            let mut room = materialize(&scenario).unwrap();
            room.force_all_on();
            room.set_loads(&vec![0.5; n]).unwrap();
            room.set_fixed_supplies(&[
                Temperature::from_celsius(t0),
                Temperature::from_celsius(t1),
            ]);
            assert!(room.settle(Seconds::new(10_000.0), 2.0));
            let mut cool = 0.0;
            let mut comp = 0.0;
            let mut hot0 = f64::NEG_INFINITY;
            let mut hot1 = f64::NEG_INFINITY;
            let near = room.zone_range(0);
            for _ in 0..200 {
                room.step();
                cool += room.cooling_power().as_watts();
                comp += room.computing_power().as_watts();
                for (i, s) in room.servers().iter().enumerate() {
                    let t = s.cpu_temp().as_celsius();
                    if near.contains(&i) {
                        hot0 = hot0.max(t);
                    } else {
                        hot1 = hot1.max(t);
                    }
                }
            }
            let state = room.air_state();
            println!(
                "T_ac {t0:>5.1}/{t1:>5.1} °C | cooling {:>7.1} W | computing {:>7.1} W | \
                 hottest {hot0:>5.1}/{hot1:>5.1} °C | room {:>5.1} °C | supplies {:.2}/{:.2}",
                cool / 200.0,
                comp / 200.0,
                room.room_temp().as_celsius(),
                state.supplies[0].as_celsius(),
                state.supplies[1].as_celsius(),
            );
        }
    }

    #[test]
    fn single_zone_documents_are_rejected() {
        let scenario = coolopt_scenario::presets::testbed_rack20(0);
        assert!(matches!(
            run_multizone(&scenario, &MultiZoneOptions::default()),
            Err(MultiZoneError::SingleZone)
        ));
    }
}
