//! Ablation studies: which ingredients of the holistic optimum actually
//! carry the savings, and how robust is it to the things the model gets
//! wrong?
//!
//! Three studies (all beyond the paper's own evaluation, but directly
//! motivated by its claims):
//!
//! * [`separate_vs_holistic`] — the paper's introduction argues that
//!   optimizing computing and cooling *separately* leaves energy on the
//!   table ("power struggles"). This study pits the separate optimum
//!   (fewest machines, thermally blind, cooling fixed afterwards) against
//!   the holistic one.
//! * [`guard_band_study`] — the planner keeps a guard band below `T_max` to
//!   absorb fitted-model error; sweeping it exposes the safety ↔ energy
//!   trade-off and measures how much the model actually errs.
//! * [`recirculation_study`] — rebuilds the room with stronger/weaker
//!   exhaust recirculation (physics the linear model does not represent)
//!   and re-runs the headline comparison, measuring how model mismatch
//!   erodes the savings.

use crate::figures::{FigureData, Series};
use crate::harness::{run_method_with, scenario_planner, SweepOptions};
use crate::savings::savings_summary;
use crate::testbed::Testbed;
use coolopt_alloc::{Method, Strategy};
use coolopt_room::presets::RackOptions;
use coolopt_units::TempDelta;
use serde::{Deserialize, Serialize};

/// Holistic optimum (#8) vs the separate optimization of computing and
/// cooling, across loads.
pub fn separate_vs_holistic(testbed: &mut Testbed, options: &SweepOptions) -> FigureData {
    let separate = Method::new(Strategy::SeparateOpt, true, true);
    let holistic = Method::numbered(8);
    let planner = scenario_planner(testbed, options);
    let mut sep_points = Vec::new();
    let mut hol_points = Vec::new();
    for &pct in &options.load_percents {
        if let Ok(run) = run_method_with(&planner, testbed, separate, pct, options) {
            sep_points.push((pct, run.total_power().as_watts()));
        }
        if let Ok(run) = run_method_with(&planner, testbed, holistic, pct, options) {
            hol_points.push((pct, run.total_power().as_watts()));
        }
    }
    FigureData {
        id: "ablation_separate".into(),
        title: "Separate computing/cooling optimization vs holistic optimum".into(),
        axes: ("Load (%)".into(), "Power (W)".into()),
        series: vec![
            Series {
                label: "Separate".into(),
                points: sep_points,
            },
            Series {
                label: "Holistic (#8)".into(),
                points: hol_points,
            },
        ],
        text: None,
    }
}

/// One row of the guard-band study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardOutcome {
    /// Guard band (K below `T_max`) the planner used.
    pub guard_kelvin: f64,
    /// Measured total power (W).
    pub total_power: f64,
    /// Hottest CPU reading observed (°C).
    pub max_cpu_celsius: f64,
    /// Whether the *true* `T_max` was respected.
    pub safe: bool,
}

/// Sweeps the planner's guard band at a fixed method and load.
pub fn guard_band_study(
    testbed: &mut Testbed,
    method: Method,
    load_percent: f64,
    guards_kelvin: &[f64],
    base_options: &SweepOptions,
) -> Vec<GuardOutcome> {
    let t_max = testbed.profile.model.t_max();
    guards_kelvin
        .iter()
        .filter_map(|&g| {
            let mut tb = testbed.clone();
            let options = SweepOptions {
                guard: TempDelta::from_kelvin(g),
                ..base_options.clone()
            };
            // Each guard changes the planner's effective model, so this
            // study necessarily builds one planner (one engine) per guard.
            let planner = scenario_planner(&tb, &options);
            run_method_with(&planner, &mut tb, method, load_percent, &options)
                .ok()
                .map(|run| GuardOutcome {
                    guard_kelvin: g,
                    total_power: run.total_power().as_watts(),
                    max_cpu_celsius: run.measurement.max_cpu_temp_true.as_celsius(),
                    safe: run.measurement.max_cpu_temp_true <= t_max,
                })
        })
        .collect()
}

/// One row of the recirculation study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecirculationOutcome {
    /// Recirculation strength multiplier applied to the room.
    pub scale: f64,
    /// Mean savings of #8 over #7 (fraction).
    pub mean_savings: f64,
    /// Worst-case savings (fraction; negative = optimal lost somewhere).
    pub min_savings: f64,
    /// Mean thermal-fit r² across machines (how well the linear model held).
    pub mean_thermal_r2: f64,
}

/// Re-profiles and re-evaluates the headline comparison under scaled
/// exhaust-recirculation physics.
///
/// # Panics
///
/// Panics if a scaled room cannot be profiled (does not happen for scales
/// in `[0, 2]` with the shipped presets).
pub fn recirculation_study(
    machines: usize,
    seed: u64,
    scales: &[f64],
    options: &SweepOptions,
) -> Vec<RecirculationOutcome> {
    scales
        .iter()
        .map(|&scale| {
            let mut testbed = Testbed::from_options(RackOptions {
                machines,
                seed,
                recirculation_scale: scale,
                ..RackOptions::default()
            })
            .expect("scaled preset profiles cleanly");
            let r2 = &testbed.profile.thermal.r2;
            let mean_thermal_r2 = r2.iter().sum::<f64>() / r2.len() as f64;
            let planner = scenario_planner(&testbed, options);
            let mut sweep = crate::harness::Sweep::default();
            let methods = [Method::numbered(7), Method::numbered(8)];
            for &pct in &options.load_percents {
                for &m in &methods {
                    if let Ok(run) = run_method_with(&planner, &mut testbed, m, pct, options) {
                        sweep.insert(m, pct, run);
                    }
                }
            }
            let summary = savings_summary(&sweep, Method::numbered(8), Method::numbered(7))
                .expect("both methods ran");
            RecirculationOutcome {
                scale,
                mean_savings: summary.mean,
                min_savings: summary.min,
                mean_thermal_r2,
            }
        })
        .collect()
}

/// One row of the seed study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedOutcome {
    /// The testbed seed.
    pub seed: u64,
    /// Mean savings of #8 over #7 (fraction).
    pub mean_savings: f64,
    /// Best-case savings (fraction).
    pub max_savings: f64,
    /// Worst-case savings (fraction).
    pub min_savings: f64,
}

/// Re-runs the headline comparison on freshly drawn testbeds: how sensitive
/// is the result to the particular (randomized) rack instance?
///
/// # Panics
///
/// Panics if a seed's testbed cannot be profiled or both methods fail to
/// run (does not happen for the shipped presets).
pub fn seed_study(machines: usize, seeds: &[u64], options: &SweepOptions) -> Vec<SeedOutcome> {
    seeds
        .iter()
        .map(|&seed| {
            let mut testbed =
                Testbed::build_sized(machines, seed).expect("preset testbed profiles cleanly");
            let planner = scenario_planner(&testbed, options);
            let mut sweep = crate::harness::Sweep::default();
            for &pct in &options.load_percents {
                for m in [Method::numbered(7), Method::numbered(8)] {
                    if let Ok(run) = run_method_with(&planner, &mut testbed, m, pct, options) {
                        sweep.insert(m, pct, run);
                    }
                }
            }
            let s = savings_summary(&sweep, Method::numbered(8), Method::numbered(7))
                .expect("both methods ran");
            SeedOutcome {
                seed,
                mean_savings: s.mean,
                max_savings: s.max,
                min_savings: s.min,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_units::Seconds;

    fn quick_options() -> SweepOptions {
        SweepOptions {
            load_percents: vec![30.0, 70.0],
            settle_max: Seconds::new(3000.0),
            window: Seconds::new(40.0),
            ..SweepOptions::default()
        }
    }

    #[test]
    fn holistic_never_loses_to_separate_optimization() {
        let mut tb = Testbed::build_sized(5, 29).unwrap();
        let fig = separate_vs_holistic(&mut tb, &quick_options());
        assert_eq!(fig.series.len(), 2);
        for (sep, hol) in fig.series[0].points.iter().zip(&fig.series[1].points) {
            assert!(
                hol.1 <= sep.1 * 1.02,
                "holistic {hol:?} lost to separate {sep:?}"
            );
        }
    }

    #[test]
    fn wider_guard_is_safer_but_costlier() {
        let mut tb = Testbed::build_sized(4, 31).unwrap();
        let outcomes = guard_band_study(
            &mut tb,
            Method::numbered(8),
            60.0,
            &[0.0, 3.0],
            &quick_options(),
        );
        assert_eq!(outcomes.len(), 2);
        // A wider guard never runs hotter.
        assert!(outcomes[1].max_cpu_celsius <= outcomes[0].max_cpu_celsius + 0.5);
    }
}
