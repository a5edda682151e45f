//! Driving the room through a grid of operating points.
//!
//! Profiling (paper §IV-A) is a sequence of steady-state experiments: set a
//! load pattern and a cooling set point, wait for the room to stabilize
//! ("the server was running until a stable CPU temperature was reached"),
//! then record everything through the instruments.

use coolopt_room::{MachineRoom, SteadyMeasurement};
use coolopt_units::{Seconds, Temperature, Watts};
use serde::{Deserialize, Serialize};

/// One operating point to visit.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Per-machine load fractions.
    pub loads: Vec<f64>,
    /// CRAC return-air set point.
    pub set_point: Temperature,
}

/// The steady-state record taken at one operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRecord {
    /// Commanded per-machine loads.
    pub loads: Vec<f64>,
    /// Commanded set point.
    pub set_point: Temperature,
    /// Whether the room actually settled within the budget.
    pub settled: bool,
    /// Mean observed supply temperature `T_ac`.
    pub t_ac: Temperature,
    /// Mean observed return temperature.
    pub t_return: Temperature,
    /// Mean per-machine power readings.
    pub server_power: Vec<Watts>,
    /// Mean per-machine CPU temperature readings.
    pub cpu_temp: Vec<Temperature>,
    /// Mean cooling-unit electrical power.
    pub cooling_power: Watts,
}

impl PointRecord {
    /// Total commanded load `Σ L_i`.
    pub fn total_load(&self) -> f64 {
        self.loads.iter().sum()
    }
}

/// Visits every operating point in order (machines all on) and records it.
///
/// # Panics
///
/// Panics if an operating point's load vector does not match the room size
/// or contains out-of-range fractions.
pub fn run_grid(
    room: &mut MachineRoom,
    points: &[OperatingPoint],
    settle_max: Seconds,
    window: Seconds,
) -> Vec<PointRecord> {
    room.force_all_on();
    points
        .iter()
        .map(|point| {
            room.set_loads(&point.loads)
                .expect("operating-point loads are valid");
            room.set_set_point(point.set_point);
            let m = SteadyMeasurement::collect(room, settle_max, window);
            PointRecord {
                loads: point.loads.clone(),
                set_point: point.set_point,
                settled: m.settled,
                t_ac: m.t_supply,
                t_return: m.t_return,
                server_power: m.server_powers,
                cpu_temp: m.cpu_temps,
                cooling_power: m.cooling_power,
            }
        })
        .collect()
}

/// The default profiling grid for a room of `n` machines: the paper's load
/// staircase (0, 10, 25, 50, 75 % of capacity) uniformly, plus two
/// alternating high/low patterns that decorrelate a machine's own power from
/// its neighbours' (improving the per-machine thermal fits), crossed with
/// the given set points.
pub fn default_grid(n: usize, set_points: &[Temperature]) -> Vec<OperatingPoint> {
    let mut patterns: Vec<Vec<f64>> = [0.0, 0.10, 0.25, 0.50, 0.75]
        .iter()
        .map(|&l| vec![l; n])
        .collect();
    patterns.push((0..n).map(|i| if i % 2 == 0 { 0.8 } else { 0.1 }).collect());
    patterns.push((0..n).map(|i| if i % 2 == 0 { 0.1 } else { 0.8 }).collect());
    let mut points = Vec::with_capacity(patterns.len() * set_points.len());
    for &sp in set_points {
        for p in &patterns {
            points.push(OperatingPoint {
                loads: p.clone(),
                set_point: sp,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_room::presets;

    #[test]
    fn default_grid_has_expected_shape() {
        let sps = [
            Temperature::from_celsius(17.0),
            Temperature::from_celsius(20.0),
        ];
        let grid = default_grid(4, &sps);
        assert_eq!(grid.len(), 14); // 7 patterns × 2 set points
        assert!(grid.iter().all(|p| p.loads.len() == 4));
        // The alternating patterns are present.
        assert!(grid.iter().any(|p| p.loads == vec![0.8, 0.1, 0.8, 0.1]));
    }

    #[test]
    fn run_grid_produces_sane_records() {
        let mut room = presets::small_rack(3, 21);
        let points = vec![
            OperatingPoint {
                loads: vec![0.2; 3],
                set_point: Temperature::from_celsius(19.0),
            },
            OperatingPoint {
                loads: vec![0.7; 3],
                set_point: Temperature::from_celsius(19.0),
            },
        ];
        let records = run_grid(&mut room, &points, crate::SETTLE_MAX, crate::WINDOW);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert!(r.settled, "grid point failed to settle");
            assert!(r.t_ac < r.t_return);
            assert_eq!(r.server_power.len(), 3);
        }
        // Higher load ⇒ more server power and hotter CPUs.
        assert!(records[1].server_power[0] > records[0].server_power[0]);
        assert!(records[1].cpu_temp[0] > records[0].cpu_temp[0]);
        assert!((records[1].total_load() - 2.1).abs() < 1e-9);
    }
}
