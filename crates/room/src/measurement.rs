//! Steady-state measurement bundles.
//!
//! The paper's evaluation reports steady-state power and temperature.
//! [`SteadyMeasurement::collect`] reproduces the measurement procedure: let
//! the room settle, then sample it through its (noisy) instruments for a
//! while and average.

use crate::room::{MachineRoom, DT};
use coolopt_units::{Seconds, Temperature, Watts};
use serde::{Deserialize, Serialize};

/// One instantaneous snapshot of the room through its instruments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoomObservation {
    /// Simulation time of the snapshot.
    pub time: Seconds,
    /// Per-server CPU temperature readings (sensor path).
    pub cpu_temps: Vec<Temperature>,
    /// Per-server power readings (meter path).
    pub server_powers: Vec<Watts>,
    /// Supply ("cool air") temperature `T_ac` of CRAC 0 (the single-zone
    /// testbed's only unit).
    pub t_supply: Temperature,
    /// Return-stream temperature of CRAC 0.
    pub t_return: Temperature,
    /// Room-air temperature.
    pub t_room: Temperature,
    /// Electrical power of all cooling units.
    pub cooling_power: Watts,
    /// Total power (computing + cooling).
    pub total_power: Watts,
}

impl RoomObservation {
    /// Snapshots the room through its instruments.
    pub fn capture(room: &mut MachineRoom) -> Self {
        let n = room.len();
        let cpu_temps = (0..n).map(|i| room.read_cpu_temp(i)).collect();
        let server_powers: Vec<Watts> = (0..n).map(|i| room.read_power(i)).collect();
        let (t_return, t_supply, cooling_power) = room.first_crac_air_and_cooling();
        let computing: Watts = server_powers.iter().copied().sum();
        RoomObservation {
            time: room.now(),
            cpu_temps,
            server_powers,
            t_supply,
            t_return,
            t_room: room.room_temp(),
            cooling_power,
            total_power: computing + cooling_power,
        }
    }
}

/// Averaged steady-state measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteadyMeasurement {
    /// Whether the settle phase actually reached steady state.
    pub settled: bool,
    /// Mean per-server power readings (W).
    pub server_powers: Vec<Watts>,
    /// Mean per-server CPU temperature readings.
    pub cpu_temps: Vec<Temperature>,
    /// Hottest single CPU reading observed during the window.
    pub max_cpu_temp: Temperature,
    /// Hottest *true* CPU temperature during the window (bypassing the
    /// sensor's noise and quantization; available because the testbed is a
    /// simulator — the paper could only see sensor readings).
    pub max_cpu_temp_true: Temperature,
    /// Mean supply temperature `T_ac`.
    pub t_supply: Temperature,
    /// Mean return temperature.
    pub t_return: Temperature,
    /// Mean room-air temperature.
    pub t_room: Temperature,
    /// Mean cooling power (W).
    pub cooling_power: Watts,
    /// Mean computing power (W).
    pub computing_power: Watts,
    /// Mean total power (W) — the paper's `P_total`.
    pub total_power: Watts,
}

impl SteadyMeasurement {
    /// Settles the room (up to `max_settle`), then samples once per
    /// simulated second for `window` and averages.
    ///
    /// Each sample reads the instruments as [`RoomObservation::capture`]
    /// does, in the same order, but into buffers reused across the window.
    pub fn collect(room: &mut MachineRoom, max_settle: Seconds, window: Seconds) -> Self {
        let settled = room.settle(max_settle, 5.0);
        let n = room.len();
        let samples = (window.as_secs_f64() / DT.as_secs_f64()).ceil().max(1.0) as usize;

        let mut server_powers = vec![0.0; n];
        let mut cpu_temps = vec![0.0; n];
        let mut max_cpu = f64::NEG_INFINITY;
        let mut max_cpu_true = f64::NEG_INFINITY;
        let mut t_supply = 0.0;
        let mut t_return = 0.0;
        let mut t_room = 0.0;
        let mut cooling = 0.0;
        let mut total = 0.0;

        let mut cpu_readings: Vec<Temperature> = Vec::with_capacity(n);
        let mut power_readings: Vec<Watts> = Vec::with_capacity(n);
        for _ in 0..samples {
            room.step();
            cpu_readings.clear();
            cpu_readings.extend((0..n).map(|i| room.read_cpu_temp(i)));
            power_readings.clear();
            power_readings.extend((0..n).map(|i| room.read_power(i)));
            let (t_ret, t_sup, cooling_power) = room.first_crac_air_and_cooling();
            let computing: Watts = power_readings.iter().copied().sum();
            for i in 0..n {
                server_powers[i] += power_readings[i].as_watts();
                let c = cpu_readings[i].as_celsius();
                cpu_temps[i] += c;
                max_cpu = max_cpu.max(c);
                max_cpu_true = max_cpu_true.max(room.servers()[i].cpu_temp().as_celsius());
            }
            t_supply += t_sup.as_celsius();
            t_return += t_ret.as_celsius();
            t_room += room.room_temp().as_celsius();
            cooling += cooling_power.as_watts();
            total += (computing + cooling_power).as_watts();
        }

        let k = samples as f64;
        let computing = server_powers.iter().sum::<f64>() / k;
        SteadyMeasurement {
            settled,
            server_powers: server_powers.iter().map(|&p| Watts::new(p / k)).collect(),
            cpu_temps: cpu_temps
                .iter()
                .map(|&t| Temperature::from_celsius(t / k))
                .collect(),
            max_cpu_temp: Temperature::from_celsius(max_cpu),
            max_cpu_temp_true: Temperature::from_celsius(max_cpu_true),
            t_supply: Temperature::from_celsius(t_supply / k),
            t_return: Temperature::from_celsius(t_return / k),
            t_room: Temperature::from_celsius(t_room / k),
            cooling_power: Watts::new(cooling / k),
            computing_power: Watts::new(computing),
            total_power: Watts::new(total / k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn measurement_is_internally_consistent() {
        let mut room = presets::small_rack(3, 13);
        room.force_all_on();
        room.set_loads(&[0.5; 3]).unwrap();
        room.set_set_point(Temperature::from_celsius(25.0));
        let m = SteadyMeasurement::collect(&mut room, Seconds::new(5000.0), Seconds::new(60.0));
        assert!(m.settled);
        assert_eq!(m.server_powers.len(), 3);
        // total ≈ computing + cooling.
        let sum = m.computing_power + m.cooling_power;
        assert!((m.total_power.as_watts() - sum.as_watts()).abs() < 1.0);
        // Max CPU reading is at least the mean reading of every server.
        for t in &m.cpu_temps {
            assert!(m.max_cpu_temp.as_celsius() >= t.as_celsius() - 1e-9);
        }
        // Supply is the coldest air in the room at steady state.
        assert!(m.t_supply < m.t_return);
        assert!(m.t_supply < m.t_room);
    }

    #[test]
    fn busier_room_draws_more_computing_power() {
        let run = |load: f64| {
            let mut room = presets::small_rack(3, 13);
            room.force_all_on();
            room.set_loads(&[load; 3]).unwrap();
            room.set_set_point(Temperature::from_celsius(25.0));
            SteadyMeasurement::collect(&mut room, Seconds::new(5000.0), Seconds::new(60.0))
        };
        let idle = run(0.0);
        let busy = run(1.0);
        assert!(
            busy.computing_power.as_watts() > idle.computing_power.as_watts() + 100.0,
            "busy {} vs idle {}",
            busy.computing_power,
            idle.computing_power
        );
    }
}
