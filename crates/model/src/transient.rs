//! Linear-RC transient form of the fitted room model.
//!
//! Between control events (replans, load-trace segments) every input to the
//! room — per-machine power and the CRAC supply temperature — is constant,
//! so the thermal network of paper Eqs. 1–2 is a linear time-invariant
//! system `dx/dt = A·x + b`. [`RcNetwork`] materializes that system from a
//! fitted [`RoomModel`]: its steady state reproduces Eq. 8
//! (`T_cpu = α·T_ac + β·P + γ`) exactly at the reference room temperature,
//! and its transients follow the two-node-per-machine RC structure the
//! substrate simulates numerically.
//!
//! Implementing [`coolopt_sim::LinearDynamics`] is what unlocks the fast
//! path: a [`coolopt_sim::Propagator`] built from an `RcNetwork` replays an
//! entire event-free interval with one matrix–vector product per step,
//! exactly, instead of thousands of Euler or RK4 sub-steps.
//!
//! ## State layout
//!
//! `[T_cpu_0, T_box_0, …, T_cpu_{n−1}, T_box_{n−1}, T_room]` — dimension
//! `2n + 1`, all kelvin. Use [`RcNetwork::cpu_index`],
//! [`RcNetwork::box_index`] and [`RcNetwork::room_index`] rather than
//! hard-coding offsets.
//!
//! ## Node equations
//!
//! * CPU `i`: `ν_cpu·Ṫ_cpu = P_i − ϑ_i·(T_cpu − T_box)`
//! * Box `i`: `ν_box·Ṫ_box = ϑ_i·(T_cpu − T_box) + g·(T_in,i − T_box)` with
//!   the inlet mix `T_in,i = α_i·T_ac + (1 − α_i)·T_room + d_i`
//! * Room: `C_r·Ṫ_room = Σ κ·(T_box,i − T_room) + G_env·(T_out − T_room)`,
//!   where `κ = (1 − capture)·g` is the slice of each machine's exhaust that
//!   escapes the return duct and recirculates.
//!
//! The per-machine conductance `ϑ_i` is recovered from the fitted slope via
//! Eq. 6, `β_i = 1/g + 1/ϑ_i`, and the inlet offset
//! `d_i = γ_i − (1 − α_i)·T_room,ref` pins the steady state to Eq. 8 at the
//! profiling-time room temperature.

use crate::room::RoomModel;
use crate::InvalidModel;
use coolopt_sim::LinearDynamics;
use coolopt_units::Temperature;
use serde::{Deserialize, Serialize};

/// Lumped thermal constants of the RC transient that the *steady-state*
/// fit (Eq. 8) cannot see: capacitances set the time constants, not the
/// operating points.
///
/// Defaults mirror the simulation substrate's server configuration so that
/// analytic replay and numeric simulation share one parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RcParams {
    /// CPU + heat-sink thermal capacitance `ν_cpu` (J/K).
    pub nu_cpu: f64,
    /// Chassis-air thermal capacitance `ν_box` (J/K).
    pub nu_box: f64,
    /// Air-side conductance `g = F·c_air` of one machine's fan stream (W/K).
    pub air_conductance: f64,
    /// Room-air thermal capacitance `C_r` (J/K).
    pub room_capacity: f64,
    /// Conductance of the room envelope to the outside (W/K).
    pub envelope_conductance: f64,
    /// Outside (ambient) temperature the envelope leaks towards.
    pub t_outside: Temperature,
    /// Room temperature at profiling time; the fitted `γ_i` absorbed it, so
    /// the steady state reproduces Eq. 8 exactly when the room sits here.
    pub t_room_ref: Temperature,
    /// Fraction of each machine's exhaust captured by the return duct
    /// (the remainder recirculates into the room node).
    pub exhaust_capture: f64,
}

impl Default for RcParams {
    fn default() -> Self {
        RcParams {
            nu_cpu: 120.0,
            nu_box: 60.0,
            air_conductance: 36.0,
            room_capacity: 60_000.0,
            envelope_conductance: 120.0,
            t_outside: Temperature::from_celsius(25.0),
            t_room_ref: Temperature::from_celsius(25.0),
            exhaust_capture: 0.95,
        }
    }
}

impl RcParams {
    fn validate(&self) -> Result<(), InvalidModel> {
        let positive = [
            ("nu_cpu", self.nu_cpu),
            ("nu_box", self.nu_box),
            ("air_conductance", self.air_conductance),
            ("room_capacity", self.room_capacity),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(InvalidModel::new(format!(
                    "{name} must be positive, got {v}"
                )));
            }
        }
        if !(self.envelope_conductance.is_finite() && self.envelope_conductance >= 0.0) {
            return Err(InvalidModel::new(format!(
                "envelope_conductance must be non-negative, got {}",
                self.envelope_conductance
            )));
        }
        if !(0.0..=1.0).contains(&self.exhaust_capture) {
            return Err(InvalidModel::new(format!(
                "exhaust_capture must be in [0, 1], got {}",
                self.exhaust_capture
            )));
        }
        if !self.t_outside.is_physical() || !self.t_room_ref.is_physical() {
            return Err(InvalidModel::new(
                "t_outside and t_room_ref must be physical temperatures".to_string(),
            ));
        }
        Ok(())
    }
}

/// The room's thermal network as an explicit LTI system, bound to one
/// control input (per-machine powers + supply temperature).
///
/// The system matrix `A` depends only on the fitted coefficients and
/// [`RcParams`]; the control input enters through the bias `b`. Change the
/// input with [`RcNetwork::set_input`] and key memoized propagators on
/// [`RcNetwork::input_fingerprint`].
#[derive(Debug, Clone, PartialEq)]
pub struct RcNetwork {
    params: RcParams,
    /// Per-machine CPU→box conductance `ϑ_i` (W/K), from Eq. 6.
    theta: Vec<f64>,
    /// Per-machine cool-air coupling `α_i`.
    alpha: Vec<f64>,
    /// Per-machine inlet offset `d_i = γ_i − (1 − α_i)·T_room,ref` (K).
    inlet_offset: Vec<f64>,
    /// Current per-machine power draw (W); zero for machines that are off.
    powers: Vec<f64>,
    /// Current supply temperature (K).
    t_ac: f64,
}

impl RcNetwork {
    /// Builds the transient network from a fitted room model.
    ///
    /// All machines start at zero power with the supply at the reference
    /// room temperature; call [`RcNetwork::set_input`] before propagating.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidModel`] when `params` are non-physical or some
    /// machine's fitted slope `β_i` is not larger than `1/g` (Eq. 6 would
    /// give a non-positive internal conductance `ϑ_i`).
    pub fn new(model: &RoomModel, params: RcParams) -> Result<Self, InvalidModel> {
        params.validate()?;
        let g = params.air_conductance;
        let n = model.len();
        let mut theta = Vec::with_capacity(n);
        let mut alpha = Vec::with_capacity(n);
        let mut inlet_offset = Vec::with_capacity(n);
        let t_ref = params.t_room_ref.as_kelvin();
        for (i, tm) in model.thermal_models().iter().enumerate() {
            let beta = tm.beta();
            if beta * g <= 1.0 {
                return Err(InvalidModel::new(format!(
                    "machine {i}: beta = {beta} K/W is not above 1/g = {} — \
                     cannot recover a positive internal conductance",
                    1.0 / g
                )));
            }
            theta.push(1.0 / (beta - 1.0 / g));
            alpha.push(tm.alpha());
            inlet_offset.push(tm.gamma() - (1.0 - tm.alpha()) * t_ref);
        }
        Ok(RcNetwork {
            params,
            theta,
            alpha,
            inlet_offset,
            powers: vec![0.0; n],
            t_ac: t_ref,
        })
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.theta.len()
    }

    /// State index of machine `i`'s CPU temperature.
    pub fn cpu_index(&self, i: usize) -> usize {
        2 * i
    }

    /// State index of machine `i`'s chassis-air temperature.
    pub fn box_index(&self, i: usize) -> usize {
        2 * i + 1
    }

    /// State index of the room-air temperature.
    pub fn room_index(&self) -> usize {
        2 * self.machines()
    }

    /// The lumped constants this network was built with.
    pub fn params(&self) -> &RcParams {
        &self.params
    }

    /// Sets the control input: one power draw per machine (W, zero for off
    /// machines) and the supply temperature.
    ///
    /// # Panics
    ///
    /// Panics when `powers` does not cover every machine or any entry is
    /// non-finite.
    pub fn set_input(&mut self, powers: &[f64], t_ac: Temperature) {
        assert_eq!(powers.len(), self.machines(), "one power per machine");
        assert!(
            powers.iter().all(|p| p.is_finite()) && t_ac.as_kelvin().is_finite(),
            "control input must be finite"
        );
        self.powers.copy_from_slice(powers);
        self.t_ac = t_ac.as_kelvin();
    }

    /// A deterministic 64-bit fingerprint of the current control input,
    /// suitable as the [`coolopt_sim::PropagatorCache`] key component.
    ///
    /// Two inputs with different power vectors or supply temperatures hash
    /// differently (up to FNV collisions); equal inputs always hash equal.
    pub fn input_fingerprint(&self) -> u64 {
        // FNV-1a over the raw bit patterns: stable, no allocation.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bits: u64| {
            for shift in [0u32, 16, 32, 48] {
                h ^= (bits >> shift) & 0xffff;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &p in &self.powers {
            mix(p.to_bits());
        }
        mix(self.t_ac.to_bits());
        h
    }

    /// A uniform initial state with every node at `t`.
    pub fn uniform_state(&self, t: Temperature) -> Vec<f64> {
        vec![t.as_kelvin(); LinearDynamics::dim(self)]
    }

    /// Steady-state CPU temperature of machine `i` predicted by the
    /// *network* when the room air settles at `t_room`:
    /// `α_i·T_ac + β_i·P_i + γ_i + (1 − α_i)·(T_room − T_room,ref)`.
    ///
    /// At `t_room == t_room_ref` this is exactly the fitted Eq. 8.
    pub fn steady_cpu(&self, i: usize, t_room: Temperature) -> Temperature {
        let g = self.params.air_conductance;
        let beta = 1.0 / g + 1.0 / self.theta[i];
        let t_in = self.alpha[i] * self.t_ac
            + (1.0 - self.alpha[i]) * t_room.as_kelvin()
            + self.inlet_offset[i];
        Temperature::from_kelvin(t_in + beta * self.powers[i])
    }
}

impl LinearDynamics for RcNetwork {
    fn dim(&self) -> usize {
        2 * self.machines() + 1
    }

    fn matrix(&self, a: &mut [f64]) {
        let n = LinearDynamics::dim(self);
        assert_eq!(a.len(), n * n, "matrix buffer must be dim²");
        a.fill(0.0);
        let p = &self.params;
        let g = p.air_conductance;
        let room = self.room_index();
        let kappa = (1.0 - p.exhaust_capture) * g;
        let mut room_diag = -p.envelope_conductance / p.room_capacity;
        for i in 0..self.machines() {
            let (cpu, bx) = (self.cpu_index(i), self.box_index(i));
            let theta = self.theta[i];
            // CPU node: ν_cpu·Ṫ_cpu = P − ϑ·(T_cpu − T_box).
            a[cpu * n + cpu] = -theta / p.nu_cpu;
            a[cpu * n + bx] = theta / p.nu_cpu;
            // Box node: ν_box·Ṫ_box = ϑ·(T_cpu − T_box) + g·(T_in − T_box).
            a[bx * n + cpu] = theta / p.nu_box;
            a[bx * n + bx] = -(theta + g) / p.nu_box;
            a[bx * n + room] = g * (1.0 - self.alpha[i]) / p.nu_box;
            // Room node picks up the recirculated slice of this exhaust.
            a[room * n + bx] = kappa / p.room_capacity;
            room_diag -= kappa / p.room_capacity;
        }
        a[room * n + room] = room_diag;
    }

    fn bias(&self, b: &mut [f64]) {
        let n = LinearDynamics::dim(self);
        assert_eq!(b.len(), n, "bias buffer must be dim");
        let p = &self.params;
        let g = p.air_conductance;
        for i in 0..self.machines() {
            b[self.cpu_index(i)] = self.powers[i] / p.nu_cpu;
            b[self.box_index(i)] =
                g * (self.alpha[i] * self.t_ac + self.inlet_offset[i]) / p.nu_box;
        }
        b[self.room_index()] = p.envelope_conductance * p.t_outside.as_kelvin() / p.room_capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooling::CoolingModel;
    use crate::power::PowerModel;
    use crate::thermal::ThermalModel;
    use coolopt_sim::ode::{Integrator, Rk4};
    use coolopt_sim::{LinearOde, Propagator, SimScratch};
    use coolopt_units::{Seconds, Watts};

    /// The 20-machine preset: same construction as the room fixture used
    /// across the workspace (heterogeneous α/β/γ by rack position).
    fn preset(n: usize) -> RoomModel {
        let power = PowerModel::new(Watts::new(45.0), Watts::new(40.0)).unwrap();
        let thermal = (0..n)
            .map(|i| {
                let h = i as f64 / n.max(2) as f64;
                ThermalModel::new(0.95 - 0.2 * h, 0.5 + 0.05 * h, 30.0 + 10.0 * h).unwrap()
            })
            .collect();
        let cooling = CoolingModel::new(1000.0, Temperature::from_celsius(25.0)).unwrap();
        RoomModel::new(power, thermal, cooling, Temperature::from_celsius(70.0)).unwrap()
    }

    fn loaded_network(n: usize) -> RcNetwork {
        let model = preset(n);
        let mut net = RcNetwork::new(&model, RcParams::default()).unwrap();
        // A mixed operating point: machines at staggered loads, some off.
        let powers: Vec<f64> = (0..n)
            .map(|i| {
                if i % 4 == 3 {
                    0.0
                } else {
                    40.0 + 45.0 * (i % 3) as f64 * 0.5
                }
            })
            .collect();
        net.set_input(&powers, Temperature::from_celsius(15.0));
        net
    }

    #[test]
    fn propagator_matches_tiny_step_rk4_on_the_20_machine_preset() {
        // Acceptance bar: exact-step state after an event-free
        // interval within 1e-6 K of tiny-step RK4.
        let net = loaded_network(20);
        let sys = LinearOde::new(&net);
        let interval = 120.0;

        let mut exact = net.uniform_state(Temperature::from_celsius(25.0));
        let p = Propagator::new(&net, Seconds::new(interval));
        let mut buf = vec![0.0; exact.len()];
        p.step(&mut exact, &mut buf);

        let mut oracle = net.uniform_state(Temperature::from_celsius(25.0));
        let steps = 6_000; // dt = 20 ms — far inside RK4's asymptotic regime
        let mut scratch = SimScratch::with_dim(oracle.len());
        Rk4::new().run_with(
            &sys,
            Seconds::ZERO,
            Seconds::new(interval / steps as f64),
            steps,
            &mut oracle,
            &mut scratch,
        );
        for (k, (e, o)) in exact.iter().zip(&oracle).enumerate() {
            assert!((e - o).abs() < 1e-6, "state {k}: propagator {e} vs RK4 {o}");
        }
    }

    #[test]
    fn one_replan_interval_equals_its_substeps() {
        // exp(A·900) = exp(A·90)¹⁰ — exactness over the *long* interval
        // follows from the short-interval equivalence plus the semigroup
        // property, without paying for a 90 000-step oracle in debug builds.
        let net = loaded_network(20);
        let long = Propagator::new(&net, Seconds::new(900.0));
        let short = Propagator::new(&net, Seconds::new(90.0));
        let mut a = net.uniform_state(Temperature::from_celsius(22.0));
        let mut b = a.clone();
        let mut buf = vec![0.0; a.len()];
        long.step(&mut a, &mut buf);
        short.advance(&mut b, 10, &mut buf);
        for (x, y) in a.iter().zip(&b) {
            // Kelvin-scale states: compare to relative precision.
            assert!((x - y).abs() < 1e-10 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn steady_state_reproduces_eq8_at_the_reference_room_temperature() {
        let model = preset(8);
        let mut net = RcNetwork::new(&model, RcParams::default()).unwrap();
        let t_ac = Temperature::from_celsius(16.0);
        let powers = vec![85.0; 8];
        net.set_input(&powers, t_ac);

        // The network's own steady state (A·x* = −b).
        let sys = LinearOde::new(&net);
        let fixed = sys.steady_state().expect("network is dissipative");
        let t_room = Temperature::from_kelvin(fixed[net.room_index()]);

        for i in 0..8 {
            // Network fixed point == closed-form steady_cpu at the settled
            // room temperature…
            let closed = net.steady_cpu(i, t_room).as_kelvin();
            assert!(
                (fixed[net.cpu_index(i)] - closed).abs() < 1e-9,
                "machine {i}: fixed point {} vs closed form {closed}",
                fixed[net.cpu_index(i)]
            );
            // …and the deviation from the fitted Eq. 8 is exactly the
            // recirculation term (1 − α)·(T_room − T_ref).
            let eq8 = model.thermal(i).predict(t_ac, Watts::new(powers[i]));
            let drift = (1.0 - model.thermal(i).alpha())
                * (t_room.as_kelvin() - net.params().t_room_ref.as_kelvin());
            assert!(
                (fixed[net.cpu_index(i)] - eq8.as_kelvin() - drift).abs() < 1e-9,
                "machine {i} deviates from Eq. 8 by more than the room drift"
            );
        }
    }

    #[test]
    fn hotter_input_means_hotter_steady_cpu() {
        let model = preset(4);
        let mut net = RcNetwork::new(&model, RcParams::default()).unwrap();
        let steady = |net: &RcNetwork| {
            let fixed = LinearOde::new(net).steady_state().unwrap();
            fixed[net.cpu_index(0)]
        };
        net.set_input(&[50.0; 4], Temperature::from_celsius(15.0));
        let base = steady(&net);
        net.set_input(&[90.0; 4], Temperature::from_celsius(15.0));
        assert!(steady(&net) > base, "more power must heat the CPU");
        net.set_input(&[50.0; 4], Temperature::from_celsius(20.0));
        assert!(steady(&net) > base, "warmer supply must heat the CPU");
    }

    #[test]
    fn fingerprint_tracks_the_control_input() {
        let model = preset(3);
        let mut net = RcNetwork::new(&model, RcParams::default()).unwrap();
        net.set_input(&[50.0, 60.0, 0.0], Temperature::from_celsius(15.0));
        let f0 = net.input_fingerprint();
        assert_eq!(net.input_fingerprint(), f0, "fingerprint is deterministic");
        net.set_input(&[50.0, 60.0, 0.1], Temperature::from_celsius(15.0));
        let f1 = net.input_fingerprint();
        assert_ne!(f0, f1);
        net.set_input(&[50.0, 60.0, 0.0], Temperature::from_celsius(15.5));
        assert_ne!(f0, net.input_fingerprint());
        assert_ne!(f1, net.input_fingerprint());
        net.set_input(&[50.0, 60.0, 0.0], Temperature::from_celsius(15.0));
        assert_eq!(f0, net.input_fingerprint(), "same input, same fingerprint");
    }

    #[test]
    fn state_layout_indices_cover_the_dimension() {
        let net = RcNetwork::new(&preset(5), RcParams::default()).unwrap();
        assert_eq!(LinearDynamics::dim(&net), 11);
        assert_eq!(net.cpu_index(0), 0);
        assert_eq!(net.box_index(4), 9);
        assert_eq!(net.room_index(), 10);
    }

    #[test]
    fn rejects_beta_below_air_resistance() {
        let power = PowerModel::new(Watts::new(45.0), Watts::new(40.0)).unwrap();
        // β = 0.02 K/W < 1/g = 1/36 ≈ 0.028 K/W: no positive ϑ exists.
        let thermal = vec![ThermalModel::new(0.9, 0.02, 30.0).unwrap()];
        let cooling = CoolingModel::new(1000.0, Temperature::from_celsius(25.0)).unwrap();
        let model =
            RoomModel::new(power, thermal, cooling, Temperature::from_celsius(70.0)).unwrap();
        let err = RcNetwork::new(&model, RcParams::default()).unwrap_err();
        assert!(err.to_string().contains("beta"));
    }

    #[test]
    fn rejects_non_physical_params() {
        let model = preset(2);
        for params in [
            RcParams {
                nu_cpu: 0.0,
                ..RcParams::default()
            },
            RcParams {
                exhaust_capture: 1.5,
                ..RcParams::default()
            },
            RcParams {
                room_capacity: -1.0,
                ..RcParams::default()
            },
        ] {
            assert!(RcNetwork::new(&model, params).is_err());
        }
    }
}
