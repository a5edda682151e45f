//! The simulated server: power state machine, power curve, thermal network.

use crate::config::ServerConfig;
use coolopt_sim::noise::OrnsteinUhlenbeck;
use coolopt_units::{Conductance, HeatCapacity, TempRate, Temperature, Watts, C_AIR};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a server within a machine room (its rack-slot index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ServerId(pub usize);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// Power state of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerState {
    /// Machine is powered off (draws only standby power, serves no load).
    Off,
    /// Machine is booting; it draws idle power but serves no load yet.
    Booting {
        /// Seconds of boot remaining.
        remaining_secs: f64,
    },
    /// Machine is up and serving its commanded load.
    On,
}

/// Error returned when commanding an invalid load fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidLoad(pub f64);

impl fmt::Display for InvalidLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "load fraction must be within [0, 1], got {}", self.0)
    }
}

impl std::error::Error for InvalidLoad {}

/// A server's thermal derivatives with its heat sources and air flow held
/// fixed ([`Server::thermal_terms`]). [`ThermalTerms::rates`] evaluates
/// exactly the expressions of [`Server::thermal_rates`], operand for
/// operand, so both give the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalTerms {
    /// Heat into the CPU node, `(1−b)·P`.
    p_cpu: Watts,
    /// Heat dumped straight into the box air, `b·P`.
    p_box_direct: Watts,
    /// CPU-to-box conductance `ϑ`.
    theta: Conductance,
    /// Advective conductance of the chassis air stream, `F·c_air`.
    advect: Conductance,
    nu_cpu: HeatCapacity,
    nu_box: HeatCapacity,
}

impl ThermalTerms {
    /// `(dT_cpu/dt, dT_box/dt)` for candidate state `(t_cpu, t_box)` given
    /// inlet air at `t_in`.
    pub fn rates(
        &self,
        t_in: Temperature,
        t_cpu: Temperature,
        t_box: Temperature,
    ) -> (TempRate, TempRate) {
        let exchange = self.theta * (t_cpu - t_box);
        let advect = self.advect * (t_in - t_box);
        let d_cpu = (self.p_cpu - exchange) / self.nu_cpu;
        let d_box = (exchange + self.p_box_direct + advect) / self.nu_box;
        (d_cpu, d_box)
    }
}

/// One simulated rack server.
///
/// The server is the richer-than-the-analytic-model substrate: a two-node
/// thermal RC network driven by a noisy, mildly nonlinear power curve. The
/// room model owns the composed ODE; it passes candidate state values into
/// [`Server::thermal_rates`] (which is a pure function, as RK4 requires) and
/// writes settled values back via [`Server::sync_thermal_state`].
#[derive(Debug, Clone)]
pub struct Server {
    id: ServerId,
    config: ServerConfig,
    state: PowerState,
    load: f64,
    t_cpu: Temperature,
    t_box: Temperature,
    power_noise: OrnsteinUhlenbeck,
    noise_watts: f64,
}

impl Server {
    /// Creates a server in the `Off` state, thermally equilibrated at
    /// `initial_temp`.
    pub fn new(id: ServerId, config: ServerConfig, seed: u64, initial_temp: Temperature) -> Self {
        Server {
            id,
            config,
            state: PowerState::Off,
            load: 0.0,
            t_cpu: initial_temp,
            t_box: initial_temp,
            // Power wanders slowly (τ = 30 s) around the nominal curve.
            power_noise: OrnsteinUhlenbeck::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(id.0 as u64),
                30.0,
                config.power_noise_stddev,
            ),
            noise_watts: 0.0,
        }
    }

    /// This server's identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The physical configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.state
    }

    /// `true` when the machine is serving load.
    pub fn is_on(&self) -> bool {
        matches!(self.state, PowerState::On)
    }

    /// Commands the machine on. A booting or on machine is unaffected.
    pub fn power_on(&mut self) {
        if matches!(self.state, PowerState::Off) {
            self.state = if self.config.boot_secs > 0.0 {
                PowerState::Booting {
                    remaining_secs: self.config.boot_secs,
                }
            } else {
                PowerState::On
            };
        }
    }

    /// Commands the machine off immediately.
    pub fn power_off(&mut self) {
        self.state = PowerState::Off;
    }

    /// Instantly forces the machine fully on, skipping the boot transient.
    ///
    /// Used by steady-state experiments, which per the paper "ignore initial
    /// transients".
    pub fn force_on(&mut self) {
        self.state = PowerState::On;
    }

    /// Commands a load fraction in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLoad`] if `load` is outside `[0, 1]` or not finite.
    pub fn set_load(&mut self, load: f64) -> Result<(), InvalidLoad> {
        if !load.is_finite() || !(0.0..=1.0).contains(&load) {
            return Err(InvalidLoad(load));
        }
        self.load = load;
        Ok(())
    }

    /// The commanded load fraction.
    pub fn commanded_load(&self) -> f64 {
        self.load
    }

    /// The load actually being served: zero unless the machine is `On`,
    /// and derated by thermal throttling when the CPU runs into its
    /// protection band (real machines reduce frequency rather than melt).
    pub fn effective_load(&self) -> f64 {
        match self.state {
            PowerState::On => self.load * self.throttle_factor(),
            _ => 0.0,
        }
    }

    /// The thermal-throttle derating factor in `[0, 1]`: 1 below
    /// `throttle_start`, linearly falling to 0 at `throttle_full`.
    pub fn throttle_factor(&self) -> f64 {
        let start = self.config.throttle_start.as_kelvin();
        let full = self.config.throttle_full.as_kelvin();
        let t = self.t_cpu.as_kelvin();
        if t <= start {
            1.0
        } else if t >= full {
            0.0
        } else {
            (full - t) / (full - start)
        }
    }

    /// Instantaneous electrical power draw (W), including process noise and
    /// thermal throttling (a derated machine draws the power of the load it
    /// actually serves).
    pub fn power_draw(&self) -> Watts {
        let base = match self.state {
            PowerState::Off => return self.config.standby_power,
            PowerState::Booting { .. } => self.config.power_at_load(0.0),
            PowerState::On => self.config.power_at_load(self.effective_load()),
        };
        (base + Watts::new(self.noise_watts)).clamp_non_negative()
    }

    /// Heat dissipated into the chassis (W). All drawn power becomes heat.
    pub fn heat_output(&self) -> Watts {
        self.power_draw()
    }

    /// Current CPU temperature (true value, before sensor effects).
    pub fn cpu_temp(&self) -> Temperature {
        self.t_cpu
    }

    /// Current box-air temperature; with the perfect-mixing assumption this
    /// is also the exhaust temperature `T_out`.
    pub fn exhaust_temp(&self) -> Temperature {
        self.t_box
    }

    /// Chassis volumetric air flow while running (m³/s is in the config);
    /// an off machine's fans are spun down, modeled as 10 % residual flow
    /// (passive draught through the chassis).
    pub fn air_flow(&self) -> coolopt_units::FlowRate {
        match self.state {
            PowerState::Off => self.config.fan_flow * 0.1,
            _ => self.config.fan_flow,
        }
    }

    /// Thermal derivatives for candidate state `(t_cpu, t_box)` given inlet
    /// air at `t_in`.
    ///
    /// Implements the substrate version of the paper's Eqs. 1–2:
    ///
    /// * CPU node: `ν_cpu · dT_cpu/dt = (1−b)·P − ϑ·(T_cpu − T_box)`
    /// * Box node: `ν_box · dT_box/dt = ϑ·(T_cpu − T_box) + b·P
    ///   + F·c_air·(T_in − T_box)`
    ///
    /// where `b` is the heat-bypass fraction (non-CPU components dumping heat
    /// directly into the air stream) — a deliberate deviation from the pure
    /// paper model so that profiling has something real to fit.
    pub fn thermal_rates(
        &self,
        t_in: Temperature,
        t_cpu: Temperature,
        t_box: Temperature,
    ) -> (TempRate, TempRate) {
        self.thermal_terms().rates(t_in, t_cpu, t_box)
    }

    /// The terms of [`Server::thermal_rates`] that do not depend on the
    /// candidate temperatures: the heat split at the current power draw and
    /// the advective conductance at the current fan state. An integrator
    /// that evaluates the rates several times per step computes these once.
    pub fn thermal_terms(&self) -> ThermalTerms {
        let p = self.heat_output();
        let b = self.config.heat_bypass_fraction;
        ThermalTerms {
            p_cpu: p * (1.0 - b),
            p_box_direct: p * b,
            theta: self.config.theta_cpu_box,
            advect: self.air_flow() * C_AIR,
            nu_cpu: self.config.nu_cpu,
            nu_box: self.config.nu_box,
        }
    }

    /// Writes back the thermal state after an ODE step.
    pub fn sync_thermal_state(&mut self, t_cpu: Temperature, t_box: Temperature) {
        self.t_cpu = t_cpu;
        self.t_box = t_box;
    }

    /// Advances the non-ODE internals (boot countdown, power noise) by
    /// `dt_secs`.
    pub fn advance(&mut self, dt_secs: f64) {
        self.noise_watts = self.power_noise.step(dt_secs);
        if let PowerState::Booting { remaining_secs } = self.state {
            let left = remaining_secs - dt_secs;
            self.state = if left <= 0.0 {
                PowerState::On
            } else {
                PowerState::Booting {
                    remaining_secs: left,
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_server() -> Server {
        let cfg = ServerConfig::builder()
            .power_noise_stddev(0.0)
            .heat_bypass_fraction(0.0)
            .build()
            .unwrap();
        Server::new(ServerId(0), cfg, 1, Temperature::from_celsius(20.0))
    }

    #[test]
    fn off_server_draws_standby_and_serves_nothing() {
        let mut s = quiet_server();
        s.set_load(0.7).unwrap();
        assert_eq!(s.power_draw(), Watts::ZERO);
        assert_eq!(s.effective_load(), 0.0);
        assert_eq!(s.commanded_load(), 0.7);
    }

    #[test]
    fn boot_transient_progresses_to_on() {
        let mut s = quiet_server();
        s.power_on();
        assert!(matches!(s.power_state(), PowerState::Booting { .. }));
        // Booting machines draw idle power but serve no load.
        s.set_load(1.0).unwrap();
        assert!((s.power_draw().as_watts() - 40.0).abs() < 1e-9);
        assert_eq!(s.effective_load(), 0.0);
        for _ in 0..70 {
            s.advance(1.0);
        }
        assert!(s.is_on());
        assert_eq!(s.effective_load(), 1.0);
        assert!((s.power_draw().as_watts() - 85.0).abs() < 1e-9);
    }

    #[test]
    fn power_on_is_idempotent_while_booting() {
        let mut s = quiet_server();
        s.power_on();
        s.advance(30.0);
        let before = s.power_state();
        s.power_on();
        assert_eq!(s.power_state(), before);
    }

    #[test]
    fn force_on_skips_boot() {
        let mut s = quiet_server();
        s.force_on();
        assert!(s.is_on());
    }

    #[test]
    fn invalid_load_is_rejected() {
        let mut s = quiet_server();
        assert!(s.set_load(-0.1).is_err());
        assert!(s.set_load(1.1).is_err());
        assert!(s.set_load(f64::NAN).is_err());
        assert!(s.set_load(0.0).is_ok());
        assert!(s.set_load(1.0).is_ok());
    }

    #[test]
    fn steady_state_matches_analytic_prediction_without_bypass() {
        // With b = 0 and no noise, the substrate *is* the paper model, so the
        // settled CPU temperature must equal T_in + β·P (Eq. 5).
        let mut s = quiet_server();
        s.force_on();
        s.set_load(0.6).unwrap();
        let t_in = Temperature::from_celsius(22.0);

        // Relax to steady state with small Euler steps.
        let (mut tc, mut tb) = (t_in, t_in);
        for _ in 0..2_000_000 {
            let (dc, db) = s.thermal_rates(t_in, tc, tb);
            tc += dc * coolopt_units::Seconds::new(0.05);
            tb += db * coolopt_units::Seconds::new(0.05);
        }
        let p = s.power_draw();
        let beta = s.config().beta_kelvin_per_watt();
        let predicted = t_in.as_celsius() + beta * p.as_watts();
        assert!(
            (tc.as_celsius() - predicted).abs() < 0.01,
            "settled {} vs predicted {predicted}",
            tc.as_celsius()
        );
    }

    #[test]
    fn hotter_inlet_means_hotter_cpu() {
        let mut s = quiet_server();
        s.force_on();
        s.set_load(0.5).unwrap();
        let settle = |t_in: Temperature| {
            let (mut tc, mut tb) = (t_in, t_in);
            for _ in 0..500_000 {
                let (dc, db) = s.thermal_rates(t_in, tc, tb);
                tc += dc * coolopt_units::Seconds::new(0.1);
                tb += db * coolopt_units::Seconds::new(0.1);
            }
            tc
        };
        let cool = settle(Temperature::from_celsius(15.0));
        let warm = settle(Temperature::from_celsius(25.0));
        assert!(warm.as_celsius() > cool.as_celsius() + 9.0);
    }

    #[test]
    fn noise_is_reproducible_across_identically_seeded_servers() {
        let cfg = ServerConfig::r210_like();
        let mk = || {
            let mut s = Server::new(ServerId(3), cfg, 77, Temperature::from_celsius(20.0));
            s.force_on();
            s.set_load(0.5).unwrap();
            (0..32)
                .map(|_| {
                    s.advance(1.0);
                    s.power_draw().as_watts()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn heat_output_equals_power_draw() {
        let mut s = quiet_server();
        s.force_on();
        s.set_load(0.4).unwrap();
        assert_eq!(s.heat_output(), s.power_draw());
    }

    #[test]
    fn power_draw_is_monotone_in_load() {
        let mut s = quiet_server();
        s.force_on();
        let mut last = -1.0;
        for k in 0..=10 {
            s.set_load(k as f64 / 10.0).unwrap();
            let p = s.power_draw().as_watts();
            assert!(p > last, "power must increase with load");
            last = p;
        }
    }

    #[test]
    fn config_serde_round_trip() {
        let c = ServerConfig::r210_like();
        let json = serde_json::to_string(&c).unwrap();
        let back: ServerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn cloned_servers_evolve_identically() {
        let mut a = Server::new(
            ServerId(1),
            ServerConfig::r210_like(),
            99,
            Temperature::from_celsius(22.0),
        );
        a.force_on();
        a.set_load(0.6).unwrap();
        let mut b = a.clone();
        for _ in 0..50 {
            a.advance(1.0);
            b.advance(1.0);
            assert_eq!(a.power_draw(), b.power_draw());
        }
    }

    #[test]
    fn thermal_throttling_derates_and_self_limits() {
        let mut s = quiet_server();
        s.force_on();
        s.set_load(1.0).unwrap();
        // Below the band: untouched.
        s.sync_thermal_state(
            Temperature::from_celsius(60.0),
            Temperature::from_celsius(40.0),
        );
        assert_eq!(s.throttle_factor(), 1.0);
        assert_eq!(s.effective_load(), 1.0);
        // Mid-band: halfway derated (72 → 85 °C band, probe at 78.5 °C).
        s.sync_thermal_state(
            Temperature::from_celsius(78.5),
            Temperature::from_celsius(45.0),
        );
        assert!((s.throttle_factor() - 0.5).abs() < 1e-9);
        assert!((s.effective_load() - 0.5).abs() < 1e-9);
        // Power follows the served load, closing the protective feedback.
        assert!((s.power_draw().as_watts() - 61.75).abs() < 1e-6);
        // Beyond the band: fully derated.
        s.sync_thermal_state(
            Temperature::from_celsius(90.0),
            Temperature::from_celsius(50.0),
        );
        assert_eq!(s.effective_load(), 0.0);
        assert!((s.power_draw().as_watts() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_never_exceeds_the_throttle_ceiling() {
        // With a 45 °C inlet, an unthrottled full-load CPU would settle near
        // 45 + β·85 ≈ 90 °C; the protective feedback must hold it inside the
        // throttle band instead. (Idle heat is *not* throttleable — with an
        // inlet hot enough that idle power alone exceeds the band, the
        // machine cooks regardless, as in reality.)
        let mut s = quiet_server();
        s.force_on();
        s.set_load(1.0).unwrap();
        let t_in = Temperature::from_celsius(45.0);
        let (mut tc, mut tb) = (t_in, t_in);
        for _ in 0..2_000_000 {
            s.sync_thermal_state(tc, tb);
            let (dc, db) = s.thermal_rates(t_in, tc, tb);
            tc += dc * coolopt_units::Seconds::new(0.05);
            tb += db * coolopt_units::Seconds::new(0.05);
        }
        assert!(
            tc <= s.config().throttle_full + coolopt_units::TempDelta::from_kelvin(0.5),
            "settled at {tc} despite throttling"
        );
        assert!(
            tc > s.config().throttle_start,
            "premise broken: the throttle band should have been reached, got {tc}"
        );
        assert!(
            s.throttle_factor() < 1.0,
            "the machine must actually derate"
        );
    }

    #[test]
    fn off_server_has_reduced_airflow() {
        let s = quiet_server();
        let off_flow = s.air_flow().as_cubic_meters_per_second();
        assert!((off_flow - 0.003).abs() < 1e-12);
    }
}
