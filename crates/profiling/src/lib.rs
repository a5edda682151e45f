//! System profiling: turning a (simulated) machine room into a fitted
//! [`RoomModel`].
//!
//! This reproduces the paper's §IV-A methodology end to end:
//!
//! 1. drive the room through a grid of steady operating points
//!    ([`grid`] — the load staircase of the paper plus set-point variation);
//! 2. fit the power model `P = w1·L + w2` by least squares over every
//!    machine's `(load, measured power)` pairs ([`power_profile`], Fig. 2);
//! 3. fit each machine's `T_cpu = α·T_ac + β·P + γ` ([`thermal_profile`],
//!    Fig. 3);
//! 4. fit the cooling model, measure the achievable supply ceiling, and
//!    calibrate the `T_SP ↔ T_ac` mapping ([`crac_profile`]).
//!
//! The protocol is fixed: every grid point settles for up to
//! [`SETTLE_MAX`] and is then sampled over [`WINDOW`]. The one policy
//! value, the `T_max` the deployment enforces, comes from the caller.
//!
//! ```no_run
//! use coolopt_room::presets::testbed_rack20;
//! use coolopt_profiling::profile_room;
//! use coolopt_units::Temperature;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut room = testbed_rack20(42);
//! let profile = profile_room(&mut room, Temperature::from_celsius(60.0))?;
//! assert_eq!(profile.model.len(), 20);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod crac_profile;
pub mod filter;
pub mod grid;
pub mod power_profile;
pub mod regression;
pub mod thermal_profile;

pub use crac_profile::{fit_cooling_model, measure_t_ac_max, CoolingProfile};
pub use filter::{moving_average, LowPassFilter};
pub use grid::{default_grid, run_grid, OperatingPoint, PointRecord};
pub use power_profile::{fit_power_model, PowerProfile};
pub use regression::{fit_multi, fit_simple, MultiFit, RegressionError, SimpleFit};
pub use thermal_profile::{fit_thermal_models, ThermalProfile};

use coolopt_model::RoomModel;
use coolopt_room::MachineRoom;
use coolopt_units::{Seconds, Temperature};
use std::fmt;

/// Set points the profiling grid visits.
const GRID_SET_POINTS: [Temperature; 3] = [
    Temperature::from_celsius(16.0),
    Temperature::from_celsius(19.0),
    Temperature::from_celsius(22.0),
];

/// Per-machine load while probing the supply ceiling.
const CEILING_PROBE_LOAD: f64 = 0.25;

/// Settling budget per operating point (simulated time).
pub const SETTLE_MAX: Seconds = Seconds::new(4000.0);

/// Measurement window per operating point (simulated time).
pub const WINDOW: Seconds = Seconds::new(60.0);

/// Everything a full profiling run produces.
///
/// Serializable: deployments profile once, persist the result as JSON, and
/// plan against the saved profile from then on (see the `coolopt` CLI).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RoomProfile {
    /// The assembled model the optimizer consumes.
    pub model: RoomModel,
    /// Power-side fit and data (Fig. 2).
    pub power: PowerProfile,
    /// Thermal-side fits (Fig. 3).
    pub thermal: ThermalProfile,
    /// Cooling-side fit and calibrations.
    pub cooling: CoolingProfile,
    /// The raw steady-state records of the grid.
    pub records: Vec<PointRecord>,
}

/// Error from a full profiling run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// Power fit failed.
    Power(power_profile::PowerProfileError),
    /// A thermal fit failed.
    Thermal(thermal_profile::ThermalProfileError),
    /// Cooling calibration failed.
    Cooling(crac_profile::CoolingProfileError),
    /// The assembled model was rejected.
    Model(String),
    /// The room has several zones; the §IV-A model has one `T_ac`, so
    /// profiling needs a room with exactly one CRAC.
    MultiZone {
        /// CRAC count of the offending room.
        cracs: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Power(e) => write!(f, "{e}"),
            ProfileError::Thermal(e) => write!(f, "{e}"),
            ProfileError::Cooling(e) => write!(f, "{e}"),
            ProfileError::Model(e) => write!(f, "model assembly failed: {e}"),
            ProfileError::MultiZone { cracs } => write!(
                f,
                "room has {cracs} CRAC units; profiling needs a single-zone room"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Runs the full §IV-A profiling pipeline; `t_max` is the CPU temperature
/// cap the deployment will enforce, which the fitted model carries.
///
/// # Errors
///
/// Returns [`ProfileError`] when the room has more than one CRAC, any fit
/// fails, or the assembled model is rejected.
pub fn profile_room(
    room: &mut MachineRoom,
    t_max: Temperature,
) -> Result<RoomProfile, ProfileError> {
    if room.zone_count() != 1 {
        return Err(ProfileError::MultiZone {
            cracs: room.zone_count(),
        });
    }
    let points = default_grid(room.len(), &GRID_SET_POINTS);
    let records = run_grid(room, &points, SETTLE_MAX, WINDOW);

    let power = fit_power_model(&records).map_err(ProfileError::Power)?;
    let thermal = fit_thermal_models(&records).map_err(ProfileError::Thermal)?;
    let t_ac_max = measure_t_ac_max(room, CEILING_PROBE_LOAD, SETTLE_MAX);
    let cooling = fit_cooling_model(&records, t_ac_max).map_err(ProfileError::Cooling)?;

    let model = RoomModel::new(power.model, thermal.models.clone(), cooling.model, t_max)
        .map_err(|e| ProfileError::Model(e.to_string()))?
        .with_t_ac_max(cooling.t_ac_max);

    Ok(RoomProfile {
        model,
        power,
        thermal,
        cooling,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_room::presets;

    const T_MAX: Temperature = Temperature::from_celsius(60.0);

    #[test]
    fn profiles_a_small_rack_accurately() {
        let mut room = presets::small_rack(4, 31);
        let profile = profile_room(&mut room, T_MAX).unwrap();

        // Power model close to the substrate's generating curve
        // (w1 ≈ 45 − curvature bow, w2 ≈ 40).
        let w1 = profile.model.power().w1().as_watts();
        let w2 = profile.model.power().w2().as_watts();
        assert!((40.0..50.0).contains(&w1), "w1 = {w1}");
        assert!((36.0..44.0).contains(&w2), "w2 = {w2}");
        assert!(profile.power.r2 > 0.98, "power r2 = {}", profile.power.r2);

        // Thermal fits should explain the data well despite recirculation.
        for (i, r2) in profile.thermal.r2.iter().enumerate() {
            assert!(*r2 > 0.9, "machine {i} thermal r2 = {r2}");
        }
        // β within a factor of ~2 of the design value 1/(F·c)+1/ϑ ≈ 0.53.
        for m in &profile.thermal.models {
            assert!((0.2..1.2).contains(&m.beta()), "beta = {}", m.beta());
            assert!((0.1..1.5).contains(&m.alpha()), "alpha = {}", m.alpha());
        }

        // Cooling slope positive; ceiling in a sane band.
        assert!(profile.cooling.model.cf() > 0.0);
        let ceiling = profile.cooling.t_ac_max.as_celsius();
        assert!((10.0..30.0).contains(&ceiling), "t_ac_max = {ceiling}");

        // The assembled model carries the ceiling.
        assert!(profile.model.t_ac_max().is_some());
    }

    #[test]
    fn multi_zone_rooms_are_refused() {
        // The two servers of a small rack, split into two zones of one CRAC
        // each.
        let rack = presets::small_rack(2, 1);
        let servers = rack.servers();
        let mut room = MachineRoom::new(
            vec![servers[..1].to_vec(), servers[1..].to_vec()],
            vec![rack.cracs()[0].clone(); 2],
            vec![0.8; 2],
            vec![0.0; 2],
            vec![0.9; 2],
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![0.0; 2]; 2],
            0,
        )
        .unwrap();
        assert_eq!(
            profile_room(&mut room, T_MAX),
            Err(ProfileError::MultiZone { cracs: 2 })
        );
    }

    #[test]
    fn fitted_model_predicts_held_out_operating_point() {
        let mut room = presets::small_rack(4, 77);
        let profile = profile_room(&mut room, T_MAX).unwrap();

        // Visit a point not in the training grid and compare predictions.
        let held_out = grid::OperatingPoint {
            loads: vec![0.6, 0.3, 0.6, 0.3],
            set_point: Temperature::from_celsius(18.0),
        };
        let record = grid::run_grid(
            &mut room,
            std::slice::from_ref(&held_out),
            SETTLE_MAX,
            WINDOW,
        )
        .remove(0);

        for i in 0..4 {
            let predicted = profile
                .model
                .thermal(i)
                .predict(record.t_ac, record.server_power[i]);
            let measured = record.cpu_temp[i];
            let err = (predicted - measured).abs().as_kelvin();
            // The paper reports "a few percent error"; allow 3 K here.
            assert!(
                err < 3.0,
                "machine {i}: predicted {predicted}, measured {measured}"
            );
        }
    }
}
