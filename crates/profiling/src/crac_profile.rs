//! Fitting the cooling-power model (Eq. 10) and calibrating the set-point
//! actuator.
//!
//! Three artifacts come out of the cooling-side calibration:
//!
//! 1. a [`CoolingModel`]: the paper's `P_ac = c·f_ac·(T_SP − T_ac)` fitted
//!    as an effective slope — the regression uses both `T_ac` and the total
//!    load as predictors and keeps the `T_ac` slope, so the load's direct
//!    contribution does not contaminate the temperature sensitivity;
//! 2. the supply ceiling `T_ac^max`: the warmest supply the unit can
//!    actually deliver (measured by commanding an unreachably high set point
//!    and watching where the supply settles — the valve pins at its
//!    minimum);
//! 3. a [`SetPointTable`]: the empirical `T_SP ↔ T_ac` offset per load, the
//!    paper's "choose the set point that produces the needed `T_ac` given
//!    the load at hand".

use crate::grid::PointRecord;
use crate::regression::{fit_multi, RegressionError};
use coolopt_cooling::SetPointTable;
use coolopt_model::CoolingModel;
use coolopt_room::MachineRoom;
use coolopt_units::{Seconds, Temperature};
use serde::{Deserialize, Serialize};

/// The fitted cooling model, ceiling and set-point calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoolingProfile {
    /// The fitted Eq. 10 model.
    pub model: CoolingModel,
    /// Warmest deliverable supply temperature.
    pub t_ac_max: Temperature,
    /// Set-point calibration table.
    pub set_points: SetPointTable,
    /// Fit quality of the cooling regression.
    pub r2: f64,
}

/// Error from cooling-side calibration.
#[derive(Debug, Clone, PartialEq)]
pub enum CoolingProfileError {
    /// The regression failed.
    Regression(RegressionError),
    /// The fitted slope was not physically sensible.
    Unphysical(String),
    /// Not enough regulated records to calibrate set points.
    InsufficientData(String),
}

impl std::fmt::Display for CoolingProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoolingProfileError::Regression(e) => write!(f, "cooling fit failed: {e}"),
            CoolingProfileError::Unphysical(e) => write!(f, "cooling fit unphysical: {e}"),
            CoolingProfileError::InsufficientData(e) => {
                write!(f, "cooling calibration lacks data: {e}")
            }
        }
    }
}

impl std::error::Error for CoolingProfileError {}

/// Measures the supply ceiling: command a set point the room's heat can
/// never push the return up to, let the valve pin at its minimum, and read
/// where the supply settles (CRAC 0's; profiled rooms have one unit).
pub fn measure_t_ac_max(
    room: &mut MachineRoom,
    probe_load: f64,
    settle_max: Seconds,
) -> Temperature {
    room.force_all_on();
    let n = room.len();
    room.set_loads(&vec![probe_load; n])
        .expect("probe load is a valid fraction");
    room.set_set_point(Temperature::from_celsius(35.0));
    room.settle(settle_max, 5.0);
    room.air_state().supplies[0]
}

/// Fits the cooling model and builds the set-point table from grid records
/// (plus an explicitly measured ceiling).
///
/// Only records where the set point was actually *regulating* (return within
/// 0.5 K of the set point) enter the set-point table; pinned-valve records
/// would corrupt the offsets.
///
/// # Errors
///
/// Returns [`CoolingProfileError`] when the regression fails, the slope is
/// non-positive, or no regulated records exist.
pub fn fit_cooling_model(
    records: &[PointRecord],
    t_ac_max: Temperature,
) -> Result<CoolingProfile, CoolingProfileError> {
    // P_ac ≈ c0 + c1·T_ac + c2·L_total; cf = −c1.
    let rows: Vec<[f64; 2]> = records
        .iter()
        .map(|r| [r.t_ac.as_kelvin(), r.total_load()])
        .collect();
    let y: Vec<f64> = records.iter().map(|r| r.cooling_power.as_watts()).collect();
    let fit = fit_multi(rows.iter().map(|r| r.as_slice()), &y)
        .map_err(CoolingProfileError::Regression)?;
    let cf = -fit.coefficients[0];
    if !(cf.is_finite() && cf > 0.0) {
        return Err(CoolingProfileError::Unphysical(format!(
            "cooling power must decrease with supply temperature; fitted slope {cf}"
        )));
    }

    // Anchor the reference set point so the model reproduces the median
    // record's absolute cooling power at its observed supply temperature.
    let mut by_power: Vec<&PointRecord> = records.iter().collect();
    by_power.sort_by(|a, b| {
        a.cooling_power
            .partial_cmp(&b.cooling_power)
            .expect("finite powers")
    });
    let median = by_power[by_power.len() / 2];
    let t_sp_ref =
        Temperature::from_kelvin(median.t_ac.as_kelvin() + median.cooling_power.as_watts() / cf);
    let model = CoolingModel::new(cf, t_sp_ref)
        .map_err(|e| CoolingProfileError::Unphysical(e.to_string()))?;

    // Set-point table from regulated records only.
    let regulated: Vec<(f64, Temperature, Temperature)> = records
        .iter()
        .filter(|r| (r.t_return - r.set_point).abs().as_kelvin() < 0.5)
        .map(|r| (r.total_load(), r.set_point, r.t_ac))
        .collect();
    // Collapse duplicate load levels (keep the first occurrence).
    let mut seen_loads: Vec<f64> = Vec::new();
    let deduped: Vec<(f64, Temperature, Temperature)> = regulated
        .into_iter()
        .filter(|(l, _, _)| {
            if seen_loads.iter().any(|&s| (s - l).abs() < 1e-9) {
                false
            } else {
                seen_loads.push(*l);
                true
            }
        })
        .collect();
    let set_points = SetPointTable::from_measurements(&deduped)
        .map_err(|e| CoolingProfileError::InsufficientData(e.to_string()))?;

    Ok(CoolingProfile {
        model,
        t_ac_max,
        set_points,
        r2: fit.r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_units::Watts;

    /// Records from a synthetic plant: P_ac = 20000 − 400·T_ac_rel + 90·L
    /// with T_ac in kelvin around 290.
    fn synthetic_records() -> Vec<PointRecord> {
        let mut out = Vec::new();
        for &t_ac_c in &[14.0, 17.0, 20.0] {
            for &l in &[0.5_f64, 2.0, 3.5] {
                let t_ac = Temperature::from_celsius(t_ac_c);
                let p_ac = 120_000.0 - 400.0 * t_ac.as_kelvin() + 90.0 * l;
                out.push(PointRecord {
                    loads: vec![l / 4.0; 4],
                    set_point: Temperature::from_celsius(t_ac_c + 3.0),
                    settled: true,
                    t_ac,
                    t_return: Temperature::from_celsius(t_ac_c + 3.0),
                    server_power: vec![Watts::new(50.0); 4],
                    cpu_temp: vec![Temperature::from_celsius(50.0); 4],
                    cooling_power: Watts::new(p_ac),
                });
            }
        }
        out
    }

    #[test]
    fn recovers_the_temperature_slope() {
        let profile =
            fit_cooling_model(&synthetic_records(), Temperature::from_celsius(21.0)).unwrap();
        assert!(
            (profile.model.cf() - 400.0).abs() < 1e-6,
            "cf = {}",
            profile.model.cf()
        );
        assert!(profile.r2 > 0.999);
        assert_eq!(profile.t_ac_max, Temperature::from_celsius(21.0));
        // The anchored model reproduces the median record's power.
        let median_like = Temperature::from_celsius(17.0);
        let predicted = profile.model.predict(median_like).as_watts();
        let actual = 120_000.0 - 400.0 * median_like.as_kelvin() + 90.0 * 2.0;
        assert!((predicted - actual).abs() < 200.0);
    }

    #[test]
    fn set_point_table_only_uses_regulated_records() {
        let mut records = synthetic_records();
        // Corrupt one record into a pinned-valve state (return far below SP).
        records[0].t_return = Temperature::from_celsius(10.0);
        let profile = fit_cooling_model(&records, Temperature::from_celsius(21.0)).unwrap();
        // The table still exists and interpolates.
        assert!(profile.set_points.len() >= 2);
    }

    #[test]
    fn inverted_slope_is_rejected() {
        let mut records = synthetic_records();
        for r in &mut records {
            // Flip the relationship: warmer supply ⇒ more power.
            r.cooling_power =
                Watts::new(400.0 * r.t_ac.as_kelvin() - 100_000.0 + 90.0 * r.total_load());
        }
        assert!(matches!(
            fit_cooling_model(&records, Temperature::from_celsius(21.0)),
            Err(CoolingProfileError::Unphysical(_))
        ));
    }
}
