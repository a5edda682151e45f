//! Planner-side materialization: [`Scenario`] → [`ZoneSystem`].
//!
//! The scenario's *declared* models (per-class `w1, w2, α, β, γ` with the
//! zone's positional gradient) become one [`HeteroMachine`] per slot, each
//! zone's [`ZoneCooling`](crate::schema::ZoneCooling) becomes a [`CoolingModel`], and the supply-share
//! map plus the cross-zone recirculation matrix collapse into the planner's
//! coupling matrix:
//!
//! ```text
//! coupling[z][u] = share[z][u] + Σ_w R[z][w]·(share[w][u] − share[z][u])
//! ```
//!
//! i.e. zone `z` mostly breathes its own supply mix, shifted toward zone
//! `w`'s mix by whatever fraction of `w`'s exhaust it re-ingests. Rows sum
//! to exactly 1 (each correction term is a difference of unit-sum rows), so
//! the result always passes [`ZoneSystem::new`]'s stochasticity check.

use crate::schema::{Scenario, ScenarioError, ZoneSpec};
use coolopt_core::zones::{Zone, ZoneSystem};
use coolopt_core::HeteroMachine;
use coolopt_model::{CoolingModel, PowerModel, ThermalModel};
use coolopt_units::Watts;

/// Declared [`HeteroMachine`] models of one zone, slot order.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] when a declared coefficient is rejected by the
/// model constructors (validation should have caught it earlier).
pub fn zone_machines(
    scenario: &Scenario,
    zone: &ZoneSpec,
) -> Result<Vec<HeteroMachine>, ScenarioError> {
    let n = zone.machine_count();
    let mut machines = Vec::with_capacity(n);
    for j in 0..n {
        let class = scenario
            .class(zone.class_of_slot(j))
            .ok_or_else(|| ScenarioError::Invalid(format!("unknown class in {:?}", zone.name)))?;
        let h = ZoneSpec::relative_height(j, n);
        let m = &class.model;
        let g = &zone.thermal_gradient;
        let thermal = ThermalModel::new(
            m.alpha - g.alpha_span * h,
            m.beta,
            m.gamma_kelvin + g.gamma_span_kelvin * h,
        )
        .map_err(|e| ScenarioError::Invalid(format!("slot {j} of {:?}: {e}", zone.name)))?;
        let power = PowerModel::new(Watts::new(m.w1_watts), Watts::new(m.w2_watts))
            .map_err(|e| ScenarioError::Invalid(format!("class {:?}: {e}", class.name)))?;
        machines.push(HeteroMachine { power, thermal });
    }
    Ok(machines)
}

/// The planner's zone-coupling matrix (supply shares shifted by cross-zone
/// recirculation). Rows sum to exactly 1.
pub fn coupling_matrix(scenario: &Scenario) -> Vec<Vec<f64>> {
    let n = scenario.zone_count();
    (0..n)
        .map(|z| {
            let share_z = &scenario.zones[z].supply_share;
            let recirc = scenario.cross_recirc_row(z);
            (0..n)
                .map(|u| {
                    let mut c = share_z[u];
                    for (w, r) in recirc.iter().enumerate() {
                        if *r > 0.0 {
                            c += r * (scenario.zones[w].supply_share[u] - share_z[u]);
                        }
                    }
                    c
                })
                .collect()
        })
        .collect()
}

/// Builds the block-structured planning problem from a validated scenario:
/// declared machines per zone, one [`CoolingModel`] per CRAC, the coupling
/// matrix above, and the policy's planning cap `T_max − guard`.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] when declared coefficients or the assembled
/// coupling are rejected by the solver-side constructors.
pub fn zone_system(scenario: &Scenario) -> Result<ZoneSystem, ScenarioError> {
    let mut zones = Vec::with_capacity(scenario.zone_count());
    for spec in &scenario.zones {
        let machines = zone_machines(scenario, spec)?;
        let cooling = CoolingModel::new(spec.cooling.cf_watts_per_kelvin, spec.cooling.t_sp)
            .map_err(|e| ScenarioError::Invalid(format!("zone {:?} cooling: {e}", spec.name)))?;
        zones.push(Zone {
            machines,
            cooling,
            t_ac_cap: spec.cooling.t_ac_cap,
        });
    }
    ZoneSystem::new(
        zones,
        coupling_matrix(scenario),
        scenario.policy.planning_t_max(),
    )
    .map_err(|e| ScenarioError::Invalid(format!("zone system: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{testbed_rack20, two_zone_hetero};
    use coolopt_core::zones::{solve_zones, solve_zones_uniform};

    #[test]
    fn coupling_rows_sum_to_one() {
        for scenario in [testbed_rack20(0), two_zone_hetero(3)] {
            let c = coupling_matrix(&scenario);
            assert_eq!(c.len(), scenario.zone_count());
            for row in &c {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "row {row:?} sums to {sum}");
            }
        }
    }

    #[test]
    fn single_zone_coupling_is_identity() {
        let c = coupling_matrix(&testbed_rack20(0));
        assert_eq!(c, vec![vec![1.0]]);
    }

    #[test]
    fn cross_zone_recirculation_mixes_the_shares() {
        let s = two_zone_hetero(0);
        let c = coupling_matrix(&s);
        // Zone 0 re-ingests 1 % of zone 1's exhaust: its effective mix moves
        // toward zone 1's supply share.
        let expect_00 = 0.95 + 0.01 * (0.05 - 0.95);
        assert!((c[0][0] - expect_00).abs() < 1e-12);
        assert!(c[0][0] < s.zones[0].supply_share[0]);
    }

    #[test]
    fn declared_plans_solve_on_both_shipped_scenarios() {
        for scenario in [testbed_rack20(0), two_zone_hetero(0)] {
            let system = zone_system(&scenario).unwrap();
            assert_eq!(system.total_machines(), scenario.total_machines());
            let load = 0.5 * scenario.total_machines() as f64;
            let uniform = solve_zones_uniform(&system, load).unwrap();
            let per_zone = solve_zones(&system, load).unwrap();
            assert!(per_zone.total().as_watts() <= uniform.total().as_watts() + 1e-6);
        }
    }

    #[test]
    fn declared_machines_follow_the_gradient() {
        let s = testbed_rack20(0);
        let machines = zone_machines(&s, &s.zones[0]).unwrap();
        assert_eq!(machines.len(), 20);
        // α falls and γ rises from bottom to top.
        assert!(machines[0].thermal.alpha() > machines[19].thermal.alpha());
        assert!(machines[0].thermal.gamma() < machines[19].thermal.gamma());
    }
}
