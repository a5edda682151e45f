//! Scenario materialization: [`Scenario`] → simulated [`MachineRoom`].
//!
//! Every validated scenario document, whatever its zone count, becomes one
//! [`MachineRoom`]. For the shipped single-zone `testbed_rack20` document
//! the plant is bit-identical to the historical code presets.
//!
//! Per-machine manufacturing jitter is drawn from the zone's deterministic
//! RNG stream ([`Scenario::zone_seed`]; zone 0 is the historical
//! single-rack stream) in the schema's fixed field order, so the same
//! document always materializes the same machines.

use crate::room::{InvalidRoom, MachineRoom, INITIAL_TEMP};
use coolopt_cooling::CracUnit;
use coolopt_machine::{Server, ServerConfig, ServerId};
use coolopt_scenario::{MachineClass, Scenario, ZoneSpec};
use coolopt_units::{Conductance, FlowRate, HeatCapacity, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds one zone's servers, drawing manufacturing jitter from the zone's
/// RNG stream in the schema's canonical field order. `index_base` is the
/// zone's first global server index (0 for single-zone scenarios, which
/// makes this exactly the historical `parametric_rack_with` stream).
fn build_zone_servers(
    scenario: &Scenario,
    zone: &ZoneSpec,
    z: usize,
    index_base: usize,
) -> Vec<Server> {
    let n = zone.machine_count();
    let mut rng = StdRng::seed_from_u64(scenario.zone_seed(z));
    let mut servers = Vec::with_capacity(n);
    for j in 0..n {
        let class: &MachineClass = scenario
            .class(zone.class_of_slot(j))
            .expect("validated scenario resolves every class");
        let base = class.server;
        let fracs = class.jitter.fractions();
        // The RNG is drawn even at scale 0 so the same seed yields the same
        // stream regardless of the scale — the historical preset rule.
        let mut jitter =
            |frac: f64| 1.0 + zone.jitter_scale * frac * (rng.random::<f64>() * 2.0 - 1.0);
        let mut config: ServerConfig = base;
        config.fan_flow = FlowRate::cubic_meters_per_second(
            base.fan_flow.as_cubic_meters_per_second() * jitter(fracs[0]),
        );
        config.theta_cpu_box = Conductance::watts_per_kelvin(
            base.theta_cpu_box.as_watts_per_kelvin() * jitter(fracs[1]),
        );
        config.idle_power = Watts::new(base.idle_power.as_watts() * jitter(fracs[2]));
        config.load_power = Watts::new(base.load_power.as_watts() * jitter(fracs[3]));
        config.nu_cpu =
            HeatCapacity::joules_per_kelvin(base.nu_cpu.as_joules_per_kelvin() * jitter(fracs[4]));
        config.nu_box =
            HeatCapacity::joules_per_kelvin(base.nu_box.as_joules_per_kelvin() * jitter(fracs[5]));
        let i = index_base + j;
        servers.push(Server::new(
            ServerId(i),
            config,
            scenario.seed.wrapping_add(i as u64),
            INITIAL_TEMP,
        ));
    }
    servers
}

/// Materializes a scenario into its simulated plant.
///
/// For scenarios emitted by `coolopt_scenario::presets::single_zone` this
/// reproduces `presets::parametric_rack_with` bit for bit (pinned by the
/// regression tests).
///
/// # Errors
///
/// Returns [`InvalidRoom`] when component-level validation rejects the
/// assembled plant (a validated scenario normally cannot trigger this,
/// except by overcommitting a CRAC's air flow).
pub fn materialize(scenario: &Scenario) -> Result<MachineRoom, InvalidRoom> {
    let z_count = scenario.zone_count();
    let mut zone_servers = Vec::with_capacity(z_count);
    let mut cracs = Vec::with_capacity(z_count);
    let mut supply_share = Vec::with_capacity(z_count);
    let mut supply_fraction = Vec::new();
    let mut neighbor_recirc = Vec::new();
    let mut capture = Vec::new();
    let mut index_base = 0usize;
    for (z, zone) in scenario.zones.iter().enumerate() {
        let n = zone.machine_count();
        zone_servers.push(build_zone_servers(scenario, zone, z, index_base));
        cracs.push(CracUnit::new(zone.crac));
        supply_share.push(zone.supply_share.clone());
        for j in 0..n {
            supply_fraction.push(zone.supply_fraction(j, n));
            neighbor_recirc.push(zone.neighbor_recirculation(j, n));
            capture.push(zone.capture);
        }
        index_base += n;
    }
    let cross_zone = if scenario.cross_zone_recirculation.is_empty() {
        vec![vec![0.0; z_count]; z_count]
    } else {
        scenario.cross_zone_recirculation.clone()
    };
    MachineRoom::new(
        zone_servers,
        cracs,
        supply_fraction,
        neighbor_recirc,
        capture,
        supply_share,
        cross_zone,
        scenario.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use coolopt_scenario::presets as scenario_presets;
    use coolopt_scenario::RackOptions;
    use coolopt_units::{Seconds, Temperature};

    /// The tentpole regression: materializing the shipped testbed scenario
    /// reproduces the historical code preset bit for bit — every server
    /// parameter, air fraction, and (after simulation) every state bit.
    #[test]
    fn testbed_scenario_materializes_bit_identically_to_the_preset() {
        for seed in [0, 5, 123] {
            let scenario = scenario_presets::testbed_rack20(seed);
            let from_scenario = materialize(&scenario).unwrap();
            let from_code = presets::testbed_rack20(seed);
            assert_rooms_identical(&from_scenario, &from_code);
        }
    }

    #[test]
    fn parametric_options_map_bit_identically_too() {
        let options = RackOptions {
            machines: 7,
            seed: 9,
            recirculation_scale: 1.5,
            supply_span: 0.3,
            base_supply: 0.8,
            jitter_scale: 0.5,
        };
        let scenario = scenario_presets::single_zone(options);
        let a = materialize(&scenario).unwrap();
        let b = presets::parametric_rack_with(options);
        assert_rooms_identical(&a, &b);
    }

    fn assert_rooms_identical(a: &MachineRoom, b: &MachineRoom) {
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.servers().iter().zip(b.servers()) {
            assert_eq!(sa.config(), sb.config(), "server configs must match");
        }
        for i in 0..a.len() {
            assert_eq!(
                a.supply_fraction(i).to_bits(),
                b.supply_fraction(i).to_bits()
            );
            assert_eq!(
                a.neighbor_recirculation(i).to_bits(),
                b.neighbor_recirculation(i).to_bits()
            );
            assert_eq!(a.capture_fraction(i), b.capture_fraction(i));
        }
        // Behavioural identity: identical trajectories, sensors included.
        let mut a = a.clone();
        let mut b = b.clone();
        for room in [&mut a, &mut b] {
            room.force_all_on();
            let n = room.len();
            room.set_loads(&vec![0.6; n]).unwrap();
            room.set_set_point(Temperature::from_celsius(18.0));
            room.run_for(Seconds::new(300.0));
        }
        for (sa, sb) in a.servers().iter().zip(b.servers()) {
            assert_eq!(
                sa.cpu_temp().as_kelvin().to_bits(),
                sb.cpu_temp().as_kelvin().to_bits(),
                "trajectories must be bit-identical"
            );
        }
        assert_eq!(
            a.room_temp().as_kelvin().to_bits(),
            b.room_temp().as_kelvin().to_bits()
        );
        assert_eq!(a.read_cpu_temp(0), b.read_cpu_temp(0));
    }

    #[test]
    fn two_zone_scenario_materializes_and_settles() {
        let scenario = scenario_presets::two_zone_hetero(1);
        let mut room = materialize(&scenario).unwrap();
        assert_eq!(room.len(), scenario.total_machines());
        assert_eq!(room.zone_count(), 2);
        room.force_all_on();
        let n = room.len();
        room.set_loads(&vec![0.5; n]).unwrap();
        room.set_fixed_supplies(&[
            Temperature::from_celsius(16.0),
            Temperature::from_celsius(14.0),
        ]);
        assert!(
            room.settle(Seconds::new(6000.0), 5.0),
            "two-zone room failed to settle"
        );
        let air = room.air_state();
        assert_eq!(air.supplies.len(), 2);
        assert_eq!(air.inlets.len(), n);
        // The far zone breathes mostly CRAC 1's (colder) supply, but its
        // machines are hotter per watt; everything must stay physical.
        for i in 0..n {
            let t = room.servers()[i].cpu_temp();
            assert!(
                t.as_celsius() > 20.0 && t.as_celsius() < 90.0,
                "server {i} at {t}"
            );
        }
        // Both CRACs extract heat: supplies sit below their returns.
        for u in 0..2 {
            assert!(air.supplies[u] < air.returns[u]);
        }
    }

    #[test]
    fn colder_zone_supply_cools_that_zones_machines_more() {
        let scenario = scenario_presets::two_zone_hetero(2);
        let settle_with = |t0: f64, t1: f64| {
            let mut room = materialize(&scenario).unwrap();
            room.force_all_on();
            let n = room.len();
            room.set_loads(&vec![0.6; n]).unwrap();
            room.set_fixed_supplies(&[
                Temperature::from_celsius(t0),
                Temperature::from_celsius(t1),
            ]);
            assert!(room.settle(Seconds::new(6000.0), 5.0));
            let far = room.zone_range(1);
            let mean_far: f64 = far
                .clone()
                .map(|i| room.servers()[i].cpu_temp().as_celsius())
                .sum::<f64>()
                / far.len() as f64;
            mean_far
        };
        let warm = settle_with(16.0, 18.0);
        let cold = settle_with(16.0, 12.0);
        assert!(
            warm - cold > 2.0,
            "cooling CRAC 1 by 6 K should cool the far zone clearly (warm {warm:.2}, cold {cold:.2})"
        );
    }
}
