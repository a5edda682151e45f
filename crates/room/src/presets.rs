//! Ready-made machine rooms, including the paper's 20-machine testbed.
//!
//! Since the scenarios-as-data refactor these presets are thin wrappers:
//! each one emits a [`coolopt_scenario::Scenario`] document (via
//! [`coolopt_scenario::presets`]) and materializes it through
//! [`crate::scenario::materialize`]. Loading the equivalent
//! JSON file from `scenarios/` produces a bit-identical room — that identity
//! is pinned by regression tests in [`crate::scenario`].

use crate::room::{MachineRoom, INITIAL_TEMP};
use crate::scenario::materialize;
use coolopt_cooling::{CracConfig, CracUnit};
use coolopt_machine::{Server, ServerId};

pub use coolopt_scenario::RackOptions;

/// Builds the evaluation testbed: a rack of 20 R210-like machines cooled by
/// one Challenger-like CRAC, mirroring the paper's §IV setup.
///
/// Machines lower in the rack receive a larger share of the supply stream
/// (they sit in a "cooler spot", which is why the paper's bottom-up baseline
/// fills the rack bottom first); upper machines ingest a little of their
/// lower neighbour's exhaust. Per-machine manufacturing variation is drawn
/// deterministically from `seed`, so two rooms built with the same seed are
/// byte-for-byte identical in behaviour.
pub fn testbed_rack20(seed: u64) -> MachineRoom {
    parametric_rack(20, seed)
}

/// A smaller rack for fast unit tests; same structure as
/// [`testbed_rack20`], scaled down.
pub fn small_rack(n: usize, seed: u64) -> MachineRoom {
    parametric_rack(n, seed)
}

/// Builds a rack of `n` machines with position-dependent air distribution.
///
/// # Panics
///
/// Panics if `n == 0` or if `n` is large enough that the servers would
/// demand more supply air than the CRAC provides (n ≳ 60 with the default
/// configuration).
pub fn parametric_rack(n: usize, seed: u64) -> MachineRoom {
    parametric_rack_with(RackOptions {
        machines: n,
        seed,
        ..RackOptions::default()
    })
}

/// Builds a rack with explicit air-distribution knobs (used by the
/// ablation studies).
///
/// # Panics
///
/// Same conditions as [`parametric_rack`], plus unphysical option values
/// (negative scales, supply span outside `[0, 0.9]`).
pub fn parametric_rack_with(options: RackOptions) -> MachineRoom {
    assert!(options.machines > 0, "rack must hold at least one machine");
    assert!(
        (0.0..=2.5).contains(&options.recirculation_scale),
        "recirculation scale {} out of range",
        options.recirculation_scale
    );
    assert!(
        (0.0..=0.9).contains(&options.supply_span),
        "supply span {} out of range",
        options.supply_span
    );
    assert!(
        options.supply_span < options.base_supply && options.base_supply <= 0.95,
        "base supply {} must exceed the span and stay below 0.95",
        options.base_supply
    );
    assert!(
        (0.0..=1.0).contains(&options.jitter_scale),
        "jitter scale {} out of range",
        options.jitter_scale
    );
    let scenario = coolopt_scenario::presets::single_zone(options);
    materialize(&scenario).expect("preset scenario materializes")
}

/// Two racks in one room at different distances from the CRAC — the "within
/// or across racks" situation the paper contrasts itself against rack-level
/// schemes with. The near rack (machines `0..n_per_rack`) sits under the
/// vent (supply share 0.92 → 0.72); the far rack (`n_per_rack..2·n_per_rack`)
/// across the aisle sees a weaker stream (0.60 → 0.40).
///
/// # Panics
///
/// Panics if `n_per_rack == 0`.
pub fn dual_zone_room(n_per_rack: usize, seed: u64) -> MachineRoom {
    assert!(n_per_rack > 0, "each rack must hold at least one machine");
    let near = parametric_rack_with(RackOptions {
        machines: n_per_rack,
        seed,
        supply_span: 0.20,
        base_supply: 0.92,
        ..RackOptions::default()
    });
    // Same seed as the near rack: slot-for-slot identical manufacturing
    // jitter, so near/far comparisons isolate the *positional* effect.
    let far = parametric_rack_with(RackOptions {
        machines: n_per_rack,
        seed,
        supply_span: 0.20,
        base_supply: 0.60,
        ..RackOptions::default()
    });

    // Recombine into one zone under one CRAC: concatenate server configs
    // and air paths, renumbering machines into the combined index space. The
    // far rack's bottom slot keeps its zero recirculation: nothing sits
    // below it.
    let n = 2 * n_per_rack;
    let mut servers = Vec::with_capacity(n);
    let mut supply = Vec::with_capacity(n);
    let mut recirc = Vec::with_capacity(n);
    let mut capture = Vec::with_capacity(n);
    for (offset, room) in [(0usize, &near), (n_per_rack, &far)] {
        for (i, server) in room.servers().iter().enumerate() {
            let combined = offset + i;
            servers.push(Server::new(
                ServerId(combined),
                *server.config(),
                seed.wrapping_add(combined as u64),
                INITIAL_TEMP,
            ));
            supply.push(room.supply_fraction(i));
            recirc.push(room.neighbor_recirculation(i));
            capture.push(room.capture_fraction(i));
        }
    }
    let crac = CracUnit::new(CracConfig::challenger_like());
    MachineRoom::new(
        vec![servers],
        vec![crac],
        supply,
        recirc,
        capture,
        vec![vec![1.0]],
        vec![vec![0.0]],
        seed,
    )
    .expect("dual-zone room is consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_units::Temperature;

    #[test]
    fn dual_zone_room_has_a_clear_near_far_split() {
        // Ten machines per rack: enough aggregate heat that the CRAC's
        // supply/return spread — and with it the positional signal — stands
        // clear of the per-server process noise (~±0.4 °C instantaneous).
        let room = dual_zone_room(10, 3);
        assert_eq!(room.len(), 20);
        // Every near-rack machine draws more supply air than any far one.
        let near_min = (0..10)
            .map(|i| room.supply_fraction(i))
            .fold(f64::INFINITY, f64::min);
        let far_max = (10..20)
            .map(|i| room.supply_fraction(i))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            near_min > far_max,
            "near rack min {near_min} should exceed far rack max {far_max}"
        );
        // And the far rack really runs warmer at equal load.
        use coolopt_units::Seconds;
        let mut room = room;
        room.force_all_on();
        room.set_loads(&[0.8; 20]).unwrap();
        room.set_set_point(Temperature::from_celsius(17.0));
        assert!(room.settle(Seconds::new(6000.0), 5.0));
        // Slot-for-slot paired comparison (same manufacturing jitter in both
        // racks by construction): no far machine runs clearly cooler than its
        // near twin, and on average the far rack is distinctly warmer.
        let mut mean_gap = 0.0;
        for i in 0..10 {
            let near_t = room.servers()[i].cpu_temp();
            let far_t = room.servers()[i + 10].cpu_temp();
            let gap = far_t.as_celsius() - near_t.as_celsius();
            assert!(
                gap > -0.5,
                "far twin {i} at {far_t} well below near {near_t}"
            );
            mean_gap += gap / 10.0;
        }
        assert!(
            mean_gap > 0.3,
            "far rack should be clearly warmer on average, gap was {mean_gap:.2} °C"
        );
    }

    #[test]
    fn testbed_has_twenty_machines() {
        let room = testbed_rack20(1);
        assert_eq!(room.len(), 20);
        assert_eq!(room.zone_count(), 1);
    }

    #[test]
    fn same_seed_same_room_different_seed_different_room() {
        let a = testbed_rack20(5);
        let b = testbed_rack20(5);
        let c = testbed_rack20(6);
        for i in 0..20 {
            assert_eq!(
                a.servers()[i].config().fan_flow,
                b.servers()[i].config().fan_flow
            );
        }
        assert!(
            (0..20).any(|i| a.servers()[i].config().fan_flow != c.servers()[i].config().fan_flow)
        );
    }

    #[test]
    fn bottom_machines_get_more_supply_air() {
        let room = testbed_rack20(2);
        assert!(room.supply_fraction(0) > room.supply_fraction(19));
        assert!(room.supply_fraction(0) > 0.9);
        assert!(room.supply_fraction(19) < 0.5);
    }

    #[test]
    fn bottom_machines_really_run_cooler() {
        use coolopt_units::Seconds;
        // CPU temperatures carry per-machine manufacturing jitter *larger*
        // than the positional inlet signal (±5 % on the CPU conductance is
        // ~±1.9 °C at full load, the inlet spread under 1 °C), so the claim
        // is only testable with identical machines: a jitter-free rack with
        // a wide supply span, averaged over seeds to damp process noise.
        let mut gap_sum = 0.0;
        for seed in [9, 10, 11] {
            let mut room = parametric_rack_with(RackOptions {
                machines: 12,
                seed,
                supply_span: 0.8,
                base_supply: 0.9,
                jitter_scale: 0.0,
                ..RackOptions::default()
            });
            room.force_all_on();
            room.set_loads(&[0.7; 12]).unwrap();
            room.set_set_point(Temperature::from_celsius(25.0));
            assert!(room.settle(Seconds::new(6000.0), 5.0));
            // Inlet air is strictly cooler lower in the rack by construction.
            let air = room.air_state();
            assert!(
                air.inlets[0] < air.inlets[11],
                "bottom inlet {} should be cooler than top inlet {}",
                air.inlets[0],
                air.inlets[11]
            );
            let mean = |range: std::ops::Range<usize>| {
                let len = range.len() as f64;
                range
                    .map(|i| room.servers()[i].cpu_temp().as_celsius())
                    .sum::<f64>()
                    / len
            };
            gap_sum += mean(6..12) - mean(0..6);
        }
        let mean_gap = gap_sum / 3.0;
        assert!(
            mean_gap > 0.2,
            "top half should average {mean_gap:.2} °C > 0.2 °C warmer than bottom half"
        );
    }
}
