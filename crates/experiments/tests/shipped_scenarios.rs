//! Schema validation of every shipped scenario document: each file under
//! `scenarios/` must parse, validate, materialize into a consistent plant,
//! and yield a solvable smoke plan. The shipped files are additionally
//! pinned to their emitting presets, so "load the JSON" and "call the
//! preset" can never drift apart.
//!
//! Fleet-scale documents (more than [`MATERIALIZE_LIMIT`] machines) skip
//! the physical materialization — a simulated plant of thousands of
//! machines is out of place in a schema check — and are smoke-planned
//! through the hierarchical consolidation index on their declared models
//! instead.

use coolopt_core::{solve_zones, solve_zones_uniform, HierConfig, HierIndex, PowerTerms};
use coolopt_room::materialize;
use coolopt_scenario::{presets, zone_machines, zone_system, Scenario};
use std::path::PathBuf;

/// Largest fleet the simulated plant is materialized for.
const MATERIALIZE_LIMIT: usize = 1000;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn shipped() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let scenario = Scenario::load(&path).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
        out.push((name, scenario));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn every_shipped_scenario_parses_materializes_and_plans() {
    let shipped = shipped();
    assert!(
        shipped.len() >= 2,
        "expected at least the two stock files, found {:?}",
        shipped.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    );
    for (name, scenario) in &shipped {
        // The declared planning problem must always assemble.
        let system = zone_system(scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(system.len(), scenario.zone_count(), "{name}");
        if scenario.total_machines() > MATERIALIZE_LIMIT {
            hier_smoke_plan(name, scenario);
            continue;
        }
        let room = materialize(scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(room.len(), scenario.total_machines(), "{name}");
        // A smoke plan at half load on the declared models.
        let load = 0.5 * scenario.total_machines() as f64;
        let per_zone = solve_zones(&system, load).unwrap_or_else(|e| panic!("{name}: {e}"));
        let uniform = solve_zones_uniform(&system, load).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            per_zone.total().as_watts() <= uniform.total().as_watts() + 1e-6,
            "{name}: per-zone plan must never lose to the uniform baseline"
        );
    }
}

/// Fleet-scale smoke plan: the declared machines of every zone feed the
/// hierarchical consolidation index, which must build and answer a
/// mid-range load with a finite certified error bound.
fn hier_smoke_plan(name: &str, scenario: &Scenario) {
    let t_max = scenario.policy.planning_t_max();
    for spec in &scenario.zones {
        let machines = zone_machines(scenario, spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let pairs: Vec<(f64, f64)> = machines
            .iter()
            .map(|m| {
                (
                    m.thermal.k_coefficient(t_max, &m.power),
                    m.thermal.alpha_over_beta(),
                )
            })
            .collect();
        let mean_w1 = machines
            .iter()
            .map(|m| m.power.w1().as_watts())
            .sum::<f64>()
            / machines.len() as f64;
        let mean_w2 = machines
            .iter()
            .map(|m| m.power.w2().as_watts())
            .sum::<f64>()
            / machines.len() as f64;
        let terms = PowerTerms::unbounded(mean_w2, spec.cooling.cf_watts_per_kelvin * mean_w1);
        let hier = HierIndex::build(&pairs, HierConfig::auto(&pairs))
            .unwrap_or_else(|e| panic!("{name}/{}: {e}", spec.name));
        let load = 0.5 * pairs.len() as f64;
        let (plan, bound) = hier
            .query_min_power_bounded(&terms, load, None)
            .unwrap_or_else(|e| panic!("{name}/{}: {e}", spec.name))
            .unwrap_or_else(|| panic!("{name}/{}: half load must be plannable", spec.name));
        assert!(
            plan.k >= load.ceil() as usize,
            "{name}: plan must carry the load"
        );
        assert!(
            bound.is_finite() && bound >= 0.0,
            "{name}: certificate must be finite, got {bound}"
        );
    }
}

#[test]
fn the_testbed_file_is_exactly_the_emitting_preset() {
    let path = scenarios_dir().join("testbed_rack20.json");
    let loaded = Scenario::load(&path).expect("stock testbed file parses");
    let emitted = presets::testbed_rack20(0);
    assert_eq!(
        loaded, emitted,
        "scenarios/testbed_rack20.json drifted from the preset"
    );
    assert_eq!(loaded.content_hash(), emitted.content_hash());
}

#[test]
fn the_two_zone_file_is_exactly_the_emitting_preset() {
    let path = scenarios_dir().join("two_zone_hetero.json");
    let loaded = Scenario::load(&path).expect("stock two-zone file parses");
    let emitted = presets::two_zone_hetero(0);
    assert_eq!(
        loaded, emitted,
        "scenarios/two_zone_hetero.json drifted from the preset"
    );
    assert_eq!(loaded.content_hash(), emitted.content_hash());
}

#[test]
fn the_fleet_files_are_exactly_the_emitting_presets() {
    for n in [10_000usize, 100_000] {
        let file = format!("fleet_{}.json", presets::fleet_tag(n));
        let path = scenarios_dir().join(&file);
        let loaded = Scenario::load(&path)
            .unwrap_or_else(|e| panic!("stock fleet file {file} rejected: {e}"));
        let emitted = presets::large_fleet(24, n, 0);
        assert_eq!(loaded, emitted, "scenarios/{file} drifted from the preset");
        assert_eq!(loaded.content_hash(), emitted.content_hash());
        assert_eq!(loaded.total_machines(), n);
        loaded.validate().unwrap_or_else(|e| panic!("{file}: {e}"));
    }
}
