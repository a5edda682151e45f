//! The acceptance test of the build-once engine: replanning over a
//! ≥20-step load trace performs exactly **one** consolidation-index build.
//!
//! This is deliberately the only test in its binary: the build counter is
//! process-global, so a concurrently running test that builds an index
//! would make the delta assertion meaningless.

use coolopt::alloc::Method;
use coolopt::core::ConsolidationIndex;
use coolopt::experiments::harness::scenario_planner;
use coolopt::experiments::runtime::{run_load_trace_with, sinusoidal_trace, RuntimeOptions};
use coolopt::experiments::{SweepOptions, Testbed};
use coolopt::units::Seconds;

#[test]
fn replanning_a_20_step_trace_builds_the_index_exactly_once() {
    let machines = 4;
    let mut testbed = Testbed::build_sized(machines, 23).expect("testbed builds");
    let duration = Seconds::new(4800.0);
    let trace = sinusoidal_trace(machines, 0.2, 0.75, duration, 24);
    assert!(trace.len() >= 20, "acceptance demands a ≥20-step trace");

    // The counter is read before the planner exists: `scenario_planner`
    // warms the engine eagerly, so its build is part of the budget.
    let before = ConsolidationIndex::build_count();
    let planner = scenario_planner(&testbed, &SweepOptions::default());
    let outcome = run_load_trace_with(
        &planner,
        &mut testbed,
        Method::numbered(8),
        &trace,
        duration,
        &RuntimeOptions::default(),
    )
    .expect("trace run succeeds");
    let after = ConsolidationIndex::build_count();

    assert!(
        outcome.replans >= 20,
        "expected roughly a replan per plateau, got {}",
        outcome.replans
    );
    assert_eq!(outcome.plan_failures, 0);
    assert_eq!(
        after - before,
        1,
        "a replanning trace must reuse a single engine build"
    );
}
