//! Tier-1 coverage of the online model-health watchdog through the
//! runtime: the stock 20-machine preset must read drift-free, and an
//! injected model bias must trip the EWMA detector.
//!
//! Every noise source in the plant is seeded (the testbed forwards its
//! seed to the per-server sensor and process noise), so these verdicts
//! are deterministic — the assertions pin them rather than sampling a
//! flaky distribution.

use coolopt::experiments::harness::scenario_planner;
use coolopt::experiments::runtime::{run_load_trace_with, sinusoidal_trace, RuntimeOptions};
use coolopt::experiments::{SweepOptions, Testbed};
use coolopt::sim::HealthConfig;
use coolopt::units::Seconds;

const SEED: u64 = 42;

#[test]
fn stock_preset_is_drift_free_and_injected_bias_trips() {
    let mut testbed =
        Testbed::build_sized(20, SEED).expect("profiling the 20-machine preset succeeds");
    let options = SweepOptions::default();
    let planner = scenario_planner(&testbed, &options);

    // Three 900 s plateaus: long enough past the 300 s settle window for
    // every machine to contribute settled residual samples.
    let duration = Seconds::new(2_700.0);
    let trace = sinusoidal_trace(20, 0.2, 0.8, duration, 3);
    let method = coolopt::alloc::Method::numbered(8);

    let stock = run_load_trace_with(
        &planner,
        &mut testbed,
        method,
        &trace,
        duration,
        &RuntimeOptions::default(),
    )
    .expect("stock trace runs");
    let report = stock.health.expect("the runtime carries a health report");
    assert!(report.samples > 0, "settled residual samples were taken");
    assert!(
        !report.drifted,
        "the stock preset must read drift-free; peaks: {:?}",
        report
            .machines
            .iter()
            .map(|m| (m.machine, m.peak_abs_ewma_kelvin))
            .collect::<Vec<_>>()
    );
    assert!(report.healthy());
    assert!(report.recommended_guard_kelvin.is_finite());
    assert!(report.closest_margin_kelvin.is_finite());

    // Same plant, same trace, same seeds — but the fitted model is now
    // artificially 8 K stale. The drift detector must notice.
    let drifted_options = RuntimeOptions {
        health: HealthConfig {
            inject_bias_kelvin: 8.0,
        },
        ..RuntimeOptions::default()
    };
    let drifted = run_load_trace_with(
        &planner,
        &mut testbed,
        method,
        &trace,
        duration,
        &drifted_options,
    )
    .expect("drifted trace runs");
    let report = drifted.health.expect("the runtime carries a health report");
    assert!(
        report.drifted,
        "an 8 K injected bias must trip the detector"
    );
    assert!(!report.healthy());
    assert!(report.machines.iter().any(|m| m.drifted));
}

#[test]
fn watchdog_verdicts_are_reproducible_across_runs() {
    // Two identical builds + runs must produce byte-identical residual
    // statistics — the deflake guarantee the fixed seeds buy us.
    let run = || {
        let mut testbed = Testbed::build_sized(8, SEED).expect("profiling succeeds");
        let options = SweepOptions::default();
        let planner = scenario_planner(&testbed, &options);
        let duration = Seconds::new(1_800.0);
        let trace = sinusoidal_trace(8, 0.3, 0.7, duration, 2);
        run_load_trace_with(
            &planner,
            &mut testbed,
            coolopt::alloc::Method::numbered(8),
            &trace,
            duration,
            &RuntimeOptions::default(),
        )
        .expect("trace runs")
        .health
        .expect("the runtime carries a health report")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
}
