//! Beyond the paper: what happens to the steady-state-optimal controller
//! when the load is *not* steady?
//!
//! The paper explicitly scopes itself to steady batch loads. This example
//! drives the simulated rack through a diurnal load swing with an online
//! replanning controller and compares the holistic optimum (#8, replanned)
//! against replanned Even (#4) and the fully static practice (#1),
//! accounting for boot-transient throughput loss and temperature
//! excursions along the way.
//!
//! ```text
//! cargo run --release --example dynamic_workload
//! ```

use coolopt::alloc::Method;
use coolopt::experiments::runtime::{run_load_trace_with, sinusoidal_trace, RuntimeOptions};
use coolopt::experiments::{scenario_planner, SweepOptions, Testbed};
use coolopt::units::Seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machines = 8;
    println!("building and profiling an {machines}-machine testbed…");
    let mut testbed = Testbed::build_sized(machines, 5)?;

    // Two simulated hours: load swings 15 % → 85 % → 15 % in 12 waves.
    let horizon = Seconds::new(7200.0);
    let trace = sinusoidal_trace(machines, 0.15, 0.85, horizon, 12);
    println!(
        "trace: {} plateaus over {}, load {:.1}–{:.1} machines",
        trace.len(),
        horizon,
        trace.iter().map(|p| p.load).fold(f64::INFINITY, f64::min),
        trace
            .iter()
            .map(|p| p.load)
            .fold(f64::NEG_INFINITY, f64::max),
    );

    // One planner (one solver engine) serves all three methods.
    let planner = scenario_planner(&testbed, &SweepOptions::default());
    let options = RuntimeOptions::default();
    let mut baseline_energy = None;
    for (label, method) in [
        ("static even (#1)", Method::numbered(1)),
        ("replanned even (#4)", Method::numbered(4)),
        ("replanned holistic (#8)", Method::numbered(8)),
    ] {
        let outcome =
            run_load_trace_with(&planner, &mut testbed, method, &trace, horizon, &options)?;
        let saving = baseline_energy
            .map(|base: f64| 100.0 * (base - outcome.energy.as_kwh()) / base)
            .map(|s| format!("{s:+.1} % vs static"))
            .unwrap_or_else(|| "baseline".to_string());
        baseline_energy.get_or_insert(outcome.energy.as_kwh());
        println!(
            "{label:<24} {:>7.2} kWh ({saving}) | served {:>6.2} % | \
             over-T_max {:>4.0} s | {} replans",
            outcome.energy.as_kwh(),
            outcome.served_fraction * 100.0,
            outcome.violation_seconds,
            outcome.replans,
        );
    }

    println!(
        "\nthe holistic controller keeps its savings under dynamic load, at the\n\
         price of boot-transient throughput dips — the regime the paper\n\
         deliberately left for future work."
    );
    Ok(())
}
