//! Runs the ablation studies (beyond the paper's own evaluation):
//!
//! 1. separate vs holistic optimization,
//! 2. the planner's guard band (safety ↔ energy),
//! 3. recirculation strength (model-mismatch robustness),
//! 4. seed sensitivity of the headline savings,
//! 5. the response-time cost of consolidation,
//! 6. dynamic load with online replanning.
//!
//! ```text
//! cargo run --release -p coolopt-experiments --bin ablation -- \
//!     [seed] [--scenario FILE] [--results DIR] [--json] [--quiet]
//! ```
//!
//! `--scenario FILE` swaps the built-in 12-machine preset for a
//! **single-zone** scenario document; the studies then run against the
//! materialized room (multi-zone documents belong to
//! `reproduce --scenario`).
//!
//! Progress goes to stderr as structured events (`--json` renders them as
//! JSON lines, `--quiet` keeps only warnings); study tables go to stdout
//! except under `--json`, where stdout carries exactly one JSON document:
//! the telemetry run report (always also written under `--results`,
//! default `results/`).

use coolopt_alloc::Method;
use coolopt_experiments::ablations::{
    guard_band_study, recirculation_study, seed_study, separate_vs_holistic,
};
use coolopt_experiments::harness::scenario_planner;
use coolopt_experiments::runtime::{run_load_trace_with, sinusoidal_trace, RuntimeOptions};
use coolopt_experiments::{
    emit_dashboard, emit_report, render_figure, HealthSection, RunReport, ScenarioSection,
    SweepOptions, Testbed, TraceSection,
};
use coolopt_scenario::Scenario;
use coolopt_telemetry::{self as telemetry, SinkMode};
use coolopt_units::Seconds;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let json = flag("--json");
    if flag("--quiet") {
        telemetry::init_events(SinkMode::Quiet);
    } else if json {
        telemetry::init_events(SinkMode::Json);
    }
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
    };
    let results_dir = value_of("--results").unwrap_or_else(|| PathBuf::from("results"));
    let scenario_path = value_of("--scenario");
    let seed: u64 = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            let prev = i.checked_sub(1).and_then(|p| args.get(p));
            !a.starts_with("--")
                && !matches!(
                    prev.map(String::as_str),
                    Some("--results") | Some("--scenario")
                )
        })
        .find_map(|(_, a)| a.parse().ok())
        .unwrap_or(42);
    let show = !json;

    let loaded: Option<Scenario> = scenario_path.as_ref().map(|path| {
        Scenario::load(path).unwrap_or_else(|e| panic!("scenario {} rejected: {e}", path.display()))
    });
    let machines = loaded.as_ref().map(Scenario::total_machines).unwrap_or(12); // enough spatial diversity, ~4× faster than 20

    telemetry::info!(
        "ablation",
        "building and profiling the testbed",
        machines = machines,
        seed = seed
    );
    let mut testbed = match &loaded {
        Some(scenario) => Testbed::from_scenario(scenario)
            .expect("single-zone scenario testbed builds (multi-zone belongs to reproduce)"),
        None => Testbed::build_sized(machines, seed).expect("testbed builds"),
    };
    let seed = testbed.scenario.seed;
    let options = SweepOptions {
        load_percents: vec![20.0, 40.0, 60.0, 80.0],
        ..SweepOptions::default()
    };
    // One planner (one consolidation-index build) serves every study that
    // keeps the default guard; its engine is memoized across all queries.
    let planner = scenario_planner(&testbed, &options);

    // --- 1: separate vs holistic -------------------------------------------
    telemetry::info!("ablation", "study 1: separate vs holistic optimization");
    let fig = separate_vs_holistic(&mut testbed, &options);
    if show {
        println!("{}", render_figure(&fig));
    }

    // --- 2: guard band -------------------------------------------------------
    telemetry::info!("ablation", "study 2: guard band sweep");
    if show {
        println!("== Guard band vs safety and energy (method #8, 60 % load) ==");
        println!(
            "{:>8} {:>12} {:>12} {:>6}",
            "guard K", "power W", "max CPU °C", "safe"
        );
    }
    for o in guard_band_study(
        &mut testbed,
        Method::numbered(8),
        60.0,
        &[0.0, 1.0, 2.0, 3.0, 4.0],
        &options,
    ) {
        if show {
            println!(
                "{:>8.1} {:>12.1} {:>12.2} {:>6}",
                o.guard_kelvin, o.total_power, o.max_cpu_celsius, o.safe
            );
        }
    }
    if show {
        println!();
    }

    // --- 3: recirculation strength ------------------------------------------
    telemetry::info!(
        "ablation",
        "study 3: recirculation sweep (re-profiles per scale; slow)"
    );
    if show {
        println!("== Recirculation strength vs #8-over-#7 savings ==");
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            "scale", "mean savings", "min savings", "thermal r²"
        );
    }
    let quick = SweepOptions {
        load_percents: vec![30.0, 60.0, 90.0],
        ..SweepOptions::default()
    };
    for o in recirculation_study(8, seed, &[0.0, 1.0, 2.0], &quick) {
        if show {
            println!(
                "{:>6.1} {:>13.1} % {:>13.1} % {:>14.4}",
                o.scale,
                o.mean_savings * 100.0,
                o.min_savings * 100.0,
                o.mean_thermal_r2
            );
        }
    }
    if show {
        println!();
    }

    // --- 4: seed sensitivity ---------------------------------------------------
    telemetry::info!(
        "ablation",
        "study 4: seed sensitivity (re-profiles per seed; slow)"
    );
    if show {
        println!("== Testbed-instance sensitivity of #8-over-#7 savings ==");
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            "seed", "mean savings", "max", "min"
        );
    }
    for o in seed_study(8, &[seed, seed + 1, seed + 2], &quick) {
        if show {
            println!(
                "{:>6} {:>13.1} % {:>13.1} % {:>13.1} %",
                o.seed,
                o.mean_savings * 100.0,
                o.max_savings * 100.0,
                o.min_savings * 100.0
            );
        }
    }
    if show {
        println!();
    }

    // --- 5: latency cost of consolidation --------------------------------------
    telemetry::info!("ablation", "study 5: response-time cost of consolidation");
    if show {
        println!("== Response time under each method's allocation (30 % load) ==");
        println!(
            "{:>22} {:>8} {:>12} {:>12} {:>10}",
            "method", "peak rho", "mean resp", "p95 resp", "vs spread"
        );
    }
    {
        use coolopt_workload::{simulate_queueing, Capacity, LoadVector};
        let total_load = 0.3 * machines as f64;
        let capacity = 100.0; // docs/s per machine
        let arrival = total_load * capacity; // the offered stream
        let capacities = vec![Capacity::new(capacity); machines];
        let mut spread_p95 = None;
        for (label, method) in [
            ("even spread (#4)", Method::numbered(4)),
            ("bottom-up cons. (#7)", Method::numbered(7)),
            ("holistic cons. (#8)", Method::numbered(8)),
        ] {
            let plan = planner.plan(method, total_load).expect("plannable");
            let loads = LoadVector::new(plan.loads.clone()).expect("valid loads");
            let stats = simulate_queueing(&loads, &capacities, arrival, 50_000, seed)
                .expect("queue sim runs");
            let rel = spread_p95
                .map(|base: f64| format!("{:>9.1}x", stats.p95_response / base))
                .unwrap_or_else(|| "  baseline".to_string());
            spread_p95.get_or_insert(stats.p95_response);
            if show {
                println!(
                    "{label:>22} {:>8.2} {:>9.1} ms {:>9.1} ms {rel}",
                    stats.peak_utilization,
                    stats.mean_response * 1000.0,
                    stats.p95_response * 1000.0,
                );
            }
        }
    }
    if show {
        println!();
    }

    // --- 6: dynamic load ------------------------------------------------------
    telemetry::info!("ablation", "study 6: dynamic load with online replanning");
    if show {
        println!("== Online replanning over a diurnal trace (4 h simulated) ==");
    }
    let trace = sinusoidal_trace(machines, 0.15, 0.85, Seconds::new(14_400.0), 24);
    let mut report_trace: Option<TraceSection> = None;
    let mut report_health: Option<HealthSection> = None;
    let mut dashboard_segments = Vec::new();
    for (label, method) in [
        ("holistic #8 (replanned)", Method::numbered(8)),
        ("even #4 (replanned)", Method::numbered(4)),
        ("static even #1", Method::numbered(1)),
    ] {
        let outcome = run_load_trace_with(
            &planner,
            &mut testbed,
            method,
            &trace,
            Seconds::new(14_400.0),
            &RuntimeOptions {
                // Only the run of record streams into the time-series
                // store, so the dashboard shows one method, not three
                // interleaved.
                tsdb_prefix: report_trace.is_none().then(|| "trace".to_string()),
                ..RuntimeOptions::default()
            },
        )
        .expect("trace run succeeds");
        // The report carries the holistic run (the paper's method of record).
        if report_trace.is_none() {
            report_trace = Some(TraceSection::from_outcome(method.to_string(), &outcome));
            report_health = outcome.health.clone().map(|report| HealthSection {
                report,
                drift_demo: None,
            });
            dashboard_segments = outcome.segments.clone();
        }
        if show {
            println!(
                "{label:<26} energy {:>8.2} kWh | mean {:>8} | served {:>6.2} % | \
                 T_max violations {:>5.0} s | replans {}",
                outcome.energy.as_kwh(),
                outcome.mean_power,
                outcome.served_fraction * 100.0,
                outcome.violation_seconds,
                outcome.replans,
            );
        }
    }

    let report = RunReport {
        name: "ablation".to_string(),
        seed,
        scenario: Some(ScenarioSection::from_scenario(&testbed.scenario)),
        metrics_enabled: telemetry::metrics_enabled(),
        flight_dropped: coolopt_experiments::export_flight_dropped(),
        metrics: telemetry::snapshot(),
        trace: report_trace,
        replay: None,
        health: report_health,
        multizone: None,
    };
    let mut charts = vec![coolopt_experiments::energy_chart(&dashboard_segments)];
    charts.extend(coolopt_experiments::plant_charts("trace"));
    let subtitle =
        format!("{machines} machines, seed {seed} — holistic #8 over a 4 h diurnal trace");
    emit_dashboard(&report.name, &results_dir, &subtitle, charts, "ablation");
    emit_report(&report, &results_dir, json, "ablation");
}
