//! Regenerates every table and figure of the paper on the simulated
//! 20-machine testbed and prints them (ASCII + savings summary), then runs
//! a short online-replanning trace plus its analytic replay and emits the
//! schema-stable telemetry run report.
//!
//! ```text
//! cargo run --release -p coolopt-experiments --bin reproduce -- \
//!     [seed] [--scenario FILE] [--csv DIR] [--results DIR] [--smoke] \
//!     [--json] [--quiet]
//! ```
//!
//! * `--scenario FILE` — drive a scenario document instead of the built-in
//!   preset. Single-zone documents run the full pipeline on the
//!   materialized room (bit-identical to the preset path for the shipped
//!   `scenarios/testbed_rack20.json`); multi-zone documents run the
//!   per-zone-vs-uniform set-point experiment instead;
//! * `--csv DIR` — additionally write every figure's data as
//!   `DIR/<figure-id>.csv`;
//! * `--results DIR` — where the run report lands (default `results/`);
//! * `--smoke` — CI-sized run: an 8-machine testbed, a reduced
//!   method × load grid, no profiling staircases, a 1 h trace;
//! * `--json` — machine-readable mode: progress events become JSON lines
//!   on stderr and stdout carries exactly one JSON document, the run
//!   report (also written under `--results`);
//! * `--quiet` — only warnings and errors on stderr.

use coolopt_alloc::{Method, Strategy};
use coolopt_experiments::harness::scenario_planner;
use coolopt_experiments::runtime::{run_load_trace_with, sinusoidal_trace, RuntimeOptions};
use coolopt_experiments::{
    emit_dashboard, emit_report, figures, plant_charts, render_figure, render_multizone,
    replay_trace_with, run_multizone, run_sweep, savings_summary, to_csv, FigureData,
    HealthSection, MultiZoneOptions, MultiZoneSection, ReplayOptions, ReplaySection, RunReport,
    ScenarioSection, SweepOptions, Testbed, TraceSection,
};
use coolopt_scenario::Scenario;
use coolopt_sim::HealthConfig;
use coolopt_telemetry::{self as telemetry, SinkMode};
use coolopt_units::Seconds;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
    };
    let smoke = flag("--smoke");
    let json = flag("--json");
    if flag("--quiet") {
        telemetry::init_events(SinkMode::Quiet);
    } else if json {
        telemetry::init_events(SinkMode::Json);
    }
    let csv_dir = value_of("--csv");
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
                    Some("--csv") | Some("--results") | Some("--scenario")
                )
        })
        .find_map(|(_, a)| a.parse().ok())
        .unwrap_or(42);
    // In --json mode stdout carries exactly one document: the run report.
    let show = !json;

    let loaded: Option<Scenario> = scenario_path.as_ref().map(|path| {
        let scenario = Scenario::load(path)
            .unwrap_or_else(|e| panic!("scenario {} rejected: {e}", path.display()));
        telemetry::info!(
            "reproduce",
            "loaded scenario document",
            path = path.display().to_string(),
            name = scenario.name.clone(),
            sha256 = scenario.content_hash(),
            zones = scenario.zone_count(),
        );
        scenario
    });

    // Multi-zone documents run the per-zone-vs-uniform set-point experiment
    // instead of the (single-room) paper pipeline.
    if let Some(scenario) = loaded.as_ref().filter(|s| !s.is_single_zone()) {
        let mz_options = MultiZoneOptions {
            window: Seconds::new(if smoke { 120.0 } else { 300.0 }),
            tsdb_prefix: Some("multizone"),
        };
        let outcome = run_multizone(scenario, &mz_options).expect("multi-zone experiment runs");
        if show {
            println!("{}", render_multizone(scenario, &outcome));
        }
        let report = RunReport {
            name: if smoke {
                "reproduce_smoke"
            } else {
                "reproduce"
            }
            .to_string(),
            seed: scenario.seed,
            scenario: Some(ScenarioSection::from_scenario(scenario)),
            metrics_enabled: telemetry::metrics_enabled(),
            flight_dropped: coolopt_experiments::export_flight_dropped(),
            metrics: telemetry::snapshot(),
            trace: None,
            replay: None,
            health: outcome.per_zone.health.clone().map(|report| HealthSection {
                report,
                drift_demo: None,
            }),
            multizone: Some(MultiZoneSection::from_outcome(&outcome)),
        };
        let subtitle = format!(
            "{} zones, {} machines, load {:.1} — per-zone vs uniform set points",
            outcome.zones, outcome.machines, outcome.total_load
        );
        emit_dashboard(
            &report.name,
            &results_dir,
            &subtitle,
            plant_charts("multizone"),
            "reproduce",
        );
        emit_report(&report, &results_dir, json, "reproduce");
        return;
    }

    let emit = |fig: &FigureData| {
        if show {
            println!("{}", render_figure(fig));
        }
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("csv directory is creatable");
            let path = dir.join(format!("{}.csv", fig.id));
            std::fs::write(&path, to_csv(fig)).expect("csv file is writable");
            telemetry::info!(
                "reproduce",
                "wrote figure csv",
                path = path.display().to_string()
            );
        }
    };

    let machines = loaded
        .as_ref()
        .map(Scenario::total_machines)
        .unwrap_or(if smoke { 8 } else { 20 });
    telemetry::info!(
        "reproduce",
        "building and profiling the testbed",
        machines = machines,
        seed = seed,
        smoke = smoke,
    );
    let mut testbed = match &loaded {
        Some(scenario) => {
            Testbed::from_scenario(scenario).expect("profiling the scenario testbed succeeds")
        }
        None => {
            Testbed::build_sized(machines, seed).expect("profiling the preset testbed succeeds")
        }
    };
    // The document's own seed governs a loaded scenario's streams; the run
    // report records the seed that actually drove the room.
    let seed = testbed.scenario.seed;
    let model = &testbed.profile.model;
    telemetry::info!(
        "reproduce",
        "fitted power model",
        model = model.power().to_string(),
        r2 = testbed.profile.power.r2,
    );
    telemetry::info!(
        "reproduce",
        "fitted cooling model",
        slope_w_per_k = model.cooling().cf(),
        supply_ceiling_celsius = testbed.profile.cooling.t_ac_max.as_celsius(),
    );

    emit(&figures::table1());
    emit(&figures::fig4());

    if !smoke {
        telemetry::info!("reproduce", "running the Fig. 2/3 profiling staircases");
        let f2 = figures::fig2(&mut testbed, Seconds::new(600.0));
        let f3 = figures::fig3(&mut testbed, Seconds::new(600.0));
        emit(&f2);
        emit(&f3);
    }

    let (methods, options) = if smoke {
        let methods: Vec<Method> = [1, 4, 7, 8].map(Method::numbered).to_vec();
        let options = SweepOptions {
            load_percents: vec![30.0, 60.0, 90.0],
            ..SweepOptions::default()
        };
        (methods, options)
    } else {
        let mut methods = Method::all();
        methods.push(Method::new(Strategy::Even, true, true));
        (methods, SweepOptions::default())
    };
    telemetry::info!(
        "reproduce",
        "sweeping methods x loads (the long part)",
        methods = methods.len(),
        loads = options.load_percents.len(),
    );
    let sweep = run_sweep(&mut testbed, &methods, &options);

    for fig in [
        figures::fig5(&sweep),
        figures::fig6(&sweep),
        figures::fig7(&sweep),
        figures::fig8(&sweep),
        figures::fig9(&sweep),
        figures::fig10(&sweep),
    ] {
        emit(&fig);
    }

    if show {
        if let Some(s) = savings_summary(&sweep, Method::numbered(8), Method::numbered(7)) {
            println!("Optimal (#8) vs best baseline (#7): {s}");
        }
        if let Some(s) = savings_summary(&sweep, Method::numbered(6), Method::numbered(4)) {
            println!("Optimal (#6) vs Even (#4), no consolidation: {s}");
        }
        if let Some(s) = savings_summary(&sweep, Method::numbered(8), Method::numbered(1)) {
            println!("Optimal (#8) vs naive Even (#1): {s}");
        }
    }

    let violations: Vec<String> = sweep
        .iter()
        .filter(|r| !r.temps_ok || !r.throughput_ok || !r.measurement.settled)
        .map(|r| {
            format!(
                "{} at {:.0} % (temps_ok={}, throughput_ok={}, settled={})",
                r.plan.method, r.load_percent, r.temps_ok, r.throughput_ok, r.measurement.settled
            )
        })
        .collect();
    if violations.is_empty() {
        telemetry::info!(
            "reproduce",
            "constraints satisfied in every run",
            runs = sweep.len()
        );
        if show {
            println!("constraints: every run satisfied T_max and throughput.");
        }
    } else {
        if show {
            println!("constraint violations:");
        }
        for v in &violations {
            telemetry::warn!("reproduce", "constraint violation", run = v.clone());
            if show {
                println!("  {v}");
            }
        }
    }

    // --- online replanning trace + analytic replay --------------------------
    // Drives the holistic method over a diurnal trace on the numeric
    // substrate, then replays the same controller on the analytic linear-RC
    // model, so the run report carries replan counts, the per-plateau
    // computing/cooling energy split, the guard margin, and the propagator
    // cache hit rate.
    let trace_method = Method::numbered(8);
    let (duration, steps) = if smoke {
        (Seconds::new(3_600.0), 8)
    } else {
        (Seconds::new(14_400.0), 24)
    };
    telemetry::info!(
        "reproduce",
        "running the online-replanning trace and its analytic replay",
        plateaus = steps,
        duration_seconds = duration.as_secs_f64(),
    );
    let trace = sinusoidal_trace(machines, 0.2, 0.8, duration, steps);
    let planner = scenario_planner(&testbed, &options);
    let trace_outcome = run_load_trace_with(
        &planner,
        &mut testbed,
        trace_method,
        &trace,
        duration,
        &RuntimeOptions {
            // Streams computing/cooling power and the T_max margin into
            // the time-series store, feeding the HTML dashboard below.
            tsdb_prefix: Some("trace".to_string()),
            ..RuntimeOptions::default()
        },
    )
    .expect("trace run succeeds");
    let replay_outcome = replay_trace_with(
        &planner,
        &testbed.profile.model,
        trace_method,
        &trace,
        duration,
        &ReplayOptions::default(),
    )
    .expect("analytic replay succeeds");

    // --- model-health watchdog: stock verdict + drifted demo ----------------
    // The stock trace above should report healthy residuals; a second, short
    // trace with an injected 8 K model bias demonstrates that the drift
    // detector actually trips when the fitted model goes stale.
    let health = trace_outcome.health.clone().map(|report| {
        let bias_kelvin = 8.0;
        telemetry::info!(
            "reproduce",
            "running the drifted-model health demo",
            bias_kelvin = bias_kelvin,
        );
        let demo_duration = Seconds::new(1_800.0);
        let demo_trace = sinusoidal_trace(machines, 0.4, 0.6, demo_duration, 2);
        let drift_options = RuntimeOptions {
            health: HealthConfig {
                inject_bias_kelvin: bias_kelvin,
            },
            ..RuntimeOptions::default()
        };
        let drift_demo = run_load_trace_with(
            &planner,
            &mut testbed,
            trace_method,
            &demo_trace,
            demo_duration,
            &drift_options,
        )
        .ok()
        .and_then(|outcome| outcome.health);
        HealthSection { report, drift_demo }
    });

    let report = RunReport {
        name: if smoke {
            "reproduce_smoke"
        } else {
            "reproduce"
        }
        .to_string(),
        seed,
        scenario: Some(ScenarioSection::from_scenario(&testbed.scenario)),
        metrics_enabled: telemetry::metrics_enabled(),
        flight_dropped: coolopt_experiments::export_flight_dropped(),
        metrics: telemetry::snapshot(),
        trace: Some(TraceSection::from_outcome(
            trace_method.to_string(),
            &trace_outcome,
        )),
        replay: Some(ReplaySection::from_outcome(
            trace_method.to_string(),
            &replay_outcome,
        )),
        health,
        multizone: None,
    };
    let mut charts = vec![coolopt_experiments::energy_chart(&trace_outcome.segments)];
    charts.extend(plant_charts("trace"));
    let subtitle = format!(
        "{machines} machines, seed {seed} — online replanning over a {:.1} h diurnal trace",
        duration.as_secs_f64() / 3600.0
    );
    emit_dashboard(&report.name, &results_dir, &subtitle, charts, "reproduce");
    emit_report(&report, &results_dir, json, "reproduce");
}
