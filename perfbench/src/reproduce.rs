//! The `reproduce` workload: the full 20-machine reproduction, driven in
//! process through the same public calls and arguments as the
//! `reproduce` binary (no `--smoke`, no `--scenario`).

use crate::speed::Normaliser;
use crate::trace::{median, quantile, Recorder};
use crate::{vm_hwm_mb, Args, Outcome};
use coolopt_alloc::{Method, Strategy};
use coolopt_experiments::runtime::{run_load_trace_with, sinusoidal_trace, RuntimeOptions};
use coolopt_experiments::{
    figures, render_figure, replay_trace_with, run_sweep, savings_summary, scenario_planner,
    HealthSection, ReplayOptions, ReplaySection, RunReport, ScenarioSection, SweepOptions, Testbed,
    TraceSection,
};
use coolopt_sim::HealthConfig;
use coolopt_telemetry as telemetry;
use coolopt_units::Seconds;
use std::path::Path;
use std::time::Instant;

/// The pipeline stages timed in the traced run, in pipeline order. Their
/// sum accounts for one reproduction's wall time.
pub const STAGES: [&str; 6] = [
    "experiments.testbed_s",
    "experiments.staircase_s",
    "experiments.sweep_s",
    "experiments.trace_s",
    "experiments.replay_s",
    "experiments.report_s",
];

const MACHINES: usize = 20;
/// Testbeds per run: iteration `i` profiles testbed seed
/// `TESTBEDS * seed + i % TESTBEDS` (`i / 2` in the traced run, so each
/// traced reproduction pairs with an untraced one of the same testbed),
/// and one run's medians span several rooms instead of one room's quirks.
const TESTBEDS: u64 = 16;
/// Where run reports, dashboards and Chrome traces land.
const OUT_DIR: &str = "perfbench/out/reproduce";

/// What one full reproduction produced.
struct Reproduction {
    /// Every figure table and savings line, as the binary prints them.
    text: String,
    /// Bytes of everything written: figure text, run report, dashboard,
    /// Chrome trace.
    out_bytes: u64,
    plans: u64,
    sweep_runs: usize,
    /// Constraint violations in the sweep.
    violations: Vec<String>,
    /// Mean saving of #8 over #7, in percent.
    saving_8_over_7: Option<f64>,
    /// Per-method-run durations (µs), from the flight recorder.
    method_run_us: Vec<f64>,
    /// The sweep's own duration (s), from the flight recorder.
    sweep_s: f64,
}

/// Times `f` as stage `name` when a recorder is present.
fn stage<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(rec) => rec.time(name, id, None, f),
        None => f(),
    }
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One full reproduction at `seed`, as `reproduce [seed]` runs it.
fn reproduce_once(
    seed: u64,
    id: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<Reproduction, String> {
    telemetry::reset_flight_recorder();
    let plans_before = counter("coolopt_plans_total");
    let out_dir = Path::new(OUT_DIR);

    let mut testbed = stage(&mut rec, "experiments.testbed_s", id, || {
        Testbed::build_sized(MACHINES, seed)
    })
    .map_err(|e| format!("profiling the testbed: {e}"))?;
    let (f2, f3) = stage(&mut rec, "experiments.staircase_s", id, || {
        (
            figures::fig2(&mut testbed, Seconds::new(600.0)),
            figures::fig3(&mut testbed, Seconds::new(600.0)),
        )
    });
    let mut methods = Method::all();
    methods.push(Method::new(Strategy::Even, true, true));
    let options = SweepOptions::default();
    let sweep = stage(&mut rec, "experiments.sweep_s", id, || {
        run_sweep(&mut testbed, &methods, &options)
    });

    let trace_method = Method::numbered(8);
    let duration = Seconds::new(14_400.0);
    let trace = sinusoidal_trace(MACHINES, 0.2, 0.8, duration, 24);
    let (planner, trace_outcome) = stage(&mut rec, "experiments.trace_s", id, || {
        let planner = scenario_planner(&testbed, &options);
        let outcome = run_load_trace_with(
            &planner,
            &mut testbed,
            trace_method,
            &trace,
            duration,
            &RuntimeOptions {
                tsdb_prefix: Some("trace".to_string()),
                ..RuntimeOptions::default()
            },
        );
        (planner, outcome)
    });
    let trace_outcome = trace_outcome.map_err(|e| format!("trace run: {e}"))?;
    let replay_outcome = stage(&mut rec, "experiments.replay_s", id, || {
        replay_trace_with(
            &planner,
            &testbed.profile.model,
            trace_method,
            &trace,
            duration,
            &ReplayOptions::default(),
        )
    })
    .map_err(|e| format!("analytic replay: {e}"))?;
    let health = stage(&mut rec, "experiments.trace_s", id, || {
        trace_outcome.health.clone().map(|report| {
            let demo_duration = Seconds::new(1_800.0);
            let demo_trace = sinusoidal_trace(MACHINES, 0.4, 0.6, demo_duration, 2);
            let drift_options = RuntimeOptions {
                health: HealthConfig {
                    inject_bias_kelvin: 8.0,
                    ..HealthConfig::default()
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
        })
    });

    let report_stage = |rec: &mut Option<&mut Recorder>| {
        stage(
            rec,
            "experiments.report_s",
            id,
            || -> Result<(String, u64), String> {
                let mut text = String::new();
                for fig in [figures::table1(), figures::fig4(), f2, f3]
                    .into_iter()
                    .chain([
                        figures::fig5(&sweep),
                        figures::fig6(&sweep),
                        figures::fig7(&sweep),
                        figures::fig8(&sweep),
                        figures::fig9(&sweep),
                        figures::fig10(&sweep),
                    ])
                {
                    text.push_str(&render_figure(&fig));
                    text.push('\n');
                }
                for (a, b, label) in [
                    (8, 7, "Optimal (#8) vs best baseline (#7)"),
                    (6, 4, "Optimal (#6) vs Even (#4), no consolidation"),
                    (8, 1, "Optimal (#8) vs naive Even (#1)"),
                ] {
                    if let Some(s) =
                        savings_summary(&sweep, Method::numbered(a), Method::numbered(b))
                    {
                        text.push_str(&format!("{label}: {s}\n"));
                    }
                }
                let report = RunReport {
                    name: "reproduce".to_string(),
                    seed: testbed.scenario.seed,
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
                    health: health.clone(),
                    multizone: None,
                };
                let mut charts = vec![coolopt_experiments::energy_chart(&trace_outcome.segments)];
                charts.extend(coolopt_experiments::plant_charts("trace"));
                let subtitle = format!(
                    "{MACHINES} machines, seed {} — online replanning over a {:.1} h diurnal trace",
                    testbed.scenario.seed,
                    duration.as_secs_f64() / 3600.0
                );
                let io = |e: std::io::Error| format!("writing under {OUT_DIR}: {e}");
                let dashboard = coolopt_experiments::write_dashboard(
                    out_dir,
                    &report.name,
                    "coolopt reproduce",
                    &subtitle,
                    &charts,
                )
                .map_err(io)?;
                let report_path = report.write_to(out_dir).map_err(io)?;
                let trace_path = out_dir.join("trace_reproduce.json");
                std::fs::write(&trace_path, telemetry::flight_snapshot().to_chrome_json())
                    .map_err(io)?;
                let bytes = text.len() as u64
                    + file_len(&dashboard)
                    + file_len(&report_path)
                    + file_len(&trace_path);
                Ok((text, bytes))
            },
        )
    };
    let (text, out_bytes) = report_stage(&mut rec)?;

    let violations = sweep
        .iter()
        .filter(|r| !r.temps_ok || !r.throughput_ok || !r.measurement.settled)
        .map(|r| format!("{} at {:.0} %", r.plan.method, r.load_percent))
        .collect();
    let flight = telemetry::flight_snapshot();
    let method_run_us = flight
        .records
        .iter()
        .filter(|r| r.name == "method_run")
        .map(|r| r.duration_ns() as f64 / 1e3)
        .collect();
    let sweep_s = flight
        .records
        .iter()
        .filter(|r| r.name == "sweep")
        .map(|r| r.duration_ns() as f64 / 1e9)
        .sum();
    Ok(Reproduction {
        text,
        out_bytes,
        plans: counter("coolopt_plans_total") - plans_before,
        sweep_runs: sweep.len(),
        violations,
        saving_8_over_7: savings_summary(&sweep, Method::numbered(8), Method::numbered(7))
            .map(|s| s.mean),
        method_run_us,
        sweep_s,
    })
}

/// Checks one reproduction against its testbed's first output.
fn check(out: &mut Outcome, reference: &str, r: &Reproduction, i: usize) -> bool {
    let before = out.errors.len();
    out.check(r.text == reference, || {
        format!("reproduction {i} printed different figures or savings than its testbed's first")
    });
    out.check(r.violations.is_empty(), || {
        format!(
            "reproduction {i}: constraint violations: {}",
            r.violations.join(", ")
        )
    });
    out.check(r.saving_8_over_7.is_some_and(|s| s > 0.0), || {
        format!(
            "reproduction {i}: optimal #8 does not beat bottom-up #7 on average ({:?} %)",
            r.saving_8_over_7
        )
    });
    out.errors.len() == before
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut out = Outcome::default();
    // Every reproduction is timed between calibrations and reported at
    // the reference host speed (see `speed`).
    let mut norm = Normaliser::new();

    let testbed_seed = |room: u64| args.seed.wrapping_mul(TESTBEDS).wrapping_add(room);
    // Set-up: one reproduction of every testbed. Each is the reference
    // every later reproduction of its testbed must match exactly.
    // `setup_s` is their median.
    let mut reference = Vec::new();
    let mut setups = Vec::new();
    for room in 0..TESTBEDS {
        let (r, _, setup) = norm.time(|| reproduce_once(testbed_seed(room), room, None));
        let r = r?;
        let ok = check(&mut out, &r.text, &r, room as usize);
        out.phase("reproduce", 1, u64::from(!ok));
        reference.push(r.text);
        setups.push(setup);
    }
    let room = |i: u64| if args.trace { i / 2 } else { i } % TESTBEDS;

    let measure = Instant::now();
    // `(reproduction, raw wall s, wall s at the reference speed)`.
    let mut runs: Vec<(Reproduction, f64, f64)> = Vec::new();
    let mut traced: Vec<(Reproduction, f64, f64)> = Vec::new();
    let mut rec = Recorder::with_capacity(1 << 12);
    let (hits_before, builds_before) = (
        counter("coolopt_propagator_cache_hits_total"),
        counter("coolopt_propagator_cache_builds_total"),
    );
    let mut id = TESTBEDS;
    while runs.len() < 3 || measure.elapsed().as_secs_f64() < args.seconds {
        // The traced run alternates untraced and traced reproductions,
        // so the difference between them is the tracing overhead.
        let spans = (args.trace && id % 2 == 1).then_some(&mut rec);
        let is_traced = spans.is_some();
        let (r, wall, normalised) = norm.time(|| reproduce_once(testbed_seed(room(id)), id, spans));
        let r = r?;
        let ok = check(&mut out, &reference[room(id) as usize], &r, id as usize);
        out.phase("reproduce", 1, u64::from(!ok));
        if is_traced {
            traced.push((r, wall, normalised));
        } else {
            runs.push((r, wall, normalised));
        }
        id += 1;
    }
    let walls: Vec<f64> = runs.iter().map(|(_, _, w)| *w).collect();
    let reproduce_s = median(&walls);
    let raw: Vec<f64> = runs.iter().map(|(_, w, _)| *w).collect();
    out.note(format!(
        "host speed: {:.2} times the reference host's calibration time; raw reproduce_s {:.4} s over {} reproductions",
        norm.slowdown(),
        median(&raw),
        runs.len()
    ));

    if args.trace {
        // Stage times are raw spans, so they are set against each traced
        // reproduction's own raw wall time.
        let mut stage_sum = vec![0.0; traced.len()];
        for name in STAGES {
            let per_iter: Vec<f64> = rec
                .per_request_us(name)
                .values()
                .map(|us| us / 1e6)
                .collect();
            for (sum, s) in stage_sum.iter_mut().zip(&per_iter) {
                *sum += s;
            }
            out.metric(name, median(&per_iter), "s");
        }
        let stage_frac: Vec<f64> = stage_sum
            .iter()
            .zip(&traced)
            .map(|(sum, (_, wall, _))| sum / wall)
            .collect();
        let hits = counter("coolopt_propagator_cache_hits_total") - hits_before;
        let builds = counter("coolopt_propagator_cache_builds_total") - builds_before;
        let traced_walls: Vec<f64> = traced.iter().map(|(_, _, w)| *w).collect();
        let traced_s = median(&traced_walls);
        out.metric(
            "experiments.sweep_runs",
            traced.first().map_or(0, |(r, _, _)| r.sweep_runs) as f64,
            "count",
        );
        out.metric("experiments.stage_sum_frac", median(&stage_frac), "ratio");
        out.metric(
            "sim.propagator_hit_frac",
            hits as f64 / (hits + builds).max(1) as f64,
            "ratio",
        );
        out.metric(
            "trace.overhead_frac",
            (traced_s - reproduce_s) / reproduce_s,
            "ratio",
        );
        crate::write_trace(&args.workload, &[&rec])?;
        return Ok(out);
    }

    // Per-reproduction quantities, each scaled to the reference speed by
    // its reproduction's calibration.
    let scale = |wall: f64, normalised: f64| normalised / wall;
    let method_runs: Vec<f64> = runs
        .iter()
        .flat_map(|(r, w, n)| r.method_run_us.iter().map(move |us| us * scale(*w, *n)))
        .collect();
    let sweep_rates: Vec<f64> = runs
        .iter()
        .map(|(r, w, n)| r.sweep_runs as f64 / (r.sweep_s * scale(*w, *n)))
        .collect();
    let plan_rates: Vec<f64> = runs.iter().map(|(r, _, n)| r.plans as f64 / n).collect();
    let bytes_per_plan: Vec<f64> = runs
        .iter()
        .map(|(r, _, _)| r.out_bytes as f64 / r.plans.max(1) as f64)
        .collect();
    out.metric("setup_s", median(&setups), "s");
    out.metric("plans_per_s", median(&plan_rates), "plans/s");
    out.metric("p50_us", quantile(&method_runs, 0.5), "us");
    out.metric("p99_us", quantile(&method_runs, 0.99), "us");
    out.note(format!(
        "p50_us/p99_us over {} method runs",
        method_runs.len()
    ));
    out.metric("max_rps", median(&sweep_rates), "req/s");
    out.metric(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric("reply_bytes_per_plan", median(&bytes_per_plan), "B");
    out.metric("rss_mb", vm_hwm_mb("self")?, "MB");
    out.metric("reproduce_s", reproduce_s, "s");
    Ok(out)
}
