//! The coolopt benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload rack_burst|fleet_replan|reproduce --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `rack_burst` and `fleet_replan` drive a
//! live `coolopt-serve --listen` over TCP (the binary is built from this
//! checkout on first use); `reproduce` drives the paper's reproduction
//! pipeline in process. With `--trace 0` the run reports the end-to-end
//! metrics, with `--trace 1` the per-layer ones (see `perfbench/README.md`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed correctness check exits non-zero.

mod inproc;
mod reproduce;
mod speed;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one run found: correctness, operation counts and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures (empty when every check passed).
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-phase `(phase, attempted, succeeded, failed)` counts.
    pub phases: Vec<(String, u64, u64, u64)>,
    /// Context printed with the metrics (sample counts and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Adds one phase's counts to the run totals.
    pub fn phase(&mut self, phase: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        match self.phases.iter_mut().find(|p| p.0 == phase) {
            Some(p) => {
                p.1 += attempted;
                p.2 += attempted - failed;
                p.3 += failed;
            }
            None => self
                .phases
                .push((phase.to_string(), attempted, attempted - failed, failed)),
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            // `{:?}` prints every digit f64 needs to round-trip. JSON has
            // no non-finite numbers; `main` has already failed such a run.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload rack_burst|fleet_replan|reproduce \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Progress events of the measured code would interleave with the
    // report; warnings and errors still reach stderr.
    coolopt_telemetry::init_events(coolopt_telemetry::SinkMode::Quiet);
    let result = match args.workload.as_str() {
        "rack_burst" => wire::run(&wire::RACK_BURST, &args),
        "fleet_replan" => wire::run(&wire::FLEET_REPLAN, &args),
        "reproduce" => reproduce::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (phase, attempted, succeeded, failed) in &outcome.phases {
        println!("phase {phase:<14} attempted {attempted:>8} succeeded {succeeded:>8} failed {failed:>6}");
    }
    if args.trace {
        // Every per-layer metric is reported on every workload; a layer
        // the workload never calls did no work and reads 0.
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.iter().any(|(n, _, _)| *n == name) {
                outcome.metric(name, 0.0, unit);
            }
        }
    }
    // A non-finite metric is a measurement that went wrong (an empty or
    // poisoned sample), never a value to compare.
    let bad: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|(_, value, _)| !value.is_finite())
        .map(|(name, _, _)| *name)
        .collect();
    if !bad.is_empty() {
        outcome
            .errors
            .push(format!("non-finite metrics: {}", bad.join(", ")));
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", outcome.json());
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every per-layer metric with its unit, in report order.
const PER_LAYER: [(&str, &str); 33] = [
    ("edge.wire_minus_handle_us", "us"),
    ("edge.probe_us", "us"),
    ("edge.rtt_us", "us"),
    ("edge.reply_bytes", "B"),
    ("edge.request_bytes", "B"),
    ("proto.parse_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.handle_line_us", "us"),
    ("service.submit_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.run_p99_us", "us"),
    ("service.mean_batch_size", "loads"),
    ("service.coalesced_frac", "ratio"),
    ("service.shed_frac", "ratio"),
    ("core.flat_batch_us_per_load", "us"),
    ("core.hier_query_us", "us"),
    ("scenario.load_ms", "ms"),
    ("service.register_ms", "ms"),
    ("core.build_ms", "ms"),
    ("experiments.testbed_s", "s"),
    ("experiments.staircase_s", "s"),
    ("experiments.sweep_s", "s"),
    ("experiments.trace_s", "s"),
    ("experiments.replay_s", "s"),
    ("experiments.report_s", "s"),
    ("experiments.sweep_runs", "count"),
    ("experiments.stage_sum_frac", "ratio"),
    ("sim.propagator_hit_frac", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("gen.sent", "count"),
    ("gen.inflight_max", "count"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Writes the spans of `recorders` as one Chrome-trace file,
/// `perfbench/out/trace_<workload>.json` (one track per recorder).
pub fn write_trace(workload: &str, recorders: &[&trace::Recorder]) -> Result<(), String> {
    let events: Vec<String> = recorders
        .iter()
        .enumerate()
        .flat_map(|(tid, rec)| rec.chrome_events(tid))
        .collect();
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, format!("{{\"traceEvents\":[{}]}}", events.join(",")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from
/// `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}
