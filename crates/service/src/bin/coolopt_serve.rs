//! `coolopt-serve` — the planner-as-a-service wire layer.
//!
//! Registers scenario files as tenants, then answers line-delimited JSON
//! plan queries over stdin (default) or a TCP listener:
//!
//! ```text
//! echo '{"tenant":"testbed_rack20/rack","load":12.0}' \
//!   | coolopt-serve --stdin --scenario scenarios/testbed_rack20.json
//!
//! coolopt-serve --listen 127.0.0.1:7070 --scenario scenarios/two_zone_hetero.json
//! ```
//!
//! One response line per request line (see `coolopt_service::proto`); the
//! observability plane is in-protocol — `{"cmd":"stats"}` answers a
//! `coolopt-service-stats-v1` snapshot, `{"cmd":"metrics"}` the Prometheus
//! exposition, `{"cmd":"query"}` compressed metric history out of the
//! embedded time-series store, and `{"cmd":"trace"}` the newest
//! flight-recorder spans — all safe concurrent with planning traffic.
//!
//! A background collector (period `--collect-every`, default 250 ms)
//! samples every registered counter/gauge/histogram plus the service-level
//! signals (plans, batches, shed, per-tenant queue depth and SLO burn
//! rates) into the store, so `query` answers history, not just the
//! present. `--dashboard PATH` renders the whole store as one
//! self-contained HTML file (inline SVG, no scripts), rewritten
//! periodically and on clean shutdown. With `--stats-every N` a stats
//! snapshot is also printed to stderr as one JSON line every N seconds; on
//! stdin EOF one final snapshot is always printed.

use coolopt_scenario::Scenario;
use coolopt_service::{proto, ServiceCore};
use coolopt_telemetry as telemetry;
use std::io::BufReader;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: coolopt-serve [--stdin | --listen ADDR] [--scenario PATH]... [--stats-every SECS]\n\
         \x20                    [--collect-every SECS] [--dashboard PATH]\n\
         \n\
         --stdin              serve line-delimited JSON requests from stdin (default)\n\
         --listen ADDR        serve line-delimited JSON over TCP, one connection per thread\n\
         --scenario PATH      register a scenario file at boot (repeatable)\n\
         --stats-every SECS   print a one-line JSON stats snapshot to stderr every SECS seconds\n\
         --collect-every SECS sample telemetry into the time-series store every SECS seconds\n\
         \x20                    (default 0.25; 0 disables the collector)\n\
         --dashboard PATH     write a self-contained HTML dashboard of the store to PATH,\n\
         \x20                    rewritten every second and on clean shutdown\n\
         \n\
         each zone of a scenario becomes a tenant keyed \"{{scenario}}/{{zone}}\",\n\
         also addressable as \"{{content_hash}}/{{zone}}\""
    );
    std::process::exit(2)
}

/// Renders the whole store as one self-contained HTML file at `path`.
fn write_dashboard(path: &str) {
    let charts = telemetry::dashboard_charts(telemetry::tsdb());
    let stats = telemetry::tsdb().stats();
    let subtitle = format!(
        "{} series, {} samples in {} compressed bytes ({:.1}x)",
        stats.series,
        stats.points,
        stats.stored_bytes,
        stats.compression_ratio()
    );
    let html = telemetry::render_dashboard("coolopt-serve", &subtitle, &charts);
    if let Err(e) = std::fs::write(path, html) {
        eprintln!("coolopt-serve: dashboard {path}: {e}");
    }
}

/// Prints one stats snapshot to stderr as a single JSON line — the same
/// document the wire `stats` command answers.
fn print_stats(core: &ServiceCore) {
    let stats = serde_json::to_string(&core.stats_doc()).expect("stats snapshots always encode");
    eprintln!("coolopt-serve: stats {stats}");
}

/// The clean-shutdown tail: one last collector sample, one stats line, one
/// dashboard rewrite — so short-lived runs (stdin pipes, smoke tests) still
/// leave complete artifacts behind.
fn emit_final(
    core: &ServiceCore,
    collector: Option<&telemetry::CollectorHandle>,
    dashboard: Option<&str>,
) {
    if let Some(handle) = collector {
        handle.sample_now();
    }
    print_stats(core);
    if let Some(path) = dashboard {
        write_dashboard(path);
    }
}

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let mut scenarios: Vec<String> = Vec::new();
    let mut stats_every: Option<f64> = None;
    let mut collect_every: f64 = 0.25;
    let mut dashboard: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdin" => listen = None,
            "--listen" => listen = Some(args.next().unwrap_or_else(|| usage())),
            "--scenario" => scenarios.push(args.next().unwrap_or_else(|| usage())),
            "--stats-every" => {
                let secs = args
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
                stats_every = Some(secs);
            }
            "--collect-every" => {
                collect_every = args
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--dashboard" => dashboard = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }

    let core = Arc::new(ServiceCore::default());
    for path in &scenarios {
        let scenario = match Scenario::load(path) {
            Ok(scenario) => scenario,
            Err(e) => {
                eprintln!("coolopt-serve: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match core.register_scenario(&scenario) {
            Ok(tenants) => {
                for tenant in tenants {
                    eprintln!(
                        "coolopt-serve: registered {:?} ({} machines, {} engine)",
                        tenant.key(),
                        tenant.snapshot().map_or(0, |s| s.machine_count()),
                        tenant.snapshot().map_or("none", |s| s.engine_name()),
                    );
                }
            }
            Err(e) => {
                eprintln!("coolopt-serve: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The background collector feeds the time-series store behind the
    // `query` command.
    let collector = (collect_every > 0.0).then(|| {
        let core = Arc::clone(&core);
        telemetry::Collector::new(collect_every)
            .sample_registry(true)
            .source(move |now_ms, db| core.sample_into(db, now_ms))
            .start()
    });

    if let Some(secs) = stats_every {
        let core = Arc::clone(&core);
        // Detached reporter: one stats line per period for the life of the
        // process (the snapshot never blocks planning traffic).
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs_f64(secs));
            print_stats(&core);
        });
    }

    if let Some(path) = dashboard.clone() {
        // Detached renderer: TCP servers usually exit by signal, so the
        // dashboard is kept fresh on disk rather than written only at EOF.
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs(1));
            write_dashboard(&path);
        });
    }

    match listen {
        None => serve_stdin(&core, collector.as_ref(), dashboard.as_deref()),
        Some(addr) => serve_tcp(&core, &addr),
    }
}

fn serve_stdin(
    core: &Arc<ServiceCore>,
    collector: Option<&telemetry::CollectorHandle>,
    dashboard: Option<&str>,
) -> ExitCode {
    let served = proto::serve_lines(core, std::io::stdin().lock(), std::io::stdout().lock());
    if let Err(e) = served {
        eprintln!("coolopt-serve: stdin: {e}");
        return ExitCode::FAILURE;
    }
    emit_final(core, collector, dashboard);
    ExitCode::SUCCESS
}

fn serve_tcp(core: &Arc<ServiceCore>, addr: &str) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("coolopt-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("coolopt-serve: listening on {addr}");
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("coolopt-serve: accept: {e}");
                continue;
            }
        };
        let core = Arc::clone(core);
        std::thread::spawn(move || {
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".to_string());
            let writer = match stream.try_clone() {
                Ok(writer) => writer,
                Err(e) => {
                    eprintln!("coolopt-serve: {peer}: {e}");
                    return;
                }
            };
            // A read error ends the connection, like its peer closing it.
            let _ = proto::serve_lines(&core, BufReader::new(stream), writer);
        });
    }
    ExitCode::SUCCESS
}
