//! Emits `BENCH_service.json`: sustained throughput of the planner-as-a-
//! service query core over a mixed tenant set, so the service-layer perf
//! trajectory is tracked across PRs next to `BENCH_index.json`.
//!
//! Usage: `cargo run --release -p coolopt-bench --bin bench_service -- [--smoke] [--json] [--quiet]`
//! The output path defaults to `BENCH_service.json` at the repository root
//! (the committed copy); override with the `BENCH_SERVICE_OUT` environment
//! variable. `--smoke` runs one short two-producer round for CI.
//!
//! The tenant mix mirrors a small machine-room fleet under one service:
//! the 20-machine testbed rack and both zones of the heterogeneous
//! two-zone room take the bulk of the traffic as 64-load bursts, and the
//! 10 000-machine fleet (served by the hierarchical engine, three orders
//! of magnitude more expensive per query) receives a thin stream of
//! single-load queries — one submission in 128 — the way a fleet-scale
//! re-plan rides alongside per-rack control loops. Producer threads
//! submit concurrently through the admission/coalescing layer, so racing
//! bursts merge into larger micro-batches exactly as concurrent clients'
//! queries would.

use coolopt_scenario::Scenario;
use coolopt_service::{ServiceConfig, ServiceCore, ServiceError, SloPolicy};
use coolopt_telemetry::{self as telemetry, SinkMode};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Loads per burst submission on the rack-scale tenants.
const BURST: usize = 64;
/// One submission in this many goes to the fleet tenant (single load).
const FLEET_EVERY: usize = 128;

#[derive(Serialize)]
struct TenantReport {
    key: String,
    machines: usize,
    engine: String,
    plans: u64,
}

#[derive(Serialize)]
struct RunReport {
    threads: usize,
    seconds: f64,
    plans: u64,
    plans_per_s: f64,
    submissions: u64,
    /// Client-visible submit→reply latency percentiles, microseconds.
    p50_us: f64,
    p99_us: f64,
    mean_batch_size: f64,
    shed_rate: f64,
    /// Batch-size histogram: entry `i` counts micro-batches of
    /// `2^i ..= 2^(i+1) - 1` loads.
    batch_size_log2: Vec<u64>,
    /// Loads that joined an already-open batch instead of opening one.
    coalesced: u64,
}

/// One tenant's SLO/latency-attribution row for one round: the windowed
/// queue-wait vs run p99 split plus the burn-rate verdict at round end.
#[derive(Serialize)]
struct SloTenantReport {
    key: String,
    /// Windowed join → batch-start p99, microseconds (`null` on an empty
    /// window).
    queue_wait_p99_us: Option<f64>,
    /// Windowed batch-start → publish p99, microseconds.
    run_p99_us: Option<f64>,
    attempts: u64,
    breaches: u64,
    shed: u64,
    slow_burn_rate: f64,
    alerting: bool,
    healthy: bool,
}

/// The SLO plane's view of one producer-count round.
#[derive(Serialize)]
struct SloRound {
    threads: usize,
    window_seconds: f64,
    windows: usize,
    tenants: Vec<SloTenantReport>,
}

/// What the embedded time-series store held after every round: a background
/// collector sampled the registry and the service signals throughout, so
/// the compression ratio reflects real bench traffic, not a synthetic
/// series.
#[derive(Serialize)]
struct TsdbReport {
    /// Distinct series recorded.
    series: u64,
    /// Decodable samples across both retention tiers.
    points: u64,
    /// Compressed bytes held.
    stored_bytes: u64,
    /// What those samples would cost as plain `(i64, f64)` pairs.
    raw_bytes: u64,
    /// `raw_bytes / stored_bytes` (zero for an empty store).
    compression_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    schema: String,
    metrics_enabled: bool,
    smoke: bool,
    burst: usize,
    fleet_every: usize,
    tenants: Vec<TenantReport>,
    producers: Vec<RunReport>,
    /// Per-round latency attribution + SLO verdicts (the observability
    /// plane was live and recording during every round above).
    slo: Vec<SloRound>,
    /// Gorilla store accounting over the whole bench.
    tsdb: TsdbReport,
    peak_plans_per_s: f64,
}

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// What one producer thread of a round measured.
struct ProducerTally {
    plans: u64,
    submissions: u64,
    latencies_us: Vec<f64>,
    /// Plans answered per tenant key.
    counts: Vec<(String, u64)>,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One sustained-throughput round: `threads` producers hammer a fresh
/// service core for `seconds`, each recording its submission latencies.
fn run_round(
    scenarios: &[Scenario],
    threads: usize,
    seconds: f64,
) -> (RunReport, Vec<TenantReport>, SloRound) {
    // The bench declares an SLO sized to its own mix: the fleet tenant's
    // hierarchical queries legitimately run for milliseconds, so the
    // service-wide 10 ms default would let a single tail batch consume the
    // whole 0.1 % budget of the thin fleet stream. 50 ms sits an order of
    // magnitude above every tenant's p999 — a breach means a real stall,
    // not fleet-query cost, and the verdicts in the report stay healthy
    // at zero shed by construction rather than by sample-size luck.
    let core = Arc::new(ServiceCore::new(ServiceConfig {
        slo: SloPolicy {
            latency_threshold_seconds: 0.050,
            availability_target: 0.999,
        },
        ..ServiceConfig::default()
    }));
    let mut rack_like = Vec::new();
    let mut fleet = None;
    for scenario in scenarios {
        for tenant in core
            .register_scenario(scenario)
            .expect("scenario registers")
        {
            let machines = tenant.snapshot().expect("registered").machine_count();
            if machines > 1000 {
                fleet = Some(tenant);
            } else {
                rack_like.push(tenant);
            }
        }
    }
    let fleet = fleet.expect("the mix includes the 10k fleet");
    assert!(!rack_like.is_empty(), "the mix includes rack-scale tenants");

    // Sample the metrics registry and the service signals into the
    // time-series store for the round's duration, the way `coolopt-serve
    // --collect-every` does.
    let collector = {
        let core = Arc::clone(&core);
        telemetry::Collector::new(0.05)
            .sample_registry(true)
            .source(move |now_ms, db| core.sample_into(db, now_ms))
            .start()
    };

    // Load patterns: a rotating window over a precomputed ramp per tenant,
    // so consecutive bursts hit different index rows without per-iteration
    // generation cost.
    let ramps: Vec<Vec<f64>> = rack_like
        .iter()
        .map(|t| {
            let n = t.snapshot().expect("registered").machine_count();
            (0..4 * BURST)
                .map(|i| (i as f64 * 0.37) % (n as f64 * 0.95))
                .collect()
        })
        .collect();
    let fleet_n = fleet.snapshot().expect("registered").machine_count();

    let stop = AtomicBool::new(false);
    let begin = Instant::now();
    let mut per_thread: Vec<ProducerTally> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for producer in 0..threads {
            let stop = &stop;
            let rack_like = &rack_like;
            let ramps = &ramps;
            let fleet = &fleet;
            handles.push(scope.spawn(move || {
                let mut plans = 0u64;
                let mut submissions = 0u64;
                let mut latencies_us = Vec::with_capacity(1 << 18);
                let mut per_tenant = vec![0u64; rack_like.len() + 1];
                let mut i = producer; // desynchronize producers
                while !stop.load(Ordering::Relaxed) {
                    let start = Instant::now();
                    let served = if i % FLEET_EVERY == FLEET_EVERY - 1 {
                        let load = (i as f64 * 7.3) % (fleet_n as f64 * 0.9);
                        match fleet.submit_one(load) {
                            Ok(_) => {
                                per_tenant[rack_like.len()] += 1;
                                1
                            }
                            Err(ServiceError::Overloaded { .. }) => 0,
                            Err(e) => panic!("fleet submit failed: {e}"),
                        }
                    } else {
                        let which = i % rack_like.len();
                        let ramp = &ramps[which];
                        let offset = (i * 7) % (ramp.len() - BURST);
                        match rack_like[which].submit(&ramp[offset..offset + BURST]) {
                            Ok(results) => {
                                per_tenant[which] += results.len() as u64;
                                results.len() as u64
                            }
                            Err(ServiceError::Overloaded { .. }) => 0,
                            Err(e) => panic!("burst submit failed: {e}"),
                        }
                    };
                    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                    plans += served;
                    submissions += 1;
                    i += 1;
                }
                let mut counts: Vec<(String, u64)> = rack_like
                    .iter()
                    .map(|t| t.key().to_string())
                    .chain(std::iter::once(fleet.key().to_string()))
                    .zip(per_tenant)
                    .collect();
                counts.sort();
                ProducerTally {
                    plans,
                    submissions,
                    latencies_us,
                    counts,
                }
            }));
        }
        while begin.elapsed().as_secs_f64() < seconds {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            per_thread.push(handle.join().expect("producer thread"));
        }
    });
    let elapsed = begin.elapsed().as_secs_f64();
    collector.sample_now();
    collector.stop();

    let plans: u64 = per_thread.iter().map(|t| t.plans).sum();
    let submissions: u64 = per_thread.iter().map(|t| t.submissions).sum();
    let mut latencies: Vec<f64> = per_thread
        .iter()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mut tenant_plans: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    for tally in &per_thread {
        for (key, count) in &tally.counts {
            *tenant_plans.entry(key.clone()).or_default() += count;
        }
    }
    let stats = core.stats().snapshot();

    let tenants = core
        .tenants()
        .into_iter()
        .map(|t| {
            let snapshot = t.snapshot().expect("registered");
            TenantReport {
                key: t.key().to_string(),
                machines: snapshot.machine_count(),
                engine: snapshot.engine_name().to_string(),
                plans: tenant_plans.get(t.key()).copied().unwrap_or(0),
            }
        })
        .collect();
    let run = RunReport {
        threads,
        seconds: elapsed,
        plans,
        plans_per_s: plans as f64 / elapsed,
        submissions,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        mean_batch_size: stats.mean_batch_size(),
        shed_rate: stats.shed_rate(),
        batch_size_log2: stats.batch_size_log2,
        coalesced: stats.coalesced,
    };

    let windows = core.config().slo_windows;
    let mut slo_tenants: Vec<SloTenantReport> = core
        .tenants()
        .into_iter()
        .map(|t| {
            let verdict = t.slo_verdict();
            SloTenantReport {
                key: t.key().to_string(),
                queue_wait_p99_us: t
                    .queue_wait_windowed(windows)
                    .quantile(0.99)
                    .map(|s| s * 1e6),
                run_p99_us: t.run_windowed(windows).quantile(0.99).map(|s| s * 1e6),
                attempts: verdict.attempts,
                breaches: verdict.breaches,
                shed: verdict.shed,
                slow_burn_rate: verdict.slow_burn.burn_rate,
                alerting: verdict.alerting,
                healthy: verdict.healthy,
            }
        })
        .collect();
    slo_tenants.sort_by(|a, b| a.key.cmp(&b.key));
    let slo = SloRound {
        threads,
        window_seconds: core.config().slo_window_seconds,
        windows,
        tenants: slo_tenants,
    };
    (run, tenants, slo)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quiet") {
        telemetry::init_events(SinkMode::Quiet);
    } else if args.iter().any(|a| a == "--json") {
        telemetry::init_events(SinkMode::Json);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let (thread_counts, seconds): (&[usize], f64) = if smoke {
        (&[2], 0.25)
    } else {
        (&[1, 2, 4], 2.0)
    };

    let dir = scenarios_dir();
    let scenarios: Vec<Scenario> = [
        "testbed_rack20.json",
        "two_zone_hetero.json",
        "fleet_10k.json",
    ]
    .iter()
    .map(|name| Scenario::load(dir.join(name)).expect("stock scenario loads"))
    .collect();

    let mut producers = Vec::new();
    let mut tenants = Vec::new();
    let mut slo = Vec::new();
    for &threads in thread_counts {
        telemetry::info!(
            "bench",
            "service round",
            threads = threads,
            seconds = seconds
        );
        let (run, run_tenants, run_slo) = run_round(&scenarios, threads, seconds);
        telemetry::info!(
            "bench",
            "service round done",
            threads = threads,
            plans_per_s = run.plans_per_s,
            p99_us = run.p99_us
        );
        tenants = run_tenants; // same registration every round
        producers.push(run);
        slo.push(run_slo);
    }
    let peak = producers
        .iter()
        .map(|r| r.plans_per_s)
        .fold(0.0f64, f64::max);

    let stats = telemetry::tsdb().stats();
    let report = Report {
        schema: "bench-service-v1".to_string(),
        metrics_enabled: telemetry::metrics_enabled(),
        smoke,
        burst: BURST,
        fleet_every: FLEET_EVERY,
        tenants,
        producers,
        slo,
        tsdb: TsdbReport {
            series: stats.series,
            points: stats.points,
            stored_bytes: stats.stored_bytes,
            raw_bytes: stats.raw_bytes,
            compression_ratio: stats.compression_ratio(),
        },
        peak_plans_per_s: peak,
    };
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = std::env::var("BENCH_SERVICE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json").into()
    });
    // Like bench_index: refresh produced keys, preserve unknown ones.
    let rendered = match std::fs::read_to_string(&out) {
        Ok(previous) => coolopt_bench::merge_unknown_top_level(&rendered, &previous),
        Err(_) => rendered,
    };
    std::fs::write(&out, &rendered).expect("write BENCH_service.json");
    println!("{rendered}");
    telemetry::info!("bench", "wrote report", path = out);
}
