//! Emits `BENCH_index.json`: a small, stable set of consolidation-index
//! numbers (build time vs n, warm single-query latency, batched per-query
//! latency, with and without the capacity model) so the perf trajectory is
//! tracked across PRs by CI's bench-smoke job.
//!
//! Usage: `cargo run --release -p coolopt-bench --bin bench_index -- [--json] [--quiet]`
//! The output path defaults to `BENCH_index.json` at the repository root
//! (the committed copy); override with the `BENCH_INDEX_OUT` environment
//! variable.
//!
//! Besides the flat-index rows, the report carries a `hier` section: the
//! hierarchical clustered index built at n = 10 000 and n = 100 000 on a
//! 24-class fleet, with the measured approximation error audited against a
//! windowed Dinkelbach oracle and pinned under the index's own declared
//! certificate.
//!
//! The `paper` section carries the paper's §III-B scaling claims as
//! per-call microseconds against `n`: Algorithm 2's online query, the
//! exponential brute force it replaces, and the linear closed form
//! (Eqs. 21–22). Algorithm 1's build is the `build` section: `dense_ms` is
//! the paper-literal construction, `incremental_ms` the one the planner
//! runs. CI checks each claim's growth ratio.
//!
//! Progress goes to stderr as structured events (`--json` renders them as
//! JSON lines, `--quiet` keeps only warnings). The report gains a
//! `telemetry` section: the global metrics snapshot (counters, gauges,
//! latency histograms) accumulated while benchmarking.

use coolopt_bench::{clustered_fleet, oracle_min_power, synthetic_model, synthetic_pairs};
use coolopt_core::{
    brute::brute_force_subsets, optimal_allocation, ConsolidationIndex, HierConfig, HierIndex,
    IndexBuilder, PowerTerms,
};
use coolopt_telemetry::{self as telemetry, SinkMode};
use serde::Serialize;
use serde_json::value::RawValue;
use std::time::Instant;

const BUILD_SIZES: [usize; 4] = [20, 100, 200, 500];
const QUERY_ROOM: usize = 200;
const BATCH: usize = 64;
/// Fleet sizes for the hierarchical index — far past where the flat
/// `O(n²)` event schedule stops fitting in memory, so accuracy is audited
/// against the windowed Dinkelbach oracle instead.
const HIER_SIZES: [usize; 2] = [10_000, 100_000];
const HIER_CLASSES: usize = 24;
const HIER_LOAD_FRACTIONS: [f64; 3] = [0.2, 0.5, 0.8];
// Room sizes of the `paper` rows.
const ALGORITHM2_SIZES: [usize; 5] = [10, 20, 40, 80, 160];
const BRUTE_FORCE_SIZES: [usize; 3] = [10, 14, 18];
const CLOSED_FORM_SIZES: [usize; 3] = [20, 200, 2000];

#[derive(Serialize)]
struct BuildRow {
    n: usize,
    incremental_ms: f64,
    dense_ms: Option<f64>,
}

#[derive(Serialize)]
struct QueryReport {
    n: usize,
    batch: usize,
    warm_single_us_per_query: f64,
    batch_us_per_query: f64,
    speedup: f64,
    /// The same loads as 64 batches of one, each candidate solved under
    /// per-machine capacity (the mode of method #8).
    capacity_single_ms_per_query: f64,
    /// The same loads in one capacity-checked `query_batch` call.
    capacity_batch_ms_per_query: f64,
}

/// One timed size of a `paper` row: microseconds per call at `n`.
#[derive(Serialize)]
struct PaperRow {
    n: usize,
    us: f64,
}

#[derive(Serialize)]
struct PaperReport {
    /// `ConsolidationIndex::query_online` at load 0.4·n.
    algorithm2_query: Vec<PaperRow>,
    /// `brute_force_subsets` over all `2ⁿ` subsets at load 0.4·n.
    brute_force: Vec<PaperRow>,
    /// `optimal_allocation` with every machine on at load 0.5·n.
    closed_form: Vec<PaperRow>,
}

#[derive(Serialize)]
struct HierReportRow {
    n: usize,
    classes: usize,
    build_ms: f64,
    clusters: usize,
    rows: usize,
    widenings: u32,
    eps_a: f64,
    eps_b: f64,
    warm_query_us: f64,
    /// Worst measured `rel_hier − rel_oracle` over the load sweep (W).
    abs_error: f64,
    /// Worst per-query certificate the index itself declared (W). The
    /// measured error must stay under this; CI pins the inequality.
    abs_bound: f64,
}

#[derive(Serialize)]
struct Report {
    schema: String,
    metrics_enabled: bool,
    build: Vec<BuildRow>,
    query: QueryReport,
    paper: PaperReport,
    hier: Vec<HierReportRow>,
    status_rows_at_query_n: usize,
    orders_at_query_n: usize,
    /// The global metrics snapshot, embedded as it renders itself.
    telemetry: Box<RawValue>,
}

/// Median-of-3 wall-clock milliseconds for `f`.
fn median_ms<F: FnMut()>(mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[1]
}

/// Median-of-3 microseconds per call of `f`, each sample timing `reps`
/// calls so it sits well above timer resolution and scheduler noise.
fn median_us_per_call<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    median_ms(|| {
        for _ in 0..reps {
            f();
        }
    }) * 1e3
        / reps as f64
}

/// One `paper` row: `time(n)` microseconds per call at each size.
fn paper_rows(sizes: &[usize], mut time: impl FnMut(usize) -> f64) -> Vec<PaperRow> {
    sizes.iter().map(|&n| PaperRow { n, us: time(n) }).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quiet") {
        telemetry::init_events(SinkMode::Quiet);
    } else if args.iter().any(|a| a == "--json") {
        telemetry::init_events(SinkMode::Json);
    }

    let mut build_rows = Vec::new();
    for n in BUILD_SIZES {
        telemetry::info!("bench", "timing index build", n = n);
        let pairs = synthetic_pairs(n, 7);
        let incremental_ms = median_ms(|| {
            std::hint::black_box(IndexBuilder::new(&pairs).expect("valid pairs").build());
        });
        // The O(n³) oracle is only affordable up to n = 200.
        let dense_ms = (n <= 200).then(|| {
            median_ms(|| {
                std::hint::black_box(
                    IndexBuilder::new(&pairs)
                        .expect("valid pairs")
                        .build_dense(),
                );
            })
        });
        build_rows.push(BuildRow {
            n,
            incremental_ms,
            dense_ms,
        });
    }

    telemetry::info!(
        "bench",
        "timing warm single vs batched queries",
        n = QUERY_ROOM,
        batch = BATCH
    );
    let model = synthetic_model(QUERY_ROOM, 7);
    let pairs = model.consolidation_pairs();
    let terms = PowerTerms::from_model(&model);
    let index = ConsolidationIndex::build(&pairs).expect("valid pairs");
    let loads: Vec<f64> = (0..BATCH)
        .map(|i| 0.85 * QUERY_ROOM as f64 * (i as f64 + 0.5) / BATCH as f64)
        .collect();

    // Warm everything once before timing.
    for &l in &loads {
        let _ = index.query_min_power(&terms, l, None).expect("valid load");
    }
    let _ = index
        .query_batch(&terms, &loads, None)
        .expect("valid loads");

    // Each timed sample repeats the whole 64-query workload.
    const QUERY_REPS: usize = 20;
    let single_us = median_us_per_call(QUERY_REPS, || {
        for &l in &loads {
            std::hint::black_box(index.query_min_power(&terms, l, None).expect("valid load"));
        }
    }) / BATCH as f64;
    let batch_us = median_us_per_call(QUERY_REPS, || {
        std::hint::black_box(
            index
                .query_batch(&terms, &loads, None)
                .expect("valid loads"),
        );
    }) / BATCH as f64;
    // Capacity mode solves every visited candidate's clamped allocation,
    // milliseconds per query: one pass over the workload per sample.
    telemetry::info!("bench", "timing capacity-mode queries", n = QUERY_ROOM);
    let capacity_single_ms = median_ms(|| {
        for &l in &loads {
            std::hint::black_box(
                index
                    .query_min_power(&terms, l, Some(&model))
                    .expect("valid load"),
            );
        }
    }) / BATCH as f64;
    let capacity_batch_ms = median_ms(|| {
        std::hint::black_box(
            index
                .query_batch(&terms, &loads, Some(&model))
                .expect("valid loads"),
        );
    }) / BATCH as f64;

    // The paper's §III-B scaling rows, on the synthetic rooms above.
    telemetry::info!("bench", "timing the paper's scaling rows");
    let algorithm2_query = paper_rows(&ALGORITHM2_SIZES, |n| {
        let index = ConsolidationIndex::build(&synthetic_pairs(n, 7)).expect("valid pairs");
        let load = 0.4 * n as f64;
        median_us_per_call(10_000, || {
            std::hint::black_box(index.query_online(std::hint::black_box(load)));
        })
    });
    let brute_terms = PowerTerms::unbounded(40.0, 900.0);
    let brute_force = paper_rows(&BRUTE_FORCE_SIZES, |n| {
        let pairs = synthetic_pairs(n, 7);
        let load = 0.4 * n as f64;
        // 2^(18−n) calls per sample: about 2^18 subsets at every size.
        median_us_per_call(1 << (18 - n), || {
            std::hint::black_box(
                brute_force_subsets(std::hint::black_box(&pairs), &brute_terms, load)
                    .expect("brute force runs"),
            );
        })
    });
    let closed_form = paper_rows(&CLOSED_FORM_SIZES, |n| {
        let model = synthetic_model(n, 7);
        let on: Vec<usize> = (0..n).collect();
        let load = 0.5 * n as f64;
        median_us_per_call(2_000_000 / n, || {
            std::hint::black_box(
                optimal_allocation(std::hint::black_box(&model), &on, load)
                    .expect("closed form solves"),
            );
        })
    });

    // Hierarchical index at fleet scale: build cost, warm query latency,
    // and measured approximation error vs the Dinkelbach oracle.
    let mut hier_rows = Vec::new();
    for n in HIER_SIZES {
        telemetry::info!("bench", "timing hierarchical index", n = n);
        let pairs = clustered_fleet(HIER_CLASSES, n, 11);
        let hier_terms = PowerTerms {
            w2: 40.0,
            rho: 1500.0,
            t_cap: Some(12.0),
        };
        let config = HierConfig::auto(&pairs);
        let build_ms = median_ms(|| {
            std::hint::black_box(HierIndex::build(&pairs, config).expect("valid pairs"));
        });
        let hier = HierIndex::build(&pairs, config).expect("valid pairs");
        let loads: Vec<f64> = HIER_LOAD_FRACTIONS.iter().map(|f| f * n as f64).collect();
        let (mut abs_error, mut abs_bound) = (0.0f64, 0.0f64);
        for &load in &loads {
            let (cons, bound) = hier
                .query_min_power_bounded(&hier_terms, load, None)
                .expect("valid load")
                .expect("feasible load");
            let (_, rel_oracle) = oracle_min_power(&pairs, &hier_terms, load, Some(cons.k))
                .expect("oracle agrees the load is feasible");
            abs_error = abs_error.max((cons.relative_power - rel_oracle).max(0.0));
            abs_bound = abs_bound.max(bound);
        }
        // Hulls are warm after the error sweep; time the steady state.
        let warm_query_us = median_ms(|| {
            for &load in &loads {
                std::hint::black_box(
                    hier.query_min_power(&hier_terms, load, None)
                        .expect("valid load"),
                );
            }
        }) * 1e3
            / loads.len() as f64;
        hier_rows.push(HierReportRow {
            n,
            classes: HIER_CLASSES,
            build_ms,
            clusters: hier.cluster_count(),
            rows: hier.row_count(),
            widenings: hier.widenings(),
            eps_a: hier.eps_a(),
            eps_b: hier.eps_b(),
            warm_query_us,
            abs_error,
            abs_bound,
        });
    }

    let report = Report {
        schema: "bench-index-v3".to_string(),
        metrics_enabled: telemetry::metrics_enabled(),
        build: build_rows,
        query: QueryReport {
            n: QUERY_ROOM,
            batch: BATCH,
            warm_single_us_per_query: single_us,
            batch_us_per_query: batch_us,
            speedup: single_us / batch_us,
            capacity_single_ms_per_query: capacity_single_ms,
            capacity_batch_ms_per_query: capacity_batch_ms,
        },
        paper: PaperReport {
            algorithm2_query,
            brute_force,
            closed_form,
        },
        hier: hier_rows,
        status_rows_at_query_n: index.status_count(),
        orders_at_query_n: index.order_count(),
        telemetry: RawValue::from_string(telemetry::snapshot().to_json())
            .expect("the metrics snapshot renders one JSON document"),
    };
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    // Default to the repo root so the committed BENCH_index.json is what a
    // plain `cargo run` refreshes, regardless of the invocation directory.
    let out = std::env::var("BENCH_INDEX_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_index.json").into());
    std::fs::write(&out, &rendered).expect("write BENCH_index.json");
    println!("{rendered}");
    telemetry::info!("bench", "wrote report", path = out);
}
