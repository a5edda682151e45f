//! Emits `BENCH_index.json`: a small, stable set of consolidation-index
//! numbers (build time vs n, warm single-query latency, batched per-query
//! latency) so the perf trajectory is tracked across PRs by CI's
//! bench-smoke job without paying for full criterion runs.
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
//! Progress goes to stderr as structured events (`--json` renders them as
//! JSON lines, `--quiet` keeps only warnings). The report gains a
//! `telemetry` section: the global metrics snapshot (counters, gauges,
//! latency histograms) accumulated while benchmarking.

use coolopt_bench::{clustered_fleet, oracle_min_power, synthetic_model, synthetic_pairs};
use coolopt_core::{ConsolidationIndex, HierConfig, HierIndex, IndexBuilder, PowerTerms};
use coolopt_telemetry::{self as telemetry, SinkMode};
use serde::Serialize;
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
    hier: Vec<HierReportRow>,
    status_rows_at_query_n: usize,
    orders_at_query_n: usize,
}

/// Inserts the pre-rendered metrics snapshot as a `"telemetry"` key just
/// before the report object closes. The snapshot renders its own JSON (the
/// vendored serde stand-in has no raw-value passthrough), so it is spliced
/// into the serde output textually.
fn splice_telemetry(rendered: &str, telemetry_json: &str) -> String {
    let end = rendered.rfind('}').expect("report is a JSON object");
    let mut out = String::with_capacity(rendered.len() + telemetry_json.len() + 32);
    out.push_str(rendered[..end].trim_end());
    out.push_str(",\n  \"telemetry\": ");
    out.push_str(telemetry_json);
    out.push_str("\n}");
    out
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

    // Each timed sample repeats the whole 64-query workload so one sample
    // is well above timer resolution and scheduler noise.
    const QUERY_REPS: usize = 20;
    let single_us = median_ms(|| {
        for _ in 0..QUERY_REPS {
            for &l in &loads {
                std::hint::black_box(index.query_min_power(&terms, l, None).expect("valid load"));
            }
        }
    }) * 1e3
        / (QUERY_REPS * BATCH) as f64;
    let batch_us = median_ms(|| {
        for _ in 0..QUERY_REPS {
            std::hint::black_box(
                index
                    .query_batch(&terms, &loads, None)
                    .expect("valid loads"),
            );
        }
    }) * 1e3
        / (QUERY_REPS * BATCH) as f64;

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
        schema: "bench-index-v2".to_string(),
        metrics_enabled: telemetry::metrics_enabled(),
        build: build_rows,
        query: QueryReport {
            n: QUERY_ROOM,
            batch: BATCH,
            warm_single_us_per_query: single_us,
            batch_us_per_query: batch_us,
            speedup: single_us / batch_us,
        },
        hier: hier_rows,
        status_rows_at_query_n: index.status_count(),
        orders_at_query_n: index.order_count(),
    };
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    let rendered = splice_telemetry(&rendered, &telemetry::snapshot().to_json());
    // Default to the repo root so the committed BENCH_index.json is what a
    // plain `cargo run` refreshes, regardless of the invocation directory.
    let out = std::env::var("BENCH_INDEX_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_index.json").into());
    // A rewrite refreshes the keys this binary produces but never drops
    // top-level keys it does not know about (annotations, newer-schema
    // sections) from the committed report.
    let rendered = match std::fs::read_to_string(&out) {
        Ok(previous) => coolopt_bench::merge_unknown_top_level(&rendered, &previous),
        Err(_) => rendered,
    };
    std::fs::write(&out, &rendered).expect("write BENCH_index.json");
    println!("{rendered}");
    telemetry::info!("bench", "wrote report", path = out);
}
