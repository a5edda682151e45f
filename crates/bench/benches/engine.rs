//! Benchmarks of the consolidation engine: what does an index build cost as
//! the room grows (incremental vs the paper-literal dense oracle), and what
//! do the snapshot-published engine and the batched query path buy during
//! online replanning?
//!
//! * `engine_build_vs_n` — incremental [`IndexBuilder`] builds for rooms of
//!   20…1000 machines; the from-scratch `O(n³)` dense oracle is swept only
//!   to 200 (its table alone is ~n³ rows).
//! * `query_batch_vs_sequential` — 64 exact consolidation queries on a
//!   200-machine index: one `query_batch` call vs 64 `query_min_power`
//!   calls (each a batch of one), with and without the capacity model.
//! * `plan_latency` — a single `plan()` on a 20-machine room, cold (fresh
//!   planner, pays the index build) vs warm (published snapshot, pure
//!   query).
//! * `replan_trace` — a full 24-step sinusoidal replanning trace, fresh
//!   planner per step vs one warmed planner for the whole trace, plus the
//!   batched `plan_batch` path.

use coolopt_alloc::{Method, Planner};
use coolopt_bench::{synthetic_model, synthetic_pairs};
use coolopt_cooling::SetPointTable;
use coolopt_core::{ConsolidationIndex, IndexBuilder, PowerTerms};
use coolopt_experiments::runtime::sinusoidal_trace;
use coolopt_units::{Seconds, Temperature};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

const ROOM: usize = 20;
const TRACE_STEPS: usize = 24;
const QUERY_ROOM: usize = 200;
const BATCH: usize = 64;

fn set_points(machines: usize) -> SetPointTable {
    let sp = Temperature::from_celsius(20.0);
    SetPointTable::from_measurements(&[
        (0.1 * machines as f64, sp, Temperature::from_celsius(18.5)),
        (0.5 * machines as f64, sp, Temperature::from_celsius(17.5)),
        (1.0 * machines as f64, sp, Temperature::from_celsius(16.0)),
    ])
    .expect("valid set-point table")
}

fn trace_loads(machines: usize) -> Vec<f64> {
    sinusoidal_trace(machines, 0.15, 0.85, Seconds::new(14_400.0), TRACE_STEPS)
        .into_iter()
        .map(|p| p.load)
        .collect()
}

/// A deterministic spread of query loads over `(0, 0.85·n)`.
fn query_loads(machines: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| {
            let frac = (i as f64 + 0.5) / count as f64;
            0.85 * machines as f64 * frac
        })
        .collect()
}

fn bench_build_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_build_vs_n");
    group.sample_size(10);
    for n in [20usize, 50, 100, 200, 500, 1000] {
        let pairs = synthetic_pairs(n, 7);
        group.bench_with_input(BenchmarkId::new("incremental", n), &pairs, |b, pairs| {
            b.iter(|| {
                IndexBuilder::new(black_box(pairs))
                    .expect("synthetic pairs are well-formed")
                    .build()
            });
        });
        // The paper-literal from-scratch oracle: O(n³) rows, so the sweep
        // stops at 200 (the n = 1000 table alone would be ~10⁹ rows).
        if n <= 200 {
            group.bench_with_input(BenchmarkId::new("dense", n), &pairs, |b, pairs| {
                b.iter(|| {
                    IndexBuilder::new(black_box(pairs))
                        .expect("synthetic pairs are well-formed")
                        .build_dense()
                });
            });
        }
    }
    group.finish();
}

fn bench_query_batch_vs_sequential(c: &mut Criterion) {
    let model = synthetic_model(QUERY_ROOM, 7);
    let pairs = model.consolidation_pairs();
    let terms = PowerTerms::from_model(&model);
    let index = ConsolidationIndex::build(&pairs).expect("synthetic pairs are well-formed");
    let loads = query_loads(QUERY_ROOM, BATCH);

    let mut group = c.benchmark_group("query_batch_vs_sequential");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("sequential", BATCH), |b| {
        b.iter(|| {
            loads
                .iter()
                .filter_map(|&l| {
                    index
                        .query_min_power(black_box(&terms), l, None)
                        .expect("loads are valid")
                })
                .map(|c| c.relative_power)
                .sum::<f64>()
        });
    });
    group.bench_function(BenchmarkId::new("batched", BATCH), |b| {
        b.iter(|| {
            index
                .query_batch(black_box(&terms), &loads, None)
                .expect("loads are valid")
                .into_iter()
                .flatten()
                .map(|c| c.relative_power)
                .sum::<f64>()
        });
    });
    group.bench_function(BenchmarkId::new("sequential_capacity", BATCH), |b| {
        b.iter(|| {
            loads
                .iter()
                .filter_map(|&l| {
                    index
                        .query_min_power(black_box(&terms), l, Some(&model))
                        .expect("loads are valid")
                })
                .map(|c| c.relative_power)
                .sum::<f64>()
        });
    });
    group.bench_function(BenchmarkId::new("batched_capacity", BATCH), |b| {
        b.iter(|| {
            index
                .query_batch(black_box(&terms), &loads, Some(&model))
                .expect("loads are valid")
                .into_iter()
                .flatten()
                .map(|c| c.relative_power)
                .sum::<f64>()
        });
    });
    group.finish();
}

fn bench_plan_latency(c: &mut Criterion) {
    let model = synthetic_model(ROOM, 7);
    let table = set_points(ROOM);
    let method = Method::numbered(8);
    let load = 0.4 * ROOM as f64;

    let mut group = c.benchmark_group("plan_latency");
    group.sample_size(10);
    // Cold: every plan() pays a full consolidation-index build — what the
    // harness did before planners were reused.
    group.bench_function("cold", |b| {
        b.iter(|| {
            let planner = Planner::new(black_box(&model), &table);
            planner.plan(method, load).expect("plannable")
        });
    });
    // Warm: the engine snapshot is published, so plan() is a pure query.
    let planner = Planner::new(&model, &table);
    planner.plan(method, load).expect("plannable"); // publish the engine
    group.bench_function("warm", |b| {
        b.iter(|| black_box(&planner).plan(method, load).expect("plannable"));
    });
    group.finish();
}

fn bench_replan_trace(c: &mut Criterion) {
    let model = synthetic_model(ROOM, 7);
    let table = set_points(ROOM);
    let method = Method::numbered(8);
    let loads = trace_loads(ROOM);

    let mut group = c.benchmark_group("replan_trace");
    group.sample_size(10);
    group.bench_function(
        BenchmarkId::new("fresh_planner_per_step", TRACE_STEPS),
        |b| {
            b.iter(|| {
                loads
                    .iter()
                    .map(|&l| {
                        let planner = Planner::new(black_box(&model), &table);
                        planner.plan(method, l).expect("plannable").total_load()
                    })
                    .sum::<f64>()
            });
        },
    );
    group.bench_function(BenchmarkId::new("memoized_planner", TRACE_STEPS), |b| {
        b.iter(|| {
            let planner = Planner::new(black_box(&model), &table);
            loads
                .iter()
                .map(|&l| planner.plan(method, l).expect("plannable").total_load())
                .sum::<f64>()
        });
    });
    group.bench_function(BenchmarkId::new("plan_batch", TRACE_STEPS), |b| {
        b.iter(|| {
            let planner = Planner::new(black_box(&model), &table);
            planner
                .plan_batch(method, &loads)
                .into_iter()
                .map(|p| p.expect("plannable").total_load())
                .sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_build_vs_n,
        bench_query_batch_vs_sequential,
        bench_plan_latency,
        bench_replan_trace
);
criterion_main!(benches);
