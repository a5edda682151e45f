//! Benchmarks of the fast transient engine: what does the exact-step
//! propagator cost per step and per replan interval, and what does a
//! method × load sweep cost end-to-end?
//!
//! * `propagator_step_vs_n` — one recording step (10 s) of the RC network
//!   for rooms of 20/100/200 machines: exact propagator (one mat–vec) vs
//!   one generic Euler/RK4 step of the same system, plus the one-time
//!   `Propagator::new` build the mat–vec amortizes.
//! * `replan_interval` — crossing one event-free 900 s replan interval on
//!   the 20-machine room: 90 exact steps vs the sub-stepped Euler/RK4
//!   fallbacks. The exact path is *more* accurate than either fallback at
//!   the benched sub-steps, so its speedup is a lower bound on the
//!   equivalent-accuracy speedup.
//! * `replay_trace_24` — the full 24-step sinusoidal replanning trace
//!   end-to-end through `coolopt_experiments::replay`, per engine.
//! * `sweep_wallclock` — a small method × load sweep on the numeric
//!   substrate through `run_sweep`.

use coolopt_alloc::{Method, Planner};
use coolopt_bench::synthetic_model;
use coolopt_cooling::SetPointTable;
use coolopt_experiments::harness::{run_sweep, SweepOptions};
use coolopt_experiments::runtime::sinusoidal_trace;
use coolopt_experiments::{replay_trace_with, ReplayEngine, ReplayOptions, Testbed};
use coolopt_model::{RcNetwork, RcParams, RoomModel};
use coolopt_sim::{
    ForwardEuler, Integrator, LinearDynamics, LinearOde, Propagator, Rk4, SimScratch,
};
use coolopt_units::{Seconds, Temperature};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const ROOM: usize = 20;
const TRACE_STEPS: usize = 24;
const RECORD_STEP: f64 = 10.0;
const REPLAN_INTERVAL: f64 = 900.0;

fn set_points(machines: usize) -> SetPointTable {
    let sp = Temperature::from_celsius(20.0);
    SetPointTable::from_measurements(&[
        (0.1 * machines as f64, sp, Temperature::from_celsius(18.5)),
        (0.5 * machines as f64, sp, Temperature::from_celsius(17.5)),
        (1.0 * machines as f64, sp, Temperature::from_celsius(16.0)),
    ])
    .expect("valid set-point table")
}

/// The RC network of `model` under a staggered part-load operating point.
fn loaded_network(model: &RoomModel) -> RcNetwork {
    let mut net =
        RcNetwork::new(model, RcParams::default()).expect("synthetic model is RC-representable");
    let powers: Vec<f64> = (0..model.len())
        .map(|i| {
            if i % 4 == 3 {
                0.0
            } else {
                model.power().predict(0.5 * (i % 3) as f64 * 0.5).as_watts()
            }
        })
        .collect();
    net.set_input(&powers, Temperature::from_celsius(15.0));
    net
}

fn bench_propagator_step_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagator_step_vs_n");
    group.sample_size(10);
    let h = Seconds::new(RECORD_STEP);
    for n in [20usize, 100, 200] {
        let model = synthetic_model(n, 7);
        let net = loaded_network(&model);
        let dim = LinearDynamics::dim(&net);
        let ode = LinearOde::new(&net);
        let prop = Propagator::new(&net, h);
        let mut state = net.uniform_state(Temperature::from_celsius(25.0));
        let mut flat = vec![0.0; dim];
        let mut scratch = SimScratch::with_dim(dim);

        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| prop.step(black_box(&mut state), &mut flat));
        });
        group.bench_with_input(BenchmarkId::new("euler", n), &n, |b, _| {
            b.iter(|| {
                ForwardEuler.step_with(&ode, Seconds::ZERO, h, black_box(&mut state), &mut scratch)
            });
        });
        group.bench_with_input(BenchmarkId::new("rk4", n), &n, |b, _| {
            b.iter(|| {
                Rk4::new().step_with(&ode, Seconds::ZERO, h, black_box(&mut state), &mut scratch)
            });
        });
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| Propagator::new(black_box(&net), h));
        });
    }
    group.finish();
}

fn bench_replan_interval(c: &mut Criterion) {
    let model = synthetic_model(ROOM, 7);
    let net = loaded_network(&model);
    let dim = LinearDynamics::dim(&net);
    let ode = LinearOde::new(&net);
    let h = Seconds::new(RECORD_STEP);
    let prop = Propagator::new(&net, h);
    let steps = (REPLAN_INTERVAL / RECORD_STEP) as usize;
    let mut state = net.uniform_state(Temperature::from_celsius(25.0));
    let mut flat = vec![0.0; dim];
    let mut scratch = SimScratch::with_dim(dim);

    let mut group = c.benchmark_group("replan_interval");
    group.sample_size(10);
    group.bench_function("exact_10s_steps", |b| {
        b.iter(|| prop.advance(black_box(&mut state), steps, &mut flat));
    });
    for (label, dt) in [("euler_dt_100ms", 0.1), ("euler_dt_10ms", 0.01)] {
        let sub = Seconds::new(dt);
        let m = (REPLAN_INTERVAL / dt) as usize;
        group.bench_function(label, |b| {
            b.iter(|| {
                for k in 0..m {
                    ForwardEuler.step_with(
                        &ode,
                        Seconds::new(k as f64 * dt),
                        sub,
                        black_box(&mut state),
                        &mut scratch,
                    );
                }
            });
        });
    }
    {
        let dt = 0.5;
        let sub = Seconds::new(dt);
        let m = (REPLAN_INTERVAL / dt) as usize;
        group.bench_function("rk4_dt_500ms", |b| {
            b.iter(|| {
                for k in 0..m {
                    Rk4::new().step_with(
                        &ode,
                        Seconds::new(k as f64 * dt),
                        sub,
                        black_box(&mut state),
                        &mut scratch,
                    );
                }
            });
        });
    }
    group.finish();
}

fn bench_replay_trace(c: &mut Criterion) {
    let model = synthetic_model(ROOM, 7);
    let table = set_points(ROOM);
    let planner = Planner::new(&model, &table);
    let trace = sinusoidal_trace(ROOM, 0.15, 0.85, Seconds::new(21_600.0), TRACE_STEPS);
    let total = Seconds::new(21_600.0);
    let method = Method::numbered(8);
    planner.plan(method, trace[0].load).expect("plannable"); // warm the engine

    let engines = [
        ("exact", ReplayEngine::Exact),
        ("euler_dt_100ms", ReplayEngine::Euler(Seconds::new(0.1))),
        ("rk4_dt_500ms", ReplayEngine::Rk4(Seconds::new(0.5))),
    ];
    let mut group = c.benchmark_group("replay_trace_24");
    group.sample_size(10);
    for (label, engine) in engines {
        let options = ReplayOptions {
            engine,
            ..ReplayOptions::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                replay_trace_with(black_box(&planner), &model, method, &trace, total, &options)
                    .expect("replayable")
            });
        });
    }
    group.finish();
}

fn bench_sweep_wallclock(c: &mut Criterion) {
    let mut tb = Testbed::build_sized(8, 7).expect("preset testbed profiles cleanly");
    let methods = [
        Method::numbered(1),
        Method::numbered(7),
        Method::numbered(8),
    ];
    let options = SweepOptions {
        load_percents: vec![30.0, 60.0, 90.0],
        settle_max: Seconds::new(3000.0),
        window: Seconds::new(40.0),
        ..SweepOptions::default()
    };

    let mut group = c.benchmark_group("sweep_wallclock");
    group.sample_size(10);
    group.bench_function("run_sweep", |b| {
        b.iter(|| run_sweep(black_box(&mut tb), &methods, &options));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_propagator_step_vs_n,
    bench_replan_interval,
    bench_replay_trace,
    bench_sweep_wallclock
);
criterion_main!(benches);
