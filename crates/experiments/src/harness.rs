//! Running one evaluation method on the simulated room, and sweeping many.

use crate::testbed::Testbed;
use coolopt_alloc::{AllocationPlan, Method, Planner, PolicyError};
use coolopt_room::SteadyMeasurement;
use coolopt_telemetry as telemetry;
use coolopt_units::{Seconds, TempDelta, Watts};
use coolopt_workload::{Capacity, Document, LoadBalancer, LoadVector};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Execution knobs of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Load points as percentages of rack capacity (paper: 10–100 %).
    pub load_percents: Vec<f64>,
    /// Settling budget per run.
    pub settle_max: Seconds,
    /// Measurement window per run.
    pub window: Seconds,
    /// Guard band the planner keeps below `T_max` (absorbs fitted-model
    /// error; the ablation study sweeps it).
    pub guard: TempDelta,
}

impl Default for SweepOptions {
    /// The paper's 10–100 % loads, measured with the profiling protocol.
    fn default() -> Self {
        SweepOptions {
            load_percents: (1..=10).map(|k| k as f64 * 10.0).collect(),
            settle_max: coolopt_profiling::SETTLE_MAX,
            window: coolopt_profiling::WINDOW,
            guard: coolopt_alloc::plan::DEFAULT_GUARD,
        }
    }
}

/// Tolerance above `T_max` before a run is flagged (sensor noise and
/// quantization make exact comparisons meaningless).
const TEMP_MARGIN: TempDelta = TempDelta::from_kelvin(2.0);

/// The outcome of running one method at one load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRun {
    /// The plan that was applied.
    pub plan: AllocationPlan,
    /// Load percentage of this run.
    pub load_percent: f64,
    /// Steady-state measurement through the instruments.
    pub measurement: SteadyMeasurement,
    /// `true` when no CPU exceeded `T_max` by more than a 2 K margin.
    pub temps_ok: bool,
    /// `true` when the dispatcher realizes the planned shares (throughput
    /// constraint, paper: "application throughput was not affected").
    pub throughput_ok: bool,
}

impl MethodRun {
    /// Measured total power (the paper's y-axis).
    pub fn total_power(&self) -> Watts {
        self.measurement.total_power
    }
}

/// The planner a scenario should build **once** and reuse for every run
/// against the same testbed: the planner publishes its solver engine as an
/// `Arc`-shared snapshot, so the consolidation index is built here — once,
/// eagerly — and every later load point, method, or *worker-thread clone*
/// queries the same published snapshot with no rebuild.
pub fn scenario_planner(testbed: &Testbed, options: &SweepOptions) -> Planner {
    let planner = Planner::with_guard(
        &testbed.profile.model,
        &testbed.profile.cooling.set_points,
        options.guard,
    );
    // Warm the engine before the planner is cloned across sweep workers; a
    // degenerate model surfaces as a planning error later, exactly as the
    // lazy path would report it.
    let _ = planner.warm_engine();
    planner
}

/// Applies `method` at `load_percent` to the testbed's room and measures
/// it, planning with a caller-owned planner (and therefore its memoized
/// solver engine); [`scenario_planner`] builds one per testbed.
///
/// # Errors
///
/// Returns [`PolicyError`] when the method cannot plan this load.
pub fn run_method_with(
    planner: &Planner,
    testbed: &mut Testbed,
    method: Method,
    load_percent: f64,
    options: &SweepOptions,
) -> Result<MethodRun, PolicyError> {
    let _span = telemetry::span("method_run")
        .attr("load_percent", load_percent)
        .record_into("coolopt_method_run_seconds");
    telemetry::counter("coolopt_method_runs_total").inc();
    let plan = planner.plan(method, testbed.load_from_percent(load_percent))?;

    let room = &mut testbed.room;
    room.apply_on_set(&plan.on);
    room.set_loads(&plan.loads)
        .expect("plans carry valid loads");
    room.set_set_point(plan.set_point);
    let measurement = SteadyMeasurement::collect(room, options.settle_max, options.window);

    let t_limit = testbed.profile.model.t_max() + TEMP_MARGIN;
    let temps_ok = measurement.max_cpu_temp <= t_limit;
    let throughput_ok = verify_throughput(&plan);

    Ok(MethodRun {
        plan,
        load_percent,
        measurement,
        temps_ok,
        throughput_ok,
    })
}

/// Checks that a weighted dispatcher realizes the plan's shares: after
/// dispatching a sizable batch, every machine's share of documents matches
/// its planned share of the load within 2 %.
fn verify_throughput(plan: &AllocationPlan) -> bool {
    let total = plan.total_load();
    if total <= 0.0 {
        return true; // nothing to serve
    }
    let loads = match LoadVector::new(plan.loads.clone()) {
        Ok(v) => v,
        Err(_) => return false,
    };
    let capacities = vec![Capacity::new(100.0); plan.loads.len()];
    let mut balancer = match LoadBalancer::new(&loads, &capacities) {
        Ok(b) => b,
        Err(_) => return false,
    };
    let doc = Document {
        id: 0,
        html: String::new(),
    };
    let n_docs = 5000;
    for _ in 0..n_docs {
        if balancer.dispatch(&doc).is_none() {
            return false;
        }
    }
    let stats = balancer.stats();
    plan.loads
        .iter()
        .enumerate()
        .all(|(i, &l)| (stats.share(i) - l / total).abs() < 0.02)
}

/// A key for looking up a run: method + load in tenths of a percent.
type RunKey = (Method, u32);

fn key(method: Method, load_percent: f64) -> RunKey {
    (method, (load_percent * 10.0).round() as u32)
}

/// All runs of an evaluation sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    runs: BTreeMap<u32, Vec<(Method, MethodRun)>>,
}

impl Sweep {
    /// The run of `method` at `load_percent`, if it was swept.
    pub fn get(&self, method: Method, load_percent: f64) -> Option<&MethodRun> {
        let (m, l) = key(method, load_percent);
        self.runs
            .get(&l)?
            .iter()
            .find(|(method, _)| *method == m)
            .map(|(_, run)| run)
    }

    /// The series (load %, total watts) of one method, load-ascending.
    pub fn series(&self, method: Method) -> Vec<(f64, f64)> {
        self.runs
            .values()
            .filter_map(|row| {
                row.iter()
                    .find(|(m, _)| *m == method)
                    .map(|(_, run)| (run.load_percent, run.total_power().as_watts()))
            })
            .collect()
    }

    /// Mean measured power of one method over all swept loads.
    pub fn mean_power(&self, method: Method) -> Option<Watts> {
        let series = self.series(method);
        if series.is_empty() {
            return None;
        }
        Some(Watts::new(
            series.iter().map(|(_, w)| w).sum::<f64>() / series.len() as f64,
        ))
    }

    /// Every run, for auditing.
    pub fn iter(&self) -> impl Iterator<Item = &MethodRun> {
        self.runs.values().flatten().map(|(_, run)| run)
    }

    /// Number of runs recorded.
    pub fn len(&self) -> usize {
        self.runs.values().map(Vec::len).sum()
    }

    /// `true` when the sweep holds no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Records a run (used by custom sweeps, e.g. the ablation studies).
    pub fn insert(&mut self, method: Method, load_percent: f64, run: MethodRun) {
        let (m, l) = key(method, load_percent);
        self.runs.entry(l).or_default().push((m, run));
    }
}

/// Runs every `(method, load)` combination on the testbed, load-major
/// (matching report ordering).
///
/// Each scenario runs on its own clone of the testbed's *entry* state,
/// taken when the scenario starts, so scenarios are independent of one
/// another and of execution order.
///
/// Methods that cannot plan a combination (e.g. infeasible corner) are
/// skipped rather than failing the sweep; [`Sweep::get`] then returns
/// `None` for them.
pub fn run_sweep(testbed: &mut Testbed, methods: &[Method], options: &SweepOptions) -> Sweep {
    let _span = telemetry::span("sweep")
        .attr("methods", methods.len())
        .record_into("coolopt_sweep_seconds");
    let planner = scenario_planner(testbed, options);
    let mut sweep = Sweep::default();
    for &percent in &options.load_percents {
        for &method in methods {
            let _scenario = telemetry::span("sweep_scenario");
            let mut tb = testbed.clone();
            if let Ok(run) = run_method_with(&planner, &mut tb, method, percent, options) {
                sweep.insert(method, percent, run);
            }
        }
    }
    telemetry::debug!(
        "harness",
        "sweep finished",
        scenarios = options.load_percents.len() * methods.len(),
        completed = sweep.len(),
    );
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> SweepOptions {
        SweepOptions {
            load_percents: vec![25.0, 75.0],
            settle_max: Seconds::new(3000.0),
            window: Seconds::new(40.0),
            ..SweepOptions::default()
        }
    }

    #[test]
    fn run_method_respects_constraints_and_measures() {
        let mut tb = Testbed::build_sized(4, 11).unwrap();
        let options = quick_options();
        let planner = scenario_planner(&tb, &options);
        let run = run_method_with(&planner, &mut tb, Method::numbered(8), 50.0, &options).unwrap();
        assert!(run.measurement.settled, "run did not settle");
        assert!(run.temps_ok, "max cpu {}", run.measurement.max_cpu_temp);
        assert!(run.throughput_ok);
        assert!(run.total_power().as_watts() > 500.0);
        assert!((run.plan.total_load() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sweep_collects_series_in_load_order() {
        let mut tb = Testbed::build_sized(4, 13).unwrap();
        let methods = [Method::numbered(1), Method::numbered(8)];
        let sweep = run_sweep(&mut tb, &methods, &quick_options());
        assert_eq!(sweep.len(), 4);
        assert!(!sweep.is_empty());
        let s = sweep.series(Method::numbered(1));
        assert_eq!(s.len(), 2);
        assert!(s[0].0 < s[1].0);
        // More load, more power — for every method.
        for m in methods {
            let s = sweep.series(m);
            assert!(s[1].1 > s[0].1, "{m}: power did not grow with load: {s:?}");
        }
        assert!(sweep.mean_power(Method::numbered(1)).is_some());
        assert!(sweep.get(Method::numbered(8), 25.0).is_some());
        assert!(sweep.get(Method::numbered(8), 60.0).is_none());
    }
}
