//! Turning a method + load into an executable allocation plan.

use crate::methods::{Method, Strategy};
use crate::strategies::{bottom_up_loads, coolness_order, even_loads};
use coolopt_cooling::SetPointTable;
use coolopt_core::{
    loads_for_t_ac, optimal_allocation_clamped, IndexSnapshot, ModelFingerprint, SnapshotCell,
    SolveError,
};
use coolopt_model::RoomModel;
use coolopt_telemetry as telemetry;
use coolopt_units::{TempDelta, Temperature};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Error from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// The requested load is outside `[0, n]`.
    LoadOutOfRange {
        /// Requested load.
        load: f64,
        /// Machines available.
        machines: usize,
    },
    /// The optimizer could not find a feasible operating point.
    Solve(SolveError),
    /// The plan needs air colder than the unit can supply.
    TooColdRequired {
        /// The supply temperature the constraints demand.
        required: Temperature,
        /// The coldest the unit delivers.
        floor: Temperature,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::LoadOutOfRange { load, machines } => {
                write!(f, "load {load} outside [0, {machines}]")
            }
            PolicyError::Solve(e) => write!(f, "optimizer failed: {e}"),
            PolicyError::TooColdRequired { required, floor } => write!(
                f,
                "constraints demand supply at {required} but the unit bottoms out at {floor}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

impl From<SolveError> for PolicyError {
    fn from(e: SolveError) -> Self {
        PolicyError::Solve(e)
    }
}

/// An executable operating decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationPlan {
    /// The scenario this plan realizes.
    pub method: Method,
    /// Machines to power on.
    pub on: Vec<usize>,
    /// Load fraction per machine (full room length; zero for OFF machines).
    pub loads: Vec<f64>,
    /// The supply temperature the plan aims for.
    pub t_ac_target: Temperature,
    /// The set point to command so the supply lands on target.
    pub set_point: Temperature,
}

impl AllocationPlan {
    /// Total planned load.
    pub fn total_load(&self) -> f64 {
        self.loads.iter().sum()
    }
}

/// Plans allocations for one profiled room.
///
/// Planning happens against a *guarded* copy of the model whose `T_max` sits
/// a guard band below the true limit: the fitted model carries a few kelvin
/// of error (the paper: "a few percent error"), and a deployment that plans
/// exactly to the limit would breach it whenever the model errs warm. The
/// guard applies to every method equally, so comparisons stay fair.
///
/// # Engine reuse and publication
///
/// The first consolidating `Optimal` plan builds the `O(n² log n)`
/// consolidation index and publishes it as an immutable, `Arc`-shared
/// [`IndexSnapshot`] in a [`SnapshotCell`] keyed by the guarded model's
/// [`ModelFingerprint`], so every later [`Planner::plan`] against the same
/// model is a pure index query with no rebuild. Swapping the model with
/// [`Planner::set_model`] only updates the cached fingerprint: the next
/// plan builds the replacement *outside* the cell's lock and swaps it in
/// atomically, so concurrent readers keep querying the old snapshot and
/// never block on a rebuild.
#[derive(Debug, Clone)]
pub struct Planner {
    model: RoomModel,
    set_points: SetPointTable,
    t_ac_floor: Temperature,
    guard: TempDelta,
    fingerprint: ModelFingerprint,
    engine: SnapshotCell,
}

/// Default guard band between the true `T_max` and the planning target.
pub const DEFAULT_GUARD: TempDelta = TempDelta::from_kelvin(2.0);

impl Planner {
    /// Creates a planner with an 8 °C supply floor (typical coil limit) and
    /// the default 2 K guard band.
    pub fn new(model: &RoomModel, set_points: &SetPointTable) -> Self {
        Self::with_guard(model, set_points, DEFAULT_GUARD)
    }

    /// Creates a planner with an explicit guard band.
    pub fn with_guard(model: &RoomModel, set_points: &SetPointTable, guard: TempDelta) -> Self {
        let guarded = model.with_t_max(model.t_max() - guard);
        Planner {
            fingerprint: ModelFingerprint::of_model(&guarded),
            model: guarded,
            set_points: set_points.clone(),
            t_ac_floor: Temperature::from_celsius(8.0),
            guard,
            engine: SnapshotCell::new(),
        }
    }

    /// Overrides the supply floor.
    pub fn with_floor(mut self, floor: Temperature) -> Self {
        self.t_ac_floor = floor;
        self
    }

    /// The (guarded) model this planner works from.
    pub fn model(&self) -> &RoomModel {
        &self.model
    }

    /// Fingerprint of the guarded model the published engine is keyed by.
    pub fn fingerprint(&self) -> ModelFingerprint {
        self.fingerprint
    }

    /// Replaces the planner's model (re-applying the guard band). The
    /// published solver snapshot is swapped out lazily, and only if the new
    /// model actually fingerprints differently — re-setting an identical
    /// model keeps the index.
    pub fn set_model(&mut self, model: &RoomModel) {
        let guarded = model.with_t_max(model.t_max() - self.guard);
        self.fingerprint = ModelFingerprint::of_model(&guarded);
        self.model = guarded;
    }

    /// The published engine snapshot, built (outside the publication lock)
    /// on first use or after a model swap. Readers holding the previous
    /// `Arc` keep querying it while the replacement builds.
    fn engine(&self) -> Result<Arc<IndexSnapshot>, SolveError> {
        self.engine
            .ensure(self.fingerprint, || IndexSnapshot::for_model(&self.model))
    }

    /// Builds and publishes the solver engine now (instead of lazily on the
    /// first consolidating `Optimal` plan), returning the snapshot. Useful
    /// to pay the offline phase at a chosen time — e.g. before handing
    /// clones of this planner to worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DegenerateModel`] for a degenerate model.
    pub fn warm_engine(&self) -> Result<Arc<IndexSnapshot>, SolveError> {
        self.engine()
    }

    /// Plans `method` for `total_load`: a [`Planner::plan_batch`] of one.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] for unservable loads or infeasible
    /// temperature constraints.
    pub fn plan(&self, method: Method, total_load: f64) -> Result<AllocationPlan, PolicyError> {
        self.plan_batch(method, std::slice::from_ref(&total_load))
            .pop()
            .expect("one plan per load")
    }

    /// Plans `method` for every load of `loads` (one result per input, in
    /// input order).
    ///
    /// Each load is validated once and finished through the same steps:
    /// ON-set and per-machine loads, then the cooling choice. For the
    /// consolidating `Optimal` method the ON-sets of all valid, positive
    /// loads come from one [`IndexSnapshot::query_batch`] call — sorted
    /// once, one walk over the index's per-`k` envelopes for the whole
    /// batch — which is markedly cheaper than a query per load for e.g. a
    /// replay over a load trace.
    pub fn plan_batch(
        &self,
        method: Method,
        loads: &[f64],
    ) -> Vec<Result<AllocationPlan, PolicyError>> {
        let mut span = telemetry::span("plan").attr("loads", loads.len());
        let n = self.model.len();
        let in_range = |load: f64| load.is_finite() && load >= 0.0 && load <= n as f64 + 1e-9;
        let queries_engine =
            |load: f64| method.strategy == Strategy::Optimal && method.consolidation && load > 0.0;
        let queried: Vec<f64> = loads
            .iter()
            .copied()
            .filter(|&load| in_range(load) && queries_engine(load))
            .collect();
        let answers: Vec<Result<Vec<usize>, SolveError>> = if queried.is_empty() {
            Vec::new()
        } else {
            match self
                .engine()
                .and_then(|engine| engine.query_batch(&queried, Some(&self.model)))
            {
                Ok(answers) => answers
                    .into_iter()
                    .map(|answer| {
                        answer.map(|c| c.on).ok_or_else(|| SolveError::Infeasible {
                            reason: "no subset can carry this load within capacity".to_string(),
                        })
                    })
                    .collect(),
                Err(e) => vec![Err(e); queried.len()],
            }
        };
        let mut answers = answers.into_iter();
        let results: Vec<Result<AllocationPlan, PolicyError>> = loads
            .iter()
            .map(|&load| {
                if !in_range(load) {
                    return Err(PolicyError::LoadOutOfRange { load, machines: n });
                }
                let optimal_on = queries_engine(load)
                    .then(|| answers.next().expect("one answer per queried load"));
                let (on, loads) = self.distribute(method, load, optimal_on)?;
                let (t_ac_target, set_point) = self.choose_cooling(method, &on, &loads, load)?;
                Ok(AllocationPlan {
                    method,
                    on,
                    loads,
                    t_ac_target,
                    set_point,
                })
            })
            .collect();
        let failures = results.iter().filter(|r| r.is_err()).count();
        span.set_attr("failures", failures);
        telemetry::counter("coolopt_plans_total").add(results.len() as u64);
        telemetry::counter("coolopt_plan_failures_total").add(failures as u64);
        results
    }

    /// Chooses the ON-set and the per-machine loads. `optimal_on` is the
    /// engine's answer for a consolidating `Optimal` plan of a positive
    /// load, and `None` for every other plan.
    fn distribute(
        &self,
        method: Method,
        total_load: f64,
        optimal_on: Option<Result<Vec<usize>, SolveError>>,
    ) -> Result<(Vec<usize>, Vec<f64>), PolicyError> {
        let n = self.model.len();
        // Only the non-consolidating branches turn every machine on; built
        // lazily so the hot consolidating path does not allocate it.
        let all = || (0..n).collect::<Vec<usize>>();
        match (method.strategy, method.consolidation) {
            (Strategy::Even, false) => Ok((all(), even_loads(n, total_load))),
            (Strategy::Even, true) => {
                // Minimum machine count, coolest spots first, even within.
                let k = (total_load.ceil() as usize).clamp(usize::from(total_load > 0.0), n);
                let on: Vec<usize> = coolness_order(&self.model).into_iter().take(k).collect();
                let mut loads = vec![0.0; n];
                for &i in &on {
                    loads[i] = total_load / k.max(1) as f64;
                }
                Ok((on, loads))
            }
            (Strategy::SeparateOpt, _) => {
                // Computing-only optimum: fewest machines, picked by slot
                // index (thermally blind), loaded evenly. The strategy
                // implies consolidation — that *is* the computing optimum;
                // cooling is then minimized separately for whatever thermal
                // situation results.
                let k = (total_load.ceil() as usize).clamp(usize::from(total_load > 0.0), n);
                let on: Vec<usize> = (0..k).collect();
                let mut loads = vec![0.0; n];
                for &i in &on {
                    loads[i] = total_load / k.max(1) as f64;
                }
                Ok((on, loads))
            }
            (Strategy::BottomUp, cons) => {
                let loads = bottom_up_loads(&self.model, total_load);
                let on = if cons {
                    loads
                        .iter()
                        .enumerate()
                        .filter(|(_, &l)| l > 0.0)
                        .map(|(i, _)| i)
                        .collect()
                } else {
                    all()
                };
                Ok((on, loads))
            }
            (Strategy::Optimal, cons) => {
                let on = match optimal_on {
                    Some(on) => on?,
                    // A zero load consolidates onto no machine.
                    None if cons => Vec::new(),
                    None => all(),
                };
                let loads = self.optimal_loads(&on, total_load)?;
                Ok((on, loads))
            }
        }
    }

    /// The closed-form optimal per-machine loads for a fixed ON-set,
    /// falling back to the capped-temperature redistribution when the
    /// actuator cannot reach the model-optimal supply.
    fn optimal_loads(&self, on: &[usize], total_load: f64) -> Result<Vec<f64>, PolicyError> {
        let n = self.model.len();
        if on.is_empty() {
            return Ok(vec![0.0; n]);
        }
        let solution = optimal_allocation_clamped(&self.model, on, total_load)?;
        let mut full = solution.full_loads(n);
        // If the actuator cannot reach the model-optimal supply
        // temperature, redistribute for the capped temperature
        // (power-equivalent; keeps headroom balanced).
        if let Some(cap) = self.model.t_ac_max() {
            if solution.t_ac > cap {
                let capped = loads_for_t_ac(&self.model, on, total_load, cap)?;
                for (&i, &l) in on.iter().zip(&capped) {
                    full[i] = l;
                }
            }
        }
        Ok(full)
    }

    /// Highest supply temperature keeping every ON machine at or below
    /// `T_max` for the given loads (Eq. 8 solved for `T_ac`).
    fn safe_t_ac(&self, on: &[usize], loads: &[f64]) -> Temperature {
        let mut t = f64::INFINITY;
        for &i in on {
            let th = self.model.thermal(i);
            let p = self.model.power().predict(loads[i]);
            let cap = (self.model.t_max().as_kelvin() - th.beta() * p.as_watts() - th.gamma())
                / th.alpha();
            t = t.min(cap);
        }
        Temperature::from_kelvin(t)
    }

    /// Picks the target supply temperature and the set point realizing it.
    fn choose_cooling(
        &self,
        method: Method,
        on: &[usize],
        loads: &[f64],
        total_load: f64,
    ) -> Result<(Temperature, Temperature), PolicyError> {
        let n = self.model.len();
        let (t_ac, table_load) = if method.ac_control {
            // As warm as the *current* loads allow.
            let safe = if on.is_empty() {
                Temperature::from_kelvin(f64::INFINITY)
            } else {
                self.safe_t_ac(on, loads)
            };
            (self.model.clamp_t_ac(safe), total_load)
        } else {
            // Static setting: safe even when all machines run flat out; the
            // set point is then left alone for every load.
            let all: Vec<usize> = (0..n).collect();
            let safe = self.safe_t_ac(&all, &vec![1.0; n]);
            (self.model.clamp_t_ac(safe), n as f64)
        };

        if !t_ac.as_kelvin().is_finite() {
            // No constraint at all (empty ON-set): aim at the ceiling.
            let ceiling = self
                .model
                .t_ac_max()
                .unwrap_or(Temperature::from_celsius(20.0));
            return Ok((ceiling, self.set_points.set_point_for(ceiling, table_load)));
        }
        if t_ac < self.t_ac_floor {
            return Err(PolicyError::TooColdRequired {
                required: t_ac,
                floor: self.t_ac_floor,
            });
        }
        Ok((t_ac, self.set_points.set_point_for(t_ac, table_load)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_model::{CoolingModel, PowerModel, ThermalModel};
    use coolopt_units::Watts;

    fn model(n: usize) -> RoomModel {
        let power = PowerModel::new(Watts::new(45.0), Watts::new(40.0)).unwrap();
        let thermal = (0..n)
            .map(|i| {
                let h = i as f64 / n.max(2) as f64;
                let alpha = 0.95 - 0.2 * h;
                let gamma = (290.0 + 4.0 * h) - alpha * 290.0;
                ThermalModel::new(alpha, 0.5 + 0.04 * h, gamma).unwrap()
            })
            .collect();
        let cooling = CoolingModel::new(400.0, Temperature::from_celsius(40.0)).unwrap();
        RoomModel::new(power, thermal, cooling, Temperature::from_celsius(63.0))
            .unwrap()
            .with_t_ac_max(Temperature::from_celsius(20.0))
    }

    fn table() -> SetPointTable {
        SetPointTable::from_measurements(&[
            (
                1.0,
                Temperature::from_celsius(20.0),
                Temperature::from_celsius(18.5),
            ),
            (
                4.0,
                Temperature::from_celsius(20.0),
                Temperature::from_celsius(17.5),
            ),
            (
                8.0,
                Temperature::from_celsius(20.0),
                Temperature::from_celsius(16.0),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn all_methods_plan_and_conserve_load() {
        let m = model(8);
        let t = table();
        let planner = Planner::new(&m, &t);
        for method in Method::all() {
            for load in [0.5, 2.0, 5.0, 7.5] {
                let plan = planner
                    .plan(method, load)
                    .unwrap_or_else(|e| panic!("{method} failed at load {load}: {e}"));
                assert!(
                    (plan.total_load() - load).abs() < 1e-6,
                    "{method} lost load: {} vs {load}",
                    plan.total_load()
                );
                for &l in &plan.loads {
                    assert!((0.0..=1.0 + 1e-9).contains(&l));
                }
                // OFF machines carry nothing.
                for (i, &l) in plan.loads.iter().enumerate() {
                    if l > 0.0 {
                        assert!(plan.on.contains(&i), "{method}: load on OFF machine {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn consolidation_turns_machines_off_at_low_load() {
        let m = model(8);
        let t = table();
        let planner = Planner::new(&m, &t);
        for method in [
            Method::numbered(3),
            Method::numbered(7),
            Method::numbered(8),
        ] {
            let plan = planner.plan(method, 1.5).unwrap();
            assert!(plan.on.len() < 8, "{method} kept everything on at low load");
        }
        for method in [
            Method::numbered(1),
            Method::numbered(4),
            Method::numbered(6),
        ] {
            let plan = planner.plan(method, 1.5).unwrap();
            assert_eq!(plan.on.len(), 8, "{method} must keep all machines on");
        }
    }

    #[test]
    fn ac_control_runs_warmer_at_low_load() {
        let m = model(8);
        let t = table();
        let planner = Planner::new(&m, &t);
        // Static method: same set point at every load.
        let s1 = planner.plan(Method::numbered(2), 1.0).unwrap();
        let s2 = planner.plan(Method::numbered(2), 7.0).unwrap();
        assert_eq!(s1.set_point, s2.set_point);
        // Controlled method: warmer target at lower load (or both capped).
        let c1 = planner.plan(Method::numbered(6), 1.0).unwrap();
        let c2 = planner.plan(Method::numbered(6), 7.5).unwrap();
        assert!(c1.t_ac_target >= c2.t_ac_target);
        // And never above the actuator ceiling.
        assert!(c1.t_ac_target <= Temperature::from_celsius(20.0));
        // The static choice is never warmer than the controlled one.
        assert!(s1.t_ac_target <= c1.t_ac_target);
    }

    #[test]
    fn optimal_beats_baselines_in_predicted_power() {
        let m = model(8);
        let t = table();
        let planner = Planner::new(&m, &t);
        let predicted = |plan: &AllocationPlan| {
            let computing: f64 = plan
                .on
                .iter()
                .map(|&i| m.power().predict(plan.loads[i]).as_watts())
                .sum();
            computing + m.cooling().predict(plan.t_ac_target).as_watts()
        };
        for load in [2.0, 4.0, 6.0] {
            let p6 = predicted(&planner.plan(Method::numbered(6), load).unwrap());
            let p4 = predicted(&planner.plan(Method::numbered(4), load).unwrap());
            let p5 = predicted(&planner.plan(Method::numbered(5), load).unwrap());
            assert!(
                p6 <= p4 + 1e-6 && p6 <= p5 + 1e-6,
                "load {load}: optimal {p6} vs even {p4} vs bottom-up {p5}"
            );
            let p8 = predicted(&planner.plan(Method::numbered(8), load).unwrap());
            let p7 = predicted(&planner.plan(Method::numbered(7), load).unwrap());
            assert!(p8 <= p7 + 1e-6, "load {load}: #8 {p8} vs #7 {p7}");
        }
    }

    #[test]
    fn zero_load_is_planned_gracefully() {
        let m = model(4);
        let t = table();
        let planner = Planner::new(&m, &t);
        let cons = planner.plan(Method::numbered(8), 0.0).unwrap();
        assert!(cons.on.is_empty());
        assert_eq!(cons.total_load(), 0.0);
        let no_cons = planner.plan(Method::numbered(4), 0.0).unwrap();
        assert_eq!(no_cons.on.len(), 4);
    }

    #[test]
    fn batched_plans_equal_sequential_plans() {
        let m = model(8);
        let t = table();
        let planner = Planner::new(&m, &t);
        // Unsorted, with duplicates, a zero, an out-of-range and an
        // unservable-by-capacity load.
        let loads = [2.0, 0.5, 7.5, 2.0, 0.0, 9.5, 5.25];
        for method in Method::all() {
            let batch = planner.plan_batch(method, &loads);
            assert_eq!(batch.len(), loads.len());
            for (&load, got) in loads.iter().zip(&batch) {
                let want = planner.plan(method, load);
                assert_eq!(got, &want, "{method} at load {load} diverged from plan()");
            }
        }
    }

    #[test]
    fn warm_engine_prebuilds_and_is_reused() {
        let m = model(6);
        let t = table();
        let planner = Planner::new(&m, &t);
        let snap = planner.warm_engine().unwrap();
        let again = planner.warm_engine().unwrap();
        assert!(std::sync::Arc::ptr_eq(&snap, &again));
        // Clones share the published snapshot (no rebuild).
        let clone = planner.clone();
        assert!(std::sync::Arc::ptr_eq(&snap, &clone.warm_engine().unwrap()));
    }

    #[test]
    fn set_model_swaps_the_engine_only_on_real_change() {
        let m = model(6);
        let t = table();
        let mut planner = Planner::new(&m, &t);
        let snap = planner.warm_engine().unwrap();
        planner.set_model(&m); // identical model → same fingerprint
        assert!(std::sync::Arc::ptr_eq(
            &snap,
            &planner.warm_engine().unwrap()
        ));
        planner.set_model(&model(7));
        let swapped = planner.warm_engine().unwrap();
        assert!(!std::sync::Arc::ptr_eq(&snap, &swapped));
        // The old snapshot still serves readers that hold it.
        assert!(snap.query_min_power(1.0, None).unwrap().is_some());
    }

    #[test]
    fn invalid_loads_are_rejected() {
        let m = model(4);
        let t = table();
        let planner = Planner::new(&m, &t);
        assert!(matches!(
            planner.plan(Method::numbered(1), 4.5),
            Err(PolicyError::LoadOutOfRange { .. })
        ));
        assert!(planner.plan(Method::numbered(1), f64::NAN).is_err());
    }
}
