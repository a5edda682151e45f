//! Property-based certification of the solver-engine refactor: a planner
//! that memoizes its engine must be indistinguishable from a fresh planner.

use coolopt::alloc::{Method, Planner};
use coolopt::cooling::SetPointTable;
use coolopt::model::{CoolingModel, PowerModel, RoomModel, ThermalModel};
use coolopt::units::{Temperature, Watts};
use proptest::prelude::*;

/// A small heterogeneous room, like the one `coolopt-core` certifies on.
fn sample_model(n: usize) -> RoomModel {
    let power = PowerModel::new(Watts::new(45.0), Watts::new(40.0)).unwrap();
    let thermal = (0..n)
        .map(|i| {
            let h = i as f64 / n.max(2) as f64;
            let alpha = 0.95 - 0.2 * h;
            let gamma = (290.0 + 4.0 * h) - alpha * 290.0;
            ThermalModel::new(alpha, 0.5 + 0.04 * h, gamma).unwrap()
        })
        .collect();
    let cooling = CoolingModel::new(1000.0, Temperature::from_celsius(45.0)).unwrap();
    RoomModel::new(power, thermal, cooling, Temperature::from_celsius(70.0))
        .unwrap()
        .with_t_ac_max(Temperature::from_celsius(20.0))
}

fn set_points() -> SetPointTable {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One memoized planner answering a stream of loads must produce the
    /// exact plans that a throwaway planner per load would.
    #[test]
    fn memoized_planner_plans_exactly_like_fresh_planners(
        load_fracs in prop::collection::vec(0.05f64..0.95, 2..6),
        method_no in 1u8..9,
    ) {
        let n = 8usize;
        let model = sample_model(n);
        let table = set_points();
        let memoized = Planner::new(&model, &table);
        let method = Method::numbered(method_no);
        for &frac in &load_fracs {
            let load = frac * n as f64;
            let fresh = Planner::new(&model, &table);
            match (memoized.plan(method, load), fresh.plan(method, load)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "feasibility disagreement at load {load}: {a:?} vs {b:?}"
                ),
            }
        }
    }
}
