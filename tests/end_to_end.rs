//! End-to-end integration: profile → plan → deploy → measure, across the
//! crate boundaries, on a small rack.

use coolopt::alloc::{Method, Planner};
use coolopt::core::{consolidated_power, solve};
use coolopt::profiling::profile_room;
use coolopt::room::presets;
use coolopt::units::{Seconds, Temperature};

const T_MAX: Temperature = Temperature::from_celsius(60.0);

#[test]
fn profile_plan_deploy_measure() {
    let mut room = presets::parametric_rack(5, 101);
    let profile = profile_room(&mut room, T_MAX).expect("profiling the preset rack succeeds");

    let planner = Planner::new(&profile.model, &profile.cooling.set_points);
    let plan = planner
        .plan(Method::numbered(8), 2.5)
        .expect("planning 50 % load succeeds");

    room.apply_on_set(&plan.on);
    room.set_loads(&plan.loads).expect("plan loads are valid");
    room.set_set_point(plan.set_point);
    assert!(room.settle(Seconds::new(5000.0), 5.0), "deployment settles");

    // Temperature constraint: every CPU below the cap.
    let t_max = profile.model.t_max();
    for server in room.servers() {
        assert!(
            server.cpu_temp() <= t_max,
            "{} runs at {} over the {} cap",
            server.id(),
            server.cpu_temp(),
            t_max
        );
    }

    // The realized supply temperature lands near the plan's target.
    let t_supply = room.air_state().supplies[0];
    assert!(
        (t_supply - plan.t_ac_target).abs().as_kelvin() < 1.5,
        "supply {} far from target {}",
        t_supply,
        plan.t_ac_target
    );

    // Throughput: the load actually served equals the request.
    let served: f64 = room.servers().iter().map(|s| s.effective_load()).sum();
    assert!((served - 2.5).abs() < 1e-9, "served {served} of 2.5");
}

#[test]
fn model_prediction_tracks_simulator_measurement() {
    let mut room = presets::parametric_rack(5, 103);
    let profile = profile_room(&mut room, T_MAX).unwrap();
    let model = &profile.model;

    let solution = solve(model, 2.0).expect("solvable load");
    let predicted = consolidated_power(model, &solution);

    room.apply_on_set(&solution.on);
    room.set_loads(&solution.full_loads(room.len())).unwrap();
    let target = model.clamp_t_ac(solution.t_ac);
    room.set_set_point(profile.cooling.set_points.set_point_for(target, 2.0));
    assert!(room.settle(Seconds::new(5000.0), 5.0));

    let measured = room.total_power().as_watts();
    let rel_err = (predicted.total.as_watts() - measured).abs() / measured;
    assert!(
        rel_err < 0.12,
        "model {} vs simulator {measured} W ({:.1} % off)",
        predicted.total,
        rel_err * 100.0
    );
}

#[test]
fn optimal_beats_even_on_the_simulator_not_just_on_paper() {
    let measure = |method: Method| {
        let mut room = presets::parametric_rack(5, 107);
        let profile = profile_room(&mut room, T_MAX).unwrap();
        let planner = Planner::new(&profile.model, &profile.cooling.set_points);
        let plan = planner.plan(method, 2.0).unwrap();
        room.apply_on_set(&plan.on);
        room.set_loads(&plan.loads).unwrap();
        room.set_set_point(plan.set_point);
        assert!(room.settle(Seconds::new(5000.0), 5.0));
        room.total_power().as_watts()
    };
    let even = measure(Method::numbered(1));
    let optimal = measure(Method::numbered(8));
    assert!(
        optimal < even * 0.95,
        "holistic optimum ({optimal} W) should clearly beat static even ({even} W)"
    );
}
