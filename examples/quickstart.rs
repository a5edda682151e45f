//! Quickstart: profile a simulated rack, compute the energy-optimal
//! operating point, apply it, and check what the instruments say.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use coolopt::alloc::{Method, Planner};
use coolopt::core::solve;
use coolopt::profiling::profile_room;
use coolopt::room::presets;
use coolopt::units::{Seconds, Temperature};
use coolopt::workload::{Capacity, DocumentGenerator, LoadBalancer, LoadVector};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-machine rack keeps the example fast; the evaluation binary
    // (`reproduce` in coolopt-experiments) runs the full 20-machine testbed.
    let mut room = presets::parametric_rack(8, 7);

    println!("profiling the rack (the paper's §IV-A staircases)…");
    let profile = profile_room(&mut room, Temperature::from_celsius(60.0))?;
    println!(
        "  power model   : {}  (r² = {:.4})",
        profile.model.power(),
        profile.power.r2
    );
    println!(
        "  cooling model : {}  (supply ceiling {:.1} °C)",
        profile.model.cooling(),
        profile.cooling.t_ac_max.as_celsius()
    );
    for (i, th) in profile.model.thermal_models().iter().enumerate() {
        println!("  machine {i}: {th}");
    }

    // Ask the optimizer for the cheapest way to serve 45 % of rack capacity.
    let total_load = 0.45 * room.len() as f64;
    let solution = solve(&profile.model, total_load)?;
    println!(
        "\noptimal plan for L = {total_load}: run {} of {} machines at T_ac = {}",
        solution.on.len(),
        room.len(),
        solution.t_ac
    );
    for (&i, &l) in solution.on.iter().zip(&solution.loads) {
        println!("  machine {i}: {:.1} % load", l * 100.0);
    }

    // Deploy through the policy layer (which adds the guard band and the
    // set-point calibration), let the room settle, and measure.
    let planner = Planner::new(&profile.model, &profile.cooling.set_points);
    let plan = planner.plan(Method::numbered(8), total_load)?;
    println!("\nplanner (with guard band) selects machines {:?}", plan.on);
    room.apply_on_set(&plan.on);
    room.set_loads(&plan.loads)?;
    room.set_set_point(plan.set_point);
    room.settle(Seconds::new(4000.0), 5.0);
    println!(
        "\ndeployed: set point {} → supply {}, total power {}",
        plan.set_point,
        room.air_state().supplies[0],
        room.total_power()
    );
    let hottest = room
        .servers()
        .iter()
        .map(|s| s.cpu_temp())
        .fold(coolopt::units::Temperature::ZERO, |a, b| a.max(b));
    println!("hottest CPU: {hottest} (limit {})", profile.model.t_max());

    // And actually run the batch workload through the load balancer.
    let loads = LoadVector::new(plan.loads.clone())?;
    let capacities = vec![Capacity::new(120.0); room.len()];
    let mut balancer = LoadBalancer::new(&loads, &capacities)?;
    let mut generator = DocumentGenerator::new(1, 80);
    let mut histogram = coolopt::workload::WordHistogram::new();
    for doc in generator.batch(2000) {
        if balancer.dispatch(&doc).is_some() {
            histogram.merge(&coolopt::workload::process_document(&doc));
        }
    }
    println!(
        "\nprocessed {} documents ({} distinct words); dispatch shares:",
        balancer.stats().total,
        histogram.distinct()
    );
    for i in 0..room.len() {
        println!(
            "  machine {i}: {:.1} % of stream",
            balancer.stats().share(i) * 100.0
        );
    }
    Ok(())
}
