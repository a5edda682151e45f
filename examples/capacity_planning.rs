//! What-if planning on the fitted model: how do the temperature cap, rack
//! size and a degraded cooling unit change the optimal operating point?
//!
//! Model-level sweeps are instantaneous; one scenario is validated against
//! the simulator at the end.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use coolopt::core::{consolidated_power, solve};
use coolopt::profiling::profile_room;
use coolopt::room::presets;
use coolopt::units::{Seconds, TempDelta, Temperature};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut room = presets::parametric_rack(10, 3);
    println!("profiling a 10-machine rack…");
    let profile = profile_room(&mut room, Temperature::from_celsius(60.0))?;
    let model = profile.model.clone();
    let load = 5.0; // 50 % of the rack

    // --- Sweep the CPU temperature cap -------------------------------------
    println!("\nhow much does a tighter CPU limit cost? (L = {load})");
    println!("  T_max    machines on    T_ac        predicted total");
    for dt in [-4.0, -2.0, 0.0, 2.0, 4.0] {
        let what_if = model.with_t_max(model.t_max() + TempDelta::from_kelvin(dt));
        match solve(&what_if, load) {
            Ok(sol) => {
                let p = consolidated_power(&what_if, &sol);
                println!(
                    "  {:>5.1} °C   {:>4}          {:>8}   {:>10}",
                    what_if.t_max().as_celsius(),
                    sol.on.len(),
                    format!("{}", what_if.clamp_t_ac(sol.t_ac)),
                    format!("{}", p.total)
                );
            }
            Err(e) => println!(
                "  {:>5.1} °C   infeasible: {e}",
                what_if.t_max().as_celsius()
            ),
        }
    }

    // --- Degraded cooling: the supply ceiling drops -------------------------
    println!("\nwhat if the CRAC can only deliver colder supply ceilings?");
    for ceiling_c in [21.0, 18.0, 15.0, 12.0] {
        let what_if = model
            .clone()
            .with_t_ac_max(Temperature::from_celsius(ceiling_c));
        let sol = solve(&what_if, load)?;
        let p = consolidated_power(&what_if, &sol);
        println!(
            "  ceiling {ceiling_c:>4.1} °C → {} machines on, predicted {}",
            sol.on.len(),
            p.total
        );
    }

    // --- Load growth: when does the rack run out? ---------------------------
    println!("\nload growth on the current rack:");
    for pct in [30.0, 60.0, 90.0, 99.0] {
        let l = pct / 100.0 * model.len() as f64;
        match solve(&model, l) {
            Ok(sol) => println!(
                "  {pct:>4.0} % → {} machines on, T_ac = {}",
                sol.on.len(),
                model.clamp_t_ac(sol.t_ac)
            ),
            Err(e) => println!("  {pct:>4.0} % → infeasible: {e}"),
        }
    }

    // --- Validate one model prediction against the simulator ----------------
    let sol = solve(&model, load)?;
    let predicted = consolidated_power(&model, &sol);
    room.apply_on_set(&sol.on);
    room.set_loads(&sol.full_loads(room.len()))?;
    let t_target = model.clamp_t_ac(sol.t_ac);
    room.set_set_point(profile.cooling.set_points.set_point_for(t_target, load));
    room.settle(Seconds::new(4000.0), 5.0);
    println!(
        "\nvalidation at L = {load}: model predicts {}, simulator measures {}",
        predicted.total,
        room.total_power()
    );
    Ok(())
}
