//! The machine-room case study, condensed: profile the 20-machine testbed
//! and compare the paper's key methods at three load levels.
//!
//! The full evaluation (all methods × all loads × all figures) is the
//! `reproduce` binary in `coolopt-experiments`; this example trades
//! exhaustiveness for a ~1-minute runtime.
//!
//! ```text
//! cargo run --release --example machine_room_case_study
//! ```

use coolopt::alloc::Method;
use coolopt::experiments::{
    figures, render_figure, run_sweep, savings_summary, SweepOptions, Testbed,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building and profiling the 20-machine testbed…");
    let mut testbed = Testbed::build(42)?;
    println!(
        "  fitted: {} | cooling slope {:.0} W/K | ceiling {:.1} °C",
        testbed.profile.model.power(),
        testbed.profile.model.cooling().cf(),
        testbed.profile.cooling.t_ac_max.as_celsius(),
    );

    // The three-way comparison the paper's conclusions rest on:
    // naive practice (#1), the prior state of the art (#7), this paper (#8).
    let methods = [
        Method::numbered(1),
        Method::numbered(7),
        Method::numbered(8),
    ];
    let options = SweepOptions {
        load_percents: vec![20.0, 50.0, 80.0],
        ..SweepOptions::default()
    };
    println!(
        "sweeping {} methods × {} loads…",
        methods.len(),
        options.load_percents.len()
    );
    let sweep = run_sweep(&mut testbed, &methods, &options);

    println!("\n{}", render_figure(&figures::fig9(&sweep)));
    println!("        load    #1 Even      #7 Cool-alloc   #8 Optimal");
    for &pct in &options.load_percents {
        let p = |m: Method| {
            sweep
                .get(m, pct)
                .map(|r| format!("{:>9.1} W", r.total_power().as_watts()))
                .unwrap_or_else(|| "      -".into())
        };
        println!(
            "      {pct:>4.0} %  {}  {}  {}",
            p(methods[0]),
            p(methods[1]),
            p(methods[2])
        );
    }

    if let Some(s) = savings_summary(&sweep, Method::numbered(8), Method::numbered(7)) {
        println!("\nholistic optimum vs cool job allocation: {s}");
    }
    if let Some(s) = savings_summary(&sweep, Method::numbered(8), Method::numbered(1)) {
        println!("holistic optimum vs standard practice:   {s}");
    }

    // Constraint audit, as in the paper ("we also verified that the
    // temperature constraints were not violated for any of the CPUs").
    let bad = sweep
        .iter()
        .filter(|r| !r.temps_ok || !r.throughput_ok)
        .count();
    println!(
        "\nconstraint audit: {} of {} runs violated a constraint",
        bad,
        sweep.len()
    );
    Ok(())
}
