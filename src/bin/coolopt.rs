//! The `coolopt` command-line tool: profile a (simulated) machine room once,
//! persist the fitted profile, and answer planning queries against it.
//!
//! ```text
//! coolopt profile --machines 20 --seed 42 --out profile.json
//! coolopt solve   --profile profile.json --load 9.0
//! coolopt plan    --profile profile.json --method 8 --load-percent 45
//! coolopt methods
//! ```
//!
//! The tool speaks JSON on disk (`RoomProfile` from `coolopt-profiling`), so
//! a deployment against real hardware only needs to produce the same file.

use coolopt::alloc::{fig4_matrix, Method, Planner};
use coolopt::core::{consolidated_power, solve};
use coolopt::experiments::Testbed;
use coolopt::profiling::RoomProfile;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let result = match command.as_str() {
        "profile" => cmd_profile(&flags),
        "solve" => cmd_solve(&flags),
        "plan" => cmd_plan(&flags),
        "methods" => {
            print!("{}", fig4_matrix());
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
coolopt — joint optimization of computing and cooling energy

USAGE:
  coolopt profile --machines N [--seed S] --out FILE   profile a simulated rack
  coolopt solve   --profile FILE --load L              optimal ON-set + loads + T_ac
  coolopt plan    --profile FILE --method 1..8 --load-percent P[,P2,…]
  coolopt methods                                      list the paper's methods";

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if let Some(value) = iter.next() {
                flags.insert(name.to_string(), value.clone());
            }
        }
    }
    flags
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("could not parse {what} from `{value}`"))
}

fn load_profile(flags: &HashMap<String, String>) -> Result<RoomProfile, String> {
    let path = required(flags, "profile")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_profile(flags: &HashMap<String, String>) -> Result<(), String> {
    let machines: usize = parse(required(flags, "machines")?, "machine count")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse(s, "seed"))
        .transpose()?
        .unwrap_or(42);
    let out = required(flags, "out")?;

    eprintln!("building and profiling a {machines}-machine rack (seed {seed})…");
    let profile = Testbed::build_sized(machines, seed)
        .map_err(|e| e.to_string())?
        .profile;
    eprintln!(
        "fitted: {} | {} machines | supply ceiling {:.1} °C",
        profile.model.power(),
        profile.model.len(),
        profile.cooling.t_ac_max.as_celsius()
    );
    let json = serde_json::to_string_pretty(&profile).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn cmd_solve(flags: &HashMap<String, String>) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let load: f64 = parse(required(flags, "load")?, "load")?;
    let solution = solve(&profile.model, load).map_err(|e| e.to_string())?;
    let power = consolidated_power(&profile.model, &solution);
    println!(
        "optimal for L = {load}: {} of {} machines on, T_ac = {}",
        solution.on.len(),
        profile.model.len(),
        profile.model.clamp_t_ac(solution.t_ac)
    );
    for (&i, &l) in solution.on.iter().zip(&solution.loads) {
        println!("  machine {i:>3}: {:>5.1} %", l * 100.0);
    }
    println!(
        "predicted: computing {}, cooling {}, total {}",
        power.computing, power.cooling, power.total
    );
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let method_no: u8 = parse(required(flags, "method")?, "method number")?;
    if !(1..=8).contains(&method_no) {
        return Err(format!("method must be 1..=8, got {method_no}"));
    }
    let percents: Vec<f64> = required(flags, "load-percent")?
        .split(',')
        .map(|p| parse(p.trim(), "load percent"))
        .collect::<Result<_, _>>()?;

    // One planner for every requested load point: the consolidation index
    // is built on the first plan and reused as a pure query afterwards.
    let planner = Planner::new(&profile.model, &profile.cooling.set_points);
    let method = Method::numbered(method_no);
    for &percent in &percents {
        let load = percent / 100.0 * profile.model.len() as f64;
        let plan = planner.plan(method, load).map_err(|e| e.to_string())?;
        println!("{method} at {percent} % load (L = {load:.2}):");
        println!(
            "  machines on : {} of {}",
            plan.on.len(),
            profile.model.len()
        );
        println!("  set point   : {}", plan.set_point);
        println!("  T_ac target : {}", plan.t_ac_target);
        for (i, &l) in plan.loads.iter().enumerate() {
            if l > 0.0 {
                println!("  machine {i:>3}: {:>5.1} %", l * 100.0);
            }
        }
    }
    Ok(())
}
