//! Profiles survive disk round trips: a deployment profiles once, saves the
//! JSON, and plans against the loaded copy forever after (the contract the
//! `coolopt` CLI relies on).

use coolopt::alloc::{Method, Planner};
use coolopt::profiling::{profile_room, RoomProfile};
use coolopt::room::presets;
use coolopt::units::Temperature;

#[test]
fn profile_round_trips_through_json_and_plans_identically() {
    let mut room = presets::parametric_rack(4, 201);
    let profile = profile_room(&mut room, Temperature::from_celsius(60.0)).unwrap();

    let json = serde_json::to_string(&profile).expect("profile serializes");
    let restored: RoomProfile = serde_json::from_str(&json).expect("profile deserializes");
    assert_eq!(profile.model, restored.model);
    assert_eq!(profile.cooling.set_points, restored.cooling.set_points);
    assert_eq!(profile.records.len(), restored.records.len());

    // Plans from the original and the restored profile are identical.
    let plan_a = Planner::new(&profile.model, &profile.cooling.set_points)
        .plan(Method::numbered(8), 2.0)
        .unwrap();
    let plan_b = Planner::new(&restored.model, &restored.cooling.set_points)
        .plan(Method::numbered(8), 2.0)
        .unwrap();
    assert_eq!(plan_a, plan_b);
}

#[test]
fn the_cli_binary_round_trips_a_profile() {
    // Drive the actual `coolopt` binary end to end (profile → solve → plan).
    let exe = env!("CARGO_BIN_EXE_coolopt");
    let dir = std::env::temp_dir().join(format!("coolopt-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile_path = dir.join("profile.json");

    let run = |args: &[&str]| {
        let output = std::process::Command::new(exe)
            .args(args)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "coolopt {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).to_string()
    };

    run(&[
        "profile",
        "--machines",
        "3",
        "--seed",
        "7",
        "--out",
        profile_path.to_str().unwrap(),
    ]);
    assert!(profile_path.exists());

    let solved = run(&[
        "solve",
        "--profile",
        profile_path.to_str().unwrap(),
        "--load",
        "1.5",
    ]);
    assert!(solved.contains("optimal for L = 1.5"), "output: {solved}");
    assert!(solved.contains("predicted"), "output: {solved}");

    let planned = run(&[
        "plan",
        "--profile",
        profile_path.to_str().unwrap(),
        "--method",
        "8",
        "--load-percent",
        "50",
    ]);
    assert!(planned.contains("set point"), "output: {planned}");

    let methods = run(&["methods"]);
    assert!(methods.contains("Optimal"));

    // Bad invocations fail with a message, not a panic.
    let bad = std::process::Command::new(exe)
        .args([
            "plan",
            "--profile",
            profile_path.to_str().unwrap(),
            "--method",
            "9",
            "--load-percent",
            "10",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("method"));

    std::fs::remove_dir_all(&dir).ok();
}
