//! Pins the committed `results/` to the code: the `reproduce` and
//! `ablation` binaries, run at seed 42, must print exactly
//! `results/reproduction_seed42.txt` and `results/ablation_seed42.txt`
//! and write exactly the committed `results/csv/*.csv`; `reproduce` on the
//! shipped two-zone document must print exactly
//! `results/two_zone_hetero.txt`; and `reproduce` on the shipped
//! `scenarios/testbed_rack20.json` (seed 0) must print exactly what the
//! code preset prints at seed 0.
//!
//! The figure text, savings lines and CSVs are deterministic (debug and
//! release builds print the same bytes), so any difference is a change to
//! the reproduction. If one is intended, regenerate the files with
//!
//! ```text
//! cargo run --release -p coolopt-experiments --bin reproduce -- 42 --quiet --csv results/csv \
//!     > results/reproduction_seed42.txt
//! cargo run --release -p coolopt-experiments --bin ablation -- 42 --quiet \
//!     > results/ablation_seed42.txt
//! cargo run --release -p coolopt-experiments --bin reproduce -- \
//!     --scenario scenarios/two_zone_hetero.json --quiet > results/two_zone_hetero.txt
//! ```
//!
//! The same runs also write the timing-bearing `telemetry_*.json`,
//! `trace_*.json` and `dashboard_*.html` into `results/`; those are not
//! committed (`.gitignore` lists them), and the runs here write theirs to
//! a temporary directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "coolopt-results-pinned-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `exe` with `args` and returns its stdout.
fn run(exe: &str, args: &[&str]) -> String {
    let output = Command::new(exe).args(args).output().expect("binary runs");
    assert!(
        output.status.success(),
        "{exe} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Asserts `actual` equals `expected`, naming `what` and the first
/// differing line.
fn assert_same(what: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{what} at line {}:\n  expected: {:?}\n  produced: {:?}",
        first + 1,
        expected.lines().nth(first),
        actual.lines().nth(first),
    );
}

/// Asserts `actual` equals the committed file.
fn assert_pinned(committed: &Path, actual: &str) {
    let expected = std::fs::read_to_string(committed)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", committed.display()));
    let what = format!("{} drifted from the code", committed.display());
    assert_same(&what, &expected, actual);
}

#[test]
fn reproduce_seed42_matches_committed_figures_and_csvs() {
    let dir = scratch_dir("reproduce");
    let csv = dir.join("csv");
    let stdout = run(
        env!("CARGO_BIN_EXE_reproduce"),
        &[
            "42",
            "--quiet",
            "--results",
            dir.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ],
    );
    assert_pinned(&results_dir().join("reproduction_seed42.txt"), &stdout);

    let committed_csv = results_dir().join("csv");
    let mut names: Vec<String> = std::fs::read_dir(&committed_csv)
        .expect("results/csv exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut written: Vec<String> = std::fs::read_dir(&csv)
        .expect("reproduce wrote csvs")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(names, written, "the set of figure csvs changed");
    for name in &names {
        let produced = std::fs::read_to_string(csv.join(name)).unwrap();
        assert_pinned(&committed_csv.join(name), &produced);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablation_seed42_matches_committed_text() {
    let dir = scratch_dir("ablation");
    let stdout = run(
        env!("CARGO_BIN_EXE_ablation"),
        &["42", "--quiet", "--results", dir.to_str().unwrap()],
    );
    assert_pinned(&results_dir().join("ablation_seed42.txt"), &stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_zone_hetero_matches_committed_table() {
    let dir = scratch_dir("two-zone");
    let scenario = scenarios_dir().join("two_zone_hetero.json");
    let stdout = run(
        env!("CARGO_BIN_EXE_reproduce"),
        &[
            "--scenario",
            scenario.to_str().unwrap(),
            "--quiet",
            "--results",
            dir.to_str().unwrap(),
        ],
    );
    assert_pinned(&results_dir().join("two_zone_hetero.txt"), &stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn testbed_rack20_document_prints_what_the_preset_prints() {
    let dir = scratch_dir("testbed-rack20");
    let results = dir.to_str().unwrap();
    let scenario = scenarios_dir().join("testbed_rack20.json");
    let from_document = run(
        env!("CARGO_BIN_EXE_reproduce"),
        &[
            "--scenario",
            scenario.to_str().unwrap(),
            "--quiet",
            "--results",
            results,
        ],
    );
    let from_preset = run(
        env!("CARGO_BIN_EXE_reproduce"),
        &["0", "--quiet", "--results", results],
    );
    assert!(!from_preset.is_empty());
    assert_same(
        "the testbed_rack20 document drifted from the preset",
        &from_preset,
        &from_document,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
