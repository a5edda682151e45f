//! Multi-reader [`SnapshotCell`] behaviour: readers racing a publishing
//! writer always observe a published snapshot whose fingerprint belongs to
//! the published set, generations are monotone, and the generation counter
//! agrees with the telemetry swap counter.

use coolopt_core::{IndexSnapshot, ModelFingerprint, PowerTerms, SnapshotCell};
use coolopt_telemetry as telemetry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn pairs_for(round: usize) -> Vec<(f64, f64)> {
    vec![
        (10.0 + round as f64, 7.0),
        (2.0, 3.0),
        (1.0, 2.0),
        (0.2, 1.34),
    ]
}

fn terms() -> PowerTerms {
    PowerTerms::unbounded(40.0, 900.0)
}

#[test]
fn readers_race_swaps_without_tearing() {
    const ROUNDS: usize = 16;
    let cell = Arc::new(SnapshotCell::new());
    let fingerprints: Vec<ModelFingerprint> = (0..ROUNDS)
        .map(|r| ModelFingerprint::of_parts(&pairs_for(r), &terms()))
        .collect();
    let swaps_before = telemetry::counter("coolopt_snapshot_swaps_total").get();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let fingerprints = &fingerprints;
            let done = &done;
            scope.spawn(move || {
                let mut last_generation = 0;
                while !done.load(Ordering::Acquire) {
                    let generation_before = cell.generation();
                    let snapshot = cell.load();
                    let generation_after = cell.generation();
                    // Generations only move forward.
                    assert!(generation_before >= last_generation);
                    assert!(generation_after >= generation_before);
                    last_generation = generation_after;
                    if generation_before > 0 {
                        // Once anything was published, readers never see an
                        // empty cell, and what they see is a snapshot the
                        // writer actually published — fully built, queryable.
                        let snapshot = snapshot.expect("published cell never empties");
                        assert!(fingerprints.contains(&snapshot.fingerprint()));
                        assert!(snapshot.query_min_power(1.0, None).unwrap().is_some());
                    }
                }
            });
        }

        for (round, &fingerprint) in fingerprints.iter().enumerate() {
            let published = cell
                .ensure(fingerprint, || {
                    IndexSnapshot::for_parts(&pairs_for(round), terms())
                })
                .unwrap();
            assert_eq!(published.fingerprint(), fingerprint);
        }
        done.store(true, Ordering::Release);
    });

    // Every round used a fresh fingerprint, so every ensure() published:
    // the cell's generation counts exactly the publications, and the
    // global swap counter advanced at least as much (other tests in this
    // binary may publish concurrently, so exact equality is per-cell only).
    assert_eq!(cell.generation(), ROUNDS as u64);
    assert_eq!(cell.load().unwrap().fingerprint(), fingerprints[ROUNDS - 1]);
    let swapped = telemetry::counter("coolopt_snapshot_swaps_total").get() - swaps_before;
    assert!(swapped >= ROUNDS as u64);
}

/// Re-registration churn: a writer re-registers the same cell with a
/// *changed* fingerprint mid-stream while readers query continuously. No
/// reader may observe a torn snapshot — whatever `Arc` it loaded must
/// answer exactly like a from-scratch engine built for that snapshot's own
/// fingerprint — and the generation counter must be monotone, advancing by
/// exactly one per publication.
#[test]
fn reregistration_churn_yields_no_torn_snapshots() {
    const ROUNDS: usize = 24;
    const PROBE_LOADS: [f64; 3] = [0.5, 1.5, 3.0];
    let cell = Arc::new(SnapshotCell::new());

    // Reference answers per fingerprint, computed sequentially up front
    // from independent builds: the churn test then checks every answer a
    // reader gets against the reference of the fingerprint it saw.
    let mut reference = std::collections::HashMap::new();
    for round in 0..ROUNDS {
        let snapshot = IndexSnapshot::for_parts(&pairs_for(round), terms()).unwrap();
        let answers: Vec<_> = PROBE_LOADS
            .iter()
            .map(|&l| snapshot.query_min_power(l, None).unwrap())
            .collect();
        reference.insert(snapshot.fingerprint(), answers);
    }
    let reference = &reference;

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let cell = Arc::clone(&cell);
            let done = &done;
            scope.spawn(move || {
                let mut last_generation = 0;
                while !done.load(Ordering::Acquire) {
                    let generation = cell.generation();
                    assert!(generation >= last_generation, "generation went backwards");
                    last_generation = generation;
                    let Some(snapshot) = cell.load() else {
                        continue;
                    };
                    // The snapshot must be internally consistent: its
                    // fingerprint picks exactly one reference engine, and
                    // every probe answer must match that engine bit for
                    // bit. A torn publication (engine from one build,
                    // terms or fingerprint from another) fails here.
                    let expected = reference
                        .get(&snapshot.fingerprint())
                        .expect("reader saw a fingerprint that was never registered");
                    for (&load, want) in PROBE_LOADS.iter().zip(expected) {
                        let got = snapshot.query_min_power(load, None).unwrap();
                        assert_eq!(&got, want, "torn answer at load {load}");
                    }
                }
            });
        }

        for round in 0..ROUNDS {
            let fingerprint = ModelFingerprint::of_parts(&pairs_for(round), &terms());
            let generation_before = cell.generation();
            cell.ensure(fingerprint, || {
                IndexSnapshot::for_parts(&pairs_for(round), terms())
            })
            .unwrap();
            // Each round changes the fingerprint, so each ensure publishes
            // exactly once: generation advances by one, never more.
            assert_eq!(cell.generation(), generation_before + 1);
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(cell.generation(), ROUNDS as u64);
}

#[test]
fn hit_path_bumps_neither_generation_nor_swaps() {
    let cell = SnapshotCell::new();
    let fingerprint = ModelFingerprint::of_parts(&pairs_for(0), &terms());
    cell.ensure(fingerprint, || {
        IndexSnapshot::for_parts(&pairs_for(0), terms())
    })
    .unwrap();
    let generation = cell.generation();
    let hits_before = telemetry::counter("coolopt_snapshot_hits_total").get();
    for _ in 0..5 {
        cell.ensure(fingerprint, || panic!("hit path must not rebuild"))
            .unwrap();
    }
    assert_eq!(cell.generation(), generation);
    assert!(telemetry::counter("coolopt_snapshot_hits_total").get() >= hits_before + 5);
}
