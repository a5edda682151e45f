//! The service correctness bar: coalescing must be invisible.
//!
//! Every answer a client receives through the admission/coalescing layer
//! must be bit-identical to what a sequential
//! [`IndexSnapshot::query_min_power`] against the tenant's published
//! snapshot returns — under concurrent submitters, mixed valid/invalid
//! loads, burst submissions, and mid-stream engine re-registration.
//!
//! [`IndexSnapshot::query_min_power`]: coolopt_core::IndexSnapshot::query_min_power

use coolopt_core::{snapshot::HIER_AUTO_THRESHOLD, IndexSnapshot, PowerTerms};
use coolopt_scenario::presets;
use coolopt_service::{CoalesceConfig, ServiceConfig, ServiceCore, ServiceError};
use proptest::prelude::*;
use std::sync::Arc;

fn small_model() -> (Vec<(f64, f64)>, PowerTerms) {
    let pairs = vec![
        (10.0, 7.0),
        (2.0, 3.0),
        (1.0, 2.0),
        (0.2, 1.34),
        (5.5, 4.1),
        (3.3, 2.2),
    ];
    (pairs, PowerTerms::unbounded(40.0, 900.0))
}

fn alternate_model() -> (Vec<(f64, f64)>, PowerTerms) {
    let pairs = vec![(8.0, 6.0), (2.5, 3.5), (1.5, 2.5), (0.4, 1.1)];
    (pairs, PowerTerms::unbounded(35.0, 800.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent submitters racing through one tenant's coalescer get
    /// answers bit-identical to the sequential reference path, load by
    /// load — including engine-level errors for negative loads.
    #[test]
    fn coalesced_answers_are_bit_identical_to_sequential(
        pairs in prop::collection::vec((0.5f64..20.0, 0.5f64..10.0), 1..24),
        w2 in 5.0f64..80.0,
        rho in 50.0f64..2000.0,
        loads in prop::collection::vec(-2.0f64..40.0, 8..64),
        threads in 2usize..5,
    ) {
        let core = ServiceCore::default();
        let terms = PowerTerms::unbounded(w2, rho);
        let tenant = core.register_parts("prop", &pairs, terms).unwrap();

        // Sequential reference, one engine, fixed for the whole test.
        let reference: Vec<_> = loads.iter().map(|&l| tenant.plan_sequential(l)).collect();

        let chunk = loads.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (slice, expected) in loads.chunks(chunk).zip(reference.chunks(chunk)) {
                let tenant = Arc::clone(&tenant);
                scope.spawn(move || {
                    // Alternate burst and single submissions.
                    let mut got = Vec::with_capacity(slice.len());
                    for (i, pair) in slice.chunks(2).enumerate() {
                        if i % 2 == 0 {
                            got.extend(tenant.submit(pair).unwrap());
                        } else {
                            for &load in pair {
                                got.push(tenant.submit_one(load).unwrap());
                            }
                        }
                    }
                    assert_eq!(got.len(), expected.len());
                    for (g, e) in got.iter().zip(expected) {
                        assert_eq!(g, e, "coalesced answer diverged from sequential");
                    }
                });
            }
        });
    }
}

/// A burst submitted alone becomes exactly one micro-batch: the stats
/// account one `query_batch` call carrying every load.
#[test]
fn burst_is_one_batch_and_stats_account_it() {
    let core = ServiceCore::default();
    let (pairs, terms) = small_model();
    core.register_parts("burst", &pairs, terms).unwrap();
    let loads: Vec<f64> = (0..16).map(|i| 0.25 * i as f64).collect();
    let results = core.submit("burst", &loads).unwrap();
    assert_eq!(results.len(), loads.len());
    let stats = core.stats().snapshot();
    assert_eq!(stats.plans, 16);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.shed, 0);
    assert!((stats.mean_batch_size() - 16.0).abs() < 1e-12);
    // One batch of 16 → bucket log2(16) = 4.
    assert_eq!(stats.batch_size_log2[4], 1);
}

/// Both engines serve through the coalescer at once: a 20-machine rack
/// (flat engine) takes 64-load bursts while a fleet past
/// [`HIER_AUTO_THRESHOLD`] (hier engine) takes single loads, from
/// concurrent threads. Every answer equals the tenant's sequential answer
/// and nothing is shed.
#[test]
fn flat_and_hier_tenants_serve_concurrently_without_shedding() {
    const ROUNDS: usize = 4;

    let core = ServiceCore::default();
    let rack = core
        .register_scenario(&presets::testbed_rack20(0))
        .unwrap()
        .remove(0);
    let fleet = core
        .register_scenario(&presets::large_fleet(24, 4096, 0))
        .unwrap()
        .remove(0);
    assert!(fleet.snapshot().unwrap().machine_count() > HIER_AUTO_THRESHOLD);

    let rack_loads: Vec<f64> = (0..64).map(|i| 0.3 * i as f64 + 0.1).collect();
    let fleet_loads: Vec<f64> = (1..=ROUNDS).map(|i| 800.0 * i as f64).collect();
    let rack_expected: Vec<_> = rack_loads
        .iter()
        .map(|&l| rack.plan_sequential(l))
        .collect();
    let fleet_expected: Vec<_> = fleet_loads
        .iter()
        .map(|&l| fleet.plan_sequential(l))
        .collect();
    assert!(fleet_expected.iter().all(|r| matches!(r, Ok(Some(_)))));

    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    assert_eq!(rack.submit(&rack_loads).unwrap(), rack_expected);
                }
            });
            scope.spawn(|| {
                for (&load, expected) in fleet_loads.iter().zip(&fleet_expected) {
                    assert_eq!(&fleet.submit_one(load).unwrap(), expected);
                }
            });
        }
    });

    let stats = core.stats().snapshot();
    assert_eq!(stats.plans, (2 * ROUNDS * (rack_loads.len() + 1)) as u64);
    assert_eq!(stats.shed, 0);
    // Rows are sorted by key: the fleet, then the rack.
    let engines: Vec<String> = core
        .stats_doc()
        .tenants
        .into_iter()
        .map(|row| row.engine)
        .collect();
    assert_eq!(engines, ["hier", "flat"]);
}

/// Backpressure sheds with an explicit error — never by silent truncation
/// or unbounded queueing — and the tenant keeps serving afterwards.
#[test]
fn overload_sheds_with_error_and_recovers() {
    let config = ServiceConfig {
        coalesce: CoalesceConfig {
            max_batch: 8,
            max_queued: 4,
        },
        ..ServiceConfig::default()
    };
    let core = ServiceCore::new(config);
    let (pairs, terms) = small_model();
    core.register_parts("tight", &pairs, terms).unwrap();

    // A burst larger than the queue bound is refused atomically.
    let burst: Vec<f64> = (0..8).map(|i| i as f64 * 0.3).collect();
    match core.submit("tight", &burst) {
        Err(ServiceError::Overloaded {
            tenant,
            queued,
            limit,
        }) => {
            assert_eq!(tenant, "tight");
            assert_eq!(limit, 4);
            assert!(queued > limit);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = core.stats().snapshot();
    assert_eq!(stats.shed, 8);
    assert!(stats.shed_rate() > 0.0);

    // Shedding refused the submission; it did not wedge the tenant.
    let ok = core.submit("tight", &[1.0, 2.0]).unwrap();
    assert_eq!(ok.len(), 2);
    assert!(ok[0].as_ref().unwrap().is_some());
}

/// A submission larger than one micro-batch is refused before admission:
/// nothing is shed, the SLO sees no attempt, and the tenant keeps serving.
#[test]
fn oversized_submission_is_refused_before_admission() {
    let config = ServiceConfig {
        coalesce: CoalesceConfig {
            max_batch: 8,
            ..CoalesceConfig::default()
        },
        ..ServiceConfig::default()
    };
    let core = ServiceCore::new(config);
    let (pairs, terms) = small_model();
    core.register_parts("tight", &pairs, terms).unwrap();

    let burst: Vec<f64> = (0..9).map(|i| i as f64 * 0.3).collect();
    match core.submit("tight", &burst) {
        Err(ServiceError::TooManyLoads {
            tenant,
            loads,
            limit,
        }) => {
            assert_eq!(tenant, "tight");
            assert_eq!(loads, 9);
            assert_eq!(limit, 8);
        }
        other => panic!("expected TooManyLoads, got {other:?}"),
    }
    assert_eq!(core.stats().snapshot().shed, 0);
    let verdict = core.get("tight").expect("registered").slo_verdict();
    assert_eq!(verdict.attempts, 0);
    assert!(!verdict.alerting);

    let served = core.submit("tight", &burst[..8]).unwrap();
    assert_eq!(served.len(), 8);
    assert!(served[1].as_ref().unwrap().is_some());
}

/// Unknown tenants are an explicit error.
#[test]
fn unknown_tenant_is_reported() {
    let core = ServiceCore::default();
    match core.submit_one("ghost", 1.0) {
        Err(ServiceError::UnknownTenant { tenant }) => assert_eq!(tenant, "ghost"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
}

/// Re-registration churn through the service: readers stream queries while
/// the writer swaps the tenant's engine between two models. Every answer
/// must be bit-identical to the sequential answer of *one* of the two
/// published engines (never a blend), and the generation counter must
/// advance exactly once per model change.
#[test]
fn reregistration_churn_never_blends_engines() {
    const ROUNDS: usize = 12;
    const PROBE: f64 = 1.5;

    let core = Arc::new(ServiceCore::default());
    let (pairs_a, terms_a) = small_model();
    let (pairs_b, terms_b) = alternate_model();

    let expect_a = IndexSnapshot::for_parts(&pairs_a, terms_a)
        .unwrap()
        .query_min_power(PROBE, None)
        .unwrap();
    let expect_b = IndexSnapshot::for_parts(&pairs_b, terms_b)
        .unwrap()
        .query_min_power(PROBE, None)
        .unwrap();
    assert_ne!(
        expect_a, expect_b,
        "churn test needs models that answer differently"
    );

    let tenant = core.register_parts("churn", &pairs_a, terms_a).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let core = Arc::clone(&core);
            let done = &done;
            let (expect_a, expect_b) = (&expect_a, &expect_b);
            scope.spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let answer = core.submit_one("churn", PROBE).unwrap().unwrap();
                    assert!(
                        &answer == expect_a || &answer == expect_b,
                        "answer matches neither published engine: {answer:?}"
                    );
                }
            });
        }

        for round in 1..=ROUNDS {
            let generation_before = tenant.generation();
            if round % 2 == 0 {
                core.register_parts("churn", &pairs_a, terms_a).unwrap();
            } else {
                core.register_parts("churn", &pairs_b, terms_b).unwrap();
            }
            assert_eq!(tenant.generation(), generation_before + 1);
        }
        done.store(true, std::sync::atomic::Ordering::Release);
    });

    // After churn settles the tenant answers like its final engine.
    let last = if ROUNDS.is_multiple_of(2) {
        expect_a
    } else {
        expect_b
    };
    assert_eq!(core.submit_one("churn", PROBE).unwrap().unwrap(), last);
    assert_eq!(tenant.generation(), (ROUNDS + 1) as u64);
}
