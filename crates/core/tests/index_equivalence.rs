//! Equivalence certification for the incremental index build: on random
//! fleets — including fleets engineered to produce *simultaneous* crossing
//! events — the incremental `O(n² log n)` builder must answer every query
//! exactly like the paper-literal `O(n³)` dense oracle, and the batched
//! query must equal the single query.

use coolopt_core::{ConsolidationIndex, PowerTerms};
use proptest::prelude::*;

/// Random well-conditioned particle pairs `(a, b)`.
fn pairs(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.1f64..30.0, 0.2f64..8.0), n)
}

/// Pairs on a dyadic grid (quarter steps): many particle pairs share exact
/// crossing times, so event groups pile up and the builder's re-sort
/// fallback is exercised rather than the lone-swap fast path.
fn gridded_pairs(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((1u32..60, 1u32..16), n).prop_map(|raw| {
        raw.iter()
            .map(|&(a, b)| (a as f64 * 0.25, b as f64 * 0.25))
            .collect()
    })
}

/// Compares the incremental build against the dense oracle on a sweep of
/// loads: same feasibility, same optimal power, same Algorithm 2 verdict.
fn assert_query_equivalent(pairs: &[(f64, f64)], terms: &PowerTerms) {
    let inc = ConsolidationIndex::build(pairs).unwrap();
    let dense = ConsolidationIndex::build_dense(pairs).unwrap();
    // The incremental build resolves ULP-separated near-tie events
    // individually where dense midpoint sampling smears them into one
    // snapshot, so it may see *more* orders — never fewer, and never more
    // than the combinatorial bound.
    assert!(inc.order_count() >= dense.order_count());
    let n = pairs.len();
    assert!(inc.order_count() <= 1 + n * (n - 1) / 2);
    assert_eq!(inc.len(), dense.len());
    let total_a: f64 = pairs.iter().map(|&(a, _)| a.max(0.0)).sum();
    for step in 0..=16 {
        // Sweep past Σa so the unservable region is covered too.
        let load = total_a * step as f64 / 14.0;
        let got = inc.query_min_power(terms, load, None).unwrap();
        let want = dense.query_min_power(terms, load, None).unwrap();
        match (&got, &want) {
            (None, None) => {}
            (Some(g), Some(w)) => assert!(
                (g.relative_power - w.relative_power).abs()
                    <= 1e-6 * (1.0 + w.relative_power.abs()),
                "load {load}: incremental {} ({:?}) vs dense {} ({:?})",
                g.relative_power,
                g.on,
                w.relative_power,
                w.on
            ),
            _ => panic!("load {load}: feasibility disagreement {got:?} vs {want:?}"),
        }
        let (on_inc, on_dense) = (inc.query_online(load), dense.query_online(load));
        assert_eq!(
            on_inc.is_some(),
            on_dense.is_some(),
            "load {load}: Algorithm 2 feasibility disagreement"
        );
        if let (Some(a), Some(b)) = (on_inc, on_dense) {
            // Algorithm 2 answers may differ in which feasible status the
            // search lands on only if lmax values tie; both must serve.
            let serve = |c: &coolopt_core::Consolidation| {
                c.on.iter().map(|&i| pairs[i].0).sum::<f64>() >= load - 1e-9
            };
            assert!(serve(&a) && serve(&b), "load {load}: answer cannot serve");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_build_is_query_equivalent_to_dense(
        pairs in pairs(2..12),
        w2 in 5.0f64..100.0,
        rho in 50.0f64..2000.0,
        cap in prop::option::of(0.5f64..8.0),
    ) {
        let terms = PowerTerms { w2, rho, t_cap: cap };
        assert_query_equivalent(&pairs, &terms);
    }

    #[test]
    fn equivalence_holds_with_simultaneous_crossing_events(
        pairs in gridded_pairs(2..10),
        w2 in 5.0f64..100.0,
        rho in 50.0f64..2000.0,
    ) {
        let terms = PowerTerms::unbounded(w2, rho);
        assert_query_equivalent(&pairs, &terms);
    }

    #[test]
    fn batched_query_equals_single_queries(
        pairs in pairs(2..12),
        loads in prop::collection::vec(0.0f64..20.0, 1..12),
        cap in prop::option::of(0.5f64..8.0),
    ) {
        let terms = PowerTerms { w2: 40.0, rho: 900.0, t_cap: cap };
        let index = ConsolidationIndex::build(&pairs).unwrap();
        let batch = index.query_batch(&terms, &loads, None).unwrap();
        for (&load, got) in loads.iter().zip(&batch) {
            let want = index.query_min_power(&terms, load, None).unwrap();
            prop_assert_eq!(got, &want, "load {} diverged from the single query", load);
        }
    }
}

/// A deterministic large-fleet spot check: epochs (re-seed boundaries) only
/// kick in past `max(n, 16)` event groups, so the proptest sizes above never
/// cross one — this fleet crosses many.
#[test]
fn equivalence_survives_epoch_boundaries() {
    let pairs: Vec<(f64, f64)> = (0..40)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(2654435761) % 9973) as f64 / 9973.0;
            let y = ((i as u64).wrapping_mul(6364136223846793005) % 9973) as f64 / 9973.0;
            (2.0 + 20.0 * x, 0.3 + 4.0 * y)
        })
        .collect();
    let terms = PowerTerms::unbounded(40.0, 900.0);
    assert_query_equivalent(&pairs, &terms);
}
