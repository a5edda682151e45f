//! Certification of the hierarchical clustered index against the
//! paper-literal dense oracle: on random clustered fleets the refined
//! answers must stay within their own declared error certificate of the
//! exact minimum, and on identical-machine fleets they must reproduce the
//! flat index bit-for-bit.

use coolopt_core::{ConsolidationIndex, HierConfig, HierIndex, PowerTerms};
use proptest::prelude::*;

/// A clustered fleet: up to 4 machine classes of up to 5 members each,
/// with per-machine jitter up to `jit` on both coordinates (0 = identical
/// machines). Returns the pairs plus the jitter actually applied.
fn clustered_pairs(jit: f64) -> impl Strategy<Value = Vec<(f64, f64)>> {
    // The vendored proptest has no `prop_flat_map`, so the noise vector is
    // drawn at the 4-class × 5-member maximum and sliced to what the
    // sampled classes actually use.
    let classes = prop::collection::vec((0.5f64..25.0, 0.3f64..6.0, 1usize..6), 1..5);
    let noise = prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 20..21);
    (classes, noise).prop_map(move |(classes, noise)| {
        let mut pairs = Vec::new();
        let mut i = 0;
        for &(a, b, m) in &classes {
            for _ in 0..m {
                let (ua, ub) = noise[i];
                i += 1;
                pairs.push((a + jit * ua, b + jit * ub));
            }
        }
        pairs
    })
}

fn terms_strategy() -> impl Strategy<Value = PowerTerms> {
    (1.0f64..80.0, 50.0f64..2000.0, prop::option::of(0.5f64..8.0)).prop_map(|(w2, rho, cap)| {
        PowerTerms {
            w2,
            rho,
            t_cap: cap,
        }
    })
}

/// Sweeps a load range and asserts the hierarchical answer is within its
/// own declared certificate of the dense oracle's minimum.
fn assert_certified(pairs: &[(f64, f64)], terms: &PowerTerms, config: HierConfig) {
    let dense = ConsolidationIndex::build_dense(pairs).unwrap();
    let hier = HierIndex::build(pairs, config).unwrap();
    let total_a: f64 = pairs.iter().map(|&(a, _)| a.max(0.0)).sum();
    for step in 0..=12 {
        let load = total_a * step as f64 / 10.0;
        let exact = dense.query_min_power(terms, load, None).unwrap();
        let approx = hier.query_min_power_bounded(terms, load, None).unwrap();
        match (&exact, &approx) {
            (None, None) => {}
            (Some(e), Some((h, bound))) => {
                assert!(
                    (h.relative_power - e.relative_power).abs() <= *bound,
                    "load {load}: hier {} (k={}) vs exact {} (k={}) exceeds bound {bound} \
                     (eps_a={}, eps_b={})",
                    h.relative_power,
                    h.k,
                    e.relative_power,
                    e.k,
                    hier.eps_a(),
                    hier.eps_b(),
                );
                assert_eq!(h.on.len(), h.k);
                assert!(load <= h.k as f64 + 1e-9, "k machines must carry the load");
            }
            // The hierarchical scan may fail to certify feasibility only
            // through the boundary-slice granularity at loads the exact
            // index barely serves; never the other way around.
            (None, Some((h, _))) => {
                panic!("load {load}: hier found {h:?} where dense found none")
            }
            (Some(e), None) => {
                // Allow only razor-thin feasibility (t ≈ 0) misses.
                assert!(
                    e.t <= 1e-7,
                    "load {load}: hier missed a comfortably feasible answer {e:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Refined mode on jittered clusters: certified against the dense
    /// oracle across the whole load range.
    #[test]
    fn refined_answers_stay_within_their_certificate(
        pairs in clustered_pairs(1e-4),
        terms in terms_strategy(),
    ) {
        assert_certified(&pairs, &terms, HierConfig::auto(&pairs));
    }

    /// Exact clustering on identical-machine fleets reproduces the flat
    /// index bit-for-bit: same ON set in the same order, same `k`, same
    /// ratio and power to the last bit.
    #[test]
    fn identical_machines_pin_the_flat_index_bitwise(
        pairs in clustered_pairs(0.0),
        terms in terms_strategy(),
    ) {
        let flat = ConsolidationIndex::build(&pairs).unwrap();
        let hier = HierIndex::build(&pairs, HierConfig::exact()).unwrap();
        prop_assert!(hier.is_exact());
        let total_a: f64 = pairs.iter().map(|&(a, _)| a.max(0.0)).sum();
        for step in 0..=12 {
            let load = total_a * step as f64 / 10.0;
            let f = flat.query_min_power(&terms, load, None).unwrap();
            let h = hier.query_min_power(&terms, load, None).unwrap();
            prop_assert_eq!(f, h, "bitwise divergence at load {}", load);
        }
    }

    /// The batched hierarchical query equals the sequential one.
    #[test]
    fn hier_batch_equals_singles(
        pairs in clustered_pairs(1e-4),
        terms in terms_strategy(),
        loads in prop::collection::vec(0.0f64..30.0, 1..8),
    ) {
        let hier = HierIndex::build(&pairs, HierConfig::auto(&pairs)).unwrap();
        let batch = hier.query_batch(&terms, &loads, None).unwrap();
        for (i, &load) in loads.iter().enumerate() {
            let single = hier.query_min_power(&terms, load, None).unwrap();
            prop_assert_eq!(&batch[i], &single, "batch divergence at load {}", load);
        }
    }
}
