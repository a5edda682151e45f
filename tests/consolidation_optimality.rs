//! Property-based certification of the consolidation machinery: on random
//! instances, the polynomial-time index must agree with brute force, and the
//! kinetic-particle structure must respect its combinatorial bounds.

use coolopt::core::brute::{brute_force_select, brute_force_subsets};
use coolopt::core::{optimal_allocation_clamped, ConsolidationIndex, ParticleSystem, PowerTerms};
use coolopt::model::{CoolingModel, PowerModel, RoomModel, ThermalModel};
use coolopt::units::{Temperature, Watts};
use proptest::prelude::*;

/// Random well-conditioned particle pairs `(a, b)`.
fn pairs(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.1f64..30.0, 0.2f64..8.0), n)
}

/// Random rooms of 3–8 machines for the capacity-aware query: per machine
/// `(α, β, T_in)` with `γ = T_in − α·290 K`, and a `T_ac` ceiling on half
/// of the rooms.
fn capacity_room() -> impl Strategy<Value = RoomModel> {
    (
        prop::collection::vec((0.6f64..1.0, 0.3f64..0.7, 288.0f64..296.0), 3..9),
        (30.0f64..60.0, 30.0f64..70.0),                   // w1, w2 (W)
        (300.0f64..1500.0, 40.0f64..48.0, 60.0f64..75.0), // cf (W/K), T_SP, T_max (°C)
        (0.0f64..1.0, 18.0f64..26.0),                     // ceiling coin, T_ac ceiling (°C)
    )
        .prop_map(|(machines, (w1, w2), (cf, t_sp, t_max), (coin, ceiling))| {
            let power = PowerModel::new(Watts::new(w1), Watts::new(w2)).unwrap();
            let thermal = machines
                .iter()
                .map(|&(alpha, beta, t_in)| {
                    ThermalModel::new(alpha, beta, t_in - alpha * 290.0).unwrap()
                })
                .collect();
            let cooling = CoolingModel::new(cf, Temperature::from_celsius(t_sp)).unwrap();
            let room =
                RoomModel::new(power, thermal, cooling, Temperature::from_celsius(t_max)).unwrap();
            if coin < 0.5 {
                room.with_t_ac_max(Temperature::from_celsius(ceiling))
            } else {
                room
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_brute_force_on_random_instances(
        pairs in pairs(2..9),
        load_frac in 0.0f64..0.9,
        w2 in 5.0f64..100.0,
        rho in 50.0f64..2000.0,
    ) {
        let total_a: f64 = pairs.iter().map(|&(a, _)| a).sum();
        let load = load_frac * total_a.min(pairs.len() as f64);
        let terms = PowerTerms::unbounded(w2, rho);
        let index = ConsolidationIndex::build(&pairs).unwrap();
        let got = index.query_min_power(&terms, load, None).unwrap();
        let want = brute_force_subsets(&pairs, &terms, load).unwrap();
        match (got, want) {
            (Some(g), Some(w)) => {
                prop_assert!(
                    (g.relative_power - w.relative_power).abs() < 1e-6,
                    "index {:?} ({}) vs brute {:?} ({})",
                    g.on, g.relative_power, w.on, w.relative_power
                );
            }
            (None, None) => {}
            (g, w) => prop_assert!(false, "feasibility disagreement: {g:?} vs {w:?}"),
        }
    }

    #[test]
    fn capped_objective_still_matches_brute_force(
        pairs in pairs(2..8),
        load_frac in 0.0f64..0.9,
        t_cap in 0.5f64..10.0,
    ) {
        let total_a: f64 = pairs.iter().map(|&(a, _)| a).sum();
        let load = load_frac * total_a.min(pairs.len() as f64);
        let terms = PowerTerms { w2: 40.0, rho: 900.0, t_cap: Some(t_cap) };
        let index = ConsolidationIndex::build(&pairs).unwrap();
        let got = index.query_min_power(&terms, load, None).unwrap();
        let want = brute_force_subsets(&pairs, &terms, load).unwrap();
        match (got, want) {
            (Some(g), Some(w)) => prop_assert!(
                (g.relative_power - w.relative_power).abs() < 1e-6
            ),
            (None, None) => {},
            (g, w) => prop_assert!(false, "feasibility disagreement: {g:?} vs {w:?}"),
        }
    }

    #[test]
    fn select_best_subset_is_a_prefix_of_some_order(
        pairs in pairs(2..9),
        k_seed in 0usize..8,
        load_frac in 0.0f64..0.8,
    ) {
        let n = pairs.len();
        let k = 1 + k_seed % n;
        let total_a: f64 = pairs.iter().map(|&(a, _)| a).sum();
        let load = load_frac * total_a;
        if let Some((best, _)) = brute_force_select(&pairs, k, load) {
            // The optimum must appear as the top-k prefix of at least one
            // coordinate-order snapshot — the heart of Algorithm 1's
            // correctness.
            let system = ParticleSystem::new(&pairs).unwrap();
            let found = system.orders().iter().any(|snap| {
                let mut prefix: Vec<usize> = snap.order[..k].to_vec();
                prefix.sort_unstable();
                prefix == best
            });
            // Ties in the ratio can make brute force pick a non-prefix
            // optimum of equal value; verify value equality in that case.
            if !found {
                let best_ratio = {
                    let sa: f64 = best.iter().map(|&i| pairs[i].0).sum();
                    let sb: f64 = best.iter().map(|&i| pairs[i].1).sum();
                    (sa - load) / sb
                };
                let prefix_best = system
                    .orders()
                    .iter()
                    .filter_map(|snap| {
                        let sa: f64 = snap.order[..k].iter().map(|&i| pairs[i].0).sum();
                        let sb: f64 = snap.order[..k].iter().map(|&i| pairs[i].1).sum();
                        if sa > load { Some((sa - load) / sb) } else { None }
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(
                    (prefix_best - best_ratio).abs() < 1e-9,
                    "no prefix achieves the optimal ratio {best_ratio} (best prefix {prefix_best})"
                );
            }
        }
    }

    #[test]
    fn budget_search_matches_exact_query_on_random_instances(
        pairs in pairs(2..8),
        load_frac in 0.0f64..0.9,
        cap in prop::option::of(0.5f64..8.0),
    ) {
        let total_a: f64 = pairs.iter().map(|&(a, _)| a).sum();
        let load = load_frac * total_a.min(pairs.len() as f64);
        let terms = PowerTerms { w2: 40.0, rho: 900.0, t_cap: cap };
        let index = ConsolidationIndex::build(&pairs).unwrap();
        let exact = index.query_min_power(&terms, load, None).unwrap();
        let searched = index.query_budget_search(&terms, load);
        match (exact, searched) {
            (Some(e), Some(s)) => prop_assert!(
                (e.relative_power - s.relative_power).abs() < 1e-5,
                "exact {} vs budget-search {}", e.relative_power, s.relative_power
            ),
            (None, None) => {}
            (e, s) => prop_assert!(false, "feasibility disagreement: {e:?} vs {s:?}"),
        }
    }

    #[test]
    fn event_and_order_counts_respect_bounds(pairs in pairs(1..12)) {
        let n = pairs.len();
        let system = ParticleSystem::new(&pairs).unwrap();
        prop_assert!(system.events().len() <= n * (n - 1) / 2);
        prop_assert!(system.orders().len() <= 1 + n * (n - 1) / 2);
        let index = ConsolidationIndex::build(&pairs).unwrap();
        // Deduplicated: at most the dense `orders × n` table, at least one
        // row per subset size; the dense oracle stores the full table.
        prop_assert!(index.status_count() <= index.order_count() * n);
        prop_assert!(index.status_count() >= n);
        let dense = ConsolidationIndex::build_dense(&pairs).unwrap();
        prop_assert_eq!(dense.status_count(), dense.order_count() * n);
        prop_assert_eq!(dense.order_count(), index.order_count());
    }

    #[test]
    fn max_load_is_monotone_in_budget(
        pairs in pairs(2..9),
        k_seed in 0usize..8,
    ) {
        let n = pairs.len();
        let k = 1 + k_seed % n;
        let terms = PowerTerms::unbounded(40.0, 900.0);
        let index = ConsolidationIndex::build(&pairs).unwrap();
        let mut last = f64::NEG_INFINITY;
        for step in 0..20 {
            let p_b = -2000.0 + step as f64 * 150.0;
            if let Some(l) = index.max_load(&terms, p_b, k) {
                prop_assert!(l + 1e-9 >= last, "budget {p_b} decreased L_max");
                last = l;
            }
        }
    }
}

proptest! {
    // 400 rooms × 6 loads: a row the capacity branch-and-bound wrongly
    // skipped first shows up after a few hundred rooms.
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn capacity_query_matches_exhaustive_search(
        room in capacity_room(),
        load_fracs in prop::collection::vec(0.0f64..0.98, 6..7),
    ) {
        let n = room.len();
        let loads: Vec<f64> = load_fracs.iter().map(|f| f * n as f64).collect();
        let terms = PowerTerms::from_model(&room);
        let w1 = room.power().w1().as_watts();
        let index = ConsolidationIndex::build(&room.consolidation_pairs()).unwrap();
        let batch = index.query_batch(&terms, &loads, Some(&room)).unwrap();
        for (&load, got) in loads.iter().zip(&batch) {
            prop_assert_eq!(got, &index.query_min_power(&terms, load, Some(&room)).unwrap());
            // The minimum over every subset that carries the load within
            // per-machine capacity at a positive supply ratio.
            let best = (1u32..1 << n)
                .filter_map(|mask| {
                    let on: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
                    if load > on.len() as f64 {
                        return None;
                    }
                    let solution = optimal_allocation_clamped(&room, &on, load).ok()?;
                    let t = solution.t_ac.as_kelvin() / w1;
                    (t > 0.0).then(|| terms.relative_power(on.len(), t))
                })
                .reduce(f64::min);
            match (got, best) {
                (Some(g), Some(best)) => prop_assert!(
                    (g.relative_power - best).abs() <= 1e-6 * (1.0 + best.abs()),
                    "load {load}: index {:?} at {} vs exhaustive {best}",
                    g.on, g.relative_power
                ),
                (None, None) => {}
                (g, best) => prop_assert!(false, "load {load}: feasibility split {g:?} vs {best:?}"),
            }
        }
    }
}

#[test]
fn online_query_is_consistent_with_exact_query_for_unit_capacity_free_loads() {
    // Algorithm 2 ignores capacity; on instances where the optimum's k
    // exceeds ⌈L⌉ anyway, both queries can be compared for feasibility.
    let pairs = vec![(9.0, 2.0), (7.0, 1.5), (5.0, 1.2), (2.0, 0.8)];
    let index = ConsolidationIndex::build(&pairs).unwrap();
    for load in [0.5, 1.0, 2.0, 4.0] {
        let online = index.query_online(load).expect("servable");
        let sum_a: f64 = online.on.iter().map(|&i| pairs[i].0).sum();
        assert!(sum_a > load, "Algorithm 2 returned an unservable subset");
    }
}
