//! Shared fixtures for `bench_index`, the binary that writes the guarded
//! `BENCH_index.json` (flat-index build and query latencies, the paper's
//! §III-B scaling rows, and the hierarchical index at fleet scale).

#![warn(missing_docs)]

use coolopt_model::{CoolingModel, PowerModel, RoomModel, ThermalModel};
use coolopt_units::{Temperature, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic synthetic room model of `n` machines with plausible
/// heterogeneity (inlets spread over ~5 K at the reference supply).
pub fn synthetic_model(n: usize, seed: u64) -> RoomModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let power = PowerModel::new(Watts::new(45.0), Watts::new(40.0)).expect("valid power model");
    let thermal = (0..n)
        .map(|_| {
            let alpha = 0.75 + 0.2 * rng.random::<f64>();
            let beta = 0.45 + 0.15 * rng.random::<f64>();
            let spread = 5.0 * rng.random::<f64>();
            let gamma = (290.0 + spread) - alpha * 290.0;
            ThermalModel::new(alpha, beta, gamma).expect("valid thermal model")
        })
        .collect();
    let cooling =
        CoolingModel::new(150.0, Temperature::from_celsius(45.0)).expect("valid cooling model");
    RoomModel::new(power, thermal, cooling, Temperature::from_celsius(60.0))
        .expect("valid room model")
        .with_t_ac_max(Temperature::from_celsius(21.0))
}

/// The consolidation pairs of [`synthetic_model`], for the rows that do
/// not need the full model.
pub fn synthetic_pairs(n: usize, seed: u64) -> Vec<(f64, f64)> {
    synthetic_model(n, seed).consolidation_pairs()
}

/// A clustered fleet of `n` machines drawn from `classes` hardware classes:
/// each class gets one `(a, b)` center and members jitter around it by a
/// relative ~1e-4, matching a procurement reality where machines are
/// near-identical within a purchase batch. This is the fixture the
/// hierarchical index is designed for.
pub fn clustered_fleet(classes: usize, n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<(f64, f64)> = (0..classes.max(1))
        .map(|_| {
            (
                5.0 + 20.0 * rng.random::<f64>(),
                0.8 + 2.4 * rng.random::<f64>(),
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            let (a, b) = centers[i % centers.len()];
            let ja = 1e-4 * a * (2.0 * rng.random::<f64>() - 1.0);
            let jb = 1e-4 * b * (2.0 * rng.random::<f64>() - 1.0);
            (a + ja, b + jb)
        })
        .collect()
}

/// The max ratio `t = (Σa_S − L)/Σb_S` over size-`k` subsets, by Dinkelbach
/// iteration: at iterate `t`, the maximizing subset is the top-`k` by
/// coordinate `a_i − t·b_i` (an `O(n)` selection), and the iteration
/// converges superlinearly to the fixed point. `None` when even the best
/// subset is infeasible (`t ≤ 0`), mirroring the index's feasibility rule.
pub fn oracle_ratio(pairs: &[(f64, f64)], load: f64, k: usize) -> Option<f64> {
    assert!(k >= 1 && k <= pairs.len());
    let mut keys: Vec<(f64, usize)> = Vec::with_capacity(pairs.len());
    let mut t = 0.0f64;
    for _ in 0..60 {
        keys.clear();
        keys.extend(pairs.iter().enumerate().map(|(i, &(a, b))| (a - t * b, i)));
        keys.select_nth_unstable_by(k - 1, |x, y| {
            y.0.partial_cmp(&x.0)
                .expect("finite coordinates")
                .then(x.1.cmp(&y.1))
        });
        let (mut sum_a, mut sum_b) = (0.0, 0.0);
        for &(_, i) in &keys[..k] {
            sum_a += pairs[i].0;
            sum_b += pairs[i].1;
        }
        let next = (sum_a - load) / sum_b;
        let converged = (next - t).abs() <= 1e-12 * (1.0 + t.abs());
        t = next;
        if converged {
            break;
        }
    }
    (t > 0.0).then_some(t)
}

/// The minimum Eq. 23 relative power over all feasible subset sizes, by
/// sweeping `k` with a coarse stride plus a dense window around `hint_k`
/// (the answer under audit), evaluating each size with [`oracle_ratio`].
/// Exact on the swept sizes; the windowed sweep makes it an affordable
/// oracle at `n = 100 000` where the flat index cannot even be built.
pub fn oracle_min_power(
    pairs: &[(f64, f64)],
    terms: &coolopt_core::PowerTerms,
    load: f64,
    hint_k: Option<usize>,
) -> Option<(usize, f64)> {
    let n = pairs.len();
    let k_lo = (load.ceil() as usize).max(1);
    if k_lo > n {
        return None;
    }
    let mut sizes = std::collections::BTreeSet::new();
    let stride = ((n - k_lo) / 128).max(1);
    let mut k = k_lo;
    while k <= n {
        sizes.insert(k);
        k += stride;
    }
    sizes.insert(n);
    if let Some(h) = hint_k {
        for k in h.saturating_sub(200).max(k_lo)..=(h + 200).min(n) {
            sizes.insert(k);
        }
    }
    let mut best: Option<(usize, f64)> = None;
    for &k in &sizes {
        if let Some(t) = oracle_ratio(pairs, load, k) {
            let rel = terms.relative_power(k, t);
            if best.is_none_or(|(_, b)| rel < b) {
                best = Some((k, rel));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic_and_sane() {
        let a = synthetic_model(10, 1);
        let b = synthetic_model(10, 1);
        assert_eq!(a, b);
        for (k, ab) in synthetic_pairs(10, 1) {
            assert!(k > 0.0 && ab > 0.0);
        }
    }
}
