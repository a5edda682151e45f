//! Deterministic weighted dispatch of the document stream.
//!
//! The paper assumes "load distribution across machines can be decided by a
//! central load balancer". This module implements that balancer with smooth
//! weighted round-robin (the nginx algorithm): over any long window, machine
//! `i` receives a share of documents proportional to `load_i · capacity_i`,
//! and the dispatch sequence is maximally interleaved (no bursts), which
//! keeps per-machine load steady — the steady-state premise of the whole
//! analysis.

use crate::capacity::Capacity;
use crate::job::Document;
use crate::loadvec::LoadVector;
use std::fmt;

/// Error returned when balancer inputs disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerMismatch {
    loads: usize,
    capacities: usize,
}

impl fmt::Display for BalancerMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "load vector covers {} machines but {} capacities were given",
            self.loads, self.capacities
        )
    }
}

impl std::error::Error for BalancerMismatch {}

/// Dispatch statistics after a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DispatchStats {
    /// Documents dispatched to each machine.
    pub per_machine: Vec<u64>,
    /// Total documents dispatched.
    pub total: u64,
}

impl DispatchStats {
    /// Fraction of the stream sent to machine `i` (0 when nothing was sent).
    pub fn share(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.per_machine[i] as f64 / self.total as f64
    }
}

/// A smooth-weighted-round-robin dispatcher realizing a [`LoadVector`].
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    /// Effective weight of each machine: load fraction × capacity.
    weights: Vec<f64>,
    /// Sum of `weights`, summed once: the weights never change.
    total: f64,
    /// Machines of positive weight, ascending. A machine of weight 0 is
    /// never picked and its running value never moves, so dispatch skips
    /// it.
    positive: Vec<usize>,
    current: Vec<f64>,
    stats: DispatchStats,
}

impl LoadBalancer {
    /// Creates a balancer for machines with the given loads and capacities.
    ///
    /// # Errors
    ///
    /// Returns [`BalancerMismatch`] when the vectors have different lengths.
    pub fn new(loads: &LoadVector, capacities: &[Capacity]) -> Result<Self, BalancerMismatch> {
        if loads.len() != capacities.len() {
            return Err(BalancerMismatch {
                loads: loads.len(),
                capacities: capacities.len(),
            });
        }
        let weights: Vec<f64> = loads
            .iter()
            .zip(capacities)
            .map(|(l, c)| l * c.files_per_second())
            .collect();
        let n = weights.len();
        Ok(LoadBalancer {
            total: weights.iter().sum(),
            positive: (0..n).filter(|&i| weights[i] > 0.0).collect(),
            weights,
            current: vec![0.0; n],
            stats: DispatchStats {
                per_machine: vec![0; n],
                total: 0,
            },
        })
    }

    /// Total weight (documents/second the assignment can absorb).
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Picks the machine for the next document, or `None` when every machine
    /// has zero weight.
    pub fn dispatch(&mut self, _doc: &Document) -> Option<usize> {
        let total = self.total;
        if total <= 0.0 {
            return None;
        }
        let mut best = None;
        let mut best_val = f64::NEG_INFINITY;
        for &i in &self.positive {
            self.current[i] += self.weights[i];
            if self.current[i] > best_val {
                best_val = self.current[i];
                best = Some(i);
            }
        }
        let chosen = best.expect("total weight positive implies a positive weight");
        self.current[chosen] -= total;
        self.stats.per_machine[chosen] += 1;
        self.stats.total += 1;
        Some(chosen)
    }

    /// Dispatches a whole batch, returning the chosen machine per document.
    pub fn dispatch_batch(&mut self, docs: &[Document]) -> Vec<Option<usize>> {
        docs.iter().map(|d| self.dispatch(d)).collect()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DispatchStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document {
            id: 0,
            html: String::new(),
        }
    }

    fn capacities(n: usize, fps: f64) -> Vec<Capacity> {
        vec![Capacity::new(fps); n]
    }

    #[test]
    fn shares_match_weights_over_long_runs() {
        let loads = LoadVector::new(vec![0.2, 0.3, 0.5]).unwrap();
        let mut lb = LoadBalancer::new(&loads, &capacities(3, 100.0)).unwrap();
        let d = doc();
        for _ in 0..10_000 {
            lb.dispatch(&d);
        }
        let s = lb.stats();
        assert!((s.share(0) - 0.2).abs() < 0.01, "share0 {}", s.share(0));
        assert!((s.share(1) - 0.3).abs() < 0.01);
        assert!((s.share(2) - 0.5).abs() < 0.01);
        assert_eq!(s.total, 10_000);
    }

    #[test]
    fn heterogeneous_capacity_shifts_shares() {
        let loads = LoadVector::new(vec![0.5, 0.5]).unwrap();
        let caps = vec![Capacity::new(100.0), Capacity::new(300.0)];
        let mut lb = LoadBalancer::new(&loads, &caps).unwrap();
        let d = doc();
        for _ in 0..4_000 {
            lb.dispatch(&d);
        }
        assert!((lb.stats().share(1) - 0.75).abs() < 0.01);
    }

    #[test]
    fn zero_weight_machines_get_nothing() {
        let loads = LoadVector::new(vec![0.0, 1.0]).unwrap();
        let mut lb = LoadBalancer::new(&loads, &capacities(2, 100.0)).unwrap();
        let d = doc();
        for _ in 0..100 {
            assert_eq!(lb.dispatch(&d), Some(1));
        }
        assert_eq!(lb.stats().per_machine[0], 0);
    }

    #[test]
    fn all_idle_returns_none() {
        let loads = LoadVector::zeros(3).unwrap();
        let mut lb = LoadBalancer::new(&loads, &capacities(3, 100.0)).unwrap();
        assert_eq!(lb.dispatch(&doc()), None);
        assert_eq!(lb.stats().total, 0);
        assert_eq!(lb.stats().share(0), 0.0);
    }

    #[test]
    fn dispatch_is_smooth_not_bursty() {
        // With weights 1:1, the sequence must strictly alternate.
        let loads = LoadVector::new(vec![0.5, 0.5]).unwrap();
        let mut lb = LoadBalancer::new(&loads, &capacities(2, 100.0)).unwrap();
        let d = doc();
        let seq: Vec<_> = (0..10).map(|_| lb.dispatch(&d).unwrap()).collect();
        for w in seq.windows(2) {
            assert_ne!(w[0], w[1], "bursty dispatch: {seq:?}");
        }
    }

    /// The full scan every machine used to take: add each weight, pick
    /// the largest running value among positive weights, charge it the
    /// re-summed total.
    fn full_scan_sequence(weights: &[f64], docs: usize) -> Vec<Option<usize>> {
        let mut current = vec![0.0; weights.len()];
        (0..docs)
            .map(|_| {
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    return None;
                }
                let mut best = None;
                let mut best_val = f64::NEG_INFINITY;
                for i in 0..weights.len() {
                    current[i] += weights[i];
                    if weights[i] > 0.0 && current[i] > best_val {
                        best_val = current[i];
                        best = Some(i);
                    }
                }
                let chosen = best?;
                current[chosen] -= total;
                Some(chosen)
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn dispatch_matches_the_full_scan(
            raw in proptest::collection::vec((0.0f64..1.0, 0u8..3), 1..24),
            fps in 1.0f64..400.0,
        ) {
            // Roughly a third of the machines are idle (weight 0).
            let loads: Vec<f64> = raw.iter().map(|&(l, kind)| if kind == 0 { 0.0 } else { l }).collect();
            let weights: Vec<f64> = loads.iter().map(|l| l * fps).collect();
            let n = loads.len();
            let mut lb = LoadBalancer::new(&LoadVector::new(loads).unwrap(), &capacities(n, fps)).unwrap();
            let d = doc();
            let sequence: Vec<_> = (0..500).map(|_| lb.dispatch(&d)).collect();
            proptest::prop_assert_eq!(sequence, full_scan_sequence(&weights, 500));
        }
    }

    #[test]
    fn mismatched_inputs_error() {
        let loads = LoadVector::new(vec![0.5]).unwrap();
        let err = LoadBalancer::new(&loads, &capacities(2, 100.0)).unwrap_err();
        assert!(err.to_string().contains("1 machines"));
    }

    #[test]
    fn batch_dispatch_matches_singles() {
        let loads = LoadVector::new(vec![0.4, 0.6]).unwrap();
        let caps = capacities(2, 100.0);
        let mut a = LoadBalancer::new(&loads, &caps).unwrap();
        let mut b = LoadBalancer::new(&loads, &caps).unwrap();
        let docs: Vec<_> = (0..50).map(|_| doc()).collect();
        let batch = a.dispatch_batch(&docs);
        let singles: Vec<_> = docs.iter().map(|d| b.dispatch(d)).collect();
        assert_eq!(batch, singles);
    }
}
