//! The atomic metric primitives.

use std::sync::atomic::{AtomicU64, Ordering};

/// Default histogram bounds for latencies in seconds: 1 µs … 10 s in a
/// 1–2.5–5 decade ladder, plus the implicit `+Inf` bucket.
pub const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A monotonically increasing `u64`, safe to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` sample (stored as bits, so reads never tear).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at `0.0`.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta` (CAS loop; gauges are cold-path).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Stores `v` only if it is smaller than the current value (running
    /// minimum — e.g. the tightest guard-band margin seen in a run).
    pub fn set_min(&self, v: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(current) <= v {
                return;
            }
            match self.bits.compare_exchange_weak(
                current,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with atomic bucket counts.
///
/// Bounds are *inclusive* upper edges (Prometheus `le` semantics): a sample
/// `v` lands in the first bucket whose bound satisfies `v <= bound`, and
/// beyond the last bound in the implicit `+Inf` bucket. Bucket layout is
/// fixed at registration, so merging snapshots of the same metric is
/// exact bucket-wise addition.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    /// One slot per bound plus the trailing `+Inf` bucket.
    counts: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds`, which must be finite, strictly
    /// increasing and non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite: {bounds:?}"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records the same sample `n` times with one bucket update — the
    /// weighted-observation path for callers whose unit of work is a batch
    /// sharing one latency (e.g. every load of one coalesced submission).
    /// `n == 0` records nothing.
    pub fn observe_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        // `partition_point` finds the first bound with `v <= bound`
        // (bounds are sorted); NaN compares false everywhere and therefore
        // lands in `+Inf`, keeping the count/sum consistent.
        let idx = self.bounds.partition_point(|&b| b < v);
        let idx = if idx < self.bounds.len() && v <= self.bounds[idx] {
            idx
        } else {
            self.bounds.len()
        };
        self.counts[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        let add = v * n as f64;
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Zeroes every bucket, the count and the sum. A sample recorded
    /// concurrently may survive only in part (say, its bucket but not
    /// its count); callers that reuse a histogram for a new interval keep
    /// recorders out while they clear it.
    pub fn clear(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.sum_bits.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    /// The inclusive upper bounds (without `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Freezes the histogram into plain data (per-bucket counts, not
    /// cumulative).
    pub fn snapshot(&self) -> crate::HistogramSnapshot {
        crate::HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}
