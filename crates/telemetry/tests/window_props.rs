//! Property tests of the sliding-window histogram at rotation boundaries:
//! every windowed view must equal the merge of the per-window deltas it
//! claims to cover, and cumulative − windowed must equal the merge of the
//! older deltas — i.e. the merge/minus snapshot algebra stays exact under
//! arbitrary window rotation patterns (bursts, idle gaps, views wider
//! than retention).

use coolopt_telemetry::{HistogramSnapshot, WindowedHistogram, DEFAULT_LATENCY_BUCKETS};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Distinct sample values spanning the default bucket ladder, including
/// exact bucket edges (the `le` boundary cases).
const VALUES: &[f64] = &[0.0, 1e-6, 2.5e-6, 1e-4, 0.001, 0.0375, 1.0, 10.0, 50.0];

const WINDOW_SECONDS: f64 = 1.0;
const WINDOW_NS: u64 = 1_000_000_000;
const RETAINED: usize = 4;

/// The reference: bucket the observations exactly as `Histogram::observe_n`
/// does (first bound `>= v`, `+Inf` overflow, NaN-free by construction).
fn reference(bounds: &[f64], obs: &[(f64, u64)]) -> HistogramSnapshot {
    let mut counts = vec![0u64; bounds.len() + 1];
    let mut sum = 0.0;
    let mut count = 0u64;
    for &(v, n) in obs {
        let idx = bounds.partition_point(|&b| b < v);
        let idx = if idx < bounds.len() && v <= bounds[idx] {
            idx
        } else {
            bounds.len()
        };
        counts[idx] += n;
        sum += v * n as f64;
        count += n;
    }
    HistogramSnapshot {
        bounds: bounds.to_vec(),
        counts,
        sum,
        count,
    }
}

fn assert_snapshots_match(actual: &HistogramSnapshot, expected: &HistogramSnapshot) {
    assert_eq!(actual.counts, expected.counts);
    assert_eq!(actual.count, expected.count);
    // Sums accumulate in different orders on the two sides; counts are the
    // load-bearing data, sums only need to agree up to rounding.
    let tolerance = 1e-9 * (1.0 + expected.sum.abs());
    assert!(
        (actual.sum - expected.sum).abs() <= tolerance,
        "sum {} vs expected {}",
        actual.sum,
        expected.sum
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every view width `k`, `windowed_at_ns(·, k)` equals the merge
    /// of the per-window reference deltas of the last `k` windows (clipped
    /// to retention), and `cumulative − windowed` equals the merge of all
    /// older deltas.
    #[test]
    fn windowed_views_equal_per_window_merges(
        raw in prop::collection::vec(
            (0u64..12, 0usize..VALUES.len(), 1u64..4),
            1..80,
        ),
        k in 1usize..(RETAINED + 3),
    ) {
        // Rotation only moves forward; feed observations in window order
        // (the coalescer's clock does the same).
        let mut obs: Vec<(u64, f64, u64)> = raw
            .into_iter()
            .map(|(w, vi, n)| (w, VALUES[vi], n))
            .collect();
        obs.sort_by_key(|&(w, ..)| w);

        let hist = WindowedHistogram::new(DEFAULT_LATENCY_BUCKETS, WINDOW_SECONDS, RETAINED);
        let mut per_window: BTreeMap<u64, Vec<(f64, u64)>> = BTreeMap::new();
        for &(w, v, n) in &obs {
            hist.observe_n_at_ns(w * WINDOW_NS + WINDOW_NS / 2, v, n);
            per_window.entry(w).or_default().push((v, n));
        }
        let now = obs.last().expect("non-empty").0;

        // A view wider than retention clips to the last RETAINED windows;
        // windows older than the view stay visible only via `cumulative`.
        let lo = (now + 1).saturating_sub(k.min(RETAINED) as u64);

        let in_view: Vec<(f64, u64)> = per_window
            .iter()
            .filter(|(&w, _)| w >= lo && w <= now)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let expected = reference(DEFAULT_LATENCY_BUCKETS, &in_view);
        let actual = hist.windowed_at_ns(now * WINDOW_NS + WINDOW_NS / 2, k);
        assert_snapshots_match(&actual, &expected);

        // cumulative − windowed == merge of everything older than the view.
        let older: Vec<(f64, u64)> = per_window
            .iter()
            .filter(|(&w, _)| w < lo)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let expected_older = reference(DEFAULT_LATENCY_BUCKETS, &older);
        let actual_older = hist.cumulative().minus(&actual);
        assert_snapshots_match(&actual_older, &expected_older);

        // And merging the two parts back reproduces the cumulative whole —
        // merge/minus stay mutually inverse across rotation boundaries.
        let rejoined = actual_older.merge(&actual);
        let everything: Vec<(f64, u64)> = per_window
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        assert_snapshots_match(&rejoined, &reference(DEFAULT_LATENCY_BUCKETS, &everything));
    }
}
