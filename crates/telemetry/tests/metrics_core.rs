//! Tests of the metrics core: atomicity under threads, histogram bucket
//! boundaries (property-based), snapshot merge associativity and the two
//! export formats.

use coolopt_telemetry::{
    Histogram, HistogramSnapshot, Registry, RegistrySnapshot, DEFAULT_LATENCY_BUCKETS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[test]
fn counters_are_atomic_under_contention() {
    let registry = Registry::new();
    let counter = registry.counter("contended_total");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    counter.inc();
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(
        registry.snapshot().counters["contended_total"],
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn gauges_never_tear_and_track_running_minimum() {
    let registry = Registry::new();
    let gauge = registry.gauge("margin_kelvin");
    gauge.set(f64::INFINITY);
    // Concurrent writers race distinct bit patterns; any read must observe
    // one of the written values, never a mix of halves.
    let candidates: Vec<f64> = (0..64).map(|i| 1.0 + i as f64 * 0.125).collect();
    std::thread::scope(|scope| {
        for chunk in candidates.chunks(16) {
            scope.spawn(move || {
                for &v in chunk {
                    gauge.set_min(v);
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..1000 {
                let seen = gauge.get();
                assert!(
                    seen == f64::INFINITY || candidates.contains(&seen),
                    "torn gauge read: {seen}"
                );
            }
        });
    });
    assert_eq!(gauge.get(), 1.0, "set_min must converge to the minimum");
    // add() is a CAS loop: concurrent additions must not lose updates.
    let acc = registry.gauge("accumulated");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..1000 {
                    acc.add(0.5);
                }
            });
        }
    });
    assert_eq!(acc.get(), 2000.0);
}

#[test]
fn histogram_counts_and_sums_are_atomic_under_contention() {
    let hist = Histogram::new(&[1.0, 2.0, 4.0]);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let hist = &hist;
            scope.spawn(move || {
                for i in 0..10_000u64 {
                    hist.observe((t as f64 + i as f64) % 5.0);
                }
            });
        }
    });
    let snap = hist.snapshot();
    assert_eq!(snap.count, 40_000);
    assert_eq!(snap.counts.iter().sum::<u64>(), 40_000);
    let expected_sum: f64 = 4.0 * (0..10_000u64).map(|i| (i % 5) as f64).sum::<f64>();
    assert!((snap.sum - expected_sum).abs() < 1e-6 * expected_sum.max(1.0));
}

proptest! {
    /// A sample lands in exactly the first bucket whose inclusive upper
    /// bound is ≥ the sample — including samples exactly on a boundary.
    #[test]
    fn histogram_bucket_boundaries_are_inclusive(
        edges in prop::collection::vec(0.0_f64..1000.0, 1..8),
        samples in prop::collection::vec(-10.0_f64..1100.0, 1..50),
    ) {
        let mut bounds: Vec<f64> = edges;
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        bounds.dedup();
        let hist = Histogram::new(&bounds);
        for &v in &samples {
            hist.observe(v);
        }
        // Also hit every boundary exactly.
        for &b in &bounds {
            hist.observe(b);
        }
        let snap = hist.snapshot();
        let mut expected = vec![0u64; bounds.len() + 1];
        for v in samples.iter().copied().chain(bounds.iter().copied()) {
            let idx = bounds
                .iter()
                .position(|&le| v <= le)
                .unwrap_or(bounds.len());
            expected[idx] += 1;
        }
        prop_assert_eq!(&snap.counts, &expected);
        prop_assert_eq!(snap.count, (samples.len() + bounds.len()) as u64);
        prop_assert_eq!(snap.count, snap.counts.iter().sum::<u64>());
    }

    /// Merging snapshots is associative regardless of grouping, so sweep
    /// workers can fold partial snapshots in any order.
    #[test]
    fn snapshot_merge_is_associative(
        counts in prop::collection::vec((0u64..1000, 0u64..1000, 0u64..1000), 1..4),
        gauges in prop::collection::vec((-100.0_f64..100.0, -100.0_f64..100.0, -100.0_f64..100.0), 0..3),
        hists in prop::collection::vec(
            (prop::collection::vec(0u64..50, 4..5), prop::collection::vec(0u64..50, 4..5), prop::collection::vec(0u64..50, 4..5)),
            0..3,
        ),
    ) {
        type HistTriple = (Vec<u64>, Vec<u64>, Vec<u64>);
        let bounds = vec![0.5, 1.0, 2.0];
        let build = |pick: &dyn Fn(&(u64, u64, u64)) -> u64,
                     pick_g: &dyn Fn(&(f64, f64, f64)) -> f64,
                     pick_h: &dyn Fn(&HistTriple) -> Vec<u64>| {
            let mut snap = RegistrySnapshot::default();
            for (i, triple) in counts.iter().enumerate() {
                snap.counters.insert(format!("c{i}"), pick(triple));
            }
            for (i, triple) in gauges.iter().enumerate() {
                snap.gauges.insert(format!("g{i}"), pick_g(triple));
            }
            for (i, triple) in hists.iter().enumerate() {
                let counts = pick_h(triple);
                let h = HistogramSnapshot {
                    bounds: bounds.clone(),
                    sum: counts.iter().sum::<u64>() as f64,
                    count: counts.iter().sum(),
                    counts,
                };
                snap.histograms.insert(format!("h{i}"), h);
            }
            snap
        };
        let a = build(&|t| t.0, &|t| t.0, &|t| t.0.clone());
        let b = build(&|t| t.1, &|t| t.1, &|t| t.1.clone());
        let c = build(&|t| t.2, &|t| t.2, &|t| t.2.clone());
        let left = a.clone().merge(&b).merge(&c);
        let right = a.clone().merge(&b.clone().merge(&c));
        prop_assert_eq!(left, right);
    }
}

#[test]
fn registry_returns_one_handle_per_name() {
    let registry = Registry::new();
    let a = registry.counter("same");
    let b = registry.counter("same");
    assert!(std::ptr::eq(a, b));
    let h1 = registry.histogram("h");
    let h2 = registry.histogram_with("h", DEFAULT_LATENCY_BUCKETS);
    assert!(std::ptr::eq(h1, h2));
}

#[test]
#[should_panic(expected = "different bounds")]
fn histogram_bucket_layout_conflicts_are_rejected() {
    let registry = Registry::new();
    let _ = registry.histogram_with("conflict", &[1.0, 2.0]);
    let _ = registry.histogram_with("conflict", &[1.0, 3.0]);
}

#[test]
fn prometheus_rendering_is_cumulative_and_typed() {
    let registry = Registry::new();
    registry.counter("reqs_total").add(3);
    registry.gauge("margin").set(1.5);
    let h = registry.histogram_with("lat_seconds", &[0.1, 1.0]);
    h.observe(0.05);
    h.observe(0.5);
    h.observe(5.0);
    let text = registry.snapshot().render_prometheus();
    assert!(text.contains("# TYPE reqs_total counter"));
    assert!(text.contains("reqs_total 3"));
    assert!(text.contains("# TYPE margin gauge"));
    assert!(text.contains("margin 1.5"));
    assert!(text.contains("# TYPE lat_seconds histogram"));
    assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"));
    assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"));
    assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("lat_seconds_count 3"));
}

#[test]
fn json_export_is_schema_stable() {
    let registry = Registry::new();
    registry.counter("a_total").inc();
    registry.gauge("g").set(2.25);
    registry.histogram_with("h_seconds", &[0.5]).observe(0.25);
    let json = registry.snapshot().to_json();
    assert!(json.starts_with("{\"schema\":\"coolopt-telemetry-v1\""));
    assert!(json.contains("\"counters\":{\"a_total\":1}"));
    assert!(json.contains("\"gauges\":{\"g\":2.25}"));
    assert!(json.contains("\"h_seconds\":{\"buckets\":[{\"le\":0.5,\"count\":1}],\"inf_count\":0,\"sum\":0.25,\"count\":1}"));
}

#[test]
fn snapshot_minus_reports_phase_deltas() {
    let registry = Registry::new();
    let c = registry.counter("work_total");
    let h = registry.histogram_with("d_seconds", &[1.0]);
    c.add(5);
    h.observe(0.5);
    let base = registry.snapshot();
    c.add(2);
    h.observe(0.75);
    let delta = registry.snapshot().minus(&base);
    assert_eq!(delta.counters["work_total"], 2);
    assert_eq!(delta.histograms["d_seconds"].count, 1);
    assert!((delta.histograms["d_seconds"].sum - 0.75).abs() < 1e-12);
}

#[test]
fn quantiles_interpolate_within_buckets() {
    let snap = HistogramSnapshot {
        bounds: vec![1.0, 2.0, 4.0],
        counts: vec![10, 10, 0, 0],
        sum: 25.0,
        count: 20,
    };
    let p50 = snap.quantile(0.5).unwrap();
    assert!((0.9..=1.1).contains(&p50), "p50 = {p50}");
    let p95 = snap.quantile(0.95).unwrap();
    assert!((1.5..=2.0).contains(&p95), "p95 = {p95}");
    assert_eq!(snap.mean(), Some(1.25));
    assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
}

#[test]
fn merged_tables_render_every_section() {
    let mut snap = RegistrySnapshot::default();
    snap.counters.insert("c_total".into(), 7);
    snap.gauges.insert("g".into(), 0.5);
    snap.histograms.insert(
        "h_seconds".into(),
        HistogramSnapshot {
            bounds: vec![1.0],
            counts: vec![1, 0],
            sum: 0.5,
            count: 1,
        },
    );
    let table = snap.render_table();
    assert!(table.contains("c_total"));
    assert!(table.contains("g"));
    assert!(table.contains("h_seconds"));
    let empty: BTreeMap<String, u64> = BTreeMap::new();
    assert!(empty.is_empty());
    assert!(RegistrySnapshot::default()
        .render_table()
        .contains("no metrics recorded"));
}

#[test]
fn quantile_edge_cases_are_pinned() {
    // Empty snapshot and out-of-range/NaN q yield None.
    assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    let snap = HistogramSnapshot {
        bounds: vec![1.0, 2.0],
        counts: vec![10, 10, 0],
        sum: 30.0,
        count: 20,
    };
    assert_eq!(snap.quantile(-0.1), None);
    assert_eq!(snap.quantile(1.1), None);
    assert_eq!(snap.quantile(f64::NAN), None);
    // A rank exactly on a bucket edge returns the edge itself, bit-exact.
    assert_eq!(snap.quantile(0.5), Some(1.0));
    assert_eq!(snap.quantile(1.0), Some(2.0));
    // q = 0 sits at the lower edge of the first occupied bucket.
    assert_eq!(snap.quantile(0.0), Some(0.0));
    // Samples in the open-ended +Inf bucket report the last finite bound
    // rather than interpolating into a bucket with no width.
    let top_heavy = HistogramSnapshot {
        bounds: vec![1.0, 2.0],
        counts: vec![1, 0, 9],
        sum: 100.0,
        count: 10,
    };
    assert_eq!(top_heavy.quantile(0.99), Some(2.0));
    assert_eq!(top_heavy.quantile(1.0), Some(2.0));
}

#[test]
fn prometheus_exporter_escapes_help_and_label_values() {
    use coolopt_telemetry::{escape_prom_help, escape_prom_label_value};
    assert_eq!(
        escape_prom_help("back\\slash\nnewline"),
        "back\\\\slash\\nnewline"
    );
    assert_eq!(escape_prom_help("quote \" stays"), "quote \" stays");
    assert_eq!(escape_prom_label_value("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
    let mut snap = RegistrySnapshot::default();
    snap.counters.insert("evil_total".into(), 1);
    snap.help
        .insert("evil_total".into(), "first line\nsecond \\ line".into());
    let text = snap.render_prometheus();
    assert!(
        text.contains("# HELP evil_total first line\\nsecond \\\\ line"),
        "{text}"
    );
    // The exposition stays one-line-per-entry: no raw newline leaked.
    assert!(!text.contains("second \\ line\n# TYPE") || text.contains("\\nsecond"));
}

#[test]
fn describe_surfaces_help_lines_in_the_exposition() {
    let registry = Registry::new();
    registry.counter("described_total").inc();
    registry.describe("described_total", "what this counts");
    let text = registry.snapshot().render_prometheus();
    assert!(
        text.contains("# HELP described_total what this counts"),
        "{text}"
    );
    assert!(text.contains("# TYPE described_total counter"));
    // Help strings must not leak into the schema-stable JSON document.
    let json = registry.snapshot().to_json();
    assert!(!json.contains("what this counts"));
}
