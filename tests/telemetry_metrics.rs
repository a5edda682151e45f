//! Tier-1 coverage of the telemetry layer through the `coolopt` facade:
//! driving the consolidation index advances the registry's counters and
//! latency histograms, and both exporters carry the result.

use coolopt::core::{ConsolidationIndex, PowerTerms};
use coolopt::telemetry;

fn pairs() -> Vec<(f64, f64)> {
    vec![(10.0, 7.0), (2.0, 3.0), (1.0, 2.0), (0.2, 1.34)]
}

fn terms() -> PowerTerms {
    PowerTerms::unbounded(40.0, 900.0)
}

#[test]
fn index_pipeline_advances_counters_and_histograms() {
    let builds = telemetry::counter("coolopt_index_builds_total").get();
    let queries = telemetry::counter("coolopt_index_queries_total").get();
    let query_obs = telemetry::histogram("coolopt_index_query_seconds").count();
    let batch_obs = telemetry::histogram("coolopt_index_batch_seconds").count();

    let index = ConsolidationIndex::build(&pairs()).expect("valid pairs");
    let terms = terms();
    for load in [0.5, 1.5, 2.5] {
        assert!(index.query_min_power(&terms, load, None).unwrap().is_some());
    }
    let batch = index.query_batch(&terms, &[0.5, 1.5, 2.5], None).unwrap();
    assert_eq!(batch.len(), 3);

    assert!(telemetry::counter("coolopt_index_builds_total").get() > builds);
    // A batch of 3 counts as 3 queries; singles add 3 more.
    assert!(telemetry::counter("coolopt_index_queries_total").get() >= queries + 6);
    assert!(telemetry::histogram("coolopt_index_query_seconds").count() >= query_obs + 3);
    assert!(telemetry::histogram("coolopt_index_batch_seconds").count() > batch_obs);
}

#[test]
fn both_exporters_carry_pipeline_metrics() {
    // Drive the pipeline at least once so the names exist regardless of
    // test ordering.
    let index = ConsolidationIndex::build(&pairs()).expect("valid pairs");
    let _ = index.query_min_power(&terms(), 1.0, None).unwrap();

    let snapshot = telemetry::snapshot();
    let json = snapshot.to_json();
    assert!(json.starts_with("{\"schema\":\"coolopt-telemetry-v1\""));
    assert!(json.contains("\"coolopt_index_builds_total\""));
    assert!(json.contains("\"coolopt_index_query_seconds\""));

    let prom = telemetry::render_prometheus();
    assert!(prom.contains("# TYPE coolopt_index_builds_total counter"));
    assert!(prom.contains("# TYPE coolopt_index_query_seconds histogram"));
    assert!(prom.contains("coolopt_index_query_seconds_bucket{le=\"+Inf\"}"));
}

#[test]
fn facade_counters_are_shared_with_subcrate_instruments() {
    // The facade and the instrumented sub-crates must resolve a name to
    // the same atomic, or per-crate registries would silently fork.
    let handle = telemetry::counter("coolopt_index_builds_total");
    let before = handle.get();
    let _ = ConsolidationIndex::build(&pairs()).expect("valid pairs");
    assert!(handle.get() > before);
}
