//! The observability plane end to end: SLO defaults and scenario
//! overrides, burn-rate alerting with exemplars resolvable in the flight
//! recorder, the in-protocol `stats`/`metrics` scrape (schema-checked, and
//! the exposition equal to the core's own counters), scrape safety
//! concurrent with re-registration/eviction/traffic, tenant churn that
//! leaves the metrics registry unchanged, and the zero-denominator pins
//! for every derived rate.

use coolopt_scenario::{presets, SloPolicy};
use coolopt_service::{
    proto, tenant, LatencyDoc, ServiceConfig, ServiceCore, SloVerdict, StatsSnapshot,
    SERVICE_STATS_SCHEMA,
};
use coolopt_telemetry as telemetry;
use serde::{get_field, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A core whose default SLO threshold every real submission breaches, so
/// alerting paths are exercised deterministically.
fn breach_core() -> ServiceCore {
    ServiceCore::new(ServiceConfig {
        slo: SloPolicy {
            latency_threshold_seconds: 1e-12,
            availability_target: 0.999,
        },
        ..ServiceConfig::default()
    })
}

#[test]
fn tenants_inherit_the_service_default_slo() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    let tenant = core.get("testbed_rack20/rack").unwrap();
    assert_eq!(tenant.slo_policy(), SloPolicy::default());
}

#[test]
fn scenario_slo_overrides_win_and_removal_reverts_to_the_default() {
    let core = ServiceCore::default();
    let mut scenario = presets::testbed_rack20(0);
    let override_slo = SloPolicy {
        latency_threshold_seconds: 0.5,
        availability_target: 0.95,
    };
    scenario.policy.slo = Some(override_slo);
    core.register_scenario(&scenario).unwrap();
    let tenant = core.get("testbed_rack20/rack").unwrap();
    assert_eq!(tenant.slo_policy(), override_slo);

    // Re-registering without the override reverts to the service default.
    scenario.policy.slo = None;
    core.register_scenario(&scenario).unwrap();
    assert_eq!(tenant.slo_policy(), SloPolicy::default());
}

#[test]
fn scenario_slo_round_trips_through_json_and_changes_the_content_hash() {
    let mut scenario = presets::testbed_rack20(0);
    let plain_hash = scenario.content_hash();
    scenario.policy.slo = Some(SloPolicy {
        latency_threshold_seconds: 0.25,
        availability_target: 0.99,
    });
    assert_ne!(scenario.content_hash(), plain_hash);
    let json = scenario.to_json();
    let reloaded = coolopt_scenario::Scenario::from_json(&json).unwrap();
    assert_eq!(reloaded.policy.slo, scenario.policy.slo);
}

#[test]
fn breaches_raise_the_burn_alert_and_capture_exemplars() {
    telemetry::init_flight_recorder(telemetry::DEFAULT_FLIGHT_CAPACITY.max(4096));
    let core = breach_core();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    let tenant = core.get("testbed_rack20/rack").unwrap();

    for i in 0..8 {
        tenant.submit_one(1.0 + i as f64).unwrap().unwrap();
    }
    let verdict = tenant.slo_verdict();
    assert_eq!(verdict.attempts, 8);
    assert_eq!(verdict.breaches, 8, "every submission breaches 1 ps");
    assert!(verdict.fast_burn.burn_rate >= coolopt_service::BURN_ALERT_RATE);
    assert!(verdict.slow_burn.burn_rate >= coolopt_service::BURN_ALERT_RATE);
    assert!(verdict.alerting, "sustained burn must alert");
    assert!(!verdict.healthy);
    assert!(!verdict.exemplars.is_empty(), "breaches are tail-sampled");

    // The exemplar's span id resolves to the `service_batch` span in the
    // flight recorder and the Chrome trace.
    let span_id = verdict.exemplars.last().unwrap().span_id;
    assert_ne!(span_id, 0, "exemplars carry the serving batch span");
    let snapshot = telemetry::flight_snapshot();
    let record = snapshot
        .records
        .iter()
        .find(|r| r.id == span_id)
        .expect("exemplar span id resolves in the flight recorder");
    assert_eq!(record.name, "service_batch");
    assert!(snapshot
        .to_chrome_json()
        .contains(&format!("\"id\":{span_id}")));
}

#[test]
fn recovery_clears_the_alert_when_burn_subsides() {
    let core = breach_core();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    let tenant = core.get("testbed_rack20/rack").unwrap();
    tenant.submit_one(1.0).unwrap().unwrap();
    assert!(tenant.slo_verdict().alerting);

    // Loosen the SLO: subsequent evaluation sees zero bad-over-budget and
    // the alert clears (the transition emits the recovery event).
    tenant.set_slo(SloPolicy {
        latency_threshold_seconds: 1e6,
        availability_target: 0.5,
    });
    for i in 0..4 {
        tenant.submit_one(2.0 + i as f64).unwrap().unwrap();
    }
    let verdict = tenant.slo_verdict();
    assert!(verdict.fast_burn.burn_rate < coolopt_service::BURN_ALERT_RATE);
    assert!(!verdict.alerting);
}

#[test]
fn stats_scrape_answers_the_schema_in_protocol() {
    let core = breach_core();
    core.register_scenario(&presets::two_zone_hetero(0))
        .unwrap();
    for tenant in core.tenants() {
        tenant.submit(&[1.0, 2.0, 3.0]).unwrap();
    }

    let line = proto::handle_line(&core, r#"{"cmd":"stats"}"#);
    let doc: Value = serde_json::from_str(&line).unwrap();
    let fields = doc.as_object().expect("stats reply is an object");
    assert_eq!(
        get_field(fields, "schema").unwrap().as_str().unwrap(),
        SERVICE_STATS_SCHEMA
    );
    assert_eq!(
        get_field(fields, "metrics_enabled").unwrap(),
        &Value::Bool(true)
    );
    assert!(
        get_field(fields, "uptime_seconds")
            .unwrap()
            .as_f64()
            .unwrap()
            >= 0.0
    );
    let totals = get_field(fields, "totals").unwrap().as_object().unwrap();
    assert_eq!(get_field(totals, "plans").unwrap().as_u64().unwrap(), 6);
    assert_eq!(get_field(totals, "shed").unwrap().as_u64().unwrap(), 0);
    assert_eq!(
        get_field(fields, "shed_rate").unwrap().as_f64().unwrap(),
        0.0
    );

    let tenants = get_field(fields, "tenants").unwrap().as_array().unwrap();
    assert_eq!(tenants.len(), 2, "one row per distinct tenant");
    for row in tenants {
        let row = row.as_object().unwrap();
        assert!(!get_field(row, "key").unwrap().as_str().unwrap().is_empty());
        assert!(get_field(row, "machines").unwrap().as_u64().unwrap() > 0);
        let slo = get_field(row, "slo").unwrap().as_object().unwrap();
        assert_eq!(get_field(slo, "attempts").unwrap().as_u64().unwrap(), 3);
        assert!(get_field(slo, "alerting").unwrap() == &Value::Bool(true));
        let queue_wait = get_field(row, "queue_wait").unwrap().as_object().unwrap();
        let count = get_field(queue_wait, "count").unwrap().as_u64().unwrap();
        assert_eq!(count, 3, "windowed attribution records per load");
        let p50 = get_field(queue_wait, "p50_us").unwrap().as_f64().unwrap();
        let p99 = get_field(queue_wait, "p99_us").unwrap().as_f64().unwrap();
        assert!(p50 <= p99);
    }
}

#[test]
fn only_plannable_loads_count_in_the_tenant_ring() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    // A burst of only invalid loads, then a mixed one: one load is planned.
    for line in [
        r#"{"tenant":"testbed_rack20/rack","loads":[-1]}"#,
        r#"{"tenant":"testbed_rack20/rack","loads":[1,-1]}"#,
    ] {
        let reply = proto::handle_line(&core, line);
        assert!(reply.contains(r#""ok":true"#), "{reply}");
    }

    let doc = core.stats_doc();
    let [row] = doc.tenants.as_slice() else {
        panic!("one tenant row: {:?}", doc.tenants);
    };
    assert_eq!(doc.totals.plans, 1);
    assert_eq!(row.slo.attempts, 1, "invalid loads are not SLO attempts");
    assert_eq!(row.slo.shed, 0);
    assert_eq!(row.slo.slow_burn.attempts, 1);
    assert_eq!(row.queue_wait.count, 1);
    assert_eq!(row.run.count, 1);
}

#[test]
fn metrics_scrape_answers_prometheus_in_protocol() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    core.submit("testbed_rack20/rack", &[1.0, 2.0]).unwrap();

    let line = proto::handle_line(&core, r#"{"cmd":"metrics"}"#);
    let reply: proto::MetricsReply = serde_json::from_str(&line).unwrap();
    assert_eq!(reply.schema, proto::METRICS_REPLY_SCHEMA);
    assert!(reply.metrics_enabled);
    assert!(reply.prometheus.contains("coolopt_flight_records_dropped"));

    // The four service metrics render this core's own counters, not a
    // process-wide tally shared with every other core.
    let stats = core.stats().snapshot();
    assert_eq!((stats.plans, stats.batches, stats.shed), (2, 1, 0));
    let value = |series: &str| -> f64 {
        reply
            .prometheus
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{series} missing from:\n{}", reply.prometheus))
    };
    assert_eq!(value("coolopt_service_plans_total"), stats.plans as f64);
    assert_eq!(value("coolopt_service_batches_total"), stats.batches as f64);
    assert_eq!(value("coolopt_service_shed_total"), stats.shed as f64);
    assert_eq!(
        value("coolopt_service_batch_size_count"),
        stats.batches as f64
    );
    assert_eq!(value("coolopt_service_batch_size_sum"), stats.plans as f64);
    let last = stats.batch_size_log2.len() - 1;
    let mut cumulative = 0;
    for (i, count) in stats.batch_size_log2.iter().enumerate() {
        cumulative += count;
        let le = if i == last {
            "+Inf".to_string()
        } else {
            ((1u64 << (i + 1)) - 1).to_string()
        };
        let bucket = format!("coolopt_service_batch_size_bucket{{le=\"{le}\"}}");
        assert_eq!(value(&bucket), cumulative as f64, "{bucket}");
    }
}

#[test]
fn tenant_churn_leaves_the_metrics_registry_unchanged() {
    let core = ServiceCore::default();
    let part = tenant::zone_parts(&presets::testbed_rack20(0))
        .unwrap()
        .remove(0);
    // One tenant's whole life: publish, an identical re-publish (a cache
    // hit), planning with a sequential-path load, eviction.
    let live_and_evict = |key: &str| {
        core.register_parts(key, &part.pairs, part.terms).unwrap();
        core.register_parts(key, &part.pairs, part.terms).unwrap();
        core.submit(key, &[1.0, -1.0]).unwrap();
        core.evict(key).unwrap();
    };
    let names = || {
        let snap = telemetry::snapshot();
        (
            snap.counters.into_keys().collect::<Vec<_>>(),
            snap.gauges.into_keys().collect::<Vec<_>>(),
            snap.histograms.into_keys().collect::<Vec<_>>(),
        )
    };
    // The first tenant registers every per-call metric name (the scrape
    // registers the recorder-drop gauge); after that, tenants add none.
    live_and_evict("churn/first");
    proto::handle_line(&core, r#"{"cmd":"metrics"}"#);
    let before = names();
    for i in 0..1_000 {
        live_and_evict(&format!("churn/{i}"));
    }
    assert_eq!(names(), before, "tenant churn registered new metric names");
    assert!(core.tenants().is_empty());
}

#[test]
fn scrapes_are_safe_concurrent_with_reregistration_and_eviction() {
    let core = Arc::new(ServiceCore::default());
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Mutator: flip the scenario between two contents (engine swap +
        // alias churn) and periodically evict/re-register.
        scope.spawn(|| {
            let a = presets::testbed_rack20(0);
            let mut b = presets::testbed_rack20(0);
            b.zones[0].cooling.cf_watts_per_kelvin *= 1.25;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let scenario = if i.is_multiple_of(2) { &a } else { &b };
                core.register_scenario(scenario).unwrap();
                if i % 7 == 6 {
                    core.evict("testbed_rack20/rack");
                    core.register_scenario(&a).unwrap();
                }
                i += 1;
            }
        });
        // Traffic: keep submissions flowing (UnknownTenant during the
        // evict window is expected and fine).
        scope.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let _ = core.submit("testbed_rack20/rack", &[(i % 17) as f64]);
                i += 1;
            }
        });
        // Scrapers: every snapshot must be schema-valid with no torn rows.
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let line = proto::handle_line(&core, r#"{"cmd":"stats"}"#);
                    let doc: Value = serde_json::from_str(&line).unwrap();
                    let fields = doc.as_object().unwrap();
                    assert_eq!(
                        get_field(fields, "schema").unwrap().as_str().unwrap(),
                        SERVICE_STATS_SCHEMA
                    );
                    for row in get_field(fields, "tenants").unwrap().as_array().unwrap() {
                        let row = row.as_object().unwrap();
                        let engine = get_field(row, "engine").unwrap().as_str().unwrap();
                        assert!(matches!(engine, "flat" | "hier" | "none"));
                        let slo = get_field(row, "slo").unwrap().as_object().unwrap();
                        let attempts = get_field(slo, "attempts").unwrap().as_u64().unwrap();
                        let breaches = get_field(slo, "breaches").unwrap().as_u64().unwrap();
                        let shed = get_field(slo, "shed").unwrap().as_u64().unwrap();
                        assert!(breaches + shed <= attempts, "counters never tear");
                    }
                    let _ = proto::handle_line(&core, r#"{"cmd":"metrics"}"#);
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn derived_rates_are_pinned_at_zero_denominators() {
    // Service counters with no traffic.
    let empty = StatsSnapshot {
        plans: 0,
        batches: 0,
        coalesced: 0,
        shed: 0,
        batch_size_log2: vec![0; 12],
    };
    assert_eq!(empty.mean_batch_size(), 0.0);
    assert_eq!(empty.shed_rate(), 0.0);

    // Windowed quantiles on an empty window.
    let latency = LatencyDoc::from_snapshot(&telemetry::HistogramSnapshot::default());
    assert_eq!(latency.count, 0);
    assert!(latency.mean_us.is_none());
    assert!(latency.p50_us.is_none() && latency.p99_us.is_none() && latency.p999_us.is_none());

    // A fresh tenant's verdict: no attempts, zero burn, healthy, no alert.
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    let verdict: SloVerdict = core.get("testbed_rack20/rack").unwrap().slo_verdict();
    assert_eq!(verdict.attempts, 0);
    assert_eq!(verdict.fast_burn.burn_rate, 0.0);
    assert_eq!(verdict.slow_burn.burn_rate, 0.0);
    assert!(verdict.healthy && !verdict.alerting);
    assert!(verdict.exemplars.is_empty());

    // A whole stats doc over an idle core.
    let doc = core.stats_doc();
    assert_eq!(doc.schema, SERVICE_STATS_SCHEMA);
    assert_eq!(doc.mean_batch_size, 0.0);
    assert_eq!(doc.shed_rate, 0.0);
    assert_eq!(doc.tenants.len(), 1);
    assert_eq!(doc.tenants[0].queue_wait.count, 0);
}

#[test]
fn query_scrape_answers_compressed_history_in_protocol() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    core.submit("testbed_rack20/rack", &[1.0, 2.0]).unwrap();

    // Feed the process-global store directly (the serve binary does this
    // through a background Collector); unique names keep this test
    // independent of others sharing the store.
    let db = telemetry::tsdb();
    for i in 0..300i64 {
        db.append("obs_query.power_watts", i * 250, 40.0 + (i % 7) as f64);
    }
    core.sample_into(db, 75_000);

    let line = proto::handle_line(&core, r#"{"cmd":"query","series":"obs_query.*"}"#);
    let reply: proto::QueryReply = serde_json::from_str(&line).unwrap();
    assert_eq!(reply.schema, proto::QUERY_REPLY_SCHEMA);
    assert_eq!(reply.pattern, "obs_query.*");
    assert_eq!(reply.agg, "mean");
    assert_eq!(reply.step_ms, 0);
    assert!(reply.tsdb_enabled);
    assert_eq!(reply.series.len(), 1, "prefix match hits one series");
    let doc = &reply.series[0];
    assert_eq!(doc.name, "obs_query.power_watts");
    assert_eq!(doc.appended, 300);
    assert_eq!(doc.points.len(), 300, "raw window returns every sample");
    assert_eq!(doc.points[0], (0, 40.0));
    assert!(doc.compression_ratio > 1.0, "steady series compress");
    assert!(reply.total_series >= 1 && reply.total_points >= 300);
    assert!(reply.total_stored_bytes > 0);
    assert!(reply.compression_ratio > 1.0);

    // Step alignment + aggregator + window + limit, all honored.
    let line = proto::handle_line(
        &core,
        r#"{"cmd":"query","series":"obs_query.power_watts","start_ms":0,"end_ms":9999,"step_ms":1000,"agg":"max","limit":7}"#,
    );
    let reply: proto::QueryReply = serde_json::from_str(&line).unwrap();
    assert_eq!(reply.agg, "max");
    assert_eq!(reply.step_ms, 1000);
    let doc = &reply.series[0];
    assert_eq!(doc.points.len(), 7, "limit keeps the newest points");
    assert_eq!(doc.points.last().unwrap().0, 9000);
    for &(t, v) in &doc.points {
        assert_eq!(t % 1000, 0, "bucket timestamps align to the step");
        assert!((40.0..=46.0).contains(&v));
    }

    // The collector source landed the service-level series too, including
    // the per-tenant plan count (SLO attempts − shed).
    for series in [
        "coolopt_service.plans",
        "coolopt_service.tenant.testbed_rack20/rack.plans",
    ] {
        let line = proto::handle_line(&core, &format!(r#"{{"cmd":"query","series":"{series}"}}"#));
        let reply: proto::QueryReply = serde_json::from_str(&line).unwrap();
        assert_eq!(reply.series.len(), 1, "{series}");
        assert_eq!(reply.series[0].points, vec![(75_000, 2.0)], "{series}");
    }

    // Sampling the registry (the serve collector does both) adds no second
    // series for any service count.
    telemetry::sample_registry_into(db, 75_000);
    for duplicate in [
        "coolopt_service_plans_total",
        "coolopt_service_batches_total",
        "coolopt_service_shed_total",
        "coolopt_service_batch_size:count",
        "coolopt_service_queue_depth",
    ] {
        assert!(
            db.query(duplicate, &telemetry::RangeQuery::default())
                .is_none(),
            "{duplicate} duplicates a sample_into series"
        );
    }

    // An unknown aggregator is a request-level error, not a panic.
    match proto::handle_request(&core, r#"{"cmd":"query","agg":"median"}"#) {
        proto::Reply::Plan(response) => {
            assert!(!response.ok);
            assert!(response.error.unwrap().contains("unknown agg"));
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn trace_scrape_ships_a_bounded_chrome_fragment() {
    let core = ServiceCore::default();
    core.register_scenario(&presets::testbed_rack20(0)).unwrap();
    core.submit("testbed_rack20/rack", &[1.0, 2.0, 3.0])
        .unwrap();

    let line = proto::handle_line(&core, r#"{"cmd":"trace","limit":5}"#);
    // The fragment is embedded as a raw value, so decode the line as a
    // generic tree rather than a typed struct.
    let doc: Value = serde_json::from_str(&line).unwrap();
    let fields = doc.as_object().expect("trace reply is an object");
    assert_eq!(
        get_field(fields, "schema").unwrap().as_str().unwrap(),
        proto::TRACE_REPLY_SCHEMA
    );
    assert_eq!(
        get_field(fields, "trace_enabled").unwrap(),
        &Value::Bool(true)
    );
    let total = get_field(fields, "total_records")
        .unwrap()
        .as_u64()
        .unwrap();
    let returned = get_field(fields, "returned").unwrap().as_u64().unwrap();
    assert!(returned <= 5, "limit bounds the shipped records");
    assert!(returned <= total);
    let chrome = get_field(fields, "chrome_json")
        .unwrap()
        .as_object()
        .expect("the fragment embeds as a real JSON object");
    let events = get_field(chrome, "traceEvents")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(events.len() as u64, returned);
    assert!(returned > 0, "submissions record spans");
}
