//! Tests of the causal-tracing public API: span nesting through the
//! thread-local stack, cross-thread parenting, flight-recorder snapshots
//! and their exports.

use coolopt_telemetry as telemetry;
use std::sync::Mutex;

/// The flight recorder is process-global; serialize tests that reset it.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_nest_through_the_thread_local_stack() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    {
        let outer = telemetry::span("outer_op").attr("n", 20u64);
        assert_eq!(telemetry::current_span_id(), outer.id());
        {
            let inner = telemetry::span("inner_op");
            assert_eq!(telemetry::current_span_id(), inner.id());
            telemetry::trace_instant("mark", &[("step", 3u64.into())]);
        }
        assert_eq!(telemetry::current_span_id(), outer.id());
    }
    assert_eq!(telemetry::current_span_id(), 0);
    let snap = telemetry::flight_snapshot();
    let outer = snap
        .records
        .iter()
        .find(|r| r.name == "outer_op")
        .expect("outer recorded");
    let inner = snap
        .records
        .iter()
        .find(|r| r.name == "inner_op")
        .expect("inner recorded");
    let mark = snap
        .records
        .iter()
        .find(|r| r.name == "mark")
        .expect("instant recorded");
    assert_eq!(inner.parent, outer.id);
    assert_eq!(mark.parent, inner.id);
    assert_eq!(mark.kind, telemetry::RecordKind::Instant);
    assert_eq!(outer.attrs, vec![("n", telemetry::Attr::U64(20))]);
    assert!(outer.end_ns >= inner.end_ns);
    let tree = snap.render_tree();
    assert!(tree.contains("outer_op"), "{tree}");
    let json = snap.to_chrome_json();
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"inner_op\""));
}

#[test]
fn explicit_parents_carry_causality_across_threads() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let root = telemetry::span("dispatch");
    let root_id = root.id();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _worker = telemetry::span_child_of("worker_op", root_id);
        });
    });
    drop(root);
    let snap = telemetry::flight_snapshot();
    let worker = snap
        .records
        .iter()
        .find(|r| r.name == "worker_op")
        .expect("worker recorded");
    let root = snap
        .records
        .iter()
        .find(|r| r.name == "dispatch")
        .expect("root recorded");
    assert_eq!(worker.parent, root.id);
    assert_ne!(worker.thread, root.thread, "dense thread ids differ");
}

#[test]
fn record_into_feeds_the_latency_histogram() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let before = telemetry::histogram("trace_span_seconds").count();
    let elapsed = telemetry::span("timed_op")
        .record_into("trace_span_seconds")
        .stop();
    assert!(elapsed >= 0.0);
    assert_eq!(
        telemetry::histogram("trace_span_seconds").count(),
        before + 1
    );
    let snap = telemetry::flight_snapshot();
    assert!(snap.records.iter().any(|r| r.name == "timed_op"));
}

#[test]
fn attrs_saturate_at_capacity_without_allocation_or_panic() {
    let _guard = lock();
    telemetry::reset_flight_recorder();
    let mut span = telemetry::span("attr_heavy");
    for i in 0..(telemetry::MAX_SPAN_ATTRS + 3) {
        span.set_attr("k", i);
    }
    drop(span);
    let snap = telemetry::flight_snapshot();
    let rec = snap
        .records
        .iter()
        .find(|r| r.name == "attr_heavy")
        .expect("recorded");
    assert_eq!(rec.attrs.len(), telemetry::MAX_SPAN_ATTRS);
}
