//! The flight recorder's resident memory: a ring costs memory only for the
//! slots it writes. A test binary of its own, so that no other test
//! allocates beside the measurement or builds the recorder first.

use coolopt_telemetry as telemetry;

/// This process's resident set size in KiB, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line")
}

#[cfg(target_os = "linux")]
#[test]
fn a_large_ring_is_resident_only_where_written() {
    // 2^20 slots of about 230 bytes: some 240 MB if every slot were touched.
    const SLOTS: usize = 1 << 20;
    const BOUND_KIB: u64 = 64 * 1024;
    let before = vm_rss_kib();
    assert!(
        telemetry::init_flight_recorder(SLOTS),
        "nothing in this binary built the recorder before"
    );
    let built = vm_rss_kib();
    assert!(
        built.saturating_sub(before) < BOUND_KIB,
        "building the ring raised VmRSS from {before} to {built} KiB"
    );

    // A partial lap: the snapshot holds exactly the records written, and
    // after a reset only what was written since.
    for i in 0..100u64 {
        telemetry::trace_instant("mark", &[("i", i.into())]);
    }
    let snap = telemetry::flight_snapshot();
    assert_eq!(snap.records.len(), 100);
    assert_eq!(snap.dropped, 0);
    telemetry::reset_flight_recorder();
    assert!(telemetry::flight_snapshot().records.is_empty());
    telemetry::trace_instant("after_reset", &[]);
    let snap = telemetry::flight_snapshot();
    let names: Vec<&str> = snap.records.iter().map(|r| r.name).collect();
    assert_eq!(names, ["after_reset"]);

    let settled = vm_rss_kib();
    assert!(
        settled.saturating_sub(before) < BOUND_KIB,
        "writing, snapshotting and resetting a partial lap raised VmRSS from {before} to {settled} KiB"
    );
}
