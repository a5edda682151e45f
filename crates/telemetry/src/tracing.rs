//! Causal span tracing and the flight recorder.
//!
//! A [`Span`] is an RAII guard: creating one pushes it onto a thread-local
//! span stack (so the enclosing span becomes its parent), dropping it pops
//! the stack and writes one fixed-size record into the global
//! **flight recorder** — a lock-free ring buffer that survives hot loops
//! with zero allocation per record. [`flight_snapshot`] freezes the ring
//! into a [`TraceSnapshot`](crate::TraceSnapshot) at any time, which
//! renders to Chrome `chrome://tracing` JSON or a collapsed text tree.
//!
//! The ring is multi-producer: a writer claims a slot by swapping an odd
//! "in-progress" ticket into the slot's sequence word, writes the record,
//! then publishes an even ticket. A snapshot reads the sequence before and
//! after copying the record and discards torn slots; a writer that finds
//! another writer mid-flight in a lapped slot drops its record instead of
//! racing. Every slot still ends up holding one record, so the records
//! lost to laps and to contention together are exactly those written
//! beyond the ring's capacity, surfaced as [`TraceSnapshot::dropped`].

use crate::metrics::Histogram;
use crate::tracefmt::{Attr, RecordKind, TraceRecord, TraceSnapshot};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default flight-recorder capacity (records). Each slot is a fixed
/// ~230 bytes, so the default ring reserves a few megabytes; it becomes
/// resident only as slots are written.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 16_384;

/// Attributes a single record can carry.
pub const MAX_SPAN_ATTRS: usize = 4;

type RawAttrs = [Option<(&'static str, Attr)>; MAX_SPAN_ATTRS];

/// The fixed-size datum stored in one ring slot.
#[derive(Clone, Copy)]
struct RawRecord {
    kind: RecordKind,
    name: &'static str,
    id: u64,
    parent: u64,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
    attrs: RawAttrs,
}

/// One ring slot. All-zero bytes are a never-written slot.
struct Slot {
    /// 0 = never written; odd = write in progress; even = published.
    seq: AtomicU64,
    /// Initialized once `seq` has been published.
    data: UnsafeCell<MaybeUninit<RawRecord>>,
}

/// The lock-free ring buffer of span/event records.
pub(crate) struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

// SAFETY: slot data is only read/written under the seq protocol — a slot's
// datum is written by at most one thread at a time (odd-ticket claim), and
// readers validate the sequence around their copy, discarding tears.
unsafe impl Sync for FlightRecorder {}

impl FlightRecorder {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        // SAFETY: a zeroed `Slot` is valid: `seq` 0 (never written) and
        // uninitialized data. The zeroed pages come from the allocator
        // untouched, so a slot costs resident memory once it is written.
        let slots = unsafe { Box::<[Slot]>::new_zeroed_slice(capacity).assume_init() };
        FlightRecorder {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// The slots written since the ring was built or reset: writes go
    /// round the ring from slot 0, so no slot past these holds a record.
    fn written_slots(&self) -> &[Slot] {
        // A count only: each slot's own `seq` publishes its record.
        let written = self.head.load(Ordering::Relaxed);
        &self.slots[..written.min(self.slots.len() as u64) as usize]
    }

    fn write(&self, record: RawRecord) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        // Publish ticket: strictly increasing per slot, even, nonzero.
        let publish = (idx + 1) << 1;
        let claim = publish | 1;
        let prev = slot.seq.swap(claim, Ordering::Acquire);
        if prev & 1 == 1 {
            // A lapped writer is mid-flight in this very slot. Writing now
            // would race on the datum; drop this record instead (the other
            // writer's publish supersedes our claim ticket, and the slot
            // keeps its record, so `dropped` already counts this one).
            return;
        }
        // SAFETY: the odd claim ticket excludes other writers until the
        // publish store below; readers discard copies whose surrounding
        // sequence reads disagree or are odd.
        unsafe { (*slot.data.get()).write(record) };
        slot.seq.store(publish, Ordering::Release);
    }

    fn snapshot(&self) -> TraceSnapshot {
        let slots = self.written_slots();
        let mut records = Vec::with_capacity(slots.len());
        for slot in slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            // SAFETY: the copy is validated by re-reading the sequence; a
            // concurrent writer flips it odd first, so s1 == s2 (even)
            // implies the bytes we copied are one published record.
            let copy = unsafe { *slot.data.get() };
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue;
            }
            // SAFETY: a published (even, nonzero) sequence, unchanged
            // around the copy, means the copied datum was written whole.
            let raw = unsafe { copy.assume_init() };
            records.push(TraceRecord {
                kind: raw.kind,
                name: raw.name,
                id: raw.id,
                parent: raw.parent,
                thread: raw.thread,
                start_ns: raw.start_ns,
                end_ns: raw.end_ns,
                attrs: raw.attrs.iter().flatten().copied().collect(),
            });
        }
        records.sort_by_key(|r| (r.start_ns, r.id));
        TraceSnapshot {
            records,
            dropped: self.dropped(),
        }
    }

    /// Records written beyond the ring's capacity: each one was either
    /// overwritten by a later lap or dropped under contention.
    fn dropped(&self) -> u64 {
        let written = self.head.load(Ordering::Relaxed);
        written.saturating_sub(self.slots.len() as u64)
    }

    fn reset(&self) {
        // Test/reporting helper, not safe against concurrent writers in
        // the sense of completeness (a racing record may survive or
        // vanish) — but never unsound: slots keep their seq protocol.
        for slot in self.written_slots() {
            slot.seq.store(0, Ordering::Release);
        }
        self.head.store(0, Ordering::Release);
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY))
}

/// Sizes the flight recorder before first use. Returns `true` when the
/// capacity was applied; `false` when the recorder already exists (first
/// span wins), in which case the existing ring is kept.
pub fn init_flight_recorder(capacity: usize) -> bool {
    let mut applied = false;
    RECORDER.get_or_init(|| {
        applied = true;
        FlightRecorder::with_capacity(capacity)
    });
    applied
}

/// Clears the flight recorder (tests and per-phase reports). Records
/// written concurrently with the reset may or may not survive.
pub fn reset_flight_recorder() {
    if let Some(r) = RECORDER.get() {
        r.reset();
    }
}

fn thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

fn now_pair() -> (Instant, u64) {
    let now = Instant::now();
    let epoch = *EPOCH.get_or_init(|| now);
    let ns = now
        .checked_duration_since(epoch)
        .map_or(0, |d| d.as_nanos() as u64);
    (now, ns)
}

/// The id of the span currently enclosing this thread, `0` when none.
pub fn current_span_id() -> u64 {
    SPAN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0))
}

/// An RAII causal span: times the scope it lives in, records one flight
/// record (with its parent link) on drop, and optionally observes its
/// elapsed seconds into a latency histogram.
///
/// Obtain one from [`span`] (parented on the thread's current span) or
/// [`span_child_of`] (explicit parent, for work handed to other threads).
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    attrs: RawAttrs,
    histogram: Option<&'static Histogram>,
    finished: bool,
}

/// Starts a span as a child of the thread's current span (root when there
/// is none).
pub fn span(name: &'static str) -> Span {
    let parent = current_span_id();
    span_child_of(name, parent)
}

/// Starts a span with an explicit parent id (`0` for a root). Use this to
/// keep causality across threads: capture [`Span::id`] (or
/// [`current_span_id`]) before spawning and parent the worker's spans on
/// it.
pub fn span_child_of(name: &'static str, parent: u64) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (start, start_ns) = now_pair();
    SPAN_STACK.with(|stack| stack.borrow_mut().push(id));
    Span {
        id,
        parent,
        name,
        start,
        start_ns,
        attrs: [None; MAX_SPAN_ATTRS],
        histogram: None,
        finished: false,
    }
}

impl Span {
    /// This span's id (for [`span_child_of`] on another thread).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a `key=value` attribute (builder-style). At most
    /// [`MAX_SPAN_ATTRS`] attributes are kept; further ones are silently
    /// ignored (fixed-size records keep recording allocation-free).
    pub fn attr(mut self, key: &'static str, value: impl Into<Attr>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// [`Span::attr`] through a mutable reference (for attributes computed
    /// after the span started).
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<Attr>) {
        if let Some(slot) = self.attrs.iter_mut().find(|a| a.is_none()) {
            *slot = Some((key, value.into()));
        }
    }

    /// Additionally records the span's elapsed seconds into the named
    /// latency histogram on drop, so one scope yields both the metric and
    /// the trace record.
    pub fn record_into(mut self, histogram: &'static str) -> Self {
        self.histogram = Some(crate::registry::histogram(histogram));
        self
    }

    /// Ends the span now and returns its elapsed seconds.
    pub fn stop(mut self) -> f64 {
        self.finish();
        self.start.elapsed().as_secs_f64()
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let elapsed = self.start.elapsed();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are expected to drop LIFO; tolerate out-of-order drops
            // by removing this id wherever it sits.
            match stack.last() {
                Some(&top) if top == self.id => {
                    stack.pop();
                }
                _ => {
                    if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                        stack.remove(pos);
                    }
                }
            }
        });
        recorder().write(RawRecord {
            kind: RecordKind::Span,
            name: self.name,
            id: self.id,
            parent: self.parent,
            thread: thread_id(),
            start_ns: self.start_ns,
            end_ns: self.start_ns + elapsed.as_nanos() as u64,
            attrs: self.attrs,
        });
        if let Some(h) = self.histogram {
            h.observe(elapsed.as_secs_f64());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Records an instantaneous event into the flight recorder, parented on
/// the thread's current span. `attrs` beyond [`MAX_SPAN_ATTRS`] are
/// dropped.
pub fn trace_instant(name: &'static str, attrs: &[(&'static str, Attr)]) {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (_, start_ns) = now_pair();
    let mut raw: RawAttrs = [None; MAX_SPAN_ATTRS];
    for (slot, &attr) in raw.iter_mut().zip(attrs) {
        *slot = Some(attr);
    }
    recorder().write(RawRecord {
        kind: RecordKind::Instant,
        name,
        id,
        parent: current_span_id(),
        thread: thread_id(),
        start_ns,
        end_ns: start_ns,
        attrs: raw,
    });
}

/// Freezes the flight recorder into plain data (records sorted by start
/// time). Concurrent writers are tolerated; torn slots are skipped.
pub fn flight_snapshot() -> TraceSnapshot {
    recorder().snapshot()
}

/// The flight recorder's dropped-record count (records written beyond
/// the ring's capacity, lapped or contended), read without cloning the
/// ring — cheap enough for periodic scrapes and run reports. Zero when no
/// recorder was ever touched.
pub fn flight_dropped() -> u64 {
    RECORDER.get().map_or(0, FlightRecorder::dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(id: u64, start: u64) -> RawRecord {
        RawRecord {
            kind: RecordKind::Span,
            name: "r",
            id,
            parent: 0,
            thread: 1,
            start_ns: start,
            end_ns: start + 10,
            attrs: [None; MAX_SPAN_ATTRS],
        }
    }

    #[test]
    fn ring_keeps_the_newest_records_and_counts_drops() {
        let ring = FlightRecorder::with_capacity(16);
        for i in 0..40 {
            ring.write(raw(i + 1, i * 100));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.records.len(), 16);
        assert_eq!(snap.dropped, 40 - 16);
        // Only the newest 16 survive, in start order.
        let ids: Vec<u64> = snap.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, (25..=40).collect::<Vec<u64>>());
    }

    #[test]
    fn ring_reset_empties_the_buffer() {
        let ring = FlightRecorder::with_capacity(16);
        ring.write(raw(1, 0));
        assert_eq!(ring.snapshot().records.len(), 1);
        ring.reset();
        let snap = ring.snapshot();
        assert!(snap.records.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn snapshot_and_reset_see_only_the_slots_written() {
        let ring = FlightRecorder::with_capacity(16);
        // A full lap and a partial one, then a reset: the first lap's
        // records must not come back after the next partial lap.
        for i in 0..21 {
            ring.write(raw(i + 1, i * 100));
        }
        assert_eq!(ring.snapshot().records.len(), 16);
        ring.reset();
        for i in 0..3 {
            ring.write(raw(100 + i, i * 100));
        }
        let snap = ring.snapshot();
        let ids: Vec<u64> = snap.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, [100, 101, 102]);
        assert_eq!(snap.dropped, 0);
        ring.reset();
        assert!(ring.snapshot().records.is_empty());
    }

    #[test]
    fn a_contended_drop_is_counted_once() {
        let ring = FlightRecorder::with_capacity(16);
        let capacity = ring.slots.len() as u64;
        // Park a writer mid-flight: take ticket 0 and claim slot 0's odd
        // ticket exactly as `write` does, without publishing yet.
        let parked = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[0];
        let publish = (parked + 1) << 1;
        assert_eq!(slot.seq.swap(publish | 1, Ordering::Acquire), 0);
        // One full lap: the writer that lands on slot 0 again finds it
        // mid-flight and drops its record.
        for i in 1..=capacity {
            ring.write(raw(i + 1, i * 100));
        }
        // SAFETY: this thread holds slot 0's odd claim ticket.
        unsafe { (*slot.data.get()).write(raw(1, 0)) };
        slot.seq.store(publish, Ordering::Release);

        let written = capacity + 1;
        let snap = ring.snapshot();
        assert_eq!(snap.records.len() as u64, capacity);
        assert!(
            snap.records.iter().any(|r| r.id == 1),
            "slot 0 kept the parked record"
        );
        assert_eq!(snap.dropped, written - capacity);
        assert_eq!(ring.dropped(), written - capacity);
    }

    #[test]
    fn concurrent_writers_never_tear_records() {
        let ring = FlightRecorder::with_capacity(64);
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = t * PER_THREAD + i + 1;
                        // start/end encode the id so tears are detectable.
                        let mut r = raw(id, id * 1000);
                        r.end_ns = id * 1000 + id;
                        ring.write(r);
                    }
                });
            }
        });
        let snap = ring.snapshot();
        assert!(!snap.records.is_empty());
        for r in &snap.records {
            assert_eq!(r.start_ns, r.id * 1000, "torn record: {r:?}");
            assert_eq!(r.end_ns, r.id * 1000 + r.id, "torn record: {r:?}");
        }
        // Everything written is either snapshotted, lapped, or dropped.
        assert!(snap.dropped <= THREADS * PER_THREAD);
    }
}
