//! Per-tenant window ring: error budgets, multi-window burn rates,
//! queue-wait/run latency and tail-sampled exemplars.
//!
//! Every tenant carries one `SloState`, a ring of `WINDOWS` = 6 windows
//! of `WINDOW_SECONDS` = 10 s each on one clock. A window's slot counts
//! *attempts* (every submitted load — the tenant's only count of its
//! traffic) and *bad* outcomes (shed by backpressure, or served over the
//! declared latency threshold), and holds the queue-wait and run latency
//! of the loads served in it. A submission records into one slot, so the
//! burn rates and the `stats` row's latency quantiles are two reads of
//! the same windows and each load is counted once. Recording into an open
//! window is lock-free and allocation-free; the first record of a window
//! rotates its slot under a short per-tenant lock, at most once per
//! window, and no record racing the rotation is lost.
//!
//! Burn-rate semantics follow the multi-window discipline: with error
//! budget `1 − availability_target`, the burn rate over a window is
//! `(bad / attempts) / budget` — 1.0 means the budget is being consumed
//! exactly as fast as the SLO allows. The engine alerts (a `warn`-level
//! event on the levelled stream) only when **both** the fast view (the
//! newest window) and the slow view (the whole ring) burn at
//! [`BURN_ALERT_RATE`] or faster, so a single slow batch does not page
//! but a sustained breach does; recovery emits an `info` event.
//!
//! Breaching submissions are tail-sampled as [`Exemplar`]s carrying the
//! flight-recorder span id of the micro-batch that served them, so a slow
//! plan in a `stats` scrape links directly to its `service_batch` span in
//! the exported Chrome trace.

use crate::coalesce::BatchMeta;
use coolopt_scenario::SloPolicy;
use coolopt_telemetry::{self as telemetry, Histogram, HistogramSnapshot, DEFAULT_LATENCY_BUCKETS};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Seconds per window of the ring.
pub(crate) const WINDOW_SECONDS: f64 = 10.0;

/// Windows in the ring. The slow burn view and the latency quantiles
/// span all of them; the fast burn view is the newest one.
pub(crate) const WINDOWS: usize = 6;

const WINDOW_NS: u64 = WINDOW_SECONDS as u64 * 1_000_000_000;

/// Windows in the fast burn view (the newest one).
const FAST_WINDOWS: u64 = 1;

/// Burn rate at which the multi-window alert trips: budget consumed at
/// twice the sustainable pace on both the fast and the slow view.
pub const BURN_ALERT_RATE: f64 = 2.0;

/// Most recent breaching submissions retained as exemplars.
const EXEMPLAR_CAP: usize = 4;

/// One tail-sampled SLO breach: a submission over the latency threshold,
/// linked to the flight-recorder span of the micro-batch that served it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// `service_batch` span id in the flight recorder / Chrome trace
    /// (0 when the batch had no span).
    pub span_id: u64,
    /// The breaching submission's client-visible latency.
    pub latency_seconds: f64,
    /// Loads the submission carried.
    pub loads: u64,
}

/// Error-budget burn over one view (the fast window or the whole ring).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnWindow {
    /// The view's span in seconds.
    pub window_seconds: f64,
    /// Loads attempted in the view.
    pub attempts: u64,
    /// Loads shed or served over the latency threshold in the view.
    pub bad: u64,
    /// `(bad / attempts) / (1 − availability_target)`; 0 when the view is
    /// empty (no traffic burns no budget).
    pub burn_rate: f64,
}

/// A point-in-time SLO evaluation for one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloVerdict {
    /// The declared latency threshold (s).
    pub latency_threshold_seconds: f64,
    /// The declared availability target.
    pub availability_target: f64,
    /// All-time attempted loads (served + shed).
    pub attempts: u64,
    /// All-time loads served over the latency threshold.
    pub breaches: u64,
    /// All-time loads shed by backpressure.
    pub shed: u64,
    /// Burn over the newest window.
    pub fast_burn: BurnWindow,
    /// Burn over the whole ring.
    pub slow_burn: BurnWindow,
    /// `true` while the multi-window burn-rate alert is raised.
    pub alerting: bool,
    /// `true` while the slow view burns under 1.0 — the budget lasts.
    pub healthy: bool,
    /// Most recent breaching submissions, oldest first.
    pub exemplars: Vec<Exemplar>,
}

/// One window of the ring: its load counts and the latency of the loads
/// served in it. `tag` is `window_index + 1` (0 means "never used") and is
/// published last when the slot is rotated to a new window.
#[derive(Debug)]
struct WindowSlot {
    tag: AtomicU64,
    attempts: AtomicU64,
    bad: AtomicU64,
    /// Join → batch start, per served load.
    queue_wait: Histogram,
    /// Batch start → answers published, per served load.
    run: Histogram,
}

/// Per-tenant window ring and SLO accounting. See the module docs.
#[derive(Debug)]
pub(crate) struct SloState {
    /// Tenant key, for event attribution.
    key: String,
    epoch: Instant,
    /// Current policy as f64 bits (updatable on re-registration without a
    /// lock on the record path).
    threshold_bits: AtomicU64,
    target_bits: AtomicU64,
    slots: [WindowSlot; WINDOWS],
    /// Held while a slot is rotated to a new window.
    rotation: Mutex<()>,
    attempts_total: AtomicU64,
    breaches_total: AtomicU64,
    shed_total: AtomicU64,
    alerting: AtomicBool,
    exemplars: Mutex<VecDeque<Exemplar>>,
}

impl SloState {
    pub(crate) fn new(key: &str, policy: SloPolicy) -> Self {
        SloState {
            key: key.to_string(),
            epoch: Instant::now(),
            threshold_bits: AtomicU64::new(policy.latency_threshold_seconds.to_bits()),
            target_bits: AtomicU64::new(policy.availability_target.to_bits()),
            slots: std::array::from_fn(|_| WindowSlot {
                tag: AtomicU64::new(0),
                attempts: AtomicU64::new(0),
                bad: AtomicU64::new(0),
                queue_wait: Histogram::new(DEFAULT_LATENCY_BUCKETS),
                run: Histogram::new(DEFAULT_LATENCY_BUCKETS),
            }),
            rotation: Mutex::new(()),
            attempts_total: AtomicU64::new(0),
            breaches_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            alerting: AtomicBool::new(false),
            exemplars: Mutex::new(VecDeque::with_capacity(EXEMPLAR_CAP)),
        }
    }

    pub(crate) fn policy(&self) -> SloPolicy {
        SloPolicy {
            latency_threshold_seconds: f64::from_bits(self.threshold_bits.load(Ordering::Relaxed)),
            availability_target: f64::from_bits(self.target_bits.load(Ordering::Relaxed)),
        }
    }

    pub(crate) fn set_policy(&self, policy: SloPolicy) {
        self.threshold_bits.store(
            policy.latency_threshold_seconds.to_bits(),
            Ordering::Relaxed,
        );
        self.target_bits
            .store(policy.availability_target.to_bits(), Ordering::Relaxed);
    }

    /// Nanoseconds since this state's epoch — the timestamp domain of the
    /// `_at_ns` record/read methods (explicit for deterministic tests).
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one served submission of `loads` loads with client-visible
    /// latency `latency_seconds`. `meta` is the serving batch's (absent
    /// when no load went through a batch): it adds the loads' queue wait
    /// and run to the window and links a breach to the batch's span.
    pub(crate) fn record_served(
        &self,
        at_ns: u64,
        loads: u64,
        latency_seconds: f64,
        meta: Option<BatchMeta>,
    ) {
        if loads == 0 {
            return;
        }
        let w = at_ns / WINDOW_NS;
        let slot = self.slot(w);
        if let Some(meta) = meta {
            slot.queue_wait
                .observe_n(meta.queue_wait.as_secs_f64(), loads);
            slot.run.observe_n(meta.run.as_secs_f64(), loads);
        }
        slot.attempts.fetch_add(loads, Ordering::Relaxed);
        // Attempts are bumped before bad counts, and bad counts are
        // released / acquired, so a concurrent reader can never observe
        // `breaches + shed > attempts`.
        self.attempts_total.fetch_add(loads, Ordering::Relaxed);
        if latency_seconds > f64::from_bits(self.threshold_bits.load(Ordering::Relaxed)) {
            slot.bad.fetch_add(loads, Ordering::Relaxed);
            self.breaches_total.fetch_add(loads, Ordering::Release);
            let mut exemplars = self.exemplars.lock().expect("exemplar lock poisoned");
            if exemplars.len() == EXEMPLAR_CAP {
                exemplars.pop_front();
            }
            exemplars.push_back(Exemplar {
                span_id: meta.map_or(0, |m| m.span_id),
                latency_seconds,
                loads,
            });
        }
        self.evaluate(w);
    }

    /// Records `loads` loads refused by backpressure.
    pub(crate) fn record_shed(&self, at_ns: u64, loads: u64) {
        if loads == 0 {
            return;
        }
        let w = at_ns / WINDOW_NS;
        let slot = self.slot(w);
        slot.attempts.fetch_add(loads, Ordering::Relaxed);
        slot.bad.fetch_add(loads, Ordering::Relaxed);
        self.attempts_total.fetch_add(loads, Ordering::Relaxed);
        self.shed_total.fetch_add(loads, Ordering::Release);
        self.evaluate(w);
    }

    /// The full verdict, evaluated now.
    pub(crate) fn verdict(&self) -> SloVerdict {
        self.verdict_at_ns(self.elapsed_ns())
    }

    /// The full verdict at the explicit epoch offset `at_ns`.
    pub(crate) fn verdict_at_ns(&self, at_ns: u64) -> SloVerdict {
        let w = at_ns / WINDOW_NS;
        let policy = self.policy();
        let (fast, slow, alerting) = self.evaluate(w);
        // Bad counts first (acquire pairs with the record-side release),
        // attempts last: every bad load read here has its attempt visible.
        let breaches = self.breaches_total.load(Ordering::Acquire);
        let shed = self.shed_total.load(Ordering::Acquire);
        SloVerdict {
            latency_threshold_seconds: policy.latency_threshold_seconds,
            availability_target: policy.availability_target,
            attempts: self.attempts_total.load(Ordering::Relaxed),
            breaches,
            shed,
            fast_burn: fast,
            slow_burn: slow,
            alerting,
            healthy: slow.burn_rate < 1.0,
            exemplars: self
                .exemplars
                .lock()
                .expect("exemplar lock poisoned")
                .iter()
                .copied()
                .collect(),
        }
    }

    /// Queue-wait and run latency of the loads served in the ring's
    /// windows ending at `at_ns` — the windows of the slow burn view.
    pub(crate) fn latency_at_ns(&self, at_ns: u64) -> (HistogramSnapshot, HistogramSnapshot) {
        // Folding from a zero snapshot with the slots' layout gives every
        // view, an empty one included, the same bucket bounds.
        let zero = HistogramSnapshot {
            bounds: DEFAULT_LATENCY_BUCKETS.to_vec(),
            counts: vec![0; DEFAULT_LATENCY_BUCKETS.len() + 1],
            ..HistogramSnapshot::default()
        };
        self.in_view(at_ns / WINDOW_NS, WINDOWS as u64).fold(
            (zero.clone(), zero),
            |(queue_wait, run), slot| {
                (
                    queue_wait.merge(&slot.queue_wait.snapshot()),
                    run.merge(&slot.run.snapshot()),
                )
            },
        )
    }

    /// The slot for window `w`, rotated to `w` first when this is the
    /// window's first record. Rotation zeroes the slot under the rotation
    /// lock and publishes the tag last (`Release`, paired with the
    /// `Acquire` loads here and in [`SloState::in_view`]), so a recorder
    /// that sees the new tag records after the zeroing and no record of
    /// the new window is lost; racing first recorders wait on the lock.
    /// A slot only ever moves *forward* — stragglers carrying an
    /// already-retired window index record into the newest owner instead
    /// of resurrecting the old window.
    fn slot(&self, w: u64) -> &WindowSlot {
        let slot = &self.slots[(w % WINDOWS as u64) as usize];
        let tag = w + 1;
        if slot.tag.load(Ordering::Acquire) < tag {
            let _rotating = self.rotation.lock().expect("window rotation lock poisoned");
            if slot.tag.load(Ordering::Acquire) < tag {
                slot.attempts.store(0, Ordering::Relaxed);
                slot.bad.store(0, Ordering::Relaxed);
                slot.queue_wait.clear();
                slot.run.clear();
                slot.tag.store(tag, Ordering::Release);
            }
        }
        slot
    }

    /// The slots holding the last `k` windows ending at `w`.
    fn in_view(&self, w: u64, k: u64) -> impl Iterator<Item = &WindowSlot> {
        let lo = (w + 1).saturating_sub(k);
        self.slots.iter().filter(move |slot| {
            let tag = slot.tag.load(Ordering::Acquire);
            tag > lo && tag <= w + 1
        })
    }

    /// Sums attempts/bad over the last `k` windows ending at `w`.
    fn view(&self, w: u64, k: u64) -> (u64, u64) {
        self.in_view(w, k).fold((0, 0), |(attempts, bad), slot| {
            (
                attempts + slot.attempts.load(Ordering::Relaxed),
                bad + slot.bad.load(Ordering::Relaxed),
            )
        })
    }

    /// Computes both burn views at window `w` and drives the alert state
    /// machine, emitting `warn` (raise) / `info` (recover) events on
    /// transitions.
    fn evaluate(&self, w: u64) -> (BurnWindow, BurnWindow, bool) {
        let policy = self.policy();
        // Validation keeps the target strictly inside (0, 1); the floor
        // guards explicitly-constructed configs against a zero budget.
        let budget = (1.0 - policy.availability_target).max(1e-9);
        let burn = |k: u64| {
            let (attempts, bad) = self.view(w, k);
            let rate = if attempts == 0 {
                0.0
            } else {
                (bad as f64 / attempts as f64) / budget
            };
            BurnWindow {
                window_seconds: k as f64 * WINDOW_SECONDS,
                attempts,
                bad,
                burn_rate: rate,
            }
        };
        let fast = burn(FAST_WINDOWS);
        let slow = burn(WINDOWS as u64);
        let alerting = fast.burn_rate >= BURN_ALERT_RATE && slow.burn_rate >= BURN_ALERT_RATE;
        let was = self.alerting.swap(alerting, Ordering::AcqRel);
        if alerting && !was {
            let exemplar_span = self
                .exemplars
                .lock()
                .expect("exemplar lock poisoned")
                .back()
                .map_or(0, |e| e.span_id);
            telemetry::warn!(
                "slo",
                "error budget burn-rate alert",
                tenant = self.key.clone(),
                burn_fast = fast.burn_rate,
                burn_slow = slow.burn_rate,
                threshold_seconds = policy.latency_threshold_seconds,
                exemplar_span = exemplar_span
            );
        } else if was && !alerting {
            telemetry::info!(
                "slo",
                "error budget burn recovered",
                tenant = self.key.clone(),
                burn_fast = fast.burn_rate,
                burn_slow = slow.burn_rate
            );
        }
        (fast, slow, alerting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;

    const W: u64 = WINDOW_NS;

    /// A policy no test submission breaches and whose budget no test shed
    /// burns fast enough to alert.
    fn state() -> SloState {
        SloState::new(
            "test/tenant",
            SloPolicy {
                latency_threshold_seconds: 1.0,
                availability_target: 0.5,
            },
        )
    }

    fn meta(queue_wait_ns: u64, run_ns: u64) -> Option<BatchMeta> {
        Some(BatchMeta {
            span_id: 7,
            queue_wait: Duration::from_nanos(queue_wait_ns),
            run: Duration::from_nanos(run_ns),
        })
    }

    #[test]
    fn a_fresh_ring_is_empty_with_null_quantiles() {
        let slo = state();
        let (queue_wait, run) = slo.latency_at_ns(0);
        for view in [&queue_wait, &run] {
            assert_eq!(view.bounds, DEFAULT_LATENCY_BUCKETS);
            assert_eq!(view.count, 0);
            assert_eq!(view.quantile(0.99), None);
            assert_eq!(view.mean(), None);
        }
        assert_eq!(slo.verdict_at_ns(0).slow_burn.attempts, 0);
    }

    #[test]
    fn windows_older_than_the_ring_drop_out_of_every_view() {
        let slo = state();
        slo.record_served(0, 10, 0.001, meta(1_000, 2_000));
        slo.record_served(W + 1, 5, 0.001, meta(1_000, 2_000));
        let verdict = slo.verdict_at_ns(W + 2);
        assert_eq!(verdict.fast_burn.attempts, 5);
        assert_eq!(verdict.slow_burn.attempts, 15);
        assert_eq!(slo.latency_at_ns(W + 2).0.count, 15);

        // Window `WINDOWS` reuses window 0's slot: window 0 has left the
        // ring, window 1 has not.
        let last = WINDOWS as u64 * W;
        assert_eq!(slo.verdict_at_ns(last).slow_burn.attempts, 5);
        let (queue_wait, run) = slo.latency_at_ns(last);
        assert_eq!((queue_wait.count, run.count), (5, 5));
        // The reused slot starts its new window from zero.
        slo.record_served(last, 2, 0.001, meta(1_000, 2_000));
        let verdict = slo.verdict_at_ns(last);
        assert_eq!(verdict.fast_burn.attempts, 2);
        assert_eq!(verdict.slow_burn.attempts, 7);
        assert_eq!(slo.latency_at_ns(last).1.count, 7);
        assert_eq!(verdict.attempts, 17, "all-time totals keep every load");
    }

    #[test]
    fn an_idle_gap_empties_every_view() {
        let slo = state();
        slo.record_served(0, 100, 0.001, meta(1_000, 2_000));
        let verdict = slo.verdict_at_ns(50 * W);
        assert_eq!(verdict.fast_burn.attempts, 0);
        assert_eq!(verdict.slow_burn.attempts, 0);
        assert_eq!(verdict.attempts, 100);
        let (queue_wait, run) = slo.latency_at_ns(50 * W);
        assert_eq!((queue_wait.count, run.count), (0, 0));
        assert_eq!(queue_wait.quantile(0.5), None);
    }

    #[test]
    fn a_straggler_records_into_its_slots_newest_window() {
        let slo = state();
        let last = WINDOWS as u64 * W;
        slo.record_served(last, 3, 0.001, meta(1_000, 2_000));
        // A timestamp from window 0, whose slot window `WINDOWS` now owns.
        slo.record_served(0, 2, 0.001, meta(1_000, 2_000));
        assert_eq!(slo.verdict_at_ns(last).fast_burn.attempts, 5);
        assert_eq!(slo.latency_at_ns(last).0.count, 5);
    }

    #[test]
    fn a_shed_counts_attempts_and_bad_outcomes_but_no_latency() {
        let slo = state();
        slo.record_shed(0, 4);
        slo.record_served(1, 8, 0.001, meta(1_000, 2_000));
        let verdict = slo.verdict_at_ns(2);
        assert_eq!(
            (verdict.attempts, verdict.shed, verdict.breaches),
            (12, 4, 0)
        );
        assert_eq!((verdict.slow_burn.attempts, verdict.slow_burn.bad), (12, 4));
        let (queue_wait, run) = slo.latency_at_ns(2);
        assert_eq!((queue_wait.count, run.count), (8, 8));
    }

    #[test]
    fn threads_recording_across_rotations_lose_nothing() {
        const THREADS: u64 = 2;
        const RECORDS: u64 = 50;
        const ROTATIONS: u64 = 200;
        let slo = state();
        let all = THREADS * RECORDS;
        // A spinning start gate rather than a `Barrier`: a parked thread
        // wakes microseconds late, after the rotation it should race.
        let arrived = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for w in 0..ROTATIONS {
                        // Every thread is on a CPU when window `w` opens,
                        // so their first records race its slot's rotation
                        // (a reused slot from `w == WINDOWS` on).
                        arrived.fetch_add(1, Ordering::AcqRel);
                        while arrived.load(Ordering::Acquire) < (w + 1) * THREADS {
                            std::hint::spin_loop();
                        }
                        for _ in 0..RECORDS {
                            slo.record_served(w * W, 1, 0.001, meta(1_000, 2_000));
                        }
                    }
                });
            }
        });
        let last = (ROTATIONS - 1) * W;
        let ring = WINDOWS as u64 * all;
        assert_eq!(slo.verdict_at_ns(last).slow_burn.attempts, ring);
        let (queue_wait, run) = slo.latency_at_ns(last);
        assert_eq!((queue_wait.count, run.count), (ring, ring));
    }

    /// Latencies (ns) spanning the default bucket ladder, exact bucket
    /// edges (the `le` boundary cases) included.
    const LATENCIES_NS: &[u64] = &[
        0,
        1_000,
        2_500,
        100_000,
        1_000_000,
        37_500_000,
        1_000_000_000,
        10_000_000_000,
        50_000_000_000,
    ];

    /// Buckets `(seconds, loads)` observations the way `Histogram` does
    /// (first bound `>= v`, `+Inf` overflow), independently of it.
    fn reference(obs: impl Iterator<Item = (f64, u64)>) -> HistogramSnapshot {
        let bounds = DEFAULT_LATENCY_BUCKETS;
        let mut expected = HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            ..HistogramSnapshot::default()
        };
        for (v, n) in obs {
            let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            expected.counts[idx] += n;
            expected.sum += v * n as f64;
            expected.count += n;
        }
        expected
    }

    fn assert_matches(actual: &HistogramSnapshot, expected: &HistogramSnapshot) {
        assert_eq!(actual.counts, expected.counts);
        assert_eq!(actual.count, expected.count);
        // The two sides add in different orders; counts carry the data.
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

        /// For any time-ordered run of submissions `(window, queue wait,
        /// run, loads)`, the latency views equal a reference bucketing of
        /// the last `WINDOWS` windows, and the burn views count exactly
        /// those windows' loads.
        #[test]
        fn the_views_equal_a_reference_over_the_last_windows(
            raw in prop::collection::vec(
                (0u64..20, 0..LATENCIES_NS.len(), 0..LATENCIES_NS.len(), 1u64..4),
                1..80,
            ),
        ) {
            let mut obs = raw;
            obs.sort_by_key(|&(w, ..)| w);
            let slo = state();
            for &(w, q, r, loads) in &obs {
                let at = w * W + W / 2;
                slo.record_served(at, loads, 0.001, meta(LATENCIES_NS[q], LATENCIES_NS[r]));
            }
            let now = obs.last().expect("non-empty").0;
            let lo = (now + 1).saturating_sub(WINDOWS as u64);
            let in_view: Vec<_> = obs.iter().filter(|&&(w, ..)| w >= lo).collect();
            let seconds = |i: usize| Duration::from_nanos(LATENCIES_NS[i]).as_secs_f64();

            let (queue_wait, run) = slo.latency_at_ns(now * W + W / 2);
            assert_matches(
                &queue_wait,
                &reference(in_view.iter().map(|&&(_, q, _, n)| (seconds(q), n))),
            );
            assert_matches(
                &run,
                &reference(in_view.iter().map(|&&(_, _, r, n)| (seconds(r), n))),
            );
            let verdict = slo.verdict_at_ns(now * W + W / 2);
            let loads = |from: u64| -> u64 {
                in_view.iter().filter(|&&&(w, ..)| w >= from).map(|&&(.., n)| n).sum()
            };
            prop_assert_eq!(verdict.slow_burn.attempts, loads(lo));
            prop_assert_eq!(verdict.fast_burn.attempts, loads(now));
        }
    }
}
