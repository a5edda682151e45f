//! Per-tenant SLO engine: error budgets, multi-window burn rates, and
//! tail-sampled exemplars.
//!
//! Every tenant carries an [`SloState`]. It counts *attempts* (every
//! submitted load — the tenant's only count of its traffic) and
//! *bad* outcomes (shed by backpressure, or served over the declared
//! latency threshold) in a ring of rotating windows of plain relaxed
//! atomics, so recording is lock-free and allocation-free.
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

use coolopt_scenario::SloPolicy;
use coolopt_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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

/// One rotating window's counters. `tag` is `window_index + 1` (0 means
/// "never used"), so reusing a slot for a new window is one CAS; racing
/// recorders of a window being retired may lose a handful of samples at
/// the boundary, never corrupt a count.
#[derive(Debug, Default)]
struct WindowSlot {
    tag: AtomicU64,
    attempts: AtomicU64,
    bad: AtomicU64,
}

/// Per-tenant SLO accounting. See the module docs.
#[derive(Debug)]
pub(crate) struct SloState {
    /// Tenant key, for event attribution.
    key: String,
    window_ns: u64,
    epoch: Instant,
    /// Current policy as f64 bits (updatable on re-registration without a
    /// lock on the record path).
    threshold_bits: AtomicU64,
    target_bits: AtomicU64,
    slots: Box<[WindowSlot]>,
    attempts_total: AtomicU64,
    breaches_total: AtomicU64,
    shed_total: AtomicU64,
    alerting: AtomicBool,
    exemplars: Mutex<VecDeque<Exemplar>>,
}

impl SloState {
    pub(crate) fn new(key: &str, policy: SloPolicy, window_secs: f64, windows: usize) -> Self {
        let window_ns = if window_secs.is_finite() && window_secs > 0.0 {
            ((window_secs * 1e9) as u64).max(1)
        } else {
            10_000_000_000
        };
        SloState {
            key: key.to_string(),
            window_ns,
            epoch: Instant::now(),
            threshold_bits: AtomicU64::new(policy.latency_threshold_seconds.to_bits()),
            target_bits: AtomicU64::new(policy.availability_target.to_bits()),
            slots: (0..windows.max(1)).map(|_| WindowSlot::default()).collect(),
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
    /// `_at_ns` record/verdict methods (explicit for deterministic tests).
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn window_seconds(&self) -> f64 {
        self.window_ns as f64 / 1e9
    }

    pub(crate) fn windows(&self) -> usize {
        self.slots.len()
    }

    /// Records one served submission of `loads` loads with client-visible
    /// latency `latency_seconds`, attributed to the batch span `span_id`.
    pub(crate) fn record_served(&self, at_ns: u64, loads: u64, latency_seconds: f64, span_id: u64) {
        if loads == 0 {
            return;
        }
        let w = at_ns / self.window_ns;
        let slot = self.claim(w);
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
                span_id,
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
        let w = at_ns / self.window_ns;
        let slot = self.claim(w);
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
        let w = at_ns / self.window_ns;
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

    /// The slot for window `w`, reset and retagged when this is the first
    /// record of the window. A slot is only ever claimed *forward* —
    /// stragglers carrying an already-retired window index record into
    /// the newest owner instead of resurrecting the old window.
    fn claim(&self, w: u64) -> &WindowSlot {
        let slot = &self.slots[(w % self.slots.len() as u64) as usize];
        let tag = w + 1;
        let seen = slot.tag.load(Ordering::Acquire);
        if tag > seen
            && slot
                .tag
                .compare_exchange(seen, tag, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            slot.attempts.store(0, Ordering::Release);
            slot.bad.store(0, Ordering::Release);
        }
        slot
    }

    /// Sums attempts/bad over the last `k` windows ending at `w`.
    fn view(&self, w: u64, k: u64) -> (u64, u64) {
        let lo = (w + 1).saturating_sub(k);
        let mut attempts = 0;
        let mut bad = 0;
        for slot in self.slots.iter() {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == 0 {
                continue;
            }
            let window = tag - 1;
            if window >= lo && window <= w {
                attempts += slot.attempts.load(Ordering::Relaxed);
                bad += slot.bad.load(Ordering::Relaxed);
            }
        }
        (attempts, bad)
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
                window_seconds: k as f64 * self.window_ns as f64 / 1e9,
                attempts,
                bad,
                burn_rate: rate,
            }
        };
        let fast = burn(FAST_WINDOWS);
        let slow = burn(self.slots.len() as u64);
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
