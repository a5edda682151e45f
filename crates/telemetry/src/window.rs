//! Sliding-window histograms: windowed quantiles over a ring of
//! fixed-bucket boundary snapshots.
//!
//! A [`WindowedHistogram`] answers "what was p99 over the last ~N
//! seconds?" without ever resetting its hot-path counters. Samples land in
//! one ordinary atomic [`Histogram`] (the *live* cumulative histogram); a
//! small ring remembers a frozen [`HistogramSnapshot`] of that cumulative
//! state at each window boundary. The windowed view over the last `k`
//! windows is then one associative subtraction,
//! `live.snapshot().minus(boundary(k windows ago))` — the same
//! merge/minus algebra per-phase metric deltas already use — so recording
//! stays allocation-free and lock-free, and a windowed quantile costs one
//! snapshot plus one bucket-wise subtraction, paid only by the reader.
//!
//! Rotation is amortized: the first recorder or reader that observes the
//! window index advance takes a short mutex, pushes the boundary
//! snapshot(s), and moves on. Samples racing a rotation may be attributed
//! to the window just closing rather than the one just opening — a
//! boundary smear of at most the racing samples, never a lost or
//! double-counted one (the live histogram is append-only).

use crate::metrics::Histogram;
use crate::HistogramSnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A fixed-bucket histogram with cheap sliding-window views. See the
/// module docs for the design.
#[derive(Debug)]
pub struct WindowedHistogram {
    /// The cumulative histogram every sample lands in (never reset).
    live: Histogram,
    /// Window length in nanoseconds (≥ 1).
    window_ns: u64,
    /// How many window boundaries the ring retains — the widest windowed
    /// view answerable without clipping.
    windows: usize,
    /// The clock origin window indices are measured from.
    epoch: Instant,
    /// Highest window index the ring has rotated up to (fast-path check).
    rotated: AtomicU64,
    /// `(w, cumulative state at the start of window w)`, ascending in `w`,
    /// at most `windows` entries.
    ring: Mutex<VecDeque<(u64, HistogramSnapshot)>>,
}

impl WindowedHistogram {
    /// A windowed histogram over `bounds` (the layout rules of
    /// [`Histogram::new`] apply) with `windows` rotating windows of
    /// `window_secs` seconds each.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is invalid for [`Histogram::new`], when
    /// `window_secs` is not a positive finite number, or when `windows`
    /// is zero.
    pub fn new(bounds: &[f64], window_secs: f64, windows: usize) -> Self {
        assert!(
            window_secs.is_finite() && window_secs > 0.0,
            "window length must be positive and finite: {window_secs}"
        );
        assert!(windows >= 1, "need at least one window");
        let live = Histogram::new(bounds);
        let zero = live.snapshot();
        WindowedHistogram {
            live,
            window_ns: ((window_secs * 1e9) as u64).max(1),
            windows,
            epoch: Instant::now(),
            rotated: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::from([(0, zero)])),
        }
    }

    /// Nanoseconds since this histogram's epoch — the timestamp domain of
    /// the `_at_ns` methods.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The configured window length in seconds.
    pub fn window_seconds(&self) -> f64 {
        self.window_ns as f64 / 1e9
    }

    /// How many windows the ring retains.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Records one sample now.
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records the same sample `n` times now (see
    /// [`Histogram::observe_n`]).
    pub fn observe_n(&self, v: f64, n: u64) {
        self.observe_n_at_ns(self.elapsed_ns(), v, n);
    }

    /// Records `n` copies of `v` at the explicit epoch offset `at_ns` —
    /// the deterministic-clock hook tests and offline replays drive.
    /// Timestamps must be (weakly) monotone for exact window attribution;
    /// a stale timestamp records into the newest open window.
    pub fn observe_n_at_ns(&self, at_ns: u64, v: f64, n: u64) {
        self.rotate_to(at_ns / self.window_ns);
        self.live.observe_n(v, n);
    }

    /// The cumulative (all-time) snapshot.
    pub fn cumulative(&self) -> HistogramSnapshot {
        self.live.snapshot()
    }

    /// The snapshot of the last `windows` windows (the current, still-open
    /// one included), ending now. `windows` is clamped to
    /// `1..=self.windows()`.
    pub fn windowed(&self, windows: usize) -> HistogramSnapshot {
        self.windowed_at_ns(self.elapsed_ns(), windows)
    }

    /// [`WindowedHistogram::windowed`] at the explicit epoch offset
    /// `at_ns`.
    pub fn windowed_at_ns(&self, at_ns: u64, windows: usize) -> HistogramSnapshot {
        let w = at_ns / self.window_ns;
        self.rotate_to(w);
        let k = windows.clamp(1, self.windows) as u64;
        let target = (w + 1).saturating_sub(k);
        let base = {
            let ring = self.ring.lock().expect("window ring poisoned");
            // The newest boundary at or before the window the view starts
            // in; a view reaching past retention clips to the oldest
            // boundary the ring still holds.
            ring.iter()
                .rev()
                .find(|(b, _)| *b <= target)
                .or_else(|| ring.front())
                .map(|(_, snapshot)| snapshot.clone())
        };
        let now = self.live.snapshot();
        match base {
            Some(base) => now.minus(&base),
            None => now,
        }
    }

    /// Pushes boundary snapshots for every window crossed since the last
    /// rotation. Cold path: runs at most once per window per racing
    /// recorder, under a short mutex.
    fn rotate_to(&self, w: u64) {
        if self.rotated.load(Ordering::Acquire) >= w {
            return;
        }
        let mut ring = self.ring.lock().expect("window ring poisoned");
        let rotated = self.rotated.load(Ordering::Acquire);
        if rotated >= w {
            return;
        }
        // After a long idle gap only the last `windows` boundaries can
        // ever be asked for again; all of them equal the current
        // cumulative state (nothing was recorded in between).
        let first_needed = (w + 1).saturating_sub(self.windows as u64);
        let cumulative = self.live.snapshot();
        for boundary in (rotated + 1)..=w {
            if boundary < first_needed {
                continue;
            }
            ring.push_back((boundary, cumulative.clone()));
        }
        while ring.len() > self.windows {
            ring.pop_front();
        }
        self.rotated.store(w, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0];
    const W: u64 = 1_000_000_000; // 1 s windows in ns

    #[test]
    fn fresh_windows_are_empty_and_quantiles_are_none() {
        let h = WindowedHistogram::new(BOUNDS, 1.0, 4);
        let snap = h.windowed_at_ns(0, 1);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn windowed_views_drop_old_windows() {
        let h = WindowedHistogram::new(BOUNDS, 1.0, 4);
        h.observe_n_at_ns(0, 1.0, 10); // window 0
        h.observe_n_at_ns(W + 1, 3.0, 5); // window 1
        assert_eq!(h.windowed_at_ns(W + 2, 1).count, 5);
        assert_eq!(h.windowed_at_ns(W + 2, 2).count, 15);
        // Two windows later, window 0's samples age out of a 2-window view.
        assert_eq!(h.windowed_at_ns(2 * W + 1, 2).count, 5);
        assert_eq!(h.cumulative().count, 15);
    }

    #[test]
    fn idle_gaps_clear_the_window() {
        let h = WindowedHistogram::new(BOUNDS, 1.0, 4);
        h.observe_n_at_ns(0, 1.0, 100);
        // 50 windows of silence: every windowed view is empty again.
        let snap = h.windowed_at_ns(50 * W, 4);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(h.cumulative().count, 100);
    }

    #[test]
    fn views_wider_than_retention_clip_to_the_oldest_boundary() {
        let h = WindowedHistogram::new(BOUNDS, 1.0, 2);
        h.observe_n_at_ns(0, 1.0, 7); // window 0
        h.observe_n_at_ns(W, 1.0, 3); // window 1
        h.observe_n_at_ns(2 * W, 1.0, 2); // window 2
                                          // Retention is 2 windows; asking for 100 clamps to 2.
        assert_eq!(h.windowed_at_ns(2 * W, 100).count, 5);
    }
}
