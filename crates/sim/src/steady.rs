//! Windowed steady-state detection.
//!
//! The paper's profiling methodology holds each load level "until a stable
//! CPU temperature was reached (in about 200 seconds)". The simulator does
//! the same programmatically: a signal is declared steady once the means of
//! two consecutive trailing windows agree to within a tolerance.

use std::collections::VecDeque;

/// Declares a *noisy* signal steady when the means of two consecutive
/// trailing windows agree to within `tolerance`.
///
/// Peak-to-peak detection (window range below a tolerance) never fires on a
/// signal with persistent measurement noise; comparing window means averages the
/// noise away and detects the end of the *trend* instead, which is what
/// "reached a stable temperature" means on real hardware.
#[derive(Debug, Clone)]
pub struct TrendDetector {
    window: usize,
    tolerance: f64,
    recent: VecDeque<f64>,
}

impl TrendDetector {
    /// Creates a detector comparing two consecutive windows of `window`
    /// samples with mean tolerance `tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `tolerance` is negative/non-finite.
    pub fn new(window: usize, tolerance: f64) -> Self {
        assert!(window >= 1, "window must hold at least 1 sample");
        assert!(
            tolerance.is_finite() && tolerance >= 0.0,
            "tolerance must be finite and non-negative"
        );
        TrendDetector {
            window,
            tolerance,
            recent: VecDeque::with_capacity(2 * window),
        }
    }

    /// Feeds the next sample.
    pub fn observe(&mut self, value: f64) {
        if self.recent.len() == 2 * self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(value);
    }

    /// `true` once both windows are full and their means agree.
    pub fn is_steady(&self) -> bool {
        if self.recent.len() < 2 * self.window {
            return false;
        }
        let older: f64 = self.recent.iter().take(self.window).sum::<f64>() / self.window as f64;
        let newer: f64 = self.recent.iter().skip(self.window).sum::<f64>() / self.window as f64;
        (newer - older).abs() <= self.tolerance
    }

    /// Forgets all history.
    pub fn reset(&mut self) {
        self.recent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trend_detector_tolerates_noise_but_sees_trends() {
        // A drifting signal with ±1 noise: peak-to-peak detection would need
        // tolerance > 2 to ever fire; the trend detector fires only once the
        // drift stops.
        let noise = |k: usize| if k.is_multiple_of(2) { 1.0 } else { -1.0 };
        let mut d = TrendDetector::new(20, 0.05);
        // Drifting phase: mean moves by 0.1 per sample.
        for k in 0..100 {
            d.observe(k as f64 * 0.1 + noise(k));
            if k >= 40 {
                assert!(!d.is_steady(), "fired during drift at sample {k}");
            }
        }
        d.reset();
        // Flat phase: same noise, no drift.
        for k in 0..40 {
            d.observe(5.0 + noise(k));
        }
        assert!(d.is_steady());
    }

    #[test]
    fn trend_detector_needs_two_full_windows() {
        let mut d = TrendDetector::new(5, 1.0);
        for _ in 0..9 {
            d.observe(1.0);
            assert!(!d.is_steady());
        }
        d.observe(1.0);
        assert!(d.is_steady());
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn trend_detector_rejects_nan_tolerance() {
        TrendDetector::new(5, f64::NAN);
    }
}
