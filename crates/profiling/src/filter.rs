//! Signal smoothing.
//!
//! The paper low-pass filters its measured power and temperature traces "to
//! eliminate noise" before plotting and regression. Both the single-pole IIR
//! filter and a centered moving average are provided.

use coolopt_units::Seconds;

/// A single-pole IIR low-pass filter `y += a·(x − y)`.
///
/// ```
/// use coolopt_profiling::filter::LowPassFilter;
/// let mut f = LowPassFilter::new(0.5);
/// assert_eq!(f.apply(10.0), 10.0); // first sample initializes the state
/// assert_eq!(f.apply(0.0), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct LowPassFilter {
    alpha: f64,
    state: Option<f64>,
}

impl LowPassFilter {
    /// Creates a filter with smoothing factor `alpha ∈ (0, 1]` (1 = no
    /// smoothing).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "smoothing factor must be in (0, 1], got {alpha}"
        );
        LowPassFilter { alpha, state: None }
    }

    /// Creates a filter whose time constant is `tau` given samples spaced
    /// `dt` apart (`alpha = dt/(tau + dt)`).
    pub fn with_time_constant(tau: Seconds, dt: Seconds) -> Self {
        let alpha = dt.as_secs_f64() / (tau.as_secs_f64() + dt.as_secs_f64());
        Self::new(alpha.clamp(f64::MIN_POSITIVE, 1.0))
    }

    /// Feeds one sample and returns the filtered value.
    pub fn apply(&mut self, x: f64) -> f64 {
        let y = match self.state {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.state = Some(y);
        y
    }

    /// Clears the filter state.
    pub fn reset(&mut self) {
        self.state = None;
    }
}

/// Centered moving average of width `window` (clamped at the edges).
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn moving_average(values: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let half = window / 2;
    (0..values.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(values.len());
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_pass_converges_to_constant_input() {
        let mut f = LowPassFilter::new(0.2);
        let mut y = 0.0;
        f.apply(0.0);
        for _ in 0..100 {
            y = f.apply(8.0);
        }
        assert!((y - 8.0).abs() < 1e-6);
    }

    #[test]
    fn low_pass_attenuates_alternating_noise() {
        let mut f = LowPassFilter::new(0.1);
        let mut last = 0.0;
        for k in 0..1000 {
            let x = 5.0 + if k % 2 == 0 { 1.0 } else { -1.0 };
            last = f.apply(x);
        }
        // Residual ripple should be far below the ±1 input ripple.
        assert!((last - 5.0).abs() < 0.1);
    }

    #[test]
    fn time_constant_construction() {
        let f = LowPassFilter::with_time_constant(Seconds::new(9.0), Seconds::new(1.0));
        assert!((f.alpha - 0.1).abs() < 1e-12);
    }

    #[test]
    fn moving_average_flattens_and_handles_edges() {
        let v = [0.0, 10.0, 0.0, 10.0, 0.0];
        let m = moving_average(&v, 3);
        assert_eq!(m.len(), 5);
        assert!((m[2] - 20.0 / 3.0).abs() < 1e-12);
        // Edges average over the available window only.
        assert!((m[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn zero_alpha_panics() {
        LowPassFilter::new(0.0);
    }
}
