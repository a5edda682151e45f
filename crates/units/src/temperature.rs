//! Absolute temperatures, temperature differences and temperature rates.
//!
//! The distinction between [`Temperature`] (a point on the absolute scale)
//! and [`TempDelta`] (a difference between two such points) matters: adding
//! two absolute temperatures is meaningless, while adding a delta to an
//! absolute temperature is how the thermal ODEs advance state.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::time::Seconds;

/// Offset between the Celsius and Kelvin scales.
pub const KELVIN_OFFSET: f64 = 273.15;

/// An absolute temperature, stored internally in kelvin.
///
/// ```
/// use coolopt_units::Temperature;
/// let t = Temperature::from_celsius(25.0);
/// assert!((t.as_kelvin() - 298.15).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Temperature(f64);

impl Temperature {
    /// Absolute zero (0 K).
    pub const ZERO: Temperature = Temperature(0.0);

    /// Creates a temperature from kelvin.
    pub const fn from_kelvin(k: f64) -> Self {
        Temperature(k)
    }

    /// Creates a temperature from degrees Celsius.
    pub const fn from_celsius(c: f64) -> Self {
        Temperature(c + KELVIN_OFFSET)
    }

    /// Returns the value in kelvin.
    pub const fn as_kelvin(self) -> f64 {
        self.0
    }

    /// Returns the value in degrees Celsius.
    pub fn as_celsius(self) -> f64 {
        self.0 - KELVIN_OFFSET
    }

    /// Returns the larger of `self` and `other`.
    pub fn max(self, other: Temperature) -> Temperature {
        Temperature(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    pub fn min(self, other: Temperature) -> Temperature {
        Temperature(self.0.min(other.0))
    }

    /// `true` if the value is finite and non-negative (physically valid).
    pub fn is_physical(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} °C", self.as_celsius())
    }
}

/// A temperature difference in kelvin.
///
/// Deltas form a vector space: they add, subtract, negate and scale.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TempDelta(f64);

impl TempDelta {
    /// The zero difference.
    pub const ZERO: TempDelta = TempDelta(0.0);

    /// Creates a delta of `k` kelvin.
    pub const fn from_kelvin(k: f64) -> Self {
        TempDelta(k)
    }

    /// Returns the difference in kelvin.
    pub const fn as_kelvin(self) -> f64 {
        self.0
    }

    /// Absolute value of the difference.
    pub fn abs(self) -> TempDelta {
        TempDelta(self.0.abs())
    }

    /// Returns the larger of `self` and `other`.
    pub fn max(self, other: TempDelta) -> TempDelta {
        TempDelta(self.0.max(other.0))
    }
}

impl fmt::Display for TempDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} K", self.0)
    }
}

/// A rate of temperature change, in kelvin per second.
///
/// Produced by dividing heat flow by a heat capacity; multiplied by a time
/// step it yields the [`TempDelta`] applied during ODE integration.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TempRate(f64);

impl TempRate {
    /// The zero rate.
    pub const ZERO: TempRate = TempRate(0.0);

    /// Creates a rate of `kps` kelvin per second.
    pub const fn from_kelvin_per_second(kps: f64) -> Self {
        TempRate(kps)
    }

    /// Returns the rate in kelvin per second.
    pub const fn as_kelvin_per_second(self) -> f64 {
        self.0
    }
}

impl fmt::Display for TempRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} K/s", self.0)
    }
}

// --- arithmetic ---

impl Sub for Temperature {
    type Output = TempDelta;
    fn sub(self, rhs: Temperature) -> TempDelta {
        TempDelta(self.0 - rhs.0)
    }
}

impl Add<TempDelta> for Temperature {
    type Output = Temperature;
    fn add(self, rhs: TempDelta) -> Temperature {
        Temperature(self.0 + rhs.0)
    }
}

impl Sub<TempDelta> for Temperature {
    type Output = Temperature;
    fn sub(self, rhs: TempDelta) -> Temperature {
        Temperature(self.0 - rhs.0)
    }
}

impl AddAssign<TempDelta> for Temperature {
    fn add_assign(&mut self, rhs: TempDelta) {
        self.0 += rhs.0;
    }
}

impl SubAssign<TempDelta> for Temperature {
    fn sub_assign(&mut self, rhs: TempDelta) {
        self.0 -= rhs.0;
    }
}

impl Add for TempDelta {
    type Output = TempDelta;
    fn add(self, rhs: TempDelta) -> TempDelta {
        TempDelta(self.0 + rhs.0)
    }
}

impl Sub for TempDelta {
    type Output = TempDelta;
    fn sub(self, rhs: TempDelta) -> TempDelta {
        TempDelta(self.0 - rhs.0)
    }
}

impl Neg for TempDelta {
    type Output = TempDelta;
    fn neg(self) -> TempDelta {
        TempDelta(-self.0)
    }
}

impl Mul<f64> for TempDelta {
    type Output = TempDelta;
    fn mul(self, rhs: f64) -> TempDelta {
        TempDelta(self.0 * rhs)
    }
}

impl Mul<TempDelta> for f64 {
    type Output = TempDelta;
    fn mul(self, rhs: TempDelta) -> TempDelta {
        TempDelta(self * rhs.0)
    }
}

impl Div<f64> for TempDelta {
    type Output = TempDelta;
    fn div(self, rhs: f64) -> TempDelta {
        TempDelta(self.0 / rhs)
    }
}

impl Sum for TempDelta {
    fn sum<I: Iterator<Item = TempDelta>>(iter: I) -> TempDelta {
        TempDelta(iter.map(|d| d.0).sum())
    }
}

impl Mul<Seconds> for TempRate {
    type Output = TempDelta;
    fn mul(self, rhs: Seconds) -> TempDelta {
        TempDelta(self.0 * rhs.as_secs_f64())
    }
}

impl Mul<TempRate> for Seconds {
    type Output = TempDelta;
    fn mul(self, rhs: TempRate) -> TempDelta {
        rhs * self
    }
}

impl Add for TempRate {
    type Output = TempRate;
    fn add(self, rhs: TempRate) -> TempRate {
        TempRate(self.0 + rhs.0)
    }
}

impl Sub for TempRate {
    type Output = TempRate;
    fn sub(self, rhs: TempRate) -> TempRate {
        TempRate(self.0 - rhs.0)
    }
}

impl Mul<f64> for TempRate {
    type Output = TempRate;
    fn mul(self, rhs: f64) -> TempRate {
        TempRate(self.0 * rhs)
    }
}

impl Div<Seconds> for TempDelta {
    type Output = TempRate;
    fn div(self, rhs: Seconds) -> TempRate {
        TempRate(self.0 / rhs.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Temperature::from_celsius(36.6);
        assert!((t.as_celsius() - 36.6).abs() < 1e-12);
        assert!((t.as_kelvin() - 309.75).abs() < 1e-12);
    }

    #[test]
    fn subtraction_yields_delta() {
        let hot = Temperature::from_celsius(70.0);
        let cold = Temperature::from_celsius(20.0);
        assert!(((hot - cold).as_kelvin() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn delta_applies_to_absolute() {
        let t = Temperature::from_celsius(20.0) + TempDelta::from_kelvin(5.0);
        assert!((t.as_celsius() - 25.0).abs() < 1e-12);
        let t2 = t - TempDelta::from_kelvin(10.0);
        assert!((t2.as_celsius() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn rate_times_time_is_delta() {
        let r = TempRate::from_kelvin_per_second(0.5);
        let d = r * Seconds::new(10.0);
        assert!((d.as_kelvin() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn delta_over_time_is_rate() {
        let r = TempDelta::from_kelvin(10.0) / Seconds::new(4.0);
        assert!((r.as_kelvin_per_second() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn delta_vector_space_ops() {
        let a = TempDelta::from_kelvin(3.0);
        let b = TempDelta::from_kelvin(1.5);
        assert!(((a + b).as_kelvin() - 4.5).abs() < 1e-12);
        assert!(((a - b).as_kelvin() - 1.5).abs() < 1e-12);
        assert!(((-a).as_kelvin() + 3.0).abs() < 1e-12);
        assert!(((a * 2.0).as_kelvin() - 6.0).abs() < 1e-12);
        assert!(((a / 2.0).as_kelvin() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_and_physical() {
        let a = Temperature::from_celsius(10.0);
        let b = Temperature::from_celsius(20.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a.is_physical());
        assert!(!Temperature::from_kelvin(-1.0).is_physical());
        assert!(!Temperature::from_kelvin(f64::NAN).is_physical());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Temperature::from_celsius(0.0)).is_empty());
        assert!(!format!("{}", TempDelta::ZERO).is_empty());
        assert!(!format!("{}", TempRate::ZERO).is_empty());
    }

    #[test]
    fn delta_sum() {
        let total: TempDelta = (1..=4).map(|k| TempDelta::from_kelvin(k as f64)).sum();
        assert!((total.as_kelvin() - 10.0).abs() < 1e-12);
    }
}
