//! Fixed-step ODE simulation engine for the CoolOpt thermal substrate.
//!
//! The paper validates its analytic model against a physical 20-machine rack.
//! We do not have that rack, so every experiment in this workspace runs
//! against a continuous-time thermal simulation instead. This crate provides
//! the simulation plumbing that the physical models plug into:
//!
//! * [`ode`] — an [`ode::Dynamics`] trait for systems described by
//!   `dx/dt = f(t, x)` plus forward-Euler and RK4 fixed-step integrators;
//! * [`linear`] — a [`linear::LinearDynamics`] trait for LTI systems
//!   `dx/dt = A·x + b` and an exact-step [`linear::Propagator`]
//!   (`x ← Φ·x + Γ` with `Φ = exp(A·h)`), the fast path for event-free
//!   intervals of the room's thermal network;
//! * [`scratch`] — reusable state-sized buffers so hot loops never touch the
//!   allocator;
//! * [`noise`] — deterministic, seeded Gaussian and Ornstein–Uhlenbeck noise
//!   sources used to emulate sensor and physical-process noise;
//! * [`steady`] — a windowed trend detector for steady state (the paper
//!   waits ≈200 s for each load level to settle before sampling);
//! * [`clock`] — the simulation clock.
//!
//! ```
//! use coolopt_sim::ode::{Dynamics, Integrator, Rk4};
//! use coolopt_units::Seconds;
//!
//! /// dx/dt = -x, which decays towards zero.
//! struct Decay;
//! impl Dynamics for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn derivatives(&self, _t: Seconds, x: &[f64], dx: &mut [f64]) {
//!         dx[0] = -x[0];
//!     }
//! }
//!
//! let mut x = vec![1.0];
//! let rk4 = Rk4::new();
//! let mut t = Seconds::ZERO;
//! for _ in 0..1000 {
//!     rk4.step(&Decay, t, Seconds::new(0.01), &mut x);
//!     t += Seconds::new(0.01);
//! }
//! assert!((x[0] - (-10.0f64).exp()).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod health;
pub mod linear;
pub mod noise;
pub mod ode;
pub mod scratch;
pub mod steady;

pub use clock::SimClock;
pub use health::{HealthConfig, HealthReport, MachineHealth, MarginLevel, ModelHealthMonitor};
pub use linear::{LinearDynamics, LinearOde, Propagator, PropagatorCache};
pub use noise::{GaussianNoise, OrnsteinUhlenbeck};
pub use ode::{Dynamics, ForwardEuler, Integrator, Rk4};
pub use scratch::SimScratch;
pub use steady::TrendDetector;
