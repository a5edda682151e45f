//! Server (computing-unit) simulation for the CoolOpt machine room.
//!
//! The paper models a computing unit as a heat source (the CPU) inside an air
//! volume with an intake and an outtake flow (its Eqs. 1–2). This crate is
//! the *substrate* side of that story: a richer-than-the-model simulation of
//! a single rack server, playing the role of the Dell PowerEdge R210 machines
//! of the paper's testbed. It has:
//!
//! * a two-node thermal RC network (CPU mass ↔ box air ↔ inlet air stream),
//! * a power curve `P = w2 + w1·L (+ mild nonlinearity + process noise)` —
//!   the paper's Eq. 9 holds only approximately here, exactly as it holds
//!   only approximately for real machines, which is what makes the
//!   regression-based profiling of §IV-A meaningful,
//! * an on/off state with a boot transient (consolidation turns machines off),
//! * emulated sensors: a [`sensors::CpuTempSensor`]
//!   (`lm-sensors` style, 1 °C quantization) and a
//!   [`sensors::PowerMeter`] (Watts Up Pro style, 0.1 W
//!   resolution, 1 Hz).
//!
//! The server deliberately does **not** implement
//! [`Dynamics`](coolopt_sim::ode::Dynamics) by itself: its inlet-air
//! temperature is an input produced by the room's air-distribution model, so
//! the room crate owns the composed ODE system.

#![warn(missing_docs)]

pub mod config;
pub mod sensors;
pub mod server;

pub use config::{ServerConfig, ServerConfigBuilder};
pub use sensors::{CpuTempSensor, PowerMeter};
pub use server::{PowerState, Server, ServerId, ThermalTerms};
