//! # CoolOpt — joint optimization of computing and cooling energy
//!
//! A reproduction of *“Joint Optimization of Computing and Cooling Energy:
//! Analytic Model and A Machine Room Case Study”* (Li, Le, Pham, Heo,
//! Abdelzaher — ICDCS 2012) as a production-quality Rust workspace.
//!
//! This facade crate re-exports every sub-crate under a single roof so that
//! applications can depend on `coolopt` alone:
//!
//! * [`units`] — typed physical quantities (the paper's Table I).
//! * [`sim`] — fixed-step ODE engine, traces, noise, steady-state detection.
//! * [`machine`] — server thermal/power simulation with emulated sensors.
//! * [`cooling`] — CRAC unit with return-air set-point control.
//! * [`room`] — the machine-room composition and the 20-machine testbed preset.
//! * [`workload`] — batch workload generation and load balancing.
//! * [`profiling`] — least-squares model fitting (the paper's §IV-A).
//! * [`model`] — the fitted analytic models (Eqs. 8, 9, 10 and 19).
//! * [`core`] — ★ the closed-form optimum (Eqs. 21, 22) and the optimal
//!   consolidation algorithms (Algorithms 1 and 2).
//! * [`alloc`] — allocation policies and the eight evaluation methods (Fig. 4).
//! * [`service`] — planner-as-a-service: the sharded multi-tenant query
//!   core (micro-batch coalescing, bounded admission, `coolopt-serve`).
//! * [`experiments`] — harness regenerating every table and figure.
//! * [`telemetry`] — counters, gauges, latency histograms and span timers
//!   across the whole stack, with JSON and Prometheus export.
//!
//! ## Quickstart
//!
//! ```
//! use coolopt::room::presets::testbed_rack20;
//! use coolopt::profiling::profile_room;
//! use coolopt::core::closed_form::optimal_allocation;
//! use coolopt::units::Temperature;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the simulated 20-machine rack and profile it, as in §IV-A,
//! // for a CPU temperature cap of 60 °C.
//! let mut room = testbed_rack20(42);
//! let model = profile_room(&mut room, Temperature::from_celsius(60.0))?.model;
//! // Solve for the energy-optimal cooling temperature and load split at 60 %.
//! let on: Vec<usize> = (0..20).collect();
//! let solution = optimal_allocation(&model, &on, 0.6 * 20.0)?;
//! assert!(solution.loads.iter().all(|l| *l >= 0.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use coolopt_alloc as alloc;
pub use coolopt_cooling as cooling;
pub use coolopt_core as core;
pub use coolopt_experiments as experiments;
pub use coolopt_machine as machine;
pub use coolopt_model as model;
pub use coolopt_profiling as profiling;
pub use coolopt_room as room;
pub use coolopt_scenario as scenario;
pub use coolopt_service as service;
pub use coolopt_sim as sim;
pub use coolopt_telemetry as telemetry;
pub use coolopt_units as units;
pub use coolopt_workload as workload;
