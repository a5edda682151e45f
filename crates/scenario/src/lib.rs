//! Scenarios-as-data: the versioned machine-room description schema.
//!
//! A machine room — its machine classes, rack/zone topology, CRAC units,
//! supply-share and recirculation structure, `T_max` policy and workload —
//! is described by one [`Scenario`] value with a stable JSON rendering
//! (schema tag [`SCENARIO_SCHEMA`]). Everything downstream consumes
//! scenarios:
//!
//! * `coolopt_room::scenario` materializes them into the simulated plant
//!   (one `MachineRoom`, whatever the zone count), reproducing the classic
//!   code presets bit for bit;
//! * [`plan::zone_system`] materializes the *declared* models into the
//!   block-structured planning problem solved by `coolopt_core::zones`;
//! * experiment binaries accept `--scenario <file>` and stamp run reports
//!   with the scenario's name and [`Scenario::content_hash`], so every
//!   results file names the exact world that produced it.
//!
//! The shipped files under `scenarios/` are generated from [`presets`] by
//! the `scenario_dump` binary; CI re-validates every file on every run.

#![warn(missing_docs)]

pub mod plan;
pub mod presets;
pub mod schema;
pub mod sha256;

pub use plan::{coupling_matrix, zone_machines, zone_system};
pub use schema::{
    ClassCount, ClassModel, GuardPolicy, JitterSpec, MachineClass, RackOptions, Scenario,
    ScenarioError, SloPolicy, ThermalGradient, WorkloadSpec, ZoneCooling, ZoneSpec,
    NEIGHBOR_RECIRC_BASE, NEIGHBOR_RECIRC_SPAN, SCENARIO_SCHEMA,
};
pub use sha256::sha256_hex;
