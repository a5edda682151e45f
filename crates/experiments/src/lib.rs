//! The evaluation harness: regenerates every table and figure of the paper
//! against the simulated 20-machine testbed.
//!
//! Pipeline (mirroring the paper's §IV):
//!
//! 1. [`testbed::Testbed::build`] — construct the simulated rack and run the
//!    §IV-A profiling to obtain the fitted [`RoomModel`] and set-point
//!    calibration;
//! 2. [`harness::run_sweep`] — for each evaluation method and each total
//!    load, plan (via `coolopt-alloc`), apply the plan to the simulated
//!    room, settle, and measure total power through the instruments,
//!    verifying the CPU-temperature and throughput constraints;
//! 3. [`figures`] — slice one sweep into the paper's Figures 5–10, run the
//!    dedicated staircase experiments behind Figures 2–3, and render
//!    Table I / Figure 4;
//! 4. [`report`] — ASCII and CSV rendering;
//! 5. [`savings`] — the headline numbers (average/maximum savings of the
//!    optimal method over the best baseline).
//!
//! Beyond the paper, [`runtime`] replans online over load traces on the
//! numeric substrate, and [`replay`] replays the same controller on the
//! analytic linear-RC transient model (exact-step propagator) for fast
//! design sweeps.
//!
//! [`RoomModel`]: coolopt_model::RoomModel

#![warn(missing_docs)]

pub mod ablations;
pub mod dashboard;
pub mod figures;
pub mod harness;
pub mod multizone;
pub mod replay;
pub mod report;
pub mod run_report;
pub mod runtime;
pub mod savings;
pub mod testbed;

pub use dashboard::{emit_dashboard, energy_chart, plant_charts, write_dashboard};
pub use figures::{FigureData, Series};
pub use harness::{run_method_with, run_sweep, scenario_planner, MethodRun, Sweep, SweepOptions};
pub use multizone::{
    render_multizone, run_multizone, MultiZoneError, MultiZoneOptions, MultiZoneOutcome,
    VariantOutcome,
};
pub use replay::{replay_trace_with, ReplayEngine, ReplayOptions, ReplayOutcome};
pub use report::{render_figure, to_csv};
pub use run_report::{
    emit_report, export_flight_dropped, HealthSection, MultiZoneSection, ReplaySection, RunReport,
    ScenarioSection, SegmentSection, TraceSection, VariantSection, RUN_REPORT_SCHEMA,
};
pub use savings::{savings_summary, SavingsSummary};
pub use testbed::{Testbed, TestbedError};
