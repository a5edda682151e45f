//! The simulated machine room: servers + CRACs + air paths + envelope.
//!
//! This crate composes the pieces of the substrate into the system the
//! paper's testbed was: a rack of servers in a small machine room whose
//! cooling unit supplies cool air (from the ceiling, in the paper) and
//! regulates the return air at a set point. One plant type,
//! [`MachineRoom`], simulates that room and its multi-zone generalization
//! (several racks, one CRAC each). The composition is a single ODE system
//! (one state vector holding every server's CPU and box-air temperature,
//! the room air node, and each CRAC's control-integral state) driven by
//! [`coolopt_sim`]'s integrators.
//!
//! Physical structure (all heat flows in watts):
//!
//! * each server draws its intake partly from its zone's **supply stream**
//!   (fraction `s_i`, position-dependent — this is where the paper's `α_i`
//!   comes from), partly from its lower neighbour's **exhaust** (fraction
//!   `r_i`), optionally from other zones' mean exhaust (cross-zone
//!   recirculation), and the rest from the **room air**;
//! * a fraction of each server's exhaust is captured by the return duct, the
//!   rest spills into the room;
//! * the room exchanges heat with the building envelope
//!   (`U_env · (T_amb − T_room)`) and carries a constant auxiliary load —
//!   this term closes the energy balance and is the physical reason a higher
//!   supply temperature cheapens cooling;
//! * each CRAC's return stream mixes its share of the captured exhausts
//!   with room air.
//!
//! The [`presets::testbed_rack20`] function instantiates the 20-machine rack
//! used throughout the evaluation; [`materialize`] builds the plant a
//! scenario document describes.

#![warn(missing_docs)]

pub mod envelope;
pub mod measurement;
pub mod presets;
pub mod room;
pub mod scenario;

pub use envelope::Envelope;
pub use measurement::{RoomObservation, SteadyMeasurement};
pub use room::{MachineRoom, DT};
pub use scenario::materialize;
