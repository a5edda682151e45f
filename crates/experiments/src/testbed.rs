//! The evaluation testbed: simulated rack + fitted models.

use coolopt_profiling::{profile_room, ProfileError, RoomProfile};
use coolopt_room::room::InvalidRoom;
use coolopt_room::{materialize, presets, MachineRoom};
use coolopt_scenario::{RackOptions, Scenario};
use std::fmt;

/// Why a testbed could not be built from a scenario document.
#[derive(Debug)]
pub enum TestbedError {
    /// The scenario failed to materialize into a consistent room.
    Room(InvalidRoom),
    /// Profiling the materialized room failed.
    Profile(ProfileError),
    /// The scenario has several zones; the single-room testbed pipeline
    /// cannot profile it (drive it through the multi-zone experiment
    /// instead).
    MultiZone {
        /// Zone count of the offending scenario.
        zones: usize,
    },
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::Room(e) => write!(f, "scenario does not materialize: {e}"),
            TestbedError::Profile(e) => write!(f, "profiling failed: {e}"),
            TestbedError::MultiZone { zones } => write!(
                f,
                "scenario has {zones} zones; the testbed pipeline is single-zone \
                 (use the multi-zone experiment)"
            ),
        }
    }
}

impl std::error::Error for TestbedError {}

impl From<InvalidRoom> for TestbedError {
    fn from(e: InvalidRoom) -> Self {
        TestbedError::Room(e)
    }
}

impl From<ProfileError> for TestbedError {
    fn from(e: ProfileError) -> Self {
        TestbedError::Profile(e)
    }
}

/// A profiled, ready-to-evaluate machine room.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The simulated room (the paper's rack of 20 Dell R210s).
    pub room: MachineRoom,
    /// Everything profiling produced (model, fits, calibrations).
    pub profile: RoomProfile,
    /// The scenario document the room was materialized from (run reports
    /// record its name and content hash).
    pub scenario: Scenario,
}

impl Testbed {
    /// Builds the paper's 20-machine testbed and profiles it.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] when profiling fails (it does not on the
    /// shipped presets; the error path exists for custom rooms).
    pub fn build(seed: u64) -> Result<Testbed, ProfileError> {
        Testbed::build_sized(20, seed)
    }

    /// Builds a smaller rack (used by tests and quick demos).
    ///
    /// # Errors
    ///
    /// See [`Testbed::build`].
    pub fn build_sized(machines: usize, seed: u64) -> Result<Testbed, ProfileError> {
        Testbed::from_options(RackOptions {
            machines,
            seed,
            ..RackOptions::default()
        })
    }

    /// Builds a rack with explicit air-distribution knobs (the ablation
    /// studies' entry point).
    ///
    /// # Errors
    ///
    /// See [`Testbed::build`].
    ///
    /// # Panics
    ///
    /// Panics on unphysical options (same rules as
    /// [`presets::parametric_rack_with`]).
    pub fn from_options(options: RackOptions) -> Result<Testbed, ProfileError> {
        let scenario = coolopt_scenario::presets::single_zone(options);
        let mut room = presets::parametric_rack_with(options);
        let profile = profile_room(&mut room, scenario.policy.t_max)?;
        Ok(Testbed {
            room,
            profile,
            scenario,
        })
    }

    /// Builds and profiles a testbed from a **single-zone** scenario
    /// document (the `--scenario` path of the experiment binaries). The
    /// fitted model carries the document's `T_max`. For documents emitted
    /// by the presets this is bit-identical to [`Testbed::build_sized`] —
    /// the identity is pinned by tests.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError`] for multi-zone documents, rooms that fail
    /// component validation, and profiling failures.
    pub fn from_scenario(scenario: &Scenario) -> Result<Testbed, TestbedError> {
        if !scenario.is_single_zone() {
            return Err(TestbedError::MultiZone {
                zones: scenario.zone_count(),
            });
        }
        let mut room = materialize(scenario)?;
        let profile = profile_room(&mut room, scenario.policy.t_max)?;
        Ok(Testbed {
            room,
            profile,
            scenario: scenario.clone(),
        })
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.room.len()
    }

    /// `true` for an empty testbed (never after construction).
    pub fn is_empty(&self) -> bool {
        self.room.is_empty()
    }

    /// Converts a load percentage (the paper's x-axes run 10–100 %) into the
    /// absolute total load `L` for this rack size.
    pub fn load_from_percent(&self, percent: f64) -> f64 {
        self.len() as f64 * percent / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_profiles_a_small_testbed() {
        let tb = Testbed::build_sized(3, 5).unwrap();
        assert_eq!(tb.len(), 3);
        assert!(!tb.is_empty());
        assert_eq!(tb.profile.model.len(), 3);
        assert!((tb.load_from_percent(50.0) - 1.5).abs() < 1e-12);
        assert_eq!(tb.scenario.total_machines(), 3);
        assert_eq!(tb.scenario.seed, 5);
    }

    #[test]
    fn scenario_path_profiles_to_the_same_model_as_the_code_path() {
        let scenario = coolopt_scenario::presets::single_zone(RackOptions {
            machines: 4,
            seed: 11,
            ..RackOptions::default()
        });
        let a = Testbed::from_scenario(&scenario).unwrap();
        let b = Testbed::build_sized(4, 11).unwrap();
        // Same room → same profiling trajectory → bit-identical fit.
        assert_eq!(a.profile.model.power().w1(), b.profile.model.power().w1());
        assert_eq!(a.profile.model.power().w2(), b.profile.model.power().w2());
        for i in 0..4 {
            assert_eq!(
                a.profile.model.thermal(i).alpha(),
                b.profile.model.thermal(i).alpha()
            );
        }
    }

    #[test]
    fn a_documents_t_max_reaches_the_fitted_model() {
        let mut scenario = coolopt_scenario::presets::single_zone(RackOptions {
            machines: 4,
            seed: 11,
            ..RackOptions::default()
        });
        let t_max = coolopt_units::Temperature::from_celsius(70.0);
        scenario.policy.t_max = t_max;
        let tb = Testbed::from_scenario(&scenario).unwrap();
        assert_eq!(tb.profile.model.t_max(), t_max);
    }

    #[test]
    fn multi_zone_documents_are_rejected_with_a_clear_error() {
        let scenario = coolopt_scenario::presets::two_zone_hetero(0);
        match Testbed::from_scenario(&scenario) {
            Err(TestbedError::MultiZone { zones: 2 }) => {}
            other => panic!("expected MultiZone error, got {other:?}"),
        }
    }
}
