//! Building envelope and auxiliary heat loads.
//!
//! The paper's machine room sits inside a warmer building; heat leaks in
//! through walls and doors, and other equipment (switches, lighting, the
//! paper mentions none explicitly but any real machine room has some)
//! contributes a roughly constant load. This term closes the room's energy
//! balance: at steady state the CRAC extracts the servers' heat *plus* the
//! envelope gain, and because the gain shrinks as the room warms, raising
//! the supply temperature genuinely reduces cooling energy — the physical
//! mechanism behind the paper's `P_ac = c·f_ac·(T_SP − T_ac)` savings model.

use coolopt_units::{Conductance, Temperature, Watts};
use serde::{Deserialize, Serialize};

/// Envelope description of the machine room.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Overall heat-transfer coefficient of the envelope (W/K).
    pub u_env: Conductance,
    /// Temperature of the surroundings (corridors, outdoors).
    pub t_ambient: Temperature,
    /// Constant auxiliary heat load inside the room (W).
    pub aux_load: Watts,
}

impl Envelope {
    /// Creates an envelope.
    ///
    /// # Panics
    ///
    /// Panics if `u_env` or `aux_load` is negative.
    pub const fn new(u_env: Conductance, t_ambient: Temperature, aux_load: Watts) -> Self {
        assert!(
            u_env.as_watts_per_kelvin() >= 0.0,
            "envelope conductance must be non-negative"
        );
        assert!(
            aux_load.as_watts() >= 0.0,
            "auxiliary load must be non-negative"
        );
        Envelope {
            u_env,
            t_ambient,
            aux_load,
        }
    }

    /// Net heat flowing *into* the room air at room temperature `t_room`
    /// (can be negative when the room is warmer than the surroundings).
    pub fn heat_gain(&self, t_room: Temperature) -> Watts {
        self.u_env * (self.t_ambient - t_room) + self.aux_load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_decreases_as_room_warms() {
        let env = Envelope::new(
            Conductance::watts_per_kelvin(900.0),
            Temperature::from_celsius(30.0),
            Watts::new(2000.0),
        );
        let cold = env.heat_gain(Temperature::from_celsius(18.0));
        let warm = env.heat_gain(Temperature::from_celsius(24.0));
        assert!((cold.as_watts() - (900.0 * 12.0 + 2000.0)).abs() < 1e-9);
        assert!(warm < cold);
        // 1 K of room warming saves u_env watts of load.
        assert!((cold.as_watts() - warm.as_watts() - 900.0 * 6.0).abs() < 1e-9);
    }

    #[test]
    fn gain_can_be_negative() {
        let env = Envelope::new(
            Conductance::watts_per_kelvin(100.0),
            Temperature::from_celsius(20.0),
            Watts::ZERO,
        );
        assert!(env.heat_gain(Temperature::from_celsius(25.0)).as_watts() < 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_aux_load_panics() {
        Envelope::new(
            Conductance::ZERO,
            Temperature::from_celsius(20.0),
            Watts::new(-5.0),
        );
    }
}
