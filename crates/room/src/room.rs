//! The composed machine-room ODE system.
//!
//! A room holds `Z ≥ 1` zones (racks), each served mostly by its own CRAC.
//! The paper's testbed is the one-zone case. Within a zone every server
//! draws its intake from the zone's supply stream, from its lower
//! neighbour's exhaust and from the room air; uncaptured exhaust and
//! unclaimed supply spill into the common room-air node. Two mechanisms
//! couple the zones:
//!
//! * **Supply sharing** — zone `z`'s cold stream is a convex mixture of the
//!   CRAC supplies, `T_mix_z = Σ_u share[z][u]·T_supply_u` (two units
//!   feeding one aisle through a common plenum). Returns flow back the same
//!   way: CRAC `u` receives `share[z][u]` of zone `z`'s captured exhaust.
//! * **Cross-zone recirculation** — a fraction `cross[z][w]` of every
//!   zone-`z` inlet is drawn from zone `w`'s mean exhaust (hot-aisle
//!   leakage across the room).

use crate::envelope::Envelope;
use coolopt_cooling::{CracMode, CracUnit};
use coolopt_machine::{CpuTempSensor, PowerMeter, Server, ThermalTerms};
use coolopt_sim::ode::{Dynamics, Integrator, Rk4};
use coolopt_sim::{SimClock, SimScratch, TrendDetector};
use coolopt_units::{Conductance, FlowRate, HeatCapacity, Seconds, Temperature, Watts, C_AIR};
use std::cell::{Ref, RefCell};
use std::fmt;
use std::ops::Range;

/// Error returned when assembling an inconsistent machine room.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidRoom {
    what: String,
}

impl InvalidRoom {
    pub(crate) fn new(what: String) -> Self {
        InvalidRoom { what }
    }
}

impl fmt::Display for InvalidRoom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid machine room: {}", self.what)
    }
}

impl std::error::Error for InvalidRoom {}

/// Integration step of [`MachineRoom::step`].
pub const DT: Seconds = Seconds::new(1.0);

/// Lumped heat capacity of the room air.
const ROOM_AIR_CAPACITY: HeatCapacity = HeatCapacity::joules_per_kelvin(60_000.0);

/// The room's envelope and auxiliary loads.
const ENVELOPE: Envelope = Envelope::new(
    Conductance::watts_per_kelvin(120.0),
    Temperature::from_celsius(25.0),
    Watts::new(800.0),
);

/// Temperature of every thermal node when a room is built.
pub(crate) const INITIAL_TEMP: Temperature = Temperature::from_celsius(24.0);

/// The simulated machine room: `n` servers in `Z` zones, one CRAC per
/// zone, the air paths between them, and the envelope.
///
/// Servers are indexed flat in zone-major order, bottom slot first. The
/// continuous state is
/// `[T_cpu_0, T_box_0, …, T_cpu_{n−1}, T_box_{n−1}, T_room, integral_0, …,
/// integral_{Z−1}]`; [`MachineRoom::step`] advances it with RK4 and then
/// lets the discrete parts (boot timers, noise processes) catch up.
#[derive(Debug, Clone)]
pub struct MachineRoom {
    servers: Vec<Server>,
    cracs: Vec<CracUnit>,
    /// Zone index of every server.
    zone_of: Vec<usize>,
    /// Server-index range of every zone.
    zone_ranges: Vec<Range<usize>>,
    /// Per-server share of the zone's mixed supply stream (the physical
    /// origin of the paper's `α_i`).
    supply_fraction: Vec<f64>,
    /// Per-server fraction of the lower neighbour's exhaust (0 at the
    /// bottom of each zone).
    neighbor_recirc: Vec<f64>,
    /// Per-server exhaust capture fraction; the rest spills into the room.
    capture: Vec<f64>,
    /// `supply_share[z][u]`: fraction of zone z's supply stream provided by
    /// CRAC u (rows sum to 1).
    supply_share: Vec<Vec<f64>>,
    /// `cross_zone[z][w]`: fraction of zone-z inlets drawn from zone w's
    /// mean exhaust (diagonal 0).
    cross_zone: Vec<Vec<f64>>,
    /// `true` when some zone draws from another zone's exhaust; only then
    /// are zone mean exhausts computed.
    cross_recirculates: bool,
    /// Per-server share of room air in the intake: what supply,
    /// neighbour and cross-zone recirculation leave. The fractions have
    /// no setters, so this is fixed when the room is built.
    room_air: Vec<f64>,
    t_room: Temperature,
    clock: SimClock,
    temp_sensors: Vec<CpuTempSensor>,
    power_meters: Vec<PowerMeter>,
    /// Persistent packed-state buffer for [`MachineRoom::step`].
    ode_state: Vec<f64>,
    /// Persistent integrator workspace for [`MachineRoom::step`].
    scratch: SimScratch,
    /// Persistent per-server [`ThermalTerms`] buffer of [`PlantStage`].
    thermal: Vec<ThermalTerms>,
    /// The terms derived from the servers' air flows, kept across steps
    /// and rebuilt by [`MachineRoom::flow_terms`] when a flow changes.
    /// The observation methods only get `&self`, hence the interior
    /// mutability.
    flow_terms: RefCell<FlowTerms>,
    /// Air-path temperatures, rewritten by every stage evaluation and
    /// every observation ([`MachineRoom::air_state`],
    /// [`MachineRoom::cooling_power`]). Never held across a call.
    air: RefCell<AirTemps>,
}

/// Per-CRAC return-duct coefficients for one set of server flows.
#[derive(Debug, Clone, Default)]
struct Ducts {
    /// `(server, share·capture·F)` for every server whose captured exhaust
    /// reaches a CRAC (`share > 0`), CRAC by CRAC, servers ascending.
    captured: Vec<(usize, f64)>,
    /// Per CRAC: its range in `captured` and the sum of those flows.
    spans: Vec<(Range<usize>, f64)>,
}

/// Air-path temperatures: per-server exhausts and inlets, per-CRAC returns
/// and supplies, per-zone mean exhausts.
#[derive(Debug, Clone, Default)]
struct AirTemps {
    exhausts: Vec<Temperature>,
    inlets: Vec<Temperature>,
    returns: Vec<Temperature>,
    supplies: Vec<Temperature>,
    zone_means: Vec<f64>,
}

/// The terms that depend only on the servers' air flows. A flow changes
/// only with a power state, so these outlive many steps; everything else
/// they read (fractions, shares, CRAC flows) is fixed when the room is
/// built.
#[derive(Debug, Clone, Default)]
struct FlowTerms {
    /// Per server: the flow the terms below were built for.
    flows: Vec<FlowRate>,
    /// Per server: conductance of its uncaptured exhaust into the room,
    /// `(F·(1−capture))·c_air`.
    spill: Vec<Conductance>,
    ducts: Ducts,
    /// Per CRAC: conductance of the supply air no server draws, which
    /// spills into the room at the unit's supply temperature.
    unclaimed: Vec<Conductance>,
}

impl FlowTerms {
    /// `true` when every server's flow equals, bit for bit, the one these
    /// terms were built for.
    fn fit(&self, servers: &[Server]) -> bool {
        self.flows.len() == servers.len()
            && servers.iter().zip(&self.flows).all(|(s, f)| {
                s.air_flow().as_cubic_meters_per_second().to_bits()
                    == f.as_cubic_meters_per_second().to_bits()
            })
    }
}

/// View of the instantaneous air-path temperatures.
#[derive(Debug, Clone, PartialEq)]
pub struct AirState {
    /// Per-CRAC return-stream temperatures.
    pub returns: Vec<Temperature>,
    /// Per-CRAC supply temperatures `T_ac`.
    pub supplies: Vec<Temperature>,
    /// Per-server inlet temperatures `T_in`.
    pub inlets: Vec<Temperature>,
}

impl MachineRoom {
    /// Assembles a machine room.
    ///
    /// `zone_servers` holds one `Vec<Server>` per zone (bottom slot first)
    /// and `cracs` one unit per zone. The per-server fractions are flat in
    /// zone-major order: `supply_fraction` of the zone's supply stream,
    /// `neighbor_recirc` of the lower neighbour's exhaust, `capture` of the
    /// own exhaust into the return duct. `supply_share` (one row per zone,
    /// one column per CRAC) must be row-stochastic and `cross_zone` square
    /// with zero diagonal. A one-zone room takes `vec![vec![1.0]]` and
    /// `vec![vec![0.0]]`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRoom`] naming the violated rule: mismatched counts,
    /// a fraction outside `[0, 1]`, a recirculating zone bottom, a server
    /// drawing more than all of its intake (supply + recirculation +
    /// cross-zone > 1), or a CRAC whose flow does not cover the supply air
    /// the servers draw through it at full fan speed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        zone_servers: Vec<Vec<Server>>,
        cracs: Vec<CracUnit>,
        supply_fraction: Vec<f64>,
        neighbor_recirc: Vec<f64>,
        capture: Vec<f64>,
        supply_share: Vec<Vec<f64>>,
        cross_zone: Vec<Vec<f64>>,
        sensor_seed: u64,
    ) -> Result<Self, InvalidRoom> {
        let fail = |what: String| Err(InvalidRoom::new(what));
        let z_count = zone_servers.len();
        if z_count == 0 || zone_servers.iter().any(Vec::is_empty) {
            return fail("a machine room needs at least one server in every zone".into());
        }
        if cracs.len() != z_count {
            return fail(format!(
                "{z_count} zones but {} CRAC units (one per zone)",
                cracs.len()
            ));
        }
        let n: usize = zone_servers.iter().map(Vec::len).sum();
        for (name, len) in [
            ("supply fractions", supply_fraction.len()),
            ("neighbour recirculation", neighbor_recirc.len()),
            ("capture fractions", capture.len()),
        ] {
            if len != n {
                return fail(format!(
                    "component mismatch: {name} cover {len} servers, room has {n}"
                ));
            }
        }
        if supply_share.len() != z_count || cross_zone.len() != z_count {
            return fail(format!(
                "share/cross matrices must have {z_count} rows (got {} and {})",
                supply_share.len(),
                cross_zone.len()
            ));
        }
        let mut zone_of = Vec::with_capacity(n);
        let mut zone_ranges = Vec::with_capacity(z_count);
        for (z, servers) in zone_servers.iter().enumerate() {
            let start = zone_of.len();
            zone_ranges.push(start..start + servers.len());
            zone_of.resize(start + servers.len(), z);
        }
        for (z, (share, cross)) in supply_share.iter().zip(&cross_zone).enumerate() {
            if share.len() != z_count || cross.len() != z_count {
                return fail(format!("share/cross row {z} must have {z_count} entries"));
            }
            if share.iter().any(|s| !(0.0..=1.0).contains(s)) {
                return fail(format!("supply-share row {z} outside [0, 1]"));
            }
            let sum: f64 = share.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return fail(format!("supply-share row {z} sums to {sum}, not 1"));
            }
            if cross[z] != 0.0 {
                return fail(format!("zone {z} cannot cross-recirculate its own exhaust"));
            }
            if cross.iter().any(|c| !(0.0..=1.0).contains(c)) {
                return fail(format!("cross-zone row {z} outside [0, 1]"));
            }
            let cross_sum: f64 = cross.iter().sum();
            for i in zone_ranges[z].clone() {
                let s = supply_fraction[i];
                let r = neighbor_recirc[i];
                if !(0.0..=1.0).contains(&s) || !(0.0..=1.0).contains(&r) {
                    return fail(format!("server {i}: air fractions outside [0, 1]"));
                }
                if i == zone_ranges[z].start && r != 0.0 {
                    return fail(format!("server {i} is a zone bottom but recirculates"));
                }
                if s + r + cross_sum > 1.0 + 1e-12 {
                    return fail(format!(
                        "server {i}: supply {s} + recirculation {r} + cross {cross_sum} > 1"
                    ));
                }
            }
        }
        if capture.iter().any(|c| !(0.0..=1.0).contains(c)) {
            return fail("capture fraction outside [0, 1]".into());
        }
        let mut servers: Vec<Server> = zone_servers.into_iter().flatten().collect();
        for (u, crac) in cracs.iter().enumerate() {
            let mut drawn = 0.0;
            for (i, s) in servers.iter().enumerate() {
                drawn += supply_share[zone_of[i]][u]
                    * supply_fraction[i]
                    * s.config().fan_flow.as_cubic_meters_per_second();
            }
            let provided = crac.config().flow;
            if drawn > provided.as_cubic_meters_per_second() {
                return fail(format!(
                    "servers draw {} of supply air through CRAC {u}, which provides {provided}",
                    FlowRate::cubic_meters_per_second(drawn)
                ));
            }
        }
        for s in &mut servers {
            s.sync_thermal_state(INITIAL_TEMP, INITIAL_TEMP);
        }
        let temp_sensors = (0..n)
            .map(|i| CpuTempSensor::with_default_noise(sensor_seed.wrapping_add(i as u64)))
            .collect();
        let power_meters = (0..n)
            .map(|i| PowerMeter::with_default_noise(sensor_seed.wrapping_add(1000 + i as u64)))
            .collect();
        let room_air = (0..n)
            .map(|i| {
                let mut room_air = 1.0 - supply_fraction[i] - neighbor_recirc[i];
                for &x in &cross_zone[zone_of[i]] {
                    if x > 0.0 {
                        room_air -= x;
                    }
                }
                room_air
            })
            .collect();
        let cross_recirculates = cross_zone.iter().flatten().any(|&x| x > 0.0);
        let dim = 2 * n + 1 + z_count;
        Ok(MachineRoom {
            servers,
            cracs,
            zone_of,
            zone_ranges,
            supply_fraction,
            neighbor_recirc,
            capture,
            supply_share,
            cross_zone,
            cross_recirculates,
            room_air,
            t_room: INITIAL_TEMP,
            clock: SimClock::new(DT),
            temp_sensors,
            power_meters,
            ode_state: Vec::with_capacity(dim),
            scratch: SimScratch::with_dim(dim),
            thermal: Vec::with_capacity(n),
            flow_terms: RefCell::default(),
            air: RefCell::default(),
        })
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when the room holds no servers (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Number of zones (= CRAC units).
    pub fn zone_count(&self) -> usize {
        self.cracs.len()
    }

    /// Zone index of server `i`.
    pub fn zone_of(&self, i: usize) -> usize {
        self.zone_of[i]
    }

    /// Server-index range of zone `z`.
    pub fn zone_range(&self, z: usize) -> Range<usize> {
        self.zone_ranges[z].clone()
    }

    /// The servers, flat in zone-major order.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Mutable access to one server.
    pub fn server_mut(&mut self, i: usize) -> &mut Server {
        &mut self.servers[i]
    }

    /// The cooling units, zone order.
    pub fn cracs(&self) -> &[CracUnit] {
        &self.cracs
    }

    /// Mutable access to zone `u`'s cooling unit.
    pub fn crac_mut(&mut self, u: usize) -> &mut CracUnit {
        &mut self.cracs[u]
    }

    /// Share of its zone's supply stream in server `i`'s intake.
    pub fn supply_fraction(&self, i: usize) -> f64 {
        self.supply_fraction[i]
    }

    /// Share of its lower neighbour's exhaust in server `i`'s intake.
    pub fn neighbor_recirculation(&self, i: usize) -> f64 {
        self.neighbor_recirc[i]
    }

    /// Fraction of server `i`'s exhaust captured by the return duct.
    pub fn capture_fraction(&self, i: usize) -> f64 {
        self.capture[i]
    }

    /// Room-air temperature.
    pub fn room_temp(&self) -> Temperature {
        self.t_room
    }

    /// Current simulation time.
    pub fn now(&self) -> Seconds {
        self.clock.now()
    }

    /// Commands every CRAC's return-air set point.
    pub fn set_set_point(&mut self, t_sp: Temperature) {
        for crac in &mut self.cracs {
            crac.set_mode(CracMode::ReturnSetPoint(t_sp));
        }
    }

    /// Commands every CRAC into fixed-supply mode at the given temperatures
    /// (the planner's per-zone `T_ac` decision).
    ///
    /// # Panics
    ///
    /// Panics if the vector length disagrees with the zone count.
    pub fn set_fixed_supplies(&mut self, supplies: &[Temperature]) {
        assert_eq!(supplies.len(), self.cracs.len(), "one supply per CRAC");
        for (crac, &t) in self.cracs.iter_mut().zip(supplies) {
            crac.set_mode(CracMode::FixedSupply(t));
        }
    }

    /// Powers every machine on instantly (skipping boot) with zero load.
    pub fn force_all_on(&mut self) {
        for s in &mut self.servers {
            s.force_on();
        }
    }

    /// Applies an ON-set: machines in `on` are forced on, all others off.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn apply_on_set(&mut self, on: &[usize]) {
        for s in &mut self.servers {
            s.power_off();
        }
        for &i in on {
            self.servers[i].force_on();
        }
    }

    /// Like [`MachineRoom::apply_on_set`], but *realistically*: newly
    /// started machines go through their boot transient (drawing idle power
    /// while serving nothing), machines already on stay on, and machines not
    /// in `on` shut down. Used by online controllers, where boot latency is
    /// part of the cost of a consolidation decision.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn command_on_set(&mut self, on: &[usize]) {
        for (i, s) in self.servers.iter_mut().enumerate() {
            if on.contains(&i) {
                s.power_on();
            } else {
                s.power_off();
            }
        }
    }

    /// Commands per-server load fractions (flat, zone-major).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`coolopt_machine::server::InvalidLoad`] if any
    /// fraction is outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the vector length disagrees with the server count.
    pub fn set_loads(&mut self, loads: &[f64]) -> Result<(), coolopt_machine::server::InvalidLoad> {
        assert_eq!(loads.len(), self.servers.len(), "load vector size mismatch");
        for (s, &l) in self.servers.iter_mut().zip(loads) {
            s.set_load(l)?;
        }
        Ok(())
    }

    /// Instantaneous air-path temperatures for the current state.
    pub fn air_state(&self) -> AirState {
        let mut temps = self.air.borrow_mut();
        self.current_air(&mut temps);
        let AirTemps {
            exhausts,
            inlets,
            returns,
            supplies,
            zone_means,
        } = &mut *temps;
        self.inlet_temps_into(supplies, exhausts, self.t_room, zone_means, inlets);
        AirState {
            returns: returns.clone(),
            supplies: supplies.clone(),
            inlets: inlets.clone(),
        }
    }

    /// CRAC 0's return and supply temperatures and the electrical power of
    /// all cooling units, from one evaluation of the return ducts and
    /// without allocating: the measurement window samples these every
    /// step.
    pub(crate) fn first_crac_air_and_cooling(&self) -> (Temperature, Temperature, Watts) {
        let mut temps = self.air.borrow_mut();
        self.current_air(&mut temps);
        let AirTemps {
            returns, supplies, ..
        } = &*temps;
        (returns[0], supplies[0], self.cooling_power_at(returns))
    }

    /// Total electrical power of the computing side (sum of server draws).
    pub fn computing_power(&self) -> Watts {
        self.servers.iter().map(|s| s.power_draw()).sum()
    }

    /// Electrical power of all cooling units. Allocation-free: it sits
    /// inside settle and recording loops.
    pub fn cooling_power(&self) -> Watts {
        let mut temps = self.air.borrow_mut();
        self.current_returns(&mut temps);
        self.cooling_power_at(&temps.returns)
    }

    fn cooling_power_at(&self, returns: &[Temperature]) -> Watts {
        self.cracs
            .iter()
            .zip(returns)
            .map(|(crac, &t_ret)| crac.electrical_power(t_ret, crac.integral()))
            .sum()
    }

    /// Total room power: computing + cooling, the paper's `P_total`.
    pub fn total_power(&self) -> Watts {
        self.computing_power() + self.cooling_power()
    }

    /// Reads server `i`'s CPU temperature through its (noisy, quantized)
    /// sensor.
    pub fn read_cpu_temp(&mut self, i: usize) -> Temperature {
        let t = self.servers[i].cpu_temp();
        self.temp_sensors[i].read(t)
    }

    /// Reads server `i`'s power draw through its (noisy, quantized) meter.
    pub fn read_power(&mut self, i: usize) -> Watts {
        let p = self.servers[i].power_draw();
        self.power_meters[i].read(p)
    }

    /// Fills `temps` with the current state's exhausts, returns and
    /// supplies.
    fn current_air(&self, temps: &mut AirTemps) {
        self.current_returns(temps);
        temps.supplies.clear();
        temps.supplies.extend(
            self.cracs
                .iter()
                .zip(&temps.returns)
                .map(|(crac, &t_ret)| crac.supply_temp(t_ret, crac.integral())),
        );
    }

    /// Fills the exhausts from the current server state, and the returns
    /// from them.
    fn current_returns(&self, temps: &mut AirTemps) {
        temps.exhausts.clear();
        temps
            .exhausts
            .extend(self.servers.iter().map(Server::exhaust_temp));
        let ducts = &self.flow_terms().ducts;
        self.return_temps_into(ducts, &temps.exhausts, self.t_room, &mut temps.returns);
    }

    /// The flow-derived terms for the servers' current air flows, rebuilt
    /// only when some flow differs from the one they were built for. A
    /// comparison rather than a dirty flag, so a power state changed
    /// through [`MachineRoom::server_mut`] is caught too.
    fn flow_terms(&self) -> Ref<'_, FlowTerms> {
        if !self.flow_terms.borrow().fit(&self.servers) {
            self.build_flow_terms(&mut self.flow_terms.borrow_mut());
        }
        self.flow_terms.borrow()
    }

    /// Drops the cached flow terms, so the next reader rebuilds them: a
    /// twin that calls this before every step and observation is the room
    /// without the cache.
    #[cfg(test)]
    fn forget_flow_terms(&self) {
        *self.flow_terms.borrow_mut() = FlowTerms::default();
    }

    fn build_flow_terms(&self, terms: &mut FlowTerms) {
        let FlowTerms {
            flows,
            spill,
            ducts,
            unclaimed,
        } = terms;
        spill.clear();
        flows.clear();
        for (s, &capture) in self.servers.iter().zip(&self.capture) {
            let flow = s.air_flow();
            spill.push((flow * (1.0 - capture)) * C_AIR);
            flows.push(flow);
        }
        self.ducts_into(flows, ducts);
        unclaimed.clear();
        for (u, crac) in self.cracs.iter().enumerate() {
            let mut drawn = 0.0;
            for (i, f) in flows.iter().enumerate() {
                drawn += self.supply_share[self.zone_of[i]][u]
                    * self.supply_fraction[i]
                    * f.as_cubic_meters_per_second();
            }
            let excess = FlowRate::cubic_meters_per_second(
                (crac.config().flow.as_cubic_meters_per_second() - drawn).max(0.0),
            );
            unclaimed.push(excess * C_AIR);
        }
    }

    /// The return-duct coefficients for per-server `flows`: CRAC `u`
    /// receives `share[z][u]·capture_i·F_i` of the exhaust of every server
    /// `i` of a zone `z` it feeds.
    fn ducts_into(&self, flows: &[FlowRate], ducts: &mut Ducts) {
        ducts.captured.clear();
        ducts.spans.clear();
        for u in 0..self.cracs.len() {
            let start = ducts.captured.len();
            let mut captured_flow = 0.0;
            for (i, f) in flows.iter().enumerate() {
                let share = self.supply_share[self.zone_of[i]][u];
                if share > 0.0 {
                    let cf = share * self.capture[i] * f.as_cubic_meters_per_second();
                    captured_flow += cf;
                    ducts.captured.push((i, cf));
                }
            }
            ducts
                .spans
                .push((start..ducts.captured.len(), captured_flow));
        }
    }

    /// Per-CRAC return temperatures, into `returns` (cleared first). CRAC
    /// `u` receives its share of the captured exhaust (flow-weighted, per
    /// `ducts`) and tops the stream up with room air to its own flow; if
    /// the captured exhaust alone fills the duct, the duct overflows into
    /// the room and the return is pure exhaust.
    fn return_temps_into(
        &self,
        ducts: &Ducts,
        exhausts: &[Temperature],
        t_room: Temperature,
        returns: &mut Vec<Temperature>,
    ) {
        returns.clear();
        for (crac, (span, captured_flow)) in self.cracs.iter().zip(&ducts.spans) {
            let captured_flow = *captured_flow;
            let mut captured_heat = 0.0; // flow-weighted temperature
            for &(i, cf) in &ducts.captured[span.clone()] {
                captured_heat += cf * exhausts[i].as_kelvin();
            }
            let f_ac = crac.config().flow.as_cubic_meters_per_second();
            returns.push(if captured_flow >= f_ac {
                Temperature::from_kelvin(captured_heat / captured_flow)
            } else {
                let makeup = f_ac - captured_flow;
                Temperature::from_kelvin((captured_heat + makeup * t_room.as_kelvin()) / f_ac)
            });
        }
    }

    /// Per-server inlet temperatures, into `inlets` (cleared first): the
    /// zone's supply mix, the lower neighbour's exhaust, every other zone's
    /// mean exhaust (cross-zone recirculation), and room air for the rest.
    fn inlet_temps_into(
        &self,
        supplies: &[Temperature],
        exhausts: &[Temperature],
        t_room: Temperature,
        zone_means: &mut Vec<f64>,
        inlets: &mut Vec<Temperature>,
    ) {
        zone_means.clear();
        if self.cross_recirculates {
            for range in &self.zone_ranges {
                let sum: f64 = exhausts[range.clone()].iter().map(|t| t.as_kelvin()).sum();
                zone_means.push(sum / range.len() as f64);
            }
        }
        inlets.clear();
        for (z, range) in self.zone_ranges.iter().enumerate() {
            let t_mix: f64 = self.supply_share[z]
                .iter()
                .zip(supplies)
                .map(|(share, t)| share * t.as_kelvin())
                .sum();
            for i in range.clone() {
                let r = self.neighbor_recirc[i];
                let mut kelvin = self.supply_fraction[i] * t_mix;
                if r > 0.0 {
                    kelvin += r * exhausts[i - 1].as_kelvin();
                }
                // Empty unless the room cross-recirculates.
                for (&x, &mean) in self.cross_zone[z].iter().zip(zone_means.iter()) {
                    if x > 0.0 {
                        kelvin += x * mean;
                    }
                }
                kelvin += self.room_air[i] * t_room.as_kelvin();
                inlets.push(Temperature::from_kelvin(kelvin));
            }
        }
    }

    fn pack_state_into(&self, x: &mut Vec<f64>) {
        x.clear();
        for s in &self.servers {
            x.push(s.cpu_temp().as_kelvin());
            x.push(s.exhaust_temp().as_kelvin());
        }
        x.push(self.t_room.as_kelvin());
        for c in &self.cracs {
            x.push(c.integral());
        }
    }

    fn unpack_state(&mut self, x: &[f64]) {
        let n = self.servers.len();
        for (i, s) in self.servers.iter_mut().enumerate() {
            s.sync_thermal_state(
                Temperature::from_kelvin(x[2 * i]),
                Temperature::from_kelvin(x[2 * i + 1]),
            );
        }
        self.t_room = Temperature::from_kelvin(x[2 * n]);
        for (c, &integral) in self.cracs.iter_mut().zip(&x[2 * n + 1..]) {
            c.sync_integral(integral);
        }
    }

    /// Advances the simulation by one step `dt`.
    ///
    /// The hot path is allocation-free: the packed state, the integrator
    /// workspace and the buffer of the step's thermal terms live on the
    /// room and are taken out for the duration of the step (the integrator
    /// needs `&self` while the buffers are borrowed mutably).
    pub fn step(&mut self) {
        let mut state = std::mem::take(&mut self.ode_state);
        let mut scratch = std::mem::take(&mut self.scratch);
        let thermal = std::mem::take(&mut self.thermal);
        self.pack_state_into(&mut state);
        let t = self.clock.now();
        let dt = self.clock.dt();
        let stage = PlantStage::new(self, thermal);
        Rk4::new().step_with(&stage, t, dt, &mut state, &mut scratch);
        self.thermal = stage.into_thermal();
        self.unpack_state(&state);
        for s in &mut self.servers {
            s.advance(dt.as_secs_f64());
        }
        self.clock.tick();
        self.ode_state = state;
        self.scratch = scratch;
    }

    /// Runs the simulation for (at least) `duration`.
    pub fn run_for(&mut self, duration: Seconds) {
        let n = self.clock.ticks_for(duration);
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until the total power and the hottest CPU temperature are both
    /// trend-steady (means of two consecutive 120-sample windows within
    /// `power_tol` watts and 0.2 K respectively — measurement noise is
    /// averaged out, only the settling trend matters), or until `max`
    /// simulated time has elapsed.
    ///
    /// Returns `true` if steady state was reached.
    pub fn settle(&mut self, max: Seconds, power_tol: f64) -> bool {
        let mut power = TrendDetector::new(120, power_tol);
        let mut temp = TrendDetector::new(120, 0.2);
        let n = self.clock.ticks_for(max);
        for _ in 0..n {
            self.step();
            power.observe(self.total_power().as_watts());
            let hottest = self
                .servers
                .iter()
                .map(|s| s.cpu_temp().as_kelvin())
                .fold(f64::NEG_INFINITY, f64::max);
            temp.observe(hottest);
            if power.is_steady() && temp.is_steady() {
                return true;
            }
        }
        false
    }
}

/// The room's ODE over one step, as RK4 evaluates it.
///
/// [`PlantStage::new`] gathers what the step's four stage evaluations
/// hold fixed: every server's heat split and advective conductance
/// ([`ThermalTerms`], new each step since the power noise moves) and the
/// room's cached [`FlowTerms`] (spill conductances, return-duct
/// coefficients, unclaimed supply conductances). An evaluation then does
/// only the arithmetic on the candidate temperatures. Each expression
/// keeps its operands and its order of evaluation, so the derivatives are
/// bit-identical to evaluating everything from the room in every stage.
struct PlantStage<'a> {
    room: &'a MachineRoom,
    /// Per server: its heat split and advective conductance.
    thermal: Vec<ThermalTerms>,
    flow: Ref<'a, FlowTerms>,
}

impl<'a> PlantStage<'a> {
    /// Fills `thermal` from the room's current servers.
    fn new(room: &'a MachineRoom, mut thermal: Vec<ThermalTerms>) -> Self {
        thermal.clear();
        thermal.extend(room.servers.iter().map(Server::thermal_terms));
        PlantStage {
            room,
            thermal,
            flow: room.flow_terms(),
        }
    }

    /// Hands the thermal buffer back and releases the flow terms.
    fn into_thermal(self) -> Vec<ThermalTerms> {
        self.thermal
    }
}

impl Dynamics for PlantStage<'_> {
    fn dim(&self) -> usize {
        2 * self.room.servers.len() + 1 + self.room.cracs.len()
    }

    fn derivatives(&self, _t: Seconds, x: &[f64], dx: &mut [f64]) {
        let room = self.room;
        let flow = &*self.flow;
        let n = room.servers.len();
        let t_room = Temperature::from_kelvin(x[2 * n]);
        let integrals = &x[2 * n + 1..];

        // Nothing below re-enters `derivatives` or observes the room, so
        // the RefCell never double-borrows.
        let mut temps = room.air.borrow_mut();
        let AirTemps {
            exhausts,
            inlets,
            returns,
            supplies,
            zone_means,
        } = &mut *temps;
        exhausts.clear();
        exhausts.extend((0..n).map(|i| Temperature::from_kelvin(x[2 * i + 1])));
        room.return_temps_into(&flow.ducts, exhausts, t_room, returns);
        supplies.clear();
        supplies.extend(
            room.cracs
                .iter()
                .zip(returns.iter())
                .zip(integrals)
                .map(|((crac, &t_ret), &integral)| crac.supply_temp(t_ret, integral)),
        );
        room.inlet_temps_into(supplies, exhausts, t_room, zone_means, inlets);

        let mut spilled_heat = Watts::ZERO;
        for (i, (thermal, &spill)) in self.thermal.iter().zip(&flow.spill).enumerate() {
            let t_cpu = Temperature::from_kelvin(x[2 * i]);
            let t_box = exhausts[i];
            let (d_cpu, d_box) = thermal.rates(inlets[i], t_cpu, t_box);
            dx[2 * i] = d_cpu.as_kelvin_per_second();
            dx[2 * i + 1] = d_box.as_kelvin_per_second();
            spilled_heat += spill * (t_box - t_room);
        }

        // Supply air not drawn through each CRAC spills into the room at
        // that unit's supply temperature.
        let mut supply_spill = Watts::ZERO;
        for (&unclaimed, &supply) in flow.unclaimed.iter().zip(supplies.iter()) {
            supply_spill += unclaimed * (supply - t_room);
        }
        let envelope_gain = ENVELOPE.heat_gain(t_room);

        let room_heat = spilled_heat + supply_spill + envelope_gain;
        dx[2 * n] = (room_heat / ROOM_AIR_CAPACITY).as_kelvin_per_second();
        for (u, crac) in room.cracs.iter().enumerate() {
            dx[2 * n + 1 + u] = crac.integral_rate(returns[u], integrals[u]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use coolopt_cooling::CracConfig;
    use coolopt_machine::{ServerConfig, ServerId};

    fn t(c: f64) -> Temperature {
        Temperature::from_celsius(c)
    }

    /// `n` R210-like servers numbered from `first`.
    fn servers(n: usize, first: usize) -> Vec<Server> {
        (first..first + n)
            .map(|i| Server::new(ServerId(i), ServerConfig::r210_like(), i as u64, t(24.0)))
            .collect()
    }

    fn crac(flow: f64) -> CracUnit {
        CracUnit::new(
            CracConfig::builder()
                .flow(FlowRate::cubic_meters_per_second(flow))
                .build()
                .unwrap(),
        )
    }

    /// One zone of `supply.len()` servers under one CRAC of `crac_flow`.
    fn one_zone(
        supply: Vec<f64>,
        recirc: Vec<f64>,
        capture: Vec<f64>,
        crac_flow: f64,
    ) -> Result<MachineRoom, InvalidRoom> {
        let n = supply.len();
        MachineRoom::new(
            vec![servers(n, 0)],
            vec![crac(crac_flow)],
            supply,
            recirc,
            capture,
            vec![vec![1.0]],
            vec![vec![0.0]],
            0,
        )
    }

    /// Two zones of `sizes` servers, each drawing `supply` of its zone's
    /// stream and capturing half its exhaust, under CRACs of `flows`.
    fn two_zones(
        sizes: [usize; 2],
        supply: f64,
        share: [[f64; 2]; 2],
        cross: [[f64; 2]; 2],
        flows: [f64; 2],
    ) -> Result<MachineRoom, InvalidRoom> {
        let n = sizes[0] + sizes[1];
        MachineRoom::new(
            vec![servers(sizes[0], 0), servers(sizes[1], sizes[0])],
            vec![crac(flows[0]), crac(flows[1])],
            vec![supply; n],
            vec![0.0; n],
            vec![0.5; n],
            share.map(Vec::from).to_vec(),
            cross.map(Vec::from).to_vec(),
            0,
        )
    }

    const ONE_CRAC_PER_ZONE: [[f64; 2]; 2] = [[1.0, 0.0], [0.0, 1.0]];
    const NO_CROSS: [[f64; 2]; 2] = [[0.0; 2]; 2];

    fn inlets(
        room: &MachineRoom,
        supplies: &[Temperature],
        exhausts: &[Temperature],
        t_room: Temperature,
    ) -> Vec<Temperature> {
        let mut out = Vec::new();
        room.inlet_temps_into(supplies, exhausts, t_room, &mut Vec::new(), &mut out);
        out
    }

    fn returns(
        room: &MachineRoom,
        exhausts: &[Temperature],
        flows: &[f64],
        t_room: Temperature,
    ) -> Vec<Temperature> {
        let flows: Vec<_> = flows
            .iter()
            .map(|&f| FlowRate::cubic_meters_per_second(f))
            .collect();
        let mut ducts = Ducts::default();
        room.ducts_into(&flows, &mut ducts);
        let mut out = Vec::new();
        room.return_temps_into(&ducts, exhausts, t_room, &mut out);
        out
    }

    /// The room's derivatives as every stage evaluation computed them
    /// before [`PlantStage`] held the step's fixed terms: everything from
    /// the room, per call. [`PlantStage`] must match it bit for bit.
    fn reference_derivatives(room: &MachineRoom, x: &[f64], dx: &mut [f64]) {
        let n = room.servers.len();
        let t_room = Temperature::from_kelvin(x[2 * n]);
        let integrals = &x[2 * n + 1..];
        let exhausts: Vec<Temperature> = (0..n)
            .map(|i| Temperature::from_kelvin(x[2 * i + 1]))
            .collect();
        let flows: Vec<FlowRate> = room.servers.iter().map(Server::air_flow).collect();
        let mut returns = Vec::new();
        for (u, crac) in room.cracs.iter().enumerate() {
            let mut captured_flow = 0.0;
            let mut captured_heat = 0.0;
            for (i, (t, f)) in exhausts.iter().zip(&flows).enumerate() {
                let share = room.supply_share[room.zone_of[i]][u];
                if share > 0.0 {
                    let cf = share * room.capture[i] * f.as_cubic_meters_per_second();
                    captured_flow += cf;
                    captured_heat += cf * t.as_kelvin();
                }
            }
            let f_ac = crac.config().flow.as_cubic_meters_per_second();
            returns.push(if captured_flow >= f_ac {
                Temperature::from_kelvin(captured_heat / captured_flow)
            } else {
                let makeup = f_ac - captured_flow;
                Temperature::from_kelvin((captured_heat + makeup * t_room.as_kelvin()) / f_ac)
            });
        }
        let supplies: Vec<Temperature> = room
            .cracs
            .iter()
            .zip(&returns)
            .zip(integrals)
            .map(|((crac, &t_ret), &integral)| crac.supply_temp(t_ret, integral))
            .collect();
        let zone_means: Vec<f64> = room
            .zone_ranges
            .iter()
            .map(|range| {
                let sum: f64 = exhausts[range.clone()].iter().map(|t| t.as_kelvin()).sum();
                sum / range.len() as f64
            })
            .collect();
        let mut inlets = Vec::new();
        for (i, &z) in room.zone_of.iter().enumerate() {
            let t_mix: f64 = room.supply_share[z]
                .iter()
                .zip(&supplies)
                .map(|(share, t)| share * t.as_kelvin())
                .sum();
            let s = room.supply_fraction[i];
            let r = room.neighbor_recirc[i];
            let mut kelvin = s * t_mix;
            if r > 0.0 {
                kelvin += r * exhausts[i - 1].as_kelvin();
            }
            let mut room_air = 1.0 - s - r;
            for (&x, &mean) in room.cross_zone[z].iter().zip(&zone_means) {
                if x > 0.0 {
                    kelvin += x * mean;
                    room_air -= x;
                }
            }
            kelvin += room_air * t_room.as_kelvin();
            inlets.push(Temperature::from_kelvin(kelvin));
        }

        let mut spilled_heat = Watts::ZERO;
        for (i, server) in room.servers.iter().enumerate() {
            let t_cpu = Temperature::from_kelvin(x[2 * i]);
            let t_box = exhausts[i];
            let config = server.config();
            let p = server.heat_output();
            let b = config.heat_bypass_fraction;
            let exchange = config.theta_cpu_box * (t_cpu - t_box);
            let advect = (server.air_flow() * C_AIR) * (inlets[i] - t_box);
            let d_cpu = (p * (1.0 - b) - exchange) / config.nu_cpu;
            let d_box = (exchange + p * b + advect) / config.nu_box;
            dx[2 * i] = d_cpu.as_kelvin_per_second();
            dx[2 * i + 1] = d_box.as_kelvin_per_second();
            let spill_conductance = (flows[i] * (1.0 - room.capture[i])) * C_AIR;
            spilled_heat += spill_conductance * (t_box - t_room);
        }
        let mut supply_spill = Watts::ZERO;
        for (u, crac) in room.cracs.iter().enumerate() {
            let mut drawn = 0.0;
            for (i, f) in flows.iter().enumerate() {
                drawn += room.supply_share[room.zone_of[i]][u]
                    * room.supply_fraction[i]
                    * f.as_cubic_meters_per_second();
            }
            let excess = FlowRate::cubic_meters_per_second(
                (crac.config().flow.as_cubic_meters_per_second() - drawn).max(0.0),
            );
            supply_spill += (excess * C_AIR) * (supplies[u] - t_room);
        }
        let envelope_gain = ENVELOPE.heat_gain(t_room);
        let room_heat = spilled_heat + supply_spill + envelope_gain;
        dx[2 * n] = (room_heat / ROOM_AIR_CAPACITY).as_kelvin_per_second();
        for (u, crac) in room.cracs.iter().enumerate() {
            dx[2 * n + 1 + u] = crac.integral_rate(returns[u], integrals[u]);
        }
    }

    /// `room` with a random mix of power states, loads and CRAC modes,
    /// advanced a few steps so power noise is non-zero, and a random state
    /// vector around it.
    fn randomized(mut room: MachineRoom, seed: u64) -> (MachineRoom, Vec<f64>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut uniform = move |lo: f64, hi: f64| lo + rng.random::<f64>() * (hi - lo);
        let n = room.len();
        for i in 0..n {
            let server = room.server_mut(i);
            match (uniform(0.0, 4.0)) as u32 {
                0 => server.power_off(),
                1 => server.power_on(), // booting
                _ => server.force_on(),
            }
            server.set_load(uniform(0.0, 1.0)).unwrap();
        }
        for u in 0..room.zone_count() {
            let t = Temperature::from_celsius(uniform(12.0, 26.0));
            room.crac_mut(u).set_mode(if uniform(0.0, 1.0) < 0.5 {
                CracMode::ReturnSetPoint(t)
            } else {
                CracMode::FixedSupply(t)
            });
        }
        for _ in 0..1 + uniform(0.0, 3.0) as usize {
            room.step();
        }
        let mut x: Vec<f64> = (0..2 * n)
            .map(|_| Temperature::from_celsius(uniform(15.0, 90.0)).as_kelvin())
            .collect();
        x.push(Temperature::from_celsius(uniform(15.0, 35.0)).as_kelvin());
        x.extend((0..room.zone_count()).map(|_| uniform(-0.5, 1.5)));
        (room, x)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn stage_derivatives_match_the_reference_bit_for_bit(seed in 0u64..u64::MAX, two_zone in 0u8..2) {
            let room = if two_zone == 1 {
                crate::materialize(&coolopt_scenario::presets::two_zone_hetero(seed % 7))
                    .expect("the shipped two-zone scenario materializes")
            } else {
                presets::testbed_rack20(seed % 7)
            };
            let (room, mut x) = randomized(room, seed);
            let stage = PlantStage::new(&room, Vec::new());
            let dim = stage.dim();
            let (mut expected, mut actual) = (vec![0.0; dim], vec![0.0; dim]);
            // Several evaluations on one stage, as RK4 makes them: the
            // reused temporaries must not leak between calls.
            for _ in 0..4 {
                reference_derivatives(&room, &x, &mut expected);
                stage.derivatives(Seconds::ZERO, &x, &mut actual);
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&actual), bits(&expected));
                for (xi, di) in x.iter_mut().zip(&expected) {
                    *xi += 0.5 * di;
                }
            }
        }
    }

    /// The bits of everything a caller can observe of `room`: its packed
    /// state, cooling and total power, the air state and the measurement
    /// window's CRAC 0 reading.
    fn observed_bits(room: &MachineRoom, forget: bool) -> Vec<u64> {
        let kelvin = |temps: &[Temperature]| {
            temps
                .iter()
                .map(|t| t.as_kelvin().to_bits())
                .collect::<Vec<_>>()
        };
        let mut bits = Vec::new();
        let mut state = Vec::new();
        room.pack_state_into(&mut state);
        bits.extend(state.iter().map(|x| x.to_bits()));
        let mut observe = |value: &dyn Fn() -> Vec<u64>| {
            if forget {
                room.forget_flow_terms();
            }
            bits.extend(value());
        };
        observe(&|| vec![room.cooling_power().as_watts().to_bits()]);
        observe(&|| vec![room.total_power().as_watts().to_bits()]);
        observe(&|| {
            let air = room.air_state();
            [air.returns, air.supplies, air.inlets]
                .iter()
                .flat_map(|temps| kelvin(temps))
                .collect()
        });
        observe(&|| {
            let (t_ret, t_sup, cooling) = room.first_crac_air_and_cooling();
            let mut v = kelvin(&[t_ret, t_sup]);
            v.push(cooling.as_watts().to_bits());
            v
        });
        bits
    }

    #[test]
    fn cached_flow_terms_match_rebuilding_them_every_step() {
        let rooms = [
            presets::testbed_rack20(3),
            crate::materialize(&coolopt_scenario::presets::two_zone_hetero(3))
                .expect("the shipped two-zone scenario materializes"),
        ];
        for mut cached in rooms {
            let n = cached.len();
            cached.force_all_on();
            let loads: Vec<f64> = (0..n).map(|i| (i % 5) as f64 / 4.0).collect();
            cached.set_loads(&loads).unwrap();
            cached.set_set_point(Temperature::from_celsius(19.0));
            // The twin rebuilds its flow terms before every step and
            // every observation.
            let mut fresh = cached.clone();
            let lower_half: Vec<usize> = (0..n / 2).collect();
            let every_other: Vec<usize> = (0..n).step_by(2).collect();
            for k in 0..400 {
                // Change power states every few steps, through every route
                // a caller has, and observe before stepping as well.
                let change: Option<&dyn Fn(&mut MachineRoom)> = match k % 50 {
                    5 => Some(&|room| room.apply_on_set(&lower_half)),
                    15 => Some(&|room| room.command_on_set(&every_other)), // boots
                    25 => Some(&|room| room.server_mut(k % n).power_off()),
                    30 => Some(&|room| room.server_mut(1).power_on()),
                    40 => Some(&|room| room.force_all_on()),
                    _ => None,
                };
                if let Some(change) = change {
                    change(&mut cached);
                    change(&mut fresh);
                    assert_eq!(observed_bits(&cached, false), observed_bits(&fresh, true));
                }
                fresh.forget_flow_terms();
                cached.step();
                fresh.step();
                assert_eq!(
                    observed_bits(&cached, false),
                    observed_bits(&fresh, true),
                    "step {k}"
                );
            }
        }
    }

    fn assert_celsius(actual: Temperature, expected: f64) {
        assert!(
            (actual.as_celsius() - expected).abs() < 1e-9,
            "{actual} vs {expected} °C"
        );
    }

    #[test]
    fn inlets_interpolate_supply_and_room_air() {
        let room = one_zone(vec![0.8; 3], vec![0.0; 3], vec![0.9; 3], 1.5).unwrap();
        for inlet in inlets(&room, &[t(10.0)], &[t(30.0); 3], t(20.0)) {
            assert_celsius(inlet, 0.8 * 10.0 + 0.2 * 20.0);
        }
    }

    #[test]
    fn recirculation_warms_the_inlet() {
        let room = one_zone(vec![0.8, 0.8], vec![0.0, 0.1], vec![0.9, 0.9], 1.5).unwrap();
        let inlets = inlets(&room, &[t(10.0)], &[t(40.0), t(35.0)], t(20.0));
        // The bottom server sees 0.8·10 + 0.2·20 = 12 °C.
        assert_celsius(inlets[0], 12.0);
        // Its upper neighbour sees 0.8·10 + 0.1·40 + 0.1·20 = 14 °C.
        assert_celsius(inlets[1], 14.0);
    }

    #[test]
    fn return_mixes_captured_exhaust_with_room_air() {
        let room = one_zone(vec![0.5; 2], vec![0.0; 2], vec![0.5; 2], 1.0).unwrap();
        // Captured: 0.5·0.1·2 = 0.1 m³/s of 40 °C; makeup 0.9 m³/s of 20 °C.
        let ret = returns(&room, &[t(40.0); 2], &[0.1; 2], t(20.0));
        assert_celsius(ret[0], 22.0);
    }

    #[test]
    fn overflowing_duct_returns_pure_exhaust() {
        let room = one_zone(vec![0.5; 2], vec![0.0; 2], vec![1.0; 2], 1.0).unwrap();
        // 3 m³/s of captured exhaust into a 1 m³/s duct: no room air, and
        // the flow-weighted exhaust mix (40 + 2·46) / 3 = 44 °C returns.
        let ret = returns(&room, &[t(40.0), t(46.0)], &[1.0, 2.0], t(20.0));
        assert_celsius(ret[0], 44.0);
    }

    #[test]
    fn supply_demand_is_flow_weighted() {
        // Fans of 0.04 and 0.02 m³/s drawing 50 % and 100 % supply air take
        // 0.04 m³/s from the CRAC: 0.041 m³/s covers them, 0.039 does not.
        let build = |crac_flow: f64| {
            let zone = [0.04, 0.02]
                .iter()
                .enumerate()
                .map(|(i, &fan)| {
                    let config = ServerConfig {
                        fan_flow: FlowRate::cubic_meters_per_second(fan),
                        ..ServerConfig::r210_like()
                    };
                    Server::new(ServerId(i), config, i as u64, t(24.0))
                })
                .collect();
            MachineRoom::new(
                vec![zone],
                vec![crac(crac_flow)],
                vec![0.5, 1.0],
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![vec![1.0]],
                vec![vec![0.0]],
                0,
            )
        };
        assert!(build(0.041).is_ok());
        assert!(build(0.039).is_err());
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        // Supply, recirculation or capture outside [0, 1].
        assert!(one_zone(vec![1.5, 0.5], vec![0.0; 2], vec![0.5; 2], 1.5).is_err());
        assert!(one_zone(vec![0.5; 2], vec![0.0, -0.1], vec![0.5; 2], 1.5).is_err());
        assert!(one_zone(vec![0.5; 2], vec![0.0; 2], vec![0.5, -0.1], 1.5).is_err());
        // Supply + recirculation exceeding 1.
        assert!(one_zone(vec![0.9, 0.9], vec![0.0, 0.2], vec![1.0; 2], 1.5).is_err());
        // A vector that does not cover every server.
        assert!(one_zone(vec![0.5; 2], vec![0.0], vec![1.0; 2], 1.5).is_err());
        // A supply-share row that is not stochastic, a self-recirculating zone.
        assert!(two_zones([1, 1], 0.5, [[0.6, 0.6], [0.0, 1.0]], NO_CROSS, [1.5; 2]).is_err());
        assert!(two_zones(
            [1, 1],
            0.5,
            ONE_CRAC_PER_ZONE,
            [[0.1, 0.0], [0.0, 0.0]],
            [1.5; 2]
        )
        .is_err());
    }

    #[test]
    fn a_zone_fed_half_and_half_sees_the_mean_supply() {
        let room = two_zones([1, 1], 1.0, [[0.5, 0.5], [0.0, 1.0]], NO_CROSS, [1.5; 2]).unwrap();
        let inlets = inlets(&room, &[t(10.0), t(20.0)], &[t(40.0); 2], t(25.0));
        assert_celsius(inlets[0], 15.0);
        assert_celsius(inlets[1], 20.0);
    }

    #[test]
    fn cross_zone_recirculation_warms_the_receiving_zone() {
        // Zone 1 draws 10 % of its intake from zone 0's mean exhaust (40 °C).
        let cross = [[0.0, 0.0], [0.1, 0.0]];
        let room = two_zones([2, 1], 0.8, ONE_CRAC_PER_ZONE, cross, [1.5; 2]).unwrap();
        let exhausts = [t(36.0), t(44.0), t(30.0)];
        let inlets = inlets(&room, &[t(10.0), t(10.0)], &exhausts, t(20.0));
        // Zone 0 is untouched: 0.8·10 + 0.2·20 = 12 °C.
        assert_celsius(inlets[0], 12.0);
        assert_celsius(inlets[1], 12.0);
        // Zone 1: 0.8·10 + 0.1·40 + 0.1·20 = 14 °C.
        assert_celsius(inlets[2], 14.0);
    }

    #[test]
    fn each_crac_return_sees_only_its_share_of_captured_exhaust() {
        // Zone 0 is fed by CRAC 0 alone; zone 1 a quarter by CRAC 0 and
        // three quarters by CRAC 1. Captured exhaust per server: 0.5·0.2 =
        // 0.1 m³/s. CRAC 0 gets 0.1 of 40 °C + 0.025 of 80 °C + 0.875 of
        // room air; CRAC 1 gets 0.075 of 80 °C + 0.925 of room air.
        let share = [[1.0, 0.0], [0.25, 0.75]];
        let room = two_zones([1, 1], 0.5, share, NO_CROSS, [1.0; 2]).unwrap();
        let ret = returns(&room, &[t(40.0), t(80.0)], &[0.2; 2], t(20.0));
        assert_celsius(ret[0], 0.1 * 40.0 + 0.025 * 80.0 + 0.875 * 20.0);
        assert_celsius(ret[1], 0.075 * 80.0 + 0.925 * 20.0);
    }

    #[test]
    fn a_recirculating_zone_bottom_is_rejected() {
        // Server 2 is zone 1's bottom: no neighbour below it in that rack.
        let build = |r: f64| {
            MachineRoom::new(
                vec![servers(2, 0), servers(2, 2)],
                vec![crac(1.5), crac(1.5)],
                vec![0.5; 4],
                vec![0.0, 0.05, r, 0.05],
                vec![0.5; 4],
                ONE_CRAC_PER_ZONE.map(Vec::from).to_vec(),
                NO_CROSS.map(Vec::from).to_vec(),
                0,
            )
        };
        assert!(build(0.0).is_ok());
        let err = build(0.05).unwrap_err();
        assert!(err.to_string().contains("zone bottom"), "{err}");
    }

    #[test]
    fn an_overcommitted_second_crac_is_rejected() {
        // Zone 1's server draws 80 % of its fan flow through CRAC 1.
        let fan = ServerConfig::r210_like()
            .fan_flow
            .as_cubic_meters_per_second();
        let build = |flow: f64| two_zones([1, 1], 0.8, ONE_CRAC_PER_ZONE, NO_CROSS, [1.5, flow]);
        assert!(build(0.9 * fan).is_ok());
        let err = build(0.7 * fan).unwrap_err();
        assert!(err.to_string().contains("CRAC 1"), "{err}");
    }

    #[test]
    fn settles_and_regulates_return_at_set_point() {
        let mut room = presets::small_rack(4, 7);
        room.force_all_on();
        room.set_loads(&[0.5; 4]).unwrap();
        room.set_set_point(Temperature::from_celsius(17.0));
        let ok = room.settle(Seconds::new(4000.0), 5.0);
        assert!(ok, "room failed to settle");
        let air = room.air_state();
        assert!(
            (air.returns[0].as_celsius() - 17.0).abs() < 0.3,
            "return at {}, wanted 17 °C",
            air.returns[0]
        );
        // Supply must sit below return by load/(f·c).
        assert!(air.supplies[0] < air.returns[0]);
    }

    #[test]
    fn energy_balances_at_steady_state() {
        // At steady state the coil must extract servers + envelope heat.
        let mut room = presets::small_rack(4, 3);
        room.force_all_on();
        room.set_loads(&[0.8; 4]).unwrap();
        room.set_set_point(Temperature::from_celsius(16.0));
        assert!(room.settle(Seconds::new(6000.0), 2.0));
        let air = room.air_state();
        let crac = &room.cracs()[0];
        let coil = crac.cooling_load(air.returns[0], crac.integral());
        let generated = room.computing_power() + ENVELOPE.heat_gain(room.room_temp());
        let rel = (coil.as_watts() - generated.as_watts()).abs() / generated.as_watts();
        assert!(
            rel < 0.05,
            "coil {coil} vs generated {generated} (rel err {rel})"
        );
    }
    #[test]
    fn higher_set_point_cuts_cooling_power() {
        let measure = |sp: f64| {
            let mut room = presets::small_rack(6, 11);
            room.force_all_on();
            room.set_loads(&[0.8; 6]).unwrap();
            room.set_set_point(Temperature::from_celsius(sp));
            assert!(room.settle(Seconds::new(6000.0), 2.0));
            room.total_power().as_watts()
        };
        let cold = measure(16.0);
        let warm = measure(22.0);
        assert!(
            warm < cold - 250.0,
            "raising the set point 6 K should save well over 0.25 kW (cold={cold}, warm={warm})"
        );
    }

    #[test]
    fn loaded_machines_run_hotter() {
        let mut room = presets::small_rack(4, 5);
        room.force_all_on();
        room.set_loads(&[0.0, 0.0, 1.0, 1.0]).unwrap();
        room.set_set_point(Temperature::from_celsius(24.0));
        assert!(room.settle(Seconds::new(5000.0), 5.0));
        let idle = room.servers()[0].cpu_temp();
        let busy = room.servers()[2].cpu_temp();
        assert!(
            (busy - idle).as_kelvin() > 10.0,
            "busy {} vs idle {}",
            busy,
            idle
        );
    }

    #[test]
    fn off_machines_do_not_heat() {
        let mut room = presets::small_rack(3, 5);
        room.apply_on_set(&[0]);
        room.set_loads(&[1.0, 0.0, 0.0]).unwrap();
        room.set_set_point(Temperature::from_celsius(24.0));
        assert!(room.settle(Seconds::new(5000.0), 5.0));
        let on = room.servers()[0].cpu_temp();
        let off = room.servers()[1].cpu_temp();
        assert!((on - off).as_kelvin() > 20.0);
        assert_eq!(room.servers()[1].power_draw(), Watts::ZERO);
    }

    #[test]
    fn observation_paths_work() {
        let mut room = presets::small_rack(2, 5);
        room.force_all_on();
        room.set_loads(&[0.5, 0.5]).unwrap();
        room.run_for(Seconds::new(100.0));
        let t = room.read_cpu_temp(0);
        let p = room.read_power(0);
        assert!(t.as_celsius() > 10.0 && t.as_celsius() < 90.0);
        assert!(p.as_watts() > 30.0 && p.as_watts() < 100.0);
        assert!(room.total_power() > room.computing_power());
    }

    #[test]
    fn cloned_rooms_evolve_bit_identically() {
        // Parallel sweeps run each scenario on a clone of the entry-state
        // room; that is only sound if a clone replays the exact trajectory,
        // including the persistent ODE/scratch/air buffers and noise state.
        let mut a = presets::small_rack(4, 13);
        a.force_all_on();
        a.set_loads(&[0.3, 0.9, 0.6, 0.0]).unwrap();
        a.set_set_point(Temperature::from_celsius(18.0));
        a.run_for(Seconds::new(50.0));
        let mut b = a.clone();
        for _ in 0..200 {
            a.step();
            b.step();
        }
        for (sa, sb) in a.servers().iter().zip(b.servers()) {
            assert_eq!(
                sa.cpu_temp().as_kelvin().to_bits(),
                sb.cpu_temp().as_kelvin().to_bits()
            );
            assert_eq!(sa.exhaust_temp(), sb.exhaust_temp());
        }
        assert_eq!(a.room_temp(), b.room_temp());
        assert_eq!(
            a.cracs()[0].integral().to_bits(),
            b.cracs()[0].integral().to_bits()
        );
        assert_eq!(
            a.read_cpu_temp(2),
            b.read_cpu_temp(2),
            "sensor noise must clone"
        );
    }

    #[test]
    fn construction_rejects_mismatched_components() {
        let room = presets::small_rack(3, 5);
        let result = MachineRoom::new(
            vec![room.servers().to_vec()],
            room.cracs().to_vec(),
            vec![0.5; 2],
            vec![0.0; 2],
            vec![0.8; 2],
            vec![vec![1.0]],
            vec![vec![0.0]],
            0,
        );
        assert!(result.is_err());
        // One zone needs one CRAC.
        let result = MachineRoom::new(
            vec![room.servers().to_vec()],
            vec![room.cracs()[0].clone(); 2],
            vec![0.5; 3],
            vec![0.0; 3],
            vec![0.8; 3],
            vec![vec![1.0]],
            vec![vec![0.0]],
            0,
        );
        assert!(result.is_err());
    }
}
