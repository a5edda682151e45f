//! Online model-health watchdog: residual tracking between the fitted
//! steady-state model and the simulated plant, plus a `T_max`-margin
//! monitor.
//!
//! The paper's closed form is only optimal while the fitted abstract model
//! `T_i^cpu = α_i·T_ac + β_i·P_i + γ_i` (Eq. 8) tracks the plant; the
//! paper absorbs the residual with a static guard band. This module makes
//! the residual a *live* signal instead: for every settled sample the
//! runtime feeds the watchdog the difference between the model-predicted
//! steady-state CPU temperature and the simulated (noise-injected) one,
//! and the watchdog maintains
//!
//! * per-machine [Welford](https://en.wikipedia.org/wiki/Algorithms_for_calculating_variance#Welford's_online_algorithm)
//!   mean/variance of the residual (numerically stable, single pass),
//! * a per-machine EWMA drift detector `e ← (1−λ)·e + λ·r` with
//!   hysteresis: the drift flag trips when `|e|` exceeds 4.5 K and
//!   re-arms only below 2.25 K (a latched `drifted` verdict
//!   records whether it *ever* tripped),
//! * a margin monitor that watches the hottest CPU's distance to the true
//!   `T_max` and emits levelled events (info → warn → critical) *before*
//!   a violation occurs, with hysteresis so a temperature dithering on a
//!   threshold does not spam transitions.
//!
//! [`ModelHealthMonitor::finish`] folds everything into a [`HealthReport`]
//! — per-machine residual stats, drift flags, the closest approach to
//! `T_max`, and a recommended guard band (`max_i(|mean_i| + 2σ_i)`, the
//! empirical successor of the paper's hand-picked margin).

use coolopt_telemetry as telemetry;
use coolopt_units::Seconds;
use serde::{Deserialize, Serialize};

/// EWMA smoothing factor λ ∈ (0, 1] of the drift detector (larger reacts
/// faster; 0.05 needs ≈ 14 samples of constant bias to trip a threshold at
/// half the bias).
const EWMA_LAMBDA: f64 = 0.05;

/// Drift trips when the |EWMA residual| exceeds this (K). It sits above
/// the fitted Eq. 8 model's worst settled EWMA excursion on the stock
/// presets (≈3.8 K at the 20-machine preset's peak-load plateaus): drift
/// means leaving the fit's in-family envelope, not the fit error itself —
/// the static component of that error is what
/// [`HealthReport::recommended_guard_kelvin`] covers.
const DRIFT_HIGH_KELVIN: f64 = 4.5;

/// A tripped drift flag re-arms only below this (K).
const DRIFT_LOW_KELVIN: f64 = 2.25;

/// Residual samples a machine must accumulate before its drift detector
/// arms. The EWMA is seeded with the first sample, so a single noisy or
/// still-transient reading would otherwise trip the detector immediately;
/// the warm-up lets the EWMA average over the seed before verdicts count.
const WARMUP_SAMPLES: u64 = 8;

/// Callers skip residual and margin samples taken sooner than this after
/// a plan application (the plant is in transient; Eq. 8 predicts steady
/// state only).
pub const SETTLE: Seconds = Seconds::new(300.0);

/// EWMA smoothing factor of the margin signal the level decisions act on.
/// Instantaneous CPU readings carry ~±0.4 K process noise, so levelling on
/// the raw margin would alarm on single-sample spikes; the paper
/// low-pass-filters its sensor streams the same way. The *raw* closest
/// approach is still what the report records.
const MARGIN_LAMBDA: f64 = 0.05;

/// Margin (K) below which the monitor reports [`MarginLevel::Info`].
const MARGIN_INFO_KELVIN: f64 = 3.0;

/// Margin (K) below which the monitor reports [`MarginLevel::Warn`].
const MARGIN_WARN_KELVIN: f64 = 1.5;

/// Margin (K) below which the monitor reports [`MarginLevel::Critical`].
const MARGIN_CRITICAL_KELVIN: f64 = 0.25;

/// Hysteresis band (K) a margin must clear above a level's threshold
/// before the level de-escalates.
const MARGIN_HYSTERESIS_KELVIN: f64 = 0.25;

const _: () = {
    assert!(EWMA_LAMBDA > 0.0 && EWMA_LAMBDA <= 1.0);
    assert!(DRIFT_LOW_KELVIN <= DRIFT_HIGH_KELVIN);
    assert!(MARGIN_LAMBDA > 0.0 && MARGIN_LAMBDA <= 1.0);
    assert!(MARGIN_CRITICAL_KELVIN < MARGIN_WARN_KELVIN);
    assert!(MARGIN_WARN_KELVIN < MARGIN_INFO_KELVIN);
};

/// Fault injection for the watchdog.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthConfig {
    /// Artificial bias (K) added to every residual sample — fault
    /// injection for drift-detection tests and the drifted demo scenario.
    /// Zero in production.
    pub inject_bias_kelvin: f64,
}

/// How close the hottest CPU came to `T_max`, as a severity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MarginLevel {
    /// Comfortable margin.
    Ok,
    /// Margin below the info threshold.
    Info,
    /// Margin below the warn threshold.
    Warn,
    /// Margin below the critical threshold (violation imminent or
    /// occurring).
    Critical,
}

impl MarginLevel {
    /// Lower-case label (stable; used in reports and events).
    pub fn as_str(self) -> &'static str {
        match self {
            MarginLevel::Ok => "ok",
            MarginLevel::Info => "info",
            MarginLevel::Warn => "warn",
            MarginLevel::Critical => "critical",
        }
    }
}

/// Residual statistics and drift verdict for one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineHealth {
    /// Machine index.
    pub machine: usize,
    /// Settled residual samples observed.
    pub samples: u64,
    /// Mean residual (K): predicted − simulated.
    pub mean_residual_kelvin: f64,
    /// Residual standard deviation (K).
    pub std_residual_kelvin: f64,
    /// Final EWMA of the residual (K).
    pub ewma_residual_kelvin: f64,
    /// Largest |EWMA| seen after the warm-up window (K) — how close the
    /// machine came to (or how far it went past) the drift threshold.
    pub peak_abs_ewma_kelvin: f64,
    /// Largest |residual| seen (K).
    pub max_abs_residual_kelvin: f64,
    /// `true` if the EWMA drift detector ever tripped for this machine.
    pub drifted: bool,
}

/// End-of-run model-health verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Total settled residual samples across machines.
    pub samples: u64,
    /// Per-machine residual statistics (only machines that produced
    /// settled samples appear).
    pub machines: Vec<MachineHealth>,
    /// `true` if any machine's drift detector tripped.
    pub drifted: bool,
    /// Closest observed approach to `T_max` (K); negative when a
    /// violation occurred, infinite if no margin was ever observed.
    pub closest_margin_kelvin: f64,
    /// Trace-relative time (s) of the closest approach.
    pub closest_margin_at_seconds: f64,
    /// Worst margin severity reached during the run.
    pub worst_level: MarginLevel,
    /// Empirical guard-band recommendation (K): `max_i(|mean_i| + 2σ_i)`
    /// over machines, i.e. the bias-plus-2-sigma envelope the static
    /// guard band must cover for Eq. 8 to stay safe.
    pub recommended_guard_kelvin: f64,
}

impl HealthReport {
    /// The *model*-health verdict: `true` when no machine's drift
    /// detector tripped, i.e. the fitted Eq. 8 model still tracks the
    /// plant. The margin condition is deliberately not folded in — it
    /// describes the *operating point* (how hard the planner runs the
    /// room against `T_max`), not the model, and is reported alongside
    /// via [`worst_level`](Self::worst_level) and the closest-approach
    /// fields.
    pub fn healthy(&self) -> bool {
        !self.drifted
    }
}

impl Default for HealthReport {
    /// An empty report: nothing observed, nothing tripped, infinite
    /// margin (no approach to `T_max` was ever seen).
    fn default() -> Self {
        HealthReport {
            samples: 0,
            machines: Vec::new(),
            drifted: false,
            closest_margin_kelvin: f64::INFINITY,
            closest_margin_at_seconds: 0.0,
            worst_level: MarginLevel::Ok,
            recommended_guard_kelvin: 0.0,
        }
    }
}

/// Per-machine online state: Welford accumulator + EWMA drift latch.
#[derive(Debug, Clone, Copy)]
struct MachineState {
    count: u64,
    mean: f64,
    m2: f64,
    ewma: f64,
    peak_abs_ewma: f64,
    max_abs: f64,
    tripped: bool,
    ever_tripped: bool,
}

impl MachineState {
    const NEW: MachineState = MachineState {
        count: 0,
        mean: 0.0,
        m2: 0.0,
        ewma: 0.0,
        peak_abs_ewma: 0.0,
        max_abs: 0.0,
        tripped: false,
        ever_tripped: false,
    };

    fn observe(&mut self, r: f64) {
        self.count += 1;
        let delta = r - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (r - self.mean);
        // During warm-up the "EWMA" is the running mean — a single
        // still-transient seed sample is averaged down instead of
        // dominating geometrically for ~1/λ samples afterwards.
        self.ewma = if self.count <= WARMUP_SAMPLES {
            self.mean
        } else {
            (1.0 - EWMA_LAMBDA) * self.ewma + EWMA_LAMBDA * r
        };
        self.max_abs = self.max_abs.max(r.abs());
        // The detector arms only after the warm-up: the seed sample
        // (and the averaging-down that follows) is not a verdict.
        if self.count < WARMUP_SAMPLES {
            return;
        }
        self.peak_abs_ewma = self.peak_abs_ewma.max(self.ewma.abs());
        if self.tripped {
            if self.ewma.abs() < DRIFT_LOW_KELVIN {
                self.tripped = false;
            }
        } else if self.ewma.abs() > DRIFT_HIGH_KELVIN {
            self.tripped = true;
            self.ever_tripped = true;
        }
    }

    fn std(&self) -> f64 {
        if self.count > 1 {
            (self.m2 / (self.count - 1) as f64).sqrt()
        } else {
            0.0
        }
    }
}

/// The watchdog. Feed it settled residuals via [`observe_residual`] and
/// the hottest CPU's margin via [`observe_margin`]; call [`finish`] for
/// the [`HealthReport`].
///
/// [`observe_residual`]: ModelHealthMonitor::observe_residual
/// [`observe_margin`]: ModelHealthMonitor::observe_margin
/// [`finish`]: ModelHealthMonitor::finish
#[derive(Debug)]
pub struct ModelHealthMonitor {
    cfg: HealthConfig,
    machines: Vec<MachineState>,
    any_drift_event: bool,
    margin_ewma: Option<f64>,
    level: MarginLevel,
    worst_level: MarginLevel,
    closest_margin: f64,
    closest_at: f64,
    samples: u64,
}

impl ModelHealthMonitor {
    /// A watchdog for `machines` machines.
    pub fn new(machines: usize, cfg: HealthConfig) -> Self {
        ModelHealthMonitor {
            cfg,
            machines: vec![MachineState::NEW; machines],
            any_drift_event: false,
            margin_ewma: None,
            level: MarginLevel::Ok,
            worst_level: MarginLevel::Ok,
            closest_margin: f64::INFINITY,
            closest_at: 0.0,
            samples: 0,
        }
    }

    /// Records one settled residual `predicted − simulated` (K) for
    /// `machine`. The configured injection bias is added here, so
    /// fault-injection tests exercise the same code path as
    /// production.
    pub fn observe_residual(&mut self, machine: usize, residual_kelvin: f64) {
        let Some(state) = self.machines.get_mut(machine) else {
            return;
        };
        let r = residual_kelvin + self.cfg.inject_bias_kelvin;
        let was_tripped = state.tripped;
        state.observe(r);
        self.samples += 1;
        if state.tripped && !was_tripped {
            self.any_drift_event = true;
            telemetry::warn!(
                "health",
                "model drift detected: residual EWMA over threshold",
                machine = machine,
                ewma_kelvin = state.ewma,
                threshold_kelvin = DRIFT_HIGH_KELVIN,
            );
            telemetry::counter("coolopt_health_drift_trips_total").inc();
        }
    }

    /// Records the hottest CPU's margin to the true `T_max` at
    /// trace-relative time `now`, escalating/de-escalating the margin
    /// level with hysteresis and emitting one event per escalation.
    pub fn observe_margin(&mut self, now: Seconds, margin_kelvin: f64) {
        if margin_kelvin < self.closest_margin {
            self.closest_margin = margin_kelvin;
            self.closest_at = now.as_secs_f64();
        }
        // Levels act on the low-pass-filtered margin so single-sample
        // noise spikes don't alarm; the raw sample above still drives
        // the closest-approach record.
        let smoothed = match self.margin_ewma {
            None => margin_kelvin,
            Some(e) => (1.0 - MARGIN_LAMBDA) * e + MARGIN_LAMBDA * margin_kelvin,
        };
        self.margin_ewma = Some(smoothed);
        let escalate_to = if smoothed < MARGIN_CRITICAL_KELVIN {
            MarginLevel::Critical
        } else if smoothed < MARGIN_WARN_KELVIN {
            MarginLevel::Warn
        } else if smoothed < MARGIN_INFO_KELVIN {
            MarginLevel::Info
        } else {
            MarginLevel::Ok
        };
        let new_level = if escalate_to > self.level {
            escalate_to
        } else {
            // De-escalate only once the margin clears the *current*
            // level's threshold plus the hysteresis band.
            let release = match self.level {
                MarginLevel::Critical => MARGIN_CRITICAL_KELVIN,
                MarginLevel::Warn => MARGIN_WARN_KELVIN,
                MarginLevel::Info => MARGIN_INFO_KELVIN,
                MarginLevel::Ok => f64::NEG_INFINITY,
            };
            if smoothed > release + MARGIN_HYSTERESIS_KELVIN {
                escalate_to
            } else {
                self.level
            }
        };
        if new_level > self.level {
            let at = now.as_secs_f64();
            match new_level {
                MarginLevel::Critical => telemetry::event!(
                    telemetry::Level::Error,
                    "health",
                    "T_max margin critical",
                    margin_kelvin = smoothed,
                    at_seconds = at,
                ),
                MarginLevel::Warn => telemetry::warn!(
                    "health",
                    "T_max margin shrinking",
                    margin_kelvin = smoothed,
                    at_seconds = at,
                ),
                _ => telemetry::info!(
                    "health",
                    "T_max margin below info threshold",
                    margin_kelvin = smoothed,
                    at_seconds = at,
                ),
            }
            telemetry::counter("coolopt_health_margin_escalations_total").inc();
        }
        self.level = new_level;
        self.worst_level = self.worst_level.max(new_level);
        telemetry::gauge("coolopt_health_margin_kelvin").set(margin_kelvin);
    }

    /// Folds the watchdog into its report.
    pub fn finish(self) -> HealthReport {
        let machines: Vec<MachineHealth> = self
            .machines
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count > 0)
            .map(|(i, s)| MachineHealth {
                machine: i,
                samples: s.count,
                mean_residual_kelvin: s.mean,
                std_residual_kelvin: s.std(),
                ewma_residual_kelvin: s.ewma,
                peak_abs_ewma_kelvin: s.peak_abs_ewma,
                max_abs_residual_kelvin: s.max_abs,
                drifted: s.ever_tripped,
            })
            .collect();
        let recommended_guard = machines
            .iter()
            .map(|m| m.mean_residual_kelvin.abs() + 2.0 * m.std_residual_kelvin)
            .fold(0.0, f64::max);
        let drifted = self.any_drift_event;
        telemetry::gauge("coolopt_health_recommended_guard_kelvin").set(recommended_guard);
        if drifted {
            telemetry::counter("coolopt_health_drifted_runs_total").inc();
        }
        HealthReport {
            samples: self.samples,
            machines,
            drifted,
            closest_margin_kelvin: self.closest_margin,
            closest_margin_at_seconds: self.closest_at,
            worst_level: self.worst_level,
            recommended_guard_kelvin: recommended_guard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `margin` once a second for `samples` seconds from `*t` and
    /// returns the level after each sample.
    fn hold(
        mon: &mut ModelHealthMonitor,
        t: &mut f64,
        margin: f64,
        samples: usize,
    ) -> Vec<MarginLevel> {
        (0..samples)
            .map(|_| {
                mon.observe_margin(Seconds::new(*t), margin);
                *t += 1.0;
                mon.level
            })
            .collect()
    }

    #[test]
    fn margin_levels_order_by_severity() {
        assert!(MarginLevel::Ok < MarginLevel::Info);
        assert!(MarginLevel::Info < MarginLevel::Warn);
        assert!(MarginLevel::Warn < MarginLevel::Critical);
        assert_eq!(MarginLevel::Critical.as_str(), "critical");
    }

    #[test]
    fn unbiased_residuals_stay_healthy() {
        let mut mon = ModelHealthMonitor::new(2, HealthConfig::default());
        // Zero-mean noise well under the drift threshold.
        for k in 0..200 {
            let r = 0.3 * if (k / 2) % 2 == 0 { 1.0 } else { -1.0 };
            mon.observe_residual(k % 2, r);
            mon.observe_margin(Seconds::new(k as f64), 8.0);
        }
        let report = mon.finish();
        assert!(!report.drifted);
        assert!(report.healthy());
        assert_eq!(report.machines.len(), 2);
        assert_eq!(report.worst_level, MarginLevel::Ok);
        assert!(report.machines[0].mean_residual_kelvin.abs() < 0.1);
        assert!(report.recommended_guard_kelvin < 1.0);
    }

    #[test]
    fn constant_bias_trips_the_drift_detector() {
        let mut mon = ModelHealthMonitor::new(1, HealthConfig::default());
        // 6 K constant bias against a 4.5 K threshold: the warm-up
        // mean sits at 6 K already, so the detector trips as soon as
        // it arms (sample 8), not a sample sooner.
        for _ in 1..WARMUP_SAMPLES {
            mon.observe_residual(0, 6.0);
        }
        assert!(!mon.machines[0].tripped, "armed before the warm-up ended");
        mon.observe_residual(0, 6.0);
        assert!(mon.machines[0].tripped, "armed but did not trip");
        for _ in 0..32 {
            mon.observe_residual(0, 6.0);
        }
        let report = mon.finish();
        assert!(report.drifted);
        assert!(!report.healthy());
        assert!(report.machines[0].drifted);
        assert!(report.machines[0].ewma_residual_kelvin > DRIFT_HIGH_KELVIN);
        assert!(report.machines[0].peak_abs_ewma_kelvin > DRIFT_HIGH_KELVIN);
    }

    #[test]
    fn warmup_swallows_a_transient_seed_sample() {
        let mut mon = ModelHealthMonitor::new(1, HealthConfig::default());
        // One still-transient 5 K reading, then honest noise-free
        // residuals: the warm-up mean averages the spike away and the
        // detector never trips.
        mon.observe_residual(0, 5.0);
        for _ in 0..40 {
            mon.observe_residual(0, 0.1);
        }
        let report = mon.finish();
        assert!(!report.drifted);
        let peak = report.machines[0].peak_abs_ewma_kelvin;
        assert!(
            peak < DRIFT_HIGH_KELVIN,
            "peak EWMA {peak} should stay under the trip threshold"
        );
    }

    #[test]
    fn injected_bias_reaches_the_detector() {
        let mut mon = ModelHealthMonitor::new(
            1,
            HealthConfig {
                inject_bias_kelvin: 8.0,
            },
        );
        for _ in 0..40 {
            mon.observe_residual(0, 0.0);
        }
        assert!(mon.finish().drifted);
    }

    #[test]
    fn drift_flag_rearms_below_the_low_threshold() {
        let mut mon = ModelHealthMonitor::new(1, HealthConfig::default());
        for _ in 0..10 {
            mon.observe_residual(0, 6.0);
        }
        assert!(mon.machines[0].tripped);
        // Zero residuals decay the EWMA as 6·0.95ᵏ: it falls below the
        // trip threshold after 6 samples, but the flag holds until it
        // also clears the re-arm threshold (6·0.95²⁰ ≈ 2.15 K)…
        for _ in 0..19 {
            mon.observe_residual(0, 0.0);
        }
        let state = mon.machines[0];
        assert!(state.ewma.abs() < DRIFT_HIGH_KELVIN);
        assert!(state.ewma.abs() > DRIFT_LOW_KELVIN);
        assert!(state.tripped, "re-armed above the low threshold");
        mon.observe_residual(0, 0.0);
        assert!(!mon.machines[0].tripped, "did not re-arm below it");
        for _ in 0..40 {
            mon.observe_residual(0, 0.0);
        }
        let report = mon.finish();
        // The latched verdict survives the re-arm…
        assert!(report.drifted);
        assert!(report.machines[0].drifted);
        // …but the final EWMA has decayed to healthy.
        assert!(report.machines[0].ewma_residual_kelvin.abs() < 0.75);
    }

    #[test]
    fn margin_monitor_escalates_and_records_closest_approach() {
        let mut mon = ModelHealthMonitor::new(1, HealthConfig::default());
        // Each margin is held until the smoothed signal has settled on it.
        let mut t = 0.0;
        let mut levels = Vec::new();
        for margin in [10.0, 2.0, 1.0, 0.2, 9.0] {
            levels.extend(hold(&mut mon, &mut t, margin, 200));
        }
        levels.dedup();
        // Escalation passes every level in order, and so does the
        // recovery, each step once the band above it is cleared.
        use MarginLevel::*;
        assert_eq!(levels, [Ok, Info, Warn, Critical, Warn, Info, Ok]);
        let report = mon.finish();
        assert_eq!(report.worst_level, Critical);
        assert_eq!(report.closest_margin_kelvin, 0.2);
        assert_eq!(report.closest_margin_at_seconds, 600.0);
        // The margin describes the operating point, not the model —
        // the model-health verdict stays clean without drift.
        assert!(report.healthy());
    }

    #[test]
    fn margin_smoothing_ignores_a_single_noise_spike() {
        let mut mon = ModelHealthMonitor::new(1, HealthConfig::default());
        for k in 0..50 {
            mon.observe_margin(Seconds::new(k as f64), 5.0);
        }
        // One noisy sample below the critical threshold: the smoothed
        // margin barely moves, so no escalation — but the raw closest
        // approach still records it.
        mon.observe_margin(Seconds::new(50.0), 0.1);
        let report = mon.finish();
        assert_eq!(report.worst_level, MarginLevel::Ok);
        assert_eq!(report.closest_margin_kelvin, 0.1);
        assert!(report.healthy());
    }

    #[test]
    fn margin_hysteresis_suppresses_dither() {
        let mut mon = ModelHealthMonitor::new(1, HealthConfig::default());
        let mut t = 0.0;
        assert!(hold(&mut mon, &mut t, 1.4, 200)
            .iter()
            .all(|&l| l == MarginLevel::Warn));
        // Dithering just above the warn threshold but inside the
        // hysteresis band keeps the level at warn…
        for _ in 0..200 {
            for margin in [1.6, 1.55] {
                assert_eq!(hold(&mut mon, &mut t, margin, 1), [MarginLevel::Warn]);
            }
        }
        // …and clearing the band de-escalates.
        assert_eq!(
            hold(&mut mon, &mut t, 2.9, 200).last(),
            Some(&MarginLevel::Info)
        );
        assert_eq!(mon.finish().worst_level, MarginLevel::Warn);
    }

    #[test]
    fn welford_matches_two_pass_statistics() {
        let samples = [0.4, -0.2, 0.9, 0.1, -0.5, 0.3, 0.0, 0.7];
        let mut mon = ModelHealthMonitor::new(1, HealthConfig::default());
        for &s in &samples {
            mon.observe_residual(0, s);
        }
        let report = mon.finish();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let m = &report.machines[0];
        assert!((m.mean_residual_kelvin - mean).abs() < 1e-12);
        assert!((m.std_residual_kelvin - var.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs_residual_kelvin, 0.9);
    }
}
