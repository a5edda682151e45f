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
//!   hysteresis: the drift flag trips when `|e|` exceeds
//!   [`HealthConfig::drift_high_kelvin`] and re-arms only below
//!   [`HealthConfig::drift_low_kelvin`] (a latched `drifted` verdict
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

/// Watchdog tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// EWMA smoothing factor λ ∈ (0, 1] for the drift detector (larger
    /// reacts faster; 0.05 needs ≈ 14 samples of constant bias to trip a
    /// threshold at half the bias).
    pub ewma_lambda: f64,
    /// Drift trips when the |EWMA residual| exceeds this (K). The
    /// default sits above the fitted Eq. 8 model's worst settled EWMA
    /// excursion on the stock presets (≈3.8 K at the 20-machine preset's
    /// peak-load plateaus): drift means leaving the fit's in-family
    /// envelope, not the fit error itself — the static component of that
    /// error is what [`HealthReport::recommended_guard_kelvin`] covers.
    pub drift_high_kelvin: f64,
    /// A tripped drift flag re-arms only below this (K); must be ≤ the
    /// high threshold.
    pub drift_low_kelvin: f64,
    /// Residual samples a machine must accumulate before its drift
    /// detector arms. The EWMA is seeded with the first sample, so a
    /// single noisy or still-transient reading would otherwise trip the
    /// detector immediately; the warm-up lets the EWMA average over the
    /// seed before verdicts count.
    pub warmup_samples: u64,
    /// Ignore residual samples within this long after a plan application
    /// (the plant is in transient; Eq. 8 predicts steady state only).
    pub settle: Seconds,
    /// EWMA smoothing factor for the margin signal the level decisions
    /// act on. Instantaneous CPU readings carry ~±0.4 K process noise, so
    /// levelling on the raw margin would alarm on single-sample spikes;
    /// the paper low-pass-filters its sensor streams the same way. `1.0`
    /// disables smoothing (level on the raw sample). The *raw* closest
    /// approach is still what the report records.
    pub margin_lambda: f64,
    /// Margin (K) below which the monitor reports `Info`.
    pub margin_info_kelvin: f64,
    /// Margin (K) below which the monitor reports `Warn`.
    pub margin_warn_kelvin: f64,
    /// Margin (K) below which the monitor reports `Critical`.
    pub margin_critical_kelvin: f64,
    /// Hysteresis band (K) a margin must clear above a threshold before
    /// the level de-escalates.
    pub margin_hysteresis_kelvin: f64,
    /// Artificial bias (K) added to every residual sample — fault
    /// injection for drift-detection tests and the drifted demo scenario.
    /// Zero in production.
    pub inject_bias_kelvin: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            ewma_lambda: 0.05,
            drift_high_kelvin: 4.5,
            drift_low_kelvin: 2.25,
            warmup_samples: 8,
            settle: Seconds::new(300.0),
            margin_lambda: 0.05,
            margin_info_kelvin: 3.0,
            margin_warn_kelvin: 1.5,
            margin_critical_kelvin: 0.25,
            margin_hysteresis_kelvin: 0.25,
            inject_bias_kelvin: 0.0,
        }
    }
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

    fn observe(&mut self, r: f64, cfg: &HealthConfig) {
        self.count += 1;
        let delta = r - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (r - self.mean);
        // During warm-up the "EWMA" is the running mean — a single
        // still-transient seed sample is averaged down instead of
        // dominating geometrically for ~1/λ samples afterwards.
        self.ewma = if self.count <= cfg.warmup_samples.max(1) {
            self.mean
        } else {
            (1.0 - cfg.ewma_lambda) * self.ewma + cfg.ewma_lambda * r
        };
        self.max_abs = self.max_abs.max(r.abs());
        // The detector arms only after the warm-up: the seed sample
        // (and the averaging-down that follows) is not a verdict.
        if self.count < cfg.warmup_samples {
            return;
        }
        self.peak_abs_ewma = self.peak_abs_ewma.max(self.ewma.abs());
        if self.tripped {
            if self.ewma.abs() < cfg.drift_low_kelvin {
                self.tripped = false;
            }
        } else if self.ewma.abs() > cfg.drift_high_kelvin {
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
        assert!(
            cfg.ewma_lambda > 0.0 && cfg.ewma_lambda <= 1.0,
            "ewma_lambda must be in (0, 1], got {}",
            cfg.ewma_lambda
        );
        assert!(
            cfg.drift_low_kelvin <= cfg.drift_high_kelvin,
            "drift re-arm threshold must not exceed the trip threshold"
        );
        assert!(
            cfg.margin_lambda > 0.0 && cfg.margin_lambda <= 1.0,
            "margin_lambda must be in (0, 1], got {}",
            cfg.margin_lambda
        );
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

    /// The settle window residual samples must respect (callers skip
    /// samples taken sooner than this after a plan application).
    pub fn settle(&self) -> Seconds {
        self.cfg.settle
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
        state.observe(r, &self.cfg);
        self.samples += 1;
        if state.tripped && !was_tripped {
            self.any_drift_event = true;
            telemetry::warn!(
                "health",
                "model drift detected: residual EWMA over threshold",
                machine = machine,
                ewma_kelvin = state.ewma,
                threshold_kelvin = self.cfg.drift_high_kelvin,
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
        let cfg = &self.cfg;
        // Levels act on the low-pass-filtered margin so single-sample
        // noise spikes don't alarm; the raw sample above still drives
        // the closest-approach record.
        let smoothed = match self.margin_ewma {
            None => margin_kelvin,
            Some(e) => (1.0 - cfg.margin_lambda) * e + cfg.margin_lambda * margin_kelvin,
        };
        self.margin_ewma = Some(smoothed);
        let escalate_to = if smoothed < cfg.margin_critical_kelvin {
            MarginLevel::Critical
        } else if smoothed < cfg.margin_warn_kelvin {
            MarginLevel::Warn
        } else if smoothed < cfg.margin_info_kelvin {
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
                MarginLevel::Critical => cfg.margin_critical_kelvin,
                MarginLevel::Warn => cfg.margin_warn_kelvin,
                MarginLevel::Info => cfg.margin_info_kelvin,
                MarginLevel::Ok => f64::NEG_INFINITY,
            };
            if smoothed > release + cfg.margin_hysteresis_kelvin {
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

    #[test]
    fn margin_levels_order_by_severity() {
        assert!(MarginLevel::Ok < MarginLevel::Info);
        assert!(MarginLevel::Info < MarginLevel::Warn);
        assert!(MarginLevel::Warn < MarginLevel::Critical);
        assert_eq!(MarginLevel::Critical.as_str(), "critical");
    }

    #[test]
    fn config_defaults_are_consistent() {
        let cfg = HealthConfig::default();
        assert!(cfg.drift_low_kelvin <= cfg.drift_high_kelvin);
        assert!(cfg.margin_critical_kelvin < cfg.margin_warn_kelvin);
        assert!(cfg.margin_warn_kelvin < cfg.margin_info_kelvin);
        assert_eq!(cfg.inject_bias_kelvin, 0.0);
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
        let cfg = HealthConfig::default();
        let mut mon = ModelHealthMonitor::new(1, cfg);
        // 6 K constant bias against a 4.5 K threshold: the warm-up
        // mean sits at 6 K already, so the detector trips as soon as
        // it arms (sample 8).
        for _ in 0..40 {
            mon.observe_residual(0, 6.0);
        }
        let report = mon.finish();
        assert!(report.drifted);
        assert!(!report.healthy());
        assert!(report.machines[0].drifted);
        assert!(report.machines[0].ewma_residual_kelvin > cfg.drift_high_kelvin);
        assert!(report.machines[0].peak_abs_ewma_kelvin > cfg.drift_high_kelvin);
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
            peak < HealthConfig::default().drift_high_kelvin,
            "peak EWMA {peak} should stay under the trip threshold"
        );
    }

    #[test]
    fn injected_bias_reaches_the_detector() {
        let cfg = HealthConfig {
            inject_bias_kelvin: 8.0,
            ..HealthConfig::default()
        };
        let mut mon = ModelHealthMonitor::new(1, cfg);
        for _ in 0..40 {
            mon.observe_residual(0, 0.0);
        }
        assert!(mon.finish().drifted);
    }

    #[test]
    fn drift_flag_rearms_below_the_low_threshold() {
        let cfg = HealthConfig {
            ewma_lambda: 0.5,
            ..HealthConfig::default()
        };
        let mut mon = ModelHealthMonitor::new(1, cfg);
        for _ in 0..10 {
            mon.observe_residual(0, 6.0);
        }
        for _ in 0..20 {
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
        // margin_lambda 1.0 levels on the raw samples, isolating the
        // escalation state machine from the smoothing.
        let mut mon = ModelHealthMonitor::new(
            1,
            HealthConfig {
                margin_lambda: 1.0,
                ..HealthConfig::default()
            },
        );
        mon.observe_margin(Seconds::new(0.0), 10.0);
        mon.observe_margin(Seconds::new(1.0), 2.0); // info
        mon.observe_margin(Seconds::new(2.0), 1.0); // warn
        mon.observe_margin(Seconds::new(3.0), 0.2); // critical
        mon.observe_margin(Seconds::new(4.0), 9.0); // recovers
        let report = mon.finish();
        assert_eq!(report.worst_level, MarginLevel::Critical);
        assert_eq!(report.closest_margin_kelvin, 0.2);
        assert_eq!(report.closest_margin_at_seconds, 3.0);
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
        let cfg = HealthConfig {
            margin_lambda: 1.0,
            ..HealthConfig::default()
        };
        let mut mon = ModelHealthMonitor::new(1, cfg);
        mon.observe_margin(Seconds::new(0.0), 1.4); // warn
                                                    // Dithering just above the warn threshold but inside the
                                                    // hysteresis band keeps the level at warn…
        mon.observe_margin(Seconds::new(1.0), 1.6);
        mon.observe_margin(Seconds::new(2.0), 1.55);
        // …and clearing the band de-escalates.
        mon.observe_margin(Seconds::new(3.0), 2.9);
        let report = mon.finish();
        assert_eq!(report.worst_level, MarginLevel::Warn);
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
