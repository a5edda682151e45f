//! The schema-stable telemetry run report.
//!
//! A run report is the machine-readable end-of-run artifact every binary
//! (`reproduce`, `ablation`, `bench_index`) can emit: one JSON document
//! bundling the global metrics snapshot with the run-level observables the
//! paper's evaluation cares about — replan counts, the computing/cooling
//! energy split per demand plateau, the propagator-cache hit rate, and the
//! worst-case guard-band margin. The schema is versioned
//! ([`RUN_REPORT_SCHEMA`]) so downstream tooling can detect drift.
//!
//! The document is serialized with `serde_json`. Each section type's
//! field order is the schema's key order; the metrics section embeds
//! [`RegistrySnapshot::to_json`](coolopt_telemetry::RegistrySnapshot::to_json)
//! verbatim as a `RawValue`.

use crate::multizone::{MultiZoneOutcome, VariantOutcome};
use crate::replay::ReplayOutcome;
use crate::runtime::TraceOutcome;
use coolopt_scenario::Scenario;
use coolopt_sim::{HealthReport, MachineHealth};
use coolopt_telemetry::{self as telemetry, RegistrySnapshot};
use serde::Serialize;
use serde_json::value::RawValue;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema tag of the run-report JSON document.
pub const RUN_REPORT_SCHEMA: &str = "coolopt-telemetry-run-v1";

/// Exports the flight recorder's drop count as the
/// `coolopt_flight_records_dropped` gauge and returns it, so report
/// builders that snapshot the registry right after carry the count in
/// both the run report and the Prometheus exposition.
pub fn export_flight_dropped() -> u64 {
    let dropped = coolopt_telemetry::flight_dropped();
    coolopt_telemetry::gauge("coolopt_flight_records_dropped").set(dropped as f64);
    dropped
}

/// Everything a run report captures about one binary invocation.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Run label (becomes part of the output file name).
    pub name: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Which scenario document the run was driven by (name + content hash
    /// of the canonical JSON), when one was involved.
    pub scenario: Option<ScenarioSection>,
    /// Always `true` (the metrics core is in every build); the field is
    /// part of the frozen `coolopt-telemetry-run-v1` schema.
    pub metrics_enabled: bool,
    /// Flight-recorder records lost to ring lap or contention — non-zero
    /// means the exported Chrome trace is incomplete.
    pub flight_dropped: u64,
    /// The frozen global registry (counters, gauges, histograms).
    pub metrics: RegistrySnapshot,
    /// Runtime replanning observables, when the run drove a load trace.
    pub trace: Option<TraceSection>,
    /// Analytic-replay observables, when the run replayed a trace.
    pub replay: Option<ReplaySection>,
    /// Model-health watchdog verdicts, when the run drove a trace.
    pub health: Option<HealthSection>,
    /// Multi-zone per-zone-vs-uniform comparison, when the run drove a
    /// multi-zone scenario.
    pub multizone: Option<MultiZoneSection>,
}

/// Provenance of the scenario document a run was driven by.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ScenarioSection {
    /// The document's `name` field.
    pub name: String,
    /// SHA-256 of the canonical compact JSON rendering.
    pub sha256: String,
}

impl ScenarioSection {
    /// Records a scenario's provenance.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        ScenarioSection {
            name: scenario.name.clone(),
            sha256: scenario.content_hash(),
        }
    }
}

/// One simulated plan of the multi-zone experiment, flattened for the
/// report.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct VariantSection {
    /// Commanded supply temperature per CRAC (°C).
    pub t_ac_celsius: Vec<f64>,
    /// The planner's predicted total power (W).
    pub predicted_total_watts: f64,
    /// Measured mean computing power (W).
    pub computing_watts: f64,
    /// Measured mean cooling power (W).
    pub cooling_watts: f64,
    /// Measured mean total power (W).
    pub total_watts: f64,
    /// Hottest true CPU temperature during the window (°C).
    pub max_cpu_celsius: f64,
    /// Smallest observed distance to `T_max` (K).
    pub min_margin_kelvin: f64,
    /// Whether the plant settled within budget.
    pub settled: bool,
}

impl VariantSection {
    /// Extracts the section from a [`VariantOutcome`].
    pub fn from_outcome(outcome: &VariantOutcome) -> Self {
        VariantSection {
            t_ac_celsius: outcome.t_ac.iter().map(|t| t.as_celsius()).collect(),
            predicted_total_watts: outcome.predicted_total.as_watts(),
            computing_watts: outcome.computing.as_watts(),
            cooling_watts: outcome.cooling.as_watts(),
            total_watts: outcome.total.as_watts(),
            max_cpu_celsius: outcome.max_cpu.as_celsius(),
            min_margin_kelvin: outcome.min_margin_kelvin,
            settled: outcome.settled,
        }
    }
}

/// Multi-zone experiment observables.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MultiZoneSection {
    /// Zone count.
    pub zones: u64,
    /// Machine count.
    pub machines: u64,
    /// Total load driven.
    pub total_load: f64,
    /// Measured savings of the per-zone plan over uniform (fraction).
    pub savings_fraction: f64,
    /// The per-zone plan's outcome.
    pub per_zone: VariantSection,
    /// The uniform baseline's outcome.
    pub uniform: VariantSection,
}

impl MultiZoneSection {
    /// Extracts the section from a [`MultiZoneOutcome`].
    pub fn from_outcome(outcome: &MultiZoneOutcome) -> Self {
        MultiZoneSection {
            zones: outcome.zones as u64,
            machines: outcome.machines as u64,
            total_load: outcome.total_load,
            savings_fraction: outcome.savings_fraction(),
            per_zone: VariantSection::from_outcome(&outcome.per_zone),
            uniform: VariantSection::from_outcome(&outcome.uniform),
        }
    }
}

/// Model-health observables of a run: the production verdict plus an
/// optional fault-injected control scenario.
#[derive(Debug, Clone, Default)]
pub struct HealthSection {
    /// The watchdog's verdict over the run's main trace.
    pub report: HealthReport,
    /// Verdict of the artificially drifted control scenario (a short
    /// re-run with a residual bias injected), demonstrating that the
    /// detector actually trips; `None` when the demo was skipped.
    pub drift_demo: Option<HealthReport>,
}

/// Run-level observables of an online replanning trace.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TraceSection {
    /// Evaluation method driven over the trace.
    pub method: String,
    /// Total electrical energy (J).
    pub energy_joules: f64,
    /// Computing (server) share of the energy (J).
    pub computing_joules: f64,
    /// Cooling (CRAC) share of the energy (J).
    pub cooling_joules: f64,
    /// Plans applied.
    pub replans: u64,
    /// Planning attempts that failed.
    pub plan_failures: u64,
    /// Worst-case distance (K) between the hottest CPU and `T_max`.
    pub min_margin_kelvin: f64,
    /// Per-plateau energy split.
    pub segments: Vec<SegmentSection>,
}

/// One demand plateau of a trace and its measured energy split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SegmentSection {
    /// Plateau start, trace-relative (s).
    pub start_seconds: f64,
    /// Total load held over the plateau.
    pub load: f64,
    /// Computing (server) energy over the plateau (J).
    pub computing_joules: f64,
    /// Cooling (CRAC) energy over the plateau (J).
    pub cooling_joules: f64,
}

impl TraceSection {
    /// Extracts the section from a [`TraceOutcome`].
    pub fn from_outcome(method: impl Into<String>, outcome: &TraceOutcome) -> Self {
        TraceSection {
            method: method.into(),
            energy_joules: outcome.energy.as_joules(),
            computing_joules: outcome.computing_energy.as_joules(),
            cooling_joules: outcome.cooling_energy.as_joules(),
            replans: outcome.replans as u64,
            plan_failures: outcome.plan_failures as u64,
            min_margin_kelvin: outcome.min_margin_kelvin,
            segments: outcome
                .segments
                .iter()
                .map(|s| SegmentSection {
                    start_seconds: s.start.as_secs_f64(),
                    load: s.load,
                    computing_joules: s.computing.as_joules(),
                    cooling_joules: s.cooling.as_joules(),
                })
                .collect(),
        }
    }
}

/// Run-level observables of an analytic replay.
#[derive(Debug, Clone, Default)]
pub struct ReplaySection {
    /// Evaluation method replayed.
    pub method: String,
    /// Total predicted energy (J).
    pub energy_joules: f64,
    /// Plans applied.
    pub replans: u64,
    /// Planning attempts that failed.
    pub plan_failures: u64,
    /// Distinct propagators built (the cache's misses).
    pub propagators_built: u64,
    /// Propagator lookups served from the cache.
    pub propagator_hits: u64,
}

impl ReplaySection {
    /// Extracts the section from a [`ReplayOutcome`].
    pub fn from_outcome(method: impl Into<String>, outcome: &ReplayOutcome) -> Self {
        ReplaySection {
            method: method.into(),
            energy_joules: outcome.energy.as_joules(),
            replans: outcome.replans as u64,
            plan_failures: outcome.plan_failures as u64,
            propagators_built: outcome.propagators_built as u64,
            propagator_hits: outcome.propagator_hits,
        }
    }

    /// Fraction of propagator lookups served from the cache; `None` before
    /// the first lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.propagator_hits + self.propagators_built;
        (total > 0).then(|| self.propagator_hits as f64 / total as f64)
    }
}

/// [`RunReport`] as its JSON document, in the schema's key order. The
/// fields whose values the schema derives have their own types.
#[derive(Serialize)]
struct ReportDoc {
    schema: &'static str,
    name: String,
    seed: u64,
    scenario: Option<ScenarioSection>,
    metrics_enabled: bool,
    flight_dropped: u64,
    metrics: Box<RawValue>,
    trace: Option<TraceSection>,
    replay: Option<ReplayDoc>,
    health: Option<HealthSectionDoc>,
    multizone: Option<MultiZoneSection>,
}

/// A [`ReplaySection`] followed by its cache hit rate.
#[derive(Serialize)]
struct ReplayDoc {
    method: String,
    energy_joules: f64,
    replans: u64,
    plan_failures: u64,
    propagators_built: u64,
    propagator_hits: u64,
    cache_hit_rate: Option<f64>,
}

#[derive(Serialize)]
struct HealthSectionDoc {
    report: HealthDoc,
    drift_demo: Option<HealthDoc>,
}

/// A [`HealthReport`] in the schema's key order, with its `healthy`
/// verdict and its lowercase `worst_level`.
#[derive(Serialize)]
struct HealthDoc {
    samples: u64,
    drifted: bool,
    healthy: bool,
    worst_level: &'static str,
    closest_margin_kelvin: f64,
    closest_margin_at_seconds: f64,
    recommended_guard_kelvin: f64,
    machines: Vec<MachineHealth>,
}

impl HealthDoc {
    fn new(report: &HealthReport) -> Self {
        HealthDoc {
            samples: report.samples,
            drifted: report.drifted,
            healthy: report.healthy(),
            worst_level: report.worst_level.as_str(),
            closest_margin_kelvin: report.closest_margin_kelvin,
            closest_margin_at_seconds: report.closest_margin_at_seconds,
            recommended_guard_kelvin: report.recommended_guard_kelvin,
            machines: report.machines.clone(),
        }
    }
}

impl RunReport {
    /// Renders the report as its schema-stable JSON document.
    pub fn to_json(&self) -> String {
        let doc = ReportDoc {
            schema: RUN_REPORT_SCHEMA,
            name: self.name.clone(),
            seed: self.seed,
            scenario: self.scenario.clone(),
            metrics_enabled: self.metrics_enabled,
            flight_dropped: self.flight_dropped,
            metrics: RawValue::from_string(self.metrics.to_json())
                .expect("the metrics snapshot renders one JSON document"),
            trace: self.trace.clone(),
            replay: self.replay.as_ref().map(|r| ReplayDoc {
                method: r.method.clone(),
                energy_joules: r.energy_joules,
                replans: r.replans,
                plan_failures: r.plan_failures,
                propagators_built: r.propagators_built,
                propagator_hits: r.propagator_hits,
                cache_hit_rate: r.cache_hit_rate(),
            }),
            health: self.health.as_ref().map(|h| HealthSectionDoc {
                report: HealthDoc::new(&h.report),
                drift_demo: h.drift_demo.as_ref().map(HealthDoc::new),
            }),
            multizone: self.multizone.clone(),
        };
        serde_json::to_string(&doc).expect("run reports always encode")
    }

    /// Writes the report as `DIR/telemetry_<name>.json`, creating `DIR` if
    /// needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, full disk, …).
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("telemetry_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Renders the human-readable end-of-run summary: the run-level
    /// observables followed by the metrics table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== telemetry: {} (seed {}) ===", self.name, self.seed);
        if let Some(s) = &self.scenario {
            let _ = writeln!(out, "scenario: {} (sha256 {})", s.name, s.sha256);
        }
        if let Some(m) = &self.multizone {
            let _ = writeln!(
                out,
                "multizone: {} zones, {} machines at load {:.1}: per-zone {:.1} W vs \
                 uniform {:.1} W ({:.2} % saved), min margin {:.2} K",
                m.zones,
                m.machines,
                m.total_load,
                m.per_zone.total_watts,
                m.uniform.total_watts,
                m.savings_fraction * 100.0,
                m.per_zone.min_margin_kelvin,
            );
        }
        if let Some(t) = &self.trace {
            let _ = writeln!(
                out,
                "trace [{}]: energy {:.1} kJ (computing {:.1} kJ, cooling {:.1} kJ), \
                 {} replans ({} failed), min margin {:.2} K",
                t.method,
                t.energy_joules / 1e3,
                t.computing_joules / 1e3,
                t.cooling_joules / 1e3,
                t.replans,
                t.plan_failures,
                t.min_margin_kelvin,
            );
        }
        if let Some(r) = &self.replay {
            let hit_rate = r
                .cache_hit_rate()
                .map_or("n/a".to_string(), |h| format!("{:.1} %", h * 100.0));
            let _ = writeln!(
                out,
                "replay [{}]: energy {:.1} kJ, {} replans ({} failed), \
                 {} propagators built, cache hit rate {}",
                r.method,
                r.energy_joules / 1e3,
                r.replans,
                r.plan_failures,
                r.propagators_built,
                hit_rate,
            );
        }
        if let Some(h) = &self.health {
            let r = &h.report;
            let margin = if r.closest_margin_kelvin.is_finite() {
                format!(
                    "{:.2} K @ {:.0} s",
                    r.closest_margin_kelvin, r.closest_margin_at_seconds
                )
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "health: {} ({} residual samples, {} machines), drift {}, \
                 closest T_max margin {margin} (worst level {}), recommended guard {:.2} K",
                if r.healthy() { "healthy" } else { "UNHEALTHY" },
                r.samples,
                r.machines.len(),
                if r.drifted { "DETECTED" } else { "none" },
                r.worst_level.as_str(),
                r.recommended_guard_kelvin,
            );
            if let Some(demo) = &h.drift_demo {
                let _ = writeln!(
                    out,
                    "health drift demo: injected bias {} the detector \
                     ({} samples, final worst level {})",
                    if demo.drifted {
                        "TRIPPED"
                    } else {
                        "DID NOT TRIP"
                    },
                    demo.samples,
                    demo.worst_level.as_str(),
                );
            }
        }
        out.push_str(&self.metrics.render_table());
        out
    }
}

/// Writes the run report (`DIR/telemetry_<name>.json`) and the flight
/// recorder's Chrome trace (`DIR/trace_<name>.json`), logging both paths
/// under the event target `source`, then prints the stdout document: the
/// report's JSON under `json`, else its table unless events are quiet.
///
/// # Panics
///
/// Panics if `results_dir` is not writable.
pub fn emit_report(report: &RunReport, results_dir: &Path, json: bool, source: &str) {
    let path = report
        .write_to(results_dir)
        .expect("results dir is writable");
    telemetry::info!(
        source,
        "wrote run report",
        path = path.display().to_string()
    );
    let trace_path = results_dir.join(format!("trace_{}.json", report.name));
    std::fs::write(&trace_path, telemetry::flight_snapshot().to_chrome_json())
        .expect("results dir is writable");
    telemetry::info!(
        source,
        "wrote chrome trace",
        path = trace_path.display().to_string()
    );
    if json {
        println!("{}", report.to_json());
    } else if !telemetry::events_quiet() {
        println!("{}", report.render_table());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            name: "unit".to_string(),
            seed: 7,
            scenario: Some(ScenarioSection {
                name: "two_zone_hetero".to_string(),
                sha256: "ab".repeat(32),
            }),
            multizone: Some(MultiZoneSection {
                zones: 2,
                machines: 14,
                total_load: 7.0,
                savings_fraction: 0.05,
                per_zone: VariantSection {
                    t_ac_celsius: vec![18.0, 14.5],
                    predicted_total_watts: 900.0,
                    computing_watts: 700.0,
                    cooling_watts: 250.0,
                    total_watts: 950.0,
                    max_cpu_celsius: 55.0,
                    min_margin_kelvin: 5.0,
                    settled: true,
                },
                uniform: VariantSection {
                    t_ac_celsius: vec![16.0, 16.0],
                    total_watts: 1000.0,
                    ..VariantSection::default()
                },
            }),
            metrics_enabled: coolopt_telemetry::metrics_enabled(),
            flight_dropped: 3,
            metrics: RegistrySnapshot::default(),
            trace: Some(TraceSection {
                method: "#8".to_string(),
                energy_joules: 1000.0,
                computing_joules: 800.0,
                cooling_joules: 200.0,
                replans: 3,
                plan_failures: 0,
                min_margin_kelvin: 4.5,
                segments: vec![
                    SegmentSection {
                        start_seconds: 0.0,
                        load: 2.0,
                        computing_joules: 500.0,
                        cooling_joules: 120.0,
                    },
                    SegmentSection {
                        start_seconds: 600.0,
                        load: 4.0,
                        computing_joules: 300.0,
                        cooling_joules: 80.0,
                    },
                ],
            }),
            replay: Some(ReplaySection {
                method: "#8".to_string(),
                energy_joules: 990.0,
                replans: 3,
                plan_failures: 0,
                propagators_built: 2,
                propagator_hits: 18,
            }),
            health: Some(HealthSection {
                report: HealthReport {
                    samples: 40,
                    machines: vec![coolopt_sim::MachineHealth {
                        machine: 0,
                        samples: 40,
                        mean_residual_kelvin: 0.2,
                        std_residual_kelvin: 0.1,
                        ewma_residual_kelvin: 0.25,
                        peak_abs_ewma_kelvin: 0.3,
                        max_abs_residual_kelvin: 0.6,
                        drifted: false,
                    }],
                    drifted: false,
                    closest_margin_kelvin: 4.5,
                    closest_margin_at_seconds: 120.0,
                    worst_level: coolopt_sim::MarginLevel::Ok,
                    recommended_guard_kelvin: 0.4,
                },
                drift_demo: Some(HealthReport {
                    samples: 20,
                    drifted: true,
                    ..HealthReport::default()
                }),
            }),
        }
    }

    #[test]
    fn json_document_is_schema_stable() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"schema\":\"coolopt-telemetry-run-v1\""));
        assert!(json.contains("\"name\":\"unit\""));
        assert!(json.contains("\"seed\":7"));
        assert!(json.contains("\"metrics\":{\"schema\":\"coolopt-telemetry-v1\""));
        assert!(json.contains("\"replans\":3"));
        assert!(json.contains("\"computing_joules\":800.0"));
        assert!(json.contains("\"segments\":[{\"start_seconds\":0.0"));
        assert!(json.contains("\"propagators_built\":2"));
        assert!(json.contains("\"cache_hit_rate\":0.9"));
        assert!(json.contains("\"health\":{\"report\":{\"samples\":40"));
        assert!(json.contains("\"worst_level\":\"ok\""));
        assert!(json.contains("\"recommended_guard_kelvin\":0.4"));
        assert!(json.contains("\"drift_demo\":{\"samples\":20,\"drifted\":true"));
        assert!(json.contains("\"scenario\":{\"name\":\"two_zone_hetero\",\"sha256\":\"ab"));
        assert!(json.contains("\"multizone\":{\"zones\":2,\"machines\":14"));
        assert!(json.contains("\"per_zone\":{\"t_ac_celsius\":[18.0,14.5]"));
        assert!(json.contains("\"savings_fraction\":0.05"));
        assert!(json.contains("\"uniform\":{\"t_ac_celsius\":[16.0,16.0]"));
    }

    #[test]
    fn scenario_and_multizone_sections_default_to_null() {
        let report = RunReport::default();
        let json = report.to_json();
        assert!(json.contains("\"scenario\":null"));
        assert!(json.contains("\"multizone\":null"));
        assert!(!report.render_table().contains("scenario:"));
    }

    #[test]
    fn table_summarizes_scenario_and_multizone() {
        let table = sample().render_table();
        assert!(
            table.contains("scenario: two_zone_hetero (sha256 ab"),
            "{table}"
        );
        assert!(table.contains("multizone: 2 zones, 14 machines"), "{table}");
        assert!(table.contains("5.00 % saved"), "{table}");
    }

    #[test]
    fn health_section_renders_verdicts() {
        let table = sample().render_table();
        assert!(table.contains("health: healthy"), "{table}");
        assert!(table.contains("drift none"), "{table}");
        assert!(
            table.contains("drift demo: injected bias TRIPPED"),
            "{table}"
        );
        let mut report = sample();
        report.health = None;
        assert!(!report.render_table().contains("health:"));
        assert!(report.to_json().contains("\"health\":null"));
    }

    #[test]
    fn empty_sections_render_null() {
        let report = RunReport {
            name: "empty".to_string(),
            ..RunReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"trace\":null"));
        assert!(json.contains("\"replay\":null"));
    }

    #[test]
    fn non_finite_margin_is_null() {
        let mut report = sample();
        report.trace.as_mut().unwrap().min_margin_kelvin = f64::INFINITY;
        assert!(report.to_json().contains("\"min_margin_kelvin\":null"));
    }

    #[test]
    fn hit_rate_is_none_without_lookups() {
        let section = ReplaySection::default();
        assert_eq!(section.cache_hit_rate(), None);
        assert!(sample().replay.unwrap().cache_hit_rate().unwrap() > 0.89);
    }

    #[test]
    fn table_mentions_every_section() {
        let table = sample().render_table();
        assert!(table.contains("telemetry: unit"));
        assert!(table.contains("trace [#8]"));
        assert!(table.contains("replay [#8]"));
    }

    #[test]
    fn report_writes_to_disk() {
        let dir = std::env::temp_dir().join("coolopt_run_report_test");
        let path = sample().write_to(&dir).expect("temp dir is writable");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("coolopt-telemetry-run-v1"));
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir(dir);
    }

    /// `sample().to_json()`, byte for byte.
    const SAMPLE_JSON: &str = concat!(
        r##"{"schema":"coolopt-telemetry-run-v1","name":"unit","seed":7,"##,
        r##""scenario":{"name":"two_zone_hetero","sha256":"abababababababababababababababababababababababababababababababab"},"##,
        r##""metrics_enabled":true,"flight_dropped":3,"##,
        r##""metrics":{"schema":"coolopt-telemetry-v1","counters":{},"gauges":{},"histograms":{}},"##,
        r##""trace":{"method":"#8","energy_joules":1000.0,"computing_joules":800.0,"cooling_joules":200.0,"##,
        r##""replans":3,"plan_failures":0,"min_margin_kelvin":4.5,"segments":["##,
        r##"{"start_seconds":0.0,"load":2.0,"computing_joules":500.0,"cooling_joules":120.0},"##,
        r##"{"start_seconds":600.0,"load":4.0,"computing_joules":300.0,"cooling_joules":80.0}]},"##,
        r##""replay":{"method":"#8","energy_joules":990.0,"replans":3,"plan_failures":0,"##,
        r##""propagators_built":2,"propagator_hits":18,"cache_hit_rate":0.9},"##,
        r##""health":{"report":{"samples":40,"drifted":false,"healthy":true,"worst_level":"ok","##,
        r##""closest_margin_kelvin":4.5,"closest_margin_at_seconds":120.0,"recommended_guard_kelvin":0.4,"##,
        r##""machines":[{"machine":0,"samples":40,"mean_residual_kelvin":0.2,"std_residual_kelvin":0.1,"##,
        r##""ewma_residual_kelvin":0.25,"peak_abs_ewma_kelvin":0.3,"max_abs_residual_kelvin":0.6,"drifted":false}]},"##,
        r##""drift_demo":{"samples":20,"drifted":true,"healthy":false,"worst_level":"ok","##,
        r##""closest_margin_kelvin":null,"closest_margin_at_seconds":0.0,"recommended_guard_kelvin":0.0,"machines":[]}},"##,
        r##""multizone":{"zones":2,"machines":14,"total_load":7.0,"savings_fraction":0.05,"##,
        r##""per_zone":{"t_ac_celsius":[18.0,14.5],"predicted_total_watts":900.0,"computing_watts":700.0,"##,
        r##""cooling_watts":250.0,"total_watts":950.0,"max_cpu_celsius":55.0,"min_margin_kelvin":5.0,"settled":true},"##,
        r##""uniform":{"t_ac_celsius":[16.0,16.0],"predicted_total_watts":0.0,"computing_watts":0.0,"##,
        r##""cooling_watts":0.0,"total_watts":1000.0,"max_cpu_celsius":0.0,"min_margin_kelvin":0.0,"settled":false}}}"##,
    );

    #[test]
    fn sample_document_bytes_are_pinned() {
        assert_eq!(sample().to_json(), SAMPLE_JSON);
    }

    #[test]
    fn default_document_bytes_are_pinned() {
        assert_eq!(
            RunReport::default().to_json(),
            concat!(
                r#"{"schema":"coolopt-telemetry-run-v1","name":"","seed":0,"scenario":null,"#,
                r#""metrics_enabled":false,"flight_dropped":0,"#,
                r#""metrics":{"schema":"coolopt-telemetry-v1","counters":{},"gauges":{},"histograms":{}},"#,
                r#""trace":null,"replay":null,"health":null,"multizone":null}"#,
            )
        );
    }

    #[test]
    fn names_escape_quotes_backslashes_and_control_characters() {
        let mut report = sample();
        report.name = "u\"n\\i\nt\u{1}é".to_string();
        let expected = SAMPLE_JSON.replacen(r#""name":"unit""#, r#""name":"u\"n\\i\nt\u0001é""#, 1);
        assert_eq!(report.to_json(), expected);
    }
}
