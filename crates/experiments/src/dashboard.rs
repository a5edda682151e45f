//! Self-contained HTML energy dashboards for experiment runs.
//!
//! Charts are assembled from two sources: the run outcome itself (the
//! per-plateau computing/cooling energy split) and the process-global [time-series store](coolopt_telemetry::tsdb)
//! (power and `T_max`-margin series streamed by
//! [`RuntimeOptions::tsdb_prefix`](crate::runtime::RuntimeOptions::tsdb_prefix)
//! and
//! [`MultiZoneOptions::tsdb_prefix`](crate::multizone::MultiZoneOptions::tsdb_prefix);
//! a prefix nothing streamed renders as explicit placeholders rather than
//! missing charts). The rendered file is one
//! dependency-free HTML document with inline SVG and no scripts; see
//! [`coolopt_telemetry::render_dashboard`].

use crate::runtime::SegmentEnergy;
use coolopt_telemetry::{self as telemetry, Chart, ChartSeries, RangeQuery};
use std::path::{Path, PathBuf};

/// The per-plateau "Computing vs cooling energy" chart, from a trace
/// outcome's segment split. The x axis is plateau start time; one line per
/// energy share.
pub fn energy_chart(segments: &[SegmentEnergy]) -> Chart {
    let points = |f: fn(&SegmentEnergy) -> f64| -> Vec<(i64, f64)> {
        segments
            .iter()
            .map(|s| ((s.start.as_secs_f64() * 1000.0) as i64, f(s)))
            .collect()
    };
    Chart {
        title: "Computing vs cooling energy".to_string(),
        unit: "kWh per plateau".to_string(),
        series: vec![
            ChartSeries {
                label: "computing".to_string(),
                points: points(|s| s.computing.as_kwh()),
            },
            ChartSeries {
                label: "cooling".to_string(),
                points: points(|s| s.cooling.as_kwh()),
            },
        ],
    }
}

/// The plant charts for every store series under `prefix`: one power chart
/// (all `*_watts` series — computing vs cooling, per-zone where recorded)
/// and one "T_max margin" chart. Both charts are always present; before
/// any run streamed samples they render as placeholders.
pub fn plant_charts(prefix: &str) -> Vec<Chart> {
    let results = telemetry::tsdb().query_matching(&format!("{prefix}.*"), &RangeQuery::default());
    let mut power: Vec<ChartSeries> = Vec::new();
    let mut margin: Vec<ChartSeries> = Vec::new();
    for result in results {
        let label = result
            .name
            .strip_prefix(prefix)
            .unwrap_or(&result.name)
            .trim_start_matches('.')
            .to_string();
        let series = ChartSeries {
            label,
            points: result.points,
        };
        if result.name.ends_with("margin_kelvin") {
            margin.push(series);
        } else if result.name.ends_with("_watts") {
            power.push(series);
        }
    }
    vec![
        Chart {
            title: "Computing vs cooling power".to_string(),
            unit: "W".to_string(),
            series: power,
        },
        Chart {
            title: "T_max margin".to_string(),
            unit: "K".to_string(),
            series: margin,
        },
    ]
}

/// Renders `charts` and writes `dashboard_<name>.html` under `dir`,
/// creating the directory as needed. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_dashboard(
    dir: &Path,
    name: &str,
    title: &str,
    subtitle: &str,
    charts: &[Chart],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("dashboard_{name}.html"));
    std::fs::write(&path, telemetry::render_dashboard(title, subtitle, charts))?;
    Ok(path)
}

/// Writes the dashboard `DIR/dashboard_<name>.html` (titled
/// `coolopt <name>`) and logs its path under the event target `source`.
///
/// # Panics
///
/// Panics if `results_dir` is not writable.
pub fn emit_dashboard(
    name: &str,
    results_dir: &Path,
    subtitle: &str,
    charts: Vec<Chart>,
    source: &str,
) {
    let path = write_dashboard(
        results_dir,
        name,
        &format!("coolopt {name}"),
        subtitle,
        &charts,
    )
    .expect("results dir is writable");
    telemetry::info!(
        source,
        "wrote energy dashboard",
        path = path.display().to_string()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolopt_units::{Joules, Seconds};

    fn segment(start: f64, computing: f64, cooling: f64) -> SegmentEnergy {
        SegmentEnergy {
            start: Seconds::new(start),
            load: 1.0,
            computing: Joules::new(computing),
            cooling: Joules::new(cooling),
        }
    }

    #[test]
    fn energy_chart_splits_computing_and_cooling() {
        let chart = energy_chart(&[segment(0.0, 3.6e6, 1.8e6), segment(600.0, 7.2e6, 3.6e6)]);
        assert_eq!(chart.title, "Computing vs cooling energy");
        assert_eq!(chart.series.len(), 2);
        assert_eq!(chart.series[0].label, "computing");
        assert_eq!(chart.series[0].points, vec![(0, 1.0), (600_000, 2.0)]);
        assert_eq!(chart.series[1].points, vec![(0, 0.5), (600_000, 1.0)]);
    }

    #[test]
    fn plant_charts_always_carry_power_and_margin() {
        // Unique prefix: the store is process-global and shared with other
        // tests.
        let charts = plant_charts("dash_test_nothing_recorded");
        assert_eq!(charts.len(), 2);
        assert_eq!(charts[0].title, "Computing vs cooling power");
        assert_eq!(charts[1].title, "T_max margin");
        assert!(charts.iter().all(|c| c.series.is_empty()));

        let db = telemetry::tsdb();
        for i in 0..10i64 {
            db.append("dash_test_plant.computing_watts", i * 1000, 100.0);
            db.append("dash_test_plant.cooling_watts", i * 1000, 40.0);
            db.append("dash_test_plant.margin_kelvin", i * 1000, 5.0);
        }
        let charts = plant_charts("dash_test_plant");
        assert_eq!(charts[0].series.len(), 2, "both power series plotted");
        assert_eq!(charts[1].series.len(), 1);
        assert_eq!(charts[1].series[0].label, "margin_kelvin");
        assert_eq!(charts[1].series[0].points.len(), 10);
    }

    #[test]
    fn write_dashboard_lands_the_named_artifact() {
        let dir = std::env::temp_dir().join("coolopt_dash_test");
        let chart = energy_chart(&[segment(0.0, 3.6e6, 1.8e6)]);
        let path = write_dashboard(&dir, "unit", "Unit run", "one plateau", &[chart]).unwrap();
        assert!(path.ends_with("dashboard_unit.html"));
        let html = std::fs::read_to_string(&path).unwrap();
        assert!(html.contains("Computing vs cooling energy"));
        assert!(html.contains("<svg"));
        assert!(!html.contains("<script"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
