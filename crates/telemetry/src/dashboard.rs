//! Self-contained single-file HTML dashboard. Like [`crate::render`] and
//! [`crate::tracefmt`], the exporter renders plain frozen data.
//!
//! The output is one static HTML document with inline CSS and inline SVG
//! line charts — no JavaScript, no external assets, safe to archive next
//! to run reports and open from disk years later.

use std::fmt::Write as _;

/// One plotted line.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartSeries {
    /// Legend label.
    pub label: String,
    /// `(t_ms, value)` samples, ascending timestamps. Non-finite values
    /// break the line (rendered as a gap).
    pub points: Vec<(i64, f64)>,
}

/// One chart: a title, an optional unit annotation, and its lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Chart {
    /// Chart heading.
    pub title: String,
    /// Unit annotation shown next to the heading (may be empty).
    pub unit: String,
    /// The plotted lines.
    pub series: Vec<ChartSeries>,
}

/// Colorblind-safe categorical palette (Observable 10).
const PALETTE: &[&str] = &[
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951", "#ff8ab7", "#a463f2", "#97bbf5",
    "#9c6b4e", "#9498a0",
];

const SVG_W: f64 = 560.0;
const SVG_H: f64 = 240.0;
const MARGIN_L: f64 = 52.0;
const MARGIN_R: f64 = 12.0;
const MARGIN_T: f64 = 12.0;
const MARGIN_B: f64 = 24.0;

/// Renders the full document. `subtitle` is free-form context (run name,
/// series counts); charts render in order in a responsive grid.
pub fn render_dashboard(title: &str, subtitle: &str, charts: &[Chart]) -> String {
    let mut out = String::with_capacity(4096 + charts.len() * 2048);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n<title>");
    push_html(&mut out, title);
    out.push_str("</title>\n<style>\n");
    out.push_str(STYLE);
    out.push_str("</style>\n</head>\n<body>\n<header><h1>");
    push_html(&mut out, title);
    out.push_str("</h1><p>");
    push_html(&mut out, subtitle);
    out.push_str("</p></header>\n<main class=\"charts\">\n");
    if charts.is_empty() {
        out.push_str("<p class=\"empty\">No series were recorded.</p>\n");
    }
    for chart in charts {
        render_chart(&mut out, chart);
    }
    out.push_str("</main>\n</body>\n</html>\n");
    out
}

const STYLE: &str = "\
body { font: 14px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 0; \
  color: #1a1d23; background: #f7f8fa; }
header { padding: 18px 24px 6px; }
header h1 { margin: 0 0 2px; font-size: 20px; }
header p { margin: 0; color: #5c6370; }
.charts { display: grid; grid-template-columns: repeat(auto-fill, minmax(420px, 1fr)); \
  gap: 16px; padding: 16px 24px 32px; }
figure.chart { margin: 0; background: #fff; border: 1px solid #e3e6ea; border-radius: 6px; \
  padding: 10px 12px 8px; }
figure.chart figcaption { font-weight: 600; margin-bottom: 4px; }
figure.chart figcaption .unit { font-weight: 400; color: #5c6370; margin-left: 6px; }
figure.chart svg { width: 100%; height: auto; display: block; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 14px; margin-top: 4px; \
  font-size: 12px; color: #3a3f47; }
.legend .swatch { display: inline-block; width: 10px; height: 10px; border-radius: 2px; \
  margin-right: 4px; vertical-align: -1px; }
.empty, .nodata { color: #8a909a; font-style: italic; }
";

fn render_chart(out: &mut String, chart: &Chart) {
    out.push_str("<figure class=\"chart\"><figcaption>");
    push_html(out, &chart.title);
    if !chart.unit.is_empty() {
        out.push_str("<span class=\"unit\">");
        push_html(out, &chart.unit);
        out.push_str("</span>");
    }
    out.push_str("</figcaption>\n");

    // Joint extent over every finite sample of every series.
    let mut t_min = i64::MAX;
    let mut t_max = i64::MIN;
    let mut v_min = f64::INFINITY;
    let mut v_max = f64::NEG_INFINITY;
    let mut finite = 0usize;
    for s in &chart.series {
        for &(t, v) in &s.points {
            if !v.is_finite() {
                continue;
            }
            finite += 1;
            t_min = t_min.min(t);
            t_max = t_max.max(t);
            v_min = v_min.min(v);
            v_max = v_max.max(v);
        }
    }
    if finite == 0 {
        out.push_str("<p class=\"nodata\">no samples</p></figure>\n");
        return;
    }
    if v_min == v_max {
        // A flat line still needs a nonzero vertical extent.
        let pad = if v_min == 0.0 { 1.0 } else { v_min.abs() * 0.1 };
        v_min -= pad;
        v_max += pad;
    }
    let t_span = (t_max - t_min).max(1) as f64;
    let v_span = v_max - v_min;
    let plot_w = SVG_W - MARGIN_L - MARGIN_R;
    let plot_h = SVG_H - MARGIN_T - MARGIN_B;
    let x = |t: i64| MARGIN_L + (t - t_min) as f64 / t_span * plot_w;
    let y = |v: f64| MARGIN_T + (v_max - v) / v_span * plot_h;

    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {SVG_W} {SVG_H}\" role=\"img\" aria-label=\"{}\">",
        Escaped(&chart.title)
    );
    // Horizontal gridlines with value labels.
    for i in 0..=4 {
        let v = v_min + v_span * f64::from(i) / 4.0;
        let gy = y(v);
        let _ = write!(
            out,
            "<line x1=\"{MARGIN_L}\" y1=\"{gy:.1}\" x2=\"{:.1}\" y2=\"{gy:.1}\" \
             stroke=\"#edeff2\" stroke-width=\"1\"/>",
            SVG_W - MARGIN_R
        );
        let _ = write!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" font-size=\"10\" \
             fill=\"#7a818c\">{}</text>",
            MARGIN_L - 6.0,
            gy + 3.0,
            Escaped(&fmt_value(v))
        );
    }
    // Time extent labels.
    let _ = write!(
        out,
        "<text x=\"{MARGIN_L}\" y=\"{:.1}\" font-size=\"10\" fill=\"#7a818c\">{}</text>\
         <text x=\"{:.1}\" y=\"{0:.1}\" text-anchor=\"end\" font-size=\"10\" \
         fill=\"#7a818c\">{}</text>",
        SVG_H - 8.0,
        Escaped(&fmt_time(0)),
        SVG_W - MARGIN_R,
        Escaped(&fmt_time(t_max - t_min)),
    );
    // One polyline per series; non-finite samples split the path.
    for (i, s) in chart.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut path = String::new();
        let mut pen_down = false;
        let mut last_xy: Option<(f64, f64)> = None;
        for &(t, v) in &s.points {
            if !v.is_finite() {
                pen_down = false;
                continue;
            }
            let (px, py) = (x(t), y(v));
            let _ = write!(path, "{}{px:.1},{py:.1} ", if pen_down { "L" } else { "M" });
            pen_down = true;
            last_xy = Some((px, py));
        }
        let _ = write!(
            out,
            "<path d=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" \
             stroke-linejoin=\"round\"/>",
            path.trim_end()
        );
        if let Some((px, py)) = last_xy {
            let _ = write!(
                out,
                "<circle cx=\"{px:.1}\" cy=\"{py:.1}\" r=\"2.5\" fill=\"{color}\"/>"
            );
        }
    }
    out.push_str("</svg>\n<div class=\"legend\">");
    for (i, s) in chart.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let last = s
            .points
            .iter()
            .rev()
            .find(|(_, v)| v.is_finite())
            .map(|&(_, v)| fmt_value(v));
        let _ = write!(
            out,
            "<span><span class=\"swatch\" style=\"background:{color}\"></span>{}",
            Escaped(&s.label)
        );
        if let Some(last) = last {
            let _ = write!(out, " = {}", Escaped(&last));
        }
        out.push_str("</span>");
    }
    out.push_str("</div></figure>\n");
}

/// Compact value labels: adaptive precision, no exponent below a billion.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 || (a > 0.0 && a < 1e-3) {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Elapsed-time labels for the x axis (milliseconds from the chart's own
/// origin).
fn fmt_time(ms: i64) -> String {
    if ms >= 3_600_000 {
        format!("{:.1} h", ms as f64 / 3.6e6)
    } else if ms >= 60_000 {
        format!("{:.1} min", ms as f64 / 6e4)
    } else if ms >= 1_000 {
        format!("{:.1} s", ms as f64 / 1e3)
    } else {
        format!("{ms} ms")
    }
}

/// HTML text escaping (also safe inside double-quoted attributes).
fn push_html(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

/// `Display` adapter over [`push_html`] for `write!` call sites.
struct Escaped<'a>(&'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::with_capacity(self.0.len());
        push_html(&mut s, self.0);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart(points: Vec<(i64, f64)>) -> Chart {
        Chart {
            title: "Power <live>".to_string(),
            unit: "W".to_string(),
            series: vec![ChartSeries {
                label: "computing & cooling".to_string(),
                points,
            }],
        }
    }

    #[test]
    fn dashboard_is_selfcontained_html_with_svg_lines() {
        let html = render_dashboard(
            "coolopt run",
            "2 series",
            &[chart(vec![(0, 1.0), (1000, 2.0), (2000, 1.5)])],
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("<path d=\"M"));
        assert!(!html.contains("<script"), "no JS allowed");
        // Titles and labels are escaped.
        assert!(html.contains("Power &lt;live&gt;"));
        assert!(html.contains("computing &amp; cooling"));
    }

    #[test]
    fn non_finite_samples_break_the_line_instead_of_poisoning_it() {
        let html = render_dashboard(
            "t",
            "",
            &[chart(vec![(0, 1.0), (1, f64::NAN), (2, 3.0), (3, 4.0)])],
        );
        // The NaN forces a second `M` (pen lift), and never appears as a
        // coordinate.
        let path = html.split("<path d=\"").nth(1).expect("path present");
        let path = &path[..path.find('"').expect("closing quote")];
        assert_eq!(path.matches('M').count(), 2, "{path}");
        assert!(!path.contains("NaN"));
    }

    #[test]
    fn all_nan_or_empty_series_render_placeholders() {
        let html = render_dashboard("t", "", &[chart(vec![(0, f64::NAN)]), chart(Vec::new())]);
        assert_eq!(html.matches("no samples").count(), 2);
        let html = render_dashboard("t", "", &[]);
        assert!(html.contains("No series were recorded."));
    }

    #[test]
    fn flat_lines_get_padded_extent() {
        let html = render_dashboard("t", "", &[chart(vec![(0, 5.0), (10, 5.0)])]);
        assert!(html.contains("<path d=\"M"));
    }
}
