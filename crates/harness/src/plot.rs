//! ASCII renderings of the paper's figures, plus CSV export.

use tnt_runner::StatLine;
use tnt_sim::{round_u64, Series, Summary};

/// Axis scaling for the plot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XScale {
    /// Linear x axis (process counts).
    Linear,
    /// Log2 x axis (buffer and file sizes).
    Log2,
}

/// A figure: several labelled series over a common x axis.
#[derive(Clone, Debug)]
pub struct Figure {
    /// e.g. "FIGURE 1. Context Switch".
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// X axis scaling.
    pub x_scale: XScale,
    /// The curves.
    pub series: Vec<Series>,
}

const WIDTH: usize = 68;
const HEIGHT: usize = 18;

impl Figure {
    fn x_pos(&self, x: f64, xmin: f64, xmax: f64) -> usize {
        let (a, b, v) = match self.x_scale {
            XScale::Linear => (xmin, xmax, x),
            XScale::Log2 => (xmin.log2(), xmax.log2(), x.log2()),
        };
        if b <= a {
            return 0;
        }
        round_u64(((v - a) / (b - a)) * (WIDTH - 1) as f64) as usize
    }

    /// Renders the figure as an ASCII chart with one glyph per series.
    pub fn render(&self) -> String {
        let glyphs = ['*', 'o', '+', 'x', '#', '@'];
        let mut out = format!("{}\n", self.title);
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        if all.is_empty() {
            out.push_str("  (no data)\n");
            return out;
        }
        let xmin = all.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let xmax = all.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let ymax = all
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(1e-12);
        let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
        for (si, s) in self.series.iter().enumerate() {
            let g = glyphs[si % glyphs.len()];
            for &(x, y) in &s.points {
                let col = self.x_pos(x, xmin, xmax).min(WIDTH - 1);
                let row = round_u64((y / ymax) * (HEIGHT - 1) as f64) as usize;
                let row = HEIGHT - 1 - row.min(HEIGHT - 1);
                grid[row][col] = g;
            }
        }
        out.push_str(&format!("  {} (max {:.4})\n", self.y_label, ymax));
        for row in grid {
            out.push_str("  |");
            out.extend(row);
            out.push('\n');
        }
        out.push_str(&format!("  +{}\n", "-".repeat(WIDTH)));
        out.push_str(&format!(
            "   {:<30} [{} .. {}]\n",
            self.x_label,
            human(xmin),
            human(xmax)
        ));
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(&format!("   {} = {}\n", glyphs[si % glyphs.len()], s.label));
        }
        out
    }

    /// Extracts the machine-readable statistics: one [`StatLine`] per
    /// series, in legend order. `mean` is the mean y value over the
    /// curve, `sd_pct` its spread across the x sweep (how strongly the
    /// curve varies, not run-to-run noise), and `norm` the ratio of
    /// this curve's mean to the best (largest) one — a shape
    /// fingerprint for the regression gate rather than a judgement of
    /// which system wins.
    pub fn stat_lines(&self) -> Vec<StatLine> {
        let means: Vec<f64> = self
            .series
            .iter()
            .map(|s| {
                let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
                if ys.is_empty() {
                    0.0
                } else {
                    Summary::of(&ys).mean
                }
            })
            .collect();
        let best = means.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        self.series
            .iter()
            .zip(&means)
            .map(|(s, &mean)| {
                let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
                let sd_pct = if ys.is_empty() {
                    0.0
                } else {
                    Summary::of(&ys).sd_pct()
                };
                StatLine {
                    label: s.label.clone(),
                    mean,
                    sd_pct,
                    norm: mean / best,
                }
            })
            .collect()
    }

    /// Serialises all series as CSV: `x,label1,label2,...` per x value.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut out = String::from("x");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!(",{y}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

fn human(v: f64) -> String {
    if v >= 1024.0 * 1024.0 && v % (1024.0 * 1024.0) == 0.0 {
        format!("{}M", v / 1024.0 / 1024.0)
    } else if v >= 1024.0 && v % 1024.0 == 0.0 {
        format!("{}K", v / 1024.0)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        let mut a = Series::new("Linux");
        a.push(2.0, 55.0);
        a.push(64.0, 140.0);
        let mut b = Series::new("FreeBSD");
        b.push(2.0, 80.0);
        b.push(64.0, 80.0);
        Figure {
            title: "FIGURE 1. Context Switch".into(),
            x_label: "processes".into(),
            y_label: "µs/switch".into(),
            x_scale: XScale::Linear,
            series: vec![a, b],
        }
    }

    #[test]
    fn render_contains_legend_and_title() {
        let s = fig().render();
        assert!(s.contains("FIGURE 1"));
        assert!(s.contains("* = Linux"));
        assert!(s.contains("o = FreeBSD"));
        assert!(s.lines().count() > 15);
    }

    #[test]
    fn csv_round_trips_values() {
        let csv = fig().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "x,Linux,FreeBSD");
        assert_eq!(lines.next().unwrap(), "2,55,80");
        assert_eq!(lines.next().unwrap(), "64,140,80");
    }

    #[test]
    fn log_scale_positions_spread() {
        let f = Figure {
            x_scale: XScale::Log2,
            ..fig()
        };
        // 2 -> col 0; 64 -> last col.
        assert_eq!(f.x_pos(2.0, 2.0, 64.0), 0);
        assert_eq!(f.x_pos(64.0, 2.0, 64.0), WIDTH - 1);
        // Geometric midpoint lands mid-plot under log scaling.
        let mid = f.x_pos(11.3, 2.0, 64.0);
        assert!((mid as i64 - (WIDTH / 2) as i64).abs() < 3);
    }

    #[test]
    fn stat_lines_fingerprint_the_curves() {
        let stats = fig().stat_lines();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, "Linux");
        assert!((stats[0].mean - 97.5).abs() < 1e-9);
        assert!((stats[0].norm - 1.0).abs() < 1e-9, "Linux curve is best");
        assert!((stats[1].mean - 80.0).abs() < 1e-9);
        assert_eq!(stats[1].sd_pct, 0.0, "flat curve has no spread");
    }

    #[test]
    fn empty_figure_renders_gracefully() {
        let f = Figure {
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x_scale: XScale::Linear,
            series: vec![],
        };
        assert!(f.render().contains("no data"));
    }
}
