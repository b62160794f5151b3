//! Plain-text charts for rendering figure shapes in a terminal.
//!
//! The paper's figures are throughput/response-time curves over concurrency
//! or latency sweeps; [`Chart`] renders multiple named series as an ASCII
//! plot so `cargo run -p asyncinv-bench --bin fig07_latency` can show the
//! collapse *shape*, not just rows of numbers.

use std::fmt;

/// A named data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// (x, y) points; x values should be shared across series for a
    /// readable plot but this is not required.
    pub points: Vec<(f64, f64)>,
}

/// A multi-series ASCII chart.
///
/// ```
/// use asyncinv_metrics::Chart;
///
/// let mut c = Chart::new("throughput vs latency", 40, 10);
/// c.series("sync", vec![(0.0, 660.0), (5.0, 660.0), (10.0, 645.0)]);
/// c.series("singleT", vec![(0.0, 478.0), (5.0, 16.0), (10.0, 8.0)]);
/// let out = c.to_string();
/// assert!(out.contains("sync"));
/// assert!(out.lines().count() > 10);
/// ```
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    width: usize,
    height: usize,
    series: Vec<Series>,
}

/// Glyphs assigned to series, in order.
const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];

impl Chart {
    /// Creates an empty chart with a plotting area of `width`×`height`
    /// characters.
    ///
    /// # Panics
    ///
    /// Panics if the plot area is smaller than 2×2.
    pub fn new(title: impl Into<String>, width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "plot area too small");
        Chart {
            title: title.into(),
            width,
            height,
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push(Series {
            name: name.into(),
            points,
        });
        self
    }

    /// Number of series added.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when no series were added.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn bounds(&self) -> Option<(f64, f64, f64, f64)> {
        let mut it = self.series.iter().flat_map(|s| s.points.iter().copied());
        let (x0, y0) = it.next()?;
        let mut b = (x0, x0, y0, y0);
        for (x, y) in it {
            b.0 = b.0.min(x);
            b.1 = b.1.max(x);
            b.2 = b.2.min(y);
            b.3 = b.3.max(y);
        }
        // Always include y = 0 so magnitudes are honest.
        b.2 = b.2.min(0.0);
        Some(b)
    }
}

impl fmt::Display for Chart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let Some((xmin, xmax, ymin, ymax)) = self.bounds() else {
            return writeln!(f, "(no data)");
        };
        let xspan = if xmax > xmin { xmax - xmin } else { 1.0 };
        let yspan = if ymax > ymin { ymax - ymin } else { 1.0 };
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, s) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for &(x, y) in &s.points {
                let cx = (((x - xmin) / xspan) * (self.width - 1) as f64).round() as usize;
                let cy = (((y - ymin) / yspan) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy.min(self.height - 1);
                let col = cx.min(self.width - 1);
                // Later series overwrite earlier ones at collisions.
                grid[row][col] = glyph;
            }
        }
        let ylab_hi = format!("{ymax:.0}");
        let ylab_lo = format!("{ymin:.0}");
        let lab_w = ylab_hi.len().max(ylab_lo.len());
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                &ylab_hi
            } else if i == self.height - 1 {
                &ylab_lo
            } else {
                ""
            };
            let line: String = row.iter().collect();
            writeln!(f, "{label:>lab_w$} |{line}")?;
        }
        writeln!(f, "{:>lab_w$} +{}", "", "-".repeat(self.width))?;
        writeln!(
            f,
            "{:>lab_w$}  {:<w$}{:>w2$}",
            "",
            format!("{xmin:.0}"),
            format!("{xmax:.0}"),
            w = self.width / 2,
            w2 = self.width - self.width / 2
        )?;
        for (si, s) in self.series.iter().enumerate() {
            writeln!(f, "  {} {}", GLYPHS[si % GLYPHS.len()], s.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Chart {
        let mut c = Chart::new("t", 20, 6);
        c.series("a", vec![(0.0, 0.0), (10.0, 100.0)]);
        c.series("b", vec![(0.0, 100.0), (10.0, 0.0)]);
        c
    }

    #[test]
    fn renders_title_legend_and_axes() {
        let out = sample().to_string();
        assert!(out.starts_with("t\n"));
        assert!(out.contains("* a"));
        assert!(out.contains("o b"));
        assert!(out.contains('+'));
        assert!(out.contains("100"));
    }

    #[test]
    fn empty_chart_prints_no_data() {
        let c = Chart::new("empty", 10, 5);
        assert!(c.to_string().contains("(no data)"));
        assert!(c.is_empty());
    }

    #[test]
    fn extreme_points_land_on_borders() {
        let mut c = Chart::new("t", 11, 5);
        c.series("a", vec![(0.0, 0.0), (10.0, 50.0)]);
        let out = c.to_string();
        let plot_rows: Vec<&str> = out.lines().filter(|l| l.contains('|')).collect();
        // Max point on the top row, min on the bottom row.
        assert!(plot_rows.first().unwrap().contains('*'));
        assert!(plot_rows.last().unwrap().contains('*'));
    }

    #[test]
    fn constant_series_does_not_panic() {
        let mut c = Chart::new("flat", 10, 4);
        c.series("a", vec![(1.0, 5.0), (2.0, 5.0)]);
        let _ = c.to_string();
    }

    #[test]
    fn single_point_does_not_panic() {
        let mut c = Chart::new("dot", 10, 4);
        c.series("a", vec![(3.0, 3.0)]);
        assert!(c.to_string().contains('*'));
    }

    #[test]
    #[should_panic]
    fn tiny_plot_area_rejected() {
        let _ = Chart::new("x", 1, 1);
    }
}
