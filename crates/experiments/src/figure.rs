//! Figure data containers and plain-text rendering.
//!
//! Every experiment produces a [`FigureData`]: named series of `(x, y)`
//! points matching one panel of the paper. Its `Display` impl prints an
//! aligned table with one row per x value and one column per series.

use std::fmt;

/// One plotted series (one legend entry of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `Pd=90%`).
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

/// One figure panel: axes plus its series.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier matching the paper (e.g. `Fig. 3(a)`).
    pub id: String,
    /// Panel title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Creates an empty figure.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Appends a series.
    pub fn push_series(&mut self, label: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            label: label.into(),
            points,
        });
    }

    /// All distinct x values across series, ascending.
    fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        xs
    }

    /// The y value of `series` at `x`, if present.
    fn y_at(&self, series: usize, x: f64) -> Option<f64> {
        self.series
            .get(series)?
            .points
            .iter()
            .find_map(|&(px, py)| {
                if (px - x).abs() < 1e-12 {
                    Some(py)
                } else {
                    None
                }
            })
    }
}

impl fmt::Display for FigureData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        writeln!(f, "y: {}", self.y_label)?;
        // Header.
        write!(f, "{:>16}", self.x_label)?;
        for s in &self.series {
            write!(f, " {:>14}", s.label)?;
        }
        writeln!(f)?;
        // Rows.
        for x in self.x_values() {
            write!(f, "{x:>16.3}")?;
            for i in 0..self.series.len() {
                match self.y_at(i, x) {
                    Some(y) => write!(f, " {y:>14.4}")?,
                    None => write!(f, " {:>14}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> FigureData {
        let mut fig = FigureData::new("Fig. T", "test", "x", "y");
        fig.push_series("a", vec![(1.0, 10.0), (2.0, 20.0)]);
        fig.push_series("b", vec![(1.0, 11.0), (3.0, 31.0)]);
        fig
    }

    #[test]
    fn x_values_merge_and_sort() {
        assert_eq!(figure().x_values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn y_lookup() {
        let fig = figure();
        assert_eq!(fig.y_at(0, 2.0), Some(20.0));
        assert_eq!(fig.y_at(1, 2.0), None);
        assert_eq!(fig.y_at(9, 1.0), None);
    }

    #[test]
    fn render_contains_all_labels_and_rows() {
        let text = figure().to_string();
        assert!(text.contains("Fig. T"));
        assert!(text.contains('a') && text.contains('b'));
        assert!(text.contains("10.0000"));
        assert!(text.contains("31.0000"));
        assert!(text.contains('-'), "missing points render as dashes");
    }
}
