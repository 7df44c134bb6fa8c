//! Report formatting and speedup helpers shared by the experiment harness.

/// A speedup series: throughput at each node count relative to the 1-node
/// baseline.
#[derive(Clone, Debug)]
pub struct SpeedupSeries {
    /// Series label (e.g. "Poseidon", "Caffe+PS").
    pub label: String,
    /// `(nodes, speedup)` points.
    pub points: Vec<(usize, f64)>,
}

impl SpeedupSeries {
    /// Builds a series from raw throughputs; the first entry is the baseline.
    ///
    /// # Panics
    ///
    /// Panics if `throughputs` is empty or the baseline is non-positive.
    pub fn from_throughputs(label: impl Into<String>, points: &[(usize, f64)]) -> Self {
        assert!(!points.is_empty(), "empty series");
        let base = points[0].1;
        assert!(base > 0.0, "baseline throughput must be positive");
        Self {
            label: label.into(),
            points: points.iter().map(|&(n, t)| (n, t / base)).collect(),
        }
    }

    /// The speedup at `nodes`, if present.
    pub fn at(&self, nodes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(n, _)| n == nodes)
            .map(|&(_, s)| s)
    }
}

/// Renders aligned text rows: a header then one row per entry, columns padded
/// to the widest cell. Used by every table and figure the `paper` driver
/// prints, so figures print as the same kind of table the paper's plots
/// encode.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |row: &[String]| -> String {
        row.iter()
            .enumerate()
            .map(|(i, cell)| format!("{cell:>width$}", width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats a byte count as gigabits (the unit of Figure 10).
pub fn bytes_to_gbit(bytes: u64) -> f64 {
    bytes as f64 * 8.0 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_normalises_to_first_point() {
        let s = SpeedupSeries::from_throughputs("x", &[(1, 50.0), (2, 95.0), (4, 180.0)]);
        assert_eq!(s.at(1), Some(1.0));
        assert_eq!(s.at(2), Some(1.9));
        assert_eq!(s.at(4), Some(3.6));
        assert_eq!(s.at(8), None);
    }

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["nodes".into(), "speedup".into()],
            &[
                vec!["1".into(), "1.00".into()],
                vec!["32".into(), "31.50".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("nodes"));
        assert!(lines[3].trim_start().starts_with("32"));
        // Columns align: both data rows have the same length.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn gbit_conversion() {
        assert!((bytes_to_gbit(1_250_000_000) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a".into()], &[vec!["1".into(), "2".into()]]);
    }
}
