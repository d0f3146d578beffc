//! Minimal fixed-width table formatting for the experiment tables.

/// A simple left-aligned-first-column table printer.
///
/// # Example
///
/// ```
/// use nisim_bench::fmt::TableWriter;
/// let mut t = TableWriter::new(vec!["NI".into(), "8".into(), "64".into()]);
/// t.row(vec!["CM-5".into(), "2.41".into(), "5.25".into()]);
/// let s = t.render();
/// assert!(s.contains("CM-5"));
/// assert!(s.lines().count() >= 3); // header, rule, row
/// ```
#[derive(Clone, Debug)]
pub struct TableWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> TableWriter {
        TableWriter {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends one row (must have the header's column count).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = width[i]));
                } else {
                    line.push_str(&format!("  {:>w$}", c, w = width[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a normalized execution time with two decimals.
pub fn norm(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableWriter::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxxx"));
        // Numeric column right-aligned to header width.
        assert!(lines[2].ends_with("   1"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TableWriter::new(vec!["a".into()]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(norm(1.234), "1.23");
    }
}
