//! Plain-text result tables.
//!
//! Every experiment produces a [`Table`] that the `reproduce` binary prints;
//! `tests/experiment_shapes.rs` names, per table, the test that holds its
//! shape to the paper's.

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. `"Table 3: Filebench micro-benchmarks (seconds)"`).
    pub title: String,
    /// Column headers; the first column is the row label.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let width = widths.get(i).copied().unwrap_or(cell.len());
                line.push_str(&format!("{cell:width$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.max(4)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Looks up a cell by row label and column header (for tests).
    pub fn cell(&self, row_label: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        let row = self
            .rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(row_label))?;
        row.get(col).map(String::as_str)
    }
}

/// Formats a duration in seconds with sensible precision for the tables.
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0}")
    } else if secs >= 1.0 {
        format!("{secs:.1}")
    } else {
        format!("{secs:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_lookup() {
        let mut t = Table::new(
            "demo",
            vec!["system".into(), "create".into(), "copy".into()],
        );
        t.push_row(vec!["SCFS-CoC-B".into(), "321".into(), "478".into()]);
        t.push_row(vec!["LocalFS".into(), "1".into(), "1".into()]);
        let text = t.render();
        assert!(text.contains("demo"));
        assert!(text.contains("SCFS-CoC-B"));
        assert_eq!(t.cell("SCFS-CoC-B", "copy"), Some("478"));
        assert_eq!(t.cell("LocalFS", "create"), Some("1"));
        assert!(t.cell("nope", "copy").is_none());
        assert!(t.cell("LocalFS", "nope").is_none());
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(0.123456), "0.123");
    }
}
