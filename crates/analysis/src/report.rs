//! Table builders for the experiment harness.
//!
//! Every experiment binary prints its results as plain-text/Markdown tables
//! (the same rows the paper reports) and can export CSV for further
//! processing; this module provides the shared formatting.

use serde::{Deserialize, Serialize};

/// A simple rectangular table with a header row.
///
/// # Example
///
/// ```
/// use fedft_analysis::Table;
///
/// let mut table = Table::new(vec!["Method".into(), "Accuracy".into()]);
/// table.add_row(vec!["FedAvg".into(), "75.2".into()]).unwrap();
/// let markdown = table.to_markdown();
/// assert!(markdown.contains("| FedAvg | 75.2 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a data row.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when the row width does not match the
    /// header width.
    pub fn add_row(&mut self, row: Vec<String>) -> Result<(), String> {
        if row.len() != self.headers.len() {
            return Err(format!(
                "row has {} cells but the table has {} columns",
                row.len(),
                self.headers.len()
            ));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }

    /// Renders the table as CSV with a header line.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as aligned plain text for terminal output.
    pub fn to_plain_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(cell, &w)| format!("{cell:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = render_row(&self.headers);
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction in `[0, 1]` as a percentage with two decimals.
pub fn pct(value: f64) -> String {
    format!("{:.2}", value * 100.0)
}

/// Formats a learning-efficiency value with four significant decimals.
pub fn eff(value: f64) -> String {
    format!("{value:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["Method".into(), "Acc".into()]);
        t.add_row(vec!["FedAvg".into(), "75.18".into()]).unwrap();
        t.add_row(vec!["FedFT-EDS".into(), "83.82".into()]).unwrap();
        t
    }

    #[test]
    fn add_row_validates_width() {
        let mut t = Table::new(vec!["a".into()]);
        assert!(t.add_row(vec!["1".into(), "2".into()]).is_err());
        assert!(t.add_row(vec!["1".into()]).is_ok());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| Method | Acc |"));
        assert!(md.contains("| FedFT-EDS | 83.82 |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn csv_rendering_and_escaping() {
        let mut t = Table::new(vec!["name".into(), "note".into()]);
        t.add_row(vec!["a,b".into(), "say \"hi\"".into()]).unwrap();
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        assert!(sample().to_csv().starts_with("Method,Acc\n"));
    }

    #[test]
    fn plain_text_alignment() {
        let text = sample().to_plain_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Method"));
        assert!(lines[1].starts_with('-'));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.8382), "83.82");
        assert_eq!(eff(0.12345), "0.1235");
    }
}
