//! Plain-text table rendering for `repro`'s sections — the output is meant
//! to be read next to the paper's tables.

use freephish_simclock::SimDuration;

/// Format a fraction as a percentage with two decimals ("18.44%").
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.2}%", frac * 100.0)
}

/// Format an optional duration as the paper's `hh:mm` (or "N/A").
pub fn fmt_duration_opt(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => d.as_hhmm(),
        None => "N/A".to_string(),
    }
}

/// A minimal fixed-width table writer.
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Start a table with `|`-separated column headers ("FWB|Coverage").
    pub fn new(headers: &str) -> TableWriter {
        TableWriter {
            headers: headers.split('|').map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: impl IntoIterator<Item = String>) {
        let cells: Vec<String> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", c, w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_duration_formatting() {
        assert_eq!(fmt_pct(0.1844), "18.44%");
        assert_eq!(fmt_pct(0.0), "0.00%");
        assert_eq!(fmt_duration_opt(Some(SimDuration::from_mins(361))), "6:01");
        assert_eq!(fmt_duration_opt(None), "N/A");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TableWriter::new("FWB|Coverage");
        t.row(["Weebly".into(), "60.13%".into()]);
        t.row(["hpage".into(), "13.11%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "FWB     Coverage");
        assert!(lines[2].starts_with("Weebly"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = TableWriter::new("a|b");
        t.row(["x".into()]);
    }
}
