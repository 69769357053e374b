//! Plain-text table rendering in the layout of the paper's tables.

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Shorter rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut out = String::new();
            for i in 0..widths.len() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!("{:<width$}", cell, width = widths[i]));
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Marks the maximum of `values` with `**bold**`-style asterisk framing
/// and the runner-up with underscores, as the paper's Table II does with
/// boldface/underline. Returns formatted copies of `cells`.
pub fn mark_best(values: &[f64], cells: &[String]) -> Vec<String> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap());
    let mut out: Vec<String> = cells.to_vec();
    if let Some(&best) = order.first() {
        out[best] = format!("*{}*", out[best]);
    }
    if let Some(&second) = order.get(1) {
        out[second] = format!("_{}_", out[second]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["Method", "Recall@10"]);
        t.row(vec!["BPRMF".into(), "3.18".into()]);
        t.row(vec!["TaxoRec".into(), "6.33".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Method"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].starts_with("TaxoRec"));
        // Columns aligned: "Recall@10" and both values start at the same
        // character offset.
        let col = lines[0].find("Recall@10").unwrap();
        assert_eq!(lines[2].find("3.18").unwrap(), col);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(vec!["x".into()]);
        let s = t.render();
        assert!(s.contains('x'));
    }

    #[test]
    fn mark_best_frames_top_two() {
        let values = [1.0, 5.0, 3.0];
        let cells: Vec<String> = ["1.0", "5.0", "3.0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let marked = mark_best(&values, &cells);
        assert_eq!(marked[1], "*5.0*");
        assert_eq!(marked[2], "_3.0_");
        assert_eq!(marked[0], "1.0");
    }
}
