//! Shared infrastructure for the experiment harness and benches: result
//! tables, CSV emission, and the experiment implementations.
//!
//! The `experiments` binary (`cargo run -p treecast-bench --bin
//! experiments -- <id>`) regenerates every table/figure of the paper; see
//! `README.md` in this crate for the id ↔ paper mapping.

pub mod adversarybench;
pub mod emulationbench;
pub mod experiments;
pub mod frontierbench;
pub mod gate;
pub mod montecarlobench;
pub mod serverbench;
pub mod solverbench;
pub mod workloadbench;

use std::fmt::Display;
use std::path::Path;

/// A rectangular results table with named columns, rendered as aligned
/// text or CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(columns: I) -> Self {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; values are stringified.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn push<I: IntoIterator<Item = V>, V: Display>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(|v| v.to_string()).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Aligned text rendering with a header rule.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                let numeric = !cell.is_empty()
                    && cell
                        .chars()
                        .all(|c| c.is_ascii_digit() || c == '.' || c == '-');
                if numeric {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().max(1) - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// CSV rendering (no quoting — cells in this workspace never contain
    /// commas).
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `dir` (created if needed). Returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_counts() {
        let mut t = Table::new(["name", "n", "t"]);
        t.push(["alpha".to_string(), "8".into(), "10".into()]);
        t.push(["b".to_string(), "128".into(), "7".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.render();
        assert!(text.contains("name"));
        assert_eq!(text.lines().count(), 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "name,n,t");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(["a", "b"]);
        t.push(["only-one"]);
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let mut t = Table::new(["x"]);
        t.push([1]);
        let dir = std::env::temp_dir().join("treecast-bench-test");
        let path = t.write_csv(&dir, "probe").unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("x\n1"));
    }
}
