//! Structured tables for the reproduction harness.
//!
//! Every `repro` experiment emits its figure/table through this model: a
//! [`Table`] owns typed [`Column`]s (each with a formatting [`ColumnKind`])
//! and rows of typed [`Value`]s. Formatting lives in the column spec, so the
//! text renderer, the CSV writer and the JSON writer all derive from the
//! same cells — there is exactly one place where a number becomes a string,
//! which is what the golden-result verification in the bench crate relies
//! on.

use std::fmt::Write as _;

use crate::json::Json;

/// Column alignment in the text rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// How numeric cells in a column are formatted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Free-form text; numbers render with their shortest representation.
    Text,
    /// Integers; floats render with zero decimal places.
    Int,
    /// Fixed-point with the given number of decimal places.
    Float(usize),
    /// Scientific notation with the given number of decimal places.
    Sci(usize),
}

/// One typed column: header, number format, alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Header text.
    pub header: String,
    /// Numeric cell format.
    pub kind: ColumnKind,
    /// Text-rendering alignment.
    pub align: Align,
}

impl Column {
    fn new(header: impl Into<String>, kind: ColumnKind, align: Align) -> Self {
        Column {
            header: header.into(),
            kind,
            align,
        }
    }

    /// A left-aligned text column (labels).
    pub fn text(header: impl Into<String>) -> Self {
        Column::new(header, ColumnKind::Text, Align::Left)
    }

    /// A right-aligned integer column.
    pub fn int(header: impl Into<String>) -> Self {
        Column::new(header, ColumnKind::Int, Align::Right)
    }

    /// A right-aligned fixed-point column with `decimals` places.
    pub fn float(header: impl Into<String>, decimals: usize) -> Self {
        Column::new(header, ColumnKind::Float(decimals), Align::Right)
    }

    /// A right-aligned scientific-notation column with `decimals` places.
    pub fn sci(header: impl Into<String>, decimals: usize) -> Self {
        Column::new(header, ColumnKind::Sci(decimals), Align::Right)
    }

    /// Override to left alignment.
    pub fn left(mut self) -> Self {
        self.align = Align::Left;
        self
    }

    /// Override to right alignment.
    pub fn right(mut self) -> Self {
        self.align = Align::Right;
        self
    }
}

/// One typed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Pre-formatted text; rendered verbatim whatever the column kind
    /// (the escape hatch for cells like `dnf`, `MCS3` or `inf`).
    Str(String),
    /// An integer.
    Int(i64),
    /// A float, formatted per the column's [`ColumnKind`].
    Num(f64),
}

impl Value {
    /// Render the cell under a column's formatting rule.
    pub fn render(&self, kind: ColumnKind) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Num(v) => match kind {
                ColumnKind::Text => format!("{v}"),
                ColumnKind::Int => format!("{v:.0}"),
                ColumnKind::Float(d) => format!("{v:.d$}"),
                ColumnKind::Sci(d) => format!("{v:.d$e}"),
            },
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

/// A typed table: columns with formats, rows of typed cells.
///
/// ```
/// use skyferry_stats::table::{Column, Table};
/// let mut t = Table::new(vec![Column::int("d (m)").left(), Column::float("median (Mb/s)", 1)]);
/// t.push(vec![20.0.into(), 28.42.into()]);
/// assert!(t.render_text().contains("28.4"));
/// assert_eq!(t.render_csv(), "d (m),median (Mb/s)\n20,28.4\n");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Create a table from its column specs.
    ///
    /// # Panics
    /// Panics if `columns` is empty.
    pub fn new(columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "table needs at least one column");
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// The column specs.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Append a row of typed cells.
    ///
    /// # Panics
    /// Panics if the number of cells differs from the number of columns.
    pub fn push(&mut self, cells: Vec<Value>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
        self
    }

    /// Append a label cell followed by `f64` cells (formatted per column).
    pub fn row_f64(&mut self, label: &str, values: &[f64]) -> &mut Self {
        let mut cells: Vec<Value> = Vec::with_capacity(values.len() + 1);
        cells.push(label.into());
        cells.extend(values.iter().map(|&v| Value::Num(v)));
        self.push(cells)
    }

    /// The typed rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Render every cell of row `r` to text under its column's format.
    fn rendered_row(&self, r: usize) -> Vec<String> {
        self.rows[r]
            .iter()
            .zip(&self.columns)
            .map(|(v, c)| v.render(c.kind))
            .collect()
    }

    /// Render the table with a header underline, columns two spaces apart.
    pub fn render_text(&self) -> String {
        let cols = self.columns.len();
        let rendered: Vec<Vec<String>> =
            (0..self.rows.len()).map(|r| self.rendered_row(r)).collect();
        let mut widths: Vec<usize> = self
            .columns
            .iter()
            .map(|c| c.header.chars().count())
            .collect();
        for row in &rendered {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for c in 0..cols {
                if c > 0 {
                    out.push_str("  ");
                }
                let w = widths[c];
                match self.columns[c].align {
                    Align::Left => {
                        let _ = write!(out, "{:<w$}", cells[c]);
                    }
                    Align::Right => {
                        let _ = write!(out, "{:>w$}", cells[c]);
                    }
                }
            }
            // Trim trailing spaces from left-aligned last columns.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        let headers: Vec<String> = self.columns.iter().map(|c| c.header.clone()).collect();
        render_row(&mut out, &headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &rendered {
            render_row(&mut out, row);
        }
        out
    }

    /// Render as CSV. Cells containing commas, quotes or newlines are
    /// quoted per RFC 4180 (embedded quotes doubled).
    pub fn render_csv(&self) -> String {
        fn push_cell(out: &mut String, c: &str) {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                out.push('"');
                out.push_str(&c.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(c);
            }
        }
        let mut out = String::new();
        let csv_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_cell(out, c);
            }
            out.push('\n');
        };
        let headers: Vec<String> = self.columns.iter().map(|c| c.header.clone()).collect();
        csv_row(&mut out, &headers);
        for r in 0..self.rows.len() {
            csv_row(&mut out, &self.rendered_row(r));
        }
        out
    }

    /// The table as a JSON object: `columns` (headers) and `rows` (typed
    /// cells; floats carry full precision, not the column's display format).
    pub fn to_json(&self) -> Json {
        let columns = Json::Arr(self.columns.iter().map(|c| Json::str(&c.header)).collect());
        let rows = Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    Json::Arr(
                        row.iter()
                            .map(|v| match v {
                                Value::Str(s) => Json::str(s),
                                Value::Int(i) => Json::Int(*i),
                                Value::Num(x) => Json::Num(*x),
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        Json::obj([("columns", columns), ("rows", rows)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec![Column::text("name"), Column::int("value")]);
        t.push(vec!["a".into(), 1u64.into()]);
        t.push(vec!["long-name".into(), 12345u64.into()]);
        let s = t.render_text();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numbers share their last column.
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn column_kinds_format_numbers() {
        let mut t = Table::new(vec![
            Column::text("s"),
            Column::int("i"),
            Column::float("f", 2),
            Column::sci("e", 1),
        ]);
        t.push(vec![
            "x".into(),
            Value::Num(19.7),
            Value::Num(28.456),
            Value::Num(0.00042),
        ]);
        assert_eq!(t.render_csv(), "s,i,f,e\nx,20,28.46,4.2e-4\n");
    }

    #[test]
    fn str_cells_bypass_column_format() {
        let mut t = Table::new(vec![Column::text("d"), Column::float("s", 1)]);
        t.push(vec![Value::Str("40".into()), Value::Str("dnf".into())]);
        assert_eq!(t.render_csv(), "d,s\n40,dnf\n");
    }

    #[test]
    fn row_f64_formats_per_column() {
        let mut t = Table::new(vec![Column::text("d"), Column::float("s", 2)]);
        t.row_f64("20", &[28.456]);
        assert!(t.render_text().contains("28.46"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new(vec![Column::text("a"), Column::text("b")]);
        t.push(vec!["1".into(), "2".into()]);
        assert_eq!(t.render_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec![Column::text("a"), Column::text("b")]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec![Column::text("a"), Column::text("b")]);
        t.push(vec!["x,y".into(), "say \"hi\"".into()]);
        assert_eq!(t.render_csv(), "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn alignment_override() {
        let mut t = Table::new(vec![Column::text("a"), Column::text("b").left()]);
        t.push(vec!["x".into(), "y".into()]);
        assert_eq!(t.rows().len(), 1);
        let s = t.render_text();
        assert!(s.lines().nth(2).unwrap().starts_with("x  y"));
    }

    #[test]
    fn to_json_keeps_full_precision() {
        let mut t = Table::new(vec![Column::text("d"), Column::float("s", 1)]);
        t.push(vec!["20".into(), Value::Num(28.4567)]);
        assert_eq!(
            t.to_json().render(),
            "{\"columns\":[\"d\",\"s\"],\"rows\":[[\"20\",28.4567]]}"
        );
    }
}
