//! Minimal fixed-width table formatting for experiment reports, and the
//! one writer of the `BENCH_*.json` records.

/// A text table with a title, a header row, and data rows.
///
/// # Examples
///
/// ```
/// use axmul_bench::report::Table;
///
/// let mut t = Table::new("Demo", &["design", "LUTs"]);
/// t.row(&["Ca 8x8", "57"]);
/// let s = t.render();
/// assert!(s.contains("design"));
/// assert!(s.contains("57"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| (*s).to_string()).collect());
    }

    /// Appends a row of owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        out.push_str("== ");
        out.push_str(&self.title);
        out.push_str(" ==\n");
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a fractional gain as a signed percentage.
#[must_use]
pub fn pct(gain: f64) -> String {
    format!("{:+.1}%", gain * 100.0)
}

/// Formats a float with the given precision.
#[must_use]
pub fn f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// One value of a [`BenchRecord`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Field {
    /// An exact unsigned integer. Counts and proven errors never pass
    /// through `f64`: a 32×32 worst-case error exceeds 2⁵³.
    Int(u128),
    /// A float printed with a fixed number of decimals (`null` when not
    /// finite, which JSON cannot spell).
    Fixed(f64, usize),
    /// `true` or `false`.
    Bool(bool),
    /// A string.
    Str(String),
    /// `null`.
    Null,
    /// An array on one line: `[1, 2]`.
    List(Vec<Field>),
    /// An object on one line: `{"a": 1, "b": 2}`.
    Obj(Vec<(&'static str, Field)>),
    /// An array of one-line objects, one to a line. Only top-level
    /// fields use it.
    Rows(Vec<Vec<(&'static str, Field)>>),
}

macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl From<$t> for Field {
            fn from(v: $t) -> Self {
                Field::Int(v as u128)
            }
        }
    )*};
}
int_field!(u32, u64, u128, usize);

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

impl<T: Into<Field>> From<Option<T>> for Field {
    fn from(v: Option<T>) -> Self {
        v.map_or(Field::Null, Into::into)
    }
}

impl Field {
    fn render(&self) -> String {
        match self {
            Field::Int(n) => n.to_string(),
            Field::Fixed(v, digits) if v.is_finite() => format!("{v:.digits$}"),
            Field::Fixed(..) | Field::Null => "null".to_string(),
            Field::Bool(b) => b.to_string(),
            Field::Str(s) => axmul_netio::json::Value::str(s.as_str()).to_string(),
            Field::List(items) => {
                let items: Vec<String> = items.iter().map(Field::render).collect();
                format!("[{}]", items.join(", "))
            }
            Field::Obj(pairs) => render_obj(pairs),
            Field::Rows(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| format!("\n    {}", render_obj(r)))
                    .collect();
                format!("[{}\n  ]", rows.join(","))
            }
        }
    }
}

fn render_obj(pairs: &[(&'static str, Field)]) -> String {
    let pairs: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", v.render()))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// The machine-readable record of one `repro … --json` run: a JSON
/// object with one field to a line, in insertion order, opening with
/// `"bench"`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BenchRecord {
    fields: Vec<(&'static str, Field)>,
}

impl BenchRecord {
    /// A record whose first field is `"bench": bench`.
    #[must_use]
    pub(crate) fn new(bench: &str) -> Self {
        BenchRecord {
            fields: vec![("bench", bench.into())],
        }
    }

    /// Appends a field.
    #[must_use]
    pub(crate) fn field(mut self, key: &'static str, value: impl Into<Field>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The record as JSON text, ending in a newline.
    #[must_use]
    pub(crate) fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {}", v.render()))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// The `"mode"` field of an experiment with a `--quick` form.
#[must_use]
pub(crate) fn mode(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_layout_and_parse() {
        let record = BenchRecord::new("t")
            .field("mode", mode(true))
            .field("key", None::<String>)
            .field("name", "a \"b\"")
            .field("big", u128::from(u64::MAX) * 4)
            .field("nan", Field::Fixed(f64::NAN, 1))
            .field("pair", Field::List(vec![1u64.into(), 2u64.into()]))
            .field(
                "split",
                Field::Obj(vec![("x", Field::Fixed(0.5, 3)), ("y", 7u32.into())]),
            )
            .field(
                "rows",
                Field::Rows(vec![vec![("n", 1usize.into())], vec![("n", 2usize.into())]]),
            )
            .field("none", Field::Rows(Vec::new()));
        let text = record.render();
        assert_eq!(
            text,
            "{\n  \"bench\": \"t\",\n  \"mode\": \"quick\",\n  \"key\": null,\n  \
             \"name\": \"a \\\"b\\\"\",\n  \"big\": 73786976294838206460,\n  \
             \"nan\": null,\n  \"pair\": [1, 2],\n  \"split\": {\"x\": 0.500, \"y\": 7},\n  \
             \"rows\": [\n    {\"n\": 1},\n    {\"n\": 2}\n  ],\n  \"none\": [\n  ]\n}\n"
        );
        let parsed = axmul_netio::json::parse(&text).unwrap();
        assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some("a \"b\""));
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("T", &["a", "bbbb"]);
        t.row(&["xx", "1"]);
        t.row(&["y", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== T ==");
        assert!(lines[1].contains("a"));
        assert!(lines[3].ends_with("   1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", &["a"]);
        t.row(&["1", "2"]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.253), "+25.3%");
        assert_eq!(pct(-0.08), "-8.0%");
    }
}
