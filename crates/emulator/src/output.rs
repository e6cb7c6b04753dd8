//! TSV output helpers for the figure harnesses.
//!
//! Figure binaries print the same rows/series the paper plots: TSV to
//! stdout (machine-consumable), human-readable summaries to stderr.

use std::io::Write;

/// A TSV table writer.
pub struct Tsv<W: Write> {
    out: W,
    cols: usize,
}

impl<W: Write> Tsv<W> {
    /// Starts a table, writing the header line.
    pub fn new(mut out: W, header: &[&str]) -> std::io::Result<Tsv<W>> {
        writeln!(out, "{}", header.join("\t"))?;
        Ok(Tsv {
            out,
            cols: header.len(),
        })
    }

    /// Writes one row; panics if the column count differs from the
    /// header.
    pub fn row(&mut self, cells: &[String]) -> std::io::Result<()> {
        assert_eq!(cells.len(), self.cols, "TSV row width mismatch");
        writeln!(self.out, "{}", cells.join("\t"))
    }

    /// Convenience for numeric rows (3 decimal places).
    pub fn row_f64(&mut self, cells: &[f64]) -> std::io::Result<()> {
        let fmt: Vec<String> = cells.iter().map(|v| format!("{v:.3}")).collect();
        self.row(&fmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let mut buf = Vec::new();
        {
            let mut t = Tsv::new(&mut buf, &["rtt_ms", "t_static_ms"]).unwrap();
            t.row(&["10".into(), "25.5".into()]).unwrap();
            t.row_f64(&[20.0, 30.25]).unwrap();
        }
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "rtt_ms\tt_static_ms");
        assert_eq!(lines[1], "10\t25.5");
        assert_eq!(lines[2], "20.000\t30.250");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut buf = Vec::new();
        let mut t = Tsv::new(&mut buf, &["a", "b"]).unwrap();
        t.row(&["only-one".into()]).unwrap();
    }
}
