//! Output verification: what came back must be the source rows —
//! categoricals exactly, numerics within the compression-time bound
//! `ε · (max − min)` of their column.

use ds_table::{Column, Table};

/// Slack for the CSV round trip (`format_number` keeps 6 decimals) and
/// for float rounding in the bound itself.
const TEXT_SLACK: f64 = 1e-6;

/// Per-column tolerances of one source table.
#[derive(Debug)]
pub struct Checker {
    /// Absolute tolerance per column (`None` for categoricals).
    tol: Vec<Option<f64>>,
}

impl Checker {
    pub fn new(source: &Table, error_threshold: f64) -> Checker {
        let tol = source
            .columns()
            .iter()
            .map(|c| {
                c.as_num().map(|v| {
                    let (lo, hi) = v
                        .iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                            (lo.min(x), hi.max(x))
                        });
                    let range = if hi > lo { hi - lo } else { 0.0 };
                    error_threshold * range * (1.0 + 1e-9) + TEXT_SLACK
                })
            })
            .collect();
        Checker { tol }
    }

    /// `got` must be rows `at..at + got.nrows()` of `source`.
    pub fn check_rows(&self, source: &Table, at: usize, got: &Table) -> Result<(), String> {
        if got.ncols() != source.ncols() {
            return Err(format!(
                "{} columns, expected {}",
                got.ncols(),
                source.ncols()
            ));
        }
        let n = got.nrows();
        if at + n > source.nrows() {
            return Err(format!("rows {at}..{} exceed the source", at + n));
        }
        for (ci, ((want, have), tol)) in source
            .columns()
            .iter()
            .zip(got.columns())
            .zip(&self.tol)
            .enumerate()
        {
            match (want, have, tol) {
                (Column::Cat(w), Column::Cat(h), _) => {
                    if let Some(r) = (0..n).find(|&r| w[at + r] != h[r]) {
                        return Err(format!("column {ci} row {}: categorical differs", at + r));
                    }
                }
                (Column::Num(w), Column::Num(h), Some(tol)) => {
                    if let Some(r) = (0..n).find(|&r| (w[at + r] - h[r]).abs() > *tol) {
                        return Err(format!(
                            "column {ci} row {}: |{} - {}| > {tol}",
                            at + r,
                            w[at + r],
                            h[r]
                        ));
                    }
                }
                _ => return Err(format!("column {ci}: type differs")),
            }
        }
        Ok(())
    }
}
