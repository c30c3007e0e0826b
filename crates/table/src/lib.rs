//! # ds-table — tabular data substrate for the DeepSqueeze reproduction
//!
//! Provides the schema/column/table types every compressor in this
//! workspace consumes, CSV input/output (the raw format whose byte size is
//! the denominator of every compression ratio in the paper's evaluation),
//! and seeded synthetic generators standing in for the five real-world
//! datasets of §7.1 (Corel, Forest, Census, Monitor, Criteo).
//!
//! The generators plant the *relationship classes* the paper attributes to
//! each dataset — functional dependencies, cross-column correlations,
//! cluster/regime structure, and skew — so semantic compressors have real
//! signal to exploit, while remaining fully reproducible from a seed.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels read clearer with explicit loops

pub mod csv;
pub mod gen;
pub mod stream;

mod column;
mod schema;
mod table;

pub use column::{fixed6_micros, CatBuilder, CatColumn, Column};
pub use schema::{ColumnType, Field, Schema};
pub use table::Table;

/// Errors produced by table construction, access, and CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Columns of differing lengths were combined into one table.
    RaggedColumns {
        /// Length expected from the first column.
        expected: usize,
        /// Offending column's length.
        found: usize,
    },
    /// Schema arity does not match the number of columns.
    SchemaMismatch,
    /// A column index or name was not found.
    NoSuchColumn(String),
    /// A cell failed to parse as the declared type (row, column, detail).
    Parse {
        /// Zero-based row of the offending cell.
        row: usize,
        /// Zero-based column of the offending cell.
        col: usize,
        /// What went wrong.
        what: &'static str,
    },
    /// CSV structural error (unbalanced quotes, bad escapes...).
    Csv {
        /// One-based line number where the error was detected.
        line: usize,
        /// What went wrong.
        what: &'static str,
    },
    /// A CSV record whose field count disagrees with the header.
    CsvRagged {
        /// One-based line number the record started on.
        line: usize,
        /// Field count of the header.
        expected: usize,
        /// Field count of the offending record.
        found: usize,
    },
    /// An I/O failure while streaming rows (message of the OS error;
    /// `std::io::Error` itself is not `Clone`/`Eq`).
    Io(String),
    /// A generator or sampler was given an invalid parameter.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::RaggedColumns { expected, found } => {
                write!(f, "ragged columns: expected {expected} rows, found {found}")
            }
            TableError::SchemaMismatch => write!(f, "schema arity does not match columns"),
            TableError::NoSuchColumn(name) => write!(f, "no such column: {name}"),
            TableError::Parse { row, col, what } => {
                write!(f, "parse error at row {row}, column {col}: {what}")
            }
            TableError::Csv { line, what } => write!(f, "csv error at line {line}: {what}"),
            TableError::CsvRagged {
                line,
                expected,
                found,
            } => write!(
                f,
                "csv error at line {line}: expected {expected} fields, found {found}"
            ),
            TableError::Io(what) => write!(f, "io error: {what}"),
            TableError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for TableError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TableError>;
