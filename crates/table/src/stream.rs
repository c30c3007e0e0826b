//! Streaming row sources: bounded-memory, rewindable chunk iteration.
//!
//! A [`RowSource`] abstracts "a table that arrives in fixed-size pieces".
//! Each call to [`RowSource::chunks`] starts a fresh pass over the same
//! rows — the two-pass streaming compressor (stats + reservoir sample,
//! then encode) rewinds by simply asking for a second iterator. Sources
//! must yield identical rows in identical order on every pass; the
//! compressor cross-checks the row counts of its two passes and fails
//! loudly if the underlying data changed in between.
//!
//! Two implementations cover both ends of the memory spectrum:
//! [`TableSource`] adapts an in-memory [`Table`] (zero-copy slices), and
//! [`CsvFileSource`] re-opens and re-parses a CSV file per pass via
//! [`crate::csv::CsvChunks`], holding one chunk at a time.

use crate::csv::CsvChunks;
use crate::{Result, Schema, Table, TableError};
use std::io::BufReader;
use std::path::PathBuf;

/// A rewindable producer of fixed-size row chunks sharing one schema.
pub trait RowSource {
    /// Schema every yielded chunk conforms to.
    fn schema(&self) -> &Schema;

    /// Starts a fresh pass over the rows. Chunks arrive in row order;
    /// a source with zero rows yields no chunks.
    fn chunks(&self) -> Result<Box<dyn Iterator<Item = Result<Table>> + '_>>;
}

/// [`RowSource`] over an in-memory table: chunks are contiguous row
/// slices. This is the adapter that lets the in-memory compressor run
/// through the exact same staged pipeline as true streaming input.
pub struct TableSource<'a> {
    table: &'a Table,
    chunk_rows: usize,
}

impl<'a> TableSource<'a> {
    /// Wraps `table`, yielding `chunk_rows` rows per chunk (min 1).
    pub fn new(table: &'a Table, chunk_rows: usize) -> Self {
        TableSource {
            table,
            chunk_rows: chunk_rows.max(1),
        }
    }
}

impl RowSource for TableSource<'_> {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn chunks(&self) -> Result<Box<dyn Iterator<Item = Result<Table>> + '_>> {
        let n = self.table.nrows();
        let step = self.chunk_rows;
        let n_chunks = n.div_ceil(step);
        Ok(Box::new((0..n_chunks).map(move |i| {
            let lo = i * step;
            Ok(self.table.slice_rows(lo..lo.saturating_add(step)))
        })))
    }
}

/// [`RowSource`] over a CSV file with a known schema: every pass re-opens
/// the file and parses `chunk_rows` rows at a time. The header is
/// validated against the schema at the start of each pass.
pub struct CsvFileSource {
    path: PathBuf,
    schema: Schema,
    chunk_rows: usize,
}

impl CsvFileSource {
    /// Creates a source reading `path` under `schema`, `chunk_rows` rows
    /// per chunk (min 1). The file is not touched until [`RowSource::chunks`].
    pub fn new(path: impl Into<PathBuf>, schema: Schema, chunk_rows: usize) -> Self {
        CsvFileSource {
            path: path.into(),
            schema,
            chunk_rows: chunk_rows.max(1),
        }
    }
}

impl RowSource for CsvFileSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn chunks(&self) -> Result<Box<dyn Iterator<Item = Result<Table>> + '_>> {
        let file = std::fs::File::open(&self.path).map_err(|e| TableError::Io(e.to_string()))?;
        let chunks = CsvChunks::new(BufReader::new(file), self.chunk_rows)?;
        crate::csv::check_header(chunks.header(), &self.schema)?;
        Ok(Box::new(CsvChunkIter {
            chunks,
            schema: &self.schema,
            fused: false,
        }))
    }
}

struct CsvChunkIter<'a> {
    chunks: CsvChunks<BufReader<std::fs::File>>,
    schema: &'a Schema,
    fused: bool,
}

impl Iterator for CsvChunkIter<'_> {
    type Item = Result<Table>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        match self.chunks.next_chunk() {
            Ok(None) => None,
            Ok(Some(chunk)) => {
                let base = self.chunks.rows_read().saturating_sub(chunk.nrows());
                match chunk.to_table(self.schema, base) {
                    Ok(t) => Some(Ok(t)),
                    Err(e) => {
                        self.fused = true;
                        Some(Err(e))
                    }
                }
            }
            Err(e) => {
                self.fused = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::write_csv;
    use crate::{Column, Field};

    fn table(n: usize) -> Table {
        Table::from_columns(vec![
            ("x".into(), Column::Num((0..n).map(|i| i as f64).collect())),
            (
                "s".into(),
                Column::cat((0..n).map(|i| format!("v,{i}\"q\""))),
            ),
        ])
        .unwrap()
    }

    fn collect(source: &dyn RowSource) -> Vec<Table> {
        source
            .chunks()
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap()
    }

    #[test]
    fn table_source_slices_and_rewinds() {
        let t = table(10);
        let src = TableSource::new(&t, 3);
        let parts = collect(&src);
        assert_eq!(
            parts.iter().map(Table::nrows).collect::<Vec<_>>(),
            [3, 3, 3, 1]
        );
        assert_eq!(Table::concat(&parts).unwrap(), t);
        // A second pass yields the same rows again.
        assert_eq!(Table::concat(&collect(&src)).unwrap(), t);
        // Zero rows: no chunks.
        let empty = t.slice_rows(0..0);
        let src = TableSource::new(&empty, 4);
        assert_eq!(src.chunks().unwrap().count(), 0);
    }

    #[test]
    fn csv_file_source_matches_in_memory_parse() {
        let t = table(25);
        let dir = std::env::temp_dir().join("ds_table_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, write_csv(&t)).unwrap();

        let src = CsvFileSource::new(&path, t.schema().clone(), 7);
        for _ in 0..2 {
            // two passes
            let parts = collect(&src);
            assert_eq!(
                parts.iter().map(Table::nrows).collect::<Vec<_>>(),
                [7, 7, 7, 4]
            );
            assert_eq!(Table::concat(&parts).unwrap(), t);
        }

        // Schema mismatch is caught at pass start.
        let wrong = Schema::new(vec![Field::numeric("x"), Field::categorical("zzz")]).unwrap();
        let src = CsvFileSource::new(&path, wrong, 7);
        assert!(src.chunks().is_err());

        // Missing file is a typed Io error.
        let src = CsvFileSource::new(dir.join("nope.csv"), t.schema().clone(), 7);
        assert!(matches!(src.chunks(), Err(TableError::Io(_))));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_file_source_reports_global_row_indexes() {
        let dir = std::env::temp_dir().join("ds_table_stream_rows");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut text = String::from("x\n");
        for i in 0..101 {
            text.push_str(&format!("{i}\n"));
        }
        text.push_str("oops\n");
        std::fs::write(&path, text).unwrap();
        let schema = Schema::new(vec![Field::numeric("x")]).unwrap();
        for chunk_rows in [1, 7, 100, 4096] {
            let src = CsvFileSource::new(&path, schema.clone(), chunk_rows);
            let err = src
                .chunks()
                .unwrap()
                .find_map(Result::err)
                .expect("the last row does not parse");
            assert!(
                matches!(
                    err,
                    TableError::Parse {
                        row: 101,
                        col: 0,
                        ..
                    }
                ),
                "chunk_rows={chunk_rows}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
