//! Minimal RFC-4180-style CSV reader/writer.
//!
//! Handles quoting (fields containing commas, quotes, or newlines are
//! wrapped in double quotes with internal quotes doubled). The writer's
//! output length is exactly what [`crate::Table::raw_size`] reports.
//!
//! Reading is built on one resumable byte-at-a-time record machine shared
//! by the whole-file entry points ([`read_csv`], [`read_csv_infer`]) and
//! the streaming chunk reader ([`CsvChunks`]): both paths parse byte for
//! byte identically, and structural errors carry the 1-based *physical*
//! line number where they were detected (quoted fields may span lines, so
//! the line counter follows every `\n`, not the record count).

use crate::column::write_number;
use crate::{CatBuilder, Column, ColumnType, Field, Result, Schema, Table, TableError};

/// Length of `field` as the writer would emit it (with quoting).
pub fn escaped_len(field: &str) -> usize {
    if needs_quoting(field) {
        // Opening and closing quote plus one extra byte per internal quote.
        2 + field.len() + field.bytes().filter(|&b| b == b'"').count()
    } else {
        field.len()
    }
}

fn needs_quoting(field: &str) -> bool {
    field
        .bytes()
        .any(|b| b == b',' || b == b'"' || b == b'\n' || b == b'\r')
}

fn write_field(out: &mut String, field: &str) {
    if needs_quoting(field) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serializes a table to CSV (header row + data rows, `\n` line endings).
pub fn write_csv(table: &Table) -> String {
    let mut out = String::with_capacity(table.raw_size());
    write_csv_header(table.schema(), &mut out);
    write_csv_rows(table, 0..table.nrows(), &mut out);
    out
}

/// Appends the header row (`\n`-terminated) for `schema` to `out` —
/// the streaming building block behind [`write_csv`]: emit the header
/// once, then [`write_csv_rows`] chunk by chunk without ever holding the
/// whole table.
pub fn write_csv_header(schema: &Schema, out: &mut String) {
    for (i, f) in schema.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(out, &f.name);
    }
    out.push('\n');
}

/// Appends the data rows `rows` of `table` (clamped to the table) as CSV
/// lines to `out`, no header. Byte-for-byte identical to the matching
/// slice of [`write_csv`]'s output. Cells render straight into `out`:
/// categorical values are read from the column's pool, numbers are
/// formatted in place (their text never needs quoting).
pub fn write_csv_rows(table: &Table, rows: std::ops::Range<usize>, out: &mut String) {
    let start = rows.start.min(table.nrows());
    let end = rows.end.min(table.nrows()).max(start);
    for r in start..end {
        for (i, c) in table.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match c {
                Column::Cat(v) => write_field(out, v.get(r).unwrap_or_default()),
                Column::Num(v) => write_number(out, v.get(r).copied().unwrap_or_default()),
            }
        }
        out.push('\n');
    }
}

/// Bytes pulled from the underlying reader per refill.
const REFILL_BYTES: usize = 64 * 1024;

/// Internal chunk granularity used by the whole-file entry points.
const WHOLE_FILE_CHUNK_ROWS: usize = 4096;

/// Parser state of [`RecordMachine`], between two bytes of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// At the start of a field (nothing consumed for it yet).
    FieldStart,
    /// Inside an unquoted field.
    Unquoted,
    /// Inside a quoted field.
    Quoted,
    /// Just past the closing quote of a quoted field.
    QuoteClosed,
}

/// Resumable one-record CSV splitter. Feed it byte slices in any
/// segmentation; it yields complete records with the physical line each
/// record started on. State (including a half-seen `""` escape or a
/// quoted field spanning buffers) carries across `feed` calls, so chunked
/// input parses identically to whole-file input by construction.
#[derive(Debug)]
struct RecordMachine {
    state: State,
    field: Vec<u8>,
    fields: Vec<String>,
    /// Current physical line (1-based; advanced on every `\n`).
    line: usize,
    /// Line the in-progress record started on.
    record_line: usize,
    /// Line of the current field's opening quote (for unterminated-quote
    /// errors on multi-line fields).
    quote_line: usize,
}

impl RecordMachine {
    fn new() -> Self {
        RecordMachine {
            state: State::FieldStart,
            field: Vec::new(),
            fields: Vec::new(),
            line: 1,
            record_line: 1,
            quote_line: 1,
        }
    }

    fn end_field(&mut self) -> Result<()> {
        let bytes = std::mem::take(&mut self.field);
        let s = String::from_utf8(bytes).map_err(|_| TableError::Csv {
            line: self.line,
            what: "invalid UTF-8 in field",
        })?;
        self.fields.push(s);
        self.state = State::FieldStart;
        Ok(())
    }

    /// Completes the record at a `\n` terminator.
    fn flush_record(&mut self) -> Result<(Vec<String>, usize)> {
        self.end_field()?;
        let line = self.record_line;
        self.line += 1;
        self.record_line = self.line;
        Ok((std::mem::take(&mut self.fields), line))
    }

    /// Consumes bytes until a record completes or `data` runs out.
    /// Returns how many bytes were consumed and the completed record, if
    /// any, with the line it started on.
    #[allow(clippy::type_complexity)]
    fn feed(&mut self, data: &[u8]) -> Result<(usize, Option<(Vec<String>, usize)>)> {
        let mut used = 0usize;
        for &b in data {
            used += 1;
            match self.state {
                State::FieldStart => match b {
                    b'"' => {
                        self.state = State::Quoted;
                        self.quote_line = self.line;
                    }
                    b',' => self.end_field()?,
                    b'\n' => return Ok((used, Some(self.flush_record()?))),
                    b'\r' => {} // tolerate CRLF
                    _ => {
                        self.field.push(b);
                        self.state = State::Unquoted;
                    }
                },
                State::Unquoted => match b {
                    b',' => self.end_field()?,
                    b'\n' => return Ok((used, Some(self.flush_record()?))),
                    b'\r' => {}
                    b'"' => {
                        return Err(TableError::Csv {
                            line: self.line,
                            what: "stray quote in unquoted field",
                        })
                    }
                    _ => self.field.push(b),
                },
                State::Quoted => match b {
                    b'"' => self.state = State::QuoteClosed,
                    b'\n' => {
                        self.field.push(b);
                        self.line += 1;
                    }
                    _ => self.field.push(b),
                },
                State::QuoteClosed => match b {
                    b'"' => {
                        // Doubled quote: literal `"` inside the field.
                        self.field.push(b'"');
                        self.state = State::Quoted;
                    }
                    b',' => self.end_field()?,
                    b'\n' => return Ok((used, Some(self.flush_record()?))),
                    b'\r' => {}
                    _ => {
                        return Err(TableError::Csv {
                            line: self.line,
                            what: "data after closing quote",
                        })
                    }
                },
            }
        }
        Ok((used, None))
    }

    /// Flushes the final record at end of input (no trailing newline).
    fn finish(&mut self) -> Result<Option<(Vec<String>, usize)>> {
        match self.state {
            State::Quoted => Err(TableError::Csv {
                line: self.quote_line,
                what: "unterminated quoted field",
            }),
            State::FieldStart if self.fields.is_empty() && self.field.is_empty() => Ok(None),
            _ => {
                self.end_field()?;
                let line = self.record_line;
                self.record_line = self.line;
                Ok(Some((std::mem::take(&mut self.fields), line)))
            }
        }
    }
}

/// Streaming CSV reader yielding rows in fixed-size chunks.
///
/// Parses the header eagerly at construction, then hands out up to
/// `chunk_rows` records per [`CsvChunks::next_chunk`] call, holding at
/// most one refill buffer plus one chunk of rows in memory. Every row is
/// arity-checked against the header ([`TableError::CsvRagged`] with the
/// offending 1-based line). A file ending in a bare final newline does
/// not produce a phantom empty row (one-field-empty records are held back
/// one step and dropped at end of input, matching the whole-file parser).
pub struct CsvChunks<R: std::io::Read> {
    reader: R,
    buf: Vec<u8>,
    pos: usize,
    refill_bytes: usize,
    eof: bool,
    machine: RecordMachine,
    header: Vec<String>,
    chunk_rows: usize,
    lookahead: Option<(Vec<String>, usize)>,
    rows_read: usize,
    finished: bool,
}

impl<R: std::io::Read> CsvChunks<R> {
    /// Opens a chunked reader over `reader`, parsing the header row
    /// immediately. `chunk_rows` is clamped to at least 1.
    pub fn new(reader: R, chunk_rows: usize) -> Result<Self> {
        CsvChunks::with_capacity(reader, chunk_rows, REFILL_BYTES)
    }

    /// [`CsvChunks::new`] with an explicit refill-buffer size (exposed so
    /// tests can force record boundaries to straddle refills).
    pub fn with_capacity(reader: R, chunk_rows: usize, refill_bytes: usize) -> Result<Self> {
        let mut chunks = CsvChunks {
            reader,
            buf: Vec::new(),
            pos: 0,
            refill_bytes: refill_bytes.max(1),
            eof: false,
            machine: RecordMachine::new(),
            header: Vec::new(),
            chunk_rows: chunk_rows.max(1),
            lookahead: None,
            rows_read: 0,
            finished: false,
        };
        match chunks.next_raw()? {
            Some((fields, _)) => chunks.header = fields,
            None => {
                return Err(TableError::Csv {
                    line: 1,
                    what: "missing header row",
                })
            }
        }
        Ok(chunks)
    }

    /// Header field names in file order.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows yielded so far (the header is not counted).
    pub fn rows_read(&self) -> usize {
        self.rows_read
    }

    /// Next record straight off the machine, refilling as needed.
    fn next_raw(&mut self) -> Result<Option<(Vec<String>, usize)>> {
        loop {
            if self.pos < self.buf.len() {
                let data = self.buf.get(self.pos..).unwrap_or(&[]);
                let (used, rec) = self.machine.feed(data)?;
                self.pos += used;
                if let Some(r) = rec {
                    return Ok(Some(r));
                }
                continue;
            }
            if self.eof {
                return self.machine.finish();
            }
            self.buf.clear();
            self.buf.resize(self.refill_bytes, 0);
            self.pos = 0;
            let n = self
                .reader
                .read(&mut self.buf)
                .map_err(|e| TableError::Io(e.to_string()))?;
            self.buf.truncate(n);
            if n == 0 {
                self.eof = true;
            }
        }
    }

    /// Next arity-checked data row (with its starting line), applying the
    /// phantom-trailing-empty-record rule.
    fn next_row(&mut self) -> Result<Option<(Vec<String>, usize)>> {
        let rec = match self.lookahead.take() {
            Some(r) => Some(r),
            None => self.next_raw()?,
        };
        let Some((fields, line)) = rec else {
            return Ok(None);
        };
        if fields.len() == 1 && fields.first().is_some_and(String::is_empty) {
            // A lone empty field is either a phantom record from a bare
            // trailing newline (drop it) or a real empty line mid-file
            // (fall through to the arity check below).
            match self.next_raw()? {
                None => return Ok(None),
                Some(next) => self.lookahead = Some(next),
            }
        }
        if fields.len() != self.header.len() {
            return Err(TableError::CsvRagged {
                line,
                expected: self.header.len(),
                found: fields.len(),
            });
        }
        self.rows_read += 1;
        Ok(Some((fields, line)))
    }

    /// Up to `chunk_rows` rows, or `None` once the input is exhausted.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<Vec<String>>>> {
        if self.finished {
            return Ok(None);
        }
        let mut rows = Vec::new();
        while rows.len() < self.chunk_rows {
            match self.next_row()? {
                Some((fields, _)) => rows.push(fields),
                None => {
                    self.finished = true;
                    break;
                }
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        Ok(Some(rows))
    }
}

/// Per-column accumulation buffer for typed row-to-column conversion.
pub(crate) enum ColBuf {
    Cat(CatBuilder),
    Num(Vec<f64>),
}

/// One empty buffer per schema column.
pub(crate) fn col_bufs(schema: &Schema) -> Vec<ColBuf> {
    schema
        .fields()
        .iter()
        .map(|f| match f.ty {
            ColumnType::Categorical => ColBuf::Cat(CatBuilder::default()),
            ColumnType::Numeric => ColBuf::Num(Vec::new()),
        })
        .collect()
}

/// Appends string rows into typed column buffers. `base_row` is the
/// 0-based table row index of `rows[0]`, used for parse-error positions.
pub(crate) fn append_rows(
    bufs: &mut [ColBuf],
    rows: Vec<Vec<String>>,
    base_row: usize,
) -> Result<()> {
    for (r, row) in rows.into_iter().enumerate() {
        if row.len() != bufs.len() {
            return Err(TableError::InvalidParameter(
                "record arity does not match schema",
            ));
        }
        for (col, (value, buf)) in row.into_iter().zip(bufs.iter_mut()).enumerate() {
            match buf {
                ColBuf::Cat(v) => v.push(&value),
                ColBuf::Num(v) => {
                    let parsed = value.trim().parse::<f64>().map_err(|_| TableError::Parse {
                        row: base_row + r,
                        col,
                        what: "not a number",
                    })?;
                    v.push(parsed);
                }
            }
        }
    }
    Ok(())
}

/// Finalizes typed column buffers into a table.
pub(crate) fn bufs_into_table(schema: Schema, bufs: Vec<ColBuf>) -> Result<Table> {
    let columns = bufs
        .into_iter()
        .map(|b| match b {
            ColBuf::Cat(v) => Column::Cat(v.finish()),
            ColBuf::Num(v) => Column::Num(v),
        })
        .collect();
    Table::new(schema, columns)
}

/// The schema-inference cell test: a cell is numeric iff, trimmed, it
/// parses as a finite `f64`. [`TypeInference`] applies it to every cell.
pub fn numeric_cell(cell: &str) -> Option<f64> {
    cell.trim().parse::<f64>().ok().filter(|x| x.is_finite())
}

/// The one column-type rule for CSV input, the "metadata specifying the
/// column types" of §3.1: header names are non-empty and distinct
/// (checked by [`TypeInference::new`], before any data row is read), and a
/// column is numeric iff the file has rows and no cell of it failed
/// [`numeric_cell`]. `read_csv_infer`, ds-core's source sniffing and its
/// streaming CSV ingest all fold their cells through one of these.
pub struct TypeInference {
    names: Vec<String>,
    failures: Vec<u64>,
}

impl TypeInference {
    /// Checks the header names and starts with no cell seen.
    pub fn new(header: &[String]) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        if let Some(name) = header
            .iter()
            .find(|h| h.is_empty() || !seen.insert(h.as_str()))
        {
            let what = if name.is_empty() {
                "empty column name in header"
            } else {
                "duplicate column name in header"
            };
            return Err(TableError::Csv { line: 1, what });
        }
        Ok(TypeInference {
            names: header.to_vec(),
            failures: vec![0; header.len()],
        })
    }

    /// Tests one cell of column `col`: its value when it is a
    /// [`numeric_cell`], else `None` (and the column can no longer be
    /// numeric). Inlined: streaming ingest calls it once per cell.
    #[inline]
    pub fn cell(&mut self, col: usize, value: &str) -> Option<f64> {
        let x = numeric_cell(value);
        if let (None, Some(failures)) = (x, self.failures.get_mut(col)) {
            *failures += 1;
        }
        x
    }

    /// Tests every cell of every record.
    pub fn records(&mut self, records: &[Vec<String>]) {
        for record in records {
            for (col, value) in record.iter().enumerate() {
                self.cell(col, value);
            }
        }
    }

    /// The schema of a file of `rows` data rows whose cells were all
    /// tested.
    pub fn finish(self, rows: usize) -> Result<Schema> {
        let fields = self
            .names
            .into_iter()
            .zip(self.failures)
            .map(|(name, failures)| {
                if rows > 0 && failures == 0 {
                    Field::numeric(name)
                } else {
                    Field::categorical(name)
                }
            })
            .collect();
        Schema::new(fields)
    }
}

/// Parses CSV text inferring the schema by the [`TypeInference`] rule.
/// Header row required.
pub fn read_csv_infer(data: &str) -> Result<Table> {
    let mut chunks = CsvChunks::new(data.as_bytes(), WHOLE_FILE_CHUNK_ROWS)?;
    let mut types = TypeInference::new(chunks.header())?;
    let mut records = Vec::new();
    while let Some(rows) = chunks.next_chunk()? {
        types.records(&rows);
        records.extend(rows);
    }
    let schema = types.finish(records.len())?;
    crate::stream::rows_to_table(&schema, records, 0)
}

/// Checks a CSV header against the schema a reader was given: the same
/// names in the same order.
pub(crate) fn check_header(header: &[String], schema: &Schema) -> Result<()> {
    let what = if header.len() != schema.len() {
        "header arity does not match schema"
    } else if header
        .iter()
        .zip(schema.fields())
        .any(|(h, f)| h != &f.name)
    {
        "header name does not match schema"
    } else {
        return Ok(());
    };
    Err(TableError::Csv { line: 1, what })
}

/// Parses CSV text into a [`Table`] under an explicit schema (header row
/// required; column order must match the schema).
pub fn read_csv(data: &str, schema: Schema) -> Result<Table> {
    let mut chunks = CsvChunks::new(data.as_bytes(), WHOLE_FILE_CHUNK_ROWS)?;
    check_header(chunks.header(), &schema)?;
    let mut bufs = col_bufs(&schema);
    let mut base_row = 0usize;
    while let Some(rows) = chunks.next_chunk()? {
        let n = rows.len();
        append_rows(&mut bufs, rows, base_row)?;
        base_row += n;
    }
    bufs_into_table(schema, bufs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![Field::categorical("name"), Field::numeric("score")]).unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        let t = Table::from_columns(vec![
            ("name".into(), Column::cat(["alice", "bob"])),
            ("score".into(), Column::Num(vec![1.5, -2.0])),
        ])
        .unwrap();
        let csv = write_csv(&t);
        assert_eq!(csv, "name,score\nalice,1.5\nbob,-2\n");
        assert_eq!(csv.len(), t.raw_size());
        let back = read_csv(&csv, t.schema().clone()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn quoting_roundtrip() {
        let tricky = vec![
            "has,comma".to_string(),
            "has \"quotes\"".to_string(),
            "has\nnewline".to_string(),
            "plain".to_string(),
            String::new(),
        ];
        let t = Table::from_columns(vec![
            ("name".into(), Column::cat(&tricky)),
            ("score".into(), Column::Num(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
        ])
        .unwrap();
        let csv = write_csv(&t);
        assert_eq!(csv.len(), t.raw_size());
        let back = read_csv(&csv, t.schema().clone()).unwrap();
        let cells: Vec<&str> = back.column(0).unwrap().as_cat().unwrap().iter().collect();
        assert_eq!(cells, tricky);
    }

    #[test]
    fn crlf_tolerated() {
        let back = read_csv("name,score\r\nx,1\r\ny,2\r\n", schema()).unwrap();
        assert_eq!(back.nrows(), 2);
    }

    #[test]
    fn structural_errors_reported_with_lines() {
        // Ragged rows carry the line plus both arities.
        assert!(matches!(
            read_csv("name,score\nonly_one_field\n", schema()),
            Err(TableError::CsvRagged {
                line: 2,
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            read_csv("name,score\nx,1\na,b,c\ny,2\n", schema()),
            Err(TableError::CsvRagged {
                line: 3,
                expected: 2,
                found: 3
            })
        ));
        assert!(matches!(
            read_csv("wrong,header\nx,1\n", schema()),
            Err(TableError::Csv { line: 1, .. })
        ));
        assert!(matches!(
            read_csv("name,score\n\"unterminated,1\n", schema()),
            Err(TableError::Csv { line: 2, .. })
        ));
    }

    #[test]
    fn bad_escapes_located_by_physical_line() {
        // Stray quote inside an unquoted field.
        assert!(matches!(
            read_csv("name,score\nx,1\nab\"cd,2\n", schema()),
            Err(TableError::Csv { line: 3, .. })
        ));
        // Data after a closing quote.
        assert!(matches!(
            read_csv("name,score\n\"x\"y,1\n", schema()),
            Err(TableError::Csv { line: 2, .. })
        ));
        // Unterminated quote reports the line the quote opened on, even
        // when the field has already swallowed later newlines.
        assert!(matches!(
            read_csv("name,score\nx,1\n\"a\nb\nc", schema()),
            Err(TableError::Csv { line: 3, .. })
        ));
        // The line counter follows embedded newlines in quoted fields:
        // the record on physical lines 2-3 is fine, the ragged record
        // after it sits on physical line 4.
        assert!(matches!(
            read_csv("name,score\n\"a\nb\",1\nonly_one\n", schema()),
            Err(TableError::CsvRagged { line: 4, .. })
        ));
    }

    #[test]
    fn numeric_parse_errors_located() {
        assert!(matches!(
            read_csv("name,score\nx,notanumber\n", schema()),
            Err(TableError::Parse { row: 0, col: 1, .. })
        ));
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let back = read_csv("name,score\nx,1", schema()).unwrap();
        assert_eq!(back.nrows(), 1);
    }

    #[test]
    fn schema_inference() {
        let t = read_csv_infer("name,score,count\nalice,1.5,3\nbob,-2,4\n").unwrap();
        assert_eq!(t.type_counts(), (1, 2));
        assert_eq!(
            t.column_by_name("score").unwrap().as_num().unwrap(),
            &[1.5, -2.0]
        );
        // A single non-numeric cell makes the column categorical.
        let t = read_csv_infer("a,b\n1,x\n2,3\n").unwrap();
        assert_eq!(t.type_counts(), (1, 1));
        // Empty table: zero rows, all columns categorical by convention.
        let t = read_csv_infer("a,b\n").unwrap();
        assert_eq!(t.nrows(), 0);
        assert_eq!(t.type_counts(), (2, 0));
    }

    #[test]
    fn inference_rejects_blank_headers() {
        assert!(read_csv_infer(",b\n1,2\n").is_err());
    }

    #[test]
    fn empty_line_handling_matches_whole_file_rules() {
        // A bare trailing newline is not a row.
        let t = read_csv_infer("a\nx\n\n").unwrap();
        assert_eq!(t.nrows(), 1);
        // A mid-file empty line is a real (empty) row for 1-column data...
        let t = read_csv_infer("a\nx\n\ny\n").unwrap();
        assert_eq!(t.nrows(), 3);
        // ...and a ragged row for wider schemas.
        assert!(matches!(
            read_csv("name,score\n\nx,1\n", schema()),
            Err(TableError::CsvRagged {
                line: 2,
                found: 1,
                ..
            })
        ));
    }

    #[test]
    fn chunked_reader_reassembles_with_tiny_refills() {
        // Quoted fields with embedded commas/newlines/quotes, forced
        // across both chunk and refill boundaries.
        let data = "name,score\n\"a,\"\"b\"\"\n c\",1\nplain,2\n\"d\ne\",3\n";
        let whole = read_csv(data, schema()).unwrap();
        for chunk_rows in [1, 2, 7] {
            for refill in [1, 2, 3, 64] {
                let mut chunks =
                    CsvChunks::with_capacity(data.as_bytes(), chunk_rows, refill).unwrap();
                assert_eq!(chunks.header(), ["name", "score"]);
                let mut bufs = col_bufs(&schema());
                let mut base = 0usize;
                while let Some(rows) = chunks.next_chunk().unwrap() {
                    assert!(rows.len() <= chunk_rows);
                    let n = rows.len();
                    append_rows(&mut bufs, rows, base).unwrap();
                    base += n;
                }
                assert_eq!(chunks.rows_read(), whole.nrows());
                let t = bufs_into_table(schema(), bufs).unwrap();
                assert_eq!(t, whole, "chunk_rows={chunk_rows} refill={refill}");
            }
        }
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(matches!(
            read_csv_infer(""),
            Err(TableError::Csv { line: 1, .. })
        ));
    }

    #[test]
    fn escaped_len_matches_writer() {
        for s in ["plain", "a,b", "q\"q", "nl\nnl", "", "ünïcödé, too"] {
            let mut out = String::new();
            write_field(&mut out, s);
            assert_eq!(out.len(), escaped_len(s), "field {s:?}");
        }
    }
}
