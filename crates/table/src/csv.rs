//! Minimal RFC-4180-style CSV reader/writer.
//!
//! Handles quoting (fields containing commas, quotes, or newlines are
//! wrapped in double quotes with internal quotes doubled). The writer's
//! output length is exactly what [`crate::Table::raw_size`] reports.
//!
//! Reading is built on one resumable record machine shared by the
//! whole-file entry points ([`read_csv`], [`read_csv_infer`]) and the
//! streaming chunk reader ([`CsvChunks`]): both paths parse byte for byte
//! identically, and structural errors carry the 1-based *physical* line
//! number where they were detected (quoted fields may span lines, so the
//! line counter follows every `\n`, not the record count). A chunk of
//! records is one buffer of field text plus field offsets ([`CsvChunk`]),
//! typed into columns one pool task per column.

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

/// A byte that forces the field holding it to be quoted.
fn special(b: u8) -> bool {
    matches!(b, b',' | b'"' | b'\n' | b'\r')
}

fn needs_quoting(field: &str) -> bool {
    field.bytes().any(special)
}

fn write_field(out: &mut String, field: &str) {
    match field.as_bytes() {
        // One plain byte (flags, small labels): no scan and no copy call.
        &[b] if !special(b) => out.push(char::from(b)),
        _ if needs_quoting(field) => {
            out.push('"');
            for ch in field.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        }
        _ => out.push_str(field),
    }
}

/// Serializes a table to CSV (header row + data rows, `\n` line endings).
/// Every cell is rendered once: the buffer grows as it fills rather than
/// being sized up front by [`Table::raw_size`], which renders every
/// number too.
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    write_csv_header(table.schema(), &mut out);
    write_csv_rows(table, 0..table.nrows(), &mut out);
    // Growth by doubling can leave up to half of a large buffer unused;
    // hand the text back at its exact size, as the up-front sizing did.
    out.shrink_to_fit();
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

/// Chunk granularity of [`read_csv`]: typed conversion of one chunk runs
/// after the whole chunk has parsed, so this also fixes which of a
/// structural and a numeric error in the same file is reported.
const WHOLE_FILE_CHUNK_ROWS: usize = 4096;

/// The bytes that end an unquoted run: `,` `\n` `\r` `"`, as a bit set
/// over byte values below 64.
const UNQUOTED_STOP: u64 = 1 << b',' | 1 << b'\n' | 1 << b'\r' | 1 << b'"';

fn ends_unquoted_run(b: u8) -> bool {
    b < 64 && (UNQUOTED_STOP >> b) & 1 == 1
}

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

/// Records as the record machine leaves them: every field's content
/// (unescaped) followed by one separator byte (`,` inside a record, `\n`
/// after its last field), and the end offset of every field, row-major.
/// Field `i` spans `ends[i - 1] + 1 .. ends[i]` (field 0 starts at 0).
#[derive(Debug, Default)]
struct Fields {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

/// Where field `i` starts, given the end offsets of the fields before it
/// (each field is followed by one separator byte).
fn field_start(ends: &[usize], i: usize) -> usize {
    i.checked_sub(1)
        .and_then(|prev| ends.get(prev))
        .map_or(0, |&e| e.saturating_add(1))
}

impl Fields {
    fn start(&self, i: usize) -> usize {
        field_start(&self.ends, i)
    }

    /// Whether field `i` exists and is empty.
    fn is_empty_field(&self, i: usize) -> bool {
        self.ends.get(i) == Some(&self.start(i))
    }

    /// Drops field `i` and every field after it.
    fn truncate(&mut self, i: usize) {
        self.bytes.truncate(self.start(i));
        self.ends.truncate(i);
    }

    /// Moves field `i` and every field after it into a new buffer.
    fn split_off(&mut self, i: usize) -> Fields {
        let at = self.start(i);
        let bytes = self.bytes.split_off(at.min(self.bytes.len()));
        let ends = self
            .ends
            .split_off(i.min(self.ends.len()))
            .into_iter()
            .map(|e| e.saturating_sub(at))
            .collect();
        Fields { bytes, ends }
    }
}

/// Resumable one-record CSV splitter. Feed it byte slices in any
/// segmentation; it appends each field's unescaped bytes to a [`Fields`]
/// and reports every completed record with the physical line it started
/// on. State (including a half-seen `""` escape, a quoted field spanning
/// buffers, or a `\r` at the end of one) carries across `feed` calls, so
/// chunked input parses identically to whole-file input by construction.
///
/// A `\r` is dropped only as the first byte of a `\r\n` terminator; any
/// other `\r` is data, like every byte inside quotes.
#[derive(Debug)]
struct RecordMachine {
    state: State,
    /// The last byte fed was a `\r` outside quotes; the next byte decides
    /// whether it was half a `\r\n` terminator or data.
    cr_pending: bool,
    /// The current field holds a byte >= 0x80, so it is checked as UTF-8
    /// when it ends.
    non_ascii: bool,
    /// Offset in the output buffer where the current field starts.
    field_start: usize,
    /// At least one field of the in-progress record has ended.
    in_record: bool,
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
            cr_pending: false,
            non_ascii: false,
            field_start: 0,
            in_record: false,
            line: 1,
            record_line: 1,
            quote_line: 1,
        }
    }

    /// Starts the next record at the end of `out`.
    fn start(&mut self, out: &Fields) {
        self.field_start = out.bytes.len();
    }

    fn error(&self, what: &'static str) -> TableError {
        TableError::Csv {
            line: self.line,
            what,
        }
    }

    fn end_field(&mut self, out: &mut Fields, separator: u8) -> Result<()> {
        if self.non_ascii {
            let field = out.bytes.get(self.field_start..).unwrap_or_default();
            if std::str::from_utf8(field).is_err() {
                return Err(self.error("invalid UTF-8 in field"));
            }
            self.non_ascii = false;
        }
        out.ends.push(out.bytes.len());
        out.bytes.push(separator);
        self.field_start = out.bytes.len();
        self.state = State::FieldStart;
        self.in_record = true;
        Ok(())
    }

    /// Completes the record at a `\n` terminator; returns its line.
    fn flush_record(&mut self, out: &mut Fields) -> Result<usize> {
        self.end_field(out, b'\n')?;
        Ok(self.close_record())
    }

    /// Moves past a record's `\n`; returns the line the record started on.
    fn close_record(&mut self) -> usize {
        self.in_record = false;
        let line = self.record_line;
        self.line += 1;
        self.record_line = self.line;
        line
    }

    /// A `\r` outside quotes that no `\n` follows: data in an unquoted
    /// field, an error after a closing quote.
    fn bare_cr(&mut self, out: &mut Fields) -> Result<()> {
        if self.state == State::QuoteClosed {
            return Err(self.error("data after closing quote"));
        }
        out.bytes.push(b'\r');
        self.state = State::Unquoted;
        Ok(())
    }

    /// The fast path for a whole record at the start of `data` with no
    /// quote, no `\r` and no byte >= 0x80: such a record's bytes are
    /// already in the output form (fields, `,`, `\n`), so it is copied in
    /// one piece and only its commas are looked at. Returns the bytes it
    /// took, or `None` (and leaves `out` as it was) for anything else,
    /// which the byte machine then parses.
    fn plain_record(&mut self, data: &[u8], out: &mut Fields) -> Option<usize> {
        let base = out.bytes.len();
        let mark = out.ends.len();
        for (i, &b) in data.iter().enumerate() {
            if b < 0x80 && !ends_unquoted_run(b) {
                continue;
            }
            match b {
                b',' => out.ends.push(base.saturating_add(i)),
                b'\n' => {
                    out.ends.push(base.saturating_add(i));
                    let used = i.saturating_add(1);
                    out.bytes
                        .extend_from_slice(data.get(..used).unwrap_or_default());
                    return Some(used);
                }
                _ => break,
            }
        }
        out.ends.truncate(mark);
        None
    }

    /// Consumes bytes until a record completes or `data` runs out.
    /// Returns how many bytes were consumed and the completed record's
    /// line, if any.
    fn feed(&mut self, data: &[u8], out: &mut Fields) -> Result<(usize, Option<usize>)> {
        let at_record_start = self.state == State::FieldStart && !self.in_record;
        if at_record_start && !self.cr_pending {
            if let Some(used) = self.plain_record(data, out) {
                return Ok((used, Some(self.close_record())));
            }
        }
        if self.cr_pending && !data.is_empty() {
            self.cr_pending = false;
            if data.first() != Some(&b'\n') {
                self.bare_cr(out)?;
            }
        }
        let mut i = 0usize;
        while let Some(&b) = data.get(i) {
            match self.state {
                State::FieldStart | State::Unquoted => {
                    // Plain bytes are copied as one run.
                    let mut j = i;
                    let mut seen = 0u8;
                    while let Some(&c) = data.get(j) {
                        if ends_unquoted_run(c) {
                            break;
                        }
                        seen |= c;
                        j += 1;
                    }
                    if j > i {
                        out.bytes
                            .extend_from_slice(data.get(i..j).unwrap_or_default());
                        self.non_ascii |= seen >= 0x80;
                        self.state = State::Unquoted;
                        i = j;
                        continue;
                    }
                    i += 1;
                    match b {
                        b',' => self.end_field(out, b',')?,
                        b'\n' => return Ok((i, Some(self.flush_record(out)?))),
                        b'\r' => self.cr(data.get(i), out)?,
                        _ if self.state == State::FieldStart => {
                            self.state = State::Quoted;
                            self.quote_line = self.line;
                        }
                        _ => return Err(self.error("stray quote in unquoted field")),
                    }
                }
                State::Quoted => {
                    let mut j = i;
                    let mut seen = 0u8;
                    while let Some(&c) = data.get(j) {
                        if c == b'"' || c == b'\n' {
                            break;
                        }
                        seen |= c;
                        j += 1;
                    }
                    if j > i {
                        out.bytes
                            .extend_from_slice(data.get(i..j).unwrap_or_default());
                        self.non_ascii |= seen >= 0x80;
                        i = j;
                        continue;
                    }
                    i += 1;
                    if b == b'"' {
                        self.state = State::QuoteClosed;
                    } else {
                        out.bytes.push(b'\n');
                        self.line += 1;
                    }
                }
                State::QuoteClosed => {
                    i += 1;
                    match b {
                        b'"' => {
                            // Doubled quote: literal `"` inside the field.
                            out.bytes.push(b'"');
                            self.state = State::Quoted;
                        }
                        b',' => self.end_field(out, b',')?,
                        b'\n' => return Ok((i, Some(self.flush_record(out)?))),
                        b'\r' => self.cr(data.get(i), out)?,
                        _ => return Err(self.error("data after closing quote")),
                    }
                }
            }
        }
        Ok((i, None))
    }

    /// A `\r` outside quotes, given the byte after it in this buffer: half
    /// a `\r\n` terminator (dropped; the `\n` ends the record), data, or —
    /// at the end of the buffer — undecided until the next byte.
    fn cr(&mut self, next: Option<&u8>, out: &mut Fields) -> Result<()> {
        match next {
            Some(b'\n') => Ok(()),
            Some(_) => self.bare_cr(out),
            None => {
                self.cr_pending = true;
                Ok(())
            }
        }
    }

    /// Flushes the final record at end of input (no trailing newline);
    /// returns its line.
    fn finish(&mut self, out: &mut Fields) -> Result<Option<usize>> {
        if std::mem::take(&mut self.cr_pending) {
            self.bare_cr(out)?;
        }
        match self.state {
            State::Quoted => Err(TableError::Csv {
                line: self.quote_line,
                what: "unterminated quoted field",
            }),
            State::FieldStart if !self.in_record => Ok(None),
            _ => {
                self.end_field(out, b'\n')?;
                self.in_record = false;
                let line = self.record_line;
                self.record_line = self.line;
                Ok(Some(line))
            }
        }
    }
}

/// One chunk of CSV records in the form the record machine leaves them:
/// one byte buffer holding every field's unescaped text, each followed
/// by one separator byte, plus one end offset per field, row-major. No
/// per-cell allocation; typing a chunk into columns
/// ([`CsvChunk::to_table`]) runs one pool task per column.
#[derive(Debug, Clone)]
pub struct CsvChunk {
    text: String,
    ends: Vec<usize>,
    ncols: usize,
}

impl CsvChunk {
    /// A chunk of `ncols` columns and no rows, to append rows to.
    pub fn empty(ncols: usize) -> CsvChunk {
        CsvChunk {
            text: String::new(),
            ends: Vec::new(),
            ncols: ncols.max(1),
        }
    }

    /// Records parsed by the machine, every one `ncols` fields wide.
    fn from_fields(fields: Fields, ncols: usize, line: usize) -> Result<CsvChunk> {
        // Every field was checked as UTF-8 when it ended, and separators
        // are ASCII, so this cannot fail.
        let text = String::from_utf8(fields.bytes).map_err(|_| TableError::Csv {
            line,
            what: "invalid UTF-8 in field",
        })?;
        Ok(CsvChunk {
            text,
            ends: fields.ends,
            ncols: ncols.max(1),
        })
    }

    /// Rows in the chunk.
    pub fn nrows(&self) -> usize {
        self.ends.len() / self.ncols
    }

    /// Bytes the chunk holds: its text plus its offsets.
    pub fn mem_size(&self) -> usize {
        let offsets = self.ends.len().saturating_mul(std::mem::size_of::<usize>());
        self.text.len().saturating_add(offsets)
    }

    /// The field at row-major index `i`.
    fn field(&self, i: usize) -> &str {
        let end = self.ends.get(i).copied().unwrap_or(0);
        let start = field_start(&self.ends, i);
        self.text.get(start..end).unwrap_or_default()
    }

    /// The cells of column `col`, in row order (none when `col` is out of
    /// range).
    pub fn column(&self, col: usize) -> impl Iterator<Item = &str> + '_ {
        let first = if col < self.ncols {
            col
        } else {
            self.ends.len()
        };
        (first..self.ends.len())
            .step_by(self.ncols)
            .map(move |i| self.field(i))
    }

    /// Appends the contiguous `rows` of `other` (same width) to this chunk.
    pub fn push_rows(&mut self, other: &CsvChunk, rows: std::ops::Range<usize>) {
        let first = rows.start.saturating_mul(other.ncols);
        let last = rows.end.min(other.nrows()).saturating_mul(other.ncols);
        if other.ncols != self.ncols || first >= last {
            return;
        }
        let from = field_start(&other.ends, first);
        let to = field_start(&other.ends, last);
        let at = self.text.len();
        self.text
            .push_str(other.text.get(from..to).unwrap_or_default());
        let ends = other.ends.get(first..last).unwrap_or_default();
        self.ends.extend(
            ends.iter()
                .map(|&e| e.saturating_sub(from).saturating_add(at)),
        );
    }

    /// Parses column `col` cell by cell with [`numeric_cell`], handing
    /// each value to `f`, and stops at the first cell that is not numeric:
    /// returns that cell's row, or `None` when every cell parsed.
    pub fn numeric_column(&self, col: usize, mut f: impl FnMut(f64)) -> Option<usize> {
        for (row, cell) in self.column(col).enumerate() {
            match numeric_cell(cell) {
                Some(x) => f(x),
                None => return Some(row),
            }
        }
        None
    }

    /// Types column `col`: numbers by [`parse_number`], or categorical
    /// codes. A numeric cell that does not parse is returned as its row.
    fn typed_column(&self, col: usize, ty: ColumnType) -> std::result::Result<Column, usize> {
        match ty {
            ColumnType::Numeric => {
                let mut values = Vec::with_capacity(self.nrows());
                for (row, cell) in self.column(col).enumerate() {
                    values.push(parse_number(cell).ok_or(row)?);
                }
                Ok(Column::Num(values))
            }
            ColumnType::Categorical => {
                let mut b = CatBuilder::with_capacity(self.nrows());
                for cell in self.column(col) {
                    b.push(cell);
                }
                Ok(Column::Cat(b.finish()))
            }
        }
    }

    /// The chunk typed under `schema`, one pool task per column. `base_row`
    /// is the 0-based table row index of the chunk's first row: a numeric
    /// cell that does not parse is [`TableError::Parse`] at its table row
    /// (the first such cell in row-major order).
    pub fn to_table(&self, schema: &Schema, base_row: usize) -> Result<Table> {
        if schema.len() != self.ncols {
            return Err(TableError::InvalidParameter(
                "record arity does not match schema",
            ));
        }
        let fields = schema.fields();
        let typed = ds_exec::parallel_map(self.ncols, |col| {
            let ty = fields.get(col).map_or(ColumnType::Categorical, |f| f.ty);
            self.typed_column(col, ty)
        });
        let mut columns = Vec::with_capacity(typed.len());
        let mut first_bad: Option<(usize, usize)> = None;
        for (col, result) in typed.into_iter().enumerate() {
            match result {
                Ok(column) => columns.push(column),
                Err(row) if first_bad.is_none_or(|(r, _)| row < r) => {
                    first_bad = Some((row, col));
                }
                Err(_) => {}
            }
        }
        if let Some((row, col)) = first_bad {
            return Err(TableError::Parse {
                row: base_row.saturating_add(row),
                col,
                what: "not a number",
            });
        }
        Table::new(schema.clone(), columns)
    }
}

/// Streaming CSV reader yielding records in chunks of up to `chunk_rows`.
///
/// Parses the header eagerly at construction, then hands out one
/// [`CsvChunk`] per [`CsvChunks::next_chunk`] call, holding at most one
/// refill buffer plus one chunk in memory. Every row is arity-checked
/// against the header ([`TableError::CsvRagged`] with the offending
/// 1-based line). A file ending in a bare final newline does not produce a
/// phantom empty row (one-field-empty records are held back one record
/// and dropped at end of input, matching the whole-file parser).
pub struct CsvChunks<R: std::io::Read> {
    reader: R,
    buf: Vec<u8>,
    pos: usize,
    refill_bytes: usize,
    eof: bool,
    machine: RecordMachine,
    header: Vec<String>,
    chunk_rows: usize,
    /// A record parsed past the end of the previous chunk (the lookahead
    /// behind the phantom-record rule), with its line.
    carry: Fields,
    carry_line: Option<usize>,
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
            carry: Fields::default(),
            carry_line: None,
            rows_read: 0,
            finished: false,
        };
        let mut header = Fields::default();
        if chunks.next_raw(&mut header)?.is_none() {
            return Err(TableError::Csv {
                line: 1,
                what: "missing header row",
            });
        }
        let names = CsvChunk::from_fields(header, 1, 1)?;
        chunks.header = names.column(0).map(str::to_owned).collect();
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

    /// Appends the next record straight off the machine to `out`,
    /// refilling as needed; returns the line it started on.
    fn next_raw(&mut self, out: &mut Fields) -> Result<Option<usize>> {
        self.machine.start(out);
        loop {
            if self.pos < self.buf.len() {
                let data = self.buf.get(self.pos..).unwrap_or_default();
                let (used, line) = self.machine.feed(data, out)?;
                self.pos = self.pos.saturating_add(used);
                if line.is_some() {
                    return Ok(line);
                }
                continue;
            }
            if self.eof {
                return self.machine.finish(out);
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

    /// Up to `chunk_rows` arity-checked rows, or `None` once the input is
    /// exhausted.
    pub fn next_chunk(&mut self) -> Result<Option<CsvChunk>> {
        if self.finished {
            return Ok(None);
        }
        let ncols = self.header.len();
        let mut out = std::mem::take(&mut self.carry);
        // A record already in `out`, right after the accepted rows.
        let mut pending = self.carry_line.take();
        // Index of the first field of the record being checked.
        let mut first = 0usize;
        let mut taken = 0usize;
        let mut last_line = self.machine.line;
        while taken < self.chunk_rows {
            let line = match pending.take() {
                Some(line) => line,
                None => match self.next_raw(&mut out)? {
                    Some(line) => line,
                    None => {
                        self.finished = true;
                        break;
                    }
                },
            };
            let found = out.ends.len().saturating_sub(first);
            if found == 1 && out.is_empty_field(first) {
                // A lone empty field is either a phantom record from a
                // bare trailing newline (drop it) or a real empty line
                // mid-file (fall through to the arity check below).
                match self.next_raw(&mut out)? {
                    None => {
                        out.truncate(first);
                        self.finished = true;
                        break;
                    }
                    Some(next) => pending = Some(next),
                }
            }
            if found != ncols {
                return Err(TableError::CsvRagged {
                    line,
                    expected: ncols,
                    found,
                });
            }
            first = first.saturating_add(ncols);
            taken += 1;
            last_line = line;
        }
        self.rows_read = self.rows_read.saturating_add(taken);
        if let Some(line) = pending {
            self.carry = out.split_off(first);
            self.carry_line = Some(line);
        }
        if taken == 0 {
            return Ok(None);
        }
        CsvChunk::from_fields(out, ncols, last_line).map(Some)
    }
}

/// Exact powers of ten up to 10^22, the largest a `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Clinger's fast path for a plain decimal `-?d+(.d+)?`: when its digits
/// form an integer of at most 2^53 and it has at most 22 fraction digits,
/// the value is one exact integer divided by one exact power of ten, and
/// the single correctly rounded division gives the bits `str::parse`
/// gives. Anything else is `None` (the caller falls back to `str::parse`).
fn plain_decimal(s: &[u8]) -> Option<f64> {
    let (negative, digits) = match s.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, s),
    };
    let mut mantissa = 0u64;
    let mut ndigits = 0u32;
    let mut point: Option<u32> = None;
    for &b in digits {
        match b {
            b'0'..=b'9' if ndigits < 19 => {
                mantissa = mantissa * 10 + u64::from(b - b'0');
                ndigits += 1;
            }
            b'.' if point.is_none() && ndigits > 0 => point = Some(ndigits),
            _ => return None,
        }
    }
    let scale = ndigits - point.unwrap_or(ndigits);
    if ndigits == 0 || point == Some(ndigits) || mantissa > 1 << 53 {
        return None;
    }
    let v = mantissa as f64 / POW10.get(scale as usize)?;
    Some(if negative { -v } else { v })
}

/// The one number parser of CSV input: the cell, trimmed, as an `f64`,
/// bit for bit what `str::parse::<f64>` returns (plain decimals take
/// [`plain_decimal`]'s exact shortcut). Schema inference and typed
/// conversion both call it, so a cell's value is the same in either pass.
pub fn parse_number(cell: &str) -> Option<f64> {
    let cell = cell.trim();
    plain_decimal(cell.as_bytes()).or_else(|| cell.parse().ok())
}

/// The schema-inference cell test: a cell is numeric iff it is a finite
/// [`parse_number`].
pub fn numeric_cell(cell: &str) -> Option<f64> {
    parse_number(cell).filter(|x| x.is_finite())
}

/// The one column-type rule for CSV input, the "metadata specifying the
/// column types" of §3.1: header names are non-empty and distinct
/// (checked by [`TypeInference::new`], before any data row is read), and a
/// column is numeric iff the file has rows and no cell of it failed
/// [`numeric_cell`]. `read_csv_infer`, ds-core's source sniffing and its
/// streaming CSV ingest all resolve their types through one of these.
/// Testing is numeric-first: once a column has failed, its later cells
/// are not parsed again.
pub struct TypeInference {
    names: Vec<String>,
    numeric: Vec<bool>,
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
            numeric: vec![true; header.len()],
        })
    }

    /// Whether every cell of column `col` tested so far is numeric.
    fn is_numeric(&self, col: usize) -> bool {
        self.numeric.get(col).copied().unwrap_or(false)
    }

    /// Records that a cell of column `col` failed [`numeric_cell`].
    pub fn fail(&mut self, col: usize) {
        if let Some(numeric) = self.numeric.get_mut(col) {
            *numeric = false;
        }
    }

    /// Tests a chunk: one pool task per column still numeric, up to its
    /// first cell that fails.
    pub fn chunk(&mut self, chunk: &CsvChunk) {
        let failed = ds_exec::parallel_map(self.numeric.len(), |col| {
            self.is_numeric(col) && chunk.numeric_column(col, |_| {}).is_some()
        });
        for (col, failed) in failed.into_iter().enumerate() {
            if failed {
                self.fail(col);
            }
        }
    }

    /// The schema of a file of `rows` data rows whose cells were all
    /// tested.
    pub fn finish(self, rows: usize) -> Result<Schema> {
        let fields = self
            .names
            .into_iter()
            .zip(self.numeric)
            .map(|(name, numeric)| {
                if rows > 0 && numeric {
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
/// Header row required. The whole text is one chunk: inference must see
/// every row before any is typed.
pub fn read_csv_infer(data: &str) -> Result<Table> {
    let mut chunks = CsvChunks::new(data.as_bytes(), usize::MAX)?;
    let mut types = TypeInference::new(chunks.header())?;
    let Some(chunk) = chunks.next_chunk()? else {
        return Ok(Table::empty(types.finish(0)?));
    };
    types.chunk(&chunk);
    let schema = types.finish(chunk.nrows())?;
    chunk.to_table(&schema, 0)
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
    let mut parts = Vec::new();
    let mut base_row = 0usize;
    while let Some(chunk) = chunks.next_chunk()? {
        parts.push(chunk.to_table(&schema, base_row)?);
        base_row = chunks.rows_read();
    }
    match parts.len() {
        0 => Ok(Table::empty(schema)),
        1 => Ok(parts.swap_remove(0)),
        _ => Table::concat(&parts),
    }
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
                let mut parts = Vec::new();
                let mut base = 0usize;
                while let Some(chunk) = chunks.next_chunk().unwrap() {
                    assert!(chunk.nrows() <= chunk_rows);
                    parts.push(chunk.to_table(&schema(), base).unwrap());
                    base += chunk.nrows();
                }
                assert_eq!(chunks.rows_read(), whole.nrows());
                let t = Table::concat(&parts).unwrap();
                assert_eq!(t, whole, "chunk_rows={chunk_rows} refill={refill}");
            }
        }
        // Typed conversion reports the global row of a bad numeric cell,
        // the first one in row-major order, whatever chunk it lands in.
        let data = "name,score\nx,1\ny,2\nz,oops\nw,bad\n";
        for chunk_rows in [1, 2, 7] {
            let mut chunks = CsvChunks::new(data.as_bytes(), chunk_rows).unwrap();
            let mut base = 0usize;
            let err = loop {
                let chunk = chunks.next_chunk().unwrap().expect("a bad row comes first");
                match chunk.to_table(&schema(), base) {
                    Ok(t) => base += t.nrows(),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, TableError::Parse { row: 2, col: 1, .. }),
                "chunk_rows={chunk_rows}: {err}"
            );
        }
    }

    #[test]
    fn bare_cr_is_data_and_only_crlf_terminates() {
        let cells = |t: &Table| -> Vec<String> {
            t.column(0)
                .unwrap()
                .as_cat()
                .unwrap()
                .iter()
                .map(str::to_owned)
                .collect()
        };
        let t = read_csv_infer("name,n\nab\rcd,1\ny\r,3\n").unwrap();
        assert_eq!(cells(&t), ["ab\rcd", "y\r"]);
        assert_eq!(t.column(1).unwrap().as_num().unwrap(), &[1.0, 3.0]);
        // The same cells under CRLF terminators, with the `\r` of a
        // terminator landing at the end of a refill at some size: it waits
        // for the next byte to decide.
        let crlf = "name,n\r\nab\rcd,1\r\ny\r,3\r\n";
        for refill in 1..=crlf.len() {
            let mut chunks = CsvChunks::with_capacity(crlf.as_bytes(), 4096, refill).unwrap();
            assert_eq!(chunks.header(), ["name", "n"]);
            let chunk = chunks.next_chunk().unwrap().unwrap();
            let t = chunk.to_table(&t.schema().clone(), 0).unwrap();
            assert_eq!(cells(&t), ["ab\rcd", "y\r"], "refill={refill}");
            assert!(chunks.next_chunk().unwrap().is_none());
        }
        // A `\r` that ends the file is data too; after a closing quote it
        // is data after the quote.
        assert_eq!(cells(&read_csv_infer("a\nx\r").unwrap()), ["x\r"]);
        assert!(matches!(
            read_csv("name,score\n\"x\"\r,1\n", schema()),
            Err(TableError::Csv {
                line: 2,
                what: "data after closing quote"
            })
        ));
        // The writer quotes a `\r`, so such a cell round-trips.
        let text = write_csv(&t);
        assert_eq!(text, "name,n\n\"ab\rcd\",1\n\"y\r\",3\n");
        assert_eq!(read_csv(&text, t.schema().clone()).unwrap(), t);
    }

    /// Seeded random tables whose cells mix commas, doubled quotes,
    /// newlines and `\r` inside quotes, empty fields and non-ASCII text,
    /// written by [`write_csv`] with LF or CRLF terminators: the chunked
    /// reader at every refill size types them back to the table, exactly
    /// as [`read_csv`] does.
    #[test]
    fn splitter_matches_whole_file_parse_at_every_refill_size() {
        use rand::{Rng, SeedableRng};
        const PIECES: [&str; 10] = ["a", ",", "\"", "\n", "\r", "é", "日本", " ", "7", "x y"];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        for case in 0..24 {
            let (ncols, nrows) = (rng.gen_range(2..5usize), rng.gen_range(1..9usize));
            let columns = (0..ncols)
                .map(|c| {
                    let column = if c % 2 == 0 {
                        Column::cat((0..nrows).map(|_| {
                            let len = rng.gen_range(0..4usize);
                            (0..len)
                                .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                                .collect::<String>()
                        }))
                    } else {
                        let k = |rng: &mut rand::rngs::StdRng| rng.gen_range(-5000..5000i64);
                        Column::Num((0..nrows).map(|_| k(&mut rng) as f64 / 1000.0).collect())
                    };
                    (format!("c{c}"), column)
                })
                .collect();
            let t = Table::from_columns(columns).unwrap();
            let lf = write_csv(&t);
            // The same records with CRLF terminators: each row rendered
            // alone ends in its one terminating `\n`.
            let mut crlf = String::new();
            write_csv_header(t.schema(), &mut crlf);
            crlf.pop();
            crlf.push_str("\r\n");
            for r in 0..nrows {
                write_csv_rows(&t, r..r + 1, &mut crlf);
                crlf.pop();
                crlf.push_str("\r\n");
            }
            for text in [&lf, &crlf] {
                assert_eq!(
                    read_csv(text, t.schema().clone()).unwrap(),
                    t,
                    "case {case}"
                );
                for refill in 1..=text.len() + 1 {
                    for chunk_rows in [1, 3] {
                        let mut chunks =
                            CsvChunks::with_capacity(text.as_bytes(), chunk_rows, refill).unwrap();
                        let mut parts = Vec::new();
                        while let Some(chunk) = chunks.next_chunk().unwrap() {
                            parts.push(chunk.to_table(t.schema(), 0).unwrap());
                        }
                        assert_eq!(
                            Table::concat(&parts).unwrap(),
                            t,
                            "case {case} refill {refill} chunk_rows {chunk_rows}"
                        );
                    }
                }
            }
            // Invalid UTF-8 in one (unquoted) cell is a located error at
            // every refill size: the line the cell sits on.
            let row = rng.gen_range(0..nrows);
            let named = t
                .schema()
                .fields()
                .iter()
                .zip(t.columns())
                .enumerate()
                .map(|(i, (f, col))| {
                    let col = match col.as_cat() {
                        Some(cat) if i == 0 => Column::cat(cat.iter().enumerate().map(|(r, v)| {
                            if r == row {
                                "\u{1}z"
                            } else {
                                v
                            }
                        })),
                        _ => col.clone(),
                    };
                    (f.name.clone(), col)
                })
                .collect();
            let marked = Table::from_columns(named).unwrap();
            let mut bytes = write_csv(&marked).into_bytes();
            let at = bytes.iter().position(|&b| b == 1).unwrap();
            bytes[at] = 0xFF;
            let line = 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count();
            for refill in 1..=bytes.len() {
                let mut chunks = CsvChunks::with_capacity(bytes.as_slice(), 2, refill).unwrap();
                let err = loop {
                    match chunks.next_chunk() {
                        Ok(Some(_)) => continue,
                        Ok(None) => panic!("case {case}: invalid UTF-8 accepted"),
                        Err(e) => break e,
                    }
                };
                assert!(
                    matches!(err, TableError::Csv { line: l, what: "invalid UTF-8 in field" } if l == line),
                    "case {case} refill {refill}: {err} (want line {line})"
                );
            }
        }
    }

    #[test]
    fn plain_decimals_parse_to_the_bits_str_parse_gives() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut cells: Vec<String> = [
            "0",
            "-0",
            "-0.0",
            "007",
            "1.",
            ".5",
            "1e3",
            "+1",
            "9007199254740992",
            "9007199254740993",
            "0.1",
            "123456.123456",
            "1234567890123456789",
            "12345678901234567890",
            "0.0000000000000000000001",
            "1.5.2",
            "-",
            "",
            " 2.5 ",
            "inf",
            "NaN",
            "1_0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for _ in 0..20_000 {
            let whole = rng.gen_range(0..10_000_000_000u64);
            let frac = rng.gen_range(0..1_000_000u64);
            let digits = rng.gen_range(0..8usize);
            let sign = if rng.gen_range(0..2u8) == 0 { "" } else { "-" };
            cells.push(match digits {
                0 => format!("{sign}{whole}"),
                d => format!("{sign}{whole}.{frac:0d$}"),
            });
            cells.push(format!("{}", rng.gen_range(-1e6..1e6f64)));
        }
        for cell in &cells {
            let want = cell.trim().parse::<f64>().ok();
            let got = parse_number(cell);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{cell:?}");
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
