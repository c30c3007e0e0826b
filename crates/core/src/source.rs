//! Magic-byte source negotiation: open *anything that holds rows* as a
//! rewindable [`RowSource`].
//!
//! [`open_source`] sniffs the input instead of trusting file extensions:
//!
//! * an archive — whatever [`ArchiveReader::open`] accepts: a v2 sharded
//!   container, decoded shard by shard per pass through positioned reads
//!   on the file, so recompression never holds the whole archive or the
//!   whole table; or a v1 monolithic archive, the same thing with one
//!   shard;
//! * a CSV file (printable head, no NUL bytes) — schema inferred by the
//!   one column-type rule (`ds_table::csv::TypeInference`) in one
//!   streaming pass;
//! * anything else — a typed [`DsError::Corrupt`], never a guess.
//!
//! Whether the bytes are an archive, and of which kind, is the archive
//! reader's decision alone; this module only tells CSV from garbage once
//! the reader has said "not mine".
//!
//! [`open_source_reader`] extends the same negotiation to pipes
//! (`dsqz recompress - out.dsqz`): the stream is spooled to a temp file
//! first, because the two-pass stats/encode pipeline must rewind and a
//! pipe cannot. The spool is deleted when the source is dropped.

use crate::{ArchiveReader, DsError};
use ds_shard::ShardError;
use ds_table::csv::{CsvChunks, TypeInference};
use ds_table::stream::{CsvFileSource, RowSource};
use ds_table::{Schema, Table, TableError};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// How many leading bytes the CSV-vs-binary probe examines.
const SNIFF_HEAD: u64 = 8192;

/// What the magic-byte probe decided an input is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Plain-text CSV (schema inferred).
    Csv,
    /// Monolithic v1 archive (leading `DSQZ` magic).
    ArchiveV1,
    /// Sharded v2 container (trailing `DSRG` footer).
    ArchiveV2,
}

impl SourceKind {
    /// Human-readable name, as printed by `dsqz recompress`.
    pub fn describe(&self) -> &'static str {
        match self {
            SourceKind::Csv => "csv",
            SourceKind::ArchiveV1 => "dsqz archive (v1 monolithic)",
            SourceKind::ArchiveV2 => "dsqz archive (v2 sharded)",
        }
    }
}

/// A negotiated input: some [`SourceKind`] opened as a rewindable
/// [`RowSource`], plus the temp-file spool keeping a piped input alive.
///
/// `OpenedSource` itself implements [`RowSource`], so it plugs straight
/// into [`crate::compress_stream_to`].
pub struct OpenedSource {
    kind: SourceKind,
    inner: Box<dyn RowSource>,
    /// Deletes the spool file on drop; `None` for direct file inputs.
    _spool: Option<TempSpool>,
}

impl OpenedSource {
    /// What the probe decided the input was.
    pub fn kind(&self) -> SourceKind {
        self.kind
    }
}

impl RowSource for OpenedSource {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn chunks(&self) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>> {
        self.inner.chunks()
    }
}

/// Sniffs `path` and opens it as a [`RowSource`] yielding about
/// `chunk_rows` rows per chunk (archives chunk at their own shard
/// boundaries). See the module docs for the negotiation rules.
pub fn open_source(path: impl AsRef<Path>, chunk_rows: usize) -> crate::Result<OpenedSource> {
    open_path(path.as_ref(), chunk_rows, None)
}

/// [`open_source`] for non-seekable inputs (pipes, `stdin`): spools the
/// whole stream to a temp file so both compressor passes can re-read it,
/// then negotiates exactly as [`open_source`] would. The temp file lives
/// as long as the returned source and is deleted on drop.
pub fn open_source_reader<R: Read>(
    mut reader: R,
    chunk_rows: usize,
) -> crate::Result<OpenedSource> {
    let spool = TempSpool::create()?;
    {
        let file = std::fs::File::create(&spool.path).map_err(io_err)?;
        let mut w = std::io::BufWriter::new(file);
        std::io::copy(&mut reader, &mut w).map_err(io_err)?;
        w.flush().map_err(io_err)?;
    }
    open_path(&spool.path.clone(), chunk_rows, Some(spool))
}

fn open_path(
    path: &Path,
    chunk_rows: usize,
    spool: Option<TempSpool>,
) -> crate::Result<OpenedSource> {
    let chunk_rows = chunk_rows.max(1);
    let file = std::fs::File::open(path).map_err(io_err)?;
    if file.metadata().map_err(io_err)?.len() == 0 {
        return Err(DsError::Corrupt("empty input"));
    }
    let (kind, inner): (_, Box<dyn RowSource>) = match ArchiveReader::open(file) {
        Ok(reader) => {
            let kind = if reader.shards().is_unframed() {
                SourceKind::ArchiveV1
            } else {
                SourceKind::ArchiveV2
            };
            (kind, Box::new(ArchiveSource::new(reader)?))
        }
        Err(DsError::Shard(ShardError::NotContainer)) => {
            // CSV is text: any NUL in the head marks the input as binary
            // garbage.
            let mut head = Vec::new();
            std::fs::File::open(path)
                .and_then(|f| f.take(SNIFF_HEAD).read_to_end(&mut head))
                .map_err(io_err)?;
            if head.contains(&0) {
                return Err(DsError::Corrupt(
                    "unrecognized input: no dsqz magic and not text",
                ));
            }
            let schema = infer_csv_schema(path, chunk_rows)?;
            let source = CsvFileSource::new(path, schema, chunk_rows);
            (SourceKind::Csv, Box::new(source))
        }
        Err(e) => return Err(e),
    };
    Ok(OpenedSource {
        kind,
        inner,
        _spool: spool,
    })
}

fn io_err(e: std::io::Error) -> DsError {
    DsError::Table(TableError::Io(e.to_string()))
}

/// One streaming pass over a CSV file resolving each column's type by
/// the one rule, [`TypeInference`].
fn infer_csv_schema(path: &Path, chunk_rows: usize) -> crate::Result<Schema> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let mut chunks = CsvChunks::new(BufReader::new(file), chunk_rows)?;
    let mut types = TypeInference::new(chunks.header())?;
    while let Some(chunk) = chunks.next_chunk()? {
        types.chunk(&chunk);
    }
    Ok(types.finish(chunks.rows_read())?)
}

/// [`RowSource`] over an open archive: each pass walks the shard index and
/// decodes one row group at a time from positioned reads on the file, so
/// recompressing an archive holds O(shard) bytes and rows — the same bound
/// as streaming CSV ingest. The manifest and the shared decoder are parsed
/// once, at open.
struct ArchiveSource {
    reader: ArchiveReader<std::fs::File>,
    schema: Schema,
}

impl ArchiveSource {
    fn new(reader: ArchiveReader<std::fs::File>) -> crate::Result<ArchiveSource> {
        // Shard 0 always exists (even empty containers carry one zero-row
        // shard) and fixes the schema shared by all shards.
        let first = reader.decode_shard(0, ds_obs::current(), "decode_shard")?;
        Ok(ArchiveSource {
            reader,
            schema: first.schema().clone(),
        })
    }
}

impl RowSource for ArchiveSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn chunks(&self) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>> {
        let parent = ds_obs::current();
        let shards = 0..self.reader.shards().n_shards();
        Ok(Box::new(shards.filter_map(move |i| {
            match self.reader.decode_shard(i, parent, "decode_shard") {
                // Zero-row shards (the empty-container marker) are framing,
                // not data: a source with no rows must yield no chunks.
                Ok(t) if t.nrows() == 0 => None,
                Ok(t) => Some(Ok(t)),
                // RowSource speaks TableError; archive decode failures
                // cross the boundary as a stringly Io error (the typed
                // chain/codec validation already ran at open_source time).
                Err(e) => Some(Err(TableError::Io(e.to_string()))),
            }
        })))
    }
}

/// A temp file deleted on drop. Names are unique per call within the
/// process (atomic counter); collisions across processes are broken by
/// the pid component — no clock needed, which also keeps this module
/// inside the workspace's no-wallclock rule.
struct TempSpool {
    path: PathBuf,
}

impl TempSpool {
    fn create() -> crate::Result<TempSpool> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("dsqz-spool-{}-{seq}.tmp", std::process::id()));
        // create_new: refuse to reuse a leftover path rather than truncate
        // a file some other process is still reading.
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(TempSpool { path })
    }
}

impl Drop for TempSpool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_table::csv::write_csv;
    use ds_table::{gen, ColumnType};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ds_core_source_{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn quick_cfg() -> crate::DsConfig {
        crate::DsConfig {
            error_threshold: 0.0,
            max_epochs: 2,
            seed: 5,
            ..crate::DsConfig::default()
        }
    }

    #[test]
    fn sniffs_csv_and_infers_schema() {
        let dir = tmp_dir("csv");
        let t = gen::census_like(60, 3);
        let csv = write_csv(&t);
        let path = dir.join("t.csv");
        std::fs::write(&path, &csv).unwrap();
        let src = open_source(&path, 16).expect("opens");
        assert_eq!(src.kind(), SourceKind::Csv);
        // Inference must match read_csv_infer exactly (categorical columns
        // whose values all *look* numeric legitimately come back Numeric).
        let reparsed = ds_table::csv::read_csv_infer(&csv).unwrap();
        assert_eq!(src.schema(), reparsed.schema());
        let parts: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(Table::concat(&parts).unwrap(), reparsed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sniffs_v1_and_v2_archives() {
        let dir = tmp_dir("arch");
        let t = gen::census_like(80, 11);

        let trained = crate::TrainedCompressor::train(&t, &quick_cfg()).unwrap();
        let v1 = trained.compress_batch(&t).unwrap();
        let p1 = dir.join("a.v1");
        std::fs::write(&p1, v1.as_bytes()).unwrap();
        let src = open_source(&p1, 32).expect("opens v1");
        assert_eq!(src.kind(), SourceKind::ArchiveV1);
        let parts: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(Table::concat(&parts).unwrap(), t);

        let v2 = crate::compress(
            &t,
            &crate::DsConfig {
                shard_rows: 24,
                ..quick_cfg()
            },
        )
        .unwrap();
        let p2 = dir.join("a.v2");
        std::fs::write(&p2, v2.as_bytes()).unwrap();
        let src = open_source(&p2, 32).expect("opens v2");
        assert_eq!(src.kind(), SourceKind::ArchiveV2);
        let parts: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        // Shards are the natural chunks.
        assert_eq!(
            parts.iter().map(Table::nrows).collect::<Vec<_>>(),
            [24, 24, 24, 8]
        );
        assert_eq!(Table::concat(&parts).unwrap(), t);
        // Rewind: a second pass yields the same rows.
        let again: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(Table::concat(&again).unwrap(), t);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_empty_inputs_are_typed_errors() {
        let dir = tmp_dir("bad");
        let garbage = dir.join("g.bin");
        std::fs::write(&garbage, [0u8, 1, 2, 0, 255, 0, 7]).unwrap();
        assert!(matches!(open_source(&garbage, 8), Err(DsError::Corrupt(_))));

        let empty = dir.join("e.bin");
        std::fs::write(&empty, []).unwrap();
        assert!(matches!(open_source(&empty, 8), Err(DsError::Corrupt(_))));

        assert!(matches!(
            open_source(dir.join("missing.csv"), 8),
            Err(DsError::Table(TableError::Io(_)))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_spool_matches_file_path() {
        let dir = tmp_dir("spool");
        let t = gen::census_like(50, 13);
        let csv = write_csv(&t);
        let path = dir.join("t.csv");
        std::fs::write(&path, &csv).unwrap();

        let from_file = open_source(&path, 16).unwrap();
        let from_pipe = open_source_reader(csv.as_bytes(), 16).unwrap();
        assert_eq!(from_pipe.kind(), SourceKind::Csv);
        assert_eq!(from_file.schema(), from_pipe.schema());

        let spool_path = from_pipe._spool.as_ref().map(|s| s.path.clone()).unwrap();
        assert!(spool_path.exists());

        let a: Vec<Table> = from_file
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        let b: Vec<Table> = from_pipe
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(a, b);

        drop(from_pipe);
        assert!(!spool_path.exists(), "spool must be deleted on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_type_columns_resolve_categorical() {
        let dir = tmp_dir("mixed");
        let path = dir.join("m.csv");
        std::fs::write(&path, "a,b\n1,x\n2,3\n").unwrap();
        let src = open_source(&path, 4).unwrap();
        let tys: Vec<ColumnType> = src.schema().fields().iter().map(|f| f.ty).collect();
        assert_eq!(tys, [ColumnType::Numeric, ColumnType::Categorical]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
