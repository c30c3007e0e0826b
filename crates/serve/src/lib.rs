//! # ds-serve — concurrent random-access archive server
//!
//! `decompress_rows` answers one range query per call: it opens the
//! archive, imports the shared decoder weights, decodes the intersecting
//! shards, and drops all of it. A serving workload — many range queries
//! against one archive — would repeat that fixed work per request and
//! re-decode shards it just had.
//!
//! This crate is the third and last layer of the read path (DESIGN §3b):
//! [`ds_shard::ShardReader`] frames, [`ds_core::ArchiveReader`] decodes,
//! and [`Archive`] adds the one thing a server needs on top — memory of
//! what it already decoded:
//!
//! * [`Archive<R: ReadAt>`] holds one `ArchiveReader` (opened **once**) and
//!   a [`ShardCache`] behind an `Arc`. The handle is `Clone` (cheap,
//!   refcount bump) and every method takes `&self`, so one archive can
//!   serve many threads concurrently.
//! * Reads are **positioned** ([`ReadAt`], re-exported from ds-shard): a
//!   range query touches only the footer, the manifest, and the blobs of
//!   intersecting shards — never the whole file.
//! * The bounded, byte-budget [`ShardCache`] keeps recently decoded
//!   shards resident so repeated or overlapping range reads skip both
//!   I/O and neural-decode work entirely.
//! * [`Archive::stream_csv`] is the full-sweep path (`dsqz decompress`):
//!   shards decode in parallel on the ds-exec pool and flush to the sink
//!   in order, so peak memory stays one in-flight shard per worker
//!   instead of the whole table.
//! * [`protocol`] implements the tiny line protocol behind `dsqz serve`
//!   (`GET a..b`, `STAT`, `QUIT`).
//!
//! ## Determinism contract
//!
//! For a *serial* request stream, cache behavior (hit/miss counters,
//! eviction order, evicted byte counts) is identical at any `DS_THREADS`
//! setting: lookups happen in ascending shard order before any decode is
//! scheduled, misses decode in parallel, and inserts are applied in
//! ascending shard order as the decodes land. Timing-free obs traces of a
//! serve session are therefore byte-identical across thread counts.

use std::borrow::Cow;
use std::io;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use ds_core::reader::sweep;
use ds_core::{ArchiveReader, DsError};
use ds_shard::{ShardEntry, ShardError, FOOTER_LEN};
use ds_table::{Schema, Table};

pub mod cache;
pub mod http;
pub mod protocol;

pub use cache::{CacheStats, ShardCache};
pub use ds_shard::ReadAt;
pub use http::spawn_metrics_http;
pub use protocol::{metrics_text, parse_request, serve_connection, Request, ServeSummary};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The byte source failed (positioned read, sink write).
    Io(io::Error),
    /// The input is not an archive: it neither ends in the v2 container
    /// footer nor starts with a v1 header.
    NotSharded,
    /// Container-level corruption (framing, manifest, CRC, a shard whose
    /// decoded row count disagrees with its manifest entry).
    Shard(ShardError),
    /// Shard contents failed to decode.
    Core(DsError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::NotSharded => {
                write!(f, "not a dsqz archive (no v2 footer, no v1 header)")
            }
            ServeError::Shard(e) => write!(f, "shard container error: {e}"),
            ServeError::Core(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ShardError> for ServeError {
    fn from(e: ShardError) -> Self {
        ServeError::Shard(e)
    }
}

/// The reader below reports container failures wrapped in its own error
/// type; unwrap them so callers match one shape whichever layer noticed.
impl From<DsError> for ServeError {
    fn from(e: DsError) -> Self {
        match e {
            DsError::Shard(ShardError::NotContainer) => ServeError::NotSharded,
            DsError::Shard(ShardError::Io(e)) => ServeError::Io(e),
            DsError::Shard(e) => ServeError::Shard(e),
            e => ServeError::Core(e),
        }
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Per-request decode statistics (see [`Archive::read_rows_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadStats {
    /// Shards in the whole archive.
    pub shards_total: usize,
    /// Shards actually decoded (cache misses) for this request.
    pub shards_decoded: usize,
    /// Intersecting shards served from the cache.
    pub cache_hits: usize,
    /// Intersecting shards that missed the cache.
    pub cache_misses: usize,
}

struct ArchiveInner<R: ReadAt> {
    reader: ArchiveReader<R>,
    cache: ShardCache,
    schema: OnceLock<Schema>,
}

/// A shared, thread-safe handle to an open archive.
///
/// Opening parses the footer, manifest, and shared decoder blob exactly
/// once; every subsequent range read costs only the positioned reads and
/// decodes of the shards it intersects and does not find cached. Clone
/// the handle freely — all clones share the same source, decoder, and
/// [`ShardCache`].
pub struct Archive<R: ReadAt> {
    inner: Arc<ArchiveInner<R>>,
}

impl<R: ReadAt> Clone for Archive<R> {
    fn clone(&self) -> Self {
        Archive {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<R: ReadAt> Archive<R> {
    /// Default decoded-shard cache budget: 256 MiB.
    pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

    /// Opens an archive with the default cache budget.
    pub fn open(src: R) -> Result<Archive<R>> {
        Archive::with_cache(src, Archive::<R>::DEFAULT_CACHE_BYTES)
    }

    /// Opens an archive ([`ArchiveReader::open`]: two positioned reads
    /// plus one decoder import) with an explicit decoded-shard cache
    /// budget in bytes (zero disables caching).
    pub fn with_cache(src: R, cache_bytes: usize) -> Result<Archive<R>> {
        let _sp = ds_obs::span("serve.open");
        let reader = ArchiveReader::open(src)?;
        ds_obs::counter(
            "serve.open_bytes_read",
            (FOOTER_LEN as u64).saturating_add(reader.shards().manifest_len() as u64),
        );
        Ok(Archive {
            inner: Arc::new(ArchiveInner {
                reader,
                cache: ShardCache::new(cache_bytes),
                schema: OnceLock::new(),
            }),
        })
    }

    /// Per-column codec chains recorded in the manifest; `None` unless an
    /// older build recorded them (this build's writer never does).
    pub fn codec_chains(&self) -> Option<&ds_shard::ShardChains> {
        self.inner.reader.shards().chains()
    }

    /// Compact codec summary for `STAT`: the distinct registry codec
    /// names appearing in any recorded chain (first-appearance order,
    /// comma-joined), or `legacy` when the manifest has no chain section.
    /// Unknown ids cannot reach here — manifest parsing rejects them.
    /// `golden_archives.rs` pins it on a fixture with a recorded section.
    pub fn codec_summary(&self) -> String {
        let Some(chains) = self.codec_chains() else {
            return "legacy".to_owned();
        };
        let mut names: Vec<&'static str> = Vec::new();
        for chain in chains.dict() {
            for &id in chain {
                let name = ds_codec::registry::name(id).unwrap_or("unknown");
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        if names.is_empty() {
            "identity".to_owned()
        } else {
            names.join(",")
        }
    }

    /// Total logical rows in the archive.
    pub fn total_rows(&self) -> usize {
        self.inner.reader.shards().total_rows()
    }

    /// Number of shards in the archive.
    pub fn n_shards(&self) -> usize {
        self.inner.reader.shards().n_shards()
    }

    /// Manifest entries (row ranges, offsets, lengths, CRCs).
    pub fn entries(&self) -> &[ShardEntry] {
        self.inner.reader.shards().entries()
    }

    /// Snapshot of the decoded-shard cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Direct access to the shard cache (test/bench hook).
    pub fn cache(&self) -> &ShardCache {
        &self.inner.cache
    }

    /// The table schema, decoded lazily from the first shard on first
    /// use and memoized for the lifetime of the handle.
    pub fn schema(&self) -> Result<Schema> {
        if let Some(s) = self.inner.schema.get() {
            return Ok(s.clone());
        }
        let probe = self.shard_table_cached(0)?;
        let schema = probe.schema().clone();
        let _ = self.inner.schema.set(schema.clone());
        Ok(schema)
    }

    /// Decodes shard `i` (no cache involvement), counting the bytes the
    /// reader fetches for it.
    fn decode_shard(&self, i: usize, parent: ds_obs::SpanId) -> Result<Arc<Table>> {
        let table = self
            .inner
            .reader
            .decode_shard(i, parent, "serve.decode_shard")?;
        let bytes = self.entries().get(i).map_or(0, |e| e.len);
        ds_obs::counter("serve.shard_bytes_read", bytes as u64);
        Ok(Arc::new(table))
    }

    /// Cache-aware single-shard decode (promoting lookup + insert).
    fn shard_table_cached(&self, i: usize) -> Result<Arc<Table>> {
        if self.n_shards() == 0 {
            // A zero-shard archive still decodes to an empty table.
            return Ok(Arc::new(Table::empty(Schema::default())));
        }
        if let Some(t) = self.inner.cache.get(i) {
            return Ok(t);
        }
        let sp = ds_obs::span("serve.probe");
        let t = self.decode_shard(i, sp.id())?;
        drop(sp);
        self.inner.cache.insert(i, Arc::clone(&t));
        Ok(t)
    }

    /// Decodes rows `a..b` into an owned [`Table`], equivalent to
    /// slicing a full decompress but touching only intersecting shards.
    pub fn read_rows(&self, rows: Range<usize>) -> Result<Table> {
        self.read_rows_with_stats(rows).map(|(t, _)| t)
    }

    /// [`Archive::read_rows`] plus per-request cache/decode statistics.
    ///
    /// Cache lookups run in ascending shard order before any decode is
    /// scheduled; missing shards decode in parallel on the ds-exec pool;
    /// inserts are applied in ascending shard order as they land. This
    /// keeps cache state (and therefore eviction) deterministic for a
    /// serial request stream at any thread count.
    pub fn read_rows_with_stats(&self, rows: Range<usize>) -> Result<(Table, ReadStats)> {
        let inner = &*self.inner;
        let plan = inner.reader.plan(rows);
        let mut sp = ds_obs::span("serve.read_rows");
        sp.add("rows", plan.rows.len() as u64);
        let root = sp.id();
        let mut stats = ReadStats {
            shards_total: self.n_shards(),
            ..ReadStats::default()
        };
        if plan.shards.is_empty() {
            // Empty request: answer with the right schema by probing the
            // first shard (through the cache), like the uncached path.
            let probe = self.shard_table_cached(0)?;
            return Ok((probe.slice_rows(0..0), stats));
        }

        // Phase 1: ordered cache lookups. `None` slots are misses.
        let hits: Vec<Option<Arc<Table>>> =
            plan.shards.clone().map(|i| inner.cache.get(i)).collect();
        let misses: Vec<usize> = plan
            .shards
            .clone()
            .zip(&hits)
            .filter_map(|(i, hit)| hit.is_none().then_some(i))
            .collect();
        stats.cache_misses = misses.len();
        stats.cache_hits = hits.len() - misses.len();
        stats.shards_decoded = misses.len();

        // Phases 2 and 3: decode the misses in parallel; insert each, in
        // shard order, as it and its predecessors land.
        let mut decoded = Vec::with_capacity(misses.len());
        sweep(
            misses.len(),
            |m| -> Result<(usize, Arc<Table>)> {
                let i = *misses
                    .get(m)
                    .ok_or(ShardError::Corrupt("miss index out of range"))?;
                Ok((i, self.decode_shard(i, root)?))
            },
            |_, (i, table)| {
                inner.cache.insert(i, Arc::clone(&table));
                decoded.push(table);
                Ok(())
            },
        )?;

        let mut decoded = decoded.iter();
        let parts = hits
            .iter()
            .map(|hit| hit.as_ref().or_else(|| decoded.next()))
            .map(|part| part.map(|table| Cow::Borrowed(table.as_ref())))
            .collect::<Option<_>>()
            .ok_or(ShardError::Corrupt("decoded shard went missing"))?;
        Ok((inner.reader.stitch(&plan, parts)?, stats))
    }

    /// Streams rows `a..b` as CSV into `sink` without materializing the
    /// whole range: shards decode in parallel on the ds-exec pool and
    /// flush in order, bounding peak memory at roughly one decoded shard
    /// per worker. Returns the number of data rows written.
    ///
    /// Cached shards are reused via non-promoting lookups, and decoded
    /// shards are *not* inserted — a full-archive sweep must not evict
    /// the hot set a server has built up.
    pub fn stream_csv<W: io::Write>(
        &self,
        rows: Range<usize>,
        sink: &mut W,
        header: bool,
    ) -> Result<u64> {
        let inner = &*self.inner;
        let plan = inner.reader.plan(rows);
        let mut sp = ds_obs::span("serve.stream");
        sp.add("rows", plan.rows.len() as u64);
        let root = sp.id();
        if header {
            let schema = self.schema()?;
            let mut head = String::new();
            ds_table::csv::write_csv_header(&schema, &mut head);
            sink.write_all(head.as_bytes())?;
        }
        let entries = self.entries();
        let mut written: u64 = 0;
        sweep(
            plan.shards.len(),
            |k| -> Result<(String, u64)> {
                let i = plan.shards.start + k;
                let table = match inner.cache.peek(i) {
                    Some(t) => t,
                    None => self.decode_shard(i, root)?,
                };
                let entry = entries
                    .get(i)
                    .ok_or(ShardError::Corrupt("shard index out of range"))?;
                let cut = plan.local(entry);
                let n = cut.len() as u64;
                let mut text = String::new();
                ds_table::csv::write_csv_rows(&table, cut, &mut text);
                Ok((text, n))
            },
            |_, (text, n)| {
                sink.write_all(text.as_bytes())?;
                written += n;
                Ok(())
            },
        )?;
        sink.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::{compress, decompress, DsConfig};
    use ds_table::csv::write_csv;
    use ds_table::gen;

    /// One trained fixture shared by every test in this module: a
    /// 150-row table compressed into a 5-shard container (32 rows per
    /// shard), plus its full decode for ground truth.
    fn fixture() -> &'static (Vec<u8>, Table) {
        static FIXTURE: OnceLock<(Vec<u8>, Table)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let t = gen::monitor_like(150, 5);
            let cfg = DsConfig {
                error_threshold: 0.05,
                max_epochs: 2,
                shard_rows: 32,
                ..DsConfig::default()
            };
            let archive = compress(&t, &cfg).expect("compresses");
            let full = decompress(&archive).expect("decodes");
            (archive.as_bytes().to_vec(), full)
        })
    }

    #[test]
    fn read_rows_matches_full_decode_slices() {
        let (bytes, full) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        assert_eq!(archive.total_rows(), full.nrows());
        assert_eq!(archive.n_shards(), 5);
        for range in [0..150, 10..20, 30..34, 0..1, 149..150, 31..33, 60..140] {
            let got = archive.read_rows(range.clone()).expect("reads");
            let want = full.slice_rows(range.clone());
            assert_eq!(write_csv(&got), write_csv(&want), "range {range:?}");
        }
    }

    #[test]
    fn warm_reads_hit_the_cache_and_skip_decode() {
        let (bytes, _) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        let (_, cold) = archive.read_rows_with_stats(40..100).expect("cold");
        assert_eq!(cold.shards_total, 5);
        assert_eq!(cold.shards_decoded, 3, "rows 40..100 span shards 1..4");
        assert_eq!(cold.cache_hits, 0);
        let (_, warm) = archive.read_rows_with_stats(40..100).expect("warm");
        assert_eq!(warm.shards_decoded, 0);
        assert_eq!(warm.cache_hits, 3);
    }

    /// A hit copies codes, never strings: the table a hot GET returns
    /// points at the cached shards' value pools. And the cache's byte
    /// count is exactly what its residents measure.
    #[test]
    fn a_hot_get_shares_cached_pools_and_the_budget_counts_their_bytes() {
        use ds_table::Column;
        let t = gen::forest_like(120, 4);
        let cfg = DsConfig {
            error_threshold: 0.05,
            max_epochs: 2,
            shard_rows: 32,
            ..DsConfig::default()
        };
        let bytes = compress(&t, &cfg).expect("compresses").as_bytes().to_vec();
        let archive = Archive::open(bytes).expect("opens");
        archive.read_rows(0..120).expect("warming read");
        let resident: Vec<Arc<Table>> = (0..archive.n_shards())
            .map(|i| archive.cache().peek(i).expect("every shard fits"))
            .collect();
        let stats = archive.cache_stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(
            stats.bytes,
            resident.iter().map(|shard| shard.mem_size()).sum::<usize>()
        );
        // Rows 40..90 cut shard 1, take shard 2 whole; 70..80 is one cut.
        for (rows, first) in [(40..90, 1), (70..80, 2), (64..96, 2)] {
            let (got, read) = archive.read_rows_with_stats(rows.clone()).expect("hot");
            assert_eq!((read.shards_decoded, got.nrows()), (0, rows.len()));
            let mut categorical = 0;
            for (hit, cached) in got.columns().iter().zip(resident[first].columns()) {
                if let (Column::Cat(hit), Column::Cat(cached)) = (hit, cached) {
                    assert!(Arc::ptr_eq(hit.pool(), cached.pool()), "rows {rows:?}");
                    categorical += 1;
                }
            }
            assert_eq!(categorical, 45);
        }
    }

    #[test]
    fn clamps_and_empty_ranges_keep_the_schema() {
        let (bytes, full) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        let empty = archive.read_rows(7..7).expect("empty range");
        assert_eq!(empty.nrows(), 0);
        assert_eq!(empty.schema(), full.schema());
        let clamped = archive.read_rows(140..9999).expect("clamped range");
        assert_eq!(write_csv(&clamped), write_csv(&full.slice_rows(140..150)));
        assert_eq!(archive.schema().expect("schema"), full.schema().clone());
    }

    #[test]
    fn stream_csv_matches_in_memory_csv() {
        let (bytes, full) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        let mut out: Vec<u8> = Vec::new();
        let n = archive
            .stream_csv(0..archive.total_rows(), &mut out, true)
            .expect("streams");
        assert_eq!(n, 150);
        assert_eq!(String::from_utf8(out).expect("utf8"), write_csv(full));
        // Sub-range, no header.
        let mut out: Vec<u8> = Vec::new();
        let n = archive
            .stream_csv(33..65, &mut out, false)
            .expect("streams");
        assert_eq!(n, 32);
        let mut want = String::new();
        ds_table::csv::write_csv_rows(full, 33..65, &mut want);
        assert_eq!(String::from_utf8(out).expect("utf8"), want);
    }

    #[test]
    fn garbage_and_empty_inputs_are_not_archives() {
        assert!(matches!(
            Archive::open(b"definitely not an archive".to_vec()),
            Err(ServeError::NotSharded)
        ));
        assert!(matches!(
            Archive::open(Vec::new()),
            Err(ServeError::NotSharded)
        ));
    }

    #[test]
    fn a_monolithic_v1_archive_serves_as_one_shard() {
        let t = gen::corel_like(60, 9);
        let cfg = DsConfig {
            error_threshold: 0.05,
            max_epochs: 2,
            ..DsConfig::default()
        };
        // A self-contained blob is exactly what a v1 archive file holds.
        let v1 = ds_core::TrainedCompressor::train(&t, &cfg)
            .and_then(|trained| trained.compress_batch(&t))
            .expect("compresses");
        let full = decompress(&v1).expect("decodes");
        let archive = Archive::open(v1.as_bytes().to_vec()).expect("v1 opens");
        assert_eq!((archive.total_rows(), archive.n_shards()), (60, 1));
        let (got, cold) = archive.read_rows_with_stats(10..25).expect("reads");
        assert_eq!(got, full.slice_rows(10..25));
        assert_eq!((cold.shards_decoded, cold.shards_total), (1, 1));
        let (_, warm) = archive.read_rows_with_stats(40..60).expect("reads");
        assert_eq!((warm.shards_decoded, warm.cache_hits), (0, 1));
        let mut out: Vec<u8> = Vec::new();
        protocol::serve_connection(&archive, &b"GET 10..13\nSTAT\n"[..], &mut out).expect("serves");
        let mut want = String::from("OK 3\n");
        ds_table::csv::write_csv_rows(&full, 10..13, &mut want);
        want.push_str("OK rows=60 shards=1 ");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with(&want), "got: {text}");
        let mut csv: Vec<u8> = Vec::new();
        archive.stream_csv(0..60, &mut csv, true).expect("streams");
        assert_eq!(String::from_utf8(csv).expect("utf8"), write_csv(&full));
    }

    #[test]
    fn corrupt_shard_surfaces_a_typed_crc_error() {
        let (bytes, _) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens clean");
        // Flip one bit inside shard 2's blob; only reads touching that
        // shard fail, and with the precise typed error.
        let entry = archive.entries().get(2).expect("entry").clone();
        drop(archive);
        let mut corrupt = bytes.clone();
        let target = corrupt
            .get_mut(entry.offset + entry.len / 2)
            .expect("in range");
        *target ^= 0x40;
        let archive = Archive::open(corrupt).expect("manifest still parses");
        let err = archive
            .read_rows(entry.rows.clone())
            .expect_err("corrupt shard");
        assert!(
            matches!(err, ServeError::Shard(ShardError::CrcMismatch { shard: 2 })),
            "got: {err:?}"
        );
        // Other shards still decode.
        archive
            .read_rows(0..entry.rows.start)
            .expect("clean shards still read");
    }

    #[test]
    fn serve_connection_round_trip() {
        let (bytes, full) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        let input = b"GET 10..13\nSTAT\nFROB\nQUIT\nGET 0..1\n" as &[u8];
        let mut output: Vec<u8> = Vec::new();
        let summary = protocol::serve_connection(&archive, input, &mut output).expect("serves");
        assert_eq!(summary.requests, 4, "QUIT stops before the trailing GET");
        assert_eq!(summary.rows_served, 3);
        let text = String::from_utf8(output).expect("utf8");
        let mut want = String::from("OK 3\n");
        ds_table::csv::write_csv_rows(full, 10..13, &mut want);
        want.push_str(&format!(
            "OK rows=150 shards=5 cols={} ",
            full.schema().len()
        ));
        assert!(text.starts_with(&want), "got: {text}");
        // The writer records no chain section, so STAT reports `legacy`
        // (the field itself must always be present).
        assert!(text.contains(" codecs=legacy\n"), "got: {text}");
        assert!(text.contains("\nERR unknown request `FROB`"), "got: {text}");
        assert!(text.ends_with("BYE\n"), "got: {text}");
    }

    /// One client must not be able to make the server buffer an unbounded
    /// line: 1 MiB without a newline is refused after the cap, unread.
    #[test]
    fn a_giant_request_line_is_refused_without_being_buffered() {
        let (bytes, _) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        let mut script = b"STAT\n".to_vec();
        script.resize(script.len() + (1 << 20), b'A');
        script.extend_from_slice(b"\nGET 0..1\n");
        let mut input = script.as_slice();
        let mut output: Vec<u8> = Vec::new();
        let summary =
            protocol::serve_connection(&archive, &mut input, &mut output).expect("serves");
        assert_eq!((summary.requests, summary.errors), (2, 1));
        let text = String::from_utf8(output).expect("utf8");
        let (stat, err) = text.split_once('\n').expect("two lines");
        assert!(stat.starts_with("OK rows=150"), "got: {text}");
        assert_eq!(
            err,
            format!(
                "ERR request line exceeds {} bytes, closing\n",
                protocol::MAX_REQUEST_LINE
            )
        );
        // Closed at the cap: the rest of the line, and the GET behind it,
        // were never read.
        assert!(input.len() >= (1 << 20) - protocol::MAX_REQUEST_LINE);
        // A line of exactly the cap is still a (bad) request, not a close.
        let mut script = vec![b'A'; protocol::MAX_REQUEST_LINE];
        script.extend_from_slice(b"\nQUIT\n");
        let mut output: Vec<u8> = Vec::new();
        let summary =
            protocol::serve_connection(&archive, script.as_slice(), &mut output).expect("serves");
        assert_eq!((summary.requests, summary.errors), (2, 1));
        assert!(output.ends_with(b"BYE\n"));
    }

    /// A client that connects and says nothing must not pin its handler
    /// thread: the socket's read timeout ends the connection, typed.
    #[test]
    fn a_silent_client_is_dropped_at_the_read_timeout() {
        use std::io::{BufRead, BufReader};
        use std::net::{TcpListener, TcpStream};
        let (bytes, _) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        // Wired as `dsqz serve --listen` wires a connection, with a short
        // stand-in for `protocol::CLIENT_READ_TIMEOUT`.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(50)))
                .expect("sets timeout");
            let reader = BufReader::new(stream.try_clone().expect("clones"));
            protocol::serve_connection(&archive, reader, stream).expect("serves")
        });
        let client = TcpStream::connect(addr).expect("connects");
        let mut reply = String::new();
        BufReader::new(client).read_line(&mut reply).expect("reads");
        assert!(reply.starts_with("ERR idle"), "got: {reply}");
        let summary = server.join().expect("joins");
        assert_eq!((summary.requests, summary.errors), (0, 1));
    }

    /// A response must leave in one write: with the status line and the
    /// body written separately, a body under one segment sits behind
    /// Nagle until the client's delayed ACK (~40 ms per GET on loopback).
    #[test]
    fn small_get_over_loopback_tcp_is_not_nagle_bound() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};
        let (bytes, full) = fixture();
        let archive = Archive::open(bytes.clone()).expect("opens");
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        // Wired as `dsqz serve --listen` wires a connection.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let reader = BufReader::new(stream.try_clone().expect("clones"));
            protocol::serve_connection(&archive, reader, stream).expect("serves")
        });
        let mut client = TcpStream::connect(addr).expect("connects");
        let mut replies = BufReader::new(client.try_clone().expect("clones"));
        let mut want = String::from("OK 64\n");
        ds_table::csv::write_csv_rows(full, 10..74, &mut want);
        let mut times = Vec::new();
        // The first request decodes the shards; the rest are cache hits.
        for _ in 0..16 {
            let start = std::time::Instant::now();
            client.write_all(b"GET 10..74\n").expect("sends");
            let mut got = String::new();
            for _ in 0..65 {
                replies.read_line(&mut got).expect("reads");
            }
            times.push(start.elapsed());
            assert_eq!(got, want);
        }
        client.write_all(b"QUIT\n").expect("sends");
        assert_eq!(server.join().expect("joins").requests, 17);
        times.remove(0);
        times.sort();
        let median = times[times.len() / 2];
        assert!(
            median < std::time::Duration::from_millis(20),
            "64-row GET median {median:?}"
        );
    }
}
