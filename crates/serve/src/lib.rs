//! # ds-serve — concurrent random-access archive server
//!
//! `dsqz decompress --rows A..B` answers one range query per process:
//! it reads the whole file, parses the manifest, imports the shared
//! decoder weights, decodes the intersecting shards, and exits. A
//! serving workload — many range queries against one archive — repeats
//! all of that fixed work per request and rereads bytes it already saw.
//!
//! This crate amortizes the fixed work behind a shared handle:
//!
//! * [`Archive<R: ReadAt>`] opens the v2 sharded container **once**,
//!   parsing footer + manifest and importing the shared decoder blob a
//!   single time into an `Arc`-shared inner state. The handle is `Clone`
//!   (cheap, refcount bump) and every method takes `&self`, so one
//!   archive can serve many threads concurrently.
//! * Reads are **positioned**: a range query touches only the footer,
//!   the manifest, and the blobs of intersecting shards — never the
//!   whole file. [`ReadAt`] abstracts the byte source (`std::fs::File`
//!   via pread, `Vec<u8>` for tests, or any custom impl).
//! * A bounded, byte-budget [`ShardCache`] keeps recently decoded
//!   shards resident so repeated or overlapping range reads skip both
//!   I/O and neural-decode work entirely.
//! * [`Archive::stream_csv`] mirrors the CLI `--stream` path for
//!   serving: shards decode in parallel on the ds-exec pool and flush
//!   to the sink in order, so peak memory stays one in-flight shard per
//!   worker instead of the whole table.
//! * [`protocol`] implements the tiny line protocol behind `dsqz serve`
//!   (`GET a..b`, `STAT`, `QUIT`).
//!
//! ## Determinism contract
//!
//! For a *serial* request stream, cache behavior (hit/miss counters,
//! eviction order, evicted byte counts) is identical at any `DS_THREADS`
//! setting: lookups happen in ascending shard order before any decode is
//! scheduled, misses decode in parallel, and inserts are applied in
//! ascending shard order after decode. Timing-free obs traces of a serve
//! session are therefore byte-identical across thread counts.

use std::io;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use ds_core::{DsError, ShardDecoder};
use ds_shard::{ShardEntry, ShardError, FOOTER_LEN};
use ds_table::{Schema, Table};

pub mod cache;
pub mod http;
pub mod protocol;

pub use cache::{CacheStats, ShardCache};
pub use http::spawn_metrics_http;
pub use protocol::{metrics_text, parse_request, serve_connection, Request, ServeSummary};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The byte source failed (positioned read, sink write).
    Io(io::Error),
    /// The input is not a v2 sharded container (no valid footer). Callers
    /// with the whole file in memory can fall back to the monolithic
    /// decode path; a server should reject the archive.
    NotSharded,
    /// Container-level corruption (framing, manifest, CRC).
    Shard(ShardError),
    /// Shard contents failed to decode.
    Core(DsError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::NotSharded => {
                write!(
                    f,
                    "not a sharded archive (random access needs the v2 container)"
                )
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

impl From<DsError> for ServeError {
    fn from(e: DsError) -> Self {
        ServeError::Core(e)
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;

/// A positioned-read byte source: the random-access analogue of `Read`.
///
/// Implementations must be safe to call from many threads at once
/// (`read_exact_at` takes `&self`); `File` qualifies because pread does
/// not touch the shared cursor.
pub trait ReadAt: Send + Sync {
    /// Total size of the source in bytes.
    fn size(&self) -> io::Result<u64>;

    /// Fills `buf` from `offset`, erroring (rather than short-reading)
    /// if the source ends first.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
}

#[cfg(unix)]
impl ReadAt for std::fs::File {
    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }
}

#[cfg(windows)]
impl ReadAt for std::fs::File {
    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_exact_at(&self, mut offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::windows::fs::FileExt;
        let mut buf = buf;
        while !buf.is_empty() {
            let n = self.seek_read(buf, offset)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "archive ended mid-read",
                ));
            }
            let rest = std::mem::take(&mut buf);
            buf = rest.get_mut(n..).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "read past buffer end")
            })?;
            offset = offset.saturating_add(n as u64);
        }
        Ok(())
    }
}

impl ReadAt for Vec<u8> {
    fn size(&self) -> io::Result<u64> {
        Ok(self.len() as u64)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let eof = || io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of buffer");
        let off = usize::try_from(offset).map_err(|_| eof())?;
        let end = off.checked_add(buf.len()).ok_or_else(eof)?;
        let src = self.get(off..end).ok_or_else(eof)?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

impl<T: ReadAt + ?Sized> ReadAt for Arc<T> {
    fn size(&self) -> io::Result<u64> {
        (**self).size()
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_exact_at(offset, buf)
    }
}

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
    src: R,
    entries: Vec<ShardEntry>,
    total_rows: usize,
    decoder: ShardDecoder,
    cache: ShardCache,
    schema: OnceLock<Schema>,
    /// Per-column codec chains from the manifest's chain section; `None`
    /// for containers written before chain recording (legacy chain).
    chains: Option<ds_shard::ShardChains>,
}

/// A shared, thread-safe handle to an open sharded archive.
///
/// Opening parses the footer, manifest, and shared decoder blob exactly
/// once; every subsequent range read costs only the positioned reads and
/// decodes of the shards it intersects. Clone the handle freely — all
/// clones share the same source, decoder, and [`ShardCache`].
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

    /// Opens an archive with an explicit decoded-shard cache budget in
    /// bytes (zero disables caching).
    ///
    /// Performs exactly two positioned reads — the 9-byte footer and the
    /// manifest — plus one decoder import. Returns
    /// [`ServeError::NotSharded`] when the tail is not a valid v2 footer
    /// so callers can fall back to monolithic decode.
    pub fn with_cache(src: R, cache_bytes: usize) -> Result<Archive<R>> {
        let _sp = ds_obs::span("serve.open");
        let size = src.size()?;
        let footer_len = FOOTER_LEN as u64;
        if size < footer_len {
            return Err(ServeError::NotSharded);
        }
        let mut footer = [0u8; FOOTER_LEN];
        src.read_exact_at(size - footer_len, &mut footer)?;
        let manifest_len = match ds_shard::footer_manifest_len(&footer) {
            Ok(n) => n,
            // Any footer defect (magic, version) means "not ours".
            Err(_) => return Err(ServeError::NotSharded),
        };
        let body = size - footer_len;
        let manifest_len_u64 = manifest_len as u64;
        if manifest_len_u64 > body {
            return Err(ServeError::Shard(ShardError::Corrupt(
                "manifest length exceeds container",
            )));
        }
        let shard_region = body - manifest_len_u64;
        let mut manifest = vec![0u8; manifest_len];
        src.read_exact_at(shard_region, &mut manifest)?;
        let parsed = ds_shard::parse_manifest(&manifest, shard_region)?;
        let decoder = ShardDecoder::from_shared_blob(parsed.shared)?;
        ds_obs::counter(
            "serve.open_bytes_read",
            footer_len.saturating_add(manifest_len_u64),
        );
        Ok(Archive {
            inner: Arc::new(ArchiveInner {
                src,
                entries: parsed.entries,
                total_rows: parsed.total_rows,
                decoder,
                cache: ShardCache::new(cache_bytes),
                schema: OnceLock::new(),
                chains: parsed.chains,
            }),
        })
    }

    /// Per-column codec chains recorded in the manifest; `None` for
    /// containers that predate chain recording (they decode through the
    /// implicit legacy chain).
    pub fn codec_chains(&self) -> Option<&ds_shard::ShardChains> {
        self.inner.chains.as_ref()
    }

    /// Compact codec summary for `STAT`: the distinct registry codec
    /// names appearing in any recorded chain (first-appearance order,
    /// comma-joined), or `legacy` when the manifest has no chain section.
    /// Unknown ids cannot reach here — manifest parsing rejects them.
    pub fn codec_summary(&self) -> String {
        let Some(chains) = &self.inner.chains else {
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
        self.inner.total_rows
    }

    /// Number of shards in the archive.
    pub fn n_shards(&self) -> usize {
        self.inner.entries.len()
    }

    /// Manifest entries (row ranges, offsets, lengths, CRCs).
    pub fn entries(&self) -> &[ShardEntry] {
        &self.inner.entries
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

    /// Reads shard `i`'s blob via positioned reads and validates its CRC.
    fn shard_blob(&self, i: usize) -> Result<Vec<u8>> {
        let entry = self
            .inner
            .entries
            .get(i)
            .ok_or(ServeError::Shard(ShardError::Corrupt(
                "shard index out of range",
            )))?;
        let offset = u64::try_from(entry.offset)
            .map_err(|_| ServeError::Shard(ShardError::Corrupt("shard offset exceeds u64")))?;
        let mut blob = vec![0u8; entry.len];
        self.inner.src.read_exact_at(offset, &mut blob)?;
        if ds_codec::crc32::crc32(&blob) != entry.crc {
            return Err(ServeError::Shard(ShardError::CrcMismatch { shard: i }));
        }
        ds_obs::counter("serve.shard_bytes_read", blob.len() as u64);
        Ok(blob)
    }

    /// Decodes shard `i` from its blob (no cache involvement).
    fn decode_shard(&self, i: usize, parent: ds_obs::SpanId) -> Result<Arc<Table>> {
        let blob = self.shard_blob(i)?;
        let _sp = ds_obs::span_under(parent, "serve.decode_shard", i as u64);
        let table = self.inner.decoder.decode_shard(&blob)?;
        let entry = self
            .inner
            .entries
            .get(i)
            .ok_or(ServeError::Shard(ShardError::Corrupt(
                "shard index out of range",
            )))?;
        // A CRC-valid blob can still disagree with the manifest about its
        // row count; concatenating it anyway would silently misalign rows.
        if table.nrows() != entry.rows.len() {
            return Err(ServeError::Shard(ShardError::Corrupt(
                "decoded shard row count disagrees with manifest",
            )));
        }
        Ok(Arc::new(table))
    }

    /// Cache-aware single-shard decode (promoting lookup + insert).
    fn shard_table_cached(&self, i: usize) -> Result<Arc<Table>> {
        if self.inner.entries.is_empty() {
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
    /// inserts are applied in ascending shard order afterwards. This
    /// keeps cache state (and therefore eviction) deterministic for a
    /// serial request stream at any thread count.
    pub fn read_rows_with_stats(&self, rows: Range<usize>) -> Result<(Table, ReadStats)> {
        let inner = &*self.inner;
        let total = inner.total_rows;
        let start = rows.start.min(total);
        let end = rows.end.min(total).max(start);
        let mut sp = ds_obs::span("serve.read_rows");
        sp.add("rows", (end - start) as u64);
        let root = sp.id();
        let mut stats = ReadStats {
            shards_total: inner.entries.len(),
            ..ReadStats::default()
        };
        let shards = ds_shard::shards_intersecting(&inner.entries, total, start..end);
        if shards.is_empty() {
            // Empty request: answer with the right schema by probing the
            // first shard (through the cache), like the in-memory path.
            let probe = self.shard_table_cached(0)?;
            return Ok((probe.slice_rows(0..0), stats));
        }

        // Phase 1: ordered cache lookups. `None` slots are misses.
        let mut parts: Vec<Option<Arc<Table>>> = Vec::with_capacity(shards.len());
        let mut misses: Vec<usize> = Vec::new();
        for i in shards.clone() {
            match inner.cache.get(i) {
                Some(t) => {
                    stats.cache_hits += 1;
                    parts.push(Some(t));
                }
                None => {
                    stats.cache_misses += 1;
                    misses.push(i);
                    parts.push(None);
                }
            }
        }
        stats.shards_decoded = misses.len();

        // Phase 2: decode misses in parallel; first error in shard order
        // wins, deterministically.
        let decoded: Vec<Result<Arc<Table>>> = if misses.is_empty() {
            Vec::new()
        } else {
            ds_exec::parallel_map(misses.len(), |k| {
                let i = *misses.get(k).ok_or(ServeError::Shard(ShardError::Corrupt(
                    "miss index out of range",
                )))?;
                self.decode_shard(i, root)
            })
        };

        // Phase 3: ordered inserts, filling the miss slots.
        let mut decoded_iter = misses.iter().zip(decoded);
        for slot in parts.iter_mut() {
            if slot.is_none() {
                let (i, res) =
                    decoded_iter
                        .next()
                        .ok_or(ServeError::Shard(ShardError::Corrupt(
                            "decoded shard went missing",
                        )))?;
                let t = res?;
                inner.cache.insert(*i, Arc::clone(&t));
                *slot = Some(t);
            }
        }

        // Slice each shard to the requested sub-range and stitch.
        let mut sliced: Vec<Table> = Vec::with_capacity(parts.len());
        for (k, slot) in parts.into_iter().enumerate() {
            let i = shards.start + k;
            let entry = inner
                .entries
                .get(i)
                .ok_or(ServeError::Shard(ShardError::Corrupt(
                    "shard index out of range",
                )))?;
            let t = slot.ok_or(ServeError::Shard(ShardError::Corrupt(
                "decoded shard went missing",
            )))?;
            let lo = start.max(entry.rows.start) - entry.rows.start;
            let hi = end.min(entry.rows.end) - entry.rows.start;
            sliced.push(t.slice_rows(lo..hi));
        }
        let table = Table::concat(&sliced).map_err(|e| ServeError::Core(DsError::Table(e)))?;
        Ok((table, stats))
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
        let total = inner.total_rows;
        let start = rows.start.min(total);
        let end = rows.end.min(total).max(start);
        let mut sp = ds_obs::span("serve.stream");
        sp.add("rows", (end - start) as u64);
        let root = sp.id();
        if header {
            let schema = self.schema()?;
            let mut head = String::new();
            ds_table::csv::write_csv_header(&schema, &mut head);
            sink.write_all(head.as_bytes())?;
        }
        let shards = ds_shard::shards_intersecting(&inner.entries, total, start..end);
        let base = shards.start;
        let local_range = |i: usize| -> Result<Range<usize>> {
            let entry = inner
                .entries
                .get(i)
                .ok_or(ServeError::Shard(ShardError::Corrupt(
                    "shard index out of range",
                )))?;
            let lo = start.max(entry.rows.start) - entry.rows.start;
            let hi = end.min(entry.rows.end) - entry.rows.start;
            Ok(lo..hi)
        };
        let mut written: u64 = 0;
        let mut first_err: Option<ServeError> = None;
        ds_exec::parallel_map_consume(
            shards.len(),
            |k| -> Result<(String, u64)> {
                let i = base + k;
                let table = match inner.cache.peek(i) {
                    Some(t) => t,
                    None => self.decode_shard(i, root)?,
                };
                let r = local_range(i)?;
                let n = (r.end - r.start) as u64;
                let mut text = String::new();
                ds_table::csv::write_csv_rows(&table, r, &mut text);
                Ok((text, n))
            },
            |_k, res| {
                if first_err.is_some() {
                    return;
                }
                match res {
                    Ok((text, n)) => {
                        if let Err(e) = sink.write_all(text.as_bytes()) {
                            first_err = Some(ServeError::Io(e));
                        } else {
                            written += n;
                        }
                    }
                    Err(e) => first_err = Some(e),
                }
            },
        );
        if let Some(e) = first_err {
            return Err(e);
        }
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
    fn monolithic_and_garbage_inputs_are_not_sharded() {
        let t = gen::corel_like(60, 9);
        let cfg = DsConfig {
            error_threshold: 0.05,
            max_epochs: 2,
            shard_rows: 0, // monolithic v1 archive
            ..DsConfig::default()
        };
        let archive = compress(&t, &cfg).expect("compresses");
        assert!(matches!(
            Archive::open(archive.as_bytes().to_vec()),
            Err(ServeError::NotSharded)
        ));
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
        // The fixture predates chain recording, so STAT reports the
        // implicit legacy chain (the field itself must always be present).
        assert!(text.contains(" codecs=legacy\n"), "got: {text}");
        assert!(text.contains("\nERR unknown request `FROB`"), "got: {text}");
        assert!(text.ends_with("BYE\n"), "got: {text}");
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

    #[test]
    fn stat_reports_recorded_codec_chains() {
        use ds_codec::registry;
        let t = gen::monitor_like(90, 11);
        let cfg = ds_core::DsConfig {
            error_threshold: 0.05,
            max_epochs: 2,
            shard_rows: 30,
            numeric_probe: true,
            ..Default::default()
        };
        let mut bytes = Vec::new();
        ds_core::compress_sharded_to(&t, &cfg, &mut bytes).expect("compresses");
        let archive = Archive::open(bytes).expect("opens");
        let summary = archive.codec_summary();
        assert_ne!(summary, "legacy");
        // Every name in the summary is a registry name (no raw ids leak).
        for name in summary.split(',') {
            assert!(
                registry::descriptors().iter().any(|d| d.name == name),
                "unregistered name `{name}` in `{summary}`"
            );
        }
        let chains = archive.codec_chains().expect("chains recorded");
        assert_eq!(chains.n_cols(), t.ncols());
    }
}
