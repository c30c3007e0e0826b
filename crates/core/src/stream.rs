//! The one write pipeline: staged, two-pass, bounded-memory (§3e).
//!
//! Everything that writes a top-level archive runs these stages; the
//! public entry points only contribute a source or a sink. `compress`
//! wraps a `&Table` in a [`RowSource`] (an iterator of fixed-size
//! [`Table`] chunks that can be rewound for a second pass),
//! [`compress_stream_to`] takes any `RowSource`, and
//! [`compress_csv_stream_to`] reads a CSV whose schema is not yet known.
//!
//! 0. **Validate** — the one `DsConfig` check, before any row is read.
//! 1. **Ingest** (pass 1) — fold every chunk into a one-pass
//!    [`TableStats`] accumulator and, simultaneously, collect a seeded
//!    reservoir sample of rows. Two front ends ([`ingest`] over typed
//!    chunks, [`ingest_csv`] over raw records) produce one [`Ingested`].
//! 2. **Stats** — convert the accumulator into the per-column plans
//!    whole-table `preprocess` would have fitted (proven equivalent by
//!    the chunked-plan tests in [`crate::preprocess`]).
//! 3. **Train** — fit the mixture on the sample only
//!    ([`TrainedCompressor::fit`]).
//! 4. **Encode** (pass 2) — re-read the source, regroup chunks into
//!    exact `shard_rows` row groups (`shard_rows = 0`: one group of every
//!    row), and push each encoded group through the shared
//!    [`ds_shard::ShardWriter`] in index order.
//!
//! Peak memory is O(chunk + sample + shard window + model), never
//! O(table) unless one shard is asked to hold it.
//!
//! ## Determinism contract
//!
//! For a fixed seed, the produced container is byte-identical across
//! `DS_THREADS` settings *and* across chunk sizes. Thread-independence
//! comes from the ordered consume of `parallel_map_consume`;
//! chunk-independence holds because (a) the stats fold visits values in
//! row order regardless of partitioning, (b) the reservoir keeps row `i`
//! based only on `hash(seed, i)` — no per-chunk state — and (c) the
//! regrouper cuts shard boundaries at absolute row multiples of
//! `shard_rows`.

use crate::archive::SizeBreakdown;
use crate::pipeline::{DsConfig, ShardedCompression, TrainedCompressor};
use crate::preprocess::{CatColStats, ColPlan, ColumnStats, NumColStats, TableStats};
use crate::{DsError, Result};
use ds_table::csv::{CsvChunk, CsvChunks, TypeInference};
use ds_table::stream::{CsvFileSource, RowSource};
use ds_table::{ColumnType, Schema, Table, TableError};
use std::io::Write;
use std::path::Path;

// ---------------------------------------------------------------------------
// Reservoir: deterministic hash-threshold row selection
// ---------------------------------------------------------------------------

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keeps row `i` iff `hash(seed, i) < frac · 2⁶⁴` — a Bernoulli sample
/// keyed by *absolute* row index, so the selection is identical no matter
/// how the stream is chunked or which thread sees the row. The seed is
/// derived as `cfg.seed ^ 0x5A17`.
struct Reservoir {
    seed: u64,
    threshold: u64,
    all: bool,
}

impl Reservoir {
    fn new(frac: f64, seed: u64) -> Self {
        let all = frac >= 1.0;
        // 2^64 as f64; the cast saturates, so frac → 1 keeps every row.
        let threshold = (frac.max(0.0) * 18_446_744_073_709_551_616.0) as u64;
        Reservoir {
            seed: seed ^ 0x5A17,
            threshold,
            all,
        }
    }

    fn keep(&self, row: u64) -> bool {
        self.all || splitmix64(self.seed ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15)) < self.threshold
    }
}

// ---------------------------------------------------------------------------
// Regrouper: chunk-size-independent shard boundaries
// ---------------------------------------------------------------------------

/// Re-cuts arbitrarily-sized chunks into row groups of exactly
/// `shard_rows` rows (final group possibly short), with boundaries at
/// absolute row multiples of `shard_rows` — the step that makes shard
/// bytes independent of the reader's chunk size.
struct Regrouper {
    shard_rows: usize,
    buf: Vec<Table>,
    buffered: usize,
}

impl Regrouper {
    fn new(shard_rows: usize) -> Self {
        Regrouper {
            shard_rows: shard_rows.max(1),
            buf: Vec::new(),
            buffered: 0,
        }
    }

    /// Absorbs one chunk; returns every complete group it closed.
    fn push(&mut self, chunk: Table) -> Result<Vec<Table>> {
        if chunk.nrows() == 0 {
            return Ok(Vec::new());
        }
        // Fast path: aligned chunk, nothing buffered — pass it through
        // (the in-memory adapter always lands here: chunk == shard).
        if self.buf.is_empty() && chunk.nrows() == self.shard_rows {
            return Ok(vec![chunk]);
        }
        self.buffered += chunk.nrows();
        self.buf.push(chunk);
        if self.buffered < self.shard_rows {
            return Ok(Vec::new());
        }
        let merged = Table::concat(&self.buf).map_err(DsError::Table)?;
        self.buf.clear();
        let mut out = Vec::new();
        let mut lo = 0usize;
        while lo + self.shard_rows <= merged.nrows() {
            out.push(merged.slice_rows(lo..lo + self.shard_rows));
            lo += self.shard_rows;
        }
        let rest = merged.slice_rows(lo..merged.nrows());
        self.buffered = rest.nrows();
        if rest.nrows() > 0 {
            self.buf.push(rest);
        }
        Ok(out)
    }

    /// The final short group, if any rows remain buffered.
    fn finish(&mut self) -> Result<Option<Table>> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        self.buffered = 0;
        if self.buf.len() == 1 {
            return Ok(self.buf.pop());
        }
        let merged = Table::concat(&self.buf).map_err(DsError::Table)?;
        self.buf.clear();
        Ok(Some(merged))
    }
}

// ---------------------------------------------------------------------------
// The staged pipeline
// ---------------------------------------------------------------------------

/// What pass 1 yields, whichever front end read the input: typed chunks
/// ([`ingest`]) or raw CSV records ([`ingest_csv`]).
pub(crate) struct Ingested {
    schema: Schema,
    plans: Vec<ColPlan>,
    sample: Table,
    total_rows: usize,
}

impl Ingested {
    /// Fits the compressor on the sample. A tiny `sample_frac` can leave
    /// the reservoir empty, in which case the source's first row is used —
    /// deterministic across chunk sizes, since row 0 is row 0 in every
    /// partition.
    pub(crate) fn train(self, source: &dyn RowSource, cfg: &DsConfig) -> Result<TrainedCompressor> {
        let mut sample = self.sample;
        {
            let mut sp = ds_obs::span("reservoir");
            if sample.nrows() == 0 && self.total_rows > 0 {
                if let Some(first) = source.chunks()?.next() {
                    sample = first?.slice_rows(0..1);
                }
            }
            sp.add("rows", sample.nrows() as u64);
        }
        TrainedCompressor::fit(self.plans, &sample, cfg)
    }
}

/// Pass 1 over typed chunks: validates `cfg`, then one stats fold plus
/// reservoir selection.
pub(crate) fn ingest(source: &dyn RowSource, cfg: &DsConfig) -> Result<Ingested> {
    let schema = source.schema().clone();
    let opts = cfg.validated(schema.len())?;
    let reservoir = Reservoir::new(cfg.sample_frac, cfg.seed);
    let mut stats = TableStats::new(&schema, &opts)?;
    let mut parts: Vec<Table> = Vec::new();
    {
        let mut sp = ds_obs::span("ingest");
        let mut n_chunks = 0u64;
        let mut row_base = 0u64;
        for chunk in source.chunks()? {
            let chunk = chunk?;
            n_chunks += 1;
            ds_obs::gauge_max("stream.peak_chunk_bytes", 0, chunk.mem_size() as u64);
            stats.update(&chunk)?;
            let n = chunk.nrows();
            if reservoir.all {
                if n > 0 {
                    parts.push(chunk);
                }
            } else {
                let picked: Vec<usize> = (0..n)
                    .filter(|&r| reservoir.keep(row_base + r as u64))
                    .collect();
                if !picked.is_empty() {
                    parts.push(chunk.take(&picked));
                }
            }
            row_base += n as u64;
        }
        sp.add("rows", row_base);
        sp.add("chunks", n_chunks);
    }
    let total_rows = stats.rows();
    let plans = {
        let _sp = ds_obs::span("stats");
        stats.into_plans()?
    };
    let sample = match parts.len() {
        0 => Table::empty(schema.clone()),
        1 => parts.swap_remove(0),
        _ => Table::concat(&parts).map_err(DsError::Table)?,
    };
    Ok(Ingested {
        schema,
        plans,
        sample,
        total_rows,
    })
}

/// Everything after pass 1: fit on the sample, then pass 2 — re-read,
/// regroup, encode, stream out.
fn compress_ingested<W: Write>(
    source: &dyn RowSource,
    ingested: Ingested,
    cfg: &DsConfig,
    root_id: ds_obs::SpanId,
    sink: W,
) -> Result<ShardedCompression<W>> {
    let total_rows = ingested.total_rows;
    let trained = ingested.train(source, cfg)?;
    write_shards(source, &trained, total_rows, root_id, sink)
}

/// Compresses any [`RowSource`] into a v2 container via the staged
/// two-pass pipeline (see module docs). `compress` is an adapter over
/// this function; true streaming callers hand in a [`CsvFileSource`] (or
/// use [`compress_csv_stream_to`], which also infers the schema in its
/// first pass).
pub fn compress_stream_to<W: Write>(
    source: &dyn RowSource,
    cfg: &DsConfig,
    sink: W,
) -> Result<ShardedCompression<W>> {
    // The root span opens before ingest so every stage nests under it; its
    // id is captured for the per-shard encode spans, which run on pool
    // workers where this thread's span stack is not visible.
    let root = ds_obs::span("compress");
    let ingested = ingest(source, cfg)?;
    compress_ingested(source, ingested, cfg, root.id(), sink)
}

/// What pass 2 has pushed so far: the open container and the totals the
/// result reports.
struct Written<W: Write> {
    writer: ds_shard::ShardWriter<W>,
    shards: usize,
    rows: usize,
    breakdown: SizeBreakdown,
    failure_stats: Vec<(String, usize)>,
}

/// One window of complete row groups: encode on the pool, push into the
/// writer in index order.
fn encode_window<W: Write>(
    trained: &TrainedCompressor,
    groups: &[Table],
    root_id: ds_obs::SpanId,
    out: &mut Written<W>,
) -> Result<()> {
    // Global shard index and row offset of `groups[0]`.
    let (shard_base, rows_base) = (out.shards, out.rows);
    let mut offsets = Vec::with_capacity(groups.len());
    let mut lo = rows_base;
    for g in groups {
        offsets.push(lo);
        lo += g.nrows();
    }
    let mut first_err: Option<DsError> = None;
    // A failing shard's error names the shard and its row range — "shard
    // 7 (rows 448..512): …" — instead of surfacing as a bare codec error.
    let shard_failed = |j: usize, e: DsError| {
        let lo = offsets.get(j).copied().unwrap_or(rows_base);
        let rows = groups.get(j).map(Table::nrows).unwrap_or(0);
        DsError::ShardFailed {
            shard: shard_base + j,
            rows: lo..lo + rows,
            source: Box::new(e),
        }
    };
    ds_exec::parallel_map_consume(
        groups.len(),
        |j| {
            let mut sp = ds_obs::span_under(root_id, "shard", (shard_base + j) as u64);
            match groups.get(j) {
                Some(g) => {
                    sp.add("rows", g.nrows() as u64);
                    trained.encode(g, true)
                }
                None => Err(DsError::InvalidConfig(
                    "internal: window index out of range",
                )),
            }
        },
        |j, result| {
            if first_err.is_some() {
                return;
            }
            match result {
                Ok(archive) => {
                    let b = archive.breakdown();
                    out.breakdown.codes += b.codes;
                    out.breakdown.failures += b.failures;
                    if out.failure_stats.is_empty() {
                        out.failure_stats = archive.failure_stats().to_vec();
                    } else {
                        // Every shard encodes the same columns in order.
                        for (sum, (_, bytes)) in
                            out.failure_stats.iter_mut().zip(archive.failure_stats())
                        {
                            sum.1 += bytes;
                        }
                    }
                    let rows = groups.get(j).map(Table::nrows).unwrap_or(0);
                    if let Err(e) = out.writer.push_shard(rows, archive.as_bytes()) {
                        first_err = Some(shard_failed(j, e.into()));
                    }
                }
                Err(e) => first_err = Some(shard_failed(j, e)),
            }
        },
    );
    if let Some(e) = first_err {
        return Err(e);
    }
    out.shards += groups.len();
    out.rows = lo;
    Ok(())
}

/// Pass 2: re-read `source`, cut `shard_rows` groups (one group of every
/// row when `shard_rows` is 0), and encode them in bounded windows (2× the
/// pool width) so at most O(window · shard) rows are resident while later
/// chunks are still being read.
fn write_shards<W: Write>(
    source: &dyn RowSource,
    trained: &TrainedCompressor,
    total_rows: usize,
    root_id: ds_obs::SpanId,
    sink: W,
) -> Result<ShardedCompression<W>> {
    let shard_rows = match trained.cfg().shard_rows {
        0 => total_rows,
        n => n,
    };
    let shared = trained.decoder_blob();
    let mut out = Written {
        breakdown: SizeBreakdown {
            decoder: shared.len(),
            ..Default::default()
        },
        writer: ds_shard::ShardWriter::new(sink),
        shards: 0,
        rows: 0,
        failure_stats: Vec::new(),
    };
    out.writer.set_shared(shared);
    // Window size only affects scheduling, never bytes: groups are always
    // consumed in global index order.
    let window = ds_exec::effective_threads().saturating_mul(2).max(2);
    let mut regroup = Regrouper::new(shard_rows);
    let mut pending: Vec<Table> = Vec::new();
    let mut rows_seen = 0usize;
    let mut flush = |pending: &mut Vec<Table>| -> Result<()> {
        let groups: Vec<Table> = pending.drain(..window.min(pending.len())).collect();
        encode_window(trained, &groups, root_id, &mut out)
    };
    for chunk in source.chunks()? {
        let chunk = chunk?;
        rows_seen += chunk.nrows();
        pending.extend(regroup.push(chunk)?);
        while pending.len() >= window {
            flush(&mut pending)?;
        }
    }
    if rows_seen != total_rows {
        // The two passes disagree: the underlying data changed between
        // them (file rewritten mid-compression, non-rewindable source...).
        return Err(DsError::InvalidConfig("row source changed between passes"));
    }
    if let Some(tail) = regroup.finish()? {
        pending.push(tail);
    }
    if total_rows == 0 {
        // An empty source still gets one (zero-row) shard so the
        // container self-describes the schema.
        pending.push(Table::empty(source.schema().clone()));
    }
    while !pending.is_empty() {
        flush(&mut pending)?;
    }
    let (sink, total_bytes) = out.writer.finish()?;
    let mut breakdown = out.breakdown;
    let accounted = breakdown.decoder + breakdown.codes + breakdown.failures;
    breakdown.metadata = (total_bytes as usize).saturating_sub(accounted);
    Ok(ShardedCompression {
        sink,
        total_bytes,
        n_shards: out.shards,
        breakdown,
        failure_stats: out.failure_stats,
    })
}

// ---------------------------------------------------------------------------
// CSV front end: schema inference + compression in two file passes
// ---------------------------------------------------------------------------

/// Pass-1 census facts of a CSV streaming compression.
pub struct CsvStreamInfo {
    /// Data rows in the file (header excluded).
    pub rows: usize,
    /// Schema inferred by the probe — identical to what
    /// `ds_table::csv::read_csv_infer` infers on the whole file.
    pub schema: Schema,
}

/// Pass-1 statistics of one CSV column while its type is open. The probe
/// is numeric-first: a column folds numeric statistics until a cell fails
/// [`ds_table::csv::numeric_cell`], and categorical statistics only from
/// the chunk holding that cell on.
struct ColProbe {
    num: NumColStats,
    /// Categorical statistics from row `cat_from` on; `None` while every
    /// cell seen is numeric.
    cat: Option<CatColStats>,
    /// First row folded into `cat`: the start of the chunk where the
    /// column first failed. Rows before it are refolded by
    /// [`refold_prefixes`].
    cat_from: usize,
}

impl ColProbe {
    /// Folds column `col` of `chunk`, whose first row is table row `base`.
    fn fold(&mut self, chunk: &CsvChunk, col: usize, base: usize) {
        if self.cat.is_none() {
            let num = &mut self.num;
            if chunk.numeric_column(col, |x| num.push(x)).is_none() {
                return;
            }
            // The column is categorical: its numeric statistics are dead.
            self.num = NumColStats::new(false);
            self.cat = Some(CatColStats::new());
            self.cat_from = base;
        }
        if let Some(cat) = &mut self.cat {
            for cell in chunk.column(col) {
                cat.push(cell);
            }
        }
    }
}

fn open_csv(
    path: &Path,
    chunk_rows: usize,
) -> Result<CsvChunks<std::io::BufReader<std::fs::File>>> {
    let file = std::fs::File::open(path).map_err(|e| TableError::Io(e.to_string()))?;
    Ok(CsvChunks::new(std::io::BufReader::new(file), chunk_rows)?)
}

/// Pass 1 over raw CSV records (the schema is not known until every cell
/// has been seen): checks the header names and validates `cfg` against
/// them before any data row is read, then resolves the schema by the one
/// column-type rule ([`TypeInference`]) while folding column statistics
/// (one pool task per column and chunk) and reservoir-sampling training
/// rows as raw record bytes, typed once the schema is known.
fn ingest_csv(path: &Path, cfg: &DsConfig, chunk_rows: usize) -> Result<Ingested> {
    let mut chunks = open_csv(path, chunk_rows)?;
    let mut types = TypeInference::new(chunks.header())?;
    let opts = cfg.validated(chunks.header().len())?;
    let reservoir = Reservoir::new(cfg.sample_frac, cfg.seed);
    let mut probes: Vec<ColProbe> = opts
        .error_thresholds
        .iter()
        .map(|&e| ColProbe {
            num: NumColStats::new(e == 0.0 && opts.quantize_numerics),
            cat: None,
            cat_from: 0,
        })
        .collect();
    let mut sample = CsvChunk::empty(probes.len());
    let mut total_rows = 0usize;
    {
        let mut sp = ds_obs::span("ingest");
        let mut n_chunks = 0u64;
        while let Some(chunk) = chunks.next_chunk()? {
            n_chunks += 1;
            ds_obs::gauge_max("stream.peak_chunk_bytes", 0, chunk.mem_size() as u64);
            let base = total_rows;
            ds_exec::parallel_chunks_mut(&mut probes, 1, |col, _, probe| {
                for p in probe {
                    p.fold(&chunk, col, base);
                }
            });
            let n = chunk.nrows();
            if reservoir.all {
                sample.push_rows(&chunk, 0..n);
            } else {
                for r in (0..n).filter(|&r| reservoir.keep((base + r) as u64)) {
                    sample.push_rows(&chunk, r..r + 1);
                }
            }
            total_rows += n;
        }
        sp.add("rows", total_rows as u64);
        sp.add("chunks", n_chunks);
    }
    for (col, p) in probes.iter().enumerate() {
        if p.cat.is_some() {
            types.fail(col);
        }
    }
    refold_prefixes(path, chunk_rows, &mut probes)?;

    let schema = types.finish(total_rows)?;
    let cols: Vec<ColumnStats> = schema
        .fields()
        .iter()
        .zip(probes)
        .map(|(f, p)| match f.ty {
            ColumnType::Numeric => ColumnStats::Num(p.num),
            ColumnType::Categorical => ColumnStats::Cat(p.cat.unwrap_or_else(CatColStats::new)),
        })
        .collect();
    let stats = TableStats::from_parts(schema.clone(), opts, cols, total_rows)?;
    let plans = {
        let _sp = ds_obs::span("stats");
        stats.into_plans()?
    };
    // Typed conversion of the sampled rows cannot hit numeric parse
    // errors: a column is only numeric when every cell parsed in pass 1.
    let sample = sample.to_table(&schema, 0).map_err(DsError::Table)?;
    Ok(Ingested {
        schema,
        plans,
        sample,
        total_rows,
    })
}

/// The column-restricted re-read behind the numeric-first probe: a column
/// that first failed after chunk 0 has categorical statistics only from
/// that chunk on. One more read of the file's head, as far as the latest
/// such chunk, folds each such column's earlier rows, and the fold of
/// those rows followed by the rest is exactly the fold of every cell in
/// row order. Columns that failed in chunk 0 (or never) cost nothing.
fn refold_prefixes(path: &Path, chunk_rows: usize, probes: &mut [ColProbe]) -> Result<()> {
    let until: Vec<usize> = probes
        .iter()
        .map(|p| if p.cat.is_some() { p.cat_from } else { 0 })
        .collect();
    let Some(&last) = until.iter().max().filter(|&&m| m > 0) else {
        return Ok(());
    };
    let _sp = ds_obs::span("refold");
    let mut prefixes: Vec<Option<CatColStats>> = until
        .iter()
        .map(|&u| (u > 0).then(CatColStats::new))
        .collect();
    let mut chunks = open_csv(path, chunk_rows)?;
    let mut base = 0usize;
    while base < last {
        let Some(chunk) = chunks.next_chunk()? else {
            return Err(DsError::InvalidConfig("row source changed between passes"));
        };
        ds_exec::parallel_chunks_mut(&mut prefixes, 1, |col, _, prefix| {
            let take = until.get(col).map_or(0, |&u| u.saturating_sub(base));
            for stats in prefix.iter_mut().flatten() {
                for cell in chunk.column(col).take(take) {
                    stats.push(cell);
                }
            }
        });
        base += chunk.nrows();
    }
    for (p, prefix) in probes.iter_mut().zip(prefixes) {
        if let (Some(mut prefix), Some(rest)) = (prefix, p.cat.as_mut()) {
            prefix.append(std::mem::replace(rest, CatColStats::new()));
            *rest = prefix;
        }
    }
    Ok(())
}

/// Streaming CSV compression: reads the file twice with `chunk_rows` rows
/// resident at a time. Pass 1 infers the schema ([`ingest_csv`]); pass 2
/// re-reads the file as typed chunks and encodes shard row groups. For a
/// fixed seed the output is byte-identical to loading the whole file with
/// `read_csv_infer` and calling [`crate::compress`] with the same config.
pub fn compress_csv_stream_to<W: Write>(
    path: &Path,
    cfg: &DsConfig,
    chunk_rows: usize,
    sink: W,
) -> Result<(ShardedCompression<W>, CsvStreamInfo)> {
    let chunk_rows = chunk_rows.max(1);
    let root = ds_obs::span("compress");
    let ingested = ingest_csv(path, cfg, chunk_rows)?;
    let info = CsvStreamInfo {
        rows: ingested.total_rows,
        schema: ingested.schema.clone(),
    };
    let source = CsvFileSource::new(path, info.schema.clone(), chunk_rows);
    let out = compress_ingested(&source, ingested, cfg, root.id(), sink)?;
    Ok((out, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress, DsArchive};
    use ds_table::gen;
    use ds_table::stream::TableSource;

    fn quick_cfg() -> DsConfig {
        DsConfig {
            error_threshold: 0.05,
            max_epochs: 3,
            shard_rows: 16,
            seed: 9,
            ..DsConfig::default()
        }
    }

    #[test]
    fn reservoir_keys_on_absolute_row_index() {
        let full = Reservoir::new(1.0, 7);
        assert!((0..100).all(|i| full.keep(i)));

        let half = Reservoir::new(0.5, 7);
        let a: Vec<bool> = (0..10_000).map(|i| half.keep(i)).collect();
        let b: Vec<bool> = (0..10_000).map(|i| half.keep(i)).collect();
        assert_eq!(a, b); // pure function of (seed, index)
        let kept = a.iter().filter(|&&k| k).count();
        assert!((3_500..6_500).contains(&kept), "kept {kept} of 10000");
        // Different seed, different selection.
        let other: Vec<bool> = (0..10_000)
            .map(|i| Reservoir::new(0.5, 8).keep(i))
            .collect();
        assert_ne!(a, other);
    }

    #[test]
    fn regrouper_boundaries_are_chunk_size_independent() {
        let t = gen::monitor_like(100, 3);
        let cut = |chunk: usize| -> Vec<Table> {
            let mut rg = Regrouper::new(16);
            let mut groups = Vec::new();
            let src = TableSource::new(&t, chunk);
            for c in src.chunks().unwrap() {
                groups.extend(rg.push(c.unwrap()).unwrap());
            }
            if let Some(tail) = rg.finish().unwrap() {
                groups.push(tail);
            }
            groups
        };
        let reference = cut(16);
        assert_eq!(
            reference.iter().map(Table::nrows).collect::<Vec<_>>(),
            [16, 16, 16, 16, 16, 16, 4]
        );
        for chunk in [1, 7, 16, 23, 64, 101] {
            let groups = cut(chunk);
            assert_eq!(groups.len(), reference.len(), "chunk={chunk}");
            for (g, r) in groups.iter().zip(&reference) {
                assert_eq!(g, r, "chunk={chunk}");
            }
        }
    }

    #[test]
    fn streaming_bytes_match_in_memory_adapter_across_chunk_sizes() {
        let t = gen::census_like(200, 11);
        let cfg = quick_cfg();
        let reference = compress(&t, &cfg).unwrap();
        for chunk in [1, 7, 64, 201] {
            let src = TableSource::new(&t, chunk);
            let out = compress_stream_to(&src, &cfg, Vec::new()).unwrap();
            assert_eq!(out.sink, reference.as_bytes(), "chunk={chunk}");
            assert_eq!(out.n_shards, t.nrows().div_ceil(cfg.shard_rows));
        }
        // And the container still decompresses to the right table shape.
        let restored = decompress(&reference).unwrap();
        assert_eq!(restored.nrows(), t.nrows());
    }

    #[test]
    fn every_entry_point_trains_the_same_model() {
        // One sampler: the same table and config fit the same decoder
        // whether they enter through `train` or through `compress`, at any
        // shard size.
        let t = gen::forest_like(200, 6);
        for sample_frac in [1.0, 0.25] {
            for shard_rows in [0, 64] {
                let cfg = DsConfig {
                    sample_frac,
                    shard_rows,
                    ..quick_cfg()
                };
                let trained = TrainedCompressor::train(&t, &cfg).unwrap();
                let archive = crate::compress(&t, &cfg).unwrap();
                let reader = ds_shard::ShardReader::open(archive.as_bytes()).unwrap();
                assert!(!reader.shared().is_empty());
                assert_eq!(
                    trained.decoder_blob(),
                    reader.shared(),
                    "sample_frac {sample_frac}, shard_rows {shard_rows}"
                );
            }
        }
    }

    #[test]
    fn empty_source_still_writes_one_shard() {
        let t = gen::monitor_like(10, 1).slice_rows(0..0);
        let src = TableSource::new(&t, 8);
        let out = compress_stream_to(&src, &quick_cfg(), Vec::new()).unwrap();
        assert_eq!(out.n_shards, 1);
        let archive = DsArchive {
            bytes: out.sink,
            breakdown: out.breakdown,
            failure_stats: Vec::new(),
        };
        assert_eq!(decompress(&archive).unwrap().nrows(), 0);
    }

    #[test]
    fn changing_source_between_passes_is_detected() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Shrinking {
            table: Table,
            passes: AtomicUsize,
        }
        impl RowSource for Shrinking {
            fn schema(&self) -> &Schema {
                self.table.schema()
            }
            fn chunks(
                &self,
            ) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>>
            {
                let pass = self.passes.fetch_add(1, Ordering::SeqCst);
                let rows = if pass == 0 { 20 } else { 15 };
                Ok(Box::new(std::iter::once(Ok(self
                    .table
                    .slice_rows(0..rows)))))
            }
        }

        let src = Shrinking {
            table: gen::monitor_like(20, 5),
            passes: AtomicUsize::new(0),
        };
        let err = match compress_stream_to(&src, &quick_cfg(), Vec::new()) {
            Err(e) => e,
            Ok(_) => panic!("expected pass mismatch to fail"),
        };
        assert!(matches!(err, DsError::InvalidConfig(m) if m.contains("between passes")));
    }

    #[test]
    fn stream_rejects_bad_configs() {
        let t = gen::monitor_like(10, 1);
        let src = TableSource::new(&t, 4);
        let order_free = DsConfig {
            order_free: true,
            ..quick_cfg()
        };
        assert!(compress_stream_to(&src, &order_free, Vec::new()).is_err());
        let bad_frac = DsConfig {
            sample_frac: 0.0,
            ..quick_cfg()
        };
        assert!(compress_stream_to(&src, &bad_frac, Vec::new()).is_err());
    }

    #[test]
    fn sampled_streaming_archive_roundtrips() {
        let t = gen::forest_like(300, 4);
        let cfg = DsConfig {
            sample_frac: 0.1,
            ..quick_cfg()
        };
        let src = TableSource::new(&t, 37);
        let out = compress_stream_to(&src, &cfg, Vec::new()).unwrap();
        // Chunk-size invariance holds with sampling too: the reservoir is
        // keyed by absolute row index, not by chunk.
        let again = compress_stream_to(&TableSource::new(&t, 301), &cfg, Vec::new()).unwrap();
        assert_eq!(out.sink, again.sink);
        // Sampling only changes what the model trains on; reconstruction
        // guarantees are plan-level and must hold for every row.
        let archive = DsArchive {
            bytes: out.sink,
            breakdown: out.breakdown,
            failure_stats: Vec::new(),
        };
        let restored = decompress(&archive).unwrap();
        assert_eq!(restored.nrows(), t.nrows());
    }
}
