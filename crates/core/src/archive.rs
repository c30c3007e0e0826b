//! The self-contained v1 blob: the payload of every v2 shard, the output
//! of [`crate::TrainedCompressor::compress_batch`], and — on its own — the
//! read-only v1 archive format.
//!
//! Layout (little-endian, varint-framed):
//!
//! ```text
//! "DSQZ" | version u8
//! nrows varint | ncols varint
//! per column: name (len-prefixed) | ColPlan
//! has_model u8
//! if has_model:
//!   decoder blob (len-prefixed, gzlike-compressed DSNN weights)   §6.1
//!   code layout: k varint | bits u8 | per expert×dim: min f32, span f32
//!   n_experts varint
//!   expert mapping: strategy u8 | payload (len-prefixed)          §6.4
//!   codes blob (len-prefixed parq)                                 §6.2
//! failures blob (len-prefixed parq)                                §6.3
//! rare-streams: count varint | per stream: col varint | parq blob
//! patches: len-prefixed gzlike blob of verbatim out-of-plan cells
//! ```

/// Byte-size breakdown matching the stacked bars of Fig. 6 ("DS Failures",
/// "DS Codes", "DS Decoder") plus the envelope metadata (plans,
/// dictionaries, quantizers — counted with failures in the paper's bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeBreakdown {
    /// Compressed decoder weights.
    pub decoder: usize,
    /// Truncated, integerized codes.
    pub codes: usize,
    /// Materialized failures + expert mapping + fallback columns.
    pub failures: usize,
    /// Envelope: plans, dictionaries, quantizers, code-layout header.
    pub metadata: usize,
}

impl SizeBreakdown {
    /// Total of all components.
    pub fn total(&self) -> usize {
        self.decoder + self.codes + self.failures + self.metadata
    }
}

/// Magic bytes of the archive format.
pub const MAGIC: &[u8; 4] = b"DSQZ";
/// Current format version.
pub const VERSION: u8 = 2;

/// A compressed table, self-contained: everything decompression needs.
#[derive(Debug, Clone)]
pub struct DsArchive {
    pub(crate) bytes: Vec<u8>,
    pub(crate) breakdown: SizeBreakdown,
    /// Per-column failure-stream sizes (diagnostics; empty after
    /// [`DsArchive::from_bytes`]).
    pub(crate) failure_stats: Vec<(String, usize)>,
}

impl DsArchive {
    /// Wraps raw bytes (breakdown is unavailable when loading from disk;
    /// sizes are re-derivable by decompressing).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        DsArchive {
            bytes,
            breakdown: SizeBreakdown::default(),
            failure_stats: Vec::new(),
        }
    }

    /// Total archive size in bytes — the numerator of the paper's
    /// compression ratio.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Raw bytes (write these to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Component sizes (zeroed for archives loaded via
    /// [`DsArchive::from_bytes`]).
    pub fn breakdown(&self) -> SizeBreakdown {
        self.breakdown
    }

    /// Per-column failure-stream sizes in bytes (compression-time
    /// diagnostics; empty for archives loaded from raw bytes).
    pub fn failure_stats(&self) -> &[(String, usize)] {
        &self.failure_stats
    }
}

/// Header-level description of an archive (no decompression needed).
#[derive(Debug, Clone)]
pub struct ArchiveInfo {
    /// Row count.
    pub nrows: usize,
    /// Per column: (name, plan kind description).
    pub columns: Vec<(String, &'static str)>,
    /// Whether a model is embedded.
    pub has_model: bool,
    /// Number of experts (1 when no model).
    pub n_experts: usize,
    /// Code dimensions (0 when no model).
    pub code_size: usize,
    /// Stored code width in bits (0 when no model). Read from the first
    /// shard's header; it is the archive's width, since the compressor
    /// measures it once at fit time and writes every shard at it (archives
    /// from before that chose per shard, and may differ past shard 0).
    pub code_bits: u8,
    /// Row-group shards in the container (0 = monolithic v1 archive).
    pub shards: usize,
    /// Per-column codec chains recorded in the manifest (the first
    /// shard's row). Only containers an older build wrote under its codec
    /// probe carry them; `None` for everything else, including every
    /// archive this build writes. Decoding never consults them: parq's
    /// own wire bytes say how each stream was encoded.
    pub codec_chains: Option<Vec<Vec<u16>>>,
}

/// Parses just the archive envelope — cheap metadata access for tooling.
/// Reads the manifest plus the first shard's envelope (which describes the
/// schema shared by every shard; a v1 archive is its own first shard).
pub fn inspect(archive: &DsArchive) -> crate::Result<ArchiveInfo> {
    let reader = crate::ArchiveReader::open(archive.as_bytes())?;
    let shards = reader.shards();
    let mut info = inspect_bytes(shards.shard_bytes(0)?)?;
    info.nrows = shards.total_rows();
    if !shards.is_unframed() {
        info.shards = shards.n_shards();
    }
    info.codec_chains = shards.chains().map(|chains| {
        (0..chains.n_cols())
            .map(|col| chains.chain(0, col).unwrap_or(&[]).to_vec())
            .collect()
    });
    Ok(info)
}

fn inspect_bytes(bytes: &[u8]) -> crate::Result<ArchiveInfo> {
    use crate::preprocess::ColPlan;
    use crate::DsError;
    use ds_codec::ByteReader;

    let mut r = ByteReader::new(bytes);
    if r.read_bytes(4)? != MAGIC {
        return Err(DsError::Corrupt("bad magic"));
    }
    if r.read_u8()? != VERSION {
        return Err(DsError::Corrupt("unsupported version"));
    }
    let nrows = r.read_varint_usize()?;
    let ncols = r.read_varint_usize()?;
    if ncols > 1 << 20 {
        return Err(DsError::Corrupt("implausible column count"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = std::str::from_utf8(r.read_len_prefixed()?)
            .map_err(|_| DsError::Corrupt("column name not utf-8"))?
            .to_owned();
        let kind = match ColPlan::read_from(&mut r)? {
            ColPlan::Numeric { .. } => "numeric (quantized)",
            ColPlan::NumericRaw { .. } => "numeric (raw)",
            ColPlan::Binary { .. } => "binary",
            ColPlan::Cat { .. } => "categorical",
            ColPlan::Fallback => "fallback (columnar)",
        };
        columns.push((name, kind));
    }
    let has_model = match r.read_u8()? {
        0 => false,
        1 => true,
        _ => return Err(DsError::Corrupt("bad model flag")),
    };
    let (mut n_experts, mut code_size, mut code_bits) = (1usize, 0usize, 0u8);
    if has_model {
        let _decoder = r.read_len_prefixed()?;
        code_size = r.read_varint_usize()?;
        code_bits = r.read_u8()?;
        n_experts = r.read_varint_usize()?;
    }
    Ok(ArchiveInfo {
        nrows,
        columns,
        has_model,
        n_experts,
        code_size,
        code_bits,
        shards: 0,
        codec_chains: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inspect_reads_envelope() {
        use ds_table::gen;
        let t = gen::monitor_like(120, 3);
        let cfg = crate::DsConfig {
            error_threshold: 0.1,
            code_size: 3,
            n_experts: 2,
            max_epochs: 2,
            ..Default::default()
        };
        let archive = crate::compress(&t, &cfg).expect("compresses");
        let info = inspect(&archive).expect("inspects");
        assert_eq!(info.nrows, 120);
        assert_eq!(info.columns.len(), 17);
        assert!(info.has_model);
        assert_eq!(info.n_experts, 2);
        assert_eq!(info.code_size, 3);
        assert!(info.code_bits >= 4);
        assert!(info
            .columns
            .iter()
            .all(|(_, k)| *k == "numeric (quantized)"));
    }

    #[test]
    fn inspect_rejects_garbage() {
        assert!(inspect(&DsArchive::from_bytes(vec![1, 2, 3])).is_err());
    }

    #[test]
    fn inspect_reads_sharded_containers() {
        use ds_table::gen;
        let t = gen::monitor_like(100, 7);
        let cfg = crate::DsConfig {
            error_threshold: 0.1,
            max_epochs: 2,
            shard_rows: 25,
            ..Default::default()
        };
        let archive = crate::compress(&t, &cfg).expect("compresses");
        let info = inspect(&archive).expect("inspects");
        assert_eq!(info.nrows, 100);
        assert_eq!(info.shards, 4);
        assert!(info.has_model);
        assert_eq!(info.columns.len(), t.ncols());

        // shard_rows = 0 is one shard of the same container, and a v1
        // blob (what a shard or a batch is) still reports 0.
        let cfg = crate::DsConfig {
            shard_rows: 0,
            ..cfg
        };
        let one = crate::compress(&t, &cfg).unwrap();
        assert_eq!(inspect(&one).unwrap().shards, 1);
        let trained = crate::TrainedCompressor::train(&t, &cfg).unwrap();
        let v1 = trained.compress_batch(&t).unwrap();
        assert_eq!(inspect(&v1).unwrap().shards, 0);
    }

    #[test]
    fn breakdown_total() {
        let b = SizeBreakdown {
            decoder: 10,
            codes: 20,
            failures: 30,
            metadata: 5,
        };
        assert_eq!(b.total(), 65);
    }

    #[test]
    fn from_bytes_preserves_size() {
        let a = DsArchive::from_bytes(vec![0u8; 123]);
        assert_eq!(a.size(), 123);
        assert_eq!(a.breakdown(), SizeBreakdown::default());
    }
}
