//! # ds-core — DeepSqueeze: deep semantic compression for tabular data
//!
//! A full reproduction of the DeepSqueeze system (Ilkhechi et al., SIGMOD
//! 2020). The compression pipeline follows the paper's three stages:
//!
//! 1. **Preprocessing** ([`preprocess`], §4) — dictionary encoding for
//!    categorical columns (with high-cardinality fallback and skew
//!    clipping), min-max scaling and guaranteed-error-bound quantization
//!    for numeric columns.
//! 2. **Model construction** ([`ds_nn`], §5) — a (mixture of) autoencoder
//!    experts with parameter-shared categorical decoding, trained
//!    end-to-end with a sparsely-gated router, hyperparameters chosen by
//!    Bayesian optimization with increasing sample sizes ([`tune`], §5.4).
//! 3. **Materialization** ([`materialize`], §6) — the decoder weights
//!    (gzip-compressed), truncated-and-integerized codes, columnar-encoded
//!    failures (rank coding for categoricals, XOR bitmaps for binary
//!    columns, bucket-index deltas for numerics) and the expert mapping
//!    (smaller of grouped-indexes vs per-tuple labels).
//!
//! Decompression inverts each step; categorical columns reconstruct
//! exactly, numeric columns within the user's per-column error threshold —
//! an invariant the test suite enforces on every dataset.
//!
//! ## Quick example
//!
//! ```
//! use ds_core::{compress, decompress, DsConfig};
//! use ds_table::gen;
//!
//! let table = gen::monitor_like(512, 42);
//! let cfg = DsConfig {
//!     error_threshold: 0.05,
//!     max_epochs: 5, // keep the doctest fast; defaults train longer
//!     ..DsConfig::default()
//! };
//! let archive = compress(&table, &cfg).unwrap();
//! assert!(archive.size() < table.raw_size());
//! let restored = decompress(&archive).unwrap();
//! assert_eq!(restored.nrows(), table.nrows());
//! ```

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels read clearer with explicit loops
#![allow(clippy::type_complexity)] // index-heavy numeric kernels read clearer with explicit loops

pub mod archive;
pub mod cluster;
pub mod materialize;
pub mod pipeline;
pub mod preprocess;
pub mod reader;
pub mod source;
pub mod stream;
pub mod tune;

pub use archive::{inspect, ArchiveInfo, DsArchive, SizeBreakdown};
pub use pipeline::{
    compress, decompress, decompress_rows, decompress_rows_with_stats, DsConfig, ShardDecoder,
    ShardedCompression, ShardedDecodeStats, TrainedCompressor,
};
pub use reader::ArchiveReader;
pub use source::{open_source, open_source_reader, OpenedSource, SourceKind};
pub use stream::{compress_csv_stream_to, compress_stream_to, CsvStreamInfo};
pub use tune::{tune, TuneConfig, TuneOutcome};

/// Errors surfaced by the DeepSqueeze pipeline.
#[derive(Debug)]
pub enum DsError {
    /// Configuration problem (with detail).
    InvalidConfig(&'static str),
    /// Corrupt or truncated archive.
    Corrupt(&'static str),
    /// Propagated neural-network failure.
    Nn(ds_nn::NnError),
    /// Propagated codec failure.
    Codec(ds_codec::CodecError),
    /// Propagated sharded-container failure (framing, CRC, manifest).
    Shard(ds_shard::ShardError),
    /// Propagated table failure.
    Table(ds_table::TableError),
    /// Propagated tuner failure.
    BayesOpt(ds_bayesopt::BayesOptError),
    /// A shard of a sharded compression failed; names the shard index and
    /// the row range it covered so multi-gigabyte runs are debuggable.
    ShardFailed {
        /// Index of the failing shard.
        shard: usize,
        /// Original-table row range the shard covered.
        rows: std::ops::Range<usize>,
        /// The underlying failure.
        source: Box<DsError>,
    },
}

impl std::fmt::Display for DsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsError::InvalidConfig(w) => write!(f, "invalid config: {w}"),
            DsError::Corrupt(w) => write!(f, "corrupt archive: {w}"),
            DsError::Nn(e) => write!(f, "model error: {e}"),
            DsError::Codec(e) => write!(f, "codec error: {e}"),
            DsError::Shard(e) => write!(f, "shard container error: {e}"),
            DsError::Table(e) => write!(f, "table error: {e}"),
            DsError::BayesOpt(e) => write!(f, "tuning error: {e}"),
            DsError::ShardFailed {
                shard,
                rows,
                source,
            } => {
                write!(
                    f,
                    "shard {shard} (rows {}..{}): {source}",
                    rows.start, rows.end
                )
            }
        }
    }
}

impl std::error::Error for DsError {}

impl From<ds_nn::NnError> for DsError {
    fn from(e: ds_nn::NnError) -> Self {
        DsError::Nn(e)
    }
}

impl From<ds_codec::CodecError> for DsError {
    fn from(e: ds_codec::CodecError) -> Self {
        DsError::Codec(e)
    }
}

impl From<ds_shard::ShardError> for DsError {
    fn from(e: ds_shard::ShardError) -> Self {
        DsError::Shard(e)
    }
}

impl From<ds_table::TableError> for DsError {
    fn from(e: ds_table::TableError) -> Self {
        DsError::Table(e)
    }
}

impl From<ds_bayesopt::BayesOptError> for DsError {
    fn from(e: ds_bayesopt::BayesOptError) -> Self {
        DsError::BayesOpt(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DsError>;
