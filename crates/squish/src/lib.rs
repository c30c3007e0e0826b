//! # ds-squish — the Squish baseline
//!
//! A reimplementation of Squish (Gao & Parameswaran, KDD 2016), the
//! "state-of-the-art semantic compressor" DeepSqueeze compares against
//! (§2.3, §7): a **Bayesian network** over the columns captures
//! correlations and functional dependencies, and each attribute value is
//! **arithmetic-coded** under its conditional distribution given its
//! parent. Numeric columns are quantized to the caller's error threshold
//! (lossless when the threshold is 0), exactly like DeepSqueeze's own
//! preprocessing, so the two systems compete under identical error
//! contracts.
//!
//! Structure learning uses the Chow–Liu algorithm: the maximum spanning
//! tree of pairwise mutual information, the classic tractable Bayesian-
//! network learner. Columns whose cardinality is near the row count
//! (primary keys, hash ids) are excluded from the network and stored via
//! the generic columnar path instead — mirroring DeepSqueeze's own
//! high-cardinality fallback so neither system eats the other's
//! pathological case.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels read clearer with explicit loops

pub mod bn;

use ds_codec::dict::Dictionary;
use ds_codec::quant::Quantizer;
use ds_codec::rangecoder::{RangeDecoder, RangeEncoder, StaticModel};
use ds_codec::{parq, ByteReader, ByteWriter};
use ds_table::{CatColumn, Column, ColumnType, Table};

/// Errors from Squish compression/decompression.
#[derive(Debug)]
pub enum SquishError {
    /// Configuration problem (with detail).
    InvalidConfig(&'static str),
    /// Corrupt or truncated archive bytes.
    Corrupt(&'static str),
    /// Propagated codec failure.
    Codec(ds_codec::CodecError),
    /// Propagated table failure.
    Table(ds_table::TableError),
}

impl std::fmt::Display for SquishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SquishError::InvalidConfig(w) => write!(f, "invalid config: {w}"),
            SquishError::Corrupt(w) => write!(f, "corrupt archive: {w}"),
            SquishError::Codec(e) => write!(f, "codec error: {e}"),
            SquishError::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for SquishError {}

impl From<ds_codec::CodecError> for SquishError {
    fn from(e: ds_codec::CodecError) -> Self {
        SquishError::Codec(e)
    }
}

impl From<ds_table::TableError> for SquishError {
    fn from(e: ds_table::TableError) -> Self {
        SquishError::Table(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SquishError>;

/// Compression parameters.
#[derive(Debug, Clone)]
pub struct SquishConfig {
    /// Relative error bound for numeric columns (fraction of range; 0 =
    /// lossless). Applied uniformly, as in the paper's evaluation.
    pub error_threshold: f64,
    /// Rows sampled for mutual-information estimation (structure learning
    /// cost control; the CPTs always use all rows).
    pub mi_sample: usize,
    /// Columns with `distinct/rows` above this bypass the network.
    pub high_card_ratio: f64,
    /// CPTs larger than this many entries fall back to marginals.
    pub max_cpt_entries: usize,
    /// Seed for the MI sample.
    pub seed: u64,
}

impl Default for SquishConfig {
    fn default() -> Self {
        SquishConfig {
            error_threshold: 0.0,
            mi_sample: 4000,
            high_card_ratio: 0.5,
            max_cpt_entries: 1 << 17,
            seed: 0,
        }
    }
}

/// A self-contained compressed archive.
#[derive(Debug, Clone)]
pub struct SquishArchive {
    bytes: Vec<u8>,
    /// Size of the model portion (tree + CPTs + dicts + quantizers).
    pub model_bytes: usize,
    /// Size of the arithmetic-coded data stream.
    pub data_bytes: usize,
    /// Size of the fallback (high-cardinality) column storage.
    pub fallback_bytes: usize,
}

impl SquishArchive {
    /// Total archive size in bytes — the numerator of the compression
    /// ratio.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Raw archive bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuilds an archive from bytes (sizes are re-derived on read).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        SquishArchive {
            bytes,
            model_bytes: 0,
            data_bytes: 0,
            fallback_bytes: 0,
        }
    }
}

/// Per-column encoded representation inside the network.
enum ColKind {
    /// Dictionary-coded categorical.
    Cat(Dictionary),
    /// Quantized numeric.
    Num(Quantizer),
}

impl ColKind {
    fn cardinality(&self) -> usize {
        match self {
            ColKind::Cat(d) => d.len().max(1),
            ColKind::Num(q) => q.cardinality(),
        }
    }
}

/// Compresses a table.
pub fn compress(table: &Table, cfg: &SquishConfig) -> Result<SquishArchive> {
    if !(0.0..=1.0).contains(&cfg.error_threshold) {
        return Err(SquishError::InvalidConfig("error threshold not in [0,1]"));
    }
    let n = table.nrows();

    // ---- split columns: network vs high-cardinality fallback -------------
    let mut net_cols: Vec<usize> = Vec::new();
    let mut fallback_cols: Vec<usize> = Vec::new();
    for (i, col) in table.columns().iter().enumerate() {
        let too_wide = n > 0
            && col.ty() == ColumnType::Categorical
            && col.distinct_count() as f64 > cfg.high_card_ratio * n as f64
            && col.distinct_count() > 64;
        if too_wide {
            fallback_cols.push(i);
        } else {
            net_cols.push(i);
        }
    }

    // ---- discretize network columns --------------------------------------
    let mut kinds: Vec<ColKind> = Vec::with_capacity(net_cols.len());
    let mut codes: Vec<Vec<u32>> = Vec::with_capacity(net_cols.len());
    for &i in &net_cols {
        match table.column(i).expect("index from enumerate") {
            Column::Cat(values) => {
                let mut dict = Dictionary::new();
                codes.push(values.translate(|v| dict.intern(v)));
                kinds.push(ColKind::Cat(dict));
            }
            Column::Num(values) => {
                let q = Quantizer::fit(values, cfg.error_threshold)?;
                codes.push(q.encode_column(values));
                kinds.push(ColKind::Num(q));
            }
        }
    }

    // ---- structure learning (Chow–Liu) ------------------------------------
    let cards: Vec<usize> = kinds.iter().map(ColKind::cardinality).collect();
    let parents = bn::chow_liu(&codes, &cards, cfg.mi_sample, cfg.seed);
    let order = bn::topological_order(&parents);

    // ---- CPTs ---------------------------------------------------------------
    // For column c with parent p: counts[c][u] = histogram of c's values
    // where parent value = u. Oversized CPTs degrade to marginals.
    let mut effective_parents = parents.clone();
    for (c, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            if cards[c].saturating_mul(cards[*p]) > cfg.max_cpt_entries {
                effective_parents[c] = None;
            }
        }
    }
    let mut cpts: Vec<Vec<Vec<u64>>> = Vec::with_capacity(codes.len());
    for c in 0..codes.len() {
        let rows_of_parent = effective_parents[c].map(|p| &codes[p]);
        let n_parent_vals = effective_parents[c].map(|p| cards[p]).unwrap_or(1);
        let mut table_c = vec![vec![0u64; cards[c]]; n_parent_vals];
        for r in 0..n {
            let u = rows_of_parent.map(|pc| pc[r] as usize).unwrap_or(0);
            table_c[u][codes[c][r] as usize] += 1;
        }
        cpts.push(table_c);
    }

    // ---- arithmetic-code the data -----------------------------------------
    let models: Vec<Vec<StaticModel>> = cpts
        .iter()
        .map(|t| {
            t.iter()
                .map(|counts| StaticModel::from_counts(counts))
                .collect::<ds_codec::Result<Vec<_>>>()
        })
        .collect::<ds_codec::Result<Vec<_>>>()?;
    let mut enc = RangeEncoder::new();
    for r in 0..n {
        for &c in &order {
            let u = effective_parents[c]
                .map(|p| codes[p][r] as usize)
                .unwrap_or(0);
            models[c][u].encode(&mut enc, codes[c][r] as usize)?;
        }
    }
    let data_stream = if n > 0 && !codes.is_empty() {
        enc.finish()
    } else {
        Vec::new()
    };

    // ---- fallback columns through the generic columnar path ---------------
    let fallback_named: Vec<(String, parq::ParqColumn)> = fallback_cols
        .iter()
        .map(|&i| {
            let name = table.schema().field(i).expect("valid index").name.clone();
            let values = table
                .column(i)
                .expect("valid index")
                .as_cat()
                .expect("fallback columns are categorical");
            let values = values.iter().map(str::to_owned).collect();
            (name, parq::ParqColumn::Str(values))
        })
        .collect();
    let (fallback_blob, _) = parq::write_table(&fallback_named)?;

    // ---- serialize the archive ---------------------------------------------
    let mut w = ByteWriter::new();
    w.write_bytes(b"SQSH");
    w.write_varint(n as u64);
    w.write_varint(table.ncols() as u64);
    // Column dispositions in schema order: 0 = network index k, 1 = fallback.
    let mut net_rank = vec![usize::MAX; table.ncols()];
    for (k, &i) in net_cols.iter().enumerate() {
        net_rank[i] = k;
    }
    for i in 0..table.ncols() {
        let f = table.schema().field(i).expect("valid index");
        w.write_len_prefixed(f.name.as_bytes());
        w.write_u8(match f.ty {
            ColumnType::Categorical => 0,
            ColumnType::Numeric => 1,
        });
        if net_rank[i] == usize::MAX {
            w.write_u8(1);
        } else {
            w.write_u8(0);
        }
    }

    let model_start = w.len();
    // Per network column: kind payload, parent (+1, 0 = none), CPT counts.
    w.write_varint(net_cols.len() as u64);
    for (k, kind) in kinds.iter().enumerate() {
        match kind {
            ColKind::Cat(dict) => {
                w.write_u8(0);
                dict.write_to(&mut w);
            }
            ColKind::Num(q) => {
                w.write_u8(1);
                q.write_to(&mut w);
            }
        }
        match effective_parents[k] {
            Some(p) => w.write_varint(p as u64 + 1),
            None => w.write_varint(0),
        }
        // CPT: parent-value-major, serialized sparsely — real CPTs are
        // mostly zeros (a child value co-occurs with few parent values),
        // and zero counts are reconstructible, so only nonzero entries are
        // written as (index-delta, count) pairs.
        let t = &cpts[k];
        w.write_varint(t.len() as u64);
        for counts in t {
            let nonzero = counts.iter().filter(|&&c| c > 0).count();
            w.write_varint(nonzero as u64);
            let mut prev = 0u64;
            for (idx, &c) in counts.iter().enumerate() {
                if c > 0 {
                    w.write_varint(idx as u64 - prev);
                    w.write_varint(c.min(u64::from(u32::MAX)));
                    prev = idx as u64;
                }
            }
        }
    }
    let model_bytes = w.len() - model_start;

    let data_start = w.len();
    w.write_len_prefixed(&data_stream);
    let data_bytes = w.len() - data_start;

    let fb_start = w.len();
    w.write_len_prefixed(&fallback_blob);
    let fallback_bytes = w.len() - fb_start;

    Ok(SquishArchive {
        bytes: w.into_vec(),
        model_bytes,
        data_bytes,
        fallback_bytes,
    })
}

/// Decompresses an archive back into a table (numeric values are bucket
/// midpoints, within the compression-time error bound).
pub fn decompress(archive: &SquishArchive) -> Result<Table> {
    let mut r = ByteReader::new(&archive.bytes);
    if r.read_bytes(4)? != b"SQSH" {
        return Err(SquishError::Corrupt("bad magic"));
    }
    let n = r.read_varint()? as usize;
    let ncols = r.read_varint()? as usize;
    if n > ds_codec::MAX_DECODE_ELEMS {
        return Err(SquishError::Corrupt("row count exceeds decode limit"));
    }
    if ncols > 1 << 20 {
        return Err(SquishError::Corrupt("implausible column count"));
    }

    struct ColMeta {
        name: String,
        ty: ColumnType,
        fallback: bool,
    }
    let mut metas = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = std::str::from_utf8(r.read_len_prefixed()?)
            .map_err(|_| SquishError::Corrupt("column name not utf-8"))?
            .to_owned();
        let ty = match r.read_u8()? {
            0 => ColumnType::Categorical,
            1 => ColumnType::Numeric,
            _ => return Err(SquishError::Corrupt("bad type tag")),
        };
        let fallback = match r.read_u8()? {
            0 => false,
            1 => true,
            _ => return Err(SquishError::Corrupt("bad disposition tag")),
        };
        metas.push(ColMeta { name, ty, fallback });
    }

    let n_net = r.read_varint()? as usize;
    if n_net > ncols {
        return Err(SquishError::Corrupt("network column count exceeds table"));
    }
    let mut kinds: Vec<ColKind> = Vec::with_capacity(n_net);
    let mut parents: Vec<Option<usize>> = Vec::with_capacity(n_net);
    let mut models: Vec<Vec<StaticModel>> = Vec::with_capacity(n_net);
    for _ in 0..n_net {
        let kind = match r.read_u8()? {
            0 => ColKind::Cat(Dictionary::read_from(&mut r)?),
            1 => ColKind::Num(Quantizer::read_from(&mut r)?),
            _ => return Err(SquishError::Corrupt("bad column kind")),
        };
        let parent = match r.read_varint()? {
            0 => None,
            p => {
                let p = (p - 1) as usize;
                if p >= n_net {
                    return Err(SquishError::Corrupt("parent out of range"));
                }
                Some(p)
            }
        };
        let card = kind.cardinality();
        let n_parent_vals = r.read_varint()? as usize;
        if n_parent_vals == 0 || n_parent_vals.saturating_mul(card) > 1 << 26 {
            return Err(SquishError::Corrupt("implausible CPT size"));
        }
        let mut col_models = Vec::with_capacity(n_parent_vals);
        for _ in 0..n_parent_vals {
            let mut counts = vec![0u64; card];
            let nonzero = r.read_varint()? as usize;
            if nonzero > card {
                return Err(SquishError::Corrupt("CPT nonzero count exceeds card"));
            }
            let mut idx = 0u64;
            for j in 0..nonzero {
                let delta = r.read_varint()?;
                idx = if j == 0 { delta } else { idx + delta };
                let slot = usize::try_from(idx)
                    .ok()
                    .filter(|&i| i < card)
                    .ok_or(SquishError::Corrupt("CPT index out of range"))?;
                counts[slot] = r.read_varint()?;
            }
            col_models.push(StaticModel::from_counts(&counts)?);
        }
        kinds.push(kind);
        parents.push(parent);
        models.push(col_models);
    }

    let parents_valid = parents
        .iter()
        .enumerate()
        .all(|(c, p)| p.is_none_or(|p| p != c));
    if !parents_valid {
        return Err(SquishError::Corrupt("self-parent"));
    }
    let order = bn::topological_order(&parents);
    if order.len() != n_net {
        return Err(SquishError::Corrupt("parent graph is not a tree"));
    }

    let data_stream = r.read_len_prefixed()?;
    let mut codes: Vec<Vec<u32>> = (0..n_net).map(|_| Vec::with_capacity(n)).collect();
    if n > 0 && n_net > 0 {
        let mut dec = RangeDecoder::new(data_stream)?;
        for _ in 0..n {
            for &c in &order {
                let u = parents[c]
                    .map(|p| *codes[p].last().expect("parent decoded first") as usize)
                    .unwrap_or(0);
                let model = models[c]
                    .get(u)
                    .ok_or(SquishError::Corrupt("parent value out of CPT range"))?;
                let v = model.decode(&mut dec)?;
                codes[c].push(v as u32);
            }
        }
    }

    let fallback_blob = r.read_len_prefixed()?;
    let fallback_cols = parq::read_table(fallback_blob)?;
    let mut fallback_iter = fallback_cols.into_iter();

    // Reassemble in schema order.
    let mut net_iter = kinds.iter().zip(codes);
    let mut named: Vec<(String, Column)> = Vec::with_capacity(ncols);
    for meta in metas {
        if meta.fallback {
            let (name, col) = fallback_iter
                .next()
                .ok_or(SquishError::Corrupt("missing fallback column"))?;
            if name != meta.name {
                return Err(SquishError::Corrupt("fallback column order mismatch"));
            }
            match col {
                parq::ParqColumn::Str(values) => {
                    named.push((meta.name, Column::Cat(values.into())));
                }
                _ => return Err(SquishError::Corrupt("fallback column wrong type")),
            }
        } else {
            let (kind, code_col) = net_iter
                .next()
                .ok_or(SquishError::Corrupt("missing network column"))?;
            let column = match (kind, meta.ty) {
                (ColKind::Cat(dict), ColumnType::Categorical) => {
                    let pool: Vec<Box<str>> = dict.values().map(Box::from).collect();
                    Column::Cat(CatColumn::from_parts(pool, code_col)?)
                }
                (ColKind::Num(q), ColumnType::Numeric) => {
                    Column::Num(code_col.iter().map(|&i| q.value_of(i)).collect())
                }
                _ => return Err(SquishError::Corrupt("column kind/type mismatch")),
            };
            named.push((meta.name, column));
        }
    }

    Ok(Table::from_columns(named)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_table::gen;

    fn assert_within_error(original: &Table, restored: &Table, error: f64) {
        assert_eq!(original.nrows(), restored.nrows());
        assert_eq!(original.schema(), restored.schema());
        for (a, b) in original.columns().iter().zip(restored.columns()) {
            match (a, b) {
                (Column::Cat(x), Column::Cat(y)) => assert_eq!(x, y),
                (Column::Num(x), Column::Num(y)) => {
                    let min = x.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    // Allow float-epsilon slack: the bucket-midpoint guarantee is
                    // exact in real arithmetic, off by ulps in f64.
                    let bound = error * (max - min) * (1.0 + 1e-7) + 1e-9;
                    for (u, v) in x.iter().zip(y) {
                        assert!(
                            (u - v).abs() <= bound,
                            "numeric error {} exceeds bound {bound}",
                            (u - v).abs()
                        );
                    }
                }
                _ => panic!("column type changed"),
            }
        }
    }

    #[test]
    fn lossless_roundtrip_categorical_table() {
        let t = gen::census_like(500, 3);
        let archive = compress(&t, &SquishConfig::default()).unwrap();
        let restored = decompress(&archive).unwrap();
        assert_eq!(t, restored);
    }

    #[test]
    fn lossy_roundtrip_respects_error_bound() {
        for error in [0.01, 0.10] {
            let t = gen::monitor_like(800, 5);
            let cfg = SquishConfig {
                error_threshold: error,
                ..Default::default()
            };
            let archive = compress(&t, &cfg).unwrap();
            let restored = decompress(&archive).unwrap();
            assert_within_error(&t, &restored, error);
        }
    }

    #[test]
    fn exploits_functional_dependencies() {
        // census_like plants state→division→region FDs; Squish's BN should
        // compress far below the independent-columns entropy.
        let t = gen::census_like(3000, 7);
        let archive = compress(&t, &SquishConfig::default()).unwrap();
        let ratio = archive.size() as f64 / t.raw_size() as f64;
        assert!(ratio < 0.35, "ratio {ratio} too poor for FD-rich data");
        assert_eq!(decompress(&archive).unwrap(), t);
    }

    #[test]
    fn larger_error_thresholds_compress_better() {
        let t = gen::monitor_like(1500, 11);
        let size_at = |e: f64| {
            let cfg = SquishConfig {
                error_threshold: e,
                ..Default::default()
            };
            compress(&t, &cfg).unwrap().size()
        };
        let fine = size_at(0.005);
        let coarse = size_at(0.10);
        assert!(
            coarse < fine,
            "10% threshold ({coarse}) should beat 0.5% ({fine})"
        );
    }

    #[test]
    fn high_cardinality_columns_take_fallback_path() {
        let t = gen::criteo_like(600, 2);
        let archive = compress(
            &t,
            &SquishConfig {
                error_threshold: 0.10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            archive.fallback_bytes > 0,
            "criteo hash columns must go through the fallback"
        );
        let restored = decompress(&archive).unwrap();
        assert_within_error(&t, &restored, 0.10);
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = gen::corel_like(0, 1);
        let archive = compress(&t, &SquishConfig::default()).unwrap();
        let restored = decompress(&archive).unwrap();
        assert_eq!(restored.nrows(), 0);
        assert_eq!(restored.schema(), t.schema());
    }

    #[test]
    fn invalid_config_rejected() {
        let t = gen::corel_like(10, 1);
        let cfg = SquishConfig {
            error_threshold: 2.0,
            ..Default::default()
        };
        assert!(compress(&t, &cfg).is_err());
    }

    #[test]
    fn corrupt_archives_error_not_panic() {
        let t = gen::census_like(100, 9);
        let archive = compress(&t, &SquishConfig::default()).unwrap();
        let bytes = archive.as_bytes().to_vec();
        assert!(decompress(&SquishArchive::from_bytes(bytes[1..].to_vec())).is_err());
        for cut in [4, 20, bytes.len() / 2] {
            let _ = decompress(&SquishArchive::from_bytes(bytes[..cut].to_vec()));
        }
        for i in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = decompress(&SquishArchive::from_bytes(bad)); // no panic
        }
    }

    #[test]
    fn size_components_sum_to_total_modulo_header() {
        let t = gen::forest_like(400, 4);
        let cfg = SquishConfig {
            error_threshold: 0.05,
            ..Default::default()
        };
        let a = compress(&t, &cfg).unwrap();
        let parts = a.model_bytes + a.data_bytes + a.fallback_bytes;
        assert!(a.size() >= parts);
        assert!(a.size() - parts < 4096, "header overhead too large");
    }
}
