//! # ds-itcompress — the ItCompress baseline
//!
//! A reimplementation of ItCompress (Jagadish, Ng, Ooi, Tung — ICDE 2004),
//! the second semantic-compression baseline the DeepSqueeze paper cites
//! (§2.3): an **iterative clustering** compressor in which each tuple is
//! stored as a reference to its cluster's *representative tuple*, a bitmap
//! marking which attributes match the representative, and the outlying
//! values for the attributes that don't.
//!
//! The paper states that "Squish strongly dominates other semantic
//! compression algorithms (e.g., Spartan, ItCompress)"; having ItCompress
//! in the workspace lets the harness verify that ordering instead of
//! assuming it.
//!
//! Numeric attributes match their representative when they fall within the
//! caller's error threshold (the same guaranteed-error-bound contract as
//! the other systems); matching cells reconstruct to the representative's
//! value, so the bound holds by construction.

#![allow(clippy::needless_range_loop)] // index-heavy kernels read clearer with explicit loops

use ds_codec::dict::Dictionary;
use ds_codec::quant::Quantizer;
use ds_codec::{parq, ByteReader, ByteWriter};
use ds_table::{CatColumn, Column, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Errors from ItCompress.
#[derive(Debug)]
pub enum ItError {
    /// Configuration problem.
    InvalidConfig(&'static str),
    /// Corrupt archive.
    Corrupt(&'static str),
    /// Propagated codec failure.
    Codec(ds_codec::CodecError),
    /// Propagated table failure.
    Table(ds_table::TableError),
}

impl std::fmt::Display for ItError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItError::InvalidConfig(w) => write!(f, "invalid config: {w}"),
            ItError::Corrupt(w) => write!(f, "corrupt archive: {w}"),
            ItError::Codec(e) => write!(f, "codec error: {e}"),
            ItError::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for ItError {}

impl From<ds_codec::CodecError> for ItError {
    fn from(e: ds_codec::CodecError) -> Self {
        ItError::Codec(e)
    }
}

impl From<ds_table::TableError> for ItError {
    fn from(e: ds_table::TableError) -> Self {
        ItError::Table(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ItError>;

/// Compression parameters.
#[derive(Debug, Clone)]
pub struct ItConfig {
    /// Number of representative tuples.
    pub representatives: usize,
    /// Refinement iterations (assignment → representative update).
    pub iterations: usize,
    /// Relative error bound for numeric columns (fraction of range).
    pub error_threshold: f64,
    /// RNG seed (initial representative selection).
    pub seed: u64,
}

impl Default for ItConfig {
    fn default() -> Self {
        ItConfig {
            representatives: 16,
            iterations: 5,
            error_threshold: 0.0,
            seed: 0,
        }
    }
}

/// A compressed archive.
#[derive(Debug, Clone)]
pub struct ItArchive {
    bytes: Vec<u8>,
}

impl ItArchive {
    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        ItArchive { bytes }
    }
}

/// Discretized working form of the table: every column as u32 codes.
struct Discretized {
    codes: Vec<Vec<u32>>,
    kinds: Vec<ColKind>,
}

enum ColKind {
    Cat(Dictionary),
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

fn discretize(table: &Table, error: f64) -> Result<Discretized> {
    let mut codes = Vec::with_capacity(table.ncols());
    let mut kinds = Vec::with_capacity(table.ncols());
    for col in table.columns() {
        match col {
            Column::Cat(values) => {
                let mut dict = Dictionary::new();
                codes.push(values.translate(|v| dict.intern(v)));
                kinds.push(ColKind::Cat(dict));
            }
            Column::Num(values) => {
                let q = Quantizer::fit(values, error)?;
                codes.push(q.encode_column(values));
                kinds.push(ColKind::Num(q));
            }
        }
    }
    Ok(Discretized { codes, kinds })
}

/// The iterative core: pick representatives, assign rows to the
/// most-matching representative, recompute representatives as per-cluster
/// column modes; repeat.
fn fit_representatives(disc: &Discretized, n: usize, cfg: &ItConfig) -> (Vec<Vec<u32>>, Vec<u32>) {
    let ncols = disc.codes.len();
    let k = cfg.representatives.max(1).min(n.max(1));
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Representatives as code vectors, seeded from random distinct rows.
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut rng);
    let mut reps: Vec<Vec<u32>> = rows[..k]
        .iter()
        .map(|&r| disc.codes.iter().map(|col| col[r]).collect())
        .collect();

    let mut assign = vec![0u32; n];
    for _ in 0..cfg.iterations.max(1) {
        // Assignment: most matching attributes wins (ties → lower index).
        for r in 0..n {
            let mut best = 0usize;
            let mut best_matches = usize::MAX; // sentinel: not set
            for (j, rep) in reps.iter().enumerate() {
                let matches = (0..ncols).filter(|&c| disc.codes[c][r] == rep[c]).count();
                if best_matches == usize::MAX || matches > best_matches {
                    best_matches = matches;
                    best = j;
                }
            }
            assign[r] = best as u32;
        }
        // Update: per-cluster per-column mode.
        let mut changed = false;
        for (j, rep) in reps.iter_mut().enumerate() {
            for c in 0..ncols {
                let mut counts: std::collections::HashMap<u32, u32> = Default::default();
                for r in 0..n {
                    if assign[r] == j as u32 {
                        *counts.entry(disc.codes[c][r]).or_default() += 1;
                    }
                }
                if let Some((&mode, _)) = counts
                    .iter() // ds-lint: allow(deterministic-iteration) -- max_by_key over (count, Reverse(value)) is a total order on distinct keys, so the winner is independent of hash iteration order
                    .max_by_key(|&(&v, &cnt)| (cnt, std::cmp::Reverse(v)))
                {
                    if rep[c] != mode {
                        rep[c] = mode;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    (reps, assign)
}

/// Compresses a table.
pub fn compress(table: &Table, cfg: &ItConfig) -> Result<ItArchive> {
    if !(0.0..=1.0).contains(&cfg.error_threshold) {
        return Err(ItError::InvalidConfig("error threshold not in [0,1]"));
    }
    if cfg.representatives == 0 {
        return Err(ItError::InvalidConfig("need at least one representative"));
    }
    let n = table.nrows();
    let disc = discretize(table, cfg.error_threshold)?;
    let ncols = table.ncols();

    let (reps, assign) = if n == 0 {
        (Vec::new(), Vec::new())
    } else {
        fit_representatives(&disc, n, cfg)
    };

    // Materialize: per row → rep id, match bitmap, outliers.
    let mut match_bits: Vec<Vec<u32>> = vec![Vec::with_capacity(n); ncols];
    let mut outliers: Vec<Vec<u32>> = vec![Vec::new(); ncols];
    for r in 0..n {
        let rep = &reps[assign[r] as usize];
        for c in 0..ncols {
            let v = disc.codes[c][r];
            if v == rep[c] {
                match_bits[c].push(0);
            } else {
                match_bits[c].push(1);
                outliers[c].push(v);
            }
        }
    }

    let mut w = ByteWriter::new();
    w.write_bytes(b"ITC1");
    w.write_varint(n as u64);
    w.write_varint(ncols as u64);
    for (i, kind) in disc.kinds.iter().enumerate() {
        let field = table.schema().field(i).expect("arity");
        w.write_len_prefixed(field.name.as_bytes());
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
    }
    // Representatives.
    w.write_varint(reps.len() as u64);
    for rep in &reps {
        for &v in rep {
            w.write_varint(u64::from(v));
        }
    }
    // Row payloads through the columnar container: rep ids, one bitmap
    // column and one outlier column per attribute.
    let mut cols: Vec<(String, parq::ParqColumn)> =
        vec![("rep".into(), parq::ParqColumn::U32(assign.clone()))];
    for (c, bits) in match_bits.iter().enumerate() {
        cols.push((format!("m{c}"), parq::ParqColumn::U32(bits.clone())));
    }
    let (bitmap_blob, _) = parq::write_table(&cols)?;
    w.write_len_prefixed(&bitmap_blob);
    // Outlier streams are ragged; one container per column.
    for out in &outliers {
        let (blob, _) = parq::write_table(&[("o".into(), parq::ParqColumn::U32(out.clone()))])?;
        w.write_len_prefixed(&blob);
    }
    Ok(ItArchive {
        bytes: w.into_vec(),
    })
}

/// Decompresses an archive (numerics are bucket midpoints within the
/// compression-time error bound; categoricals exact).
pub fn decompress(archive: &ItArchive) -> Result<Table> {
    let mut r = ByteReader::new(&archive.bytes);
    if r.read_bytes(4)? != b"ITC1" {
        return Err(ItError::Corrupt("bad magic"));
    }
    let n = r.read_varint()? as usize;
    let ncols = r.read_varint()? as usize;
    if ncols > 1 << 20 {
        return Err(ItError::Corrupt("implausible column count"));
    }
    let mut names = Vec::with_capacity(ncols);
    let mut kinds = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        names.push(
            std::str::from_utf8(r.read_len_prefixed()?)
                .map_err(|_| ItError::Corrupt("name not utf-8"))?
                .to_owned(),
        );
        kinds.push(match r.read_u8()? {
            0 => ColKind::Cat(Dictionary::read_from(&mut r)?),
            1 => ColKind::Num(Quantizer::read_from(&mut r)?),
            _ => return Err(ItError::Corrupt("bad column kind")),
        });
    }
    let k = r.read_varint()? as usize;
    if k > n.max(1) {
        return Err(ItError::Corrupt("more representatives than rows"));
    }
    let mut reps = Vec::with_capacity(k);
    for _ in 0..k {
        let mut rep = Vec::with_capacity(ncols);
        for kind in &kinds {
            let v = r.read_varint()? as u32;
            if (v as usize) >= kind.cardinality() {
                return Err(ItError::Corrupt("representative code out of range"));
            }
            rep.push(v);
        }
        reps.push(rep);
    }

    let bitmap_blob = r.read_len_prefixed()?;
    let cols = parq::read_table(bitmap_blob)?;
    if cols.len() != ncols + 1 {
        return Err(ItError::Corrupt("bitmap column count mismatch"));
    }
    let assign = match &cols[0].1 {
        parq::ParqColumn::U32(v) if v.len() == n => v.clone(),
        _ => return Err(ItError::Corrupt("rep column malformed")),
    };
    if assign.iter().any(|&a| a as usize >= k.max(1)) && n > 0 {
        return Err(ItError::Corrupt("rep id out of range"));
    }

    let mut outlier_iters: Vec<std::collections::VecDeque<u32>> = Vec::with_capacity(ncols);
    let mut bitmaps: Vec<&Vec<u32>> = Vec::with_capacity(ncols);
    for c in 0..ncols {
        match &cols[c + 1].1 {
            parq::ParqColumn::U32(v) if v.len() == n => bitmaps.push(v),
            _ => return Err(ItError::Corrupt("bitmap malformed")),
        }
    }
    for _ in 0..ncols {
        let blob = r.read_len_prefixed()?;
        let t = parq::read_table(blob)?;
        match t.into_iter().next() {
            Some((_, parq::ParqColumn::U32(v))) => outlier_iters.push(v.into()),
            _ => return Err(ItError::Corrupt("outlier stream malformed")),
        }
    }

    // Reconstruct code columns.
    let mut named = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let mut codes = Vec::with_capacity(n);
        for r_i in 0..n {
            let v = if bitmaps[c][r_i] == 0 {
                reps[assign[r_i] as usize][c]
            } else {
                outlier_iters[c]
                    .pop_front()
                    .ok_or(ItError::Corrupt("outlier stream exhausted"))?
            };
            codes.push(v);
        }
        let column = match &kinds[c] {
            ColKind::Cat(dict) => {
                let pool: Vec<Box<str>> = dict.values().map(Box::from).collect();
                Column::Cat(CatColumn::from_parts(pool, codes)?)
            }
            ColKind::Num(q) => Column::Num(codes.iter().map(|&i| q.value_of(i)).collect()),
        };
        named.push((names[c].clone(), column));
    }
    Ok(Table::from_columns(named)?)
}

/// True when the column types of two tables match (helper for tests).
pub fn schema_types_match(a: &Table, b: &Table) -> bool {
    a.ncols() == b.ncols()
        && a.schema()
            .fields()
            .iter()
            .zip(b.schema().fields())
            .all(|(x, y)| x.ty == y.ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_table::gen;

    fn check_contract(original: &Table, restored: &Table, error: f64) {
        assert_eq!(original.nrows(), restored.nrows());
        for (a, b) in original.columns().iter().zip(restored.columns()) {
            match (a, b) {
                (Column::Cat(x), Column::Cat(y)) => assert_eq!(x, y),
                (Column::Num(x), Column::Num(y)) => {
                    let min = x.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let bound = error * (max - min) * (1.0 + 1e-7) + 1e-9;
                    for (u, v) in x.iter().zip(y) {
                        assert!((u - v).abs() <= bound);
                    }
                }
                _ => panic!("column type changed"),
            }
        }
    }

    #[test]
    fn lossless_roundtrip_categoricals() {
        let t = gen::census_like(400, 3);
        let archive = compress(&t, &ItConfig::default()).unwrap();
        let restored = decompress(&archive).unwrap();
        assert_eq!(t, restored);
    }

    #[test]
    fn lossy_roundtrip_respects_bound() {
        let t = gen::monitor_like(500, 5);
        let cfg = ItConfig {
            error_threshold: 0.10,
            ..Default::default()
        };
        let archive = compress(&t, &cfg).unwrap();
        check_contract(&t, &decompress(&archive).unwrap(), 0.10);
    }

    #[test]
    fn clustered_data_compresses_well() {
        // Rows repeating a handful of patterns: ItCompress's best case.
        let values: Vec<String> = (0..3000).map(|i| format!("p{}", i % 6)).collect();
        let other: Vec<String> = (0..3000).map(|i| format!("q{}", (i % 6) * 7)).collect();
        let third: Vec<String> = (0..3000).map(|i| format!("r{}", (i % 6) + 1)).collect();
        let t = Table::from_columns(vec![
            ("a".into(), Column::cat(values)),
            ("b".into(), Column::cat(other)),
            ("c".into(), Column::cat(third)),
        ])
        .unwrap();
        let cfg = ItConfig {
            representatives: 8,
            ..Default::default()
        };
        let archive = compress(&t, &cfg).unwrap();
        // Six perfectly repeating patterns: rows collapse to rep ids.
        assert!(
            archive.size() * 20 < t.raw_size(),
            "{} vs {}",
            archive.size(),
            t.raw_size()
        );
        assert_eq!(decompress(&archive).unwrap(), t);
    }

    #[test]
    fn more_representatives_reduce_outliers() {
        let t = gen::census_like(1200, 7);
        let size_at = |k: usize| {
            compress(
                &t,
                &ItConfig {
                    representatives: k,
                    iterations: 4,
                    ..Default::default()
                },
            )
            .unwrap()
            .size()
        };
        // Going from 1 to 32 representatives must help on clustered data.
        assert!(size_at(32) < size_at(1));
    }

    #[test]
    fn empty_and_tiny_tables() {
        let t = gen::corel_like(0, 1);
        let archive = compress(
            &t,
            &ItConfig {
                error_threshold: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(decompress(&archive).unwrap().nrows(), 0);

        let t = gen::corel_like(3, 2);
        let archive = compress(
            &t,
            &ItConfig {
                representatives: 10, // more than rows: clamped
                error_threshold: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        check_contract(&t, &decompress(&archive).unwrap(), 0.1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let t = gen::corel_like(10, 1);
        assert!(compress(
            &t,
            &ItConfig {
                representatives: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(compress(
            &t,
            &ItConfig {
                error_threshold: 7.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn corrupt_archives_error_not_panic() {
        let t = gen::census_like(150, 9);
        let bytes = compress(&t, &ItConfig::default())
            .unwrap()
            .as_bytes()
            .to_vec();
        assert!(decompress(&ItArchive::from_bytes(bytes[1..].to_vec())).is_err());
        for cut in [4, 20, bytes.len() / 2] {
            let _ = decompress(&ItArchive::from_bytes(bytes[..cut].to_vec()));
        }
        for i in (0..bytes.len()).step_by(83) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let _ = decompress(&ItArchive::from_bytes(bad));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let t = gen::forest_like(300, 4);
        let cfg = ItConfig {
            error_threshold: 0.05,
            ..Default::default()
        };
        let a = compress(&t, &cfg).unwrap();
        let b = compress(&t, &cfg).unwrap();
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}
