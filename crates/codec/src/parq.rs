//! `parq` — a Parquet-like columnar storage container (§2.2).
//!
//! Stores a table column-by-column. For every column the writer *tries*
//! each applicable encoding (plain, RLE, delta, bit-packing, dictionary)
//! and keeps the smallest, then runs an optional [`crate::gzlike`] entropy
//! stage — mirroring how Parquet composes columnar encodings with a
//! general-purpose compressor. It serves two roles in the reproduction:
//!
//! 1. the standalone **Parquet baseline** of the paper's evaluation, and
//! 2. the backend DeepSqueeze materializes failures into (§6.3).

use crate::{
    delta, dict::Dictionary, gzlike, registry, ByteReader, ByteWriter, CodecError, Result,
};

/// Magic bytes identifying a parq stream.
pub const MAGIC: &[u8; 4] = b"PQL1";

/// A typed column handed to the writer.
#[derive(Debug, Clone, PartialEq)]
pub enum ParqColumn {
    /// Dense unsigned codes (dictionary codes, bucket indexes, ranks).
    U32(Vec<u32>),
    /// Signed integers (failure deltas, raw integer data).
    I64(Vec<i64>),
    /// Floating-point values.
    F64(Vec<f64>),
    /// Raw strings; dictionary-encoded internally.
    Str(Vec<String>),
}

impl ParqColumn {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ParqColumn::U32(v) => v.len(),
            ParqColumn::I64(v) => v.len(),
            ParqColumn::F64(v) => v.len(),
            ParqColumn::Str(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Alphabet ceiling for the arithmetic candidate (adaptive models over
/// huge sparse alphabets waste their learning budget).
const ARITH_MAX_ALPHABET: u32 = 4096;

pub(crate) fn encode_u32_arith(values: &[u32]) -> Option<Vec<u8>> {
    use crate::rangecoder::{AdaptiveModel, RangeEncoder};
    let max = values.iter().copied().max()?;
    if max >= ARITH_MAX_ALPHABET || values.len() < 64 {
        return None;
    }
    let mut w = ByteWriter::new();
    w.write_varint(values.len() as u64);
    w.write_varint(u64::from(max) + 1);
    let mut model = AdaptiveModel::new(max as usize + 1).ok()?;
    let mut enc = RangeEncoder::new();
    for &v in values {
        model.encode(&mut enc, v as usize).ok()?;
    }
    w.write_len_prefixed(&enc.finish());
    Some(w.into_vec())
}

pub(crate) fn decode_u32_arith(payload: &[u8]) -> Result<Vec<u32>> {
    use crate::rangecoder::{AdaptiveModel, RangeDecoder};
    let mut r = ByteReader::new(payload);
    let n = r.read_varint_usize()?;
    let alphabet = r.read_varint()?;
    if alphabet == 0 || alphabet > u64::from(ARITH_MAX_ALPHABET) {
        return Err(CodecError::Corrupt("parq: bad arith alphabet"));
    }
    if n > crate::MAX_DECODE_ELEMS {
        return Err(CodecError::Corrupt(
            "parq: arith count exceeds decode limit",
        ));
    }
    let stream = r.read_len_prefixed()?;
    let mut model = AdaptiveModel::new(alphabet as usize)?;
    let mut dec = RangeDecoder::new(stream)?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(model.decode(&mut dec)? as u32); // ds-lint: allow(no-raw-cast-len) -- decode() returns a symbol < alphabet <= ARITH_MAX_ALPHABET, which fits u32
    }
    Ok(out)
}

/// Encodes a u32 stream with the smallest applicable codec from the
/// registry table (RLE / delta / bit-packing / Roaring / arith, plus the
/// opt-in FoR probe). Returns the wire tag, the winner's registry id
/// (for codec-chain recording) and the payload.
fn encode_u32_best(values: &[u32], numeric_probe: bool) -> Result<(u8, u16, Vec<u8>)> {
    let sel = registry::select_u32(values, numeric_probe)?;
    Ok((sel.tag, sel.id.raw(), sel.payload))
}

fn decode_u32_best(tag: u8, payload: &[u8]) -> Result<Vec<u32>> {
    registry::decode_u32(tag, payload)
}

/// Dictionary layout for f64 columns: sorted distinct values + u32 codes.
/// Returns `None` when the cardinality is too high to pay off; the `u16`
/// is the registry id of the inner code encoding.
fn encode_f64_dict(values: &[f64], numeric_probe: bool) -> Result<Option<(Vec<u8>, u16)>> {
    let mut distinct: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    // Beyond this the dictionary header rivals the xor layout anyway.
    if distinct.len() > values.len() / 2 || distinct.len() > u32::MAX as usize {
        return Ok(None);
    }
    let mut w = ByteWriter::new();
    w.write_varint(distinct.len() as u64);
    let mut prev = 0u64;
    for &bits in &distinct {
        // Sorted bit patterns delta-compress well.
        w.write_varint(bits.wrapping_sub(prev));
        prev = bits;
    }
    let codes: Vec<u32> = values
        .iter()
        .map(|v| {
            distinct
                .binary_search(&v.to_bits())
                // ds-lint: allow(panic-free-decode) -- encoder-side invariant: distinct was built from these exact values
                .expect("built from values") as u32
        })
        .collect();
    let (tag, id, payload) = encode_u32_best(&codes, numeric_probe)?;
    w.write_u8(tag);
    w.write_len_prefixed(&payload);
    Ok(Some((w.into_vec(), id)))
}

fn decode_f64_dict(payload: &[u8], nrows: usize) -> Result<Vec<f64>> {
    let mut r = ByteReader::new(payload);
    let n = r.read_varint_usize()?;
    let mut distinct = Vec::with_capacity(n.min(1 << 20));
    let mut prev = 0u64;
    for _ in 0..n {
        let bits = prev.wrapping_add(r.read_varint()?);
        distinct.push(bits);
        prev = bits;
    }
    let tag = r.read_u8()?;
    let codes = decode_u32_best(tag, r.read_len_prefixed()?)?;
    if codes.len() != nrows {
        return Err(CodecError::Corrupt("parq: f64 dict row count"));
    }
    codes
        .into_iter()
        .map(|c| {
            distinct
                .get(c as usize)
                .map(|&b| f64::from_bits(b))
                .ok_or(CodecError::Corrupt("parq: f64 dict code out of range"))
        })
        .collect()
}

/// Applies the optional entropy stage: keeps gzlike output only if smaller.
/// Returns (compressed_flag, bytes).
fn entropy_stage(payload: Vec<u8>) -> (u8, Vec<u8>) {
    let squeezed = gzlike::compress(&payload);
    if squeezed.len() < payload.len() {
        (1, squeezed)
    } else {
        (0, payload)
    }
}

fn un_entropy(flag: u8, payload: &[u8]) -> Result<Vec<u8>> {
    match flag {
        0 => Ok(payload.to_vec()),
        1 => gzlike::decompress(payload),
        _ => Err(CodecError::Corrupt("parq: bad entropy flag")),
    }
}

/// Per-column byte cost and codec chain, reported by [`write_table`].
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Column name as stored.
    pub name: String,
    /// Bytes this column occupies in the container (payload + header).
    pub bytes: usize,
    /// Registry codec ids the column's values flowed through, outermost
    /// transform first (e.g. `dict → rle → gzlike`). See
    /// [`crate::registry::chain_names`] for rendering.
    pub chain: Vec<u16>,
}

/// Encodes one named column into a self-contained byte section, plus the
/// registry codec-id chain the values flowed through.
///
/// Each section carries its own name, type tag, mode bytes and
/// len-prefixed payload, so sections can be produced independently (and
/// in parallel) and concatenated in column order — the result is
/// byte-identical to a sequential single-writer encode.
fn encode_column_section(
    name: &str,
    col: &ParqColumn,
    numeric_probe: bool,
) -> Result<(Vec<u8>, Vec<u16>)> {
    let mut w = ByteWriter::new();
    let mut chain: Vec<u16> = Vec::new();
    w.write_len_prefixed(name.as_bytes());
    match col {
        ParqColumn::U32(values) => {
            w.write_u8(0);
            let (tag, id, payload) = encode_u32_best(values, numeric_probe)?;
            let (flag, payload) = entropy_stage(payload);
            chain.push(id);
            if flag == 1 {
                chain.push(registry::GZLIKE.raw());
            }
            w.write_u8(tag);
            w.write_u8(flag);
            w.write_len_prefixed(&payload);
        }
        ParqColumn::I64(values) => {
            w.write_u8(1);
            // Two candidates: delta coding (monotone-ish series) and
            // direct zigzag reuse of the u32 encodings (failure-delta
            // streams are mostly zeros — delta coding those *doubles*
            // the nonzero count). The u32 path needs every zigzagged
            // value to fit 32 bits.
            let delta_payload = delta::encode_i64(values);
            let zz: Option<Vec<u32>> = values
                .iter()
                .map(|&v| u32::try_from(crate::varint::zigzag(v)).ok())
                .collect();
            let direct = match zz {
                Some(codes) => Some(encode_u32_best(&codes, numeric_probe)?),
                None => None,
            };
            match direct {
                Some((tag, id, payload)) if payload.len() < delta_payload.len() => {
                    let (flag, payload) = entropy_stage(payload);
                    chain.push(registry::ZIGZAG.raw());
                    chain.push(id);
                    if flag == 1 {
                        chain.push(registry::GZLIKE.raw());
                    }
                    w.write_u8(2 + flag); // 2 = zigzag raw, 3 = zigzag+gz
                    w.write_u8(tag);
                    w.write_len_prefixed(&payload);
                }
                _ => {
                    let (flag, payload) = entropy_stage(delta_payload);
                    chain.push(registry::DELTA.raw());
                    if flag == 1 {
                        chain.push(registry::GZLIKE.raw());
                    }
                    w.write_u8(flag); // 0 = delta raw, 1 = delta+gz
                    w.write_len_prefixed(&payload);
                }
            }
        }
        ParqColumn::F64(values) => {
            w.write_u8(2);
            // Two candidate layouts, smaller wins:
            //  (a) XOR-with-previous raw bits (Gorilla-style) — good
            //      for slowly varying series;
            //  (b) value dictionary + u32 codes — real tabular floats
            //      are frequently low-cardinality (quantized sensors,
            //      currencies), where 64-bit storage is pure waste.
            let mut raw = ByteWriter::with_capacity(values.len() * 8);
            let mut prev = 0u64;
            for &v in values {
                let bits = v.to_bits();
                raw.write_u64(bits ^ prev);
                prev = bits;
            }
            let xor_payload = raw.into_vec();

            let dict_payload = encode_f64_dict(values, numeric_probe)?;
            match dict_payload {
                Some((dp, inner_id)) if dp.len() < xor_payload.len() => {
                    let (flag, payload) = entropy_stage(dp);
                    chain.push(registry::DICT.raw());
                    chain.push(inner_id);
                    if flag == 1 {
                        chain.push(registry::GZLIKE.raw());
                    }
                    w.write_u8(2 + flag); // 2 = dict raw, 3 = dict+gz
                    w.write_len_prefixed(&payload);
                }
                _ => {
                    let (flag, payload) = entropy_stage(xor_payload);
                    chain.push(registry::XOR_F64.raw());
                    if flag == 1 {
                        chain.push(registry::GZLIKE.raw());
                    }
                    w.write_u8(flag); // 0 = xor raw, 1 = xor+gz
                    w.write_len_prefixed(&payload);
                }
            }
        }
        ParqColumn::Str(values) => {
            w.write_u8(3);
            let (dict, codes) = Dictionary::encode_column(values);
            let mut inner = ByteWriter::new();
            dict.write_to(&mut inner);
            let (tag, id, payload) = encode_u32_best(&codes, numeric_probe)?;
            inner.write_u8(tag);
            inner.write_len_prefixed(&payload);
            let (flag, payload) = entropy_stage(inner.into_vec());
            chain.push(registry::DICT.raw());
            chain.push(id);
            if flag == 1 {
                chain.push(registry::GZLIKE.raw());
            }
            w.write_u8(flag);
            w.write_len_prefixed(&payload);
        }
    }
    Ok((w.into_vec(), chain))
}

/// Serializes named columns into a parq container.
///
/// All columns must have equal length; returns per-column stats alongside
/// the bytes. Columns encode in parallel (each into its own buffer) and
/// concatenate in declaration order, so the container bytes do not depend
/// on the thread count. Equivalent to [`write_table_opts`] with the
/// numeric probe off — the historical byte-identical default.
pub fn write_table(columns: &[(String, ParqColumn)]) -> Result<(Vec<u8>, Vec<ColumnStats>)> {
    write_table_opts(columns, false)
}

/// [`write_table`] with codec selection knobs: `numeric_probe` lets the
/// per-chunk constant/FoR model ([`crate::registry::FOR_MODEL`]) compete
/// for u32 streams. Any win changes the emitted bytes, so callers that
/// enable it must record the returned per-column chains in their
/// container manifest.
pub fn write_table_opts(
    columns: &[(String, ParqColumn)],
    numeric_probe: bool,
) -> Result<(Vec<u8>, Vec<ColumnStats>)> {
    let nrows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
    if columns.iter().any(|(_, c)| c.len() != nrows) {
        return Err(CodecError::InvalidParameter("parq: ragged columns"));
    }
    let sections: Vec<Result<(Vec<u8>, Vec<u16>)>> = ds_exec::parallel_map(columns.len(), |i| {
        let (name, col) = &columns[i]; // ds-lint: allow(panic-free-decode) -- encoder-side; parallel_map yields i < columns.len()
        encode_column_section(name, col, numeric_probe)
    });

    let mut w = ByteWriter::new();
    w.write_bytes(MAGIC);
    w.write_varint(columns.len() as u64);
    w.write_varint(nrows as u64); // ds-lint: allow(no-raw-cast-len) -- widening usize -> u64, lossless on every supported target
    let mut stats = Vec::with_capacity(columns.len());
    for ((name, _), section) in columns.iter().zip(sections) {
        let (bytes, chain) = section?;
        w.write_bytes(&bytes);
        stats.push(ColumnStats {
            name: name.clone(),
            bytes: bytes.len(),
            chain,
        });
    }
    Ok((w.into_vec(), stats))
}

/// Header fields of one column plus a borrowed slice of its (still
/// encoded) payload, produced by the cheap sequential scan phase of
/// [`read_table`].
struct ColumnSection<'a> {
    name: String,
    type_tag: u8,
    /// mode byte for i64/f64, entropy flag for u32/str.
    mode: u8,
    /// inner encoding tag (u32 always; i64 only in zigzag mode).
    tag: u8,
    payload: &'a [u8],
}

/// Decodes one column section (the expensive phase; runs in parallel).
fn decode_column_section(sec: &ColumnSection<'_>, nrows: usize) -> Result<ParqColumn> {
    match sec.type_tag {
        0 => {
            let payload = un_entropy(sec.mode, sec.payload)?;
            let values = decode_u32_best(sec.tag, &payload)?;
            if values.len() != nrows {
                return Err(CodecError::Corrupt("parq: row count mismatch"));
            }
            Ok(ParqColumn::U32(values))
        }
        1 => {
            let values = if sec.mode >= 2 {
                let payload = un_entropy(sec.mode & 1, sec.payload)?;
                decode_u32_best(sec.tag, &payload)?
                    .into_iter()
                    .map(|c| crate::varint::unzigzag(u64::from(c)))
                    .collect()
            } else {
                let payload = un_entropy(sec.mode & 1, sec.payload)?;
                delta::decode_i64(&payload)?
            };
            if values.len() != nrows {
                return Err(CodecError::Corrupt("parq: row count mismatch"));
            }
            Ok(ParqColumn::I64(values))
        }
        2 => {
            let payload = un_entropy(sec.mode & 1, sec.payload)?;
            let values = if sec.mode >= 2 {
                decode_f64_dict(&payload, nrows)?
            } else {
                let expect_len = nrows.checked_mul(8).ok_or(CodecError::Overflow)?;
                if payload.len() != expect_len {
                    return Err(CodecError::Corrupt("parq: f64 payload size"));
                }
                let mut inner = ByteReader::new(&payload);
                let mut values = Vec::with_capacity(nrows);
                let mut prev = 0u64;
                for _ in 0..nrows {
                    let bits = inner.read_u64()? ^ prev;
                    values.push(f64::from_bits(bits));
                    prev = bits;
                }
                values
            };
            Ok(ParqColumn::F64(values))
        }
        3 => {
            let payload = un_entropy(sec.mode, sec.payload)?;
            let mut inner = ByteReader::new(&payload);
            let dict = Dictionary::read_from(&mut inner)?;
            let tag = inner.read_u8()?;
            let codes = decode_u32_best(tag, inner.read_len_prefixed()?)?;
            if codes.len() != nrows {
                return Err(CodecError::Corrupt("parq: row count mismatch"));
            }
            Ok(ParqColumn::Str(dict.decode_column(&codes)?))
        }
        _ => Err(CodecError::Corrupt("parq: unknown column type")),
    }
}

/// Reads a container produced by [`write_table`].
///
/// A sequential scan slices each column's len-prefixed payload, then the
/// payloads decode in parallel; results are collected in column order so
/// output (and the first error surfaced) is deterministic.
pub fn read_table(bytes: &[u8]) -> Result<Vec<(String, ParqColumn)>> {
    let mut r = ByteReader::new(bytes);
    if r.read_bytes(4)? != MAGIC {
        return Err(CodecError::Corrupt("parq: bad magic"));
    }
    let ncols = r.read_varint_usize()?;
    let nrows = r.read_varint_usize()?;
    if ncols > 1_000_000 {
        return Err(CodecError::Corrupt("parq: implausible column count"));
    }
    // Row counts come from an untrusted header and size downstream
    // allocations (and `nrows * 8` arithmetic); beyond the decode limit
    // the claim is corruption, not a huge table.
    if nrows > crate::MAX_DECODE_ELEMS {
        return Err(CodecError::Corrupt("parq: row count exceeds decode limit"));
    }
    let mut sections = Vec::with_capacity(ncols.min(1 << 16));
    for _ in 0..ncols {
        let name = std::str::from_utf8(r.read_len_prefixed()?)
            .map_err(|_| CodecError::Corrupt("parq: column name not utf-8"))?
            .to_owned();
        let type_tag = r.read_u8()?;
        let (mode, tag) = match type_tag {
            0 => {
                let tag = r.read_u8()?;
                let flag = r.read_u8()?;
                (flag, tag)
            }
            1 => {
                let mode = r.read_u8()?;
                if mode > 3 {
                    return Err(CodecError::Corrupt("parq: bad i64 mode"));
                }
                let tag = if mode >= 2 { r.read_u8()? } else { 0 };
                (mode, tag)
            }
            2 => {
                let mode = r.read_u8()?;
                if mode > 3 {
                    return Err(CodecError::Corrupt("parq: bad f64 mode"));
                }
                (mode, 0)
            }
            3 => (r.read_u8()?, 0),
            _ => return Err(CodecError::Corrupt("parq: unknown column type")),
        };
        let payload = r.read_len_prefixed()?;
        sections.push(ColumnSection {
            name,
            type_tag,
            mode,
            tag,
            payload,
        });
    }
    let decoded: Vec<Result<ParqColumn>> = ds_exec::parallel_map(sections.len(), |i| {
        decode_column_section(&sections[i], nrows) // ds-lint: allow(panic-free-decode) -- parallel_map yields i < sections.len()
    });
    sections
        .into_iter()
        .zip(decoded)
        .map(|(sec, col)| col.map(|c| (sec.name, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(cols: Vec<ParqColumn>) -> Vec<(String, ParqColumn)> {
        cols.into_iter()
            .enumerate()
            .map(|(i, c)| (format!("c{i}"), c))
            .collect()
    }

    #[test]
    fn roundtrip_mixed_table() {
        let cols = named(vec![
            ParqColumn::U32((0..500).map(|i| i % 3).collect()),
            ParqColumn::I64((0..500).map(|i| i64::from(i) * 7 - 100).collect()),
            ParqColumn::F64((0..500).map(|i| f64::from(i) * 0.25).collect()),
            ParqColumn::Str((0..500).map(|i| format!("val{}", i % 10)).collect()),
        ]);
        let (bytes, stats) = write_table(&cols).unwrap();
        assert_eq!(stats.len(), 4);
        assert_eq!(read_table(&bytes).unwrap(), cols);
    }

    #[test]
    fn roundtrip_empty_table_and_empty_columns() {
        let (bytes, _) = write_table(&[]).unwrap();
        assert!(read_table(&bytes).unwrap().is_empty());

        let cols = named(vec![ParqColumn::U32(vec![]), ParqColumn::Str(vec![])]);
        let (bytes, _) = write_table(&cols).unwrap();
        assert_eq!(read_table(&bytes).unwrap(), cols);
    }

    #[test]
    fn ragged_columns_rejected() {
        let cols = named(vec![
            ParqColumn::U32(vec![1, 2, 3]),
            ParqColumn::U32(vec![1]),
        ]);
        assert!(write_table(&cols).is_err());
    }

    #[test]
    fn constant_column_compresses_to_almost_nothing() {
        let cols = named(vec![ParqColumn::U32(vec![9; 100_000])]);
        let (bytes, _) = write_table(&cols).unwrap();
        assert!(
            bytes.len() < 64,
            "constant col should be tiny: {}",
            bytes.len()
        );
    }

    #[test]
    fn sorted_ints_choose_delta() {
        let cols = named(vec![ParqColumn::I64((0..100_000).collect())]);
        let (bytes, _) = write_table(&cols).unwrap();
        assert!(bytes.len() < 2_000, "sorted ints: {}", bytes.len());
        assert_eq!(read_table(&bytes).unwrap(), cols);
    }

    #[test]
    fn low_cardinality_strings_dictionary_encode() {
        let values: Vec<String> = (0..50_000)
            .map(|i| format!("city-with-long-name-{}", i % 4))
            .collect();
        let raw_size: usize = values.iter().map(|s| s.len() + 1).sum();
        let cols = named(vec![ParqColumn::Str(values)]);
        let (bytes, _) = write_table(&cols).unwrap();
        assert!(
            bytes.len() * 20 < raw_size,
            "dict+rle should win big: {} vs {}",
            bytes.len(),
            raw_size
        );
        assert_eq!(read_table(&bytes).unwrap(), cols);
    }

    #[test]
    fn float_special_values_roundtrip() {
        let cols = named(vec![ParqColumn::F64(vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e300,
            -1e-300,
        ])]);
        let (bytes, _) = write_table(&cols).unwrap();
        let decoded = read_table(&bytes).unwrap();
        match &decoded[0].1 {
            ParqColumn::F64(v) => {
                assert_eq!(v.len(), 7);
                assert_eq!(v[0].to_bits(), 0.0f64.to_bits());
                assert_eq!(v[1].to_bits(), (-0.0f64).to_bits());
                assert!(v[2].is_infinite() && v[2] > 0.0);
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let cols = named(vec![
            ParqColumn::U32((0..100).collect()),
            ParqColumn::Str((0..100).map(|i| format!("s{i}")).collect()),
        ]);
        let (bytes, _) = write_table(&cols).unwrap();
        assert!(read_table(&bytes[1..]).is_err()); // bad magic
        for cut in [4, 10, bytes.len() / 2, bytes.len() - 1] {
            let _ = read_table(&bytes[..cut]); // no panic
        }
        for i in (0..bytes.len()).step_by(11) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            let _ = read_table(&bad); // no panic
        }
    }

    #[test]
    fn forged_arith_count_errors_instead_of_decoding_zeros() {
        let values: Vec<u32> = (0..200).map(|i| i * 3 % 11).collect();
        let payload = encode_u32_arith(&values).unwrap();
        assert_eq!(decode_u32_arith(&payload).unwrap(), values);
        // The same stream claiming 2^28 - 1 symbols: the range decoder runs
        // out of bytes instead of decoding a gigabyte of padding.
        let mut forged = ByteWriter::new();
        forged.write_varint((1 << 28) - 1);
        forged.write_bytes(&payload[2..]); // past the 2-byte varint of 200
        assert!(decode_u32_arith(forged.as_slice()).is_err());
    }

    #[test]
    fn column_stats_sum_close_to_total() {
        let cols = named(vec![
            ParqColumn::U32((0..1000).map(|i| i % 5).collect()),
            ParqColumn::F64((0..1000).map(f64::from).collect()),
        ]);
        let (bytes, stats) = write_table(&cols).unwrap();
        let col_bytes: usize = stats.iter().map(|s| s.bytes).sum();
        // Header overhead is magic + two varints only.
        assert!(bytes.len() - col_bytes < 16);
    }
}
