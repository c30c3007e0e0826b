//! `parq` — a Parquet-like columnar storage container (§2.2).
//!
//! Stores a table column-by-column. For every column the writer sizes
//! each applicable encoding (plain, RLE, delta, bit-packing, dictionary,
//! adaptive range coding) and keeps the smallest, then runs an optional
//! [`crate::gzlike`] entropy stage — mirroring how Parquet composes
//! columnar encodings with a general-purpose compressor. A candidate whose
//! size is arithmetic is encoded only if it wins, and the entropy stage
//! skips a range-coded (`ARITH`) payload, which it never shrinks. It
//! serves two roles in the reproduction:
//!
//! 1. the standalone **Parquet baseline** of the paper's evaluation, and
//! 2. the backend DeepSqueeze materializes failures into (§6.3).

use std::borrow::Cow;

use crate::rangecoder::AdaptiveModel;
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
    let max = values.iter().copied().max()?;
    if max >= ARITH_MAX_ALPHABET || values.len() < 64 {
        return None;
    }
    let mut w = ByteWriter::new();
    w.write_varint(values.len() as u64);
    w.write_varint(u64::from(max) + 1);
    let mut model = AdaptiveModel::new(max as usize + 1).ok()?;
    let stream = model.encode_all(values.iter().map(|&v| v as usize)).ok()?;
    w.write_len_prefixed(&stream);
    Some(w.into_vec())
}

pub(crate) fn decode_u32_arith(payload: &[u8]) -> Result<Vec<u32>> {
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
    AdaptiveModel::new(alphabet as usize)?.decode_all(stream, n)
}

/// Encodes a u32 stream with the smallest applicable codec from the
/// registry table (RLE / delta / bit-packing / Roaring / arith). Returns
/// the winner's wire byte and the payload.
fn encode_u32_best(values: &[u32]) -> Result<(u8, Vec<u8>)> {
    let sel = registry::select_u32(values)?;
    let byte = sel.id.wire_byte().ok_or(CodecError::InvalidParameter(
        "parq: u32 codec id has no wire byte",
    ))?;
    Ok((byte, sel.payload))
}

/// Dictionary layout for f64 columns: sorted distinct values + u32 codes.
/// Returns `None` when the cardinality is too high to pay off.
fn encode_f64_dict(values: &[f64]) -> Result<Option<Vec<u8>>> {
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
    let codes = values
        .iter()
        .map(|v| match distinct.binary_search(&v.to_bits()) {
            Ok(code) => Ok(code as u32),
            Err(_) => Err(CodecError::InvalidParameter(
                "parq: value missing from its dictionary",
            )),
        })
        .collect::<Result<Vec<u32>>>()?;
    let (tag, payload) = encode_u32_best(&codes)?;
    w.write_u8(tag);
    w.write_len_prefixed(&payload);
    Ok(Some(w.into_vec()))
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
    let codes = registry::decode_u32(tag, r.read_len_prefixed()?)?;
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

/// [`entropy_stage`] for a u32 codec's payload, skipping an `ARITH` one:
/// range-coder output is near-uniform bytes, which gzlike does not shrink
/// (`tests/parq_selector.rs` checks this against the always-squeezing
/// writer on every generator's streams). The flag byte stays, so the
/// reader is unchanged.
fn u32_entropy_stage(tag: u8, payload: Vec<u8>) -> (u8, Vec<u8>) {
    if registry::ARITH.wire_byte() == Some(tag) {
        (0, payload)
    } else {
        entropy_stage(payload)
    }
}

/// Undoes [`entropy_stage`]: a stored payload (flag 0) is decoded from
/// the archive bytes in place, only a squeezed one is expanded.
fn un_entropy(flag: u8, payload: &[u8]) -> Result<Cow<'_, [u8]>> {
    match flag {
        0 => Ok(Cow::Borrowed(payload)),
        1 => gzlike::decompress(payload).map(Cow::Owned),
        _ => Err(CodecError::Corrupt("parq: bad entropy flag")),
    }
}

/// Per-column byte cost, reported by [`write_table`].
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Column name as stored.
    pub name: String,
    /// Bytes this column occupies in the container (payload + header).
    pub bytes: usize,
}

/// Encodes one named column into a self-contained byte section.
///
/// Each section carries its own name, type tag, mode bytes and
/// len-prefixed payload, so sections can be produced independently (and
/// in parallel) and concatenated in column order — the result is
/// byte-identical to a sequential single-writer encode.
fn encode_column_section(name: &str, col: &ParqColumn) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.write_len_prefixed(name.as_bytes());
    match col {
        ParqColumn::U32(values) => {
            w.write_u8(0);
            let (tag, payload) = encode_u32_best(values)?;
            let (flag, payload) = u32_entropy_stage(tag, payload);
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
            // value to fit 32 bits. Delta's size is arithmetic, so it is
            // encoded only when it wins.
            let delta_size = delta::encoded_size_i64(values);
            let zz: Option<Vec<u32>> = values
                .iter()
                .map(|&v| u32::try_from(crate::varint::zigzag(v)).ok())
                .collect();
            let direct = match zz {
                Some(codes) => Some(encode_u32_best(&codes)?),
                None => None,
            };
            match direct {
                Some((tag, payload)) if payload.len() < delta_size => {
                    let (flag, payload) = u32_entropy_stage(tag, payload);
                    w.write_u8(2 + flag); // 2 = zigzag raw, 3 = zigzag+gz
                    w.write_u8(tag);
                    w.write_len_prefixed(&payload);
                }
                _ => {
                    let (flag, payload) = entropy_stage(delta::encode_i64(values));
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

            let dict_payload = encode_f64_dict(values)?;
            match dict_payload {
                Some(dp) if dp.len() < xor_payload.len() => {
                    let (flag, payload) = entropy_stage(dp);
                    w.write_u8(2 + flag); // 2 = dict raw, 3 = dict+gz
                    w.write_len_prefixed(&payload);
                }
                _ => {
                    let (flag, payload) = entropy_stage(xor_payload);
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
            let (tag, payload) = encode_u32_best(&codes)?;
            inner.write_u8(tag);
            inner.write_len_prefixed(&payload);
            let (flag, payload) = entropy_stage(inner.into_vec());
            w.write_u8(flag);
            w.write_len_prefixed(&payload);
        }
    }
    Ok(w.into_vec())
}

/// Serializes named columns into a parq container.
///
/// All columns must have equal length; returns per-column stats alongside
/// the bytes. Columns encode in parallel (each into its own buffer) and
/// concatenate in declaration order, so the container bytes do not depend
/// on the thread count.
pub fn write_table(columns: &[(String, ParqColumn)]) -> Result<(Vec<u8>, Vec<ColumnStats>)> {
    let nrows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
    if columns.iter().any(|(_, c)| c.len() != nrows) {
        return Err(CodecError::InvalidParameter("parq: ragged columns"));
    }
    let sections: Vec<Result<Vec<u8>>> = ds_exec::parallel_map(columns.len(), |i| {
        let (name, col) = columns
            .get(i)
            .ok_or(CodecError::InvalidParameter("parq: no such column"))?;
        encode_column_section(name, col)
    });

    let mut w = ByteWriter::new();
    w.write_bytes(MAGIC);
    w.write_varint(columns.len() as u64);
    w.write_varint(
        u64::try_from(nrows).map_err(|_| CodecError::InvalidParameter("parq: too many rows"))?,
    );
    let mut stats = Vec::with_capacity(columns.len());
    for ((name, _), section) in columns.iter().zip(sections) {
        let bytes = section?;
        w.write_bytes(&bytes);
        stats.push(ColumnStats {
            name: name.clone(),
            bytes: bytes.len(),
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
            let values = registry::decode_u32(sec.tag, &payload)?;
            if values.len() != nrows {
                return Err(CodecError::Corrupt("parq: row count mismatch"));
            }
            Ok(ParqColumn::U32(values))
        }
        1 => {
            let values = if sec.mode >= 2 {
                let payload = un_entropy(sec.mode & 1, sec.payload)?;
                registry::decode_u32(sec.tag, &payload)?
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
            let codes = registry::decode_u32(tag, inner.read_len_prefixed()?)?;
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
        decode_column_section(
            sections
                .get(i)
                .ok_or(CodecError::Corrupt("parq: no such column"))?,
            nrows,
        )
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

    /// No writer selects the frame-of-reference codec, but archives
    /// written when it could compete hold it as wire byte 5: a U32
    /// column built by hand that way still reads.
    #[test]
    fn a_for_model_column_still_decodes() {
        let values: Vec<u32> = (0..3000u32).map(|i| 1_000_000 + i % 97).collect();
        let payload = crate::formodel::encode(&values);
        let mut w = ByteWriter::new();
        w.write_bytes(MAGIC);
        w.write_varint(1); // columns
        w.write_varint(values.len() as u64);
        w.write_len_prefixed(b"f");
        w.write_u8(0); // U32
        w.write_u8(5); // FoR's wire byte: registry id 6 minus one
        w.write_u8(0); // no entropy stage
        w.write_len_prefixed(&payload);
        assert_eq!(
            read_table(w.as_slice()).unwrap(),
            vec![("f".to_owned(), ParqColumn::U32(values))]
        );
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
