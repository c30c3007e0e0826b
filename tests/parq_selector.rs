//! parq's writer against the exhaustive writer it replaced, on real
//! failure streams.
//!
//! [`reference_table`] is the old column writer, kept here as the
//! reference: it fully encodes every applicable u32 codec and keeps the
//! strictly smallest (in id order), encodes both I64 and both F64 layouts,
//! and runs the gzlike entropy stage on every winner. The writer under
//! test sizes the arithmetic candidates (RLE, delta, bitpack, the I64
//! delta layout) without encoding them, and skips the entropy stage on an
//! `ARITH` payload. Both must write the same bytes for every parq table
//! (codes, failures, rare streams) of an archive of every `ds_table::gen`
//! dataset at `--error` 0, 0.01 and 0.05.

use ds_codec::dict::Dictionary;
use ds_codec::parq::{self, ParqColumn};
use ds_codec::{delta, gzlike, registry, varint, ByteWriter};
use ds_core::{compress, DsConfig};
use ds_shard::ShardReader;
use ds_table::gen::Dataset;

/// The smallest u32 encoding, every candidate encoded in full.
fn best_u32(values: &[u32]) -> (u8, Vec<u8>) {
    let mut best: Option<(u8, Vec<u8>)> = None;
    for codec in registry::u32_codecs() {
        if codec.id == registry::FOR_MODEL {
            continue;
        }
        let Some(payload) = (codec.encode)(values) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| payload.len() < b.len()) {
            best = Some((codec.id.wire_byte().unwrap(), payload));
        }
    }
    best.expect("rle applies to every stream")
}

/// gzlike on every payload, kept when strictly smaller.
fn entropy(payload: Vec<u8>) -> (u8, Vec<u8>) {
    let squeezed = gzlike::compress(&payload);
    if squeezed.len() < payload.len() {
        (1, squeezed)
    } else {
        (0, payload)
    }
}

fn f64_dict(values: &[f64]) -> Option<Vec<u8>> {
    let mut distinct: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > values.len() / 2 {
        return None;
    }
    let mut w = ByteWriter::new();
    w.write_varint(distinct.len() as u64);
    let mut prev = 0u64;
    for &bits in &distinct {
        w.write_varint(bits.wrapping_sub(prev));
        prev = bits;
    }
    let codes: Vec<u32> = values
        .iter()
        .map(|v| distinct.binary_search(&v.to_bits()).unwrap() as u32)
        .collect();
    let (tag, payload) = best_u32(&codes);
    w.write_u8(tag);
    w.write_len_prefixed(&payload);
    Some(w.into_vec())
}

fn reference_section(w: &mut ByteWriter, name: &str, col: &ParqColumn) {
    w.write_len_prefixed(name.as_bytes());
    match col {
        ParqColumn::U32(values) => {
            let (tag, payload) = best_u32(values);
            let (flag, payload) = entropy(payload);
            w.write_u8(0);
            w.write_u8(tag);
            w.write_u8(flag);
            w.write_len_prefixed(&payload);
        }
        ParqColumn::I64(values) => {
            w.write_u8(1);
            let delta_payload = delta::encode_i64(values);
            let zz: Option<Vec<u32>> = values
                .iter()
                .map(|&v| u32::try_from(varint::zigzag(v)).ok())
                .collect();
            match zz.map(|codes| best_u32(&codes)) {
                Some((tag, payload)) if payload.len() < delta_payload.len() => {
                    let (flag, payload) = entropy(payload);
                    w.write_u8(2 + flag);
                    w.write_u8(tag);
                    w.write_len_prefixed(&payload);
                }
                _ => {
                    let (flag, payload) = entropy(delta_payload);
                    w.write_u8(flag);
                    w.write_len_prefixed(&payload);
                }
            }
        }
        ParqColumn::F64(values) => {
            w.write_u8(2);
            let mut raw = ByteWriter::new();
            let mut prev = 0u64;
            for &v in values {
                raw.write_u64(v.to_bits() ^ prev);
                prev = v.to_bits();
            }
            let xor_payload = raw.into_vec();
            match f64_dict(values) {
                Some(dp) if dp.len() < xor_payload.len() => {
                    let (flag, payload) = entropy(dp);
                    w.write_u8(2 + flag);
                    w.write_len_prefixed(&payload);
                }
                _ => {
                    let (flag, payload) = entropy(xor_payload);
                    w.write_u8(flag);
                    w.write_len_prefixed(&payload);
                }
            }
        }
        ParqColumn::Str(values) => {
            w.write_u8(3);
            let (dict, codes) = Dictionary::encode_column(values);
            let mut inner = ByteWriter::new();
            dict.write_to(&mut inner);
            let (tag, payload) = best_u32(&codes);
            inner.write_u8(tag);
            inner.write_len_prefixed(&payload);
            let (flag, payload) = entropy(inner.into_vec());
            w.write_u8(flag);
            w.write_len_prefixed(&payload);
        }
    }
}

/// The exhaustive writer's container bytes for `columns`.
fn reference_table(columns: &[(String, ParqColumn)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_bytes(parq::MAGIC);
    w.write_varint(columns.len() as u64);
    w.write_varint(columns.first().map_or(0, |(_, c)| c.len()) as u64);
    for (name, col) in columns {
        reference_section(&mut w, name, col);
    }
    w.into_vec()
}

/// Every parq table stored in `blob`: each offset holding the magic that
/// reads as a table whose re-encoding is the bytes found there.
fn tables_in(blob: &[u8]) -> Vec<Vec<(String, ParqColumn)>> {
    let mut found = Vec::new();
    for at in 0..blob.len().saturating_sub(3) {
        if &blob[at..at + 4] != parq::MAGIC {
            continue;
        }
        let Ok(columns) = parq::read_table(&blob[at..]) else {
            continue;
        };
        let (bytes, _) = parq::write_table(&columns).unwrap();
        if blob[at..].starts_with(&bytes) {
            found.push(columns);
        }
    }
    found
}

#[test]
fn selector_writes_what_the_exhaustive_writer_wrote() {
    let mut tables = 0usize;
    let mut streams = 0usize;
    let mut arith = 0usize;
    for dataset in Dataset::ALL {
        let table = dataset.generate(3_000, 17);
        for error in [0.0, 0.01, 0.05] {
            let cfg = DsConfig {
                error_threshold: error,
                n_experts: 2,
                max_epochs: 3,
                shard_rows: 1_000,
                seed: 3,
                ..DsConfig::default()
            };
            let archive = compress(&table, &cfg).expect("compresses");
            let reader = ShardReader::open(archive.as_bytes()).expect("a v2 container");
            let before = tables;
            for i in 0..reader.n_shards() {
                let blob = reader.shard_bytes(i).expect("shard");
                for columns in tables_in(blob) {
                    let (bytes, _) = parq::write_table(&columns).unwrap();
                    assert!(
                        bytes == reference_table(&columns),
                        "{dataset:?} at error {error}: shard {i}, a table of {} columns",
                        columns.len()
                    );
                    tables += 1;
                    streams += columns.len();
                    let arith_byte = registry::ARITH.wire_byte().unwrap();
                    arith += columns
                        .iter()
                        .filter(
                            |(_, c)| matches!(c, ParqColumn::U32(v) if best_u32(v).0 == arith_byte),
                        )
                        .count();
                }
            }
            // Codes and failures, at least, in every shard.
            assert!(
                tables - before >= 2 * reader.n_shards(),
                "{dataset:?} at error {error}: {} tables",
                tables - before
            );
        }
    }
    assert!(arith > 0 && streams > 500, "{arith} arith of {streams}");
}
