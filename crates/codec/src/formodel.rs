//! `formodel` — per-chunk constant / frame-of-reference numeric model.
//!
//! The thin end of the learned-model wedge (LeCo-style): instead of one
//! global encoding per column, each 1024-value chunk is probed with two
//! trivial models and the cheaper one is kept:
//!
//! * **constant** — every value in the chunk is the same; store it once.
//! * **FoR** (frame of reference) — store the chunk minimum, then
//!   bit-pack the residuals `v - min`. Clustered-but-offset value ranges
//!   (timestamps, auto-increment ids, quantized sensor codes) pack into
//!   a fraction of the bits the raw values need.
//!
//! The codec is registered in [`crate::registry`] under
//! [`crate::registry::FOR_MODEL`] and is decode-only: no writer selects
//! it. Archives written when it could compete hold it as parq wire byte
//! 5, and a decoder that predates it rejects that byte with a typed
//! [`CodecError::UnknownCodec`] instead of misparsing. It won none of
//! the 3,273 failure streams of the three benchmark tables: those
//! streams are residuals, ranks and codes already near zero, where a
//! reference frame has nothing to remove.
//!
//! Wire format: `varint n`, then for each 1024-value chunk a mode byte —
//! `0` (constant: `varint value`) or `1` (FoR: `varint min`, then the
//! len-prefixed [`crate::bitpack`] blob of the residuals).

use crate::{bitpack, ByteReader, ByteWriter, CodecError, Result};

/// Values per independently-modelled chunk. Small enough that one outlier
/// only poisons its own chunk's reference frame, large enough that the
/// per-chunk header (mode + min) amortizes away.
pub const CHUNK: usize = 1024;

/// Encodes `values`, choosing constant or FoR per chunk.
pub fn encode(values: &[u32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_varint(values.len() as u64);
    for chunk in values.chunks(CHUNK) {
        let mut min = u32::MAX;
        let mut max = 0u32;
        for &v in chunk {
            min = min.min(v);
            max = max.max(v);
        }
        if min == max {
            w.write_u8(0);
            w.write_varint(u64::from(min));
        } else {
            w.write_u8(1);
            w.write_varint(u64::from(min));
            let residuals: Vec<u64> = chunk.iter().map(|&v| u64::from(v - min)).collect();
            w.write_len_prefixed(&bitpack::encode(&residuals));
        }
    }
    w.into_vec()
}

/// Decodes a stream produced by [`encode`]. Malformed input — bad chunk
/// modes, residuals that overflow `u32`, length mismatches — errors,
/// never panics.
pub fn decode(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut r = ByteReader::new(bytes);
    let n = r.read_varint_usize()?;
    if n > crate::MAX_DECODE_ELEMS {
        return Err(CodecError::Corrupt("formodel: count exceeds decode limit"));
    }
    let mut out = Vec::with_capacity(n.min(1 << 20));
    while out.len() < n {
        let take = CHUNK.min(n - out.len());
        match r.read_u8()? {
            0 => {
                let v = r.read_varint_u32()?;
                out.resize(out.len() + take, v);
            }
            1 => {
                let min = r.read_varint_u32()?;
                let residuals = bitpack::decode(r.read_len_prefixed()?)?;
                if residuals.len() != take {
                    return Err(CodecError::Corrupt("formodel: chunk length mismatch"));
                }
                for res in residuals {
                    let sum = u64::from(min)
                        .checked_add(res)
                        .ok_or(CodecError::Corrupt("formodel: residual overflow"))?;
                    let v = u32::try_from(sum)
                        .map_err(|_| CodecError::Corrupt("formodel: residual exceeds u32"))?;
                    out.push(v);
                }
            }
            _ => return Err(CodecError::Corrupt("formodel: bad chunk mode")),
        }
    }
    if !r.is_empty() {
        return Err(CodecError::Corrupt("formodel: trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) {
        let bytes = encode(values);
        assert_eq!(decode(&bytes).unwrap(), values, "n={}", values.len());
    }

    #[test]
    fn roundtrip_empty_and_small() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[u32::MAX]);
        roundtrip(&[5, 5, 5, 9]);
    }

    #[test]
    fn roundtrip_across_chunk_boundaries() {
        let values: Vec<u32> = (0..(CHUNK as u32 * 3 + 17)).map(|i| i * 7 + 3).collect();
        roundtrip(&values);
    }

    #[test]
    fn constant_chunks_are_tiny() {
        let values = vec![123_456u32; CHUNK * 4];
        let bytes = encode(&values);
        // 4 chunks x (mode + varint) + count varint.
        assert!(bytes.len() < 32, "constant run: {}", bytes.len());
        assert_eq!(decode(&bytes).unwrap(), values);
    }

    #[test]
    fn offset_cluster_beats_plain_bitpack() {
        // Values near 1e9 with a spread of 256: FoR needs 8 bits/value,
        // plain bitpack needs ~30.
        let values: Vec<u32> = (0..4096u32)
            .map(|i| 1_000_000_000 + (i * 37) % 256)
            .collect();
        let wide: Vec<u64> = values.iter().map(|&v| u64::from(v)).collect();
        let for_bytes = encode(&values);
        assert!(
            for_bytes.len() * 2 < bitpack::encoded_size(&wide),
            "FoR {} vs bitpack {}",
            for_bytes.len(),
            bitpack::encoded_size(&wide)
        );
        assert_eq!(decode(&for_bytes).unwrap(), values);
    }

    #[test]
    fn mixed_constant_and_varying_chunks() {
        let mut values = vec![7u32; CHUNK];
        values.extend((0..CHUNK as u32).map(|i| 500 + i % 90));
        values.extend(std::iter::repeat_n(42u32, CHUNK / 2));
        roundtrip(&values);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let values: Vec<u32> = (0..3000u32).map(|i| i % 50 + 1000).collect();
        let bytes = encode(&values);
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err());
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            let _ = decode(&bad); // error or success, never panic
        }
        // Implausible count.
        let mut w = ByteWriter::new();
        w.write_varint(u64::MAX / 2);
        assert!(decode(w.as_slice()).is_err());
        // Bad chunk mode.
        let mut w = ByteWriter::new();
        w.write_varint(4);
        w.write_u8(9);
        assert!(decode(w.as_slice()).is_err());
        // Residual that overflows u32.
        let mut w = ByteWriter::new();
        w.write_varint(2);
        w.write_u8(1);
        w.write_varint(u64::from(u32::MAX));
        w.write_len_prefixed(&bitpack::encode(&[0u64, 1 << 33]));
        assert!(decode(w.as_slice()).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&[1, 2, 3]);
        bytes.push(0);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::Corrupt("formodel: trailing bytes")
        );
    }
}
