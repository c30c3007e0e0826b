//! Fixed-width bit packing for bounded integer columns.
//!
//! Dictionary codes and quantization bucket indexes have a known maximum,
//! so each value needs only `ceil(log2(max+1))` bits. This is the "plain"
//! compact representation the [`crate::parq`] container falls back on.

use crate::{bitstream::BitWriter, ByteReader, ByteWriter, CodecError, Result};

/// Minimum bits needed to represent `max_value` (at least 1).
pub fn width_for(max_value: u64) -> u32 {
    (64 - max_value.leading_zeros()).max(1)
}

/// Packs `values` at the minimum width for their maximum.
///
/// Layout: varint count, u8 width, packed payload.
pub fn encode<T: Copy + Into<u64>>(values: &[T]) -> Vec<u8> {
    let width = width_for(values.iter().map(|&v| v.into()).max().unwrap_or(0));
    encode_with_width(values, width)
}

/// Packs `values` at an explicit `width` (1..=57 bits).
///
/// Values wider than `width` are a caller bug and are masked off in release
/// builds (debug-asserted).
pub fn encode_with_width<T: Copy + Into<u64>>(values: &[T], width: u32) -> Vec<u8> {
    debug_assert!((1..=57).contains(&width));
    let mut out = ByteWriter::with_capacity(values.len() * width as usize / 8 + 8);
    out.write_varint(values.len() as u64);
    out.write_u8(width as u8);
    let mut bits = BitWriter::after(out.into_vec());
    bits.write_all(values, width);
    bits.into_vec()
}

/// Unpacks a stream produced by [`encode`]/[`encode_with_width`].
///
/// Each value is one [`crate::bitstream::peek_at`] window, masked to
/// `width`, with no per-value bounds check: the payload is checked to hold
/// `n * width` bits up front, and since the bit offset within a window's
/// first byte is ≤ 7 and `width ≤ 57`, a zero-padded window at the buffer
/// tail still holds all of a value's real bits.
pub fn decode(bytes: &[u8]) -> Result<Vec<u64>> {
    let mut r = ByteReader::new(bytes);
    let n = r.read_varint_usize()?;
    if n > crate::MAX_DECODE_ELEMS {
        return Err(CodecError::Corrupt(
            "bitpack: element count exceeds decode limit",
        ));
    }
    let width = u32::from(r.read_u8()?);
    if !(1..=57).contains(&width) {
        return Err(CodecError::Corrupt("bitpack: bad width"));
    }
    let payload = r.read_bytes(r.remaining())?;
    let needed_bits = n.checked_mul(width as usize).ok_or(CodecError::Overflow)?;
    if payload.len() * 8 < needed_bits {
        return Err(CodecError::UnexpectedEof);
    }
    let mask = (1u64 << width) - 1;
    let step = width as usize;
    let mut out = Vec::with_capacity(n);
    let mut bit = 0usize;
    for _ in 0..n {
        out.push(crate::bitstream::peek_at(payload, bit) & mask);
        bit += step;
    }
    Ok(out)
}

/// Size of the packed output without materializing it (nor widening
/// narrower values to `u64` first).
pub fn encoded_size<T: Copy + Into<u64>>(values: &[T]) -> usize {
    let max = values.iter().map(|&v| v.into()).max().unwrap_or(0);
    let width = width_for(max) as usize;
    let payload = (values.len() * width).div_ceil(8);
    crate::varint::encoded_len(values.len() as u64) + 1 + payload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_codes() {
        let data: Vec<u64> = (0..1000).map(|i| i % 7).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        assert_eq!(enc.len(), encoded_size(&data));
        // 7 distinct values -> 3 bits each.
        assert!(enc.len() < 1000 / 2);
    }

    #[test]
    fn roundtrip_zeroes() {
        let data = vec![0u64; 64];
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        // 1-bit width minimum.
        assert!(enc.len() <= 8 + 2);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decode(&encode::<u64>(&[])).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn roundtrip_wide_values() {
        let data = vec![0u64, (1 << 40) - 1, 12345, 1 << 39];
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn width_for_boundaries() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
    }

    #[test]
    fn truncated_payload_errors() {
        let enc = encode(&[1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert!(decode(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn bad_width_rejected() {
        let mut w = ByteWriter::new();
        w.write_varint(1);
        w.write_u8(0); // width 0 invalid
        w.write_u8(0);
        assert!(decode(w.as_slice()).is_err());
        let mut w = ByteWriter::new();
        w.write_varint(1);
        w.write_u8(60); // width > 57 invalid
        assert!(decode(w.as_slice()).is_err());
    }

    #[test]
    fn explicit_width_roundtrip() {
        let data = vec![1u64, 0, 1, 1, 0];
        let enc = encode_with_width(&data, 1);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    /// The bit-at-a-time layout both loops must keep: value `i`'s bit `b`
    /// is stream bit `i * width + b`, LSB-first within each byte.
    fn pack_reference(values: &[u64], width: u32) -> Vec<u8> {
        let w = width as usize;
        let mut out = vec![0u8; (values.len() * w).div_ceil(8)];
        for (i, &v) in values.iter().enumerate() {
            for b in 0..w {
                if v >> b & 1 == 1 {
                    out[(i * w + b) / 8] |= 1 << ((i * w + b) % 8);
                }
            }
        }
        out
    }

    /// The pre-`peek_at` decoder: one `BitReader::read_bits` per value.
    fn unpack_reference(payload: &[u8], n: usize, width: u32) -> Result<Vec<u64>> {
        let mut bits = crate::bitstream::BitReader::new(payload);
        (0..n).map(|_| bits.read_bits(width)).collect()
    }

    /// Pack and unpack must equal the bit-at-a-time references at every
    /// supported width, including counts that leave partial final bytes.
    #[test]
    fn fast_paths_match_reference_all_widths() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut data = Vec::new();
        for _ in 0..731 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            data.push(state >> 7);
        }
        for width in 1u32..=57 {
            let mask = (1u64 << width) - 1;
            let masked: Vec<u64> = data.iter().map(|&v| v & mask).collect();
            for take in [0usize, 1, 7, 8, 9, 64, 731] {
                let vals = &masked[..take];
                let enc = encode_with_width(vals, width);
                let header = crate::varint::encoded_len(take as u64) + 1;
                let payload = &enc[header..];
                assert_eq!(payload, pack_reference(vals, width), "pack width {width}");
                let dec = decode(&enc);
                assert_eq!(dec.as_ref().unwrap(), vals, "unpack width {width}");
                assert_eq!(dec, unpack_reference(payload, take, width));
            }
        }
    }
}
