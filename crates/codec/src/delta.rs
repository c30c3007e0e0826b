//! Delta encoding for integer sequences.
//!
//! Stores the first value and then zigzag-varint deltas. DeepSqueeze uses
//! this for truncated-and-integerized codes (§6.2), for the original-index
//! side of expert mappings (§6.4), and for bucket-index failure deltas on
//! numeric columns (§6.3.2).

use crate::{varint, ByteReader, ByteWriter, CodecError, Result};

/// Encodes `values` as first value + zigzag deltas.
pub fn encode_i64(values: &[i64]) -> Vec<u8> {
    encode_values(values.len(), values.iter().copied())
}

/// Writes the count, then each value's zigzag delta from the one before
/// it (the first from 0, so it is stored whole).
fn encode_values(n: usize, values: impl Iterator<Item = i64>) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(n + 16);
    w.write_varint(n as u64);
    let mut prev = 0i64;
    for v in values {
        varint::write_i64(&mut w, v.wrapping_sub(prev));
        prev = v;
    }
    w.into_vec()
}

/// Decodes a stream produced by [`encode_i64`].
pub fn decode_i64(bytes: &[u8]) -> Result<Vec<i64>> {
    let mut r = ByteReader::new(bytes);
    let n = r.read_varint_usize()?;
    // Every value takes at least one byte, so a count past the bytes left
    // cannot be backed, and must not size an allocation.
    if n > r.remaining() {
        return Err(CodecError::Corrupt(
            "delta: element count exceeds stream length",
        ));
    }
    decode_values(r, n)
}

/// Reads `n` zigzag-varint values (the first absolute, the rest deltas).
/// Delta streams are dominated by runs of one-byte varints (small deltas),
/// so this checks four continuation bits at a time and decodes such runs
/// without per-byte cursor bookkeeping, falling back to the shared varint
/// reader whenever a multi-byte value (or the stream tail) interrupts the
/// run. Value- and error-identical to one `varint::read_i64` per value.
fn decode_values(mut r: ByteReader<'_>, n: usize) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return Ok(out);
    }
    let first = varint::read_i64(&mut r)?;
    out.push(first);
    let payload = r.read_bytes(r.remaining())?;
    let mut prev = first;
    let mut at = 0usize;
    while out.len() < n {
        if out.len() + 4 <= n {
            if let Some(quad) = payload.get(at..).and_then(|s| s.first_chunk::<4>()) {
                if (quad[0] | quad[1] | quad[2] | quad[3]) < 0x80 {
                    for &b in quad {
                        prev = prev.wrapping_add(varint::unzigzag(u64::from(b)));
                        out.push(prev);
                    }
                    at += 4;
                    continue;
                }
            }
        }
        let mut sub = ByteReader::new(payload.get(at..).unwrap_or(&[]));
        let d = varint::read_i64(&mut sub)?;
        at += sub.position();
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    Ok(out)
}

/// Encoded size of [`encode_i64`] output without allocating it.
pub fn encoded_size_i64(values: &[i64]) -> usize {
    size_of_values(values.len(), values.iter().copied())
}

/// Encoded size of [`encode_u32`] output, read from the `u32`s in place.
pub fn encoded_size_u32(values: &[u32]) -> usize {
    size_of_values(values.len(), values.iter().map(|&v| i64::from(v)))
}

fn size_of_values(n: usize, values: impl Iterator<Item = i64>) -> usize {
    let mut size = varint::encoded_len(n as u64);
    let mut prev = 0i64;
    for v in values {
        size += varint::encoded_len(varint::zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
    size
}

/// Convenience wrapper for unsigned sequences (e.g., sorted row indexes).
pub fn encode_u32(values: &[u32]) -> Vec<u8> {
    encode_values(values.len(), values.iter().map(|&v| i64::from(v)))
}

/// Decodes [`encode_u32`] output, rejecting values outside `u32`.
pub fn decode_u32(bytes: &[u8]) -> Result<Vec<u32>> {
    decode_i64(bytes)?
        .into_iter()
        .map(|v| u32::try_from(v).map_err(|_| CodecError::Corrupt("delta: value exceeds u32")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_monotone_sequence() {
        let data: Vec<i64> = (0..10_000).map(|i| i * 3 + 100).collect();
        let enc = encode_i64(&data);
        assert_eq!(decode_i64(&enc).unwrap(), data);
        assert_eq!(enc.len(), encoded_size_i64(&data));
        // Constant stride deltas should be ~1 byte per element.
        assert!(enc.len() < data.len() * 2);
    }

    #[test]
    fn roundtrip_negative_and_extremes() {
        let data = vec![i64::MIN, i64::MAX, 0, -5, 5, i64::MIN, i64::MAX];
        assert_eq!(decode_i64(&encode_i64(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decode_i64(&encode_i64(&[])).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn u32_wrapper_roundtrip() {
        let data = vec![0u32, 1, 100, u32::MAX, 7];
        assert_eq!(decode_u32(&encode_u32(&data)).unwrap(), data);
    }

    #[test]
    fn u32_wrapper_rejects_out_of_range() {
        let enc = encode_i64(&[-1]);
        assert!(decode_u32(&enc).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let enc = encode_i64(&[1, 2, 3]);
        assert!(decode_i64(&enc[..enc.len() - 1]).is_err());
    }

    /// The per-varint loop [`decode_values`] replaced.
    fn decode_values_reference(mut r: ByteReader<'_>, n: usize) -> Result<Vec<i64>> {
        let mut out = Vec::with_capacity(n);
        let mut prev = 0i64;
        for i in 0..n {
            let d = varint::read_i64(&mut r)?;
            let v = if i == 0 { d } else { prev.wrapping_add(d) };
            out.push(v);
            prev = v;
        }
        Ok(out)
    }

    /// Runs both value loops on `bytes` after its count, whatever the
    /// count says (up to a bound that keeps test allocations small), and
    /// asserts they return the same values or the same error.
    fn assert_loops_agree(bytes: &[u8]) {
        let mut r = ByteReader::new(bytes);
        let Ok(n) = r.read_varint_usize() else {
            return;
        };
        if n > 4 * bytes.len() + 64 {
            return;
        }
        assert_eq!(
            decode_values(r.clone(), n),
            decode_values_reference(r, n),
            "stream {bytes:02x?}"
        );
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
        *state
    }

    /// The one-byte-run decoder must equal the per-varint reference on
    /// small-delta runs, multi-byte interruptions, wide values and ragged
    /// tails, and every stream must round-trip.
    #[test]
    fn fast_paths_match_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut data = vec![0i64];
        for i in 0..1000 {
            let s = lcg(&mut state);
            // Mostly small deltas with large jumps at irregular places,
            // so the one-byte runs and the fallback both execute, and a
            // multi-byte value lands at every position of a four-byte run.
            let jump = if i % 37 == 0 || (s >> 20).is_multiple_of(23) {
                (s >> 8) as i64
            } else {
                ((s >> 58) as i64) - 16
            };
            let prev = *data.last().unwrap();
            data.push(prev.wrapping_add(jump));
        }
        let wide: Vec<i64> = (0..300).map(|_| lcg(&mut state) as i64).collect();
        let extremes = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, -64, 63, 64, -65];
        for vals in [&data[..], &wide[..], &extremes[..]] {
            for take in [0usize, 1, 2, 3, 4, 5, 6, 40, vals.len()] {
                let vals = &vals[..take.min(vals.len())];
                let enc = encode_i64(vals);
                assert_eq!(decode_i64(&enc).unwrap(), vals, "{take} values");
                assert_loops_agree(&enc);
            }
        }
    }

    /// Both loops must fail alike on every truncation, on over-long and
    /// unterminated varints, and on seeded garbage.
    #[test]
    fn fast_decode_matches_reference_on_truncation() {
        let mut state = 0x0DDB_A11Fu64;
        let mut vals = vec![5, 6, 7, 8, 9, 1 << 40, -3, 0, 0, 0, 0, i64::MIN, 2];
        vals.extend((0..40).map(|_| (lcg(&mut state) >> 60) as i64));
        let enc = encode_i64(&vals);
        for cut in 0..enc.len() {
            assert_loops_agree(&enc[..cut]);
            assert!(decode_i64(&enc[..cut]).is_err(), "cut {cut}");
        }
        // Eleven continuation bytes: longer than any u64 varint, in the
        // first value, inside a run and at the tail.
        let long = [0xFFu8; 11];
        for at in [1usize, 2, 6, 9] {
            let mut bytes = vec![12u8, 0, 2, 4, 6, 8, 10, 12, 14];
            bytes.splice(at.min(bytes.len()).., long);
            assert_loops_agree(&bytes);
            assert!(decode_i64(&bytes).is_err());
        }
        for len in 0..300 {
            let garbage: Vec<u8> = (0..len).map(|_| (lcg(&mut state) >> 56) as u8).collect();
            assert_loops_agree(&garbage);
            let mut small = garbage.clone();
            if let Some(b) = small.first_mut() {
                *b = (len as u8) & 0x7F; // a count the bytes can back
            }
            assert_loops_agree(&small);
        }
    }

    /// A count the stream cannot back is `Corrupt` before anything is
    /// reserved: ~10 KB claiming 60× its length in elements.
    #[test]
    fn count_beyond_stream_length_is_corrupt() {
        let body = vec![0u8; 10_000];
        let mut w = ByteWriter::new();
        w.write_varint(60 * body.len() as u64);
        w.write_bytes(&body);
        assert!(matches!(
            decode_i64(w.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
        // One byte per value is the most a stream can be asked to back.
        let mut w = ByteWriter::new();
        w.write_varint(body.len() as u64);
        w.write_bytes(&body);
        assert_eq!(decode_i64(w.as_slice()).unwrap(), vec![0i64; body.len()]);
    }

    #[test]
    fn sorted_indexes_compress_well() {
        // Expert-mapping use case: sorted original row indexes.
        let data: Vec<u32> = (0..50_000).step_by(3).map(|i| i as u32).collect();
        let enc = encode_u32(&data);
        assert!(enc.len() <= data.len() + 16);
        assert_eq!(decode_u32(&enc).unwrap(), data);
    }
}
