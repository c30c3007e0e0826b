//! Run-length encoding over `u32` value streams.
//!
//! The paper's materialization step (§6.3) leans on RLE twice: repeated
//! sentinel/rank-0 values for correct categorical predictions, and the long
//! 0/1 runs produced by the XOR trick for binary columns. Runs are encoded
//! as `(value varint, run-length varint)` pairs.

use crate::{ByteReader, ByteWriter, CodecError, Result};

/// The (value, run length) pairs of `values`, in order.
fn runs(values: &[u32]) -> impl Iterator<Item = (u32, usize)> + '_ {
    values
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
}

/// Encodes `values` as (value, run-length) varint pairs.
pub fn encode(values: &[u32]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(values.len() / 4 + 16);
    w.write_varint(values.len() as u64);
    for (v, run) in runs(values) {
        w.write_varint(u64::from(v));
        w.write_varint(run as u64);
    }
    w.into_vec()
}

/// Decodes a stream produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut r = ByteReader::new(bytes);
    let n = r.read_varint_usize()?;
    // A valid RLE stream can legitimately expand by orders of magnitude
    // (one pair → millions of rows), so `n` cannot be sanity-checked
    // against the input size — only against the crate-wide decode ceiling
    // (a single run may resize straight to `n`).
    if n > crate::MAX_DECODE_ELEMS {
        return Err(CodecError::Corrupt(
            "rle: element count exceeds decode limit",
        ));
    }
    let mut out = Vec::with_capacity(n.min(1 << 20));
    while out.len() < n {
        let v = r.read_varint()?;
        let v = u32::try_from(v).map_err(|_| CodecError::Corrupt("rle: value exceeds u32"))?;
        let run = r.read_varint_usize()?;
        if run == 0 || out.len() + run > n {
            return Err(CodecError::Corrupt("rle: bad run length"));
        }
        out.resize(out.len() + run, v);
    }
    Ok(out)
}

/// Encoded size without materializing the stream; used by the per-column
/// codec chooser in [`crate::parq`].
pub fn encoded_size(values: &[u32]) -> usize {
    use crate::varint::encoded_len;
    encoded_len(values.len() as u64)
        + runs(values)
            .map(|(v, run)| encoded_len(u64::from(v)) + encoded_len(run as u64))
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_runs() {
        let data = vec![5, 5, 5, 5, 0, 0, 7, 7, 7, 7, 7, 7, 1];
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        assert_eq!(enc.len(), encoded_size(&data));
    }

    #[test]
    fn roundtrip_empty_and_singleton() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u32>::new());
        assert_eq!(decode(&encode(&[42])).unwrap(), vec![42]);
    }

    #[test]
    fn constant_column_is_tiny() {
        let data = vec![3u32; 100_000];
        let enc = encode(&data);
        assert!(enc.len() < 16, "constant run should encode in a few bytes");
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn alternating_values_do_not_blow_up_decoding() {
        let data: Vec<u32> = (0..1000).map(|i| i % 2).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn corrupt_run_length_errors() {
        let mut enc = encode(&[1, 1, 2]);
        // Truncate mid-pair.
        enc.truncate(enc.len() - 1);
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn zero_run_rejected() {
        let mut w = ByteWriter::new();
        w.write_varint(1); // one element claimed
        w.write_varint(9); // value
        w.write_varint(0); // zero-length run: invalid
        assert_eq!(
            decode(w.as_slice()).unwrap_err(),
            CodecError::Corrupt("rle: bad run length")
        );
    }

    #[test]
    fn overlong_run_rejected() {
        let mut w = ByteWriter::new();
        w.write_varint(2); // two elements claimed
        w.write_varint(9);
        w.write_varint(5); // run of 5 > claimed 2
        assert!(decode(w.as_slice()).is_err());
    }
}
