//! Roaring-style compressed bitmaps.
//!
//! §6.3.1 of the DeepSqueeze paper points at Roaring bitmaps [Chambi et
//! al.] as the advanced option for compressing binary failure columns.
//! This is the classic two-level design: the u32 key space splits into
//! 2¹⁶-value chunks, and each chunk stores its set bits as either a sorted
//! array (sparse) or a 2¹⁶-bit bitset (dense), whichever is smaller —
//! switching at the canonical 4096-element threshold.

use crate::{ByteReader, ByteWriter, CodecError, Result};

/// Array-vs-bitset switch point (4096 × 2 bytes = the 8 KiB bitset size).
const ARRAY_MAX: usize = 4096;

/// One 2¹⁶-range container.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted low-16-bit values.
    Array(Vec<u16>),
    /// 65536-bit bitset.
    Bitmap(Box<[u64; 1024]>),
}

impl Container {
    fn iter(&self) -> Box<dyn Iterator<Item = u16> + '_> {
        match self {
            Container::Array(v) => Box::new(v.iter().copied()),
            Container::Bitmap(b) => Box::new(b.iter().enumerate().flat_map(|(w, &word)| {
                (0..64).filter_map(move |bit| {
                    if word >> bit & 1 == 1 {
                        Some((w * 64 + bit) as u16)
                    } else {
                        None
                    }
                })
            })),
        }
    }
}

/// A compressed set of u32 values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoaringBitmap {
    /// (high 16 bits, container), sorted by key.
    chunks: Vec<(u16, Container)>,
}

impl RoaringBitmap {
    /// The set of positions where `bits` is nonzero. Each 2^16-position
    /// chunk with any becomes an array when it holds at most
    /// [`ARRAY_MAX`] of them, else a bitmap.
    fn from_bit_stream(bits: &[u32]) -> Self {
        let chunks = bits
            .chunks(1 << 16)
            .zip(0..=u16::MAX)
            .filter_map(|(chunk, high)| {
                let ones = chunk.iter().filter(|&&b| b != 0).count();
                if ones == 0 {
                    return None;
                }
                let container = if ones <= ARRAY_MAX {
                    Container::Array(
                        (0..=u16::MAX)
                            .zip(chunk)
                            .filter(|&(_, &b)| b != 0)
                            .map(|(low, _)| low)
                            .collect(),
                    )
                } else {
                    let mut words = Box::new([0u64; 1024]);
                    for (word, bits) in words.iter_mut().zip(chunk.chunks(64)) {
                        *word = bits
                            .iter()
                            .rev()
                            .fold(0, |acc, &b| acc << 1 | u64::from(b != 0));
                    }
                    Container::Bitmap(words)
                };
                Some((high, container))
            })
            .collect();
        RoaringBitmap { chunks }
    }

    /// Iterates set values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().flat_map(|&(high, ref c)| {
            c.iter()
                .map(move |low| (u32::from(high) << 16) | u32::from(low))
        })
    }

    /// Serializes the bitmap.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_varint(self.chunks.len() as u64);
        for (high, c) in &self.chunks {
            w.write_u16(*high);
            match c {
                Container::Array(v) => {
                    w.write_u8(0);
                    w.write_varint(v.len() as u64);
                    // Delta-coded sorted low bits.
                    let mut prev = 0u16;
                    for (i, &low) in v.iter().enumerate() {
                        let d = if i == 0 { low } else { low - prev };
                        w.write_varint(u64::from(d));
                        prev = low;
                    }
                }
                Container::Bitmap(b) => {
                    w.write_u8(1);
                    for &word in b.iter() {
                        w.write_u64(word);
                    }
                }
            }
        }
        w.into_vec()
    }

    /// Deserializes a bitmap written by [`RoaringBitmap::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let n = r.read_varint_usize()?;
        if n > 1 << 16 {
            return Err(CodecError::Corrupt("roaring: too many chunks"));
        }
        let mut chunks = Vec::with_capacity(n);
        let mut prev_high: Option<u16> = None;
        for _ in 0..n {
            let high = r.read_u16()?;
            if prev_high.is_some_and(|p| p >= high) {
                return Err(CodecError::Corrupt("roaring: chunks out of order"));
            }
            prev_high = Some(high);
            let container = match r.read_u8()? {
                0 => {
                    let len = r.read_varint_usize()?;
                    if len > ARRAY_MAX {
                        return Err(CodecError::Corrupt("roaring: array too long"));
                    }
                    let mut v = Vec::with_capacity(len);
                    let mut prev = 0u32;
                    for i in 0..len {
                        let d = r.read_varint()?;
                        let low = if i == 0 { d } else { u64::from(prev) + d };
                        let low = u16::try_from(low)
                            .map_err(|_| CodecError::Corrupt("roaring: low overflow"))?;
                        if i > 0 && u32::from(low) <= prev {
                            return Err(CodecError::Corrupt("roaring: array not ascending"));
                        }
                        v.push(low);
                        prev = u32::from(low);
                    }
                    Container::Array(v)
                }
                1 => {
                    let mut b = Box::new([0u64; 1024]);
                    for word in b.iter_mut() {
                        *word = r.read_u64()?;
                    }
                    Container::Bitmap(b)
                }
                _ => return Err(CodecError::Corrupt("roaring: bad container tag")),
            };
            chunks.push((high, container));
        }
        Ok(RoaringBitmap { chunks })
    }

    /// Encodes a 0/1 stream as the bitmap of 1-positions (the §6.3.1
    /// binary-failure use case). Returns the serialized bitmap prefixed
    /// with the stream length.
    pub fn encode_bit_stream(bits: &[u32]) -> Vec<u8> {
        let bm = RoaringBitmap::from_bit_stream(bits);
        let mut w = ByteWriter::new();
        w.write_varint(bits.len() as u64);
        w.write_len_prefixed(&bm.to_bytes());
        w.into_vec()
    }

    /// Inverse of [`RoaringBitmap::encode_bit_stream`].
    pub fn decode_bit_stream(bytes: &[u8]) -> Result<Vec<u32>> {
        let mut r = ByteReader::new(bytes);
        let n = r.read_varint_usize()?;
        if n > crate::MAX_DECODE_ELEMS {
            return Err(CodecError::Corrupt(
                "roaring: bit count exceeds decode limit",
            ));
        }
        let bm = RoaringBitmap::from_bytes(r.read_len_prefixed()?)?;
        let mut out = vec![0u32; n];
        for v in bm.iter() {
            *out.get_mut(v as usize)
                .ok_or(CodecError::Corrupt("roaring: bit index out of range"))? = 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 0/1 stream with ones exactly at `positions`.
    fn ones_at(positions: impl IntoIterator<Item = usize>, n: usize) -> Vec<u32> {
        let mut bits = vec![0u32; n];
        for p in positions {
            bits[p] = 1;
        }
        bits
    }

    #[test]
    fn iter_lists_the_ones() {
        let bits = ones_at([0, 5, 100_000], 100_001);
        let bm = RoaringBitmap::from_bit_stream(&bits);
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![0, 5, 100_000]);
        assert_eq!(bm.chunks.len(), 2);
    }

    #[test]
    fn dense_chunk_promotes_to_bitmap() {
        // More than 4096 ones in one chunk make it the bitset container.
        let bm = RoaringBitmap::from_bit_stream(&vec![1; 10_000]);
        assert!(matches!(bm.chunks[..], [(0, Container::Bitmap(_))]));
        let bm = RoaringBitmap::from_bit_stream(&vec![1; 4096]);
        assert!(matches!(&bm.chunks[..], [(0, Container::Array(v))] if v.len() == 4096));
        // Ascending iteration over the bitset.
        let collected: Vec<u32> = RoaringBitmap::from_bit_stream(&vec![1; 10_000])
            .iter()
            .collect();
        assert_eq!(collected, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn serialization_roundtrip_sparse_and_dense() {
        let sparse = ones_at([1, 70_000, 70_001, 4_000_000], 4_000_001);
        let dense: Vec<u32> = (0..20_000).map(|v| u32::from(v % 3 != 0)).collect();
        for bits in [sparse, dense] {
            let bm = RoaringBitmap::from_bit_stream(&bits);
            let bytes = bm.to_bytes();
            assert_eq!(RoaringBitmap::from_bytes(&bytes).unwrap(), bm);
        }
    }

    #[test]
    fn sparse_bitmap_is_small() {
        // 10 scattered values should take tens of bytes, not kilobytes.
        let bits = ones_at((0..10).map(|i| i * 1_000_003), 9_000_028);
        assert!(RoaringBitmap::from_bit_stream(&bits).to_bytes().len() < 128);
    }

    #[test]
    fn bit_stream_roundtrip() {
        // The XOR-failure pattern: long runs of 0 with occasional 1s.
        let bits: Vec<u32> = (0..50_000).map(|i| u32::from(i % 997 == 0)).collect();
        let enc = RoaringBitmap::encode_bit_stream(&bits);
        assert_eq!(RoaringBitmap::decode_bit_stream(&enc).unwrap(), bits);
        assert!(
            enc.len() < 300,
            "sparse failures must stay tiny: {}",
            enc.len()
        );
        // All-zero stream costs almost nothing.
        let zeros = vec![0u32; 10_000];
        let enc = RoaringBitmap::encode_bit_stream(&zeros);
        assert!(enc.len() < 16);
        assert_eq!(RoaringBitmap::decode_bit_stream(&enc).unwrap(), zeros);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let bytes = RoaringBitmap::from_bit_stream(&vec![1; 5000]).to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let _ = RoaringBitmap::from_bytes(&bytes[..cut]);
        }
        let mut bad = bytes.clone();
        bad[0] = 0xFF;
        let _ = RoaringBitmap::from_bytes(&bad);
        // Claim two chunks but supply one: must not panic.
        let mut ab = RoaringBitmap::from_bit_stream(&ones_at([100_000], 100_001)).to_bytes();
        ab[0] = 2;
        let _ = RoaringBitmap::from_bytes(&ab);
    }

    #[test]
    fn out_of_range_position_is_corrupt() {
        // A bitmap with a one at 70,000 under a 10-bit stream length.
        let mut w = ByteWriter::new();
        w.write_varint(10);
        w.write_len_prefixed(
            &RoaringBitmap::from_bit_stream(&ones_at([70_000], 70_001)).to_bytes(),
        );
        assert_eq!(
            RoaringBitmap::decode_bit_stream(w.as_slice()),
            Err(CodecError::Corrupt("roaring: bit index out of range"))
        );
    }

    #[test]
    fn empty_bitmap() {
        let bm = RoaringBitmap::from_bit_stream(&[]);
        assert!(bm.chunks.is_empty());
        assert_eq!(RoaringBitmap::from_bytes(&bm.to_bytes()).unwrap(), bm);
    }
}
