//! Bit-granular readers/writers shared by [`crate::huffman`],
//! [`crate::gzlike`] and [`crate::bitpack`].
//!
//! Bits are packed LSB-first within each byte, which keeps the packer
//! branch-free and matches the fixed-width layout [`crate::bitpack`] expects.

use crate::{CodecError, Result};

/// Accumulates bits into a byte vector, LSB-first.
///
/// Bits are staged in a u64 and flushed a whole byte at a time; the byte
/// layout is the one a bit-at-a-time writer produces.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Staged bits not yet in `buf`, LSB-first; fewer than 8 between calls.
    acc: u64,
    /// Number of staged bits in `acc`.
    nacc: u32,
}

impl BitWriter {
    /// Creates an empty bit writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose stream starts after the bytes already in `buf`, so a
    /// byte-aligned header and its bit payload share one buffer.
    /// [`Self::bit_len`] counts those bytes too.
    pub(crate) fn after(buf: Vec<u8>) -> Self {
        BitWriter {
            buf,
            ..Self::default()
        }
    }

    /// Appends the low `nbits` bits of `value` (LSB-first); higher bits of
    /// `value` are ignored. `nbits` ≤ 57, so with at most 7 bits staged
    /// the accumulator cannot overflow.
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        stage(&mut self.buf, &mut self.acc, &mut self.nacc, value, nbits);
    }

    /// Appends each `(value, nbits)` field in turn, exactly as one
    /// [`Self::write_bits`] per field would, with the staged bits held in
    /// locals across the loop rather than in `self`.
    #[inline]
    pub(crate) fn write_fields(&mut self, fields: impl IntoIterator<Item = (u64, u32)>) {
        let (mut acc, mut nacc) = (self.acc, self.nacc);
        for (v, nbits) in fields {
            stage(&mut self.buf, &mut acc, &mut nacc, v, nbits);
        }
        (self.acc, self.nacc) = (acc, nacc);
    }

    /// Appends every value of `values` at `nbits` bits each.
    pub(crate) fn write_all<T: Copy + Into<u64>>(&mut self, values: &[T], nbits: u32) {
        self.write_fields(values.iter().map(|&v| (v.into(), nbits)));
    }

    /// Total number of bits written.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nacc as usize
    }

    /// Finishes the stream, zero-padding the final byte.
    pub fn into_vec(mut self) -> Vec<u8> {
        if self.nacc > 0 {
            self.buf.push(self.acc as u8);
        }
        self.buf
    }
}

/// The one flush rule of [`BitWriter`]: stages the low `nbits` bits of
/// `value` above the `nacc` bits in `acc`, then pushes every whole byte to
/// `buf`, leaving fewer than 8 bits staged.
#[inline(always)]
fn stage(buf: &mut Vec<u8>, acc: &mut u64, nacc: &mut u32, value: u64, nbits: u32) {
    debug_assert!(nbits <= 57, "write_bits supports at most 57 bits");
    debug_assert!(value < (1u64 << nbits.max(1)) || nbits == 0);
    *acc |= (value & ((1u64 << nbits) - 1)) << *nacc;
    *nacc += nbits;
    while *nacc >= 8 {
        buf.push(*acc as u8);
        *acc >>= 8;
        *nacc -= 8;
    }
}

/// The stream bits of `buf` from bit `pos` on, LSB-first: the unaligned
/// little-endian u64 at byte `pos / 8`, zero-padded past the end of `buf`,
/// shifted past the `pos % 8` bits already read — at least 57 real bits
/// where the buffer has them, zeros after its end.
#[inline]
pub(crate) fn peek_at(buf: &[u8], pos: usize) -> u64 {
    let start = pos / 8;
    let word = match buf.get(start..).and_then(|s| s.first_chunk::<8>()) {
        Some(window) => u64::from_le_bytes(*window),
        None => {
            let mut window = [0u8; 8];
            for (dst, src) in window.iter_mut().zip(buf.get(start..).unwrap_or(&[])) {
                *dst = *src;
            }
            u64::from_le_bytes(window)
        }
    };
    word >> (pos % 8)
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Total bits available in the underlying buffer.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8
    }

    /// Bits remaining before exhaustion.
    pub fn remaining_bits(&self) -> usize {
        self.bit_len() - self.pos
    }

    /// The next bits without consuming them, LSB-aligned: at least 57 of
    /// them are the stream's where it has that many, the rest zeros.
    #[inline]
    pub(crate) fn peek(&self) -> u64 {
        peek_at(self.buf, self.pos)
    }

    /// Consumes `nbits` bits, or fails with [`CodecError::UnexpectedEof`]
    /// (consuming nothing) when fewer remain.
    #[inline]
    pub(crate) fn consume(&mut self, nbits: u32) -> Result<()> {
        if self.remaining_bits() < nbits as usize {
            return Err(CodecError::UnexpectedEof);
        }
        self.pos += nbits as usize;
        Ok(())
    }

    /// Reads `nbits` bits (≤ 57), returning them LSB-aligned.
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64> {
        debug_assert!(nbits <= 57);
        let value = self.peek() & ((1u64 << nbits) - 1);
        self.consume(nbits)?;
        Ok(value)
    }

    /// Reads a single bit: the tests' bit-at-a-time reference reader.
    #[cfg(test)]
    pub(crate) fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let values = [
            (0b1u64, 1u32),
            (0b1011, 4),
            (0xFFFF, 16),
            (0, 3),
            (0x1F_FFFF_FFFF, 37),
            (1, 1),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let total: u32 = values.iter().map(|&(_, n)| n).sum();
        assert_eq!(w.bit_len(), total as usize);
        let bytes = w.into_vec();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    fn single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, false, true, true, true, false, true, true];
        for &b in &pattern {
            w.write_bits(u64::from(b), 1);
        }
        let bytes = w.into_vec();
        assert_eq!(bytes.len(), 2); // 9 bits -> 2 bytes
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn write_fields_matches_write_bits() {
        let fields: Vec<(u64, u32)> = (0..500u64)
            .map(|i| {
                let nbits = (i * 7 % 58) as u32;
                (
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << nbits) - 1),
                    nbits,
                )
            })
            .collect();
        // Three bits staged first, so the fields start mid-byte.
        let mut all = BitWriter::new();
        all.write_bits(0b101, 3);
        all.write_fields(fields.iter().copied());
        let mut want = BitWriter::new();
        want.write_bits(0b101, 3);
        for &(v, n) in &fields {
            want.write_bits(v, n);
        }
        assert_eq!(all.into_vec(), want.into_vec());
    }

    #[test]
    fn reading_past_end_errors() {
        let mut r = BitReader::new(&[0xAB]);
        r.read_bits(8).unwrap();
        assert_eq!(r.read_bits(1).unwrap_err(), CodecError::UnexpectedEof);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_vec().is_empty());
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // bit 0
        w.write_bits(0, 1); // bit 1
        w.write_bits(1, 1); // bit 2
        assert_eq!(w.into_vec(), vec![0b0000_0101]);
    }
}
