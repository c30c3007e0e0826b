//! # ds-codec — columnar and general-purpose compression substrate
//!
//! This crate implements, from scratch, every compression primitive the
//! DeepSqueeze paper (SIGMOD 2020) depends on:
//!
//! * **Columnar encodings** (§2.2 of the paper): [`dict`] (dictionary
//!   encoding), [`rle`] (run-length encoding), [`delta`] (delta + zigzag),
//!   [`bitpack`] (fixed-width bit packing) and [`varint`] (LEB128).
//! * **General-purpose codecs** (§2.1): [`huffman`] (canonical Huffman
//!   coding), [`lzss`] (LZ77-family sliding-window matcher) and [`gzlike`],
//!   a DEFLATE-shaped combination of the two that stands in for gzip.
//! * **Entropy coding for the Squish baseline** (§2.3): [`rangecoder`], a
//!   64-bit range coder with adaptive frequency models.
//! * **A Parquet-like columnar container** ([`parq`]) that picks the best
//!   encoding per column and applies a final entropy stage — used both as
//!   the paper's Parquet baseline and as DeepSqueeze's failure store (§6.3).
//!
//! All codecs are pure functions over byte slices; none panic on untrusted
//! input — malformed streams surface as [`CodecError`]. Every stage has one
//! loop, in safe Rust: the crate that parses every untrusted byte is checked
//! by the compiler to hold no `unsafe`.

#![forbid(unsafe_code)]

pub mod bitpack;
pub mod bitstream;
pub mod crc32;
pub mod delta;
pub mod dict;
pub mod formodel;
pub mod gzlike;
pub mod huffman;
pub mod lzss;
pub mod parq;
pub mod quant;
pub mod rangecoder;
pub mod registry;
pub mod rle;
pub mod roaring;
pub mod varint;

/// Error type shared by every codec in this crate.
///
/// Decoding malformed or truncated input must return an error — panics on
/// untrusted bytes are treated as bugs (and property-tested against).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a complete value could be decoded.
    UnexpectedEof,
    /// A decoded value violated an invariant of the format (with detail).
    Corrupt(&'static str),
    /// A varint exceeded the maximum encodable width.
    Overflow,
    /// A caller-supplied parameter was out of the supported range.
    InvalidParameter(&'static str),
    /// A stream named a codec id this build does not know — an archive
    /// from the future (or a forged id). Typed so callers can
    /// distinguish "upgrade your decoder" from corruption.
    UnknownCodec(u16),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::Overflow => write!(f, "varint overflow"),
            CodecError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            CodecError::UnknownCodec(id) => {
                write!(f, "unknown codec id {id} (archive from a newer format?)")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Hard ceiling on decoded element counts. Decoders allocate according to
/// untrusted headers; beyond this the claim is treated as corruption
/// rather than handed to the allocator (which aborts, not errors, on
/// absurd requests). 2^28 elements is far above any table this workspace
/// produces while keeping the worst-case single allocation ~1 GiB.
pub const MAX_DECODE_ELEMS: usize = 1 << 28;

/// A cursor over an input byte slice used by all decoders.
///
/// Keeps bounds-checking in one place so individual codecs stay readable.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes as a subslice (no copy).
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Overflow)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a little-endian u16.
    pub fn read_u16(&mut self) -> Result<u16> {
        let b = self.read_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&mut self) -> Result<u32> {
        let b = self.read_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&mut self) -> Result<u64> {
        let b = self.read_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian f64.
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a little-endian f32.
    pub fn read_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// Reads a LEB128 varint (delegates to [`varint`]).
    pub fn read_varint(&mut self) -> Result<u64> {
        varint::read_u64(self)
    }

    /// Reads a varint that names a length or count and converts it to
    /// `usize`, surfacing [`CodecError::Overflow`] instead of truncating.
    /// Decoders use this rather than `read_varint()? as usize` so a
    /// 64-bit length from a hostile stream can never wrap on 32-bit
    /// targets (enforced by ds-lint's `no-raw-cast-len`).
    pub fn read_varint_usize(&mut self) -> Result<usize> {
        usize::try_from(self.read_varint()?).map_err(|_| CodecError::Overflow)
    }

    /// Reads a varint that must fit in `u32` (stream-declared small
    /// counts), surfacing [`CodecError::Overflow`] instead of truncating.
    pub fn read_varint_u32(&mut self) -> Result<u32> {
        u32::try_from(self.read_varint()?).map_err(|_| CodecError::Overflow)
    }

    /// Reads a length-prefixed byte block (varint length).
    pub fn read_len_prefixed(&mut self) -> Result<&'a [u8]> {
        let n = self.read_varint_usize()?;
        self.read_bytes(n)
    }
}

/// Output-buffer helper mirroring [`ByteReader`].
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a little-endian u16.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian f64.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a little-endian f32.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Appends a LEB128 varint.
    pub fn write_varint(&mut self, v: u64) {
        varint::write_u64(self, v);
    }

    /// Appends a varint length prefix followed by the bytes.
    pub fn write_len_prefixed(&mut self, v: &[u8]) {
        self.write_varint(v.len() as u64);
        self.write_bytes(v);
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrowed view of the accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_writer_roundtrip_fixed_width() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_u16(0xBEEF);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(u64::MAX - 3);
        w.write_f64(-0.125);
        w.write_f32(3.5);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.read_f64().unwrap(), -0.125);
        assert_eq!(r.read_f32().unwrap(), 3.5);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_eof_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.read_u32().unwrap_err(), CodecError::UnexpectedEof);
        // Cursor must not advance on failure past the end.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn len_prefixed_roundtrip_and_truncation() {
        let mut w = ByteWriter::new();
        w.write_len_prefixed(b"hello world");
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_len_prefixed().unwrap(), b"hello world");

        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(
            r.read_len_prefixed().unwrap_err(),
            CodecError::UnexpectedEof
        );
    }

    #[test]
    fn reader_position_tracking() {
        let mut r = ByteReader::new(&[0; 10]);
        assert_eq!(r.position(), 0);
        r.read_bytes(4).unwrap();
        assert_eq!(r.position(), 4);
        assert_eq!(r.remaining(), 6);
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(
            CodecError::UnexpectedEof.to_string(),
            "unexpected end of input"
        );
        assert_eq!(
            CodecError::Corrupt("bad magic").to_string(),
            "corrupt stream: bad magic"
        );
    }
}
