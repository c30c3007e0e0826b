//! Fixture: `one-huffman-decoder` trips on a per-bit read.

pub fn next_bit(bits: &mut Reader) -> Option<u32> {
    bits.read_bit()
}
