//! Fixture: `one-gzlike-decode-loop` trips on a bit reader.

pub fn inflate(bits: &mut BitReader<'_>) -> Option<u64> {
    bits.peek()
}
