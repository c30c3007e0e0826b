//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the integrity checksum
//! used by the sharded archive container (`ds-shard`). Each row-group
//! shard carries its checksum in the container manifest so a reader can
//! reject bit-rot or torn writes per shard instead of failing deep inside
//! a codec with a confusing error.

/// Reflected CRC-32 lookup table, one entry per input byte value.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slice-by-16 table family: `TABLES[k][v]` is the CRC state contribution
/// of byte `v` followed by `k` zero bytes. `TABLES[0]` is the classic
/// byte table; each further table advances the previous one by one zero
/// byte, which is exactly what lets 16 input bytes be folded with 16
/// independent lookups per step instead of 16 serial ones.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = build_table();
    let mut k = 1;
    while k < 16 {
        let mut v = 0;
        while v < 256 {
            let p = tables[k - 1][v & 0xFF];
            tables[k][v & 0xFF] = tables[0][(p & 0xFF) as usize] ^ (p >> 8);
            v += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// One slice-by-16 table lookup (`k` is always a literal at call sites).
#[inline(always)]
fn tab(k: usize, b: u32) -> u32 {
    TABLES[k & 0xF][(b & 0xFF) as usize]
}

/// Folds `bytes` 16 at a time through the slice-by-16 tables, handling
/// any non-multiple-of-16 tail (and any input under 16 bytes) one byte at
/// a time through the byte table `TABLES[0]`. State-identical to the
/// byte-at-a-time loop for every input, so incremental and one-shot
/// checksums agree at every split.
fn update_slice16(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let x0 = c
            ^ (u32::from(block[0])
                | u32::from(block[1]) << 8
                | u32::from(block[2]) << 16
                | u32::from(block[3]) << 24);
        let x1 = u32::from(block[4])
            | u32::from(block[5]) << 8
            | u32::from(block[6]) << 16
            | u32::from(block[7]) << 24;
        let x2 = u32::from(block[8])
            | u32::from(block[9]) << 8
            | u32::from(block[10]) << 16
            | u32::from(block[11]) << 24;
        let x3 = u32::from(block[12])
            | u32::from(block[13]) << 8
            | u32::from(block[14]) << 16
            | u32::from(block[15]) << 24;
        c = tab(15, x0)
            ^ tab(14, x0 >> 8)
            ^ tab(13, x0 >> 16)
            ^ tab(12, x0 >> 24)
            ^ tab(11, x1)
            ^ tab(10, x1 >> 8)
            ^ tab(9, x1 >> 16)
            ^ tab(8, x1 >> 24)
            ^ tab(7, x2)
            ^ tab(6, x2 >> 8)
            ^ tab(5, x2 >> 16)
            ^ tab(4, x2 >> 24)
            ^ tab(3, x3)
            ^ tab(2, x3 >> 8)
            ^ tab(1, x3 >> 16)
            ^ tab(0, x3 >> 24);
    }
    for &b in blocks.remainder() {
        c = tab(0, c ^ u32::from(b)) ^ (c >> 8);
    }
    c
}

/// A resumable CRC-32 accumulator for streaming writers that checksum
/// data as it is produced.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update_slice16(self.state, bytes);
    }

    /// Finishes and returns the checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut acc = Crc32::new();
        for chunk in data.chunks(137) {
            acc.update(chunk);
        }
        assert_eq!(acc.finish(), crc32(&data));
    }

    /// The byte-at-a-time loop over a freshly built byte table.
    fn update_reference(state: u32, bytes: &[u8]) -> u32 {
        let table = build_table();
        bytes.iter().fold(state, |c, &b| {
            table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    fn crc32_reference(bytes: &[u8]) -> u32 {
        update_reference(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// The slice-by-16 loop must equal the byte-at-a-time reference for
    /// every length around the 16-byte block boundary, and an accumulator
    /// split anywhere in the input must land on the same checksum.
    #[test]
    fn slice16_matches_reference_all_alignments() {
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for take in 0..data.len() {
            let slice = &data[..take];
            let want = crc32_reference(slice);
            assert_eq!(crc32(slice), want, "length {take}");
            for split in 0..=take {
                let (a, b) = slice.split_at(split);
                let mut acc = Crc32::new();
                acc.update(a);
                acc.update(b);
                assert_eq!(acc.finish(), want, "length {take}, split {split}");
            }
        }
    }

    /// Canonical vectors at lengths ≥ 16, so whole blocks run.
    #[test]
    fn slice16_known_vectors() {
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    /// Incremental updates that split mid-block must agree with the
    /// one-shot reference.
    #[test]
    fn slice16_incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4_099).collect();
        let expected = crc32_reference(&data);
        for split in [1usize, 15, 16, 17, 100, 4_098] {
            let mut acc = Crc32::new();
            let (a, b) = data.split_at(split);
            acc.update(a);
            acc.update(b);
            assert_eq!(acc.finish(), expected, "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 512];
        let base = crc32(&data);
        for i in (0..512).step_by(61) {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at {i} undetected");
            data[i] ^= 1;
        }
    }
}
