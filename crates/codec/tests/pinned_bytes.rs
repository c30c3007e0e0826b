//! Pins the bytes the bit-level codecs write: the CRC-32 of
//! `gzlike::compress`, `lzss::compress`, `huffman::encode_bytes` /
//! `encode_symbols` and `bitpack::encode` on fixed, seeded inputs.
//!
//! Every archive stores these streams, so a rewrite of the bit writer,
//! the Huffman encoder or the LZSS match finder must leave each CRC
//! below unchanged. A failure here means archive bytes moved.

use ds_codec::crc32::crc32;
use ds_codec::{bitpack, gzlike, huffman, lzss};

/// xorshift64*: a fixed stream for every input below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Short text-like bytes: a handful of words, so LZSS finds matches.
fn text(len: usize, seed: u64) -> Vec<u8> {
    const WORDS: [&[u8]; 8] = [
        b"age,",
        b"42,",
        b"Private,",
        b"Bachelors,",
        b"13,",
        b"Never-married,",
        b"\n",
        b"0.5,",
    ];
    let mut rng = Rng(seed);
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        out.extend_from_slice(WORDS[(rng.next() % 8) as usize]);
    }
    out.truncate(len);
    out
}

/// Every byte value once, in a seeded order, then a skewed repeat of them.
fn all_bytes() -> Vec<u8> {
    let mut rng = Rng(0x5EED_0256);
    let mut perm: Vec<u8> = (0..=255u8).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut out = perm.clone();
    for _ in 0..3000 {
        // Geometric-ish: low ranks of the permutation dominate.
        let r = (rng.next() % 256) as usize;
        out.push(perm[(r * r) / 256]);
    }
    out
}

/// A 4,096-symbol alphabet with a steep skew: a geometric head, a
/// uniform band over the first 256 symbols, and every symbol once, so
/// the code book holds lengths from 1 bit up to the 15-bit limit.
fn wide_symbols() -> Vec<u16> {
    let mut rng = Rng(0x5EED_4096);
    let mut out: Vec<u16> = (0..4096u16).collect();
    for _ in 0..120_000 {
        let r = rng.next();
        let s = if r.is_multiple_of(6) {
            (r >> 20) % 256
        } else {
            u64::from((r >> 8).trailing_zeros())
        };
        out.push(s as u16);
    }
    out
}

/// ≥ 600 KB of little-endian f32 weights with the low 16 mantissa bits
/// masked, the shape of an exported decoder blob before gzlike.
fn masked_weights() -> Vec<u8> {
    let mut rng = Rng(0x5EED_F32F);
    let mut out = Vec::with_capacity(160_000 * 4);
    for i in 0..160_000u32 {
        // A sum of uniforms: roughly normal around 0, scale 0.1.
        let mut acc = 0.0f32;
        for _ in 0..4 {
            acc += (rng.next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        }
        let mut w = acc * 0.2;
        if i % 17 == 0 {
            w = 0.0; // pruned weights repeat
        }
        let bits = w.to_bits() & 0xFFFF_0000;
        out.extend_from_slice(&bits.to_le_bytes());
    }
    out
}

fn byte_inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("empty", Vec::new()),
        ("one", vec![0xA7]),
        ("three", vec![b'x', b'y', b'x']),
        ("text100", text(100, 0x5EED_0100)),
        ("all256", all_bytes()),
        ("weights", masked_weights()),
    ]
}

#[test]
fn weight_buffer_passes_the_window() {
    assert!(masked_weights().len() >= 600_000);
    assert!(masked_weights().len() > 16 * lzss::WINDOW_SIZE);
    assert!(byte_inputs()[2].1.len() < lzss::MIN_MATCH);
}

#[test]
fn gzlike_bytes_are_pinned() {
    let want = [
        ("empty", 0x244e_e629u32),
        ("one", 0x73b6_d052),
        ("three", 0x0b40_3a67),
        ("text100", 0xfd9d_f62b),
        ("all256", 0x0917_f1b5),
        ("weights", 0x586d_a83c),
    ];
    let got: Vec<(&str, u32)> = byte_inputs()
        .into_iter()
        .map(|(name, data)| {
            let enc = gzlike::compress(&data);
            assert_eq!(gzlike::decompress(&enc).unwrap(), data, "{name}");
            (name, crc32(&enc))
        })
        .collect();
    assert!(got == want, "gzlike: {got:#010x?}");
}

#[test]
fn lzss_bytes_are_pinned() {
    let want = [
        ("empty", 0x41d9_12ffu32),
        ("one", 0xd088_e405),
        ("three", 0x1619_c3c8),
        ("text100", 0x8e6e_16da),
        ("all256", 0x1502_9086),
        ("weights", 0x99e3_9f65),
    ];
    let got: Vec<(&str, u32)> = byte_inputs()
        .into_iter()
        .map(|(name, data)| {
            let enc = lzss::compress(&data);
            assert_eq!(lzss::decompress(&enc).unwrap(), data, "{name}");
            (name, crc32(&enc))
        })
        .collect();
    assert!(got == want, "lzss: {got:#010x?}");
}

#[test]
fn huffman_bytes_are_pinned() {
    let want = [
        ("empty", 0xe950_ae5cu32),
        ("one", 0x7c26_9d0e),
        ("three", 0x4f73_b126),
        ("text100", 0x968e_6bba),
        ("all256", 0xc266_26d1),
        ("weights", 0xa7f2_3203),
    ];
    let got: Vec<(&str, u32)> = byte_inputs()
        .into_iter()
        .map(|(name, data)| {
            let enc = huffman::encode_bytes(&data);
            assert_eq!(huffman::decode_bytes(&enc).unwrap(), data, "{name}");
            (name, crc32(&enc))
        })
        .collect();
    assert!(got == want, "huffman: {got:#010x?}");
}

#[test]
fn huffman_wide_alphabet_is_pinned() {
    let symbols = wide_symbols();
    let enc = huffman::encode_symbols(&symbols, 4096).unwrap();
    assert_eq!(huffman::decode_symbols(&enc).unwrap(), symbols);
    assert_eq!(crc32(&enc), 0xfc45_f35f, "{:#010x}", crc32(&enc));
    // The skew must reach past a 12-bit decode table.
    let freqs = symbols.iter().fold(vec![0u64; 4096], |mut f, &s| {
        f[s as usize] += 1;
        f
    });
    let book = huffman::CodeBook::from_frequencies(&freqs).unwrap();
    assert_eq!(book.lengths().iter().copied().max(), Some(15));
}

#[test]
fn bitpack_bytes_are_pinned() {
    let mut rng = Rng(0x5EED_B17B);
    let cases: Vec<(u32, Vec<u64>)> = [1u32, 3, 7, 8, 13, 32, 57]
        .iter()
        .map(|&w| {
            let n = 1 + (rng.next() % 999) as usize;
            let mask = (1u64 << w) - 1;
            (w, (0..n).map(|_| rng.next() & mask).collect())
        })
        .collect();
    // Widths in `cases` order, then the empty stream.
    let want = [
        0xf482_5195u32,
        0x2253_0628,
        0x17f4_3ee3,
        0xc49b_506c,
        0xc000_18b9,
        0x7078_e64f,
        0x8544_f028,
        0x36de_2269,
    ];
    let mut got: Vec<u32> = cases
        .iter()
        .map(|(w, values)| {
            let enc = bitpack::encode_with_width(values, *w);
            assert_eq!(bitpack::decode(&enc).unwrap(), *values, "width {w}");
            crc32(&enc)
        })
        .collect();
    got.push(crc32(&bitpack::encode(&[])));
    assert!(got == want, "bitpack: {got:#010x?}");
}
