//! Pins the bytes the codecs write: the CRC-32 of `gzlike::compress`,
//! `lzss::tokenize`'s tokens and a Huffman `CodeBook`'s lengths and codes
//! (each framed as a raw container below), `bitpack::encode`, parq's
//! adaptive range coder (`ARITH`), the roaring bit stream and
//! `parq::write_table` on fixed, seeded inputs.
//!
//! Every archive stores these streams, so a rewrite of the bit writer,
//! the Huffman encoder, the LZSS match finder, the range coder or parq's
//! codec selection must leave each CRC below unchanged. A failure here
//! means archive bytes moved.

use ds_codec::bitstream::BitWriter;
use ds_codec::crc32::crc32;
use ds_codec::huffman::CodeBook;
use ds_codec::lzss::{self, Token};
use ds_codec::parq::{self, ParqColumn};
use ds_codec::roaring::RoaringBitmap;
use ds_codec::{bitpack, gzlike, ByteWriter};

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

/// Frames `lzss::tokenize`'s tokens as a raw container: varint input
/// length, varint token count, then per token a tag byte (0 literal, 1
/// match) and its byte or its varint length and distance.
fn lzss_container(data: &[u8], tokens: &[Token]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_varint(data.len() as u64);
    w.write_varint(tokens.len() as u64);
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                w.write_u8(0);
                w.write_u8(b);
            }
            Token::Match { len, dist } => {
                w.write_u8(1);
                w.write_varint(u64::from(len));
                w.write_varint(u64::from(dist));
            }
        }
    }
    w.into_vec()
}

/// Expands `tokens` back into bytes, copying matches byte by byte.
fn lzss_expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - usize::from(dist);
                for k in start..start + usize::from(len) {
                    out.push(out[k]);
                }
            }
        }
    }
    out
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
            let tokens = lzss::tokenize(&data);
            assert_eq!(lzss_expand(&tokens), data, "{name}");
            (name, crc32(&lzss_container(&data, &tokens)))
        })
        .collect();
    assert!(got == want, "lzss: {got:#010x?}");
}

/// Symbol counts over an alphabet of `N` symbols.
fn frequencies<const N: usize>(symbols: &[u16]) -> [u64; N] {
    let mut freqs = [0u64; N];
    for &s in symbols {
        freqs[usize::from(s)] += 1;
    }
    freqs
}

/// A static canonical Huffman container: varint symbol count, the code
/// book's serialized lengths, then the len-prefixed bit payload.
fn huffman_container(symbols: &[u16], book: &CodeBook) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_varint(symbols.len() as u64);
    book.write_to(&mut w);
    let mut bits = BitWriter::new();
    for &s in symbols {
        book.encode_symbol(&mut bits, s).unwrap();
    }
    w.write_len_prefixed(&bits.into_vec());
    w.into_vec()
}

#[test]
fn huffman_bytes_are_pinned() {
    // (input, CRC of the container, CRC of the code lengths alone).
    let want = [
        ("empty", 0xe950_ae5cu32, 0x0d96_8558u32),
        ("one", 0x7c26_9d0e, 0x69aa_e8d0),
        ("three", 0x4f73_b126, 0xc6f9_0a84),
        ("text100", 0x968e_6bba, 0xfc58_4121),
        ("all256", 0xc266_26d1, 0xc6a2_e560),
        ("weights", 0xa7f2_3203, 0x6f58_9bb2),
    ];
    let got: Vec<(&str, u32, u32)> = byte_inputs()
        .into_iter()
        .map(|(name, data)| {
            let symbols: Vec<u16> = data.iter().map(|&b| u16::from(b)).collect();
            let book = CodeBook::from_frequencies(&frequencies::<256>(&symbols));
            let enc = huffman_container(&symbols, &book);
            (name, crc32(&enc), crc32(book.lengths()))
        })
        .collect();
    assert!(got == want, "huffman: {got:#010x?}");
}

#[test]
fn huffman_wide_alphabet_is_pinned() {
    let symbols = wide_symbols();
    let book = CodeBook::from_frequencies(&frequencies::<4096>(&symbols));
    let enc = huffman_container(&symbols, &book);
    assert_eq!(crc32(&enc), 0xfc45_f35f, "{:#010x}", crc32(&enc));
    let lengths = crc32(book.lengths());
    assert_eq!(lengths, 0xa05e_a854, "{lengths:#010x}");
    // The skew must reach past a 12-bit decode table.
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
    got.push(crc32(&bitpack::encode::<u64>(&[])));
    assert!(got == want, "bitpack: {got:#010x?}");
}

/// A stream of `len` symbols below `alphabet`: geometric ranks of a seeded
/// permutation, so a few symbols dominate and the rest appear rarely.
fn skewed_symbols(alphabet: u32, len: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng(seed);
    let mut perm: Vec<u32> = (0..alphabet).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut out: Vec<u32> = (0..len)
        .map(|_| {
            let r = rng.next();
            let rank = if r.is_multiple_of(5) {
                (r >> 32) % u64::from(alphabet)
            } else {
                u64::from((r >> 8).trailing_zeros()) % u64::from(alphabet)
            };
            perm[rank as usize]
        })
        .collect();
    // The largest symbol, once: the alphabet is exactly `alphabet` wide.
    if let Some(last) = out.last_mut() {
        *last = alphabet - 1;
    }
    out
}

/// The `ARITH` entry of the u32 codec table: parq's adaptive range coder.
fn arith() -> &'static ds_codec::registry::U32Codec {
    ds_codec::registry::u32_codecs()
        .iter()
        .find(|c| c.id == ds_codec::registry::ARITH)
        .expect("ARITH is in the u32 table")
}

#[test]
fn arith_bytes_are_pinned() {
    // (alphabet, symbols): the 300,000-symbol stream passes the first
    // rescale (total 2^22 at increment 32 comes after ~131k symbols) twice.
    // 64 is the widest alphabet coded without a Fenwick tree and 65 the
    // narrowest with one; their pins were computed before the flat layout
    // existed.
    let cases: [(u32, usize); 7] = [
        (1, 200),
        (2, 5_000),
        (8, 300_000),
        (64, 150_000),
        (65, 20_000),
        (300, 20_000),
        (4096, 40_000),
    ];
    let want = [
        0xdf06_2f67u32,
        0xf4de_185e,
        0x9f4f_d09a,
        0x529f_8293,
        0xf706_54e3,
        0x0115_90a7,
        0x297e_9870,
    ];
    let got: Vec<u32> = cases
        .iter()
        .map(|&(alphabet, len)| {
            let values = skewed_symbols(alphabet, len, 0x5EED_A417 ^ u64::from(alphabet));
            assert_eq!(values.iter().max(), Some(&(alphabet - 1)));
            let enc = (arith().encode)(&values).expect("arith takes the stream");
            assert_eq!(
                (arith().decode)(&enc).unwrap(),
                values,
                "alphabet {alphabet}"
            );
            crc32(&enc)
        })
        .collect();
    assert!(got == want, "arith: {got:#010x?}");
}

/// One-column parq tables, one per layout the writer can choose.
fn parq_tables() -> Vec<(&'static str, ParqColumn)> {
    let mut rng = Rng(0x5EED_9A49);
    let n = 6_000usize;
    let mut walk = 0i64;
    let mut level = 20.0f64;
    vec![
        (
            "u32_arith",
            ParqColumn::U32(skewed_symbols(11, n, 0x5EED_0011)),
        ),
        (
            "u32_bitpack",
            ParqColumn::U32((0..n).map(|_| (rng.next() >> 44) as u32).collect()),
        ),
        (
            "u32_rle",
            ParqColumn::U32((0..n).map(|i| (i / 700) as u32 * 3).collect()),
        ),
        (
            "u32_delta",
            ParqColumn::U32((0..n as u32).map(|i| 1_000_000 + i * 37).collect()),
        ),
        (
            "i64_zigzag",
            ParqColumn::I64(
                skewed_symbols(9, n, 0x5EED_1064)
                    .into_iter()
                    .map(|s| i64::from(s) - 4)
                    .collect(),
            ),
        ),
        (
            "i64_delta",
            ParqColumn::I64(
                (0..n)
                    .map(|_| {
                        walk += ((rng.next() % 1_000) as i64 + 1) << 33;
                        walk
                    })
                    .collect(),
            ),
        ),
        (
            "f64_xor",
            ParqColumn::F64(
                (0..n)
                    .map(|_| {
                        level += (rng.next() % 2001) as f64 / 1000.0 - 1.0;
                        level
                    })
                    .collect(),
            ),
        ),
        (
            "f64_dict",
            ParqColumn::F64(
                skewed_symbols(40, n, 0x5EED_F64D)
                    .into_iter()
                    .map(|s| f64::from(s) * 0.25 - 3.0)
                    .collect(),
            ),
        ),
        (
            "str",
            ParqColumn::Str(
                skewed_symbols(60, n, 0x5EED_0057)
                    .into_iter()
                    .map(|s| format!("city-{s}"))
                    .collect(),
            ),
        ),
    ]
}

#[test]
fn parq_tables_are_pinned() {
    // Each table's CRC, and the byte after its type tag: the u32 codec's
    // wire byte (arith 4, bitpack 2, rle 0, delta 1), the I64 mode
    // (2 = zigzag into a u32 codec, 1 = delta + gzlike), the F64 mode
    // (1 = xor + gzlike, 3 = dictionary + gzlike) or the Str entropy flag.
    let want: [(&str, u32, u8); 9] = [
        ("u32_arith", 0x77dc_1916, 4),
        ("u32_bitpack", 0x29e4_b18e, 2),
        ("u32_rle", 0xcee0_cf2d, 0),
        ("u32_delta", 0x75a0_1c29, 1),
        ("i64_zigzag", 0x25cd_16fe, 2),
        ("i64_delta", 0x558e_9ded, 1),
        ("f64_xor", 0x1bcd_6b0f, 1),
        ("f64_dict", 0x577b_3be4, 3),
        ("str", 0x9169_109d, 1),
    ];
    let got: Vec<(&str, u32, u8)> = parq_tables()
        .into_iter()
        .map(|(name, col)| {
            let table = vec![("c".to_owned(), col)];
            let (bytes, _) = parq::write_table(&table).unwrap();
            assert_eq!(parq::read_table(&bytes).unwrap(), table, "{name}");
            // Magic, the column count, a two-byte row count, the name
            // "c" len-prefixed and the type tag come first.
            (name, crc32(&bytes), bytes[10])
        })
        .collect();
    assert!(got == want, "parq: {got:#010x?}");
}

/// 0/1 streams for the roaring bit-stream layout: no chunk, one array
/// chunk per 2^16 positions, the 4,096-element array/bitmap switch from
/// both sides, and bitmap chunks throughout.
fn bit_streams() -> Vec<(&'static str, Vec<u32>)> {
    let mut rng = Rng(0x5EED_B175);
    let chunk = 1usize << 16;
    let exactly = |ones: usize| {
        let mut bits = vec![0u32; 2 * chunk + 5];
        // `ones` set positions spread over the second chunk.
        for k in 0..ones {
            bits[chunk + k * (chunk / ones)] = 1;
        }
        bits
    };
    vec![
        ("empty", Vec::new()),
        ("zeros", vec![0; 70_000]),
        (
            "sparse",
            (0..3 * chunk + 123)
                .map(|_| u32::from(rng.next().is_multiple_of(997)))
                .collect(),
        ),
        ("array4096", exactly(4096)),
        ("bitmap4097", exactly(4097)),
        ("ones", vec![1; 2 * chunk + 77]),
    ]
}

#[test]
fn roaring_bytes_are_pinned() {
    let want = [
        ("empty", 0xe65a_e853u32),
        ("zeros", 0x7766_ef53),
        ("sparse", 0x6b04_7884),
        ("array4096", 0xfc3d_7956),
        ("bitmap4097", 0xe068_ad91),
        ("ones", 0x18b4_e86c),
    ];
    let got: Vec<(&str, u32)> = bit_streams()
        .into_iter()
        .map(|(name, bits)| {
            let enc = RoaringBitmap::encode_bit_stream(&bits);
            assert_eq!(
                RoaringBitmap::decode_bit_stream(&enc).unwrap(),
                bits,
                "{name}"
            );
            // 4,096 positions fit an array (a varint each, < 8 KiB); one
            // more makes the chunk an 8 KiB bitmap.
            match name {
                "array4096" => assert!(enc.len() < 8192, "{name}: {}", enc.len()),
                "bitmap4097" => assert!(enc.len() > 8192, "{name}: {}", enc.len()),
                _ => {}
            }
            (name, crc32(&enc))
        })
        .collect();
    assert!(got == want, "roaring: {got:#010x?}");
}
