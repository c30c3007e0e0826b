//! `gzlike` — the repository's general-purpose codec, standing in for gzip.
//!
//! DEFLATE (the algorithm inside gzip) is LZ77-family matching followed by
//! Huffman coding (§2.1.1 of the paper). `gzlike` mirrors that structure
//! using [`crate::lzss`] for matching and two canonical Huffman trees — one
//! over a merged literal/length alphabet, one over distance buckets — plus
//! extra raw bits for within-bucket offsets, exactly like DEFLATE's layout.
//! The format is ours (not RFC 1951), but its compression behaviour is the
//! comparison the paper's gzip baseline needs.
//!
//! It is also the "final gzip step" applied to exported decoder weights in
//! §6.1 and the per-column entropy stage of [`crate::parq`].

use crate::{
    bitstream::{peek_at, BitWriter},
    huffman::CodeBook,
    lzss::{self, Token, MAX_MATCH, MIN_MATCH},
    ByteReader, ByteWriter, CodecError, Result,
};

/// Literal/length alphabet: 256 literals + 1 end-of-block + 24 length buckets.
const LITLEN_SYMBOLS: usize = 256 + 1 + LEN_BUCKETS.len();
const END_OF_BLOCK: u16 = 256;
const LEN_BASE: u16 = 257;

/// (base, extra_bits) per length bucket, covering MIN_MATCH..=MAX_MATCH.
const LEN_BUCKETS: [(u16, u8); 24] = [
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 2),
    (21, 2),
    (25, 2),
    (29, 2),
    (33, 3),
    (41, 3),
    (49, 3),
    (57, 3),
    (65, 4),
    (81, 4),
    (97, 5),
    (129, 5),
    (161, 6),
    (225, 6),
];

/// (base, extra_bits) per distance bucket, covering 1..=32768.
const DIST_BUCKETS: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Finds the bucket containing `v` in a (base, extra) table.
fn bucket_of(table: &[(u16, u8)], v: u16) -> usize {
    // Tables are tiny; linear scan from the end is branch-predictable.
    for (i, &(base, _)) in table.iter().enumerate().rev() {
        if v >= base {
            return i;
        }
    }
    0
}

/// Compresses `data`. Layout: varint raw length, litlen code book,
/// distance code book, bit payload terminated by the end-of-block symbol.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = lzss::tokenize(data);

    // Gather frequencies for both trees.
    let mut lit_freq = [0u64; LITLEN_SYMBOLS];
    let mut dist_freq = [0u64; DIST_BUCKETS.len()];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[usize::from(b)] += 1,
            Token::Match { len, dist } => {
                lit_freq[LEN_BASE as usize + bucket_of(&LEN_BUCKETS, len)] += 1;
                dist_freq[bucket_of(&DIST_BUCKETS, dist)] += 1;
            }
        }
    }
    lit_freq[usize::from(END_OF_BLOCK)] += 1;

    let lit_book = CodeBook::from_frequencies(&lit_freq);
    let dist_book = CodeBook::from_frequencies(&dist_freq);

    let mut w = ByteWriter::with_capacity(data.len() / 2 + 64);
    w.write_varint(data.len() as u64);
    lit_book.write_to(&mut w);
    dist_book.write_to(&mut w);

    // One field per token: a literal's code, or a match's length code,
    // length extra bits, distance code and distance extra bits, ≤ 49 bits
    // in all. Every symbol written was counted above, so each has a code.
    let fields = tokens.iter().map(|t| match *t {
        Token::Literal(b) => lit_book.code(u16::from(b)),
        Token::Match { len, dist } => {
            let lb = bucket_of(&LEN_BUCKETS, len);
            let (lbase, lextra) = LEN_BUCKETS[lb];
            let (mut field, mut nbits) = lit_book.code(LEN_BASE + lb as u16);
            field |= u64::from(len - lbase) << nbits;
            nbits += u32::from(lextra);

            let db = bucket_of(&DIST_BUCKETS, dist);
            let (dbase, dextra) = DIST_BUCKETS[db];
            let (code, n) = dist_book.code(db as u16);
            field |= (code | u64::from(dist - dbase) << n) << nbits;
            (field, nbits + n + u32::from(dextra))
        }
    });
    let mut bits = BitWriter::new();
    bits.write_fields(fields.chain([lit_book.code(END_OF_BLOCK)]));
    w.write_len_prefixed(&bits.into_vec());
    w.into_vec()
}

/// Decompresses a stream produced by [`compress`].
///
/// One loop, one bit load per token: a literal/length code (≤ 15 bits),
/// its extra bits (≤ 6), a distance code (≤ 15) and its extra bits (≤ 13)
/// span at most 49 bits, inside the ≥ 57 one [`peek_at`] returns. Each
/// step still checks its span against the bits the payload really has,
/// so a stream cut anywhere fails where a bit-at-a-time reader would.
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut r = ByteReader::new(bytes);
    let raw_len = r.read_varint_usize()?;
    let lit_book = CodeBook::read_from(&mut r)?;
    let dist_book = CodeBook::read_from(&mut r)?;
    let payload = r.read_len_prefixed()?;
    let payload_bits = payload.len().checked_mul(8).ok_or(CodecError::Overflow)?;

    // Cap the up-front allocation: `raw_len` is untrusted, and asking the
    // allocator for an absurd capacity aborts the process rather than
    // returning an error. Growth beyond the cap is amortized push; the
    // overrun check below still bounds total output by raw_len.
    let mut out: Vec<u8> = Vec::with_capacity(raw_len.min(1 << 20));
    // Bit cursor into `payload`, and the stream bits from it on.
    let mut pos = 0usize;
    loop {
        let mut word = peek_at(payload, pos);
        // Consumes the low `n` bits of `word`, or fails as an EOF when
        // the payload does not hold them.
        let mut take = |n: u32, word: &mut u64| -> Result<usize> {
            if payload_bits - pos < n as usize {
                return Err(CodecError::UnexpectedEof);
            }
            pos += n as usize;
            let bits = (*word & ((1u64 << n) - 1)) as usize;
            *word >>= n;
            Ok(bits)
        };

        let (n, sym) = lit_book.resolve(word);
        take(n, &mut word)?;
        let sym = sym?;
        if sym == END_OF_BLOCK {
            break;
        }
        if let Ok(byte) = u8::try_from(sym) {
            out.push(byte);
            continue;
        }
        let Some(&(lbase, lextra)) = LEN_BUCKETS.get(usize::from(sym - LEN_BASE)) else {
            return Err(CodecError::Corrupt("gzlike: bad length symbol"));
        };
        let len = usize::from(lbase) + take(u32::from(lextra), &mut word)?;

        let (n, db) = dist_book.resolve(word);
        take(n, &mut word)?;
        let Some(&(dbase, dextra)) = DIST_BUCKETS.get(usize::from(db?)) else {
            return Err(CodecError::Corrupt("gzlike: bad distance symbol"));
        };
        let dist = usize::from(dbase) + take(u32::from(dextra), &mut word)?;

        if !(MIN_MATCH..=MAX_MATCH).contains(&len) {
            return Err(CodecError::Corrupt("gzlike: match length out of range"));
        }
        if dist == 0 || dist > out.len() {
            return Err(CodecError::Corrupt("gzlike: distance before start"));
        }
        let new_len = out.len().checked_add(len).ok_or(CodecError::Overflow)?;
        if new_len > raw_len {
            return Err(CodecError::Corrupt("gzlike: output overruns raw length"));
        }
        let start = out.len() - dist;
        if dist >= len {
            // Source and destination do not overlap: one bulk copy of
            // `start..start + len`, which ends at or before `out.len()`.
            out.extend_from_within(start..new_len - dist);
        } else {
            // An overlapping reference replicates the bytes it is still
            // writing, so it is copied byte by byte.
            for k in start..new_len - dist {
                let b = *out
                    .get(k)
                    .ok_or(CodecError::Corrupt("gzlike: copy out of window"))?;
                out.push(b);
            }
        }
    }
    if out.len() != raw_len {
        return Err(CodecError::Corrupt("gzlike: length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitReader;

    /// The decoder `decompress` replaced: one `decode_symbol` and one
    /// `read_bits` per field over a [`BitReader`], and a byte-by-byte copy
    /// for every back-reference. `one_loop_decoder_matches_reference`
    /// holds the one loop to its results and its errors.
    fn decompress_reference(bytes: &[u8]) -> Result<Vec<u8>> {
        let mut r = ByteReader::new(bytes);
        let raw_len = r.read_varint_usize()?;
        let lit_book = CodeBook::read_from(&mut r)?;
        let dist_book = CodeBook::read_from(&mut r)?;
        let payload = r.read_len_prefixed()?;
        let mut bits = BitReader::new(payload);
        let mut out: Vec<u8> = Vec::with_capacity(raw_len.min(1 << 20));
        loop {
            let sym = lit_book.decode_symbol(&mut bits)?;
            if sym == END_OF_BLOCK {
                break;
            }
            if sym < 256 {
                out.push(sym as u8);
                continue;
            }
            let lb = (sym - LEN_BASE) as usize;
            if lb >= LEN_BUCKETS.len() {
                return Err(CodecError::Corrupt("gzlike: bad length symbol"));
            }
            let (lbase, lextra) = LEN_BUCKETS[lb];
            let len = lbase as usize + bits.read_bits(u32::from(lextra))? as usize;
            let db = dist_book.decode_symbol(&mut bits)? as usize;
            if db >= DIST_BUCKETS.len() {
                return Err(CodecError::Corrupt("gzlike: bad distance symbol"));
            }
            let (dbase, dextra) = DIST_BUCKETS[db];
            let dist = dbase as usize + bits.read_bits(u32::from(dextra))? as usize;
            if !(MIN_MATCH..=MAX_MATCH).contains(&len) {
                return Err(CodecError::Corrupt("gzlike: match length out of range"));
            }
            if dist == 0 || dist > out.len() {
                return Err(CodecError::Corrupt("gzlike: distance before start"));
            }
            let new_len = out.len().checked_add(len).ok_or(CodecError::Overflow)?;
            if new_len > raw_len {
                return Err(CodecError::Corrupt("gzlike: output overruns raw length"));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = *out
                    .get(start + k)
                    .ok_or(CodecError::Corrupt("gzlike: copy out of window"))?;
                out.push(b);
            }
        }
        if out.len() != raw_len {
            return Err(CodecError::Corrupt("gzlike: length mismatch"));
        }
        Ok(out)
    }

    #[test]
    fn one_loop_decoder_matches_reference() {
        let mut seed = 0x6A11_u32;
        let mut next = move || {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            seed >> 8
        };
        let noise: Vec<u8> = (0..3000).map(|_| next() as u8).collect();
        let runs: Vec<u8> = (0..40u8)
            .flat_map(|i| vec![i % 3; 1 + usize::from(i) * 7])
            .collect();
        let text = b"age,workclass,education,42,Private,Bachelors\n".repeat(40);
        let mut mixed = noise[..700].to_vec();
        mixed.extend_from_slice(&text);
        mixed.extend_from_slice(&noise[..700]);
        for data in [
            &b""[..],
            b"a",
            b"abcabcabcabc",
            &noise,
            &runs,
            &text,
            &mixed,
        ] {
            let enc = compress(data);
            assert_eq!(decompress(&enc), decompress_reference(&enc));
            assert_eq!(decompress(&enc).unwrap(), data);
            for cut in 0..enc.len() {
                assert_eq!(
                    decompress(&enc[..cut]),
                    decompress_reference(&enc[..cut]),
                    "cut at {cut} of {}",
                    enc.len()
                );
            }
            for _ in 0..400 {
                let mut bad = enc.clone();
                for _ in 0..=next() % 3 {
                    let bit = next() as usize % (bad.len() * 8);
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
                assert_eq!(decompress(&bad), decompress_reference(&bad), "{bad:02x?}");
            }
        }
    }

    fn roundtrip(data: &[u8]) {
        let enc = compress(data);
        assert_eq!(decompress(&enc).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip(&[]);
        roundtrip(b"a");
        roundtrip(b"abcabcabcabc");
        roundtrip(&b"semantic compression of tabular data ".repeat(500));
    }

    #[test]
    fn roundtrip_binary_patterns() {
        let data: Vec<u8> = (0..60_000u32).map(|i| ((i * i) >> 5) as u8).collect();
        roundtrip(&data);
        let runs: Vec<u8> = (0..100).flat_map(|i| vec![i as u8; 300]).collect();
        roundtrip(&runs);
    }

    #[test]
    fn compresses_text_better_than_half() {
        let data = b"tuple,value,sensor,reading,42.0,ok\n".repeat(2000);
        let enc = compress(&data);
        assert!(
            enc.len() < data.len() / 5,
            "repetitive CSV should compress >5x, got {} / {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn all_length_and_distance_buckets_roundtrip() {
        // Construct data that produces matches at many lengths/distances.
        let mut data = Vec::new();
        let mut seed = 12345u32;
        for rep in 1..60usize {
            let mut chunk: Vec<u8> = Vec::new();
            for _ in 0..rep * 7 {
                seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                chunk.push((seed >> 24) as u8);
            }
            data.extend_from_slice(&chunk);
            // Filler of varying size to vary the match distance.
            data.extend(std::iter::repeat_n(0xAB, rep * 31));
            data.extend_from_slice(&chunk); // the far copy
        }
        roundtrip(&data);
    }

    #[test]
    fn truncated_and_flipped_inputs_error_not_panic() {
        let enc = compress(&b"hello world, hello world, hello world".repeat(10));
        for cut in [0, 1, enc.len() / 3, enc.len() - 1] {
            let _ = decompress(&enc[..cut]);
        }
        for i in (0..enc.len()).step_by(7) {
            let mut bad = enc.clone();
            bad[i] ^= 0x01;
            let _ = decompress(&bad); // any result, just no panic
        }
    }

    #[test]
    fn output_cannot_exceed_declared_length() {
        // A corrupt stream claiming a short raw length must be rejected
        // rather than allocating unboundedly.
        let data = vec![9u8; 4096];
        let enc = compress(&data);
        let mut r = ByteReader::new(&enc);
        let _ = r.read_varint().unwrap();
        let body_start = r.position();
        // Rebuild with a lying raw length of 3.
        let mut w = ByteWriter::new();
        w.write_varint(3);
        w.write_bytes(&enc[body_start..]);
        assert!(decompress(w.as_slice()).is_err());
    }

    #[test]
    fn bucket_of_covers_ranges() {
        assert_eq!(bucket_of(&LEN_BUCKETS, 4), 0);
        assert_eq!(bucket_of(&LEN_BUCKETS, 258), LEN_BUCKETS.len() - 1);
        assert_eq!(bucket_of(&DIST_BUCKETS, 1), 0);
        assert_eq!(bucket_of(&DIST_BUCKETS, 32768), DIST_BUCKETS.len() - 1);
        // Every legal length maps to a bucket whose base <= v.
        for v in MIN_MATCH as u16..=MAX_MATCH as u16 {
            let b = bucket_of(&LEN_BUCKETS, v);
            let (base, extra) = LEN_BUCKETS[b];
            assert!(base <= v && u32::from(v - base) < (1 << extra.max(1)) || v == base);
        }
    }
}
