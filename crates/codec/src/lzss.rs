//! LZSS: sliding-window dictionary compression (LZ77 family, §2.1.1).
//!
//! Produces a token stream of literals and `(length, distance)` matches
//! found with a hash-chain match finder over a 32 KiB window — the same
//! shape DEFLATE feeds its Huffman stage. [`crate::gzlike`] entropy-codes
//! these tokens; they have no container of their own.

use std::cell::RefCell;

/// Sliding window size (matches DEFLATE).
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Shortest match worth emitting.
pub const MIN_MATCH: usize = 4;
/// Longest emitted match.
pub const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const HASH_MASK: usize = HASH_SIZE - 1;
/// How many chain links to follow before giving up (greedy/fast profile).
const MAX_CHAIN: usize = 64;

/// One LZSS token: a literal byte or a back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single uncompressed byte.
    Literal(u8),
    /// Copy `len` bytes from `dist` bytes back in the output.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Backward distance in `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    // Multiplicative hash of the 4 bytes at i (callers keep i < hash_limit,
    // so they exist; a short tail would hash as 0).
    let v = data
        .get(i..)
        .and_then(|s| s.first_chunk::<4>())
        .map_or(0, |b| u32::from_le_bytes(*b));
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `ahead` and `behind`, at most `max`
/// (≤ `ahead.len()`, and `behind` is the longer slice). Eight bytes per
/// step: the first differing byte of two little-endian words is their
/// XOR's lowest set byte.
#[inline]
fn common_prefix(ahead: &[u8], behind: &[u8], max: usize) -> usize {
    let mut l = 0usize;
    while max - l >= 8 {
        let (Some(a), Some(b)) = (
            ahead.get(l..).and_then(|s| s.first_chunk::<8>()),
            behind.get(l..).and_then(|s| s.first_chunk::<8>()),
        ) else {
            break;
        };
        let diff = u64::from_le_bytes(*a) ^ u64::from_le_bytes(*b);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    let tail = ahead.get(l..max).unwrap_or(&[]);
    l + tail
        .iter()
        .zip(behind.get(l..).unwrap_or(&[]))
        .take_while(|(a, b)| a == b)
        .count()
}

/// The hash heads [`tokenize`] reuses on one thread, so a call does not
/// zero a table: `slot[h]` holds `base + position` of the latest position
/// with hash `h`, and a value below the current call's `base` (a slot
/// last set by an earlier call, or never) reads as empty. After a call,
/// `base` moves past every position it stored. 256 KB per thread.
struct Heads {
    slot: Box<[u64; HASH_SIZE]>,
    base: u64,
}

thread_local! {
    static HEADS: RefCell<Heads> = RefCell::new(Heads {
        slot: Box::new([0; HASH_SIZE]),
        base: 1,
    });
}

/// Chain link for "no earlier position".
const NONE: usize = usize::MAX;

/// Tokenizes `data` with a greedy hash-chain matcher.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 3 + 8);
    if data.len() < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    HEADS.with(|heads| tokenize_with(data, &mut heads.borrow_mut(), &mut tokens));
    tokens
}

fn tokenize_with(data: &[u8], heads: &mut Heads, tokens: &mut Vec<Token>) {
    let base = heads.base;
    let slot = &mut heads.slot;
    // The head of hash h's chain, as a position of this call.
    let head_of = |slot: &[u64; HASH_SIZE], h: usize| match slot[h & HASH_MASK].checked_sub(base) {
        Some(p) => p as usize,
        None => NONE,
    };
    // prev[p % WINDOW_SIZE] = the previous position in p's chain. Only
    // inserted positions are read back, so the initial contents never are.
    let mut prev = vec![0usize; data.len().min(WINDOW_SIZE)];

    let mut i = 0usize;
    let hash_limit = data.len() - MIN_MATCH + 1;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let ahead = data.get(i..).unwrap_or(&[]);
        if i < hash_limit {
            let mut cand = head_of(slot, hash4(data, i));
            let mut chains = 0usize;
            let min_pos = i.saturating_sub(WINDOW_SIZE);
            let max_len = ahead.len().min(MAX_MATCH);
            // `cand < i` also guards against stale chain entries after the
            // prev[] ring wraps, which can alias to newer positions.
            while cand != NONE && cand < i && cand >= min_pos && chains < MAX_CHAIN {
                let behind = data.get(cand..).unwrap_or(&[]);
                // Quick reject on the byte just past the current best.
                let extends = match (ahead.get(best_len), behind.get(best_len)) {
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                };
                if best_len == 0 || extends {
                    let l = common_prefix(ahead, behind, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= max_len {
                            break;
                        }
                    }
                }
                if cand == 0 {
                    break;
                }
                cand = prev[cand % WINDOW_SIZE];
                chains += 1;
            }
        }

        // Insert every position this token covers (one for a literal)
        // into the chains, so later matches can reference inside it.
        let covered = if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            best_len
        } else {
            tokens.push(Token::Literal(ahead.first().copied().unwrap_or(0)));
            1
        };
        for j in (i..hash_limit).take(covered) {
            let h = hash4(data, j);
            prev[j % WINDOW_SIZE] = head_of(slot, h);
            slot[h & HASH_MASK] = base + j as u64;
        }
        i += covered;
    }
    heads.base = base + data.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecError, Result};

    /// Expands a token stream back into bytes: the reference the tests
    /// below hold [`tokenize`] to (gzlike's decoder does the same copies).
    fn detokenize(tokens: &[Token]) -> Result<Vec<u8>> {
        let mut out: Vec<u8> = Vec::new();
        for t in tokens {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    let len = usize::from(len);
                    let dist = usize::from(dist);
                    if dist == 0 || dist > out.len() {
                        return Err(CodecError::Corrupt("lzss: distance before start"));
                    }
                    if !(MIN_MATCH..=MAX_MATCH).contains(&len) {
                        return Err(CodecError::Corrupt("lzss: bad match length"));
                    }
                    // Byte-by-byte copy: overlapping matches (dist < len)
                    // are legal and replicate runs, exactly like LZ77.
                    let start = out.len() - dist;
                    for k in start..start + len {
                        out.push(out[k]);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Tokenizes `data`, checks the tokens expand back to it, and returns
    /// them.
    fn roundtrip(data: &[u8]) -> Vec<Token> {
        let tokens = tokenize(data);
        assert_eq!(detokenize(&tokens).unwrap(), data);
        tokens
    }

    #[test]
    fn roundtrip_repetitive_text() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let tokens = roundtrip(&data);
        assert!(
            tokens.len() < data.len() / 3,
            "repetitive input must shrink"
        );
    }

    #[test]
    fn roundtrip_empty_short_and_incompressible() {
        assert!(roundtrip(&[]).is_empty());
        assert_eq!(roundtrip(b"abc").len(), 3);
        // Pseudo-random bytes: must roundtrip even though they won't shrink.
        let data: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_replicates_runs() {
        let data = vec![7u8; 10_000];
        // One literal, then ~39 max-length matches one byte back.
        let tokens = roundtrip(&data);
        assert!(tokens.len() < 45, "got {}", tokens.len());
    }

    #[test]
    fn matches_across_distances() {
        // Block A, 20KB of noise, block A again: the matcher must find the
        // far-back copy (distance < 32K window).
        let block = b"SENSOR-READING-BLOCK-0123456789".repeat(20);
        let mut data = block.clone();
        data.extend((0..20_000u32).map(|i| (i.wrapping_mul(40503) >> 7) as u8));
        data.extend_from_slice(&block);
        let far = roundtrip(&data)
            .into_iter()
            .filter(|t| matches!(t, Token::Match { dist, .. } if usize::from(*dist) > 20_000))
            .count();
        assert!(far > 0, "no match reached back past the noise");
    }

    #[test]
    fn detokenize_rejects_bad_distances() {
        let toks = [Token::Match { len: 4, dist: 1 }];
        assert!(detokenize(&toks).is_err()); // nothing in window yet
        let toks = [Token::Literal(1), Token::Match { len: 4, dist: 9 }];
        assert!(detokenize(&toks).is_err()); // distance past start
    }

    #[test]
    fn detokenize_rejects_bad_lengths() {
        let toks = [
            Token::Literal(1),
            Token::Match { len: 2, dist: 1 }, // below MIN_MATCH
        ];
        assert!(detokenize(&toks).is_err());
        let toks = [
            Token::Literal(1),
            Token::Match { len: 300, dist: 1 }, // above MAX_MATCH
        ];
        assert!(detokenize(&toks).is_err());
    }

    #[test]
    fn tokens_never_exceed_window() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for t in tokenize(&data) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                assert!(dist as usize <= WINDOW_SIZE);
                assert!(dist > 0);
            }
        }
    }
}
