//! Canonical Huffman code books over small fixed alphabets.
//!
//! The entropy stage of [`crate::gzlike`], mirroring DEFLATE's
//! literal/length and distance trees; there is no standalone Huffman
//! container. Code lengths are limited to [`MAX_CODE_LEN`] bits and the
//! table serializes as 4-bit lengths, so the header cost is `alphabet/2`
//! bytes.

use std::collections::VecDeque;

use crate::{
    bitstream::{BitReader, BitWriter},
    ByteReader, ByteWriter, CodecError, Result,
};

/// Longest permitted code, as in DEFLATE.
pub const MAX_CODE_LEN: u32 = 15;

/// Maximum alphabet size supported by the 12-bit symbol paths.
pub const MAX_SYMBOLS: usize = 4096;

/// Code lengths a [`CodeBook`]'s decode table resolves in one lookup.
/// Longer codes (rare by construction: each is used at most once per
/// 2^11 symbols) take the canonical walk.
const TABLE_BITS: u32 = 11;
const TABLE_SIZE: usize = 1 << TABLE_BITS;
const TABLE_MASK: usize = TABLE_SIZE - 1;

/// A canonical Huffman code book: per-symbol (code, length) for encoding
/// plus the canonical tables needed for decoding.
#[derive(Debug, Clone)]
pub struct CodeBook {
    lengths: Vec<u8>,
    /// Encoding table: each symbol's code bit-reversed into stream order,
    /// so one LSB-first `write_bits` emits it MSB first (0 where unused).
    codes: Vec<u32>,
    /// `count[len]`: number of symbols with a code of that length.
    count: [u32; (MAX_CODE_LEN + 2) as usize],
    /// `first_code[len]`: canonical first code of each length.
    first_code: [u32; (MAX_CODE_LEN + 2) as usize],
    /// `first_index[len]`: index into `sorted_symbols` of the first symbol
    /// with that code length.
    first_index: [u32; (MAX_CODE_LEN + 2) as usize],
    /// Symbols sorted by (length, symbol), i.e., canonical order.
    sorted_symbols: Vec<u16>,
    /// Read side only ([`CodeBook::from_lengths`]): the one-lookup table
    /// for codes of up to [`TABLE_BITS`] bits.
    table: Option<Box<DecodeTable>>,
}

/// Maps the next `mask.count_ones()` stream bits to the code they start
/// with: `len << 12 | symbol`, or 0 when that code is longer than the
/// table (or no code starts with those bits) and the walk decides.
#[derive(Debug, Clone)]
struct DecodeTable {
    /// `2^bits - 1` for `bits = min(longest code, TABLE_BITS)`: a book
    /// of short codes fills only the front of `entries`.
    mask: usize,
    entries: [u16; TABLE_SIZE],
}

impl CodeBook {
    /// Builds a length-limited canonical code book from the symbol
    /// frequencies of a fixed alphabet of at most [`MAX_SYMBOLS`] symbols.
    ///
    /// Symbols with zero frequency get no code. An alphabet where at most
    /// one symbol occurs still produces a 1-bit code so the encoder always
    /// has something to emit. This is the write side: the book has no
    /// decode table.
    pub fn from_frequencies<const N: usize>(freqs: &[u64; N]) -> Self {
        const { assert!(N <= MAX_SYMBOLS, "huffman: alphabet too large") };
        Self::canonical(build_lengths(freqs))
    }

    /// Reconstructs a code book from its serialized code lengths, with its
    /// decode table.
    pub fn from_lengths(lengths: Vec<u8>) -> Result<Self> {
        if lengths.len() > MAX_SYMBOLS {
            return Err(CodecError::Corrupt("huffman: alphabet too large"));
        }
        if lengths.iter().any(|&l| u32::from(l) > MAX_CODE_LEN) {
            return Err(CodecError::Corrupt("huffman: code length too long"));
        }
        let mut book = Self::canonical(lengths);
        // Kraft inequality: an over-full code is undecodable.
        let kraft: u64 = (0..=MAX_CODE_LEN)
            .zip(&book.count)
            .skip(1)
            .map(|(len, &n)| u64::from(n) << (MAX_CODE_LEN - len))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CodecError::Corrupt("huffman: over-subscribed code"));
        }
        book.table = Some(book.decode_table());
        Ok(book)
    }

    /// Assigns the canonical codes of `lengths`: at most [`MAX_SYMBOLS`]
    /// of them, each at most [`MAX_CODE_LEN`].
    fn canonical(lengths: Vec<u8>) -> Self {
        let mut count = [0u32; (MAX_CODE_LEN + 2) as usize];
        for &l in lengths.iter().filter(|&&l| l > 0) {
            count[usize::from(l)] += 1;
        }

        // First codes and first indexes per length. Counts sum to at most
        // MAX_SYMBOLS, so codes stay below 2^28 (the add never saturates),
        // even for lengths that break Kraft, which `from_lengths` rejects.
        let mut first_code = [0u32; (MAX_CODE_LEN + 2) as usize];
        let mut first_index = [0u32; (MAX_CODE_LEN + 2) as usize];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=(MAX_CODE_LEN + 1) as usize {
            code = code.saturating_add(count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        let mut sorted: Vec<u16> = (0u16..)
            .zip(&lengths)
            .filter(|&(_, &l)| l > 0)
            .map(|(s, _)| s)
            .collect();
        sorted.sort_by_key(|&s| (lengths.get(usize::from(s)), s));

        // Per-symbol codes for the encoder, bit-reversed into stream order.
        let mut next_code = first_code;
        let mut codes = vec![0u32; lengths.len()];
        for &s in &sorted {
            let (Some(&l), Some(c)) = (lengths.get(usize::from(s)), codes.get_mut(usize::from(s)))
            else {
                continue;
            };
            let l = usize::from(l);
            *c = next_code[l].reverse_bits() >> (32 - l);
            next_code[l] += 1;
        }

        CodeBook {
            lengths,
            codes,
            count,
            first_code,
            first_index,
            sorted_symbols: sorted,
            table: None,
        }
    }

    /// Fills the decode table: each code of `len ≤ bits` owns every
    /// index whose low `len` bits are its stream-order bits.
    fn decode_table(&self) -> Box<DecodeTable> {
        let longest = self.lengths.iter().copied().max().unwrap_or(0);
        let bits = u32::from(longest).min(TABLE_BITS);
        let mut table = Box::new(DecodeTable {
            mask: (1 << bits) - 1,
            entries: [0; TABLE_SIZE],
        });
        for ((symbol, &len), &code) in (0u16..).zip(&self.lengths).zip(&self.codes) {
            let len = u32::from(len);
            if len == 0 || len > bits {
                continue;
            }
            let entry = (len << 12) as u16 | symbol;
            let mut i = code as usize;
            while i <= table.mask {
                table.entries[i & TABLE_MASK] = entry;
                i += 1 << len;
            }
        }
        table
    }

    /// Code lengths (serialize these to reconstruct the book).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// `symbol`'s code in stream order and its length in bits, or `(0, 0)`
    /// for a symbol the book has no code for.
    #[inline]
    pub(crate) fn code(&self, symbol: u16) -> (u64, u32) {
        match (
            self.codes.get(usize::from(symbol)),
            self.lengths.get(usize::from(symbol)),
        ) {
            (Some(&code), Some(&len)) => (u64::from(code), u32::from(len)),
            _ => (0, 0),
        }
    }

    /// Emits `symbol` into `bits` (MSB of the code first).
    pub fn encode_symbol(&self, bits: &mut BitWriter, symbol: u16) -> Result<()> {
        match self.code(symbol) {
            (_, 0) => Err(CodecError::InvalidParameter("huffman: symbol has no code")),
            (code, len) => {
                bits.write_bits(code, len);
                Ok(())
            }
        }
    }

    /// Decodes one symbol from `bits`.
    #[cfg(test)]
    pub(crate) fn decode_symbol(&self, bits: &mut BitReader<'_>) -> Result<u16> {
        let (n, symbol) = self.resolve(bits.peek());
        bits.consume(n)?;
        symbol
    }

    /// Resolves the code at the bottom of `word` — the next stream bits,
    /// LSB-first, zero-padded past the end — to the number of bits it
    /// spans and its symbol, or the error those bits prove. The caller
    /// checks the span against the bits it really has: a span past the
    /// end is [`CodecError::UnexpectedEof`], whatever the padding decoded
    /// to, exactly as a bit-at-a-time reader would have stopped there.
    #[inline]
    pub(crate) fn resolve(&self, word: u64) -> (u32, Result<u16>) {
        if let Some(table) = &self.table {
            let entry = table.entries[(word as usize) & table.mask & TABLE_MASK];
            if entry != 0 {
                return (u32::from(entry >> 12), Ok(entry & 0x0FFF));
            }
        }
        self.walk(word)
    }

    /// The canonical walk: extends the code MSB-first one stream bit at a
    /// time until it falls inside some length's range.
    fn walk(&self, word: u64) -> (u32, Result<u16>) {
        let mut code = 0u32;
        let per_len = self
            .count
            .iter()
            .zip(&self.first_code)
            .zip(&self.first_index);
        for (len, ((&count, &first), &index)) in (0u32..)
            .zip(per_len)
            .take(MAX_CODE_LEN as usize + 1)
            .skip(1)
        {
            code = (code << 1) | ((word >> (len - 1)) & 1) as u32;
            if count == 0 {
                continue;
            }
            if code < first {
                return (len, Err(CodecError::Corrupt("huffman: invalid code")));
            }
            if code - first < count {
                let symbol = self
                    .sorted_symbols
                    .get((index + (code - first)) as usize)
                    .copied()
                    .ok_or(CodecError::Corrupt("huffman: invalid code"));
                return (len, symbol);
            }
        }
        (
            MAX_CODE_LEN,
            Err(CodecError::Corrupt("huffman: code exceeds max length")),
        )
    }

    /// Serializes the code-length table (4 bits per symbol).
    pub fn write_to(&self, w: &mut ByteWriter) {
        w.write_varint(self.lengths.len() as u64);
        let mut bits = BitWriter::new();
        for &l in &self.lengths {
            bits.write_bits(u64::from(l), 4);
        }
        w.write_len_prefixed(&bits.into_vec());
    }

    /// Reads a table written by [`CodeBook::write_to`].
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.read_varint_usize()?;
        if n > MAX_SYMBOLS {
            return Err(CodecError::Corrupt("huffman: alphabet too large"));
        }
        let payload = r.read_len_prefixed()?;
        let mut bits = BitReader::new(payload);
        let mut lengths = Vec::with_capacity(n);
        for _ in 0..n {
            lengths.push(bits.read_bits(4)? as u8);
        }
        Self::from_lengths(lengths)
    }
}

/// Builds Huffman code lengths from frequencies, limited to
/// [`MAX_CODE_LEN`] bits.
///
/// The tree merges the two lightest nodes until one is left. Leaves are
/// sorted once by `(frequency, symbol)`, and internal nodes are made in
/// order of weight, so the lightest node is always at the front of one of
/// two queues: the leaves, or the internal nodes in the order they were
/// made. On equal weight the leaf goes first, then the earlier node.
/// Depths are then assigned from the root down over the merge record.
fn build_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut leaves: Vec<(u64, usize)> = freqs
        .iter()
        .copied()
        .zip(0..)
        .filter(|&(f, _)| f > 0)
        .collect();
    leaves.sort_unstable();
    let n = leaves.len();

    // Node ids: leaf `i` of `leaves` is `i`, the `k`-th merge is `n + k`.
    let mut queued = leaves.iter().map(|&(f, _)| f).zip(0..).peekable();
    let mut made: VecDeque<(u64, usize)> = VecDeque::new();
    let mut merges: Vec<[usize; 2]> = Vec::with_capacity(n.saturating_sub(1));
    let mut lightest = |made: &mut VecDeque<(u64, usize)>| match (queued.peek(), made.front()) {
        (Some(&(leaf, _)), Some(&(node, _))) if node < leaf => made.pop_front(),
        (Some(_), _) => queued.next(),
        (None, _) => made.pop_front(),
    };
    while let (Some(a), Some(b)) = (lightest(&mut made), lightest(&mut made)) {
        made.push_back((a.0.saturating_add(b.0), n + merges.len()));
        merges.push([a.1, b.1]);
    }
    let mut depths = vec![0u32; n + merges.len()];
    for (node, children) in merges.iter().enumerate().rev() {
        let depth = depths.get(n + node).map_or(0, |d| d + 1);
        for &child in children {
            if let Some(d) = depths.get_mut(child) {
                *d = depth;
            }
        }
    }

    // Clamp the leaves to 1..=MAX_CODE_LEN, then restore the Kraft sum
    // (in units of 2^-MAX_CODE_LEN) by deepening the least frequent
    // symbols first: `leaves` is already in that order.
    let limit = MAX_CODE_LEN;
    depths.truncate(n);
    for d in &mut depths {
        *d = (*d).clamp(1, limit);
    }
    let mut kraft: u64 = depths.iter().map(|&d| 1u64 << (limit - d)).sum();
    while kraft > 1 << limit {
        let mut deepened = false;
        for d in depths.iter_mut().filter(|d| **d < limit) {
            *d += 1;
            kraft -= 1 << (limit - *d);
            deepened = true;
            if kraft <= 1 << limit {
                break;
            }
        }
        if !deepened {
            break; // cannot happen for n <= 2^limit, defensive
        }
    }

    let mut lengths = vec![0u8; freqs.len()];
    for (&(_, symbol), &d) in leaves.iter().zip(&depths) {
        if let Some(l) = lengths.get_mut(symbol) {
            *l = d as u8;
        }
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time canonical walk the decode table replaced, kept
    /// as the reference `table_decoder_matches_reference_walk` checks the
    /// table decoder against: one `read_bit` per code bit, EOF at the
    /// first bit the stream does not have.
    fn decode_symbol_reference(book: &CodeBook, bits: &mut BitReader<'_>) -> Result<u16> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | u32::from(bits.read_bit()?);
            let count_at_len = if len < MAX_CODE_LEN as usize {
                book.first_index[len + 1] - book.first_index[len]
            } else {
                book.sorted_symbols.len() as u32 - book.first_index[len]
            };
            if count_at_len > 0 {
                let first = book.first_code[len];
                if code < first + count_at_len {
                    if code < first {
                        return Err(CodecError::Corrupt("huffman: invalid code"));
                    }
                    let idx = book.first_index[len] + (code - first);
                    return book
                        .sorted_symbols
                        .get(idx as usize)
                        .copied()
                        .ok_or(CodecError::Corrupt("huffman: invalid code"));
                }
            }
        }
        Err(CodecError::Corrupt("huffman: code exceeds max length"))
    }

    /// The heap-based builder `build_lengths` replaced: a binary heap of
    /// `(weight, id)` nodes (leaves in symbol order, then internal nodes
    /// in the order they are made), leaf depths by walking parent links,
    /// then the same clamp and deepening pass.
    fn build_lengths_reference(freqs: &[u64]) -> Vec<u8> {
        let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        let mut lengths = vec![0u8; freqs.len()];
        match used.len() {
            0 => return lengths,
            1 => {
                lengths[used[0]] = 1;
                return lengths;
            }
            _ => {}
        }

        // Standard heap-based Huffman tree over the used symbols.
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            id: usize,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap via reversed comparison; tie-break on id for
                // determinism across platforms.
                other
                    .weight
                    .cmp(&self.weight)
                    .then_with(|| other.id.cmp(&self.id))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = used.len();
        // parent[i] for tree nodes; leaves are 0..n, internals n..2n-1.
        let mut parent = vec![usize::MAX; 2 * n - 1];
        let mut heap = std::collections::BinaryHeap::with_capacity(n);
        for (leaf, &sym) in used.iter().enumerate() {
            heap.push(Node {
                weight: freqs[sym],
                id: leaf,
            });
        }
        let mut next_internal = n;
        while heap.len() > 1 {
            let a = heap.pop().expect("heap len checked");
            let b = heap.pop().expect("heap len checked");
            parent[a.id] = next_internal;
            parent[b.id] = next_internal;
            heap.push(Node {
                weight: a.weight.saturating_add(b.weight),
                id: next_internal,
            });
            next_internal += 1;
        }

        // Depth of each leaf = chain length to the root.
        let mut depths = vec![0u32; n];
        for (leaf, depth) in depths.iter_mut().enumerate() {
            let mut d = 0;
            let mut cur = leaf;
            while parent[cur] != usize::MAX {
                cur = parent[cur];
                d += 1;
            }
            *depth = d.max(1);
        }

        // Length-limit to MAX_CODE_LEN: clamp, then restore the Kraft sum by
        // deepening the least-frequent symbols (cheapest in expected bits).
        let limit = MAX_CODE_LEN;
        let one = 1u64 << limit; // Kraft unit: lengths weighted as 2^(limit-len)
        let mut kraft: u64 = 0;
        for d in depths.iter_mut() {
            if *d > limit {
                *d = limit;
            }
            kraft += 1u64 << (limit - *d);
        }
        if kraft > one {
            // Order leaves by ascending frequency so we lengthen cheap symbols.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&l| freqs[used[l]]);
            'outer: loop {
                for &l in &order {
                    if depths[l] < limit {
                        kraft -= 1u64 << (limit - depths[l]);
                        depths[l] += 1;
                        kraft += 1u64 << (limit - depths[l]);
                        if kraft <= one {
                            break 'outer;
                        }
                    }
                }
                if order.iter().all(|&l| depths[l] >= limit) {
                    break; // cannot happen for n <= 2^limit, defensive
                }
            }
        }

        for (leaf, &sym) in used.iter().enumerate() {
            lengths[sym] = depths[leaf] as u8;
        }
        lengths
    }

    #[test]
    fn build_lengths_matches_the_heap_builder() {
        let mut rng = Rng(0xB01D_1E57);
        for case in 0..1500u32 {
            let n = 1 + match case % 3 {
                0 => rng.below(16),
                1 => rng.below(300),
                _ => rng.below(MAX_SYMBOLS as u64),
            } as usize;
            let shape = rng.below(4);
            let freqs: Vec<u64> = (0..n)
                .map(|_| match shape {
                    // Equal weights: every tie-break matters.
                    0 => rng.below(3),
                    1 => rng.below(1000),
                    // Exponential: deep trees past the 15-bit limit.
                    2 => (1u64 << rng.below(40)) * u64::from(rng.below(4) != 0),
                    _ => rng.next() >> rng.below(64),
                })
                .collect();
            assert_eq!(
                build_lengths(&freqs),
                build_lengths_reference(&freqs),
                "case {case}: {freqs:?}"
            );
        }
    }

    /// xorshift64*, for the seeded books and streams below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Decodes `payload` to exhaustion (at most `limit` symbols) with
    /// both decoders and asserts the same symbols, the same cursor after
    /// each, and the same error where they stop.
    fn assert_decoders_agree(book: &CodeBook, payload: &[u8], limit: usize) {
        let mut fast = BitReader::new(payload);
        let mut slow = BitReader::new(payload);
        for k in 0..limit {
            let a = book.decode_symbol(&mut fast);
            let b = decode_symbol_reference(book, &mut slow);
            assert_eq!(
                a,
                b,
                "symbol {k} of {payload:02x?}, lengths {:?}",
                book.lengths()
            );
            if a.is_err() {
                return;
            }
            assert_eq!(fast.remaining_bits(), slow.remaining_bits(), "symbol {k}");
        }
    }

    /// Code-length tables of every shape the decoder must handle: books
    /// built from skewed frequencies (complete codes up to 15 bits),
    /// random lengths under Kraft (incomplete codes, whose free patterns
    /// are invalid), single-symbol books, and books whose codes are all
    /// longer than the table.
    fn random_books(rng: &mut Rng) -> Vec<CodeBook> {
        let mut books = Vec::new();
        for _ in 0..60 {
            // An alphabet of `n` symbols: the trailing zeros get no code.
            let n = 1 + rng.below(300) as usize;
            let mut freqs = [0u64; 300];
            for f in &mut freqs[..n] {
                *f = match rng.below(4) {
                    0 => 0,
                    1 => 1,
                    2 => 1 + rng.below(50),
                    _ => 1u64 << rng.below(30),
                };
            }
            let lengths = CodeBook::from_frequencies(&freqs).lengths()[..n].to_vec();
            books.push(CodeBook::from_lengths(lengths).unwrap());
        }
        while books.len() < 120 {
            let n = 1 + rng.below(64) as usize;
            let lo = rng.below(15) as u8;
            let lengths: Vec<u8> = (0..n)
                .map(|_| {
                    if rng.below(3) == 0 {
                        0
                    } else {
                        lo + 1 + rng.below(u64::from(15 - lo)) as u8
                    }
                })
                .collect();
            if let Ok(book) = CodeBook::from_lengths(lengths) {
                books.push(book);
            }
        }
        for len in 1..=15u8 {
            let mut lengths = vec![0u8; 1 + rng.below(20) as usize];
            let at = rng.below(lengths.len() as u64) as usize;
            lengths[at] = len;
            books.push(CodeBook::from_lengths(lengths).unwrap());
        }
        books.push(CodeBook::from_lengths(vec![0; 5]).unwrap());
        books.push(CodeBook::from_lengths(Vec::new()).unwrap());
        // Only codes past the table: 2^12 symbols of 12 bits, and 15-bit
        // codes beside one short one.
        books.push(CodeBook::from_lengths(vec![12; MAX_SYMBOLS]).unwrap());
        let mut deep = vec![15u8; 1000];
        deep[7] = 1;
        books.push(CodeBook::from_lengths(deep).unwrap());
        books
    }

    /// A payload of valid codes for `book` (random bytes when it has no
    /// symbol), then a few random trailing bytes.
    fn valid_stream(book: &CodeBook, rng: &mut Rng) -> Vec<u8> {
        let symbols: Vec<u16> = (0u16..)
            .zip(book.lengths())
            .filter(|&(_, &l)| l > 0)
            .map(|(s, _)| s)
            .collect();
        let mut bits = BitWriter::new();
        if !symbols.is_empty() {
            for _ in 0..rng.below(200) {
                let s = symbols[rng.below(symbols.len() as u64) as usize];
                book.encode_symbol(&mut bits, s).unwrap();
            }
        }
        let mut out = bits.into_vec();
        for _ in 0..rng.below(4) {
            out.push(rng.next() as u8);
        }
        out
    }

    #[test]
    fn table_decoder_matches_reference_walk() {
        let mut rng = Rng(0x7AB1_E5EED);
        for book in random_books(&mut rng) {
            // Random bits: arbitrary, often invalid, codes.
            for _ in 0..8 {
                let noise: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
                assert_decoders_agree(&book, &noise, usize::MAX);
            }
            let stream = valid_stream(&book, &mut rng);
            assert_decoders_agree(&book, &stream, usize::MAX);
            // Cut at every bit: every byte prefix, with the bits past the
            // cut in its last byte cleared (the zero padding a shorter
            // stream would leave).
            for cut in 0..=stream.len().min(48) * 8 {
                let mut prefix = stream[..cut.div_ceil(8)].to_vec();
                if cut % 8 != 0 {
                    if let Some(last) = prefix.last_mut() {
                        *last &= (1u8 << (cut % 8)) - 1;
                    }
                }
                assert_decoders_agree(&book, &prefix, usize::MAX);
            }
            // Seeded bit flips.
            for _ in 0..16 {
                if stream.is_empty() {
                    break;
                }
                let mut bad = stream.clone();
                let bit = rng.below(bad.len() as u64 * 8) as usize;
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_decoders_agree(&book, &bad, usize::MAX);
            }
        }
    }

    #[test]
    fn decode_table_covers_exactly_the_short_codes() {
        let mut rng = Rng(0xC0DE_B00C);
        for book in random_books(&mut rng) {
            let Some(table) = &book.table else {
                panic!("a book read from lengths has a decode table");
            };
            let longest = book.lengths().iter().copied().max().unwrap_or(0);
            let bits = u32::from(longest).min(TABLE_BITS);
            assert_eq!(table.mask, (1usize << bits) - 1);
            for (i, &entry) in table.entries.iter().enumerate() {
                if i > table.mask {
                    assert_eq!(entry, 0);
                    continue;
                }
                // Entry i is the code the reference walk reads from the
                // index bits, when that code fits the table.
                let word = (i as u64).to_le_bytes();
                let mut r = BitReader::new(&word);
                let want = decode_symbol_reference(&book, &mut r);
                let used = 64 - r.remaining_bits() as u32;
                match want {
                    Ok(s) if used <= bits => {
                        assert_eq!(entry, (used << 12) as u16 | s, "index {i}")
                    }
                    _ => assert_eq!(entry, 0, "index {i}"),
                }
            }
        }
    }

    #[test]
    fn encoder_books_decode_by_the_walk() {
        let book = CodeBook::from_frequencies(&[5, 3, 0, 1, 1]);
        assert!(book.table.is_none(), "the write side builds no table");
        let mut rng = Rng(0x00E4_C0DE);
        let stream = valid_stream(&book, &mut rng);
        assert_decoders_agree(&book, &stream, usize::MAX);
    }

    /// Codes `symbols` under a book built from their counts over an
    /// `N`-symbol alphabet, as the serialized book then the bit payload,
    /// and checks that [`decode`] reads them back.
    fn roundtrip<const N: usize>(symbols: &[u16]) -> Vec<u8> {
        let mut freqs = [0u64; N];
        for &s in symbols {
            freqs[usize::from(s)] += 1;
        }
        let book = CodeBook::from_frequencies(&freqs);
        let mut w = ByteWriter::new();
        book.write_to(&mut w);
        let mut bits = BitWriter::new();
        for &s in symbols {
            book.encode_symbol(&mut bits, s).unwrap();
        }
        w.write_len_prefixed(&bits.into_vec());
        let enc = w.into_vec();
        assert_eq!(decode(&enc, symbols.len()).unwrap(), symbols);
        enc
    }

    /// Reads a book written by [`CodeBook::write_to`], then `n` symbols.
    fn decode(enc: &[u8], n: usize) -> Result<Vec<u16>> {
        let mut r = ByteReader::new(enc);
        let book = CodeBook::read_from(&mut r)?;
        let mut bits = BitReader::new(r.read_len_prefixed()?);
        (0..n).map(|_| book.decode_symbol(&mut bits)).collect()
    }

    fn bytes(data: &[u8]) -> Vec<u16> {
        data.iter().map(|&b| u16::from(b)).collect()
    }

    #[test]
    fn roundtrip_skewed_bytes() {
        let mut data = vec![b'a'; 10_000];
        data.extend(vec![b'b'; 1000]);
        data.extend(vec![b'c'; 100]);
        data.extend(b"defghij".repeat(10));
        let enc = roundtrip::<256>(&bytes(&data));
        // Highly skewed input must compress well below 8 bits/symbol.
        assert!(
            enc.len() < data.len() / 4,
            "enc {} raw {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn roundtrip_empty_and_single_symbol() {
        roundtrip::<256>(&[]);
        roundtrip::<256>(&[42; 500]);
    }

    #[test]
    fn roundtrip_all_256_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip::<256>(&bytes(&data));
    }

    #[test]
    fn roundtrip_large_alphabet_symbols() {
        let symbols: Vec<u16> = (0..2000u16).chain(0..2000).chain(500..600).collect();
        roundtrip::<2048>(&symbols);
    }

    #[test]
    fn length_limiting_kicks_in_for_exponential_frequencies() {
        // Fibonacci-ish frequencies force deep Huffman trees.
        let mut freqs = [0u64; 64];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let book = CodeBook::from_frequencies(&freqs);
        assert!(book.lengths().iter().all(|&l| u32::from(l) <= MAX_CODE_LEN));
        // The resulting code must still be decodable.
        let symbols: Vec<u16> = (0..64u16).collect();
        let mut bits = BitWriter::new();
        for &s in &symbols {
            book.encode_symbol(&mut bits, s).unwrap();
        }
        let payload = bits.into_vec();
        let mut r = BitReader::new(&payload);
        for &s in &symbols {
            assert_eq!(book.decode_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three symbols of length 1 violate Kraft.
        assert!(CodeBook::from_lengths(vec![1, 1, 1]).is_err());
    }

    #[test]
    fn encoding_unseen_symbol_is_an_error() {
        let book = CodeBook::from_frequencies(&[10, 0, 5]);
        let mut bits = BitWriter::new();
        assert!(book.encode_symbol(&mut bits, 1).is_err());
        assert!(book.encode_symbol(&mut bits, 9).is_err());
    }

    #[test]
    fn corrupt_stream_errors_not_panics() {
        let symbols = bytes(b"some reasonably long test input for huffman");
        let enc = roundtrip::<256>(&symbols);
        for cut in [1, enc.len() / 2, enc.len() - 1] {
            let _ = decode(&enc[..cut], symbols.len()); // must not panic
        }
        let mut flipped = enc.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        let _ = decode(&flipped, symbols.len()); // may error or mis-decode, not panic
    }

    #[test]
    fn codebook_serialization_roundtrip() {
        let freqs: [u64; 40] = std::array::from_fn(|i| (i as u64 + 1).pow(2));
        let book = CodeBook::from_frequencies(&freqs);
        let mut w = ByteWriter::new();
        book.write_to(&mut w);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        let restored = CodeBook::read_from(&mut r).unwrap();
        assert_eq!(restored.lengths(), book.lengths());
    }

    #[test]
    fn two_symbol_alphabet_uses_one_bit_each() {
        let book = CodeBook::from_frequencies(&[100, 1]);
        assert_eq!(book.lengths(), &[1, 1]);
    }
}
