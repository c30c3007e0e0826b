//! Arithmetic coding via a byte-oriented range coder, plus adaptive
//! frequency models: a bare frequency array for alphabets of at most 64
//! symbols, the same array beside a Fenwick tree for wider ones.
//!
//! Two users share the coder. The Squish baseline (§2.3 of the
//! DeepSqueeze paper) walks a Bayesian network and codes each attribute
//! under a [`StaticModel`] one symbol at a time through [`RangeEncoder`] /
//! [`RangeDecoder`]. parq's `ARITH` u32 codec and DeepSqueeze's expert
//! labels code a whole stream under one [`AdaptiveModel`] with its
//! [`AdaptiveModel::encode_all`] / [`AdaptiveModel::decode_all`] loops,
//! which keep the coder state in locals from the first symbol to the last.
//! Both layouts adapt alike, so the bytes do not depend on the layout: a
//! small alphabet finds each decoded symbol by a scan from symbol 0, which
//! the skewed failure and code streams end within a few steps, where a
//! wide one lifts through the tree.
//! The coder is the classic carry-propagating design (as in LZMA): 32-bit
//! range, 64-bit low accumulator, renormalizing a byte at a time.

use crate::{ByteReader, CodecError, Result};

/// Renormalization threshold: flush a byte when `range` drops below this.
const TOP: u32 = 1 << 24;

/// Total frequency must stay below this so `range / total` never hits zero.
pub const MAX_TOTAL: u32 = 1 << 22;

/// Encodes symbols given `(cumulative, frequency, total)` triples.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    /// Number of 0xFF bytes whose value depends on a future carry.
    pending: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// Creates a fresh encoder.
    pub fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            pending: 0,
            out: Vec::new(),
        }
    }

    /// Narrows the interval to `[cum, cum+freq)` out of `total`.
    ///
    /// Requires `freq > 0`, `cum + freq <= total`, `total <= MAX_TOTAL`.
    pub fn encode(&mut self, cum: u32, freq: u32, total: u32) {
        debug_assert!(freq > 0 && cum.checked_add(freq).is_some_and(|e| e <= total));
        debug_assert!(total <= MAX_TOTAL);
        let r = self.range / total;
        self.low += u64::from(cum) * u64::from(r);
        self.range = r * freq;
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    fn shift_low(&mut self) {
        shift_low(
            &mut self.low,
            &mut self.cache,
            &mut self.pending,
            &mut self.out,
        );
    }

    /// Flushes the remaining state and returns the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Emits the top byte of `low` (LZMA's carry scheme): a byte that a later
/// carry can still change is held back as `cache` plus `pending` 0xFF
/// bytes, and written once the carry is known.
#[inline(always)]
fn shift_low(low: &mut u64, cache: &mut u8, pending: &mut u64, out: &mut Vec<u8>) {
    if (*low as u32) < 0xFF00_0000 || (*low >> 32) != 0 {
        let carry = (*low >> 32) as u8; // 0 or 1
                                        // The very first pushed byte is the initial cache (0); the decoder
                                        // skips it, keeping both sides byte-aligned (as in LZMA).
        out.push(cache.wrapping_add(carry));
        for _ in 0..*pending {
            out.push(0xFFu8.wrapping_add(carry));
        }
        *pending = 0;
        *cache = (*low >> 24) as u8;
    } else {
        *pending += 1;
    }
    *low = (*low << 8) & 0xFFFF_FFFF;
}

/// Decodes a stream produced by [`RangeEncoder`].
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    /// `range / total` from the most recent [`RangeDecoder::decode_freq`].
    last_r: u32,
    input: ByteReader<'a>,
}

impl<'a> RangeDecoder<'a> {
    /// Initializes the decoder (consumes the 5-byte priming sequence).
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let mut input = ByteReader::new(bytes);
        // First byte is the encoder's initial cache (always 0); skip it.
        let _ = input.read_u8()?;
        let mut code = 0u32;
        for _ in 0..4 {
            code = (code << 8) | u32::from(input.read_u8()?);
        }
        Ok(RangeDecoder {
            code,
            range: u32::MAX,
            last_r: 0,
            input,
        })
    }

    /// Returns a cumulative-frequency value in `[0, total)` identifying the
    /// encoded symbol. Must be followed by [`RangeDecoder::update`].
    pub fn decode_freq(&mut self, total: u32) -> Result<u32> {
        if total == 0 || total > MAX_TOTAL {
            return Err(CodecError::InvalidParameter("rangecoder: bad total"));
        }
        self.last_r = self.range / total;
        Ok((self.code / self.last_r).min(total - 1))
    }

    /// Consumes the symbol whose interval is `[cum, cum+freq)`.
    pub fn update(&mut self, cum: u32, freq: u32) -> Result<()> {
        if freq == 0 {
            return Err(CodecError::Corrupt("rangecoder: zero frequency"));
        }
        self.code = self
            .code
            .checked_sub(cum * self.last_r)
            .ok_or(CodecError::Corrupt("rangecoder: cum exceeds code"))?;
        self.range = self.last_r * freq;
        while self.range < TOP {
            // The encoder's finish() wrote 5 flush bytes, so a well-formed
            // stream never underruns. Reading on as zeros would let a
            // forged symbol count expand a few bytes into gigabytes.
            let byte = self.input.read_u8()?;
            self.code = (self.code << 8) | u32::from(byte);
            self.range <<= 8;
        }
        Ok(())
    }
}

/// Alphabets of at most this many symbols keep no Fenwick tree: a linear
/// scan from symbol 0 finds a decoded symbol, and an update touches one
/// frequency. Measured, not guessed (DESIGN §3 `rangecoder`): on a
/// uniform stream, the worst case for a scan, decoding costs 1.09–1.16x
/// the lift at 64 symbols and 1.21–1.25x at 72; on the skewed failure and
/// code streams of the benchmark archives the scan wins at every alphabet
/// they hold. A forged stream costs at most this many steps per symbol.
const FLAT_MAX_ALPHABET: usize = 64;

/// Frequency added to a symbol each time it is coded.
const INCREMENT: u32 = 32;

/// Adaptive frequency model over a fixed alphabet, in one of two layouts
/// chosen by the alphabet size:
///
/// - *flat* (at most [`FLAT_MAX_ALPHABET`] symbols): the frequency array
///   and its total only; a symbol's cumulative count is the sum of the
///   frequencies below it;
/// - *tree* (wider alphabets): the same array beside a Fenwick tree, so a
///   cumulative count is one O(log n) walk.
///
/// Both adapt identically, so a stream's bytes do not depend on the
/// layout. [`AdaptiveModel::encode_all`] and [`AdaptiveModel::decode_all`]
/// code a whole stream in one loop that keeps the coder state in locals;
/// they write and read exactly the bytes of a [`RangeEncoder`] /
/// [`RangeDecoder`] driven one symbol at a time.
#[derive(Debug, Clone)]
pub struct AdaptiveModel {
    /// Fenwick tree over `freq` (1-indexed: `tree[0]` is unused, and
    /// `tree[i]` sums `freq[i - lowbit(i) .. i]`); empty in the flat
    /// layout.
    tree: Vec<u32>,
    /// Per-symbol frequencies; `freq.len()` is the alphabet size.
    freq: Vec<u32>,
    total: u32,
    increment: u32,
}

impl AdaptiveModel {
    /// Creates a model with every symbol at frequency 1 (Laplace prior).
    pub fn new(alphabet: usize) -> Result<Self> {
        Self::build(alphabet, INCREMENT)
    }

    fn build(alphabet: usize, increment: u32) -> Result<Self> {
        let symbols = u32::try_from(alphabet)
            .ok()
            .filter(|&a| a != 0 && u64::from(a) * 2 <= u64::from(MAX_TOTAL))
            .ok_or(CodecError::InvalidParameter(
                "rangecoder: alphabet size unsupported",
            ))?;
        let tree = if alphabet <= FLAT_MAX_ALPHABET {
            Vec::new()
        } else {
            // All ones: node i covers lowbit(i) symbols of frequency 1.
            (0..=symbols).map(|i| i & i.wrapping_neg()).collect()
        };
        Ok(AdaptiveModel {
            tree,
            freq: vec![1; alphabet],
            total: symbols,
            increment,
        })
    }

    /// Cumulative frequency of the symbols below `symbol` (`symbol <=
    /// len()`): a sum over the array, or a walk down the tree.
    #[inline(always)]
    fn prefix<const FLAT: bool>(&self, symbol: usize) -> u32 {
        if FLAT {
            // The sum is below `total < MAX_TOTAL`, so it never wraps;
            // wrapping adds let the loop vectorize under overflow checks.
            return self
                .freq
                .get(..symbol)
                .map_or(0, |below| below.iter().fold(0, |s, &f| s.wrapping_add(f)));
        }
        let mut i = symbol;
        let mut s = 0;
        while i > 0 {
            s += self.tree.get(i).copied().unwrap_or(0);
            i &= i - 1;
        }
        s
    }

    /// Bumps `symbol`'s frequency (and its tree path), halving all counts
    /// when the total nears the coder's precision limit.
    #[inline(always)]
    fn adapt<const FLAT: bool>(&mut self, symbol: usize) {
        let Some(f) = self.freq.get_mut(symbol) else {
            return;
        };
        *f += self.increment;
        if !FLAT {
            let mut i = symbol + 1;
            while let Some(node) = self.tree.get_mut(i) {
                *node += self.increment;
                i += i & i.wrapping_neg();
            }
        }
        self.total += self.increment;
        if self.total >= MAX_TOTAL {
            self.rescale();
        }
    }

    /// Halves every frequency (keeping each at least 1) and rebuilds the
    /// tree, if there is one, from the array in O(n): each node adds
    /// itself into its parent.
    fn rescale(&mut self) {
        self.freq.iter_mut().for_each(|f| *f = (*f / 2).max(1));
        self.total = self.freq.iter().sum();
        for (node, &f) in self.tree.iter_mut().skip(1).zip(&self.freq) {
            *node = f;
        }
        for i in 1..self.tree.len() {
            let own = self.tree.get(i).copied().unwrap_or(0);
            if let Some(parent) = self.tree.get_mut(i + (i & i.wrapping_neg())) {
                *parent += own;
            }
        }
    }

    /// The decoded symbol and its cumulative count, by a scan from symbol
    /// 0 (flat) or a Fenwick lift (tree). Both test `(acc + freq) · r ≤
    /// code` rather than dividing `code` by `r` (exact: `c ≤ ⌊code/r⌋ ⇔
    /// c·r ≤ code`; `acc + freq` is a cumulative count, so the product is
    /// at most `total · r ≤ range`). A search that runs off the alphabet
    /// — a damaged stream whose `code` points past the total — lands on
    /// the last symbol with `cum = total − freq(last)`.
    #[inline(always)]
    fn locate<const FLAT: bool>(&self, code: u32, r: u32) -> (usize, u32) {
        let last = self.freq.len() - 1;
        if FLAT {
            let mut symbol = 0;
            let mut cum = 0u32;
            for &f in self.freq.iter().take(last) {
                if (cum + f) * r > code {
                    break;
                }
                cum += f;
                symbol += 1;
            }
            return (symbol, cum);
        }
        let mut pos = 0usize;
        let mut acc = 0u32;
        let mut mask = self.freq.len().next_power_of_two();
        while mask > 0 {
            if let Some(&node) = self.tree.get(pos + mask) {
                if (acc + node) * r <= code {
                    acc += node;
                    pos += mask;
                }
            }
            mask >>= 1;
        }
        if pos > last {
            (last, self.total - self.freq.get(last).copied().unwrap_or(0))
        } else {
            (pos, acc)
        }
    }

    /// Range-codes every symbol of `symbols` under the adapting model and
    /// returns the finished stream: the bytes a [`RangeEncoder`] fed one
    /// symbol at a time and then finished would hold.
    pub fn encode_all(&mut self, symbols: impl IntoIterator<Item = usize>) -> Result<Vec<u8>> {
        if self.tree.is_empty() {
            self.encode_with::<true>(symbols)
        } else {
            self.encode_with::<false>(symbols)
        }
    }

    fn encode_with<const FLAT: bool>(
        &mut self,
        symbols: impl IntoIterator<Item = usize>,
    ) -> Result<Vec<u8>> {
        let mut low = 0u64;
        let mut range = u32::MAX;
        let mut cache = 0u8;
        let mut pending = 0u64;
        let mut out = Vec::new();
        for symbol in symbols {
            let Some(&freq) = self.freq.get(symbol) else {
                return Err(CodecError::InvalidParameter(
                    "rangecoder: symbol out of range",
                ));
            };
            let r = range / self.total;
            low += u64::from(self.prefix::<FLAT>(symbol)) * u64::from(r);
            range = r * freq;
            while range < TOP {
                shift_low(&mut low, &mut cache, &mut pending, &mut out);
                range <<= 8;
            }
            self.adapt::<FLAT>(symbol);
        }
        for _ in 0..5 {
            shift_low(&mut low, &mut cache, &mut pending, &mut out);
        }
        Ok(out)
    }

    /// Decodes `n` symbols of a stream [`AdaptiveModel::encode_all`] wrote,
    /// adapting as it goes. At most 2^20 symbols are reserved up front;
    /// the rest must be backed by the stream's bytes. A stream too short
    /// to prime, or that runs out mid-symbol, is
    /// [`CodecError::UnexpectedEof`].
    pub fn decode_all(&mut self, stream: &[u8], n: usize) -> Result<Vec<u32>> {
        if self.tree.is_empty() {
            self.decode_with::<true>(stream, n)
        } else {
            self.decode_with::<false>(stream, n)
        }
    }

    fn decode_with<const FLAT: bool>(&mut self, stream: &[u8], n: usize) -> Result<Vec<u32>> {
        // The first byte is the encoder's initial cache (always 0).
        let Some((&[_, b0, b1, b2, b3], mut rest)) = stream.split_first_chunk::<5>() else {
            return Err(CodecError::UnexpectedEof);
        };
        let mut code = u32::from_be_bytes([b0, b1, b2, b3]);
        let mut range = u32::MAX;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let r = range / self.total;
            let (symbol, cum) = self.locate::<FLAT>(code, r);
            code -= cum * r;
            range = r * self.freq.get(symbol).copied().unwrap_or(0);
            while range < TOP {
                // The encoder wrote 5 flush bytes, so a well-formed stream
                // never underruns. Reading on as zeros would let a forged
                // symbol count expand a few bytes into gigabytes.
                let Some((&byte, tail)) = rest.split_first() else {
                    return Err(CodecError::UnexpectedEof);
                };
                rest = tail;
                code = (code << 8) | u32::from(byte);
                range <<= 8;
            }
            self.adapt::<FLAT>(symbol);
            out.push(symbol as u32);
        }
        Ok(out)
    }
}

/// The per-symbol reference `encode_all` and `decode_all` are tested
/// against, and the knobs and views the tests drive it through. `cum` and
/// `find` work on the frequency array alone, so they check both layouts.
#[cfg(test)]
impl AdaptiveModel {
    /// Creates a model with a custom adaptation increment (at most
    /// `MAX_TOTAL / 2`, so one update cannot overflow the total).
    fn with_increment(alphabet: usize, increment: u32) -> Result<Self> {
        if increment > MAX_TOTAL / 2 {
            return Err(CodecError::InvalidParameter(
                "rangecoder: increment unsupported",
            ));
        }
        Self::build(alphabet, increment)
    }

    /// Alphabet size.
    fn len(&self) -> usize {
        self.freq.len()
    }

    /// True when the model keeps a Fenwick tree.
    fn has_tree(&self) -> bool {
        !self.tree.is_empty()
    }

    /// Current total frequency.
    fn total(&self) -> u32 {
        self.total
    }

    /// Cumulative frequency of symbols strictly below `symbol`
    /// (`symbol <= len()`).
    fn cum(&self, symbol: usize) -> u32 {
        self.freq.iter().take(symbol).sum()
    }

    /// Frequency of `symbol` (0 outside the alphabet).
    fn freq(&self, symbol: usize) -> u32 {
        self.freq.get(symbol).copied().unwrap_or(0)
    }

    /// Bumps `symbol`'s frequency in the model's own layout.
    fn update(&mut self, symbol: usize) {
        if self.has_tree() {
            self.adapt::<false>(symbol);
        } else {
            self.adapt::<true>(symbol);
        }
    }

    /// Finds the symbol whose interval contains cumulative value `target`
    /// (the last symbol for a target past the total).
    fn find(&self, target: u32) -> usize {
        let mut end = 0;
        self.freq
            .iter()
            .position(|&f| {
                end += f;
                target < end
            })
            .unwrap_or(self.len() - 1)
    }

    /// Encodes `symbol` under the current distribution, then adapts.
    fn encode(&mut self, enc: &mut RangeEncoder, symbol: usize) -> Result<()> {
        if symbol >= self.len() {
            return Err(CodecError::InvalidParameter(
                "rangecoder: symbol out of range",
            ));
        }
        enc.encode(self.cum(symbol), self.freq(symbol), self.total);
        self.update(symbol);
        Ok(())
    }

    /// Decodes one symbol and adapts, mirroring [`AdaptiveModel::encode`].
    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> Result<usize> {
        let f = dec.decode_freq(self.total)?;
        let symbol = self.find(f);
        dec.update(self.cum(symbol), self.freq(symbol))?;
        self.update(symbol);
        Ok(symbol)
    }
}

/// A static (non-adaptive) distribution for table-driven coding, used when
/// the model is trained ahead of time (Squish's CPTs).
#[derive(Debug, Clone)]
pub struct StaticModel {
    cum: Vec<u32>,
}

impl StaticModel {
    /// Builds from raw counts; every symbol is smoothed to frequency ≥ 1
    /// and the total is scaled under [`MAX_TOTAL`].
    pub fn from_counts(counts: &[u64]) -> Result<Self> {
        if counts.is_empty() || counts.len() as u64 * 2 > u64::from(MAX_TOTAL) {
            return Err(CodecError::InvalidParameter(
                "rangecoder: alphabet size unsupported",
            ));
        }
        let grand: u64 = counts.iter().sum::<u64>().max(1);
        // Budget that always leaves room for the +1 smoothing of each symbol.
        let budget = u64::from(MAX_TOTAL / 2) - counts.len() as u64;
        let mut cum = Vec::with_capacity(counts.len() + 1);
        cum.push(0u32);
        let mut acc = 0u32;
        for &c in counts {
            let scaled = (c.saturating_mul(budget) / grand) as u32 + 1;
            acc += scaled;
            cum.push(acc);
        }
        Ok(StaticModel { cum })
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.cum.len() - 1
    }

    /// True when the model has no symbols (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total scaled frequency.
    pub fn total(&self) -> u32 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// Encodes `symbol`.
    pub fn encode(&self, enc: &mut RangeEncoder, symbol: usize) -> Result<()> {
        let Some(&[cum, end]) = self.cum.get(symbol..).and_then(<[u32]>::first_chunk) else {
            return Err(CodecError::InvalidParameter(
                "rangecoder: symbol out of range",
            ));
        };
        enc.encode(cum, end - cum, self.total());
        Ok(())
    }

    /// Decodes one symbol.
    pub fn decode(&self, dec: &mut RangeDecoder<'_>) -> Result<usize> {
        let f = dec.decode_freq(self.total())?;
        // Binary search the cumulative table.
        let symbol = match self.cum.binary_search(&f) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
        .min(self.len() - 1);
        let Some(&[cum, end]) = self.cum.get(symbol..).and_then(<[u32]>::first_chunk) else {
            return Err(CodecError::Corrupt("rangecoder: symbol past the table"));
        };
        dec.update(cum, end - cum)?;
        Ok(symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_roundtrip_skewed_stream() {
        let symbols: Vec<usize> = (0..20_000)
            .map(|i| if i % 17 == 0 { i % 5 } else { 0 })
            .collect();
        let mut enc_model = AdaptiveModel::new(8).unwrap();
        let mut enc = RangeEncoder::new();
        for &s in &symbols {
            enc_model.encode(&mut enc, s).unwrap();
        }
        let bytes = enc.finish();
        // Skewed stream should approach its entropy, far below 1 byte/sym.
        assert!(bytes.len() < symbols.len() / 4);

        let mut dec_model = AdaptiveModel::new(8).unwrap();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &s in &symbols {
            assert_eq!(dec_model.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn adaptive_roundtrip_uniform_large_alphabet() {
        let mut state = 99u64;
        let symbols: Vec<usize> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize % 1000
            })
            .collect();
        let mut m = AdaptiveModel::new(1000).unwrap();
        let mut enc = RangeEncoder::new();
        for &s in &symbols {
            m.encode(&mut enc, s).unwrap();
        }
        let bytes = enc.finish();
        let mut m = AdaptiveModel::new(1000).unwrap();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &s in &symbols {
            assert_eq!(m.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn rescaling_preserves_correctness() {
        // Small increment ceiling forces many rescales.
        let symbols: Vec<usize> = (0..300_000).map(|i| i % 3).collect();
        let mut m = AdaptiveModel::with_increment(3, 4096).unwrap();
        let mut enc = RangeEncoder::new();
        for &s in &symbols {
            m.encode(&mut enc, s).unwrap();
        }
        let bytes = enc.finish();
        let mut m = AdaptiveModel::with_increment(3, 4096).unwrap();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &s in &symbols {
            assert_eq!(m.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn static_model_roundtrip() {
        let counts = [500u64, 100, 5, 0, 1];
        let model = StaticModel::from_counts(&counts).unwrap();
        let symbols = [0usize, 0, 1, 4, 3, 2, 0, 0, 0, 1, 1, 4];
        let mut enc = RangeEncoder::new();
        for &s in &symbols {
            model.encode(&mut enc, s).unwrap();
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &s in &symbols {
            assert_eq!(model.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn static_model_zero_count_symbols_stay_encodable() {
        let model = StaticModel::from_counts(&[0, 0, 0]).unwrap();
        let mut enc = RangeEncoder::new();
        for s in 0..3 {
            model.encode(&mut enc, s).unwrap();
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for s in 0..3 {
            assert_eq!(model.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn fenwick_invariants() {
        for alphabet in [10, FLAT_MAX_ALPHABET + 8] {
            let mut m = AdaptiveModel::new(alphabet).unwrap();
            assert_eq!(m.has_tree(), alphabet > FLAT_MAX_ALPHABET);
            for s in [3usize, 3, 3, 7, 9, 0, alphabet - 1] {
                m.update(s);
            }
            // cum is monotone, find inverts it, and both layouts' own
            // prefix sums are the reference's.
            for s in 0..alphabet {
                let c = m.cum(s);
                let f = m.freq(s);
                assert!(f >= 1);
                assert_eq!(m.prefix::<true>(s), c);
                if m.has_tree() {
                    assert_eq!(m.prefix::<false>(s), c);
                }
                for target in c..c + f {
                    assert_eq!(m.find(target), s, "target {target}");
                }
            }
            assert_eq!(m.cum(alphabet), m.total());
        }
    }

    #[test]
    fn oversized_increment_is_refused() {
        assert!(AdaptiveModel::with_increment(2, u32::MAX).is_err());
        assert!(AdaptiveModel::with_increment(2, MAX_TOTAL / 2).is_ok());
    }

    #[test]
    fn empty_input_to_decoder_is_eof() {
        assert!(RangeDecoder::new(&[]).is_err());
        assert!(RangeDecoder::new(&[1, 2]).is_err());
    }

    #[test]
    fn invalid_constructions_rejected() {
        assert!(AdaptiveModel::new(0).is_err());
        assert!(StaticModel::from_counts(&[]).is_err());
        let mut m = AdaptiveModel::new(4).unwrap();
        let mut enc = RangeEncoder::new();
        assert!(m.encode(&mut enc, 4).is_err());
    }
}

/// The whole-stream loops against the per-symbol reference they replace:
/// the same bytes out of `encode_all`, and out of `decode_all` the same
/// symbols or the same error, on seeded streams and on damaged copies.
#[cfg(test)]
mod whole_stream {
    use super::*;

    /// xorshift64*: a fixed stream for every input below.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// `len` skewed symbols below `alphabet`.
    fn stream(alphabet: usize, len: usize, seed: u64) -> Vec<usize> {
        let mut next = rng(seed);
        (0..len)
            .map(|_| {
                let r = next();
                if r.is_multiple_of(4) {
                    (r >> 32) as usize % alphabet
                } else {
                    (r >> 8).trailing_zeros() as usize % alphabet
                }
            })
            .collect()
    }

    fn reference_encode(m: &mut AdaptiveModel, symbols: &[usize]) -> Result<Vec<u8>> {
        let mut enc = RangeEncoder::new();
        for &s in symbols {
            m.encode(&mut enc, s)?;
        }
        Ok(enc.finish())
    }

    fn reference_decode(m: &mut AdaptiveModel, bytes: &[u8], n: usize) -> Result<Vec<u32>> {
        let mut dec = RangeDecoder::new(bytes)?;
        (0..n)
            .map(|_| m.decode(&mut dec).map(|s| s as u32))
            .collect()
    }

    /// (alphabet, increment, symbols): small and wide alphabets, the
    /// widest flat one and the narrowest tree, two past a rescale at the
    /// default increment (~131k symbols) and one rescaling often.
    const CASES: &[(usize, u32, usize)] = &[
        (1, 32, 100),
        (2, 32, 3_000),
        (8, 32, 150_000),
        (FLAT_MAX_ALPHABET, 32, 140_000),
        (FLAT_MAX_ALPHABET + 1, 32, 20_000),
        (300, 32, 20_000),
        (4096, 32, 30_000),
        (3, 4096, 40_000),
    ];

    #[test]
    fn loops_write_and_read_what_the_per_symbol_coder_does() {
        for (k, &(alphabet, inc, len)) in CASES.iter().enumerate() {
            let symbols = stream(alphabet, len, 0x5EED ^ k as u64);
            let model = AdaptiveModel::with_increment(alphabet, inc).unwrap();
            let want = reference_encode(&mut model.clone(), &symbols).unwrap();
            let mut looped = model.clone();
            assert_eq!(
                looped.encode_all(symbols.iter().copied()).unwrap(),
                want,
                "alphabet {alphabet}"
            );
            let decoded = model.clone().decode_all(&want, len).unwrap();
            assert_eq!(
                decoded,
                reference_decode(&mut model.clone(), &want, len).unwrap()
            );
            let symbols: Vec<u32> = symbols.iter().map(|&s| s as u32).collect();
            assert_eq!(decoded, symbols, "alphabet {alphabet}");
        }
    }

    #[test]
    fn damaged_streams_decode_alike() {
        let mut next = rng(0xDA4A);
        for (k, &(alphabet, inc, len)) in CASES.iter().enumerate() {
            let len = len.min(4_000);
            let symbols = stream(alphabet, len, 0xBAD ^ k as u64);
            let model = AdaptiveModel::with_increment(alphabet, inc).unwrap();
            let good = model.clone().encode_all(symbols).unwrap();
            let mut damaged: Vec<Vec<u8>> = (0..=good.len().min(12))
                .map(|cut| good[..cut].to_vec())
                .collect();
            damaged.push(good[..good.len() / 2].to_vec());
            for _ in 0..40 {
                let mut bad = good.clone();
                let at = (next() % bad.len() as u64) as usize;
                bad[at] ^= 1 << (next() % 8);
                damaged.push(bad);
            }
            for bytes in &damaged {
                // More symbols than were written, too: the loops must run
                // out of bytes at the same symbol.
                for n in [len, len + 50] {
                    assert_eq!(
                        model.clone().decode_all(bytes, n),
                        reference_decode(&mut model.clone(), bytes, n),
                        "alphabet {alphabet}, {} bytes, n {n}",
                        bytes.len()
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_symbol_is_refused_alike() {
        let model = AdaptiveModel::new(4).unwrap();
        let err = model.clone().encode_all([0, 3, 4, 1]).unwrap_err();
        assert_eq!(
            err,
            reference_encode(&mut model.clone(), &[0, 3, 4, 1]).unwrap_err()
        );
    }

    #[test]
    fn rescale_rebuilds_the_tree_the_updates_would() {
        let alphabet = FLAT_MAX_ALPHABET + 5;
        let mut m = AdaptiveModel::with_increment(alphabet, 999).unwrap();
        for s in stream(alphabet, 20_000, 7) {
            m.update(s);
        }
        // A tree built by adding each halved frequency in turn.
        let mut want = vec![0u32; m.len() + 1];
        for (s, &f) in m.freq.iter().enumerate() {
            let mut i = s + 1;
            while i < want.len() {
                want[i] += f;
                i += i & i.wrapping_neg();
            }
        }
        assert_eq!(m.tree, want);
        assert_eq!(m.total, m.freq.iter().sum::<u32>());
    }
}

#[cfg(test)]
mod coder_alignment {
    use super::*;

    /// Regression test: the encoder must emit the initial cache byte so the
    /// decoder's skip-first-byte priming stays aligned (a misalignment here
    /// is masked by repeated leading bytes and only surfaces mid-stream).
    #[test]
    fn uniform_quaternary_stream_stays_aligned() {
        let syms: Vec<u32> = (0..64).map(|i| i % 4).collect();
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            enc.encode(s, 1, 4);
        }
        let bytes = enc.finish();
        assert_eq!(bytes[0], 0, "first byte is the dummy cache byte");
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &s in &syms {
            let f = dec.decode_freq(4).unwrap();
            assert_eq!(f, s);
            dec.update(f, 1).unwrap();
        }
    }
}
