//! Arithmetic coding via a byte-oriented range coder, plus adaptive
//! frequency models backed by Fenwick trees.
//!
//! This is the entropy-coding substrate for the Squish baseline (§2.3 of
//! the DeepSqueeze paper): Squish walks a Bayesian network and arithmetic-
//! codes each attribute under its conditional distribution. The coder is
//! the classic carry-propagating design (as in LZMA): 32-bit range, 64-bit
//! low accumulator, renormalizing a byte at a time.

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

    /// Encodes a single bit under probability `p1_num/ (1<<12)` of being 1.
    pub fn encode_bit(&mut self, bit: bool, p1_num: u32) {
        let total = 1 << 12;
        let p1 = p1_num.clamp(1, total - 1);
        if bit {
            self.encode(0, p1, total);
        } else {
            self.encode(p1, total - p1, total);
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8; // 0 or 1
                                                // The very first pushed byte is the initial cache (0); the
                                                // decoder skips it, keeping both sides byte-aligned (as in LZMA).
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 0..self.pending {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.pending = 0;
            self.cache = (self.low >> 24) as u8;
        } else {
            self.pending += 1;
        }
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Flushes the remaining state and returns the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
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

    /// Decodes a bit encoded by [`RangeEncoder::encode_bit`].
    pub fn decode_bit(&mut self, p1_num: u32) -> Result<bool> {
        let total = 1 << 12;
        let p1 = p1_num.clamp(1, total - 1);
        let f = self.decode_freq(total)?;
        if f < p1 {
            self.update(0, p1)?;
            Ok(true)
        } else {
            self.update(p1, total - p1)?;
            Ok(false)
        }
    }
}

/// Adaptive frequency model over a fixed alphabet, Fenwick-tree backed so
/// both cumulative queries and updates are O(log n).
#[derive(Debug, Clone)]
pub struct AdaptiveModel {
    /// Fenwick tree over per-symbol frequencies (1-indexed internally).
    tree: Vec<u32>,
    n: usize,
    total: u32,
    increment: u32,
}

impl AdaptiveModel {
    /// Creates a model with every symbol at frequency 1 (Laplace prior).
    pub fn new(alphabet: usize) -> Result<Self> {
        Self::with_increment(alphabet, 32)
    }

    /// Creates a model with a custom adaptation increment.
    pub fn with_increment(alphabet: usize, increment: u32) -> Result<Self> {
        if alphabet == 0 || alphabet as u64 * 2 > u64::from(MAX_TOTAL) {
            return Err(CodecError::InvalidParameter(
                "rangecoder: alphabet size unsupported",
            ));
        }
        let mut m = AdaptiveModel {
            tree: vec![0; alphabet + 1],
            n: alphabet,
            total: 0,
            increment,
        };
        for s in 0..alphabet {
            m.add(s, 1);
        }
        Ok(m)
    }

    /// Alphabet size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the alphabet is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current total frequency.
    pub fn total(&self) -> u32 {
        self.total
    }

    fn add(&mut self, symbol: usize, delta: u32) {
        let mut i = symbol + 1;
        while i <= self.n {
            // ds-lint: allow(panic-free-decode) -- tree.len() == n + 1 by construction and i <= n is the loop bound
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
        self.total += delta;
    }

    /// Cumulative frequency of symbols strictly below `symbol`.
    pub fn cum(&self, symbol: usize) -> u32 {
        let mut i = symbol;
        let mut s = 0;
        while i > 0 {
            // ds-lint: allow(panic-free-decode) -- callers pass symbol <= n and i only decreases; tree.len() == n + 1
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Frequency of `symbol`.
    pub fn freq(&self, symbol: usize) -> u32 {
        self.cum(symbol + 1) - self.cum(symbol)
    }

    /// Finds the symbol whose interval contains cumulative value `target`.
    pub fn find(&self, target: u32) -> usize {
        // Standard Fenwick binary lift.
        let mut pos = 0usize;
        let mut rem = target;
        let mut mask = self.n.next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            // ds-lint: allow(panic-free-decode) -- next <= n is checked first and tree.len() == n + 1
            if next <= self.n && self.tree[next] <= rem {
                rem -= self.tree[next]; // ds-lint: allow(panic-free-decode) -- same next <= n guard on this branch
                pos = next;
            }
            mask >>= 1;
        }
        pos.min(self.n - 1)
    }

    /// Bumps `symbol`'s frequency, halving all counts when the total nears
    /// the coder's precision limit.
    pub fn update(&mut self, symbol: usize) {
        self.add(symbol, self.increment);
        if self.total >= MAX_TOTAL {
            self.rescale();
        }
    }

    fn rescale(&mut self) {
        let freqs: Vec<u32> = (0..self.n).map(|s| (self.freq(s) / 2).max(1)).collect();
        self.tree.iter_mut().for_each(|v| *v = 0);
        self.total = 0;
        for (s, f) in freqs.into_iter().enumerate() {
            self.add(s, f);
        }
    }

    /// Encodes `symbol` under the current distribution, then adapts.
    pub fn encode(&mut self, enc: &mut RangeEncoder, symbol: usize) -> Result<()> {
        if symbol >= self.n {
            return Err(CodecError::InvalidParameter(
                "rangecoder: symbol out of range",
            ));
        }
        enc.encode(self.cum(symbol), self.freq(symbol), self.total);
        self.update(symbol);
        Ok(())
    }

    /// Decodes one symbol and adapts, mirroring [`AdaptiveModel::encode`].
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> Result<usize> {
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
        // ds-lint: allow(panic-free-decode) -- from_counts always pushes the leading 0, so cum is never empty
        *self.cum.last().expect("cum never empty")
    }

    /// Encodes `symbol`.
    pub fn encode(&self, enc: &mut RangeEncoder, symbol: usize) -> Result<()> {
        if symbol >= self.len() {
            return Err(CodecError::InvalidParameter(
                "rangecoder: symbol out of range",
            ));
        }
        // ds-lint: allow(panic-free-decode) -- symbol < len() was rejected above; cum has len()+1 entries
        let cum = self.cum[symbol];
        let freq = self.cum[symbol + 1] - cum; // ds-lint: allow(panic-free-decode) -- same symbol < len() guard; symbol+1 <= len()
        enc.encode(cum, freq, self.total());
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
        // ds-lint: allow(panic-free-decode) -- symbol is clamped to len()-1 above; cum has len()+1 entries
        let cum = self.cum[symbol];
        let freq = self.cum[symbol + 1] - cum; // ds-lint: allow(panic-free-decode) -- symbol+1 <= len() after the clamp above
        dec.update(cum, freq)?;
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
    fn bit_coder_roundtrip() {
        let bits: Vec<bool> = (0..10_000).map(|i| i % 7 == 0).collect();
        let mut enc = RangeEncoder::new();
        for &b in &bits {
            enc.encode_bit(b, 585); // ~1/7 probability of 1
        }
        let bytes = enc.finish();
        assert!(bytes.len() < bits.len() / 8); // beats 1 bit per symbol
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &b in &bits {
            assert_eq!(dec.decode_bit(585).unwrap(), b);
        }
    }

    #[test]
    fn fenwick_invariants() {
        let mut m = AdaptiveModel::new(10).unwrap();
        for s in [3usize, 3, 3, 7, 9, 0] {
            m.update(s);
        }
        // cum is monotone and find inverts it.
        for s in 0..10 {
            let c = m.cum(s);
            let f = m.freq(s);
            assert!(f >= 1);
            for target in c..c + f {
                assert_eq!(m.find(target), s, "target {target}");
            }
        }
        assert_eq!(m.cum(10), m.total());
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
