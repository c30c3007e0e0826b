//! Seeded request script for the serving loop.
//!
//! The script is an endless deterministic sequence: request `i` depends
//! only on `(seed, total_rows, span)`, never on how many requests a run
//! has time for, so `serve_cold` and `serve_hot` replay the same ranges.

use std::ops::Range;

/// One in this many responses is kept and verified against the source.
const VERIFY_ONE_IN: u64 = 50;

/// SplitMix64: tiny, seedable, and good enough to pick row offsets.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One scripted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedGet {
    /// Half-open row range to `GET`; always `span` rows inside the table.
    pub rows: Range<usize>,
    /// Whether this response is parsed and compared to the source rows.
    pub verify: bool,
}

/// Endless iterator of `GET a..a+span` requests, `a` uniform.
#[derive(Debug, Clone)]
pub struct RequestScript {
    offsets: SplitMix64,
    sampler: SplitMix64,
    starts: u64,
    span: usize,
}

impl RequestScript {
    /// `span` is clamped to the table so every request returns exactly
    /// `span` rows and none can fail for being out of range.
    pub fn new(seed: u64, total_rows: usize, span: usize) -> RequestScript {
        let span = span.min(total_rows);
        RequestScript {
            offsets: SplitMix64(seed),
            sampler: SplitMix64(seed ^ 0x5eed_5a3b_1e00_0001),
            starts: (total_rows - span) as u64 + 1,
            span,
        }
    }
}

impl Iterator for RequestScript {
    type Item = ScriptedGet;

    fn next(&mut self) -> Option<ScriptedGet> {
        let a = (self.offsets.next() % self.starts) as usize;
        Some(ScriptedGet {
            rows: a..a + self.span,
            verify: self.sampler.next().is_multiple_of(VERIFY_ONE_IN),
        })
    }
}
