//! Fixture: `one-loop-per-codec-stage` trips on a SIMD level.

pub fn level() -> u8 {
    ds_simd::configured() as u8
}
