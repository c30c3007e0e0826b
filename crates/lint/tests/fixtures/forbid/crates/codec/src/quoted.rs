//! Fixture: comments and string literals may name a forbidden token, and
//! a `#[cfg(test)]` item may use one; none of it is a finding. Never
//! `ds_simd::dispatch`, `#[target_feature]` or `f32::mul_add` here.

/// The tokens this file names but never uses: `_mm256_fmadd_ps`.
pub const NOTE: &str = "mul_add ds_simd dispatch target_feature";

// A plain comment: ds_simd::dispatch(x.mul_add(y, z)).
pub fn twice(x: f32) -> f32 {
    x * 2.0
}

#[cfg(test)]
fn reference(x: f32) -> f32 {
    x.mul_add(2.0, 0.0)
}
