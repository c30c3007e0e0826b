//! Fixture: `one-kernel-body` trips on an aarch64 variant.

#[cfg(target_arch = "aarch64")]
pub fn add(a: f32, b: f32) -> f32 {
    a + b
}
