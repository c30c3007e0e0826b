//! Fixture: `no-fused-multiply-add` trips on a fused multiply-add.

pub fn axpy(a: f32, x: f32, y: f32) -> f32 {
    a.mul_add(x, y)
}
