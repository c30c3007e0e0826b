//! Fixture: `one-head-path` trips on a softmax outside the kernels.

pub fn weight(logit: f32) -> f32 {
    logit.exp()
}
