//! Adam optimizer (Kingma & Ba) with per-parameter first/second moments.

use crate::dense::{flush, Dense, DenseGrad};
use crate::mat::Mat;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Moments below this are stored as zero: with a zero gradient `m` decays
/// by `β1` per step and would otherwise spend hundreds of steps as a
/// subnormal (see [`crate::dense::GRAD_FLOOR`] for why that matters).
const MOMENT_FLOOR: f32 = 1e-30;

/// One Adam step over a parameter slice `w` with gradient `g` and moments
/// `m`, `v`; `bc` holds this time step's two bias corrections. `g` is
/// floored at `GRAD_FLOOR` and the moments at [`MOMENT_FLOOR`].
///
/// Straight-line per element — the floors are selects, and `/` and
/// `sqrt` are correctly rounded at any vector width — so the loop
/// vectorizes without changing a bit of any parameter.
fn update(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    cfg: &AdamConfig,
    bc: (f32, f32),
) {
    assert!(
        g.len() == w.len() && m.len() == w.len() && v.len() == w.len(),
        "Adam shape mismatch"
    );
    let (b1, b2) = (cfg.beta1, cfg.beta2);
    let (c1, c2) = (1.0 - b1, 1.0 - b2);
    for (((w, &g), m), v) in w.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        let g = flush(g);
        let mt = b1 * *m + c1 * g;
        let vt = b2 * *v + c2 * g * g;
        let mt = if mt.abs() < MOMENT_FLOOR { 0.0 } else { mt };
        let vt = if vt < MOMENT_FLOOR { 0.0 } else { vt };
        *m = mt;
        *v = vt;
        *w -= cfg.lr * (mt / bc.0) / ((vt / bc.1).sqrt() + cfg.eps);
    }
}

/// Optimizer state for one [`Dense`] layer.
#[derive(Debug, Clone)]
pub struct AdamState {
    mw: Mat,
    vw: Mat,
    mb: Vec<f32>,
    vb: Vec<f32>,
    /// Time step (shared across the layer).
    t: u64,
}

impl AdamState {
    /// Fresh state matching `layer`'s shape.
    pub fn for_layer(layer: &Dense) -> Self {
        AdamState {
            mw: Mat::zeros(layer.w.rows(), layer.w.cols()),
            vw: Mat::zeros(layer.w.rows(), layer.w.cols()),
            mb: vec![0.0; layer.b.len()],
            vb: vec![0.0; layer.b.len()],
            t: 0,
        }
    }

    /// Every first and second moment, for tests that inspect the state.
    #[cfg(test)]
    pub(crate) fn moments(&self) -> impl Iterator<Item = f32> + '_ {
        let mats = self.mw.data().iter().chain(self.vw.data());
        mats.chain(&self.mb).chain(&self.vb).copied()
    }

    /// Applies one Adam update to `layer` given its gradient.
    pub fn step(&mut self, layer: &mut Dense, grad: &DenseGrad, cfg: &AdamConfig) {
        self.t += 1;
        let bc1 = 1.0 - cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - cfg.beta2.powi(self.t as i32);
        let (w, mw, vw) = (layer.w.data_mut(), self.mw.data_mut(), self.vw.data_mut());
        update(w, grad.dw.data(), mw, vw, cfg, (bc1, bc2));
        update(
            &mut layer.b,
            &grad.db,
            &mut self.mb,
            &mut self.vb,
            cfg,
            (bc1, bc2),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Adam must drive a 1-d quadratic toward its minimum.
    #[test]
    fn minimizes_quadratic() {
        let mut rng = StdRng::seed_from_u64(4);
        // One weight, no bias use: minimize (w - 3)^2.
        let mut layer = Dense::xavier(1, 1, Activation::Identity, &mut rng);
        let mut adam = AdamState::for_layer(&layer);
        let cfg = AdamConfig {
            lr: 0.05,
            ..Default::default()
        };
        for _ in 0..2000 {
            let w = layer.w.get(0, 0);
            let grad = DenseGrad {
                dw: Mat::from_vec(1, 1, vec![2.0 * (w - 3.0)]),
                db: vec![0.0],
            };
            adam.step(&mut layer, &grad, &cfg);
        }
        assert!(
            (layer.w.get(0, 0) - 3.0).abs() < 1e-2,
            "w = {}",
            layer.w.get(0, 0)
        );
    }

    /// A tiny regression problem must reach near-zero loss, exercising the
    /// full forward/backward/update loop.
    #[test]
    fn fits_linear_map() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::xavier(2, 1, Activation::Identity, &mut rng);
        let mut adam = AdamState::for_layer(&layer);
        let cfg = AdamConfig {
            lr: 0.02,
            ..Default::default()
        };
        // Target function: y = 2a - b + 0.5
        let x = Mat::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let targets = [0.5f32, 2.5, -0.5, 1.5];
        let mut final_loss = f32::MAX;
        for _ in 0..4000 {
            let y = layer.forward(&x);
            let mut dy = Mat::zeros(4, 1);
            let mut loss = 0.0;
            for r in 0..4 {
                let d = y.get(r, 0) - targets[r];
                loss += d * d;
                dy.set(r, 0, 2.0 * d);
            }
            final_loss = loss;
            let (_, grad) = layer.backward(&x, &y, dy);
            adam.step(&mut layer, &grad, &cfg);
        }
        assert!(final_loss < 1e-4, "loss {final_loss}");
        assert!((layer.w.get(0, 0) - 2.0).abs() < 0.05);
        assert!((layer.w.get(1, 0) + 1.0).abs() < 0.05);
        assert!((layer.b[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn bias_correction_makes_first_steps_bounded() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Dense::xavier(1, 1, Activation::Identity, &mut rng);
        let w0 = layer.w.get(0, 0);
        let mut adam = AdamState::for_layer(&layer);
        let cfg = AdamConfig::default();
        let grad = DenseGrad {
            dw: Mat::from_vec(1, 1, vec![1e-4]), // tiny gradient
            db: vec![0.0],
        };
        adam.step(&mut layer, &grad, &cfg);
        // With bias correction, the first step is ≈ lr regardless of
        // gradient magnitude — not lr/sqrt(eps)-sized.
        let step = (layer.w.get(0, 0) - w0).abs();
        assert!(step <= cfg.lr * 1.5, "step {step}");
    }
}
