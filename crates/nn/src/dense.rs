//! Fully connected layers and elementwise activations.

use crate::mat::Mat;
use rand::rngs::StdRng;
use rand::Rng;

/// Elementwise nonlinearities used in the paper's architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// f(x) = x — the Fig. 7 linear-baseline activation.
    Identity,
    /// max(0, x) for hidden layers.
    Relu,
    /// 1/(1+e^-x) for codes and numeric/binary outputs (range [0,1]).
    Sigmoid,
    /// tanh for the categorical auxiliary layer (bounded, zero-centred).
    Tanh,
}

impl Activation {
    /// Applies the activation in place.
    pub fn apply(&self, m: &mut Mat) {
        match self {
            Activation::Identity => {}
            Activation::Relu => m.map_inplace(|v| v.max(0.0)),
            Activation::Sigmoid => m.map_inplace(sigmoid),
            Activation::Tanh => m.map_inplace(f32::tanh),
        }
    }

    /// Multiplies `grad` by the activation derivative, expressed in terms
    /// of the *activated output* `y` (cheap for all four functions).
    pub fn backprop(&self, grad: &mut Mat, y: &Mat) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                // A select, not a conditional store, so the loop vectorizes.
                for (g, &v) in grad.data_mut().iter_mut().zip(y.data()) {
                    *g = if v <= 0.0 { 0.0 } else { *g };
                }
            }
            Activation::Sigmoid => {
                for (g, &v) in grad.data_mut().iter_mut().zip(y.data()) {
                    *g *= v * (1.0 - v);
                }
            }
            Activation::Tanh => {
                for (g, &v) in grad.data_mut().iter_mut().zip(y.data()) {
                    *g *= 1.0 - v * v;
                }
            }
        }
    }
}

/// Magnitude below which a training gradient is treated as zero: 2⁻⁵³.
///
/// Softmax probabilities of well-separated classes times a gate weight
/// underflow into f32 subnormals, and every subnormal operand costs a
/// ~150-cycle microcode assist inside the matmul kernels. Anything this
/// small is invisible to Adam (`eps` = 1e-8) and keeps `(1-β2)·g²` a
/// normal number. Applied by [`flush`] at three training-only sites —
/// the loss-gradient writes in `Autoencoder::pass`, `dy` after the
/// activation derivative in [`Dense::backward_into`], and the incoming
/// gradient in `AdamState::step` — as plain scalar code outside the SIMD
/// kernels, so it is identical at every `DS_THREADS` / `DS_SIMD` setting.
/// Forward, encode and decode arithmetic is untouched (DESIGN.md §5.10).
pub(crate) const GRAD_FLOOR: f32 = f32::from_bits((127 - 53) << 23);

/// `v`, or `0.0` when `|v|` is below [`GRAD_FLOOR`].
#[inline]
pub(crate) fn flush(v: f32) -> f32 {
    if v.abs() < GRAD_FLOOR {
        0.0
    } else {
        v
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A dense layer `y = x·W + b` with its activation.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, shape (input, output).
    pub w: Mat,
    /// Bias vector, length = output.
    pub b: Vec<f32>,
    /// Activation applied after the affine map.
    pub act: Activation,
}

/// Gradients mirroring a [`Dense`] layer's parameters.
#[derive(Debug, Clone)]
pub struct DenseGrad {
    /// dL/dW.
    pub dw: Mat,
    /// dL/db.
    pub db: Vec<f32>,
}

impl Dense {
    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(input: usize, output: usize, act: Activation, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (input + output) as f32).sqrt();
        let data = (0..input * output)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Dense {
            w: Mat::from_vec(input, output, data),
            b: vec![0.0; output],
            act,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of scalar parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass; returns the activated output.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut y = Mat::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    /// [`Dense::forward`] into a caller-owned buffer.
    pub fn forward_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_into(&self.w, y);
        y.add_row_vec(&self.b);
        self.act.apply(y);
    }

    /// Backward pass.
    ///
    /// `x` is the layer input, `y` the activated output from forward, and
    /// `dy` the gradient wrt `y`. Returns (dL/dx, parameter gradients).
    pub fn backward(&self, x: &Mat, y: &Mat, mut dy: Mat) -> (Mat, DenseGrad) {
        let mut dx = Mat::zeros(0, 0);
        let mut grad = DenseGrad::empty();
        self.backward_into(x, y, &mut dy, Some(&mut dx), &mut grad);
        (dx, grad)
    }

    /// [`Dense::backward`] into caller-owned buffers. `dy` is consumed in
    /// place (it leaves holding dL/d(pre-activation), floored at
    /// [`GRAD_FLOOR`]); pass `dx: None` when nothing upstream needs the
    /// input gradient.
    pub fn backward_into(
        &self,
        x: &Mat,
        y: &Mat,
        dy: &mut Mat,
        dx: Option<&mut Mat>,
        grad: &mut DenseGrad,
    ) {
        self.act.backprop(dy, y);
        dy.map_inplace(flush);
        x.t_matmul_into(dy, &mut grad.dw);
        dy.col_sums_into(&mut grad.db);
        if let Some(dx) = dx {
            dy.matmul_t_into(&self.w, dx);
        }
    }
}

impl DenseGrad {
    /// A shapeless gradient for the `*_into` / [`DenseGrad::copy_from`]
    /// writers to size.
    pub(crate) fn empty() -> Self {
        DenseGrad {
            dw: Mat::zeros(0, 0),
            db: Vec::new(),
        }
    }

    /// Makes this gradient a copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &DenseGrad) {
        self.dw.copy_rows_from(&other.dw, 0, other.dw.rows());
        self.db.clear();
        self.db.extend_from_slice(&other.db);
    }

    /// Accumulates another gradient into this one.
    pub fn accumulate(&mut self, other: &DenseGrad) {
        for (a, &b) in self.dw.data_mut().iter_mut().zip(other.dw.data()) {
            *a += b;
        }
        for (a, &b) in self.db.iter_mut().zip(&other.db) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn grad_floor_is_two_to_the_minus_53() {
        assert_eq!(GRAD_FLOOR, 0.5f32.powi(53));
        assert_eq!(flush(GRAD_FLOOR), GRAD_FLOOR);
        assert_eq!(flush(-GRAD_FLOOR), -GRAD_FLOOR);
        let below = f32::from_bits(GRAD_FLOOR.to_bits() - 1);
        assert_eq!(flush(below).to_bits(), 0.0f32.to_bits());
        assert_eq!(flush(-below).to_bits(), 0.0f32.to_bits());
        assert_eq!(flush(1e-40).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn forward_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::xavier(3, 2, Activation::Identity, &mut rng);
        layer.b = vec![1.0, -1.0];
        let x = Mat::zeros(4, 3);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input → output equals bias.
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn relu_kills_negative_gradients() {
        let y = Mat::from_vec(1, 3, vec![0.0, 2.0, -0.0]);
        let mut g = Mat::from_vec(1, 3, vec![5.0, 5.0, 5.0]);
        Activation::Relu.backprop(&mut g, &y);
        assert_eq!(g.data(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    /// Finite-difference check of the full layer backward pass.
    #[test]
    fn gradients_match_finite_differences() {
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let layer = Dense::xavier(4, 3, act, &mut rng);
            let x = Mat::from_vec(
                2,
                4,
                (0..8).map(|i| (i as f32 * 0.37).sin() * 0.8).collect(),
            );
            // Scalar objective: sum of outputs squared / 2 → dy = y.
            let y = layer.forward(&x);
            let dy = y.clone();
            let (dx, grad) = layer.backward(&x, &y, dy);

            let f = |layer: &Dense, x: &Mat| -> f32 {
                let y = layer.forward(x);
                y.data().iter().map(|v| v * v).sum::<f32>() / 2.0
            };
            let eps = 1e-3f32;

            // Check a scattering of weight entries.
            for &(r, c) in &[(0usize, 0usize), (1, 2), (3, 1)] {
                let mut lp = layer.clone();
                lp.w.set(r, c, lp.w.get(r, c) + eps);
                let mut lm = layer.clone();
                lm.w.set(r, c, lm.w.get(r, c) - eps);
                let num = (f(&lp, &x) - f(&lm, &x)) / (2.0 * eps);
                let ana = grad.dw.get(r, c);
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                    "{act:?} dW[{r},{c}]: numeric {num} vs analytic {ana}"
                );
            }
            // Check input gradients.
            for &(r, c) in &[(0usize, 0usize), (1, 3)] {
                let mut xp = x.clone();
                xp.set(r, c, xp.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, xm.get(r, c) - eps);
                let num = (f(&layer, &xp) - f(&layer, &xm)) / (2.0 * eps);
                let ana = dx.get(r, c);
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                    "{act:?} dX[{r},{c}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn grad_accumulation() {
        let mut acc = DenseGrad {
            dw: Mat::zeros(2, 2),
            db: vec![0.0; 2],
        };
        let g = DenseGrad {
            dw: Mat::from_vec(2, 2, vec![1.0; 4]),
            db: vec![2.0, 3.0],
        };
        acc.accumulate(&g);
        acc.accumulate(&g);
        assert_eq!(acc.dw.data(), &[2.0; 4]);
        assert_eq!(acc.db, vec![4.0, 6.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dense::xavier(5, 7, Activation::Relu, &mut rng);
        assert_eq!(layer.param_count(), 5 * 7 + 7);
    }
}
