//! Row-major `f32` matrices with the operations backpropagation needs.
//!
//! The products run on the [`crate::simd`] micro-kernels (one body per
//! product, over AVX2 or plain-Rust lanes selected once per call via
//! `ds_simd::active()` *before* any fan-out, so pool workers inherit the
//! caller's choice). Once `m·k·n` crosses [`PAR_MIN_ELEMS`] the row ranges
//! additionally fan out over the `ds-exec` pool. Both lane instances
//! implement the same fixed accumulation schedule (`matmul`/`t_matmul`:
//! strictly ascending `p` per element; `matmul_t`: 8-lane partial sums + a
//! pinned reduction tree — see DESIGN.md §3f), and chunk boundaries depend
//! only on the shapes — so results are bit-identical across any
//! `DS_THREADS` *and* `DS_SIMD` setting (the determinism contract
//! decompression relies on). No BLAS dependency required.

use crate::simd;

/// Product volume (`m·k·n`) below which the kernels run on the calling
/// thread; above it they dispatch row chunks through `ds-exec`. Chosen so
/// per-minibatch products (≈ 128×70×40) stay on the low-overhead serial
/// path while full-table encode/decode products go wide.
const PAR_MIN_ELEMS: usize = 1 << 20;

/// Output rows per parallel task. Fixed by the shape alone — never by the
/// worker count — so chunk boundaries are reproducible everywhere.
const ROW_CHUNK: usize = 64;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major buffer (length must be rows*cols).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer length mismatch");
        Mat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` of zeros, keeping the allocation when it
    /// is large enough — how a reused output buffer is prepared.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · other` (shapes `(m,k) · (k,n) → (m,n)`).
    pub fn matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Mat::matmul`] into a caller-owned buffer (reshaped to fit).
    ///
    /// Bit-identical results for every `DS_THREADS` and `DS_SIMD`
    /// setting: all kernel variants accumulate each element in the same
    /// `p` order, the level is resolved once here (before any fan-out),
    /// and chunk boundaries depend only on the shapes.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let level = ds_simd::active();
        ds_obs::counter_labeled("nn.simd_kernel", level.name(), 1);
        out.reset(m, n);
        if m * k * n < PAR_MIN_ELEMS {
            simd::matmul_rows(level, &self.data, &other.data, k, n, 0, &mut out.data);
            return;
        }
        let (a, b) = (&self.data, &other.data);
        ds_exec::parallel_chunks_mut(&mut out.data, ROW_CHUNK * n, |_, start, out_rows| {
            simd::matmul_rows(level, a, b, k, n, start / n, out_rows);
        });
    }

    /// `selfᵀ · other` (shapes `(k,m)ᵀ · (k,n) → (m,n)`), used for weight
    /// gradients without materializing a transpose.
    pub fn t_matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// [`Mat::t_matmul`] into a caller-owned buffer (reshaped to fit).
    pub fn t_matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let level = ds_simd::active();
        ds_obs::counter_labeled("nn.simd_kernel", level.name(), 1);
        out.reset(m, n);
        simd::t_matmul(level, &self.data, &other.data, k, m, n, &mut out.data);
    }

    /// `self · otherᵀ` (shapes `(m,k) · (n,k)ᵀ → (m,n)`), used to push
    /// gradients back through a layer.
    pub fn matmul_t(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// [`Mat::matmul_t`] into a caller-owned buffer (reshaped to fit).
    ///
    /// Every element is an independent lane-group dot product (8
    /// ascending partial sums + a pinned reduction tree — DESIGN.md §3f)
    /// in every kernel variant, so results are bit-identical across
    /// thread counts and SIMD levels.
    pub fn matmul_t_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let level = ds_simd::active();
        ds_obs::counter_labeled("nn.simd_kernel", level.name(), 1);
        out.reset(m, n);
        if m * k * n < PAR_MIN_ELEMS {
            simd::matmul_t_rows(level, &self.data, &other.data, k, n, 0, &mut out.data);
            return;
        }
        let (a, b) = (&self.data, &other.data);
        ds_exec::parallel_chunks_mut(&mut out.data, ROW_CHUNK * n, |_, start, out_rows| {
            simd::matmul_t_rows(level, a, b, k, n, start / n, out_rows);
        });
    }

    /// Adds a row vector to every row (bias add).
    pub fn add_row_vec(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column sums (bias gradient) into a caller-owned buffer (resized to
    /// fit).
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Copies the rows at `indexes` into a new matrix.
    pub fn take_rows(&self, indexes: &[usize]) -> Mat {
        let mut out = Mat::zeros(indexes.len(), self.cols);
        for (dst, &src) in indexes.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Makes `self` a copy of rows `[from, to)` of `src` (one memcpy),
    /// keeping the allocation when it is large enough.
    pub fn copy_rows_from(&mut self, src: &Mat, from: usize, to: usize) {
        assert!(from <= to && to <= src.rows, "row range out of bounds");
        self.rows = to - from;
        self.cols = src.cols;
        self.data.clear();
        self.data
            .extend_from_slice(&src.data[from * src.cols..to * src.cols]);
    }

    /// Horizontal slice: columns `[from, to)` of every row.
    pub fn slice_cols(&self, from: usize, to: usize) -> Mat {
        assert!(from <= to && to <= self.cols);
        let mut out = Mat::zeros(self.rows, to - from);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[from..to]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Mat {
        Mat::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known_values() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // aᵀ is 2x3
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.t_matmul(&b); // (2,3)·(3,2) -> (2,2)
                                // aᵀ = [[1,3,5],[2,4,6]]; aᵀ·b = [[1+0+5, 0+3+5],[2+0+6, 0+4+6]]
        assert_eq!(c.data(), &[6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(2, 3, &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0]); // bᵀ is 3x2
        let c = a.matmul_t(&b); // (2,3)·(3,2) -> (2,2)
        assert_eq!(c.data(), &[3.0, 5.0, 9.0, 11.0]);
    }

    #[test]
    fn bias_and_col_sums() {
        let mut a = Mat::zeros(3, 2);
        a.add_row_vec(&[1.0, -2.0]);
        let mut sums = vec![9.0; 5];
        a.col_sums_into(&mut sums);
        assert_eq!(sums, vec![3.0, -6.0]);
    }

    #[test]
    fn take_rows_and_slice_cols() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sub = a.take_rows(&[2, 0]);
        assert_eq!(sub.data(), &[5.0, 6.0, 1.0, 2.0]);
        let cols = a.slice_cols(1, 2);
        assert_eq!(cols.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut a = m(2, 2, &[-1.0, 2.0, -3.0, 4.0]);
        a.map_inplace(|v| v.max(0.0));
        assert_eq!(a.data(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn mismatched_shapes_panic_loudly() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn copy_rows_from_copies_contiguous_range() {
        let a = m(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut s = Mat::zeros(7, 3);
        s.copy_rows_from(&a, 1, 3);
        assert_eq!((s.rows(), s.cols()), (2, 2));
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0]);
        s.copy_rows_from(&a, 2, 2);
        assert_eq!((s.rows(), s.cols()), (0, 2));
    }

    /// Pseudo-random matrix with ReLU-like sparsity (exercises the
    /// zero-skip paths).
    fn arb_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 40) as f32 / (1u32 << 24) as f32;
                if u < 0.3 {
                    0.0
                } else {
                    (u - 0.6) * 4.0
                }
            })
            .collect();
        Mat::from_vec(rows, cols, data)
    }

    /// Reference scalar ikj product, independent of the shipped kernels.
    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let (m_, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Mat::zeros(m_, n);
        for i in 0..m_ {
            for p in 0..k {
                let av = a.get(i, p);
                for j in 0..n {
                    let v = out.get(i, j) + av * b.get(p, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// Independent re-statement of the lane-group dot schedule from
    /// DESIGN.md §3f: 8 ascending partial sums, tail in lanes
    /// `0..k%8`, then the pinned reduction tree. `matmul_t` must
    /// reproduce this exactly at every level and shape.
    fn lane_group_dot(a: &[f32], b: &[f32]) -> f32 {
        let k = a.len();
        let full = k - k % 8;
        let mut lanes = [0.0f32; 8];
        for g in (0..full).step_by(8) {
            for l in 0..8 {
                lanes[l] += a[g + l] * b[g + l];
            }
        }
        for l in 0..(k - full) {
            lanes[l] += a[full + l] * b[full + l];
        }
        let q0 = lanes[0] + lanes[4];
        let q1 = lanes[1] + lanes[5];
        let q2 = lanes[2] + lanes[6];
        let q3 = lanes[3] + lanes[7];
        (q0 + q2) + (q1 + q3)
    }

    fn reference_matmul_t(a: &Mat, b: &Mat) -> Mat {
        let (m_, n) = (a.rows(), b.rows());
        let mut out = Mat::zeros(m_, n);
        for i in 0..m_ {
            for j in 0..n {
                out.set(i, j, lane_group_dot(a.row(i), b.row(j)));
            }
        }
        out
    }

    /// The shipped kernels must reproduce the documented accumulation
    /// schedules exactly — checked on shapes large enough to force the
    /// parallel blocked path (above PAR_MIN_ELEMS), with odd dimensions
    /// for edge rows and lane-group tails.
    #[test]
    fn kernels_bit_match_reference_schedules() {
        // 131*129*67 ≈ 1.13M ≥ PAR_MIN_ELEMS → blocked path.
        let a = arb_mat(131, 129, 1);
        let b = arb_mat(129, 67, 2);
        let blocked = ds_exec::with_thread_limit(1, || a.matmul(&b));
        let naive = naive_matmul(&a, &b);
        assert_eq!(blocked.data(), naive.data());

        let bt = arb_mat(67, 129, 3);
        let blocked_t = ds_exec::with_thread_limit(1, || a.matmul_t(&bt));
        let reference_t = reference_matmul_t(&a, &bt);
        assert_eq!(blocked_t.data(), reference_t.data());

        // Small-path shapes use the same schedules.
        let sa = arb_mat(13, 21, 4);
        let sbt = arb_mat(9, 21, 5);
        assert_eq!(
            sa.matmul_t(&sbt).data(),
            reference_matmul_t(&sa, &sbt).data()
        );
    }

    /// The categorical head's row-lane kernels must reproduce the per-row
    /// code they replaced (`autoencoder::reference`) bit for bit at every
    /// level: probabilities, losses, the logit gradient, the shared
    /// layer's `dw`/`db`/signal row and `d_aux` — over row counts around
    /// the 8-row lane block, class counts around the 8-class register,
    /// auxiliary inputs holding `±0.0` (the skip) and weights holding NaN
    /// and `±∞` (a multiplied skip, or a max that is not NaN-ignoring,
    /// would show). The probabilities match to the NaN sign, which orders
    /// them under `total_cmp` when a decoder ranks classes; the training
    /// outputs match to every bit but a NaN's ([`nan_bits`]).
    #[test]
    fn head_kernels_bit_match_reference_rows() {
        use crate::autoencoder::reference;
        use crate::dense::{Activation, Dense, DenseGrad};
        use crate::simd::{shared_backward, shared_softmax, HeadOut, SharedColumn};

        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u32 << 24) as f32
        };
        let levels = [ds_simd::Level::Scalar, ds_simd::detected()];
        // Four auxiliary nodes per column (the default), one, and nine: more
        // than one lane block forward and one register group backward.
        for (n_cat, width) in [(3usize, 4usize), (3, 1), (2, 9)] {
            let aux_cols = n_cat * width;
            for card in [2usize, 3, 7, 8, 9, 16, 51, 65] {
                let w_cols = card + card % 3; // the padding past `card` is never read
                let mut w: Vec<f32> = (0..(aux_cols + 1) * w_cols)
                    .map(|_| (next() - 0.5) * 6.0)
                    .collect();
                for (i, v) in w.iter_mut().enumerate() {
                    match i % 97 {
                        13 => *v = f32::NAN,
                        41 => *v = f32::INFINITY,
                        71 => *v = f32::NEG_INFINITY,
                        _ => {}
                    }
                }
                let bias: Vec<f32> = (0..w_cols).map(|_| next() - 0.5).collect();
                let shared = Dense {
                    w: Mat::from_vec(aux_cols + 1, w_cols, w),
                    b: bias,
                    act: Activation::Identity,
                };
                for rows in [1usize, 7, 8, 9, 31, 32, 33, 256, 500] {
                    let aux = Mat::from_vec(
                        rows,
                        aux_cols,
                        (0..rows * aux_cols)
                            .map(|_| match next() {
                                u if u < 0.15 => 0.0,
                                u if u < 0.25 => -0.0,
                                u => u * 2.0 - 1.25,
                            })
                            .collect(),
                    );
                    let targets: Vec<u32> =
                        (0..rows).map(|_| (next() * card as f32) as u32).collect();
                    let weights: Vec<f32> = (0..rows).map(|r| (r % 4) as f32 * next()).collect();
                    let start: Vec<f32> = (0..rows).map(|_| next()).collect();
                    let dz_raw = Mat::from_vec(
                        rows,
                        card,
                        (0..rows * card)
                            .map(|i| match i % 23 {
                                3 => -0.0,
                                7 => f32::INFINITY,
                                11 => f32::NAN,
                                _ => next() - 0.5,
                            })
                            .collect(),
                    );
                    for j in 0..n_cat {
                        let signal = reference::signal(&aux, j, width);
                        let mut probs = Mat::zeros(rows, card);
                        reference::shared_probs_column(&shared, &aux, j, width, card, &mut probs);
                        for row_weights in [None, Some(&weights[..])] {
                            let mut dz = probs.clone();
                            let mut losses = start.clone();
                            reference::cross_entropy(
                                &mut dz,
                                &targets,
                                row_weights,
                                &mut losses,
                                true,
                            );
                            let mut grad = DenseGrad {
                                dw: Mat::from_vec(
                                    aux_cols + 1,
                                    w_cols,
                                    vec![0.25; (aux_cols + 1) * w_cols],
                                ),
                                db: vec![-0.5; w_cols],
                            };
                            let mut d_aux =
                                Mat::from_vec(rows, aux_cols, vec![0.0; rows * aux_cols]);
                            reference::shared_backward_column(
                                &shared, &aux, j, width, &dz, &mut grad, &mut d_aux,
                            );
                            let mut raw_grad = DenseGrad {
                                dw: grad.dw.clone(),
                                db: grad.db.clone(),
                            };
                            reference::shared_backward_column(
                                &shared,
                                &aux,
                                j,
                                width,
                                &dz_raw,
                                &mut raw_grad,
                                &mut d_aux.clone(),
                            );
                            let mut loss_only = start.clone();
                            reference::cross_entropy(
                                &mut probs.clone(),
                                &targets,
                                None,
                                &mut loss_only,
                                false,
                            );

                            for level in levels {
                                let at = format!(
                                    "{level:?} width {width} card {card} rows {rows} col {j} weights {}",
                                    row_weights.is_some()
                                );
                                let col = SharedColumn {
                                    aux: aux.data(),
                                    aux_cols,
                                    block: j * width,
                                    width,
                                    w: shared.w.data(),
                                    w_cols,
                                    bias: &shared.b,
                                    signal,
                                    card,
                                };
                                let mut scratch = Vec::new();
                                let mut k_probs = Mat::zeros(rows, card);
                                shared_softmax(
                                    level,
                                    &col,
                                    HeadOut::Probs(k_probs.data_mut()),
                                    &mut scratch,
                                );
                                assert_eq!(bits(&k_probs), bits(&probs), "probs, {at}");

                                let mut k_losses = start.clone();
                                let out = HeadOut::Loss {
                                    targets: &targets,
                                    losses: &mut k_losses,
                                };
                                shared_softmax(level, &col, out, &mut scratch);
                                assert_eq!(nan_bits(&k_losses), nan_bits(&loss_only), "loss, {at}");

                                let mut k_dz = Mat::zeros(rows, card);
                                let mut k_losses = start.clone();
                                let mut k_d_aux = Mat::zeros(rows, aux_cols);
                                let out = HeadOut::Grad {
                                    targets: &targets,
                                    losses: &mut k_losses,
                                    row_weights,
                                    dz: k_dz.data_mut(),
                                    d_aux: k_d_aux.data_mut(),
                                };
                                shared_softmax(level, &col, out, &mut scratch);
                                let mut k_dw = Mat::from_vec(
                                    aux_cols + 1,
                                    w_cols,
                                    vec![0.25; (aux_cols + 1) * w_cols],
                                );
                                let mut k_db = vec![-0.5; w_cols];
                                shared_backward(
                                    level,
                                    &col,
                                    k_dz.data(),
                                    k_dw.data_mut(),
                                    &mut k_db,
                                );
                                assert_eq!(nan_bits(k_dz.data()), nan_bits(dz.data()), "dz, {at}");
                                assert_eq!(
                                    nan_bits(&k_losses),
                                    nan_bits(&losses),
                                    "grad loss, {at}"
                                );
                                assert_eq!(
                                    nan_bits(k_d_aux.data()),
                                    nan_bits(d_aux.data()),
                                    "d_aux, {at}"
                                );
                                assert_eq!(
                                    nan_bits(k_dw.data()),
                                    nan_bits(grad.dw.data()),
                                    "dw, {at}"
                                );
                                assert_eq!(nan_bits(&k_db), nan_bits(&grad.db), "db, {at}");

                                shared_backward(
                                    level,
                                    &col,
                                    dz_raw.data(),
                                    k_dw.data_mut(),
                                    &mut k_db,
                                );
                                assert_eq!(
                                    nan_bits(k_dw.data()),
                                    nan_bits(raw_grad.dw.data()),
                                    "dw of a raw dz, {at}"
                                );
                                assert_eq!(
                                    nan_bits(&k_db),
                                    nan_bits(&raw_grad.db),
                                    "db of a raw dz, {at}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Bits of `v` with every NaN as `f32::NAN`'s: Rust leaves the sign
    /// and payload of a NaN result unspecified (LLVM may commute an add of
    /// two NaNs), so they are no part of a schedule. Every other bit is.
    fn nan_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        let a = arb_mat(137, 111, 7);
        let b = arb_mat(111, 101, 8);
        let bt = arb_mat(101, 111, 9);
        let serial = ds_exec::with_thread_limit(1, || (a.matmul(&b), a.matmul_t(&bt)));
        for limit in [2, 8] {
            let parallel = ds_exec::with_thread_limit(limit, || (a.matmul(&b), a.matmul_t(&bt)));
            assert_eq!(serial.0.data(), parallel.0.data(), "matmul, limit {limit}");
            assert_eq!(
                serial.1.data(),
                parallel.1.data(),
                "matmul_t, limit {limit}"
            );
        }
    }

    /// Bit-compare helper: `f32` equality would let `-0.0 == 0.0` slip.
    fn bits(m: &Mat) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `DS_SIMD=off` (`[f32; 8]` lanes) and the detected level must agree
    /// bit-for-bit on all three products, small and blocked paths alike.
    /// Vacuous on scalar-only hosts — the identity still holds.
    #[test]
    fn simd_level_never_changes_results() {
        use ds_simd::Level;
        let shapes = [(13usize, 21usize, 9usize), (131, 129, 67)];
        for (seed, &(m_, k, n)) in shapes.iter().enumerate() {
            let a = arb_mat(m_, k, seed as u64 * 3 + 10);
            let b = arb_mat(k, n, seed as u64 * 3 + 11);
            let bt = arb_mat(n, k, seed as u64 * 3 + 12);
            let at = arb_mat(k, m_, seed as u64 * 3 + 13);
            let fast = (a.matmul(&b), a.matmul_t(&bt), at.t_matmul(&b));
            let slow = ds_simd::with_level(Level::Scalar, || {
                (a.matmul(&b), a.matmul_t(&bt), at.t_matmul(&b))
            });
            assert_eq!(bits(&fast.0), bits(&slow.0), "matmul {m_}x{k}x{n}");
            assert_eq!(bits(&fast.1), bits(&slow.1), "matmul_t {m_}x{k}x{n}");
            assert_eq!(bits(&fast.2), bits(&slow.2), "t_matmul {m_}x{k}x{n}");
        }
    }
}
