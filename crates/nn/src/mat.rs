//! Row-major `f32` matrices with the operations backpropagation needs.
//!
//! The products run on the [`crate::simd`] micro-kernels (AVX2/NEON/
//! scalar, selected once per call via `ds_simd::active()` *before* any
//! fan-out, so pool workers inherit the caller's choice). Once `m·k·n`
//! crosses [`PAR_MIN_ELEMS`] the row ranges additionally fan out over the
//! `ds-exec` pool. Every kernel variant implements the same fixed
//! accumulation schedule (`matmul`/`t_matmul`: strictly ascending `p` per
//! element; `matmul_t`: 8-lane partial sums + a pinned reduction tree —
//! see DESIGN.md §3f), and chunk boundaries depend only on the shapes —
//! so results are bit-identical across any `DS_THREADS` *and* `DS_SIMD`
//! setting (the determinism contract decompression relies on). No BLAS
//! dependency required.

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

    /// `DS_SIMD=off` (scalar fallback) and the detected level must agree
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
