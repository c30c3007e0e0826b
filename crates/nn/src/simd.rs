//! SIMD micro-kernels behind runtime dispatch (`ds-simd`).
//!
//! Every kernel here exists in up to three variants — AVX2, NEON, and a
//! portable scalar fallback — implementing one *fixed accumulation
//! schedule*, so the selected [`Level`] never changes an output bit
//! (DESIGN.md §3f). Two schedules cover all three products:
//!
//! * **Order-preserving axpy** ([`matmul_rows`], [`t_matmul`]): each
//!   output element accumulates `o[j] += c · b[j]` in strictly ascending
//!   `p` order. Vectorizing along `j` keeps every element's operation
//!   sequence identical (one rounded mul, one rounded add per term — FMA
//!   is deliberately *not* used), so AVX2/NEON/scalar agree bit-for-bit
//!   by construction.
//! * **Lane-group dot** ([`matmul_t_rows`]): a dot product holds
//!   [`ds_simd::LANE_GROUP`] = 8 partial sums — lane `l` accumulates the
//!   terms `p ≡ l (mod 8)` in ascending `p` — then reduces through the
//!   pinned tree in [`reduce_lanes`]. The scalar fallback implements the
//!   same 8 lanes and the same tree, making this schedule the reference
//!   semantics; AVX2 maps a dot's lanes onto one 256-bit register (eight
//!   dots in flight, or one register per lane across eight output
//!   columns when `k` is short), NEON onto two 128-bit ones, neither
//!   changing a single operation.
//!
//! The AVX2 kernels also choose register shapes by the product's shape
//! (`k`, `n`); every shape runs the schedule above, so the choice never
//! changes a bit either (DESIGN.md §3f, "Register shapes").
//!
//! The categorical head's kernels ([`shared_softmax`], [`shared_backward`])
//! keep the per-row code's own order instead, with rows (or classes) as
//! the lanes: written once over [`Lanes`], they have a scalar and an AVX2
//! variant (DESIGN.md §3f, "Row lanes").
//!
//! Dispatch reads a [`Level`] chosen by the *caller* (`mat.rs` resolves
//! `ds_simd::active()` once per public entry point, before any `ds-exec`
//! fan-out) so pool workers use the caller's kernel, not their own
//! thread-local view.
//!
//! The `#[target_feature]` functions are `unsafe`, private, and only
//! reachable through the `match` on the runtime-detected level below —
//! pinned by ds-lint's `target-feature-gate` rule.

use ds_simd::Level;

/// Depth (`k`) panel width for the blocked `matmul` kernel: a panel of B
/// (`KC × n` floats) is streamed repeatedly while it is still cache-hot.
const KC: usize = 256;

// ---------------------------------------------------------------------------
// out[row0..row0+r] = A[row0..row0+r] · B   (order-preserving axpy)
// ---------------------------------------------------------------------------

/// Blocked/tiled kernel for `out[row0..row0+r] = A[row0..row0+r] · B`.
///
/// Loop order is `kb → row-quad → p → j`: for a fixed output row, `p`
/// ascends within each `kb` panel and panels ascend, so every element is
/// accumulated in exactly the same order at every [`Level`]. Four output
/// rows share each streamed `B` row (register tiling).
pub(crate) fn matmul_rows(
    level: Level,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 level is only ever produced by ds-simd after
        // `is_x86_feature_detected!("avx2")` succeeded on this host.
        Level::Avx2 => unsafe { matmul_rows_avx2(a, b, k, n, row0, out_rows) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline; ds-simd only
        // reports the Neon level when compiled for aarch64.
        Level::Neon => unsafe { matmul_rows_neon(a, b, k, n, row0, out_rows) },
        _ => matmul_rows_scalar(a, b, k, n, row0, out_rows),
    }
}

/// Portable reference for [`matmul_rows`] — identical maths, plain Rust.
fn matmul_rows_scalar(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, out_rows: &mut [f32]) {
    let r = out_rows.len() / n;
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KC).min(k);
        let mut i = 0;
        // 4-row micro-kernel.
        while i + 4 <= r {
            let quad = &mut out_rows[i * n..(i + 4) * n];
            let (q0, rest) = quad.split_at_mut(n);
            let (q1, rest) = rest.split_at_mut(n);
            let (q2, q3) = rest.split_at_mut(n);
            let a0 = &a[(row0 + i) * k..(row0 + i + 1) * k];
            let a1 = &a[(row0 + i + 1) * k..(row0 + i + 2) * k];
            let a2 = &a[(row0 + i + 2) * k..(row0 + i + 3) * k];
            let a3 = &a[(row0 + i + 3) * k..(row0 + i + 4) * k];
            for p in kb..kend {
                let (c0, c1, c2, c3) = (a0[p], a1[p], a2[p], a3[p]);
                // Skipping is *not* a no-op in IEEE: `-0.0 + (+0.0 · b)`
                // is `+0.0`, and `0.0 · ∞` is NaN. The skip exploits ReLU
                // sparsity, so the predicate is part of the schedule
                // (DESIGN.md §3f) and every level evaluates it identically.
                if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                let iter = q0
                    .iter_mut()
                    .zip(q1.iter_mut())
                    .zip(q2.iter_mut())
                    .zip(q3.iter_mut())
                    .zip(b_row.iter());
                for ((((o0, o1), o2), o3), &bv) in iter {
                    *o0 += c0 * bv;
                    *o1 += c1 * bv;
                    *o2 += c2 * bv;
                    *o3 += c3 * bv;
                }
            }
            i += 4;
        }
        // Remainder rows, one at a time.
        while i < r {
            let o_row = &mut out_rows[i * n..(i + 1) * n];
            let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
            for (p, &c) in a_row.iter().enumerate().take(kend).skip(kb) {
                if c == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += c * bv;
                }
            }
            i += 1;
        }
        kb = kend;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    use std::arch::x86_64::*;
    let r = out_rows.len() / n;
    // Packed-coefficient buffers, filled per quad/panel below; entries
    // past `live` are never read, so one zeroing per call suffices.
    let mut coef = [0.0f32; 4 * KC];
    let mut boff = [0usize; KC];
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KC).min(k);
        let mut i = 0;
        while i + 4 <= r {
            let quad = &mut out_rows[i * n..(i + 4) * n];
            let (q0, rest) = quad.split_at_mut(n);
            let (q1, rest) = rest.split_at_mut(n);
            let (q2, q3) = rest.split_at_mut(n);
            let a0 = &a[(row0 + i) * k..(row0 + i + 1) * k];
            let a1 = &a[(row0 + i + 1) * k..(row0 + i + 2) * k];
            let a2 = &a[(row0 + i + 2) * k..(row0 + i + 3) * k];
            let a3 = &a[(row0 + i + 3) * k..(row0 + i + 4) * k];
            // The all-zero-quad skip predicate and the four coefficient
            // loads are j-invariant, so evaluate them once per quad/panel,
            // packing the surviving p's coefficients (and their B-row
            // offsets) contiguously. The same p's are skipped as in the
            // scalar schedule — only the redundant re-evaluation per
            // j-block goes away.
            let mut live = 0usize;
            for p in kb..kend {
                let (c0, c1, c2, c3) = (a0[p], a1[p], a2[p], a3[p]);
                if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                    continue;
                }
                coef[4 * live] = c0;
                coef[4 * live + 1] = c1;
                coef[4 * live + 2] = c2;
                coef[4 * live + 3] = c3;
                boff[live] = p * n;
                live += 1;
            }
            // Register tiling along `j`: the 4×16 output block lives in
            // eight ymm accumulators for the whole `p` panel, so the only
            // per-`p` memory traffic is two B loads and four broadcasts.
            // Per element this is still `mul` then `add` in ascending `p`
            // order (never FMA), and spilling the accumulators to `out`
            // between panels is exact — bit-identical to the scalar
            // schedule.
            let mut j = 0;
            while j + 16 <= n {
                let mut s00 = _mm256_loadu_ps(q0.as_ptr().add(j));
                let mut s01 = _mm256_loadu_ps(q0.as_ptr().add(j + 8));
                let mut s10 = _mm256_loadu_ps(q1.as_ptr().add(j));
                let mut s11 = _mm256_loadu_ps(q1.as_ptr().add(j + 8));
                let mut s20 = _mm256_loadu_ps(q2.as_ptr().add(j));
                let mut s21 = _mm256_loadu_ps(q2.as_ptr().add(j + 8));
                let mut s30 = _mm256_loadu_ps(q3.as_ptr().add(j));
                let mut s31 = _mm256_loadu_ps(q3.as_ptr().add(j + 8));
                for t in 0..live {
                    let cp = coef.as_ptr().add(4 * t);
                    let bp = b.as_ptr().add(boff[t] + j);
                    let bv0 = _mm256_loadu_ps(bp);
                    let bv1 = _mm256_loadu_ps(bp.add(8));
                    let v0 = _mm256_set1_ps(*cp);
                    s00 = _mm256_add_ps(s00, _mm256_mul_ps(v0, bv0));
                    s01 = _mm256_add_ps(s01, _mm256_mul_ps(v0, bv1));
                    let v1 = _mm256_set1_ps(*cp.add(1));
                    s10 = _mm256_add_ps(s10, _mm256_mul_ps(v1, bv0));
                    s11 = _mm256_add_ps(s11, _mm256_mul_ps(v1, bv1));
                    let v2 = _mm256_set1_ps(*cp.add(2));
                    s20 = _mm256_add_ps(s20, _mm256_mul_ps(v2, bv0));
                    s21 = _mm256_add_ps(s21, _mm256_mul_ps(v2, bv1));
                    let v3 = _mm256_set1_ps(*cp.add(3));
                    s30 = _mm256_add_ps(s30, _mm256_mul_ps(v3, bv0));
                    s31 = _mm256_add_ps(s31, _mm256_mul_ps(v3, bv1));
                }
                _mm256_storeu_ps(q0.as_mut_ptr().add(j), s00);
                _mm256_storeu_ps(q0.as_mut_ptr().add(j + 8), s01);
                _mm256_storeu_ps(q1.as_mut_ptr().add(j), s10);
                _mm256_storeu_ps(q1.as_mut_ptr().add(j + 8), s11);
                _mm256_storeu_ps(q2.as_mut_ptr().add(j), s20);
                _mm256_storeu_ps(q2.as_mut_ptr().add(j + 8), s21);
                _mm256_storeu_ps(q3.as_mut_ptr().add(j), s30);
                _mm256_storeu_ps(q3.as_mut_ptr().add(j + 8), s31);
                j += 16;
            }
            // One-vector block for 8 ≤ remaining < 16 columns.
            while j + 8 <= n {
                let mut s0 = _mm256_loadu_ps(q0.as_ptr().add(j));
                let mut s1 = _mm256_loadu_ps(q1.as_ptr().add(j));
                let mut s2 = _mm256_loadu_ps(q2.as_ptr().add(j));
                let mut s3 = _mm256_loadu_ps(q3.as_ptr().add(j));
                for t in 0..live {
                    let cp = coef.as_ptr().add(4 * t);
                    let bv = _mm256_loadu_ps(b.as_ptr().add(boff[t] + j));
                    s0 = _mm256_add_ps(s0, _mm256_mul_ps(_mm256_set1_ps(*cp), bv));
                    s1 = _mm256_add_ps(s1, _mm256_mul_ps(_mm256_set1_ps(*cp.add(1)), bv));
                    s2 = _mm256_add_ps(s2, _mm256_mul_ps(_mm256_set1_ps(*cp.add(2)), bv));
                    s3 = _mm256_add_ps(s3, _mm256_mul_ps(_mm256_set1_ps(*cp.add(3)), bv));
                }
                _mm256_storeu_ps(q0.as_mut_ptr().add(j), s0);
                _mm256_storeu_ps(q1.as_mut_ptr().add(j), s1);
                _mm256_storeu_ps(q2.as_mut_ptr().add(j), s2);
                _mm256_storeu_ps(q3.as_mut_ptr().add(j), s3);
                j += 8;
            }
            // Scalar tail columns, same p-ascending order per element.
            while j < n {
                let (mut s0, mut s1) = (q0[j], q1[j]);
                let (mut s2, mut s3) = (q2[j], q3[j]);
                for t in 0..live {
                    let bv = b[boff[t] + j];
                    s0 += coef[4 * t] * bv;
                    s1 += coef[4 * t + 1] * bv;
                    s2 += coef[4 * t + 2] * bv;
                    s3 += coef[4 * t + 3] * bv;
                }
                q0[j] = s0;
                q1[j] = s1;
                q2[j] = s2;
                q3[j] = s3;
                j += 1;
            }
            i += 4;
        }
        while i < r {
            let o_row = &mut out_rows[i * n..(i + 1) * n];
            let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
            for (p, &c) in a_row.iter().enumerate().take(kend).skip(kb) {
                if c == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                axpy_avx2_body(o_row, c, b_row);
            }
            i += 1;
        }
        kb = kend;
    }
}

/// `o[j] += c · b[j]` over a whole row, AVX2 body. `#[inline(always)]`
/// into the `#[target_feature]` callers above/below — never called from
/// non-AVX2 code.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn axpy_avx2_body(o: &mut [f32], c: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = o.len().min(b.len());
    let cv = _mm256_set1_ps(c);
    let mut j = 0;
    while j + 8 <= n {
        let bv = _mm256_loadu_ps(b.as_ptr().add(j));
        let ov = _mm256_loadu_ps(o.as_ptr().add(j));
        _mm256_storeu_ps(
            o.as_mut_ptr().add(j),
            _mm256_add_ps(ov, _mm256_mul_ps(cv, bv)),
        );
        j += 8;
    }
    while j < n {
        o[j] += c * b[j];
        j += 1;
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn matmul_rows_neon(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    use std::arch::aarch64::*;
    let r = out_rows.len() / n;
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KC).min(k);
        let mut i = 0;
        while i + 4 <= r {
            let quad = &mut out_rows[i * n..(i + 4) * n];
            let (q0, rest) = quad.split_at_mut(n);
            let (q1, rest) = rest.split_at_mut(n);
            let (q2, q3) = rest.split_at_mut(n);
            let a0 = &a[(row0 + i) * k..(row0 + i + 1) * k];
            let a1 = &a[(row0 + i + 1) * k..(row0 + i + 2) * k];
            let a2 = &a[(row0 + i + 2) * k..(row0 + i + 3) * k];
            let a3 = &a[(row0 + i + 3) * k..(row0 + i + 4) * k];
            for p in kb..kend {
                let (c0, c1, c2, c3) = (a0[p], a1[p], a2[p], a3[p]);
                if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                let (v0, v1) = (vdupq_n_f32(c0), vdupq_n_f32(c1));
                let (v2, v3) = (vdupq_n_f32(c2), vdupq_n_f32(c3));
                let mut j = 0;
                // `mul` then `add` — never a fused multiply-accumulate.
                while j + 4 <= n {
                    let bv = vld1q_f32(b_row.as_ptr().add(j));
                    let t0 = vld1q_f32(q0.as_ptr().add(j));
                    vst1q_f32(q0.as_mut_ptr().add(j), vaddq_f32(t0, vmulq_f32(v0, bv)));
                    let t1 = vld1q_f32(q1.as_ptr().add(j));
                    vst1q_f32(q1.as_mut_ptr().add(j), vaddq_f32(t1, vmulq_f32(v1, bv)));
                    let t2 = vld1q_f32(q2.as_ptr().add(j));
                    vst1q_f32(q2.as_mut_ptr().add(j), vaddq_f32(t2, vmulq_f32(v2, bv)));
                    let t3 = vld1q_f32(q3.as_ptr().add(j));
                    vst1q_f32(q3.as_mut_ptr().add(j), vaddq_f32(t3, vmulq_f32(v3, bv)));
                    j += 4;
                }
                while j < n {
                    let bv = b_row[j];
                    q0[j] += c0 * bv;
                    q1[j] += c1 * bv;
                    q2[j] += c2 * bv;
                    q3[j] += c3 * bv;
                    j += 1;
                }
            }
            i += 4;
        }
        while i < r {
            let o_row = &mut out_rows[i * n..(i + 1) * n];
            let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
            for (p, &c) in a_row.iter().enumerate().take(kend).skip(kb) {
                if c == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                axpy_neon_body(o_row, c, b_row);
            }
            i += 1;
        }
        kb = kend;
    }
}

/// NEON twin of [`axpy_avx2_body`].
#[cfg(target_arch = "aarch64")]
#[inline(always)]
unsafe fn axpy_neon_body(o: &mut [f32], c: f32, b: &[f32]) {
    use std::arch::aarch64::*;
    let n = o.len().min(b.len());
    let cv = vdupq_n_f32(c);
    let mut j = 0;
    while j + 4 <= n {
        let bv = vld1q_f32(b.as_ptr().add(j));
        let ov = vld1q_f32(o.as_ptr().add(j));
        vst1q_f32(o.as_mut_ptr().add(j), vaddq_f32(ov, vmulq_f32(cv, bv)));
        j += 4;
    }
    while j < n {
        o[j] += c * b[j];
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// out[row0..row0+r] = A[row0..row0+r] · Bᵀ   (lane-group dot)
// ---------------------------------------------------------------------------

/// The pinned reduction tree closing every lane-group dot product:
///
/// ```text
/// s = ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
/// ```
///
/// This is the natural AVX2 shape (`extractf128`-add, `movehl`-add,
/// `shuffle`-add); the scalar and NEON paths execute the same five adds
/// in the same association, so the tree is part of the schedule, not an
/// implementation detail.
#[inline]
fn reduce_lanes(l: [f32; 8]) -> f32 {
    let q0 = l[0] + l[4];
    let q1 = l[1] + l[5];
    let q2 = l[2] + l[6];
    let q3 = l[3] + l[7];
    (q0 + q2) + (q1 + q3)
}

/// Lane-group partial sums of `Σ a[p]·x[p]`: lane `l` accumulates the
/// terms `p ≡ l (mod 8)` in ascending `p`; the tail (`len % 8` terms)
/// lands in lanes `0..len%8` only — untouched lanes are *not* folded
/// with `+0.0`, which would quietly turn a `-0.0` partial sum positive.
#[inline]
fn dot_lanes_scalar(a: &[f32], x: &[f32]) -> [f32; 8] {
    let len = a.len().min(x.len());
    let full = len - len % 8;
    let mut lanes = [0.0f32; 8];
    let mut p = 0;
    while p < full {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += a[p + l] * x[p + l];
        }
        p += 8;
    }
    for l in 0..(len - full) {
        lanes[l] += a[full + l] * x[full + l];
    }
    lanes
}

/// Tiled kernel for `out[row0..row0+r] = A[row0..row0+r] · Bᵀ`.
///
/// Every output element is an independent lane-group dot product (8
/// ascending partial sums + the [`reduce_lanes`] tree) — the same
/// schedule at every [`Level`], so results are bit-identical across
/// scalar/AVX2/NEON and any thread count.
pub(crate) fn matmul_t_rows(
    level: Level,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only reported after runtime AVX2 detection.
        Level::Avx2 => unsafe { matmul_t_rows_avx2(a, b, k, n, row0, out_rows) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64 builds.
        Level::Neon => unsafe { matmul_t_rows_neon(a, b, k, n, row0, out_rows) },
        _ => matmul_t_rows_scalar(a, b, k, n, row0, out_rows),
    }
}

/// Portable reference for [`matmul_t_rows`]: the lane-group schedule in
/// plain Rust. `B` rows are the outer loop so each stays cache-hot
/// across the chunk's `A` rows.
fn matmul_t_rows_scalar(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    let r = out_rows.len() / n;
    for j in 0..n {
        let b_row = &b[j * k..(j + 1) * k];
        for i in 0..r {
            let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
            out_rows[i * n + j] = reduce_lanes(dot_lanes_scalar(a_row, b_row));
        }
    }
}

/// Depths below this take the transposed narrow path of
/// `matmul_t_rows_avx2`: every lane holds at most two terms, so a
/// per-element dot would spend more on its reduction than on its terms.
#[cfg(target_arch = "x86_64")]
const NARROW_K: usize = 2 * ds_simd::LANE_GROUP;

/// Output columns per transposed `B` panel of the narrow path.
#[cfg(target_arch = "x86_64")]
const NARROW_COLS: usize = 64;

/// AVX2 [`matmul_t_rows`]. Two register shapes, one schedule:
///
/// * `k ≥ NARROW_K`: a 4-row × 2-column output tile keeps eight
///   independent lane-group accumulators in flight (the dependent add
///   chain of a single dot is what bounded the kernel), then closes all
///   eight through the pinned tree at once ([`reduce8_avx2`]).
/// * `k < NARROW_K`: `B` is transposed once per panel, so eight output
///   columns share each broadcast `a[i][p]`; lane `l` of the schedule
///   becomes a whole register of eight columns' lane-`l` partials, and the
///   tree becomes elementwise vector adds.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_t_rows_avx2(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    use std::arch::x86_64::*;
    if k < NARROW_K {
        matmul_t_narrow_avx2(a, b, k, n, row0, out_rows);
        return;
    }
    let r = out_rows.len() / n;
    let full = k - k % 8;
    let tail = tail_mask_avx2(k - full);
    let mut i = 0;
    while i + 4 <= r {
        // Whole rows are sliced (bounds-checked) before their pointers are
        // taken: every load below stays inside them.
        let ap: [*const f32; 4] = std::array::from_fn(|ii| a[(row0 + i + ii) * k..][..k].as_ptr());
        let mut j = 0;
        while j + 2 <= n {
            let bp = [b[j * k..][..k].as_ptr(), b[(j + 1) * k..][..k].as_ptr()];
            // acc[ii + 4·jj] is the lane vector of output (i+ii, j+jj):
            // lane l accumulates p ≡ l (mod 8) ascending, exactly
            // `dot_lanes_scalar`'s lanes.
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut p = 0;
            while p < full {
                let x0 = _mm256_loadu_ps(bp[0].add(p));
                let x1 = _mm256_loadu_ps(bp[1].add(p));
                for ii in 0..4 {
                    let av = _mm256_loadu_ps(ap[ii].add(p));
                    acc[ii] = _mm256_add_ps(acc[ii], _mm256_mul_ps(av, x0));
                    acc[ii + 4] = _mm256_add_ps(acc[ii + 4], _mm256_mul_ps(av, x1));
                }
                p += 8;
            }
            if let Some(mask) = tail {
                // The k % 8 tail terms land in lanes 0..k%8; the blend
                // leaves every other lane untouched (never `+ 0.0`).
                let live = _mm256_castsi256_ps(mask);
                let x0 = _mm256_maskload_ps(bp[0].add(full), mask);
                let x1 = _mm256_maskload_ps(bp[1].add(full), mask);
                for ii in 0..4 {
                    let av = _mm256_maskload_ps(ap[ii].add(full), mask);
                    let s0 = _mm256_add_ps(acc[ii], _mm256_mul_ps(av, x0));
                    let s1 = _mm256_add_ps(acc[ii + 4], _mm256_mul_ps(av, x1));
                    acc[ii] = _mm256_blendv_ps(acc[ii], s0, live);
                    acc[ii + 4] = _mm256_blendv_ps(acc[ii + 4], s1, live);
                }
            }
            let mut sums = [0.0f32; 8];
            _mm256_storeu_ps(sums.as_mut_ptr(), reduce8_avx2(acc));
            for ii in 0..4 {
                out_rows[(i + ii) * n + j] = sums[ii];
                out_rows[(i + ii) * n + j + 1] = sums[ii + 4];
            }
            j += 2;
        }
        if j < n {
            for ii in 0..4 {
                out_rows[(i + ii) * n + j] =
                    dot_avx2(&a[(row0 + i + ii) * k..][..k], &b[j * k..][..k]);
            }
        }
        i += 4;
    }
    while i < r {
        let a_row = &a[(row0 + i) * k..][..k];
        for j in 0..n {
            out_rows[i * n + j] = dot_avx2(a_row, &b[j * k..][..k]);
        }
        i += 1;
    }
}

/// The `k < NARROW_K` shape of [`matmul_t_rows_avx2`].
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_t_narrow_avx2(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert!(k < NARROW_K);
    let r = out_rows.len() / n;
    // bt[p·NARROW_COLS + jj] = b[jb + jj][p]. The 8 columns past a short
    // panel's end hold zeros or an earlier panel's values; their results
    // are computed and discarded.
    let mut bt = [0.0f32; NARROW_K * NARROW_COLS + 8];
    let mut jb = 0;
    while jb < n {
        let nb = (n - jb).min(NARROW_COLS);
        for jj in 0..nb {
            let b_row = &b[(jb + jj) * k..][..k];
            for (p, &v) in b_row.iter().enumerate() {
                bt[p * NARROW_COLS + jj] = v;
            }
        }
        for i in 0..r {
            let a_row = &a[(row0 + i) * k..][..k];
            let o_row = &mut out_rows[i * n + jb..][..nb];
            let mut jj = 0;
            while jj < nb {
                let col = bt.as_ptr().add(jj);
                let zero = _mm256_setzero_ps();
                // lane[l]: eight columns' lane-l partial sums, the terms
                // p = l and p = l + 8 in that order when they exist.
                let mut lane = [zero; 8];
                for (l, acc) in lane.iter_mut().enumerate() {
                    if l < k {
                        let t = _mm256_mul_ps(
                            _mm256_set1_ps(a_row[l]),
                            _mm256_loadu_ps(col.add(l * NARROW_COLS)),
                        );
                        *acc = _mm256_add_ps(*acc, t);
                    }
                    if l + 8 < k {
                        let p = l + 8;
                        let t = _mm256_mul_ps(
                            _mm256_set1_ps(a_row[p]),
                            _mm256_loadu_ps(col.add(p * NARROW_COLS)),
                        );
                        *acc = _mm256_add_ps(*acc, t);
                    }
                }
                let q0 = _mm256_add_ps(lane[0], lane[4]);
                let q1 = _mm256_add_ps(lane[1], lane[5]);
                let q2 = _mm256_add_ps(lane[2], lane[6]);
                let q3 = _mm256_add_ps(lane[3], lane[7]);
                let s = _mm256_add_ps(_mm256_add_ps(q0, q2), _mm256_add_ps(q1, q3));
                let mut sums = [0.0f32; 8];
                _mm256_storeu_ps(sums.as_mut_ptr(), s);
                let w = (nb - jj).min(8);
                o_row[jj..jj + w].copy_from_slice(&sums[..w]);
                jj += 8;
            }
        }
        jb += nb;
    }
}

/// One lane-group dot at AVX2 width — the remainder rows and column of
/// the 4×2 tile. Lane l of `acc` is exactly `lanes[l]` of the scalar
/// schedule.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_avx2(a_row: &[f32], b_row: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let k = a_row.len().min(b_row.len());
    let full = k - k % 8;
    let mut acc = _mm256_setzero_ps();
    let mut p = 0;
    while p < full {
        let av = _mm256_loadu_ps(a_row.as_ptr().add(p));
        let xv = _mm256_loadu_ps(b_row.as_ptr().add(p));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(av, xv));
        p += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for l in 0..(k - full) {
        lanes[l] += a_row[full + l] * b_row[full + l];
    }
    reduce_lanes(lanes)
}

/// Mask selecting lanes `0..t`, or `None` when no vector is partial
/// (`t` is 0 or 8).
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tail_mask_avx2(t: usize) -> Option<std::arch::x86_64::__m256i> {
    use std::arch::x86_64::*;
    const ONES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    (0 < t && t < 8).then(|| _mm256_loadu_si256(ONES[8 - t..].as_ptr().cast()))
}

/// [`reduce_lanes`] of eight lane vectors at once: lane `t` of the result
/// is `reduce_lanes(v[t])`, through the same five adds in the same
/// association (`l0+l4` … as a 128-bit half add, then `q0+q2` / `q1+q3`,
/// then their sum), with the lanes transposed by shuffles instead of
/// extracted one vector at a time.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn reduce8_avx2(v: [std::arch::x86_64::__m256; 8]) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    // [q(x) | q(y)] with q(x) = [x0+x4, x1+x5, x2+x6, x3+x7]; pairing v_t
    // with v_{t+4} makes the result come out in order [v0 … v7].
    let q04 = _mm256_add_ps(
        _mm256_permute2f128_ps(v[0], v[4], 0x20),
        _mm256_permute2f128_ps(v[0], v[4], 0x31),
    );
    let q15 = _mm256_add_ps(
        _mm256_permute2f128_ps(v[1], v[5], 0x20),
        _mm256_permute2f128_ps(v[1], v[5], 0x31),
    );
    let q26 = _mm256_add_ps(
        _mm256_permute2f128_ps(v[2], v[6], 0x20),
        _mm256_permute2f128_ps(v[2], v[6], 0x31),
    );
    let q37 = _mm256_add_ps(
        _mm256_permute2f128_ps(v[3], v[7], 0x20),
        _mm256_permute2f128_ps(v[3], v[7], 0x31),
    );
    // Per 128-bit half, [q0+q2, q1+q3] of two vectors: r01 holds v0, v1
    // (low half) and v4, v5 (high half); r23 holds v2, v3 and v6, v7.
    let r01 = _mm256_add_ps(
        _mm256_shuffle_ps(q04, q15, 0x44),
        _mm256_shuffle_ps(q04, q15, 0xEE),
    );
    let r23 = _mm256_add_ps(
        _mm256_shuffle_ps(q26, q37, 0x44),
        _mm256_shuffle_ps(q26, q37, 0xEE),
    );
    // (q0+q2) + (q1+q3) per vector.
    _mm256_add_ps(
        _mm256_shuffle_ps(r01, r23, 0x88),
        _mm256_shuffle_ps(r01, r23, 0xDD),
    )
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn matmul_t_rows_neon(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    use std::arch::aarch64::*;
    let r = out_rows.len() / n;
    let full = k - k % 8;
    for j in 0..n {
        let b_row = &b[j * k..(j + 1) * k];
        for i in 0..r {
            let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
            // Two q-registers hold the 8-lane group: acc_lo = lanes 0..4,
            // acc_hi = lanes 4..8 — same partial sums as scalar/AVX2.
            let mut acc_lo = vdupq_n_f32(0.0);
            let mut acc_hi = vdupq_n_f32(0.0);
            let mut p = 0;
            while p < full {
                let a_lo = vld1q_f32(a_row.as_ptr().add(p));
                let x_lo = vld1q_f32(b_row.as_ptr().add(p));
                acc_lo = vaddq_f32(acc_lo, vmulq_f32(a_lo, x_lo));
                let a_hi = vld1q_f32(a_row.as_ptr().add(p + 4));
                let x_hi = vld1q_f32(b_row.as_ptr().add(p + 4));
                acc_hi = vaddq_f32(acc_hi, vmulq_f32(a_hi, x_hi));
                p += 8;
            }
            let mut lanes = [0.0f32; 8];
            vst1q_f32(lanes.as_mut_ptr(), acc_lo);
            vst1q_f32(lanes.as_mut_ptr().add(4), acc_hi);
            for l in 0..(k - full) {
                lanes[l] += a_row[full + l] * b_row[full + l];
            }
            out_rows[i * n + j] = reduce_lanes(lanes);
        }
    }
}

// ---------------------------------------------------------------------------
// out = Aᵀ · B   (order-preserving axpy, serial)
// ---------------------------------------------------------------------------

/// Kernel for `out = Aᵀ · B` (`A` is `k×m`, `B` is `k×n`, `out` is
/// `m×n`, all row-major). Each output element accumulates in ascending
/// `p` order with one rounded mul + add per term — bit-identical across
/// levels, like [`matmul_rows`].
pub(crate) fn t_matmul(
    level: Level,
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        a.len() >= k * m && b.len() >= k * n && out.len() >= m * n,
        "t_matmul operand shorter than its shape"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only reported after runtime AVX2 detection, and
        // the assert above bounds every pointer the kernel offsets.
        Level::Avx2 => unsafe { t_matmul_avx2(a, b, k, m, n, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64 builds.
        Level::Neon => unsafe { t_matmul_neon(a, b, k, m, n, out) },
        _ => t_matmul_scalar(a, b, k, m, n, out),
    }
}

/// Portable reference for [`t_matmul`].
fn t_matmul_scalar(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &c) in a_row.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            let o_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += c * bv;
            }
        }
    }
}

/// Floats of `B` one depth panel of `t_matmul_avx2` may span (32 KiB), so
/// the panel stays in L1 while every output row streams over it.
#[cfg(target_arch = "x86_64")]
const T_PANEL_FLOATS: usize = 8 * 1024;

/// AVX2 [`t_matmul`]. From one vector of columns on, each output row
/// packs its nonzero coefficients `a[p][i]` once per depth panel, in
/// ascending `p`, and then runs 32-column register blocks (then 8-column
/// ones, then scalars) over that list: per element the same skipped terms,
/// the same `mul`/`add` in the same order as the axpy form, with the row
/// held in registers instead of reloaded per `p`. Panels ascend and split
/// `k` evenly, each no more than `T_PANEL_FLOATS` of `B`; a row's partial
/// sums are stored between panels, which is exact. Below one vector,
/// [`t_matmul_narrow_avx2`].
///
/// # Safety
/// The host must support AVX2, and `a`, `b` must hold the rows the shape
/// names (the pointer offsets are derived from it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn t_matmul_avx2(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    if n < ds_simd::LANE_GROUP {
        t_matmul_narrow_avx2(a, b, k, m, n, out);
        return;
    }
    let panels = k.div_ceil((T_PANEL_FLOATS / n).clamp(1, KC)).max(1);
    let depth = k.div_ceil(panels);
    let mut coef = [0.0f32; KC];
    let mut boff = [0usize; KC];
    let mut kb = 0;
    while kb < k {
        let kend = (kb + depth).min(k);
        for i in 0..m {
            let o_row = &mut out[i * n..(i + 1) * n];
            let mut live = 0usize;
            for p in kb..kend {
                let c = a[p * m + i];
                if c == 0.0 {
                    continue;
                }
                coef[live] = c;
                boff[live] = p * n;
                live += 1;
            }
            let (coef, boff) = (&coef[..live], &boff[..live]);
            let o = o_row.as_mut_ptr();
            let mut j = 0;
            while j + 32 <= n {
                let mut s0 = _mm256_loadu_ps(o.add(j));
                let mut s1 = _mm256_loadu_ps(o.add(j + 8));
                let mut s2 = _mm256_loadu_ps(o.add(j + 16));
                let mut s3 = _mm256_loadu_ps(o.add(j + 24));
                for (&c, &off) in coef.iter().zip(boff) {
                    let cv = _mm256_set1_ps(c);
                    let bp = b.as_ptr().add(off + j);
                    s0 = _mm256_add_ps(s0, _mm256_mul_ps(cv, _mm256_loadu_ps(bp)));
                    s1 = _mm256_add_ps(s1, _mm256_mul_ps(cv, _mm256_loadu_ps(bp.add(8))));
                    s2 = _mm256_add_ps(s2, _mm256_mul_ps(cv, _mm256_loadu_ps(bp.add(16))));
                    s3 = _mm256_add_ps(s3, _mm256_mul_ps(cv, _mm256_loadu_ps(bp.add(24))));
                }
                _mm256_storeu_ps(o.add(j), s0);
                _mm256_storeu_ps(o.add(j + 8), s1);
                _mm256_storeu_ps(o.add(j + 16), s2);
                _mm256_storeu_ps(o.add(j + 24), s3);
                j += 32;
            }
            while j + 8 <= n {
                let mut s = _mm256_loadu_ps(o.add(j));
                for (&c, &off) in coef.iter().zip(boff) {
                    let bv = _mm256_loadu_ps(b.as_ptr().add(off + j));
                    s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_set1_ps(c), bv));
                }
                _mm256_storeu_ps(o.add(j), s);
                j += 8;
            }
            while j < n {
                let mut s = o_row[j];
                for (&c, &off) in coef.iter().zip(boff) {
                    s += c * b[off + j];
                }
                o_row[j] = s;
                j += 1;
            }
        }
        kb = kend;
    }
}

/// The `n < 8` shape of [`t_matmul_avx2`], where a row holds less than
/// one vector: eight output rows `i..i+8` share one load
/// of `a[p][i..i+8]` (contiguous in `A`'s row `p`) and the four columns of
/// a group one broadcast each. The skip becomes a per-lane select —
/// `o + c·b` where `c != 0` (NaN included), `o` untouched where
/// `c == ±0` — so every element sees the scalar schedule's terms, in
/// ascending `p`.
///
/// # Safety
/// The host must support AVX2, and `a`, `b` must hold the rows the shape
/// names (the pointer offsets are derived from it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn t_matmul_narrow_avx2(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(8);
        let tail = tail_mask_avx2(rows);
        let mut j = 0;
        while j < n {
            let cols = (n - j).min(4);
            // Lane t of s[jj] is out[i + t][j + jj]; lanes past the last
            // row are computed and never stored.
            let mut s = [zero; 4];
            for (jj, acc) in s.iter_mut().enumerate().take(cols) {
                let mut lanes = [0.0f32; 8];
                for (t, v) in lanes.iter_mut().enumerate().take(rows) {
                    *v = out[(i + t) * n + j + jj];
                }
                *acc = _mm256_loadu_ps(lanes.as_ptr());
            }
            for p in 0..k {
                let ap = a[p * m + i..].as_ptr();
                let c = match tail {
                    Some(mask) => _mm256_maskload_ps(ap, mask),
                    None => _mm256_loadu_ps(ap),
                };
                let live = _mm256_cmp_ps(c, zero, _CMP_NEQ_UQ);
                let b_row = &b[p * n + j..][..cols];
                for (acc, &bv) in s.iter_mut().zip(b_row) {
                    let sum = _mm256_add_ps(*acc, _mm256_mul_ps(c, _mm256_set1_ps(bv)));
                    *acc = _mm256_blendv_ps(*acc, sum, live);
                }
            }
            for (jj, v) in s.iter().enumerate().take(cols) {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), *v);
                for (t, &x) in lanes.iter().enumerate().take(rows) {
                    out[(i + t) * n + j + jj] = x;
                }
            }
            j += cols;
        }
        i += rows;
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn t_matmul_neon(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &c) in a_row.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            axpy_neon_body(&mut out[i * n..(i + 1) * n], c, b_row);
        }
    }
}

// ---------------------------------------------------------------------------
// The shared categorical head (§5.1): row-lane softmax and its backward
// ---------------------------------------------------------------------------

/// Rows per lane block of [`shared_softmax`] (lanes are rows), and classes
/// per register of [`shared_backward`] (lanes are classes).
const HEAD_LANES: usize = ds_simd::LANE_GROUP;

/// One categorical column of the parameter-shared head: what every head
/// kernel reads. Row `r`'s logit `k` is `signal·w[sig][k] + bias[k]`, then
/// `+ a·w[block + c][k]` for `c` ascending over the column's `width`
/// auxiliary nodes, each term skipped where `a = aux[r][block + c]` is
/// `±0` — the masked inputs of the other columns contribute nothing.
pub(crate) struct SharedColumn<'a> {
    /// Auxiliary-layer activations, `rows × aux_cols`, row-major.
    pub aux: &'a [f32],
    pub aux_cols: usize,
    /// The column's first auxiliary node, and its node count.
    pub block: usize,
    pub width: usize,
    /// Shared-layer weights, `(aux_cols + 1) × w_cols` (the last row is
    /// the signal node's), and the layer's `w_cols` biases.
    pub w: &'a [f32],
    pub w_cols: usize,
    pub bias: &'a [f32],
    pub signal: f32,
    /// The column's class count, at most `w_cols`: only these logits are
    /// computed, read or written.
    pub card: usize,
}

impl SharedColumn<'_> {
    fn rows(&self) -> usize {
        self.aux.len() / self.aux_cols
    }
}

/// What [`shared_softmax`] leaves behind for a column's rows.
pub(crate) enum HeadOut<'a> {
    /// Decode: the probabilities, `rows × card`.
    Probs(&'a mut [f32]),
    /// Assignment: each row's cross-entropy `-ln max(p[target], 1e-7)`,
    /// added to `losses[r]`.
    Loss {
        targets: &'a [u32],
        losses: &'a mut [f32],
    },
    /// Training: the loss as above; the logit gradient
    /// `dz = flush(rw·(p − onehot(target)))`, `rows × card`, with `rw`
    /// the row's weight (1 without weights); and `dz · W[block]ᵀ` added
    /// into the column's block of `d_aux` (`rows × aux_cols`).
    Grad {
        targets: &'a [u32],
        losses: &'a mut [f32],
        row_weights: Option<&'a [f32]>,
        dz: &'a mut [f32],
        d_aux: &'a mut [f32],
    },
}

/// Softmax of one categorical column, optionally followed by its
/// cross-entropy and the gradient flowing back to the logits and the
/// auxiliary block ([`HeadOut`]).
///
/// Eight rows share each register. The `8 × width` block of `aux` is
/// transposed once per eight rows, and each lane then runs the per-row
/// schedule unchanged (DESIGN.md §3f, "Row lanes"): the logit order of
/// [`SharedColumn`], with the skip a select (left out for a block with no
/// `±0` input, where it never fires); the max as `f32::max`'s NaN-ignoring
/// fold from `-∞`; `exp(z − max)` through the scalar libm `exp`; the sum
/// in ascending `k`; the scaling by `1/sum` only where `sum > 0`. The
/// `d_aux` dot runs in ascending `k` from `+0.0`. `scratch` holds the
/// column's weights by class and the lanes' logits and probabilities.
pub(crate) fn shared_softmax(
    level: Level,
    col: &SharedColumn<'_>,
    out: HeadOut<'_>,
    scratch: &mut Vec<f32>,
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only reported after runtime AVX2 detection.
        Level::Avx2 => unsafe { shared_softmax_avx2(col, out, scratch) },
        // SAFETY: the `[f32; 8]` lanes are plain Rust.
        _ => unsafe { shared_softmax_body::<[f32; HEAD_LANES]>(col, out, scratch) },
    }
}

/// Backward through the shared layer for one column, given its
/// `rows × card` logit gradient `dz`: adds `a·dz` into the block's rows of
/// `dw` (skipped where `a` is `±0`), `signal·dz` into the signal row, and
/// `dz` into `db`, each element in ascending row order.
///
/// Eight classes share each register, and a register's accumulators stay
/// in it across all the rows; the class tail is a masked load and store.
pub(crate) fn shared_backward(
    level: Level,
    col: &SharedColumn<'_>,
    dz: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only reported after runtime AVX2 detection.
        Level::Avx2 => unsafe { shared_backward_avx2(col, dz, dw, db) },
        // SAFETY: the `[f32; 8]` lanes are plain Rust.
        _ => unsafe { shared_backward_body::<[f32; HEAD_LANES]>(col, dz, dw, db) },
    }
}

/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn shared_softmax_avx2(col: &SharedColumn<'_>, out: HeadOut<'_>, scratch: &mut Vec<f32>) {
    shared_softmax_body::<std::arch::x86_64::__m256>(col, out, scratch);
}

/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn shared_backward_avx2(col: &SharedColumn<'_>, dz: &[f32], dw: &mut [f32], db: &mut [f32]) {
    shared_backward_body::<std::arch::x86_64::__m256>(col, dz, dw, db);
}

/// Eight f32 lanes, each operation rounded once per lane exactly as its
/// scalar spelling — the one vocabulary both head kernels are written in,
/// so the `[f32; 8]` and `__m256` variants run one schedule.
///
/// # Safety
/// Every method may use instructions of its type's level: call them only
/// inside a kernel compiled for it.
trait Lanes: Copy {
    unsafe fn splat(v: f32) -> Self;
    /// `src[..8]`.
    unsafe fn load(src: &[f32]) -> Self;
    /// `src[..n]`, `n ≤ 8`, zero past `n`.
    unsafe fn load_n(src: &[f32], n: usize) -> Self;
    /// Into `dst[..8]`.
    unsafe fn store(self, dst: &mut [f32]);
    /// Lanes `..n` into `dst[..n]`, `n ≤ 8`.
    unsafe fn store_n(self, dst: &mut [f32], n: usize);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn div(self, o: Self) -> Self;
    /// `f32::max(self, x)` as a fold from `-∞` sees it: a NaN `x` leaves
    /// the running max. (Which zero two equal zeros return may differ;
    /// the max only ever meets `z − max`, where it cannot show.)
    unsafe fn max_fold(self, x: Self) -> Self;
    /// `self + a·w` where `a != 0.0` (NaN included), `self` where `a` is
    /// `±0`.
    unsafe fn add_product_nonzero(self, a: Self, w: Self) -> Self;
    /// Whether a lane is `±0`.
    unsafe fn any_zero(self) -> bool;
    /// `self` where `t == k`, `other` elsewhere.
    unsafe fn where_eq(self, t: Self, k: Self, other: Self) -> Self;
    /// `self·inv` where `sum > 0.0`, `self` elsewhere (NaN `sum` included).
    unsafe fn scale_where_positive(self, inv: Self, sum: Self) -> Self;
    /// [`crate::dense::flush`] per lane.
    unsafe fn flush(self) -> Self;
    /// The 8 × 8 transpose: lane `j` of result `i` is lane `i` of `v[j]`.
    unsafe fn transpose8(v: [Self; HEAD_LANES]) -> [Self; HEAD_LANES];
}

impl Lanes for [f32; HEAD_LANES] {
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; HEAD_LANES]
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        src[..HEAD_LANES].try_into().expect("eight lanes")
    }
    #[inline(always)]
    unsafe fn load_n(src: &[f32], n: usize) -> Self {
        let mut v = [0.0; HEAD_LANES];
        v[..n].copy_from_slice(&src[..n]);
        v
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        dst[..HEAD_LANES].copy_from_slice(&self);
    }
    #[inline(always)]
    unsafe fn store_n(self, dst: &mut [f32], n: usize) {
        dst[..n].copy_from_slice(&self[..n]);
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] + o[l])
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] - o[l])
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] * o[l])
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] / o[l])
    }
    #[inline(always)]
    unsafe fn max_fold(self, x: Self) -> Self {
        std::array::from_fn(|l| self[l].max(x[l]))
    }
    #[inline(always)]
    unsafe fn add_product_nonzero(self, a: Self, w: Self) -> Self {
        std::array::from_fn(|l| {
            if a[l] != 0.0 {
                self[l] + a[l] * w[l]
            } else {
                self[l]
            }
        })
    }
    #[inline(always)]
    unsafe fn any_zero(self) -> bool {
        self.contains(&0.0)
    }
    #[inline(always)]
    unsafe fn where_eq(self, t: Self, k: Self, other: Self) -> Self {
        std::array::from_fn(|l| if t[l] == k[l] { self[l] } else { other[l] })
    }
    #[inline(always)]
    unsafe fn scale_where_positive(self, inv: Self, sum: Self) -> Self {
        std::array::from_fn(|l| {
            if sum[l] > 0.0 {
                self[l] * inv[l]
            } else {
                self[l]
            }
        })
    }
    #[inline(always)]
    unsafe fn flush(self) -> Self {
        self.map(crate::dense::flush)
    }
    #[inline(always)]
    unsafe fn transpose8(v: [Self; HEAD_LANES]) -> [Self; HEAD_LANES] {
        std::array::from_fn(|i| std::array::from_fn(|j| v[j][i]))
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m256 {
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        std::arch::x86_64::_mm256_set1_ps(v)
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        std::arch::x86_64::_mm256_loadu_ps(src[..HEAD_LANES].as_ptr())
    }
    #[inline(always)]
    unsafe fn load_n(src: &[f32], n: usize) -> Self {
        use std::arch::x86_64::*;
        match tail_mask_avx2(n) {
            Some(mask) => _mm256_maskload_ps(src[..n].as_ptr(), mask),
            None => Self::load(src),
        }
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        std::arch::x86_64::_mm256_storeu_ps(dst[..HEAD_LANES].as_mut_ptr(), self);
    }
    #[inline(always)]
    unsafe fn store_n(self, dst: &mut [f32], n: usize) {
        use std::arch::x86_64::*;
        match tail_mask_avx2(n) {
            Some(mask) => _mm256_maskstore_ps(dst[..n].as_mut_ptr(), mask, self),
            None => self.store(dst),
        }
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        std::arch::x86_64::_mm256_add_ps(self, o)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        std::arch::x86_64::_mm256_sub_ps(self, o)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        std::arch::x86_64::_mm256_mul_ps(self, o)
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        std::arch::x86_64::_mm256_div_ps(self, o)
    }
    #[inline(always)]
    unsafe fn max_fold(self, x: Self) -> Self {
        // `maxps` returns its second operand when either is NaN.
        std::arch::x86_64::_mm256_max_ps(x, self)
    }
    #[inline(always)]
    unsafe fn add_product_nonzero(self, a: Self, w: Self) -> Self {
        use std::arch::x86_64::*;
        let live = _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_NEQ_UQ);
        _mm256_blendv_ps(self, _mm256_add_ps(self, _mm256_mul_ps(a, w)), live)
    }
    #[inline(always)]
    unsafe fn any_zero(self) -> bool {
        use std::arch::x86_64::*;
        _mm256_movemask_ps(_mm256_cmp_ps(self, _mm256_setzero_ps(), _CMP_EQ_OQ)) != 0
    }
    #[inline(always)]
    unsafe fn where_eq(self, t: Self, k: Self, other: Self) -> Self {
        use std::arch::x86_64::*;
        _mm256_blendv_ps(other, self, _mm256_cmp_ps(t, k, _CMP_EQ_OQ))
    }
    #[inline(always)]
    unsafe fn scale_where_positive(self, inv: Self, sum: Self) -> Self {
        use std::arch::x86_64::*;
        let positive = _mm256_cmp_ps(sum, _mm256_setzero_ps(), _CMP_GT_OQ);
        _mm256_blendv_ps(self, _mm256_mul_ps(self, inv), positive)
    }
    #[inline(always)]
    unsafe fn flush(self) -> Self {
        use std::arch::x86_64::*;
        let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), self);
        let tiny = _mm256_cmp_ps(abs, _mm256_set1_ps(crate::dense::GRAD_FLOOR), _CMP_LT_OQ);
        _mm256_blendv_ps(self, _mm256_setzero_ps(), tiny)
    }
    #[inline(always)]
    unsafe fn transpose8(v: [Self; HEAD_LANES]) -> [Self; HEAD_LANES] {
        use std::arch::x86_64::*;
        // Pairs interleave, then quads, then the 128-bit halves swap.
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let t4 = _mm256_unpacklo_ps(v[4], v[5]);
        let t5 = _mm256_unpackhi_ps(v[4], v[5]);
        let t6 = _mm256_unpacklo_ps(v[6], v[7]);
        let t7 = _mm256_unpackhi_ps(v[6], v[7]);
        let q0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let q1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let q2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let q3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let q4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let q5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let q6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let q7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        [
            _mm256_permute2f128_ps(q0, q4, 0x20),
            _mm256_permute2f128_ps(q1, q5, 0x20),
            _mm256_permute2f128_ps(q2, q6, 0x20),
            _mm256_permute2f128_ps(q3, q7, 0x20),
            _mm256_permute2f128_ps(q0, q4, 0x31),
            _mm256_permute2f128_ps(q1, q5, 0x31),
            _mm256_permute2f128_ps(q2, q6, 0x31),
            _mm256_permute2f128_ps(q3, q7, 0x31),
        ]
    }
}

/// [`shared_softmax`] over lanes `V`.
///
/// # Safety
/// `V`'s level must be available (see [`Lanes`]).
#[inline(always)]
unsafe fn shared_softmax_body<V: Lanes>(
    col: &SharedColumn<'_>,
    mut out: HeadOut<'_>,
    scratch: &mut Vec<f32>,
) {
    const L: usize = HEAD_LANES;
    let (rows, card, width) = (col.rows(), col.card, col.width);
    // The column's weights by class: panel[k·pw] is the logit's start
    // `signal·w[sig][k] + bias[k]`, panel[k·pw + 1 + c] is w[block + c][k].
    let pw = width + 1;
    scratch.clear();
    scratch.resize(card * (pw + 2 * L), 0.0);
    let (panel, rest) = scratch.split_at_mut(card * pw);
    let sig_w = &col.w[col.aux_cols * col.w_cols..][..card];
    for ((row, &w), &b) in panel.chunks_exact_mut(pw).zip(sig_w).zip(col.bias) {
        row[0] = col.signal * w + b;
    }
    for c in 0..width {
        let w_row = &col.w[(col.block + c) * col.w_cols..][..card];
        for (row, &w) in panel.chunks_exact_mut(pw).zip(w_row) {
            row[1 + c] = w;
        }
    }
    // z[k·8 + l] is row r0 + l's logit k, then its `exp(z − max)`, then
    // its gradient. Decode writes the probabilities to p: a select stored
    // where it was loaded from becomes a masked store, which the next load
    // cannot forward from.
    let (z, p) = rest.split_at_mut(card * L);
    let mut r0 = 0;
    while r0 < rows {
        let n = (rows - r0).min(L);
        let mut max = V::splat(f32::NEG_INFINITY);
        let mut cb = 0;
        while cb < width {
            let cw = (width - cb).min(L);
            // at[c]: node block + cb + c of the eight rows. Lanes past the
            // last row compute on zeros and are never stored.
            // Nodes past `cw` may load with them; they are never read.
            let mut at = [V::splat(0.0); L];
            for (l, at) in at.iter_mut().enumerate().take(n) {
                let src = &col.aux[(r0 + l) * col.aux_cols + col.block + cb..];
                *at = if src.len() >= L {
                    V::load(src)
                } else {
                    V::load_n(src, cw)
                };
            }
            let at = V::transpose8(at);
            // Without a ±0 input no lane skips a term: the selects can go.
            let dense = !at[..cw].iter().any(|a| a.any_zero());
            for (zk, row) in z.chunks_exact_mut(L).zip(panel.chunks_exact(pw)) {
                let mut acc = if cb == 0 {
                    V::splat(row[0])
                } else {
                    V::load(zk)
                };
                let w = &row[1 + cb..][..cw];
                if dense {
                    for (&a, &w) in at.iter().zip(w) {
                        acc = acc.add(a.mul(V::splat(w)));
                    }
                } else {
                    for (&a, &w) in at.iter().zip(w) {
                        acc = acc.add_product_nonzero(a, V::splat(w));
                    }
                }
                acc.store(zk);
                if cb + cw == width {
                    max = max.max_fold(acc);
                }
            }
            cb += cw;
        }
        let mut lane_max = [0.0f32; L];
        max.store(&mut lane_max);
        for zk in z.chunks_exact_mut(L) {
            for (v, &m) in zk.iter_mut().zip(&lane_max) {
                *v = (*v - m).exp();
            }
        }
        let mut sum = V::splat(0.0);
        for zk in z.chunks_exact(L) {
            sum = sum.add(V::load(zk));
        }
        let inv = V::splat(1.0).div(sum);
        // The target class of each lane, as a float (exact: classes are
        // below 2²⁴); lanes past the last row match no class.
        let target_lanes = |targets: &[u32]| {
            let mut t = [-1.0f32; L];
            for (t, &target) in t.iter_mut().zip(&targets[r0..r0 + n]) {
                *t = target as f32;
            }
            V::load(&t)
        };
        let rows_out = match &mut out {
            HeadOut::Probs(probs) => {
                for (pk, zk) in p.chunks_exact_mut(L).zip(z.chunks_exact(L)) {
                    V::load(zk).scale_where_positive(inv, sum).store(pk);
                }
                Some((&mut **probs, &*p))
            }
            HeadOut::Loss { targets, losses } => {
                let t = target_lanes(targets);
                let mut p_target = V::splat(0.0);
                for (k, zk) in z.chunks_exact(L).enumerate() {
                    let p = V::load(zk).scale_where_positive(inv, sum);
                    p_target = p.where_eq(t, V::splat(k as f32), p_target);
                }
                add_cross_entropy(p_target, &mut losses[r0..r0 + n]);
                None
            }
            HeadOut::Grad {
                targets,
                losses,
                row_weights,
                dz,
                d_aux,
            } => {
                let t = target_lanes(targets);
                let rw = match row_weights {
                    Some(w) => V::load_n(&w[r0..], n),
                    None => V::splat(1.0),
                };
                let mut p_target = V::splat(0.0);
                for (k, zk) in z.chunks_exact_mut(L).enumerate() {
                    let (p, k) = (
                        V::load(zk).scale_where_positive(inv, sum),
                        V::splat(k as f32),
                    );
                    p_target = p.where_eq(t, k, p_target);
                    let adj = p.sub(V::splat(1.0)).where_eq(t, k, p);
                    rw.mul(adj).flush().store(zk);
                }
                add_cross_entropy(p_target, &mut losses[r0..r0 + n]);
                let mut cb = 0;
                while cb < width {
                    let cw = (width - cb).min(L);
                    let mut acc = [V::splat(0.0); L];
                    for (zk, row) in z.chunks_exact(L).zip(panel.chunks_exact(pw)) {
                        let dz = V::load(zk);
                        for (acc, &w) in acc.iter_mut().zip(&row[1 + cb..][..cw]) {
                            *acc = acc.add(dz.mul(V::splat(w)));
                        }
                    }
                    let acc = V::transpose8(acc);
                    for (l, &acc) in acc.iter().enumerate().take(n) {
                        let dst = &mut d_aux[(r0 + l) * col.aux_cols + col.block + cb..];
                        V::load_n(dst, cw).add(acc).store_n(dst, cw);
                    }
                    cb += cw;
                }
                Some((&mut **dz, &*z))
            }
        };
        if let Some((rows_out, z)) = rows_out {
            let mut kb = 0;
            while kb < card {
                let m = (card - kb).min(L);
                let mut t = [V::splat(0.0); L];
                for (t, zk) in t.iter_mut().zip(z[kb * L..].chunks_exact(L)) {
                    *t = V::load(zk);
                }
                let t = V::transpose8(t);
                for (l, &row) in t.iter().enumerate().take(n) {
                    row.store_n(&mut rows_out[(r0 + l) * card + kb..], m);
                }
                kb += m;
            }
        }
        r0 += n;
    }
}

/// `losses[l] += -ln max(p, 1e-7)` for each live lane `l`, `p` the lane's
/// probability of its target class.
///
/// # Safety
/// `V`'s level must be available (see [`Lanes`]).
#[inline(always)]
unsafe fn add_cross_entropy<V: Lanes>(p_target: V, losses: &mut [f32]) {
    let mut p = [0.0f32; HEAD_LANES];
    p_target.store(&mut p);
    for (loss, &p) in losses.iter_mut().zip(&p) {
        *loss += -p.max(1e-7).ln();
    }
}

/// Auxiliary nodes per register group of [`shared_backward_body`]: with
/// the signal row's and the bias's, six accumulators stay in registers.
const BACKWARD_GROUP: usize = 4;

/// [`shared_backward`] over lanes `V`.
///
/// # Safety
/// `V`'s level must be available (see [`Lanes`]).
#[inline(always)]
unsafe fn shared_backward_body<V: Lanes>(
    col: &SharedColumn<'_>,
    dz: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
) {
    const G: usize = BACKWARD_GROUP;
    let card = col.card;
    let sig = V::splat(col.signal);
    let mut kb = 0;
    while kb < card {
        let m = (card - kb).min(HEAD_LANES);
        // The signal row and the bias ride along with the first group.
        let sig_at = col.aux_cols * col.w_cols + kb;
        let mut sig_acc = V::load_n(&dw[sig_at..], m);
        let mut bias_acc = V::load_n(&db[kb..], m);
        let mut cb = 0;
        while cb < col.width {
            let (first, g0, gw) = (cb == 0, col.block + cb, (col.width - cb).min(G));
            let dw_at = |i: usize| (g0 + i) * col.w_cols + kb;
            let mut acc = [V::splat(0.0); G];
            for (i, acc) in acc.iter_mut().enumerate().take(gw) {
                *acc = V::load_n(&dw[dw_at(i)..], m);
            }
            for (r, aux_row) in col.aux.chunks_exact(col.aux_cols).enumerate() {
                // Classes past `m` may load with the row; they are never
                // stored.
                let src = &dz[r * card + kb..];
                let d = if src.len() >= HEAD_LANES {
                    V::load(src)
                } else {
                    V::load_n(src, m)
                };
                for (acc, &a) in acc.iter_mut().zip(&aux_row[g0..g0 + gw]) {
                    if a != 0.0 {
                        *acc = acc.add(V::splat(a).mul(d));
                    }
                }
                if first {
                    sig_acc = sig_acc.add(sig.mul(d));
                    bias_acc = bias_acc.add(d);
                }
            }
            for (i, acc) in acc.iter().enumerate().take(gw) {
                acc.store_n(&mut dw[dw_at(i)..], m);
            }
            cb += gw;
        }
        sig_acc.store_n(&mut dw[sig_at..], m);
        bias_acc.store_n(&mut db[kb..], m);
        kb += m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reduction tree must match its documented association exactly.
    #[test]
    fn reduce_lanes_is_the_pinned_tree() {
        let l = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let expect = ((1.0f32 + 16.0) + (4.0 + 64.0)) + ((2.0 + 32.0) + (8.0 + 128.0));
        assert_eq!(reduce_lanes(l), expect);
    }

    /// Tail terms land only in lanes `0..k % 8`, in ascending order —
    /// they are never spread across the high lanes or zero-padded into
    /// a ninth group.
    #[test]
    fn dot_lanes_tail_lands_in_low_lanes_only() {
        // k = 11: one full group + a 3-term tail owned by lanes 0..3.
        let a: Vec<f32> = (0..11).map(|i| (i + 1) as f32).collect();
        let x = vec![1.0f32; 11];
        let lanes = dot_lanes_scalar(&a, &x);
        assert_eq!(lanes[0], 1.0 + 9.0);
        assert_eq!(lanes[1], 2.0 + 10.0);
        assert_eq!(lanes[2], 3.0 + 11.0);
        for l in 3..8 {
            assert_eq!(lanes[l], (l + 1) as f32, "lane {l} must be untouched");
        }
    }

    /// SIMD variants must agree with the scalar schedule bit-for-bit on
    /// the live host level (vacuous on scalar-only hosts).
    #[test]
    fn host_level_matches_scalar_schedule() {
        let level = ds_simd::detected();
        let (r, k, n) = (7, 29, 13); // deliberately misaligned everywhere
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        let a: Vec<f32> = (0..r * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let bt: Vec<f32> = (0..n * k).map(|_| next()).collect();

        let mut simd = vec![0.0f32; r * n];
        let mut scalar = vec![0.0f32; r * n];
        matmul_rows(level, &a, &b, k, n, 0, &mut simd);
        matmul_rows(Level::Scalar, &a, &b, k, n, 0, &mut scalar);
        assert_eq!(simd, scalar, "matmul_rows");

        simd.fill(0.0);
        scalar.fill(0.0);
        matmul_t_rows(level, &a, &bt, k, n, 0, &mut simd);
        matmul_t_rows(Level::Scalar, &a, &bt, k, n, 0, &mut scalar);
        assert_eq!(simd, scalar, "matmul_t_rows");

        // Aᵀ·B with A as k×m: reuse `a` as 29-row × 7-col.
        let (tk, tm, tn) = (r, k, n); // 7×29ᵀ is 29×7 … keep shapes small
        let a2: Vec<f32> = (0..tk * tm).map(|_| next()).collect();
        let b2: Vec<f32> = (0..tk * tn).map(|_| next()).collect();
        let mut o_simd = vec![0.0f32; tm * tn];
        let mut o_scalar = vec![0.0f32; tm * tn];
        t_matmul(level, &a2, &b2, tk, tm, tn, &mut o_simd);
        t_matmul(Level::Scalar, &a2, &b2, tk, tm, tn, &mut o_scalar);
        assert_eq!(o_simd, o_scalar, "t_matmul");
    }
}
