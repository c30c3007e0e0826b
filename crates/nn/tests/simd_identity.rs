//! SIMD bit-identity contract: each kernel's `[f32; 8]` and `__m256`
//! instances implement one fixed accumulation schedule (DESIGN.md §3f),
//! so forcing `Level::Scalar` must reproduce the host-detected level
//! bit-for-bit on every shape — including the awkward ones the register
//! shapes handle with tail code. On hosts without AVX2 these tests are
//! vacuously true (both sides run the same instance); on AVX2 hosts they
//! pin the `__m256` instance to the plain-Rust one.

use ds_nn::Mat;
use ds_simd::Level;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pseudo-random matrix with ReLU-like sparsity so the all-zero-quad
/// and zero-coefficient skip paths get exercised too.
fn rand_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
    let data = (0..rows * cols)
        .map(|_| {
            let v: f32 = rng.gen();
            if v < 0.25 {
                0.0
            } else {
                (v - 0.6) * 3.0
            }
        })
        .collect();
    Mat::from_vec(rows, cols, data)
}

fn bits(m: &Mat) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// All three products at a forced level.
fn products_at(level: Level, a: &Mat, b: &Mat, bt: &Mat, at: &Mat) -> (Mat, Mat, Mat) {
    ds_simd::with_level(level, || (a.matmul(b), a.matmul_t(bt), at.t_matmul(b)))
}

/// `matmul_t` at the detected level and at scalar, as bits.
fn matmul_t_both(a: &Mat, bt: &Mat) -> (Vec<u32>, Vec<u32>) {
    let fast = ds_simd::with_level(ds_simd::detected(), || a.matmul_t(bt));
    let slow = ds_simd::with_level(Level::Scalar, || a.matmul_t(bt));
    (bits(&fast), bits(&slow))
}

/// A `k × m` layer input as the weight-gradient product sees it: ReLU
/// zeros of both signs, and every third column entirely zero.
fn relu_input(k: usize, m: usize, rng: &mut StdRng) -> Mat {
    let mut a = rand_mat(k, m, rng);
    for p in 0..k {
        for i in 0..m {
            let v = a.get(p, i);
            if i % 3 == 2 || (v < 0.0 && rng.gen_bool(0.5)) {
                a.set(p, i, 0.0);
            } else if v < 0.0 {
                a.set(p, i, -0.0);
            }
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Awkward small shapes: rows not a multiple of the 4-row quad,
    /// columns not a multiple of any lane width, k below the lane
    /// group. Every product must be bit-identical scalar vs detected.
    #[test]
    fn simd_bit_identical_awkward_shapes(
        m in 1usize..18,
        k in 1usize..20,
        n in 1usize..19,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_mat(m, k, &mut rng);
        let b = rand_mat(k, n, &mut rng);
        let bt = rand_mat(n, k, &mut rng);
        let at = rand_mat(k, m, &mut rng);
        let fast = products_at(ds_simd::detected(), &a, &b, &bt, &at);
        let slow = products_at(Level::Scalar, &a, &b, &bt, &at);
        prop_assert_eq!(bits(&fast.0), bits(&slow.0));
        prop_assert_eq!(bits(&fast.1), bits(&slow.1));
        prop_assert_eq!(bits(&fast.2), bits(&slow.2));
    }

    /// The `*_into` kernels on the same awkward grid: writing into a
    /// dirty buffer of the wrong shape must give exactly what the
    /// allocating product returns, at the detected level and scalar.
    #[test]
    fn into_kernels_match_allocating_products(
        m in 1usize..18,
        k in 1usize..20,
        n in 1usize..19,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_mat(m, k, &mut rng);
        let b = rand_mat(k, n, &mut rng);
        let bt = rand_mat(n, k, &mut rng);
        let at = rand_mat(k, m, &mut rng);
        for level in [ds_simd::detected(), Level::Scalar] {
            let want = products_at(level, &a, &b, &bt, &at);
            let dirty = || Mat::from_vec(3, 7, vec![f32::NAN; 21]);
            let mut got = (dirty(), dirty(), dirty());
            ds_simd::with_level(level, || {
                a.matmul_into(&b, &mut got.0);
                a.matmul_t_into(&bt, &mut got.1);
                at.t_matmul_into(&b, &mut got.2);
            });
            for (g, w) in [(&got.0, &want.0), (&got.1, &want.1), (&got.2, &want.2)] {
                prop_assert_eq!((g.rows(), g.cols()), (w.rows(), w.cols()));
                prop_assert_eq!(bits(g), bits(w));
            }
        }
    }

    /// Shapes straddling the parallel-path threshold, crossed with
    /// thread limits: the level must be resolved on the calling thread
    /// and honored by every pool worker.
    #[test]
    fn simd_bit_identical_blocked_path(
        m in 90usize..140,
        k in 90usize..130,
        n in 70usize..110,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_mat(m, k, &mut rng);
        let b = rand_mat(k, n, &mut rng);
        let bt = rand_mat(n, k, &mut rng);
        let at = rand_mat(k, m, &mut rng);
        let slow = ds_exec::with_thread_limit(1, || {
            products_at(Level::Scalar, &a, &b, &bt, &at)
        });
        for limit in [1usize, 8] {
            let fast = ds_exec::with_thread_limit(limit, || {
                products_at(ds_simd::detected(), &a, &b, &bt, &at)
            });
            prop_assert_eq!(bits(&fast.0), bits(&slow.0));
            prop_assert_eq!(bits(&fast.1), bits(&slow.1));
            prop_assert_eq!(bits(&fast.2), bits(&slow.2));
        }
    }

    /// `matmul_t` below 16-deep (the code layer, a simple head, the gate's
    /// logits) with at least one full 8-column block: the transposed path,
    /// where the lane tree runs across output columns.
    #[test]
    fn matmul_t_narrow_depth(
        m in 1usize..40,
        k in 1usize..16,
        n in 8usize..150,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (fast, slow) = matmul_t_both(&rand_mat(m, k, &mut rng), &rand_mat(n, k, &mut rng));
        prop_assert_eq!(fast, slow);
    }

    /// `matmul_t` at hidden-layer depths with rows past the last 4-row
    /// tile and an odd column count: the 4×2 tile, its lane tail and both
    /// of its remainders.
    #[test]
    fn matmul_t_tiled_depth_with_remainders(
        quads in 0usize..9,
        extra_rows in 1usize..4,
        k in 16usize..300,
        half_n in 0usize..70,
        seed in 0u64..10_000,
    ) {
        let (m, n) = (4 * quads + extra_rows, 2 * half_n + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let (fast, slow) = matmul_t_both(&rand_mat(m, k, &mut rng), &rand_mat(n, k, &mut rng));
        prop_assert_eq!(fast, slow);
    }

    /// `t_matmul` below 32 columns (vectorized along the output rows, the
    /// skip as a per-lane select) and from 32 on (packed coefficients,
    /// 32-column blocks), over a ReLU-sparse `A` holding `-0.0` and
    /// all-zero columns, against a `B` with infinities: `0 · ∞` is NaN, so
    /// a path that multiplied a coefficient the schedule skips would not
    /// match scalar.
    #[test]
    fn t_matmul_skips_zeros_like_scalar(
        k in 1usize..70,
        m in 1usize..30,
        n in 1usize..300,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = relu_input(k, m, &mut rng);
        let mut b = rand_mat(k, n, &mut rng);
        for v in b.data_mut() {
            if rng.gen_bool(0.01) {
                *v = f32::INFINITY.copysign(*v);
            }
        }
        let fast = ds_simd::with_level(ds_simd::detected(), || at.t_matmul(&b));
        let slow = ds_simd::with_level(Level::Scalar, || at.t_matmul(&b));
        prop_assert_eq!(bits(&fast), bits(&slow));
    }
}

/// Degenerate shapes — empty matrices and k below every lane width —
/// hit the early-return and pure-tail paths without touching a single
/// vector register.
#[test]
fn simd_bit_identical_degenerate_shapes() {
    let mut rng = StdRng::seed_from_u64(99);
    for (m, k, n) in [
        (0usize, 5usize, 5usize),
        (5, 0, 5),
        (5, 5, 0),
        (0, 0, 0),
        (1, 1, 1),
        (3, 2, 1), // k=2, below the 8 lanes
        (4, 7, 8), // k=7 just under the 8-lane group
    ] {
        let a = rand_mat(m, k, &mut rng);
        let b = rand_mat(k, n, &mut rng);
        let bt = rand_mat(n, k, &mut rng);
        let at = rand_mat(k, m, &mut rng);
        let fast = products_at(ds_simd::detected(), &a, &b, &bt, &at);
        let slow = products_at(Level::Scalar, &a, &b, &bt, &at);
        assert_eq!(bits(&fast.0), bits(&slow.0), "matmul {m}x{k}x{n}");
        assert_eq!(bits(&fast.1), bits(&slow.1), "matmul_t {m}x{k}x{n}");
        assert_eq!(bits(&fast.2), bits(&slow.2), "t_matmul {m}x{k}x{n}");
    }
}
