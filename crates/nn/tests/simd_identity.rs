//! SIMD bit-identity contract: the AVX2/NEON kernels and the scalar
//! fallback implement one fixed accumulation schedule (DESIGN.md §3f),
//! so forcing `Level::Scalar` must reproduce the host-detected level
//! bit-for-bit on every shape — including the awkward ones the vector
//! paths handle with tail code. On scalar-only hosts these tests are
//! vacuously true (both sides run the same kernel); on AVX2/NEON hosts
//! they pin the vector implementations to the scalar spec.

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
        (3, 2, 1), // k=2 < NEON's 4 and AVX2's 8 lanes
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
