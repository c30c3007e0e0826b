//! Determinism contract of the execution layer: every parallel kernel
//! must produce bit-identical results for any thread count, because the
//! decompressor must reproduce the compressor's floats exactly on
//! whatever hardware it runs on.

use ds_nn::{train_pass_data_parallel, Autoencoder, Head, Mat, ModelSpec, MoeAutoencoder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pseudo-random matrix with ReLU-like sparsity.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// matmul and matmul_t over odd shapes straddling the parallel-path
    /// threshold: thread limits 1, 2 and 8 must agree bit-for-bit.
    #[test]
    fn matmul_kernels_thread_invariant(
        m in 60usize..200,
        k in 60usize..150,
        n in 30usize..120,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_mat(m, k, &mut rng);
        let b = rand_mat(k, n, &mut rng);
        let bt = rand_mat(n, k, &mut rng);
        let serial = ds_exec::with_thread_limit(1, || (a.matmul(&b), a.matmul_t(&bt)));
        for limit in [2usize, 8] {
            let par = ds_exec::with_thread_limit(limit, || (a.matmul(&b), a.matmul_t(&bt)));
            prop_assert_eq!(bits(&serial.0), bits(&par.0));
            prop_assert_eq!(bits(&serial.1), bits(&par.1));
        }
    }
}

/// A random mixed-head spec and a consistent batch: numeric cells in
/// [0,1], binary cells 0/1, categorical cells as normalized codes.
fn mixed_batch(kinds: &[u8], rows: usize, rng: &mut StdRng) -> (ModelSpec, Mat, Vec<Vec<u32>>) {
    let heads: Vec<Head> = kinds
        .iter()
        .map(|&k| match k {
            0 => Head::Numeric,
            1 => Head::Binary,
            k => Head::Categorical {
                card: k as usize + 1,
            },
        })
        .collect();
    let mut x = Mat::zeros(rows, heads.len());
    let mut cat_targets = Vec::new();
    for (c, head) in heads.iter().enumerate() {
        match *head {
            Head::Numeric => (0..rows).for_each(|r| x.set(r, c, rng.gen())),
            Head::Binary => (0..rows).for_each(|r| x.set(r, c, f32::from(rng.gen_bool(0.4)))),
            Head::Categorical { card } => {
                let codes: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..card as u32)).collect();
                for (r, &code) in codes.iter().enumerate() {
                    x.set(r, c, code as f32 / (card - 1) as f32);
                }
                cat_targets.push(codes);
            }
        }
    }
    (ModelSpec::with_defaults(heads, 2), x, cat_targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The forward-only `loss_per_tuple` (row chunks on the pool, ragged
    /// last chunk included) must return exactly the losses the training
    /// pass reports, and `assign_with_codes` label each row with exactly
    /// their per-row argmin (first expert wins ties).
    #[test]
    fn forward_only_loss_matches_train_pass(
        kinds in proptest::collection::vec(0u8..7, 1..7),
        n_experts in 1usize..4,
        rows in 1usize..600,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (spec, x, cat_targets) = mixed_batch(&kinds, rows, &mut rng);
        let experts: Vec<Autoencoder> = (0..n_experts)
            .map(|_| Autoencoder::new(spec.clone(), &mut rng).expect("valid spec"))
            .collect();
        let mut best = vec![(f32::INFINITY, 0usize); rows];
        for (e, expert) in experts.iter().enumerate() {
            let (_, trained) = expert.train_pass(&x, &cat_targets, None).expect("train pass");
            let forward = expert.loss_per_tuple(&x, &cat_targets).expect("forward pass");
            let a: Vec<u32> = trained.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = forward.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b);
            for (slot, &l) in best.iter_mut().zip(&trained) {
                if l < slot.0 {
                    *slot = (l, e);
                }
            }
        }
        let want: Vec<usize> = best.iter().map(|&(_, e)| e).collect();
        let model = MoeAutoencoder::from_experts(experts);
        let got = model.assign_with_codes(&x, &cat_targets, None).expect("assign");
        prop_assert_eq!(got.labels, want);
    }
}

/// Builds a small mixed-head model plus a consistent training batch.
fn model_and_batch(rows: usize, seed: u64) -> (Autoencoder, Mat, Vec<u32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = ModelSpec::with_defaults(
        vec![
            Head::Numeric,
            Head::Categorical { card: 5 },
            Head::Binary,
            Head::Numeric,
        ],
        3,
    );
    let model = Autoencoder::new(spec, &mut rng).expect("valid spec");
    let mut x = Mat::zeros(rows, 4);
    let mut cats = vec![0u32; rows];
    let mut weights = Vec::with_capacity(rows);
    for (r, cat) in cats.iter_mut().enumerate() {
        let v: f32 = rng.gen();
        x.set(r, 0, v);
        let c = (v * 4.999) as u32;
        *cat = c;
        x.set(r, 1, c as f32 / 4.0);
        x.set(r, 2, if v > 0.4 { 1.0 } else { 0.0 });
        x.set(r, 3, 1.0 - v);
        weights.push(0.5 + rng.gen::<f32>());
    }
    (model, x, cats, weights)
}

/// Chunked train_pass gradients: for a fixed chunk size the reduction
/// must be bit-identical across thread limits 1, 2 and 8 — including
/// odd chunk sizes that leave ragged final chunks.
#[test]
fn train_pass_gradients_thread_invariant() {
    let (model, x, cats, weights) = model_and_batch(97, 42);
    let cat_targets = vec![cats];
    for chunk in [7usize, 31, 32, 33, 97, 128] {
        let (g_serial, l_serial) = ds_exec::with_thread_limit(1, || {
            train_pass_data_parallel(&model, &x, &cat_targets, Some(&weights), chunk)
        })
        .expect("serial pass");
        for limit in [2usize, 8] {
            let (g_par, l_par) = ds_exec::with_thread_limit(limit, || {
                train_pass_data_parallel(&model, &x, &cat_targets, Some(&weights), chunk)
            })
            .expect("parallel pass");
            assert_eq!(g_serial.len(), g_par.len());
            for (gs, gp) in g_serial.iter().zip(&g_par) {
                assert_eq!(
                    bits(&gs.dw),
                    bits(&gp.dw),
                    "dw differs: chunk {chunk}, limit {limit}"
                );
                let dbs: Vec<u32> = gs.db.iter().map(|v| v.to_bits()).collect();
                let dbp: Vec<u32> = gp.db.iter().map(|v| v.to_bits()).collect();
                assert_eq!(dbs, dbp, "db differs: chunk {chunk}, limit {limit}");
            }
            let ls: Vec<u32> = l_serial.iter().map(|v| v.to_bits()).collect();
            let lp: Vec<u32> = l_par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ls, lp, "losses differ: chunk {chunk}, limit {limit}");
        }
    }
}

/// Per-tuple losses from the chunked pass must be bit-identical to the
/// unchunked pass regardless of chunk size (each row's forward pass is
/// independent), even though gradient association may differ.
#[test]
fn chunked_losses_match_unchunked() {
    let (model, x, cats, weights) = model_and_batch(80, 7);
    let cat_targets = vec![cats];
    let (_, l_whole) = model
        .train_pass(&x, &cat_targets, Some(&weights))
        .expect("whole pass");
    for chunk in [9usize, 16, 33] {
        let (_, l_chunked) =
            train_pass_data_parallel(&model, &x, &cat_targets, Some(&weights), chunk)
                .expect("chunked pass");
        let a: Vec<u32> = l_whole.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = l_chunked.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "chunk {chunk}");
    }
}

/// Full end-to-end MoE training must be bit-identical across thread
/// limits and SIMD levels: same epoch losses, same weights, same
/// assignments — through the (expert × chunk) gradient tasks, the
/// per-expert reduce → clip → Adam tasks and the gate step, with numeric,
/// binary and categorical heads and ragged chunks.
#[test]
fn moe_training_thread_and_simd_invariant() {
    use ds_nn::MoeConfig;
    let mut rng = StdRng::seed_from_u64(11);
    let (spec, x, cat_targets) = mixed_batch(&[0, 4, 1, 0, 2], 96, &mut rng);
    for n_experts in [2usize, 3] {
        let cfg = MoeConfig {
            n_experts,
            max_epochs: 4,
            seed: 5,
            batch_size: 41, // 32 + 9 row chunks, then a 14-row last batch
            ..Default::default()
        };
        let train = || MoeAutoencoder::train(&spec, &x, &cat_targets, &cfg).expect("trains");
        let (m1, r1) = ds_exec::with_thread_limit(1, train);
        let variants = [
            ("2 threads", ds_exec::with_thread_limit(2, train)),
            ("8 threads", ds_exec::with_thread_limit(8, train)),
            (
                "scalar kernels",
                ds_simd::with_level(ds_simd::Level::Scalar, || {
                    ds_exec::with_thread_limit(2, train)
                }),
            ),
        ];
        for (what, (m2, r2)) in &variants {
            let l1: Vec<u32> = r1.epoch_losses.iter().map(|v| v.to_bits()).collect();
            let l2: Vec<u32> = r2.epoch_losses.iter().map(|v| v.to_bits()).collect();
            assert_eq!(l1, l2, "epoch losses differ: {n_experts} experts, {what}");
            for (e1, e2) in m1.experts().iter().zip(m2.experts()) {
                for (a, b) in e1.layers().iter().zip(e2.layers()) {
                    assert_eq!(
                        bits(&a.w),
                        bits(&b.w),
                        "weights: {n_experts} experts, {what}"
                    );
                    let (ba, bb): (Vec<u32>, Vec<u32>) =
                        a.b.iter()
                            .zip(&b.b)
                            .map(|(p, q)| (p.to_bits(), q.to_bits()))
                            .unzip();
                    assert_eq!(ba, bb, "biases: {n_experts} experts, {what}");
                }
            }
            assert_eq!(m1.assign(&x), m2.assign(&x), "{n_experts} experts, {what}");
            let by_loss = |m: &MoeAutoencoder| {
                let a = m.assign_with_codes(&x, &cat_targets, None).expect("assign");
                (a.labels, bits(&a.codes))
            };
            assert_eq!(by_loss(&m1), by_loss(m2), "{n_experts} experts, {what}");
        }
    }
}

/// The codes `assign_with_codes` hands to materialization are the stored
/// encoder's output and nothing else: for 1, 2 and 3 experts, each
/// expert's rows carry bit for bit what `encode` makes of those rows
/// gathered, at every thread limit and on the scalar kernels; the labels
/// are the per-row loss argmin (first expert wins ties); and a routing
/// made elsewhere is kept as given and encoded the same way. Rows span
/// several 256-row forward chunks with a ragged last one.
#[test]
fn assigned_codes_are_the_labelled_experts_encode() {
    let mut rng = StdRng::seed_from_u64(23);
    let (spec, x, cat_targets) = mixed_batch(&[0, 3, 1, 0, 5, 0], 700, &mut rng);
    for n_experts in [1usize, 2, 3] {
        let experts: Vec<Autoencoder> = (0..n_experts)
            .map(|_| Autoencoder::new(spec.clone(), &mut rng).expect("valid spec"))
            .collect();
        let mut best = vec![(f32::INFINITY, 0usize); x.rows()];
        for (e, expert) in experts.iter().enumerate() {
            let losses = expert.loss_per_tuple(&x, &cat_targets).expect("losses");
            for (slot, &l) in best.iter_mut().zip(&losses) {
                if l < slot.0 {
                    *slot = (l, e);
                }
            }
        }
        let argmin: Vec<usize> = best.iter().map(|&(_, e)| e).collect();
        let model = MoeAutoencoder::from_experts(experts);
        let round_robin: Vec<usize> = (0..x.rows()).map(|r| r % n_experts).collect();

        let check = |what: &str| {
            for routing in [None, Some(&round_robin[..])] {
                let got = model
                    .assign_with_codes(&x, &cat_targets, routing)
                    .expect("assigns");
                assert_eq!(
                    got.labels,
                    routing.map_or(argmin.clone(), <[usize]>::to_vec),
                    "{n_experts} experts, {what}"
                );
                assert_eq!((got.codes.rows(), got.codes.cols()), (x.rows(), 2));
                for e in 0..n_experts {
                    let rows: Vec<usize> = (0..x.rows()).filter(|&r| got.labels[r] == e).collect();
                    assert_eq!(got.rows_of(e), rows);
                    let want = model.encode(e, &x.take_rows(&rows)).expect("encodes");
                    assert_eq!(
                        bits(&got.codes_of(e)),
                        bits(&want),
                        "{n_experts} experts, expert {e}, {what}, routed {}",
                        routing.is_some()
                    );
                }
            }
        };
        for limit in [1usize, 2, 8] {
            ds_exec::with_thread_limit(limit, || check(&format!("{limit} threads")));
        }
        ds_simd::with_level(ds_simd::Level::Scalar, || check("scalar kernels"));
    }
    // A routing that is short or names no expert is refused.
    let model = MoeAutoencoder::from_experts(vec![
        Autoencoder::new(spec.clone(), &mut rng).expect("valid spec")
    ]);
    assert!(model
        .assign_with_codes(&x, &cat_targets, Some(&[0]))
        .is_err());
    let beyond = vec![1usize; x.rows()];
    assert!(model
        .assign_with_codes(&x, &cat_targets, Some(&beyond))
        .is_err());
}
