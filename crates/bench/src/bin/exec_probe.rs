//! `exec_probe` — before/after probe for the data-parallel execution
//! layer. Times three workloads serial (`with_thread_limit(1)`) vs
//! parallel (ambient thread budget) and writes `BENCH_exec.json`:
//!
//! * blocked matmul, 512×512×512 — serial vs parallel, and additionally
//!   scalar-kernel vs runtime-dispatched SIMD kernel (`matmul_simd`);
//! * one MoE training epoch on the synthetic correlated dataset;
//! * full materialization (codes + failures + archive assembly).
//!
//! ```text
//! cargo run --release -p ds-bench --bin exec_probe          # full sizes
//! SMOKE=1 cargo run --release -p ds-bench --bin exec_probe  # CI-sized
//! BENCH_OUT=/tmp/exec.json ...                              # custom path
//! ```
//!
//! The parallel speedup on a single-core host is honestly ~1.0×; the JSON
//! records `host_threads`, the detected `cpu_features` and the chosen
//! `simd_kernel`/`simd_lanes` so readers can judge the numbers in context.

use ds_core::{DsConfig, TrainedCompressor};
use ds_nn::{Head, Mat, ModelSpec, MoeAutoencoder, MoeConfig};
use ds_obs::sink::time_best_ms as time_best;
use ds_table::gen;
use std::hint::black_box;

struct Probe {
    name: &'static str,
    detail: String,
    serial_ms: f64,
    parallel_ms: f64,
}

impl Probe {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            0.0
        }
    }
}

fn main() {
    let smoke = std::env::var("SMOKE").is_ok();
    let reps = if smoke { 2 } else { 3 };
    let mut probes = Vec::new();

    // ---- 1. blocked matmul ------------------------------------------------
    let dim = if smoke { 192 } else { 512 };
    {
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a = Mat::from_vec(dim, dim, (0..dim * dim).map(|_| next()).collect());
        let b = Mat::from_vec(dim, dim, (0..dim * dim).map(|_| next()).collect());
        let serial_ms = time_best(reps, || {
            ds_exec::with_thread_limit(1, || {
                black_box(a.matmul(&b));
            });
        });
        let parallel_ms = time_best(reps, || {
            black_box(a.matmul(&b));
        });
        probes.push(Probe {
            name: "matmul",
            detail: format!("{dim}x{dim}x{dim} f32"),
            serial_ms,
            parallel_ms,
        });

        // Same product, scalar kernel vs the runtime-dispatched SIMD
        // kernel — the tentpole number. Both serial, so the comparison
        // isolates the kernel and not the thread pool.
        let scalar_ms = time_best(reps, || {
            ds_exec::with_thread_limit(1, || {
                ds_simd::with_level(ds_simd::Level::Scalar, || {
                    black_box(a.matmul(&b));
                });
            });
        });
        let simd_ms = time_best(reps, || {
            ds_exec::with_thread_limit(1, || {
                black_box(a.matmul(&b));
            });
        });
        probes.push(Probe {
            name: "matmul_simd",
            detail: format!(
                "{dim}x{dim}x{dim} f32, scalar vs {} kernel (serial)",
                ds_simd::detected().name()
            ),
            serial_ms: scalar_ms,
            parallel_ms: simd_ms,
        });
    }

    // ---- 2. one training epoch on the synthetic correlated dataset -------
    let rows = if smoke { 512 } else { 4096 };
    let epochs = if smoke { 2 } else { 4 };
    {
        // Correlated numeric features in [0,1] — the corel-style cluster
        // structure the paper trains on, straight into the NN layer.
        let ncols = 16;
        let mut rng_state = 0x2545f4914f6cdd1du64;
        let mut unit = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut data = Vec::with_capacity(rows * ncols);
        for _ in 0..rows {
            let base = unit();
            for c in 0..ncols {
                let jitter = (unit() - 0.5) * 0.1;
                data.push((base * (0.5 + 0.5 * c as f32 / ncols as f32) + jitter).clamp(0.0, 1.0));
            }
        }
        let x = Mat::from_vec(rows, ncols, data);
        let spec = ModelSpec::with_defaults(vec![Head::Numeric; ncols], 3);
        let cfg = MoeConfig {
            n_experts: 2,
            max_epochs: epochs,
            tol: 0.0,
            seed: 7,
            ..Default::default()
        };
        let serial_ms = time_best(reps, || {
            ds_exec::with_thread_limit(1, || {
                black_box(MoeAutoencoder::train(&spec, &x, &[], &cfg).unwrap());
            })
        }) / epochs as f64;
        let parallel_ms = time_best(reps, || {
            black_box(MoeAutoencoder::train(&spec, &x, &[], &cfg).unwrap());
        }) / epochs as f64;
        probes.push(Probe {
            name: "train_epoch",
            detail: format!("{rows}x{ncols} corr, 2 experts, per-epoch"),
            serial_ms,
            parallel_ms,
        });
    }

    // ---- 3. materialization ----------------------------------------------
    let mrows = if smoke { 800 } else { 6000 };
    {
        let t = gen::corel_like(mrows, 42);
        let cfg = DsConfig {
            error_threshold: 0.05,
            code_size: 2,
            n_experts: 2,
            max_epochs: 4,
            ..Default::default()
        };
        let tc = TrainedCompressor::train(&t, &cfg).expect("probe training");
        let serial_ms = time_best(reps, || {
            ds_exec::with_thread_limit(1, || {
                black_box(tc.compress_batch(&t).expect("probe materialize"));
            })
        });
        let parallel_ms = time_best(reps, || {
            black_box(tc.compress_batch(&t).expect("probe materialize"));
        });
        probes.push(Probe {
            name: "materialize",
            detail: format!("corel {mrows} rows, codes+failures+archive"),
            serial_ms,
            parallel_ms,
        });
    }

    // ---- report -----------------------------------------------------------
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(0);
    let ds_threads = ds_exec::effective_threads();
    let cpu_features = ds_simd::detected_features();
    let kernel = ds_simd::active();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"ds_threads\": {ds_threads},\n"));
    json.push_str(&format!(
        "  \"cpu_features\": [{}],\n",
        cpu_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"simd_kernel\": \"{}\",\n", kernel.name()));
    json.push_str(&format!("  \"simd_lanes\": {},\n", kernel.lanes()));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    for (i, p) in probes.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{ \"detail\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3} }}{}\n",
            p.name,
            p.detail,
            p.serial_ms,
            p.parallel_ms,
            p.speedup(),
            if i + 1 < probes.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_exec.json".into());
    std::fs::write(&out, &json).expect("write BENCH_exec.json");

    println!(
        "host_threads={host_threads} ds_threads={ds_threads} simd_kernel={} lanes={} smoke={smoke}",
        kernel.name(),
        kernel.lanes()
    );
    for p in &probes {
        println!(
            "{:<12} {:<38} serial {:>9.3} ms  parallel {:>9.3} ms  speedup {:>5.2}x",
            p.name,
            p.detail,
            p.serial_ms,
            p.parallel_ms,
            p.speedup()
        );
    }
    println!("wrote {out}");
}
