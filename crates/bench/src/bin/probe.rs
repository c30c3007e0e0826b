//! `probe` — single-configuration diagnostic: train DeepSqueeze on one
//! dataset and report the ratio breakdown, training curve, and the
//! heaviest failure columns. Controlled via environment variables:
//!
//! ```text
//! D=monitor ROWS=12000 K=2 E=1 EPOCHS=200 LR=0.006 DECAY=0.998 \
//!   TOL=0.0001 BITS=4,8,16 FSTATS=1 cargo run --release -p ds-bench --bin probe
//! ```
use ds_core::{DsConfig, TrainedCompressor};
use ds_table::gen;

fn main() {
    let ds = std::env::var("D").unwrap_or_else(|_| "corel".into());
    let rows: usize = std::env::var("ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3000);
    let t = match ds.as_str() {
        "corel" => gen::corel_like(rows, 42),
        "census" => gen::census_like(rows, 42),
        "monitor" => gen::monitor_like(rows, 42),
        "forest" => gen::forest_like(rows, 42),
        _ => gen::criteo_like(rows, 42),
    };
    let err = if ds == "census" { 0.0 } else { 0.10 };
    let cfg = DsConfig {
        error_threshold: err,
        code_size: std::env::var("K")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2),
        n_experts: std::env::var("E")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1),
        max_epochs: std::env::var("EPOCHS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60),
        lr: std::env::var("LR")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2e-3),
        lr_decay: std::env::var("DECAY")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0),
        code_bits_candidates: std::env::var("BITS")
            .ok()
            .map(|v| v.split(',').map(|b| b.parse().unwrap()).collect())
            .unwrap_or_else(|| vec![4, 8, 16]),
        tol: std::env::var("TOL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1e-3),
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let tc = TrainedCompressor::train(&t, &cfg).unwrap();
    println!("train time {:?}", t0.elapsed());
    let losses = &tc.report.epoch_losses;
    println!("epochs run: {}", tc.report.epochs_run);
    for (i, l) in losses.iter().enumerate() {
        if i % 5 == 0 || i == losses.len() - 1 {
            println!("  epoch {i}: {l:.5}");
        }
    }
    let a = tc.compress_batch(&t).unwrap();
    let b = a.breakdown();
    let raw = t.raw_size();
    println!(
        "ratio {:.2}% fail={:.2}% code={:.2}% dec={:.2}%",
        100.0 * a.size() as f64 / raw as f64,
        100.0 * b.failures as f64 / raw as f64,
        100.0 * b.codes as f64 / raw as f64,
        100.0 * b.decoder as f64 / raw as f64
    );
    if std::env::var("FSTATS").is_ok() {
        let mut stats: Vec<_> = a.failure_stats().to_vec();
        stats.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
        for (name, bytes) in stats.iter().take(12) {
            let idx: usize = name.parse().unwrap_or(0);
            let col = t
                .schema()
                .field(idx)
                .map(|f| f.name.clone())
                .unwrap_or_default();
            println!("  col {idx:>3} {col:<12} {bytes:>8} B");
        }
    }
}
