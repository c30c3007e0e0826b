//! `shard_probe` — measures what the v2 sharded container costs and buys:
//!
//! * size overhead of 16 shards vs one shard covering the same table
//!   (`shard_rows = 0`; the JSON keys keep their `mono` names): per-shard
//!   envelopes + manifest rows vs one of each;
//! * full-decode wall time, one shard vs 16 (row groups decode on the
//!   pool);
//! * partial-decode wall time for a 10%-of-rows range in the middle of
//!   the table, with the number of shards actually decoded.
//!
//! ```text
//! cargo run --release -p ds-bench --bin shard_probe          # full sizes
//! SMOKE=1 cargo run --release -p ds-bench --bin shard_probe  # CI-sized
//! BENCH_OUT=/tmp/shard.json ...                              # custom path
//! ```
//!
//! Results are appended as one JSON object per line so successive runs
//! accumulate in `BENCH_shard.json`.

use ds_core::{compress, decompress, decompress_rows_with_stats, DsConfig};
use ds_obs::sink::time_best_ms as time_best;
use ds_table::gen;
use std::hint::black_box;

fn main() {
    let smoke = std::env::var("SMOKE").is_ok();
    let reps = if smoke { 2 } else { 3 };
    let rows = if smoke { 1600 } else { 20000 };
    let shard_rows = rows / 16; // 16 row groups

    let t = gen::monitor_like(rows, 42);
    let base = DsConfig {
        error_threshold: 0.05,
        code_size: 2,
        n_experts: 2,
        max_epochs: if smoke { 3 } else { 6 },
        ..Default::default()
    };

    let mono = compress(&t, &base).expect("one-shard compress");
    let sharded = compress(
        &t,
        &DsConfig {
            shard_rows,
            ..base.clone()
        },
    )
    .expect("sharded compress");

    let full_mono_ms = time_best(reps, || {
        black_box(decompress(&mono).expect("mono decode"));
    });
    let full_sharded_ms = time_best(reps, || {
        black_box(decompress(&sharded).expect("sharded decode"));
    });

    // Partial read: the middle 10% of rows.
    let lo = (rows * 45) / 100;
    let hi = (rows * 55) / 100;
    let (_, stats) = decompress_rows_with_stats(&sharded, lo..hi).expect("partial decode");
    let partial_ms = time_best(reps, || {
        black_box(decompress_rows_with_stats(&sharded, lo..hi).expect("partial decode"));
    });

    let overhead = sharded.size() as f64 / mono.size().max(1) as f64;
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(0);
    let ds_threads = ds_exec::effective_threads();

    let line = format!(
        concat!(
            "{{\"host_threads\": {}, \"ds_threads\": {}, \"smoke\": {}, ",
            "\"rows\": {}, \"shard_rows\": {}, \"shards\": {}, ",
            "\"mono_bytes\": {}, \"sharded_bytes\": {}, \"size_overhead\": {:.4}, ",
            "\"full_decode_mono_ms\": {:.3}, \"full_decode_sharded_ms\": {:.3}, ",
            "\"partial_rows\": {}, \"partial_decode_ms\": {:.3}, \"shards_decoded\": {}}}\n",
        ),
        host_threads,
        ds_threads,
        smoke,
        rows,
        shard_rows,
        stats.shards_total,
        mono.size(),
        sharded.size(),
        overhead,
        full_mono_ms,
        full_sharded_ms,
        hi - lo,
        partial_ms,
        stats.shards_decoded,
    );

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_shard.json".into());
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .expect("open BENCH_shard.json");
    file.write_all(line.as_bytes()).expect("append run");

    println!(
        "rows={rows} shard_rows={shard_rows} shards={}",
        stats.shards_total
    );
    println!(
        "size: mono {} B, sharded {} B ({:.2}% overhead)",
        mono.size(),
        sharded.size(),
        (overhead - 1.0) * 100.0
    );
    println!("full decode: mono {full_mono_ms:.3} ms, sharded {full_sharded_ms:.3} ms");
    println!(
        "partial decode ({} rows, {}/{} shards): {partial_ms:.3} ms",
        hi - lo,
        stats.shards_decoded,
        stats.shards_total
    );
    println!("appended to {out}");
}
