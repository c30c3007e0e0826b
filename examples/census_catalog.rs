//! Lossless categorical archival: a Census-like table full of functional
//! dependencies, compressed by all four systems of the paper's evaluation.
//! Categorical data admits no lossiness (§6.3.1), so reconstruction must
//! be exact for both semantic compressors.
//!
//! ```text
//! cargo run --release --example census_catalog
//! ```

use ds_bench::baselines::{gzip_size, parquet_size};
use ds_core::{compress, decompress, DsConfig};
use ds_squish::{compress as squish_compress, decompress as squish_decompress, SquishConfig};
use ds_table::gen;

fn main() {
    let table = gen::census_like(8_000, 3);
    let raw = table.raw_size();
    println!(
        "census-like: {} rows × {} categorical columns, {} bytes raw\n",
        table.nrows(),
        table.ncols(),
        raw
    );

    let gz = gzip_size(&table);
    let pq = parquet_size(&table);
    println!(
        "gzip:        {:>8} bytes  ({:>5.2}%)",
        gz,
        100.0 * gz as f64 / raw as f64
    );
    println!(
        "parquet:     {:>8} bytes  ({:>5.2}%)",
        pq,
        100.0 * pq as f64 / raw as f64
    );

    let squish = squish_compress(&table, &SquishConfig::default()).expect("squish compresses");
    println!(
        "squish:      {:>8} bytes  ({:>5.2}%)  [model {} B, stream {} B]",
        squish.size(),
        100.0 * squish.size() as f64 / raw as f64,
        squish.model_bytes,
        squish.data_bytes
    );
    assert_eq!(squish_decompress(&squish).expect("exact"), table);

    let cfg = DsConfig {
        error_threshold: 0.0, // purely categorical: lossless by definition
        code_size: 6,
        n_experts: 2,
        max_epochs: 200,
        lr: 8e-3,
        lr_decay: 0.998,
        ..Default::default()
    };
    let archive = compress(&table, &cfg).expect("DS compresses");
    let b = archive.breakdown();
    println!(
        "deepsqueeze: {:>8} bytes  ({:>5.2}%)  [decoder {} B, codes {} B, failures {} B]",
        archive.size(),
        100.0 * archive.size() as f64 / raw as f64,
        b.decoder,
        b.codes,
        b.failures
    );

    // Categorical reconstruction must be EXACT — cell for cell.
    let restored = decompress(&archive).expect("DS decompresses");
    assert_eq!(restored, table);
    println!("\nboth semantic compressors reconstructed all cells exactly");

    // The planted FDs are what semantic compression exploits; show one.
    let state = table.column_by_name("state").unwrap().as_cat().unwrap();
    let division = table.column_by_name("division").unwrap().as_cat().unwrap();
    println!(
        "example dependency: state={} always implies division={}",
        &state[0], &division[0]
    );
}
