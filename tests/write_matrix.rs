//! The paper's guarantee as one matrix: for every generator × error
//! threshold × write adapter × shard size × read path, numeric cells come
//! back within ε·range of the column and categorical cells exactly — and
//! the three adapters that write a container write the same bytes.

use ds_core::{
    compress, compress_csv_stream_to, compress_stream_to, decompress, decompress_rows,
    decompress_rows_with_stats, DsArchive, DsConfig, TrainedCompressor,
};
use ds_table::csv::{read_csv_infer, write_csv};
use ds_table::gen::Dataset;
use ds_table::stream::TableSource;
use ds_table::{Column, Table};
use std::ops::Range;

const ROWS: usize = 120;
const SHARD_ROWS: usize = 37;
/// Coprime to `SHARD_ROWS`, so chunk and shard boundaries never line up.
const CHUNK_ROWS: usize = 16;

/// `got` is rows `at` of `truth`: categoricals equal, numerics within
/// `error` × the range of the *whole* truth column.
fn assert_within(truth: &Table, at: Range<usize>, got: &Table, error: f64, what: &str) {
    assert_eq!(got.schema(), truth.schema(), "{what}");
    assert_eq!(got.nrows(), at.len(), "{what}");
    for (full, got) in truth.columns().iter().zip(got.columns()) {
        match (full, got) {
            (Column::Cat(x), Column::Cat(y)) => {
                assert!(
                    x.iter().skip(at.start).take(at.len()).eq(y.iter()),
                    "{what}"
                )
            }
            (Column::Num(x), Column::Num(y)) => {
                let min = x.iter().copied().fold(f64::INFINITY, f64::min);
                let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let bound = error * (max - min) * (1.0 + 1e-7) + 1e-9;
                for (u, v) in x[at.clone()].iter().zip(y) {
                    assert!((u - v).abs() <= bound, "{what}: |{u} - {v}| > {bound}");
                }
            }
            _ => panic!("{what}: column type changed"),
        }
    }
}

/// The three read paths over one archive, each returning every row.
fn read_paths(archive: &DsArchive, rows: usize) -> [(&'static str, Table); 3] {
    let cuts = [0, rows / 3, 2 * rows / 3, rows];
    let parts: Vec<Table> = cuts
        .windows(2)
        .map(|w| decompress_rows(archive, w[0]..w[1]).expect("ranged decode"))
        .collect();
    let served = ds_serve::Archive::open(archive.as_bytes().to_vec()).expect("opens");
    [
        ("decompress", decompress(archive).expect("decodes")),
        (
            "decompress_rows x3",
            Table::concat(&parts).expect("stitches"),
        ),
        (
            "Archive::read_rows",
            served.read_rows(0..rows).expect("reads"),
        ),
    ]
}

#[test]
fn every_write_adapter_and_read_path_keeps_the_error_bound() {
    let csv_path = std::env::temp_dir().join(format!("ds_matrix_{}.csv", std::process::id()));
    for dataset in Dataset::ALL {
        // The truth is what CSV inference reconstructs, so every adapter
        // sees identical cell types.
        let csv = write_csv(&dataset.generate(ROWS, 31));
        let truth = read_csv_infer(&csv).expect("reparses");
        std::fs::write(&csv_path, &csv).expect("writes");
        for error in [0.0, 0.01, 0.1] {
            for shard_rows in [0, SHARD_ROWS] {
                let cfg = DsConfig {
                    error_threshold: error,
                    max_epochs: 2,
                    shard_rows,
                    seed: 5,
                    ..DsConfig::default()
                };
                let case = format!("{} ε={error} shard_rows={shard_rows}", dataset.name());

                // Container writers: one archive each, the same bytes.
                let in_memory = compress(&truth, &cfg).expect("compresses");
                let source = TableSource::new(&truth, CHUNK_ROWS);
                let streamed = compress_stream_to(&source, &cfg, Vec::new()).expect("compresses");
                let (from_csv, _) = compress_csv_stream_to(&csv_path, &cfg, CHUNK_ROWS, Vec::new())
                    .expect("compresses");
                assert_eq!(in_memory.as_bytes(), streamed.sink, "{case}: stream");
                assert_eq!(in_memory.as_bytes(), from_csv.sink, "{case}: csv");
                let n_shards = match shard_rows {
                    0 => 1,
                    n => ROWS.div_ceil(n),
                };
                let (_, stats) = decompress_rows_with_stats(&in_memory, 0..ROWS).expect("decodes");
                assert_eq!(stats.shards_total, n_shards, "{case}");
                let mut written = vec![("compress", 0..ROWS, in_memory)];

                // Batch writer: self-contained blobs, one per row group.
                let trained = TrainedCompressor::train(&truth, &cfg).expect("trains");
                let group = if shard_rows == 0 { ROWS } else { shard_rows };
                for lo in (0..ROWS).step_by(group) {
                    let at = lo..(lo + group).min(ROWS);
                    let blob = trained
                        .compress_batch(&truth.slice_rows(at.clone()))
                        .expect("compresses");
                    written.push(("compress_batch", at, blob));
                }

                for (writer, at, archive) in &written {
                    for (reader, got) in read_paths(archive, at.len()) {
                        let what = format!("{case}: {writer} {at:?} → {reader}");
                        assert_within(&truth, at.clone(), &got, error, &what);
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_file(&csv_path);
}

/// `shard_rows = 0` is one shard of the one container — also for a table
/// with no rows, and for order-free storage, where rows come back grouped
/// by expert: the same rows, each once.
#[test]
fn shard_rows_zero_writes_a_container_of_one_shard() {
    let cfg = DsConfig {
        max_epochs: 2,
        n_experts: 2,
        ..DsConfig::default()
    };
    for dataset in Dataset::ALL {
        for rows in [0, 90] {
            let t = dataset.generate(rows, 13);
            let archive = compress(&t, &cfg).expect("compresses");
            assert!(ds_shard::is_sharded(archive.as_bytes()));
            let (got, stats) = decompress_rows_with_stats(&archive, 0..rows).expect("decodes");
            assert_eq!(stats.shards_total, 1, "{} {rows} rows", dataset.name());
            assert_eq!(stats.shards_decoded, rows.min(1));
            assert_eq!(got, t, "lossless at threshold 0");
        }
    }

    let t = Dataset::Monitor.generate(90, 13);
    let order_free = DsConfig {
        order_free: true,
        ..cfg
    };
    let archive = compress(&t, &order_free).expect("compresses");
    let got = decompress(&archive).expect("decodes");
    let sorted_rows = |t: &Table| {
        let csv = write_csv(t);
        let mut lines: Vec<String> = csv.lines().skip(1).map(str::to_owned).collect();
        lines.sort();
        lines
    };
    assert_eq!(sorted_rows(&got), sorted_rows(&t));
    assert_ne!(got, t, "two experts regroup the rows");
}
