//! What pass 2 of the write pipeline owes every shard: the one code width
//! the fit measured (§6.2 — chosen once per archive, not per shard), in
//! every shard header, whichever adapter wrote the archive; and, when
//! shards fail, the failure of the lowest-index one, named.

use ds_core::{
    compress, compress_csv_stream_to, compress_stream_to, inspect, open_source, DsArchive,
    DsConfig, DsError, TrainedCompressor,
};
use ds_table::csv::{read_csv_infer, write_csv};
use ds_table::gen::Dataset;
use ds_table::stream::RowSource;
use ds_table::{Column, Schema, Table};
use std::sync::atomic::{AtomicUsize, Ordering};

const ROWS: usize = 250;
const SHARD_ROWS: usize = 50;

/// The code width each shard header of a v2 container records.
fn shard_widths(container: &[u8]) -> Vec<u8> {
    let reader = ds_shard::ShardReader::open(container).expect("opens");
    (0..reader.n_shards())
        .map(|i| {
            let shard = reader.shard_bytes(i).expect("crc holds").to_vec();
            inspect(&DsArchive::from_bytes(shard))
                .expect("a shard is a v1 blob")
                .code_bits
        })
        .collect()
}

#[test]
fn every_shard_of_every_adapter_is_written_at_the_fitted_width() {
    let dir = std::env::temp_dir().join(format!("ds_shard_encode_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (csv_path, archive_path) = (dir.join("t.csv"), dir.join("t.dsqz"));
    for dataset in [Dataset::Monitor, Dataset::Forest, Dataset::Census] {
        // The truth is what CSV inference reconstructs, so every adapter
        // sees identical cell types.
        let csv = write_csv(&dataset.generate(ROWS, 17));
        let truth = read_csv_infer(&csv).expect("reparses");
        std::fs::write(&csv_path, &csv).expect("writes");
        let cfg = DsConfig {
            error_threshold: 0.05,
            n_experts: 2,
            max_epochs: 3,
            shard_rows: SHARD_ROWS,
            seed: 5,
            ..Default::default()
        };
        let trained = TrainedCompressor::train(&truth, &cfg).expect("trains");
        let width = trained.code_bits();
        assert!(cfg.code_bits_candidates.contains(&width), "{dataset:?}");
        let want = vec![width; ROWS / SHARD_ROWS];

        let in_memory = compress(&truth, &cfg).expect("compresses");
        assert_eq!(shard_widths(in_memory.as_bytes()), want, "{dataset:?}");
        // `inspect` reports the archive's width, which is every shard's.
        assert_eq!(inspect(&in_memory).expect("inspects").code_bits, width);

        let (streamed, _) =
            compress_csv_stream_to(&csv_path, &cfg, 33, Vec::new()).expect("streams");
        assert_eq!(shard_widths(&streamed.sink), want, "{dataset:?} csv stream");

        std::fs::write(&archive_path, in_memory.as_bytes()).expect("writes");
        let source = open_source(&archive_path, 33).expect("an archive is a source");
        let again = compress_stream_to(&source, &cfg, Vec::new()).expect("recompresses");
        assert_eq!(shard_widths(&again.sink), want, "{dataset:?} recompress");

        let batch = trained
            .compress_batch(&truth.slice_rows(0..SHARD_ROWS))
            .expect("compresses a batch");
        assert_eq!(inspect(&batch).expect("inspects").code_bits, width);

        // A single candidate is the width, measured or not.
        let wide = DsConfig {
            code_bits_candidates: vec![16],
            ..cfg
        };
        let trained = TrainedCompressor::train(&truth, &wide).expect("trains");
        assert_eq!(trained.code_bits(), 16);
        let archive = compress(&truth, &wide).expect("compresses");
        assert_eq!(shard_widths(archive.as_bytes()), [16; ROWS / SHARD_ROWS]);
        let batch = trained.compress_batch(&truth).expect("compresses a batch");
        assert_eq!(inspect(&batch).expect("inspects").code_bits, 16);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hands out `table` in shard-sized chunks; from the second pass on, the
/// chunks at `broken` come back with every numeric column retyped as
/// categorical, which no fitted plan can encode.
struct BreaksInPassTwo<'a> {
    table: &'a Table,
    broken: &'a [usize],
    passes: AtomicUsize,
}

impl RowSource for BreaksInPassTwo<'_> {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }
    fn chunks(&self) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>> {
        let encoding = self.passes.fetch_add(1, Ordering::SeqCst) > 0;
        let starts = (0..self.table.nrows()).step_by(SHARD_ROWS);
        Ok(Box::new(starts.enumerate().map(move |(i, lo)| {
            let hi = (lo + SHARD_ROWS).min(self.table.nrows());
            let chunk = self.table.slice_rows(lo..hi);
            if !(encoding && self.broken.contains(&i)) {
                return Ok(chunk);
            }
            let retyped = chunk
                .schema()
                .fields()
                .iter()
                .zip(chunk.columns())
                .map(|(f, c)| {
                    let cells = (0..c.len()).map(|r| c.format_cell(r));
                    (f.name.clone(), Column::cat(cells))
                })
                .collect();
            Table::from_columns(retyped)
        })))
    }
}

/// When two shards of one encode window fail, the error is the
/// lowest-index shard's, with its row range, at any `DS_THREADS`: results
/// are consumed in shard order, not in completion order. (A window holds
/// twice the pool width, so shards 2 and 3 share one even on one thread.)
#[test]
fn the_lowest_failing_shard_of_a_window_is_the_one_reported() {
    let table = Dataset::Monitor.generate(ROWS, 9);
    let cfg = DsConfig {
        error_threshold: 0.05,
        max_epochs: 2,
        shard_rows: SHARD_ROWS,
        ..Default::default()
    };
    for broken in [[1, 3], [2, 3]] {
        for limit in [1, 2, 8] {
            let source = BreaksInPassTwo {
                table: &table,
                broken: &broken,
                passes: AtomicUsize::new(0),
            };
            let err =
                ds_exec::with_thread_limit(limit, || compress_stream_to(&source, &cfg, Vec::new()))
                    .err()
                    .expect("two shards cannot be encoded");
            let first = broken[0];
            match err {
                DsError::ShardFailed { shard, rows, .. } => assert_eq!(
                    (shard, rows),
                    (first, first * SHARD_ROWS..(first + 1) * SHARD_ROWS),
                    "shards {broken:?} broken, {limit} thread(s)"
                ),
                other => panic!("not a ShardFailed: {other}"),
            }
        }
    }
}
