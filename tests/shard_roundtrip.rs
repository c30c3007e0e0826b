//! Sharded-container integration tests: random tables × shard sizes must
//! round-trip byte-identically through the v2 row-group container, partial
//! reads must agree with slices of the full decode (and touch only the
//! intersecting shards), and results must not depend on the thread count.

use ds_core::{
    compress, compress_stream_to, decompress, decompress_rows, decompress_rows_with_stats,
    DsConfig, TrainedCompressor,
};
use ds_table::csv::write_csv;
use ds_table::gen::Dataset;
use ds_table::stream::TableSource;
use ds_table::{Column, Table};
use proptest::prelude::*;

/// Strategy: a small random table with 1–5 columns mixing categoricals
/// and numerics, 1–60 rows (mirrors `tests/properties.rs`).
fn arb_table() -> impl Strategy<Value = Table> {
    let ncols = 1usize..=5;
    let nrows = 1usize..=60;
    (ncols, nrows).prop_flat_map(|(ncols, nrows)| {
        let col = prop_oneof![
            prop::collection::vec(0u8..6, nrows..=nrows)
                .prop_map(|v| Column::Cat(v.into_iter().map(|c| format!("c{c}")).collect())),
            prop::collection::vec(-1000.0f64..1000.0, nrows..=nrows)
                .prop_map(|v| Column::Num(v.into_iter().map(|x| x.round()).collect())),
        ];
        prop::collection::vec(col, ncols..=ncols).prop_map(|cols| {
            let named = cols
                .into_iter()
                .enumerate()
                .map(|(i, c)| (format!("col{i}"), c))
                .collect();
            Table::from_columns(named).expect("equal lengths by construction")
        })
    })
}

fn lossless_cfg(shard_rows: usize) -> DsConfig {
    DsConfig {
        error_threshold: 0.0,
        code_size: 2,
        max_epochs: 2,
        shard_rows,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lossless sharded round-trips reproduce the table byte-for-byte for
    /// every shard-size class, and `read_rows(a..b)` equals the same slice
    /// of the full decode.
    #[test]
    fn sharded_roundtrip_is_exact_for_any_shard_size(
        table in arb_table(),
        pick in 0usize..4,
        lo in any::<prop::sample::Index>(),
        hi in any::<prop::sample::Index>(),
    ) {
        let nrows = table.nrows();
        let shard_rows = [1, 7, 64, nrows + 1][pick];
        let archive = compress(&table, &lossless_cfg(shard_rows)).expect("compresses");
        let restored = decompress(&archive).expect("decodes");
        prop_assert_eq!(write_csv(&table), write_csv(&restored));

        let i = lo.index(nrows + 1);
        let j = hi.index(nrows + 1);
        let (a, b) = (i.min(j), i.max(j));
        let part = decompress_rows(&archive, a..b).expect("partial decode");
        prop_assert_eq!(write_csv(&part), write_csv(&restored.slice_rows(a..b)));
    }
}

/// Acceptance: on a 10-shard archive, a row range touching shards 2..=5
/// decodes exactly 4 of the 10 shards and matches the full decode's slice.
#[test]
fn ten_shard_partial_read_decodes_only_intersecting_shards() {
    let t = Dataset::Census.generate(200, 17);
    let cfg = DsConfig {
        max_epochs: 3,
        shard_rows: 20,
        ..Default::default()
    };
    let archive = compress(&t, &cfg).expect("compresses");
    let full = decompress(&archive).expect("full decode");

    let (part, stats) = decompress_rows_with_stats(&archive, 45..105).expect("partial decode");
    assert_eq!(stats.shards_total, 10);
    assert_eq!(stats.shards_decoded, 4, "rows 45..105 span shards 2..=5");
    assert_eq!(write_csv(&part), write_csv(&full.slice_rows(45..105)));

    // A range inside one shard decodes exactly that shard.
    let (one, stats) = decompress_rows_with_stats(&archive, 60..79).expect("partial decode");
    assert_eq!(stats.shards_decoded, 1);
    assert_eq!(write_csv(&one), write_csv(&full.slice_rows(60..79)));
}

/// Sharding costs bytes (an envelope and a manifest row per shard, shorter
/// entropy-coded streams) but not a multiple of them: 16 row groups of a
/// small table stay within 3x of the same table in one shard.
#[test]
fn sixteen_shards_cost_at_most_three_times_one_shard() {
    let t = Dataset::Monitor.generate(1600, 42);
    let one_shard = DsConfig {
        error_threshold: 0.05,
        code_size: 2,
        n_experts: 2,
        max_epochs: 3,
        ..Default::default()
    };
    let sixteen = DsConfig {
        shard_rows: 100,
        ..one_shard.clone()
    };
    let one = compress(&t, &one_shard).expect("compresses").size();
    let many = compress(&t, &sixteen).expect("compresses").size();
    assert!(
        many <= 3 * one,
        "16 shards: {many} B, one shard: {one} B ({:.2}x)",
        many as f64 / one as f64
    );
}

/// Sharded compression and partial decode are bit-identical whether the
/// pool runs 1 or 8 threads.
#[test]
fn sharded_container_is_thread_count_invariant() {
    let t = Dataset::Monitor.generate(150, 5);
    let cfg = DsConfig {
        error_threshold: 0.05,
        max_epochs: 2,
        shard_rows: 32,
        ..Default::default()
    };
    let one = ds_exec::with_thread_limit(1, || compress(&t, &cfg).expect("compresses"));
    let eight = ds_exec::with_thread_limit(8, || compress(&t, &cfg).expect("compresses"));
    assert_eq!(one.as_bytes(), eight.as_bytes());

    let p1 = ds_exec::with_thread_limit(1, || decompress_rows(&one, 10..130).expect("decodes"));
    let p8 = ds_exec::with_thread_limit(8, || decompress_rows(&one, 10..130).expect("decodes"));
    assert_eq!(write_csv(&p1), write_csv(&p8));
}

/// Legacy v1 (monolithic) archives are untouched by the sharding feature:
/// they still decode, and ranged reads fall back to decode-then-slice.
#[test]
fn legacy_monolithic_archives_still_decode() {
    let t = Dataset::Corel.generate(120, 7);
    let cfg = DsConfig {
        error_threshold: 0.05,
        max_epochs: 2,
        ..Default::default()
    };
    // New archives are always v2; a `compress_batch` blob is byte-for-byte
    // what a v1 archive file holds.
    let archive = TrainedCompressor::train(&t, &cfg)
        .and_then(|trained| trained.compress_batch(&t))
        .expect("compresses");
    assert!(!ds_shard::is_sharded(archive.as_bytes()));
    let full = decompress(&archive).expect("decodes");
    assert_eq!(full.nrows(), 120);

    let (part, stats) = decompress_rows_with_stats(&archive, 30..90).expect("ranged decode");
    assert_eq!((stats.shards_total, stats.shards_decoded), (1, 1));
    assert_eq!(write_csv(&part), write_csv(&full.slice_rows(30..90)));
}

/// A sink that fails when a shard's row range lands in it: the error must
/// name the failing shard index and its row range, not surface as a bare
/// I/O error.
#[test]
fn shard_failure_names_the_shard_and_row_range() {
    /// Accepts the first `write` call (shard 0's blob) wholesale, then
    /// fails — so shard 1 is the first shard that cannot be flushed.
    struct FailingSink {
        writes_done: usize,
    }
    impl std::io::Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes_done == 0 {
                self.writes_done = 1;
                Ok(buf.len())
            } else {
                Err(std::io::Error::other("disk full (synthetic)"))
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let t = Dataset::Monitor.generate(100, 5);
    let cfg = DsConfig {
        error_threshold: 0.05,
        max_epochs: 2,
        shard_rows: 40,
        ..Default::default()
    };
    let source = TableSource::new(&t, cfg.shard_rows);
    let err = compress_stream_to(&source, &cfg, FailingSink { writes_done: 0 })
        .err()
        .expect("second shard flush must fail");
    let msg = err.to_string();
    assert!(msg.contains("shard 1"), "error must name the shard: {msg}");
    assert!(
        msg.contains("rows 40..80"),
        "error must name the row range: {msg}"
    );
    assert!(
        msg.contains("disk full"),
        "error must keep the cause: {msg}"
    );
}
