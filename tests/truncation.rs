//! Truncation robustness: every prefix of a valid archive — v1 monolithic
//! or v2 sharded — must yield a typed error, never a panic or an
//! out-of-bounds read. The one exception is a container without a model
//! cut exactly at the end of shard 0, which is a valid v1 archive.
//! Mirrors the crate-level negative tests at the integration boundary
//! where real files get cut short.

use ds_core::{
    compress, decompress, decompress_rows, inspect, DsArchive, DsConfig, DsError, TrainedCompressor,
};
use ds_table::gen::Dataset;
use ds_table::{Column, Table};

fn small_input(shard_rows: usize) -> (ds_table::Table, DsConfig) {
    // Monitor + lossy threshold trains a model, so v2 shards carry empty
    // decoder blobs and depend on the manifest's shared decoder — no
    // prefix of the container can masquerade as a complete v1 archive.
    let t = Dataset::Monitor.generate(60, 23);
    let cfg = DsConfig {
        error_threshold: 0.1,
        max_epochs: 2,
        shard_rows,
        ..Default::default()
    };
    (t, cfg)
}

fn small_archive(shard_rows: usize) -> Vec<u8> {
    let (t, cfg) = small_input(shard_rows);
    compress(&t, &cfg).expect("compresses").as_bytes().to_vec()
}

fn assert_prefix_errors(bytes: &[u8], cut: usize) {
    let archive = DsArchive::from_bytes(bytes[..cut].to_vec());
    assert!(
        decompress(&archive).is_err(),
        "decompress accepted a {cut}-byte prefix of a {}-byte archive",
        bytes.len()
    );
    // Ranged reads go through the same validation.
    assert!(decompress_rows(&archive, 0..10).is_err());
    // `inspect` is a header-only peek, so a prefix containing a full
    // v1 envelope (e.g. the start of shard 0) may legitimately parse;
    // it must simply never panic.
    let _ = inspect(&archive);
}

fn assert_every_prefix_errors(bytes: &[u8]) {
    for cut in 0..bytes.len() {
        assert_prefix_errors(bytes, cut);
    }
}

#[test]
fn every_truncation_of_a_v1_archive_errors() {
    // New archives are always v2; `compress_batch` still writes the blob
    // a v1 file holds.
    let (t, cfg) = small_input(0);
    let v1 = TrainedCompressor::train(&t, &cfg)
        .and_then(|trained| trained.compress_batch(&t))
        .expect("compresses");
    assert!(!ds_shard::is_sharded(v1.as_bytes()));
    assert_every_prefix_errors(v1.as_bytes());
}

#[test]
fn every_truncation_of_a_one_shard_container_errors() {
    assert_every_prefix_errors(&small_archive(0));
}

#[test]
fn every_truncation_of_a_v2_container_errors() {
    let bytes = small_archive(16);
    assert!(ds_shard::is_sharded(&bytes));
    assert_every_prefix_errors(&bytes);
}

/// A container with no model: one column of 200 distinct strings falls
/// back whole, so there is no shared decoder and every shard blob is a
/// complete v1 archive by itself. Cut anywhere past shard 0 (its footer
/// lost, shard 1 half there), such a container must not open as a v1
/// archive of shard 0 and pass its 50 rows off as the whole table.
#[test]
fn every_truncation_of_a_no_model_container_errors() {
    let t = Table::from_columns(vec![(
        "user".into(),
        Column::cat((0..200).map(|i| format!("user-{i:04}"))),
    )])
    .expect("valid table");
    let cfg = DsConfig {
        shard_rows: 50,
        ..Default::default()
    };
    let bytes = compress(&t, &cfg).expect("compresses").as_bytes().to_vec();
    let shard0 = {
        let reader = ds_shard::ShardReader::open(&bytes).expect("opens");
        assert_eq!(reader.n_shards(), 4);
        assert!(reader.shared().is_empty(), "no shared decoder");
        reader.entries()[0].clone()
    };
    assert_eq!(shard0.offset, 0);
    for cut in (0..bytes.len()).filter(|&cut| cut != shard0.len) {
        assert_prefix_errors(&bytes, cut);
    }
    // Past shard 0 the refusal is the typed trailing-bytes error.
    let cut = DsArchive::from_bytes(bytes[..shard0.len + 5].to_vec());
    assert!(matches!(decompress(&cut), Err(DsError::Corrupt(_))));
    // The one exception: the cut exactly at shard 0's end leaves shard
    // 0's blob and nothing else, which is by format a valid v1 archive.
    // It decodes to exactly shard 0's rows.
    let shard0_only = DsArchive::from_bytes(bytes[..shard0.len].to_vec());
    let rows = decompress(&shard0_only).expect("a v1 archive");
    assert_eq!(rows, t.slice_rows(shard0.rows));
}

/// Flipping a byte inside each shard blob trips that shard's CRC — never
/// a panic, never silent acceptance of wrong rows.
#[test]
fn v2_shard_corruption_is_detected() {
    let bytes = small_archive(16);
    let targets: Vec<usize> = {
        let reader = ds_shard::ShardReader::open(&bytes).expect("opens");
        assert!(reader.n_shards() >= 3);
        reader
            .entries()
            .iter()
            .map(|e| e.offset + e.len / 2)
            .collect()
    };
    for pos in targets {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        assert!(
            decompress(&DsArchive::from_bytes(bad)).is_err(),
            "corruption at byte {pos} went undetected"
        );
    }
}

/// Truncated parq blobs return typed errors from `read_table`.
#[test]
fn parq_read_table_errors_on_truncation() {
    use ds_codec::parq::{self, ParqColumn};
    let cols = vec![
        ("id".to_owned(), ParqColumn::U32((0..100).collect())),
        (
            "val".to_owned(),
            ParqColumn::F64((0..100).map(|i| i as f64 * 0.5).collect()),
        ),
        (
            "tag".to_owned(),
            ParqColumn::Str((0..100).map(|i| format!("t{}", i % 7)).collect()),
        ),
    ];
    let (blob, _) = parq::write_table(&cols).expect("writes");
    assert!(parq::read_table(&blob).is_ok());
    for cut in 0..blob.len() {
        assert!(
            parq::read_table(&blob[..cut]).is_err(),
            "read_table accepted a {cut}-byte prefix"
        );
    }
}
