//! Source negotiation end to end: `open_source` feeding the streaming
//! compressor must make `dsqz recompress` equivalent to compressing the
//! underlying rows directly — byte-for-byte, at any thread count.

use ds_core::{
    compress, compress_stream_to, decompress, open_source, open_source_reader, DsArchive, DsConfig,
    SourceKind, TrainedCompressor,
};
use ds_table::csv::write_csv;
use ds_table::gen;
use ds_table::stream::RowSource;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ds_core_sources_it_{tag}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn cfg() -> DsConfig {
    DsConfig {
        error_threshold: 0.0,
        max_epochs: 2,
        shard_rows: 40,
        seed: 11,
        ..DsConfig::default()
    }
}

/// Streams `source` through the two-pass compressor, returning the
/// container bytes.
fn recompress(source: &dyn RowSource, cfg: &DsConfig) -> Vec<u8> {
    let mut out = Vec::new();
    compress_stream_to(source, cfg, &mut out).expect("recompresses");
    out
}

#[test]
fn recompress_of_archive_matches_compress_of_csv() {
    let dir = tmp_dir("equiv");
    let t = gen::monitor_like(130, 17);
    let csv = write_csv(&t);
    // The reference table must be what CSV inference reconstructs, so
    // both paths see identical cell types.
    let reparsed = ds_table::csv::read_csv_infer(&csv).expect("reparses");

    let csv_path = dir.join("t.csv");
    std::fs::write(&csv_path, &csv).unwrap();

    let v2 = compress(&reparsed, &cfg()).expect("compresses");
    let v2_path = dir.join("t.v2");
    std::fs::write(&v2_path, v2.as_bytes()).unwrap();

    let v1 = TrainedCompressor::train(&reparsed, &cfg())
        .and_then(|trained| trained.compress_batch(&reparsed))
        .expect("compresses v1");
    let v1_path = dir.join("t.v1");
    std::fs::write(&v1_path, v1.as_bytes()).unwrap();
    assert_eq!(
        open_source(&v1_path, 33).expect("opens").kind(),
        SourceKind::ArchiveV1
    );

    // Each input format, each thread count: one set of output bytes.
    let mut reference: Option<Vec<u8>> = None;
    for threads in [1usize, 2, 8] {
        for path in [&csv_path, &v1_path, &v2_path] {
            let bytes = ds_exec::with_thread_limit(threads, || {
                let source = open_source(path, 33).expect("opens");
                recompress(&source, &cfg())
            });
            match &reference {
                None => reference = Some(bytes),
                Some(want) => assert_eq!(
                    &bytes,
                    want,
                    "recompress({}) at {threads} thread(s) diverged",
                    path.display()
                ),
            }
        }
    }

    // And the recompressed container still decodes to the same rows.
    let restored = decompress(&DsArchive::from_bytes(reference.expect("ran"))).expect("decodes");
    assert_eq!(restored, reparsed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stdin_spool_compresses_byte_identically_to_file() {
    let dir = tmp_dir("spool");
    let t = gen::census_like(90, 23);
    let csv = write_csv(&t);
    let path = dir.join("t.csv");
    std::fs::write(&path, &csv).unwrap();

    let from_file = {
        let source = open_source(&path, 28).expect("opens file");
        recompress(&source, &cfg())
    };
    let from_pipe = {
        let source = open_source_reader(csv.as_bytes(), 28).expect("opens pipe");
        assert_eq!(source.kind(), SourceKind::Csv);
        recompress(&source, &cfg())
    };
    assert_eq!(from_file, from_pipe);

    // Piped archives negotiate too: spool a v2 container through the
    // reader path and get the same bytes again.
    let from_archive_pipe = {
        let source = open_source_reader(&from_file[..], 28).expect("opens archive pipe");
        assert_eq!(source.kind(), SourceKind::ArchiveV2);
        recompress(&source, &cfg())
    };
    assert_eq!(from_archive_pipe, from_file);
    let _ = std::fs::remove_dir_all(&dir);
}
