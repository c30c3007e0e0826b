//! Golden archive fixtures: small committed v1 and v2 containers that pin
//! the byte-level format across refactors.
//!
//! Two invariants are enforced, both directions:
//!
//! * **Decode stability** — the committed archives must keep decoding to
//!   exactly the committed CSV (`expected.csv`), so no refactor can break
//!   old archives in the field.
//! * **Encode stability** — compressing the same deterministic table with
//!   the same config must reproduce the committed archive bytes exactly,
//!   so no refactor silently changes the default wire format. (New
//!   manifest sections are opt-in: `numeric_probe` is off here.) v1 is a
//!   read-only *archive* format, but its blob is still what every shard
//!   and `compress_batch` write, so `v1.dsqz` pins that blob writer.
//!
//! A third fixture (`v2_forged.dsqz`) carries a codec chain with an id
//! from the future and pins the typed `UnknownCodec` error path on every
//! decode entry point — error, never panic.
//!
//! Regenerate after an *intentional* format change with:
//!
//! ```text
//! cargo test -p ds-core --test golden_archives -- --ignored
//! ```
//!
//! (Regeneration is deterministic; on an unchanged format it rewrites
//! identical bytes.)

use ds_core::{
    compress, decompress, decompress_rows, DsArchive, DsConfig, DsError, TrainedCompressor,
};
use ds_table::csv::write_csv;
use ds_table::gen;
use std::path::PathBuf;

/// A codec id no registry entry will ever claim (the registry reserves
/// nothing near it); forged into `v2_forged.dsqz`.
const FORGED_ID: u16 = 0xBEEF;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = golden_dir().join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {} ({e}); see module docs", name))
}

/// The deterministic table behind every fixture: mixed numeric and
/// categorical columns, lossless threshold so the CSV pin is exact.
fn fixture_table() -> ds_table::Table {
    gen::census_like(150, 7)
}

fn v1_cfg() -> DsConfig {
    DsConfig {
        error_threshold: 0.0,
        max_epochs: 3,
        code_size: 2,
        seed: 9,
        ..DsConfig::default()
    }
}

/// The self-contained v1 blob of the fixture table.
fn v1_blob(t: &ds_table::Table) -> DsArchive {
    let trained = TrainedCompressor::train(t, &v1_cfg()).expect("trains");
    trained.compress_batch(t).expect("compresses")
}

fn v2_cfg() -> DsConfig {
    DsConfig {
        shard_rows: 32,
        ..v1_cfg()
    }
}

#[test]
fn golden_v1_decodes_byte_identically() {
    let archive = DsArchive::from_bytes(read_fixture("v1.dsqz"));
    let restored = decompress(&archive).expect("golden v1 decodes");
    assert_eq!(
        write_csv(&restored).into_bytes(),
        read_fixture("expected.csv"),
        "v1 decode drifted from the committed CSV"
    );
}

#[test]
fn golden_v2_decodes_byte_identically() {
    let archive = DsArchive::from_bytes(read_fixture("v2.dsqz"));
    let restored = decompress(&archive).expect("golden v2 decodes");
    assert_eq!(
        write_csv(&restored).into_bytes(),
        read_fixture("expected.csv"),
        "v2 decode drifted from the committed CSV"
    );
    // Partial reads agree with the full decode.
    let part = decompress_rows(&archive, 40..70).expect("partial read");
    assert_eq!(part, restored.slice_rows(40..70));
}

#[test]
fn compress_reproduces_golden_v1_bytes() {
    let archive = v1_blob(&fixture_table());
    assert_eq!(
        archive.as_bytes(),
        &read_fixture("v1.dsqz")[..],
        "default v1 encode bytes drifted from the committed archive"
    );
}

#[test]
fn compress_reproduces_golden_v2_bytes() {
    let archive = compress(&fixture_table(), &v2_cfg()).expect("compresses");
    assert_eq!(
        archive.as_bytes(),
        &read_fixture("v2.dsqz")[..],
        "default v2 encode bytes drifted from the committed archive"
    );
}

#[test]
#[ignore = "regenerates the committed fixtures; run with -- --ignored"]
fn regenerate_golden_fixtures() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create golden dir");
    let t = fixture_table();

    let v1 = v1_blob(&t);
    std::fs::write(dir.join("v1.dsqz"), v1.as_bytes()).expect("write v1");

    let v2 = compress(&t, &v2_cfg()).expect("v2 compresses");
    std::fs::write(dir.join("v2.dsqz"), v2.as_bytes()).expect("write v2");

    let restored = decompress(&v1).expect("v1 decodes");
    assert_eq!(restored, decompress(&v2).expect("v2 decodes"));
    std::fs::write(dir.join("expected.csv"), write_csv(&restored)).expect("write csv");

    write_forged_fixture(v2.as_bytes(), &dir.join("v2_forged.dsqz"));
}

/// Rebuilds the v2 container with a per-column codec chain carrying
/// [`FORGED_ID`] — structurally valid everywhere except the unknown id,
/// so the typed rejection is attributable to the id alone.
fn write_forged_fixture(v2_bytes: &[u8], path: &std::path::Path) {
    let reader = ds_shard::ShardReader::open(v2_bytes).expect("golden v2 parses");
    let ncols = fixture_table().ncols();
    let mut writer = ds_shard::ShardWriter::new(Vec::new());
    writer.set_shared(reader.shared().to_vec());
    for i in 0..reader.n_shards() {
        let blob = reader.shard_bytes(i).expect("shard bytes").to_vec();
        let rows = reader.entries()[i].rows.len();
        let chains = vec![vec![FORGED_ID]; ncols];
        writer
            .push_shard_with_chains(rows, &blob, chains)
            .expect("push shard");
    }
    let (bytes, _) = writer.finish().expect("finish forged container");
    std::fs::write(path, bytes).expect("write forged fixture");
}

#[test]
fn forged_codec_id_yields_typed_error_on_every_entry_point() {
    let bytes = read_fixture("v2_forged.dsqz");
    let is_unknown = |e: &DsError| {
        matches!(
            e,
            DsError::Shard(ds_shard::ShardError::Codec(
                ds_codec::CodecError::UnknownCodec(id)
            )) if *id == FORGED_ID
        )
    };

    // Full decode.
    let archive = DsArchive::from_bytes(bytes.clone());
    let err = decompress(&archive).expect_err("forged id must not decode");
    assert!(is_unknown(&err), "decompress: {err:?}");

    // Partial decode.
    let err = decompress_rows(&archive, 0..10).expect_err("forged id must not decode");
    assert!(is_unknown(&err), "decompress_rows: {err:?}");

    // Container-level open (what inspect and the shard layer use).
    match ds_shard::ShardReader::open(&bytes) {
        Ok(_) => panic!("ShardReader::open must reject the forged id"),
        Err(ds_shard::ShardError::Codec(ds_codec::CodecError::UnknownCodec(FORGED_ID))) => {}
        Err(err) => panic!("ShardReader::open: wrong error {err:?}"),
    }

    // The serving layer (positioned reads).
    match ds_serve::Archive::open(bytes) {
        Ok(_) => panic!("serve open must reject the forged id"),
        Err(
            err @ ds_serve::ServeError::Shard(ds_shard::ShardError::Codec(
                ds_codec::CodecError::UnknownCodec(FORGED_ID),
            )),
        ) => drop(err),
        Err(err) => panic!("serve: wrong error {err:?}"),
    }
}
