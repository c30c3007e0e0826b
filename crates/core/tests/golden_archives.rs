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
//!   so no refactor silently changes the default wire format. v1 is a
//!   read-only *archive* format, but its blob is still what every shard
//!   and `compress_batch` write, so `v1.dsqz` pins that blob writer.
//!
//! Two more v2 fixtures pin the manifest's codec-chain section, which
//! this build reads and never writes:
//!
//! * `v2_forged.dsqz` is `v2.dsqz` with a hand-built chain section naming
//!   an id from the future. It pins the typed `UnknownCodec` error path on
//!   every decode entry point — error, never panic.
//! * `v2_chains.dsqz` is frozen: the last build with an opt-in codec
//!   probe wrote it from the same table and config with the probe on. Its
//!   shard blobs are `v2.dsqz`'s, and its manifest adds a real chain
//!   section (one chain, `bitpack`, for each of the 68 columns of every
//!   shard). Regeneration does not touch it.
//!
//! One more pins how *lossy numeric* cells decode and print, which the
//! census fixtures (all categorical, lossless) never exercise:
//!
//! * `v2_numeric.dsqz` holds 300 monitor rows (17 numeric columns) at
//!   `error_threshold` 0.01 in three shards, and `expected_numeric.csv`
//!   is its decoded CSV. The pin is decode-only: no test re-encodes the
//!   table and compares archive bytes, so a change to what `compress`
//!   writes leaves it valid; only a change to how this archive decodes,
//!   or to how a number prints, breaks it.
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

/// The numeric fixture's table and config: lossy, so decoded cells are
/// fractions that exercise the number writer.
fn numeric_table() -> ds_table::Table {
    gen::monitor_like(300, 7)
}

fn numeric_cfg() -> DsConfig {
    DsConfig {
        error_threshold: 0.01,
        shard_rows: 100,
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
fn golden_v2_numeric_decodes_byte_identically() {
    let archive = DsArchive::from_bytes(read_fixture("v2_numeric.dsqz"));
    let restored = decompress(&archive).expect("golden v2_numeric decodes");
    let csv = write_csv(&restored);
    assert_eq!(
        csv.as_bytes(),
        read_fixture("expected_numeric.csv"),
        "v2_numeric decode or number rendering drifted from the committed CSV"
    );
    assert_eq!(restored.nrows(), 300);
    assert_eq!(csv.len(), restored.raw_size());
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

    let numeric = compress(&numeric_table(), &numeric_cfg()).expect("v2_numeric compresses");
    std::fs::write(dir.join("v2_numeric.dsqz"), numeric.as_bytes()).expect("write v2_numeric");
    let restored = decompress(&numeric).expect("v2_numeric decodes");
    std::fs::write(dir.join("expected_numeric.csv"), write_csv(&restored))
        .expect("write numeric csv");
}

/// Appends to the v2 container a chain section (manifest section tag 1)
/// giving every column of every shard the one chain `[FORGED_ID]` —
/// structurally valid everywhere except the unknown id, so the typed
/// rejection is attributable to the id alone.
fn write_forged_fixture(v2_bytes: &[u8], path: &std::path::Path) {
    let reader = ds_shard::ShardReader::open(v2_bytes).expect("golden v2 parses");
    let ncols = fixture_table().ncols();
    let mut body = ds_codec::ByteWriter::new();
    body.write_varint(ncols as u64);
    body.write_varint(1); // distinct chains
    body.write_varint(1); // its length
    body.write_varint(u64::from(FORGED_ID));
    for _ in 0..reader.n_shards() * ncols {
        body.write_varint(0); // every cell names chain 0
    }
    let mut section = ds_codec::ByteWriter::new();
    section.write_u8(ds_shard::SECTION_CODEC_CHAINS);
    section.write_len_prefixed(body.as_slice());

    // The section goes at the manifest's end, ahead of the footer, whose
    // manifest length grows by the section's size.
    let (head, footer) = v2_bytes.split_at(v2_bytes.len() - ds_shard::FOOTER_LEN);
    let (len, rest) = footer.split_at(4);
    let manifest_len = u32::from_le_bytes(len.try_into().expect("4 bytes"));
    let grown = manifest_len + u32::try_from(section.len()).expect("small section");
    let mut bytes = head.to_vec();
    bytes.extend_from_slice(section.as_slice());
    bytes.extend_from_slice(&grown.to_le_bytes());
    bytes.extend_from_slice(rest);
    std::fs::write(path, bytes).expect("write forged fixture");
}

#[test]
fn golden_v2_chains_decodes_byte_identically() {
    let bytes = read_fixture("v2_chains.dsqz");
    let restored = decompress(&DsArchive::from_bytes(bytes.clone())).expect("decodes");
    assert_eq!(
        write_csv(&restored).into_bytes(),
        read_fixture("expected.csv"),
        "v2_chains decode drifted from the committed CSV"
    );
    // The chain section is all it adds to v2.dsqz: the same shard blobs.
    let chains = ds_shard::ShardReader::open(&bytes).expect("opens");
    let plain_bytes = read_fixture("v2.dsqz");
    let plain = ds_shard::ShardReader::open(&plain_bytes).expect("opens");
    assert_eq!(chains.n_shards(), plain.n_shards());
    for i in 0..plain.n_shards() {
        assert_eq!(
            chains.shard_bytes(i).unwrap(),
            plain.shard_bytes(i).unwrap()
        );
    }
}

#[test]
fn recorded_chains_reach_inspect_and_stat() {
    let bytes = read_fixture("v2_chains.dsqz");
    let info = ds_core::inspect(&DsArchive::from_bytes(bytes.clone())).expect("inspects");
    let chains = info.codec_chains.expect("a recorded chain section");
    let bitpack = vec![ds_codec::registry::BITPACK.raw()];
    assert_eq!(chains, vec![bitpack; 68]);

    let archive = ds_serve::Archive::open(bytes).expect("serve opens");
    assert_eq!(archive.codec_summary(), "bitpack");
    // What this build writes records none.
    let plain = ds_serve::Archive::open(read_fixture("v2.dsqz")).expect("serve opens");
    assert_eq!(plain.codec_summary(), "legacy");
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

/// How a number printed before `write_number` wrote digits itself:
/// `core::fmt` for every cell.
fn fmt_number(v: f64) -> String {
    if !v.is_finite() {
        format!("{v}")
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    }
}

/// A CSV writer built on [`fmt_number`], quoting as RFC 4180 does.
fn fmt_csv(t: &ds_table::Table) -> String {
    let field = |s: &str| {
        if s.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    };
    let names: Vec<String> = t.schema().fields().iter().map(|f| field(&f.name)).collect();
    let mut out = names.join(",") + "\n";
    for r in 0..t.nrows() {
        let cells: Vec<String> = t
            .columns()
            .iter()
            .map(|c| match c {
                ds_table::Column::Cat(v) => field(&v[r]),
                ds_table::Column::Num(v) => fmt_number(v[r]),
            })
            .collect();
        out += &cells.join(",");
        out.push('\n');
    }
    out
}

#[test]
fn lossy_decodes_of_every_generator_render_as_core_fmt_does() {
    let (mut fractions, mut fallbacks) = (0usize, 0usize);
    for dataset in gen::Dataset::ALL {
        let t = dataset.generate(400, 11);
        let archive = compress(&t, &numeric_cfg()).expect("compresses");
        let restored = decompress(&archive).expect("decodes");
        let csv = write_csv(&restored);
        assert!(
            csv == fmt_csv(&restored),
            "{}: CSV bytes differ",
            dataset.name()
        );
        assert_eq!(csv.len(), restored.raw_size(), "{}", dataset.name());
        for v in restored
            .columns()
            .iter()
            .filter_map(|c| c.as_num())
            .flatten()
        {
            if v.is_finite() && *v != v.trunc() {
                fractions += 1;
                fallbacks += usize::from(ds_table::fixed6_micros(*v).is_none());
            }
        }
    }
    eprintln!("{fractions} fractional cells, {fallbacks} rendered by core::fmt");
    assert!(fractions > 10_000, "only {fractions} fractional cells");
}
