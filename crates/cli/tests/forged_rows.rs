//! A container whose manifest lies about one shard's row count must fail
//! with a typed error on every read entry point that touches that shard —
//! never `Ok`, never silently misaligned rows. The blobs are a real
//! archive's, re-framed with valid CRCs, so nothing below the decoded row
//! count can notice.

use ds_core::{
    compress, decompress, decompress_rows_with_stats, open_source, DsArchive, DsConfig, DsError,
};
use ds_serve::{Archive, ServeError};
use ds_shard::{ShardError, ShardReader, ShardWriter};
use ds_table::gen;
use ds_table::stream::RowSource;
use std::process::Command;

const COMPLAINT: &str = "decoded shard row count disagrees with manifest";

/// 200 rows in 4 shards of 50, re-framed so shard 1 declares 80: the
/// manifest now says 230 rows, with shard 1 covering 50..130.
fn forged_container() -> Vec<u8> {
    let cfg = DsConfig {
        max_epochs: 2,
        shard_rows: 50,
        ..DsConfig::default()
    };
    let real = compress(&gen::census_like(200, 4), &cfg).expect("compresses");
    let reader = ShardReader::open(real.as_bytes()).expect("opens");
    let mut writer = ShardWriter::new(Vec::new());
    writer.set_shared(reader.shared().to_vec());
    for (i, entry) in reader.entries().iter().enumerate() {
        let rows = if i == 1 { 80 } else { entry.rows.len() };
        writer
            .push_shard(rows, reader.shard_bytes(i).expect("blob"))
            .expect("pushes");
    }
    writer.finish().expect("finishes").0
}

fn is_complaint(e: &DsError) -> bool {
    matches!(e, DsError::Shard(ShardError::Corrupt(what)) if *what == COMPLAINT)
}

#[test]
fn a_lying_row_count_is_a_typed_error_on_every_read_entry_point() {
    let bytes = forged_container();
    let dir = std::env::temp_dir().join(format!("dsqz_forged_rows_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("forged.dsqz");
    std::fs::write(&path, &bytes).expect("writes");
    let archive = DsArchive::from_bytes(bytes.clone());
    let dsqz = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_dsqz"))
            .arg("decompress")
            .arg(&path)
            .arg(dir.join("out.csv"))
            .args(extra)
            .output()
            .expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        if !out.status.success() && stderr.contains(COMPLAINT) {
            Ok(())
        } else {
            Err(format!("status {:?}, stderr: {stderr}", out.status))
        }
    };
    let serve = |got: Result<String, ServeError>| match got {
        Err(ServeError::Shard(ShardError::Corrupt(what))) if what == COMPLAINT => Ok(()),
        other => Err(format!("{other:?}")),
    };
    let served = Archive::open(bytes.clone()).expect("the manifest itself is well formed");
    let core = |got: Result<usize, DsError>| match got {
        Err(e) if is_complaint(&e) => Ok(()),
        other => Err(format!("{other:?}")),
    };

    // Every range below overlaps 50..130, the rows shard 1 claims.
    let cases: Vec<(&str, Result<(), String>)> = vec![
        ("decompress", core(decompress(&archive).map(|t| t.nrows()))),
        (
            "decompress_rows_with_stats",
            core(decompress_rows_with_stats(&archive, 100..170).map(|(t, _)| t.nrows())),
        ),
        ("open_source(..).chunks()", {
            let source = open_source(&path, 50).expect("shard 0 is honest, so open succeeds");
            let chunks: Result<Vec<_>, _> = source.chunks().expect("starts").collect();
            match chunks {
                Err(ds_table::TableError::Io(msg)) if msg.contains(COMPLAINT) => Ok(()),
                other => Err(format!("{:?}", other.map(|c| c.len()))),
            }
        }),
        (
            "Archive::read_rows",
            serve(
                served
                    .read_rows(60..140)
                    .map(|t| format!("{} rows", t.nrows())),
            ),
        ),
        (
            "Archive::stream_csv",
            serve(
                served
                    .stream_csv(0..served.total_rows(), &mut Vec::new(), true)
                    .map(|n| format!("{n} rows")),
            ),
        ),
        ("dsqz decompress", dsqz(&[])),
        ("dsqz decompress --rows", dsqz(&["--rows", "100..170"])),
    ];
    let failures: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, outcome)| outcome.err().map(|got| format!("{name}: {got}")))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");

    // Reads that stay inside honest shard 0 are unaffected.
    let honest = decompress_rows_with_stats(&archive, 0..50).expect("shard 0 reads");
    assert_eq!(honest.0.nrows(), 50);
    let _ = std::fs::remove_dir_all(&dir);
}
