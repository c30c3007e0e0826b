//! End-to-end SIMD determinism (§3f): runtime kernel selection must never
//! change archive bytes. The same table compressed through the staged
//! streaming pipeline with the scalar reference kernels (`DS_SIMD=off`
//! semantics, via the scoped override) and with the detected level must
//! produce byte-identical containers, at every thread count — the NN
//! training path, the codec hot loops, and the checksums all sit behind
//! the same lane-group determinism contract.

use ds_core::{compress_stream_to, decompress, DsArchive, DsConfig};
use ds_simd::Level;
use ds_table::gen;
use ds_table::stream::TableSource;
use ds_table::Table;

fn compress_at(t: &Table, cfg: &DsConfig, level: Level, threads: usize) -> Vec<u8> {
    ds_exec::with_thread_limit(threads, || {
        ds_simd::with_level(level, || {
            let src = TableSource::new(t, 128);
            let mut out = Vec::new();
            compress_stream_to(&src, cfg, &mut out).expect("compress");
            out
        })
    })
}

fn archive_bytes(level: Level, threads: usize) -> Vec<u8> {
    let t = gen::corel_like(600, 11);
    let cfg = DsConfig {
        error_threshold: 0.05,
        code_size: 2,
        n_experts: 2,
        max_epochs: 4,
        shard_rows: 128,
        ..Default::default()
    };
    compress_at(&t, &cfg, level, threads)
}

/// CRC-32 of the census and forest archives below, recorded when the
/// kernels were still the one-dot `matmul_t` and the axpy `t_matmul`.
const CENSUS_CRC: u32 = 0x5f42_f2de;
const FOREST_CRC: u32 = 0xca23_866a;

/// The categorical training path — categorical heads through the shared
/// layer, numeric heads beside them, a 2-expert gate — pinned end to end:
/// scalar and detected kernels at 1, 2 and 8 threads must write one
/// archive, and its CRC-32 must be the one these inputs gave before the
/// kernels took their current register shapes. The equality alone would
/// pass a change to the accumulation schedule made in scalar and SIMD
/// alike; the CRC does not. (The value also depends on the platform's
/// `expf` / `tanhf` — ROADMAP item 3.) The decode path is pinned the same
/// way: every level and thread count reads the archive back into one
/// table, and the lossless census archive reads back into its source.
#[test]
fn categorical_training_archives_are_pinned() {
    let census = DsConfig {
        error_threshold: 0.0,
        code_size: 6,
        n_experts: 2,
        max_epochs: 2,
        shard_rows: 200,
        ..Default::default()
    };
    let forest = DsConfig {
        error_threshold: 0.01,
        code_size: 4,
        ..census.clone()
    };
    for (name, table, cfg, want) in [
        ("census", gen::census_like(400, 5), census, CENSUS_CRC),
        ("forest", gen::forest_like(400, 6), forest, FOREST_CRC),
    ] {
        let reference = compress_at(&table, &cfg, Level::Scalar, 1);
        for level in [Level::Scalar, ds_simd::detected()] {
            for threads in [1, 2, 8] {
                let bytes = compress_at(&table, &cfg, level, threads);
                assert!(bytes == reference, "{name}: {level:?} at {threads} threads");
            }
        }
        let crc = ds_codec::crc32::crc32(&reference);
        assert_eq!(crc, want, "{name}: archive bytes moved (crc32 {crc:08x})");

        let archive = DsArchive::from_bytes(reference);
        let decode_at = |level: Level, threads: usize| {
            ds_exec::with_thread_limit(threads, || {
                ds_simd::with_level(level, || decompress(&archive).expect("decompress"))
            })
        };
        let decoded = decode_at(Level::Scalar, 1);
        for level in [Level::Scalar, ds_simd::detected()] {
            for threads in [1, 2, 8] {
                let t = decode_at(level, threads);
                assert!(
                    t == decoded,
                    "{name}: decode at {level:?}, {threads} threads"
                );
            }
        }
        if name == "census" {
            assert!(
                decoded == table,
                "census: the lossless archive must decode to its source"
            );
        }
    }
}

#[test]
fn kernel_level_never_changes_archive_bytes() {
    let scalar = archive_bytes(Level::Scalar, 1);
    let auto = archive_bytes(ds_simd::detected(), 1);
    assert_eq!(
        scalar, auto,
        "scalar and detected kernels must emit identical archives"
    );
    // Pool workers resolve their own level (the scoped override is
    // thread-local), so these runs mix kernel levels across threads —
    // the bytes still may not move.
    for threads in [2, 8] {
        assert_eq!(
            archive_bytes(ds_simd::detected(), threads),
            scalar,
            "archive bytes must not depend on thread count x kernel level"
        );
    }
}
