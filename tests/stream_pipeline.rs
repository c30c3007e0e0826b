//! Streaming-ingest integration tests (§3e): the chunked CSV reader must
//! reassemble exactly what the whole-file parser produces — including
//! quoted fields spanning chunk and refill boundaries — and the staged
//! streaming compressor must emit byte-identical containers to the
//! in-memory path, for any chunk size and any thread count.

use ds_core::preprocess::DICT_CAP;
use ds_core::{compress, compress_csv_stream_to, open_source, DsConfig, DsError};
use ds_table::csv::{read_csv, read_csv_infer, write_csv, CsvChunks, TypeInference};
use ds_table::gen;
use ds_table::{Column, Table, TableError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock};

/// The ds-obs recorder is process-global: the test that reads a gauge
/// holds this for writing, every other test that runs the pipeline (and
/// would record its own chunks into that gauge) holds it for reading.
static RECORDER: RwLock<()> = RwLock::new(());

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ds_stream_pl_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Strategy: a table whose categorical cells draw from an alphabet that
/// forces CSV escaping — commas, double quotes, and embedded newlines —
/// so quoted fields routinely span chunk_rows and refill boundaries.
fn arb_nasty_table() -> impl Strategy<Value = Table> {
    let ncols = 1usize..=4;
    let nrows = 1usize..=40;
    (ncols, nrows).prop_flat_map(|(ncols, nrows)| {
        // Cells are never fully empty: a single-column row whose only
        // cell is "" renders as a bare empty line, which CSV cannot
        // distinguish from a trailing newline (a documented quirk shared
        // with the whole-file parser).
        let cell = prop::collection::vec(0usize..7, 1..6).prop_map(|picks| {
            picks
                .into_iter()
                .map(|p| ["a", "b", ",", "\"", "\n", "x y", "7"][p])
                .collect::<String>()
        });
        let col = prop_oneof![
            prop::collection::vec(cell, nrows..=nrows).prop_map(Column::cat),
            prop::collection::vec(-100.0f64..100.0, nrows..=nrows)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CsvChunks reassembly (typed per chunk) ≡ read_csv for chunk sizes {1, 7, 64, rows+1},
    /// with a deliberately tiny refill buffer so quoted fields (including
    /// embedded newlines) split across both chunk and refill boundaries.
    #[test]
    fn chunked_reader_reassembles_any_escapable_table(t in arb_nasty_table()) {
        let text = write_csv(&t);
        let whole = read_csv(&text, t.schema().clone()).expect("own CSV parses");
        prop_assert_eq!(&whole, &t);
        for chunk_rows in [1, 7, 64, t.nrows() + 1] {
            let mut chunks = CsvChunks::with_capacity(text.as_bytes(), chunk_rows, 3)
                .expect("header parses");
            let mut parts = Vec::new();
            let mut base = 0usize;
            while let Some(chunk) = chunks.next_chunk().expect("chunk parses") {
                prop_assert!(chunk.nrows() <= chunk_rows);
                parts.push(chunk.to_table(t.schema(), base).expect("typed chunk"));
                base += chunk.nrows();
            }
            prop_assert_eq!(base, t.nrows());
            let reassembled = Table::concat(&parts).expect("same schema");
            prop_assert_eq!(&reassembled, &t);
        }
    }
}

/// Streaming CSV compression is byte-identical to loading the file and
/// running the in-memory sharded path — across chunk sizes, with and
/// without reservoir sampling.
#[test]
fn streaming_csv_compress_matches_in_memory_bytes() {
    let _shared = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("identity");
    let text = write_csv(&gen::census_like(300, 17));
    let path = dir.join("c.csv");
    std::fs::write(&path, &text).unwrap();
    // The in-memory reference is what the CLI would load: the re-parsed
    // CSV (inference may type digit-string categoricals as numeric).
    let t = read_csv_infer(&text).unwrap();

    for sample_frac in [1.0, 0.3] {
        let cfg = DsConfig {
            error_threshold: 0.05,
            max_epochs: 4,
            shard_rows: 64,
            seed: 23,
            sample_frac,
            ..DsConfig::default()
        };
        let reference = compress(&t, &cfg).unwrap();
        for chunk_rows in [7, 64, 100, 301] {
            let (out, info) = compress_csv_stream_to(&path, &cfg, chunk_rows, Vec::new()).unwrap();
            assert_eq!(info.rows, t.nrows());
            assert_eq!(&info.schema, t.schema(), "schema inference must agree");
            assert_eq!(
                out.sink,
                reference.as_bytes(),
                "chunk_rows={chunk_rows} sample_frac={sample_frac}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism contract: for a fixed seed, streaming output does not
/// depend on the thread count.
#[test]
fn streaming_bytes_are_thread_count_invariant() {
    let _shared = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("threads");
    let t = gen::monitor_like(250, 5);
    let path = dir.join("m.csv");
    std::fs::write(&path, write_csv(&t)).unwrap();

    let cfg = DsConfig {
        error_threshold: 0.1,
        max_epochs: 4,
        shard_rows: 50,
        seed: 7,
        sample_frac: 0.5,
        ..DsConfig::default()
    };
    let outputs: Vec<Vec<u8>> = [1usize, 2, 8]
        .into_iter()
        .map(|limit| {
            ds_exec::with_thread_limit(limit, || {
                compress_csv_stream_to(&path, &cfg, 33, Vec::new())
                    .unwrap()
                    .0
                    .sink
            })
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 threads");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The memory bound of the streaming path, in its deterministic form: the
/// largest chunk the pipeline ever holds (`stream.peak_chunk_bytes`) is
/// set by `chunk_rows`, not by the length of the file. The 4N-row file is
/// the N-row file's body four times over, so its chunks are the same
/// chunks and the gauge must read exactly the same.
#[test]
fn peak_chunk_bytes_does_not_grow_with_the_row_count() {
    let _exclusive = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("peak");
    let text = write_csv(&gen::monitor_like(200, 11));
    let (header, body) = text.split_once('\n').unwrap();
    let cfg = DsConfig {
        error_threshold: 0.1,
        max_epochs: 2,
        shard_rows: 50,
        seed: 3,
        sample_frac: 0.1,
        ..DsConfig::default()
    };

    let peak_for = |copies: usize| {
        let path = dir.join(format!("m{copies}.csv"));
        std::fs::write(&path, format!("{header}\n{}", body.repeat(copies))).unwrap();
        ds_obs::enable(false);
        let (_, info) = compress_csv_stream_to(&path, &cfg, 50, Vec::new()).unwrap();
        let report = ds_obs::drain();
        assert_eq!(info.rows, 200 * copies);
        let gauge = report
            .gauges
            .iter()
            .find(|g| g.name == "stream.peak_chunk_bytes")
            .expect("the streaming pipeline records its peak chunk");
        gauge.value
    };
    let (n, four_n) = (peak_for(1), peak_for(4));
    assert!(n > 0);
    assert_eq!(n, four_n, "peak chunk bytes grew with the row count");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The column-type rule checks header names at the header: a duplicate
/// name is reported before any data row is read — here, instead of the
/// ragged row on line 3 — by every front end that infers a schema.
#[test]
fn duplicate_header_names_fail_before_any_row() {
    let _shared = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("dup_header");
    let text = "a,a\n1,2\n3\n";
    let path = dir.join("d.csv");
    std::fs::write(&path, text).unwrap();
    let duplicate = |e: &TableError| matches!(e, TableError::Csv { line: 1, what } if what.contains("duplicate column name"));

    let err = read_csv_infer(text).expect_err("read_csv_infer");
    assert!(duplicate(&err), "read_csv_infer: {err}");
    let err = compress_csv_stream_to(&path, &DsConfig::default(), 1, Vec::new())
        .err()
        .expect("compress_csv_stream_to");
    assert!(
        matches!(&err, DsError::Table(e) if duplicate(e)),
        "compress_csv_stream_to: {err}"
    );
    let err = open_source(&path, 1).err().expect("open_source");
    assert!(
        matches!(&err, DsError::Table(e) if duplicate(e)),
        "open_source: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CSV whose `mixed` column looks numeric up to row `fail_at`, which
/// holds a word. Its numbers repeat a few values, or are all distinct
/// (`distinct`); `id` is numeric throughout and `tag` categorical.
fn mixed_csv(rows: usize, fail_at: usize, distinct: bool) -> String {
    let mut text = String::from("id,mixed,tag\n");
    for r in 0..rows {
        let mixed = match r {
            _ if r == fail_at => "n/a".to_string(),
            _ if distinct => format!("{}.5", r),
            _ => format!("{}", r % 5),
        };
        text.push_str(&format!("{},{mixed},t{}\n", r * 3, r % 4));
    }
    text
}

/// The numeric-first probe types and folds a column exactly as the
/// whole-file rule does, wherever its first non-numeric cell sits: row 0,
/// mid-chunk, the first row of a later chunk, the last row, or after more
/// than `DICT_CAP` distinct numbers. Checked at the chunk layer (every
/// chunk and refill size: `TypeInference` and typed chunks against
/// `read_csv_infer`) and through the pipeline (`compress_csv_stream_to`
/// against `read_csv_infer` + `compress`, same schema and same bytes —
/// the plans are in the bytes), at 1 and 2 threads.
#[test]
fn numeric_first_typing_matches_the_whole_file_rule() {
    let _shared = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("numeric_first");
    let cases = [
        ("row 0", mixed_csv(40, 0, false)),
        ("mid-chunk", mixed_csv(40, 10, false)),
        ("first row of a later chunk", mixed_csv(40, 14, false)),
        ("last row", mixed_csv(40, 39, false)),
        (
            "past DICT_CAP",
            mixed_csv(DICT_CAP + 100, DICT_CAP + 50, true),
        ),
    ];
    let cfg = DsConfig {
        error_threshold: 0.0,
        max_epochs: 2,
        shard_rows: 4096,
        seed: 5,
        sample_frac: 0.3,
        ..DsConfig::default()
    };
    for (name, text) in &cases {
        let whole = read_csv_infer(text).unwrap();
        assert!(whole.schema().fields()[0].ty == ds_table::ColumnType::Numeric);
        assert!(whole.schema().fields()[1].ty == ds_table::ColumnType::Categorical);
        let path = dir.join("m.csv");
        std::fs::write(&path, text).unwrap();
        let reference = compress(&whole, &cfg).unwrap();
        for threads in [1, 2] {
            ds_exec::with_thread_limit(threads, || {
                for chunk_rows in [1, 7, 4096] {
                    for refill in [1, 3, 64 * 1024] {
                        let mut chunks =
                            CsvChunks::with_capacity(text.as_bytes(), chunk_rows, refill).unwrap();
                        let mut types = TypeInference::new(chunks.header()).unwrap();
                        let mut parts = Vec::new();
                        while let Some(chunk) = chunks.next_chunk().unwrap() {
                            types.chunk(&chunk);
                            parts.push(chunk);
                        }
                        let schema = types.finish(chunks.rows_read()).unwrap();
                        assert_eq!(&schema, whole.schema(), "{name}: chunk_rows {chunk_rows}");
                        let mut base = 0;
                        let typed: Vec<Table> = parts
                            .iter()
                            .map(|c| {
                                let t = c.to_table(&schema, base).unwrap();
                                base += c.nrows();
                                t
                            })
                            .collect();
                        assert!(
                            Table::concat(&typed).unwrap() == whole,
                            "{name}: chunk_rows {chunk_rows} refill {refill}"
                        );
                    }
                    let (out, info) =
                        compress_csv_stream_to(&path, &cfg, chunk_rows, Vec::new()).unwrap();
                    assert_eq!(
                        &info.schema,
                        whole.schema(),
                        "{name}: chunk_rows {chunk_rows}"
                    );
                    assert!(
                        out.sink == reference.as_bytes(),
                        "{name}: chunk_rows {chunk_rows}, {threads} thread(s)"
                    );
                }
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
