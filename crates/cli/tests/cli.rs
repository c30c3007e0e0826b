//! End-to-end tests of the `dsqz` binary: gen → compress → inspect →
//! decompress, plus failure modes (bad args, corrupt archives).

use ds_core::{compress, DsConfig};
use ds_table::csv::read_csv_infer;
use std::path::PathBuf;
use std::process::Command;

fn dsqz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dsqz"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsqz_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn full_cycle_gen_compress_inspect_decompress() {
    let dir = tmpdir("cycle");
    let csv = dir.join("m.csv");
    let dsq = dir.join("m.dsqz");
    let back = dir.join("m_restored.csv");

    let st = dsqz()
        .args(["gen", "monitor", "800", csv.to_str().unwrap()])
        .status()
        .expect("spawn");
    assert!(st.success());

    let st = dsqz()
        .args([
            "compress",
            csv.to_str().unwrap(),
            dsq.to_str().unwrap(),
            "--error",
            "0.05",
            "--epochs",
            "10",
            "--quiet",
        ])
        .status()
        .expect("spawn");
    assert!(st.success());
    let raw = std::fs::metadata(&csv).unwrap().len();
    let compressed = std::fs::metadata(&dsq).unwrap().len();
    assert!(compressed < raw, "{compressed} >= {raw}");

    let out = dsqz()
        .args(["inspect", dsq.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rows: 800"), "inspect output: {text}");
    assert!(text.contains("numeric (quantized)"));

    let st = dsqz()
        .args(["decompress", dsq.to_str().unwrap(), back.to_str().unwrap()])
        .status()
        .expect("spawn");
    assert!(st.success());
    let restored = std::fs::read_to_string(&back).unwrap();
    // Header preserved, row count preserved.
    let original = std::fs::read_to_string(&csv).unwrap();
    assert_eq!(
        restored.lines().next().unwrap(),
        original.lines().next().unwrap()
    );
    assert_eq!(restored.lines().count(), original.lines().count());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lossless_cycle_is_exact() {
    let dir = tmpdir("lossless");
    let csv = dir.join("c.csv");
    let dsq = dir.join("c.dsqz");
    let back = dir.join("c2.csv");

    assert!(dsqz()
        .args(["gen", "census", "400", csv.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(dsqz()
        .args([
            "compress",
            csv.to_str().unwrap(),
            dsq.to_str().unwrap(),
            "--epochs",
            "6",
            "--quiet",
        ])
        .status()
        .unwrap()
        .success());
    assert!(dsqz()
        .args(["decompress", dsq.to_str().unwrap(), back.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        std::fs::read_to_string(&csv).unwrap(),
        std::fs::read_to_string(&back).unwrap(),
        "lossless categorical cycle must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_cycle_with_partial_reads() {
    let dir = tmpdir("sharded");
    let csv = dir.join("c.csv");
    let dsq = dir.join("c.dsqz");
    let back = dir.join("full.csv");
    let part = dir.join("part.csv");

    assert!(dsqz()
        .args(["gen", "census", "300", csv.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(dsqz()
        .args([
            "compress",
            csv.to_str().unwrap(),
            dsq.to_str().unwrap(),
            "--epochs",
            "6",
            "--shard-rows",
            "50",
            "--quiet",
        ])
        .status()
        .unwrap()
        .success());

    // Inspect reports the sharded container.
    let out = dsqz()
        .args(["inspect", dsq.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rows: 300"), "inspect output: {text}");
    assert!(
        text.contains("sharded, 6 row group(s)"),
        "inspect output: {text}"
    );

    // Full decompress is byte-identical (lossless categorical cycle).
    assert!(dsqz()
        .args(["decompress", dsq.to_str().unwrap(), back.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let original = std::fs::read_to_string(&csv).unwrap();
    assert_eq!(original, std::fs::read_to_string(&back).unwrap());

    // Partial read: rows 60..160 = lines 61..161 of the CSV (after header),
    // and only 3 of the 6 shards decode.
    let out = dsqz()
        .args([
            "decompress",
            dsq.to_str().unwrap(),
            part.to_str().unwrap(),
            "--rows",
            "60..160",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("decoded 3/6 shard(s)"),
        "decompress stderr: {stderr}"
    );
    let partial = std::fs::read_to_string(&part).unwrap();
    let orig_lines: Vec<&str> = original.lines().collect();
    let part_lines: Vec<&str> = partial.lines().collect();
    assert_eq!(part_lines.len(), 101); // header + 100 rows
    assert_eq!(part_lines[0], orig_lines[0]);
    assert_eq!(&part_lines[1..], &orig_lines[61..161]);

    // Malformed range is a clean error.
    let out = dsqz()
        .args([
            "decompress",
            dsq.to_str().unwrap(),
            part.to_str().unwrap(),
            "--rows",
            "xyz",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --rows"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_and_stats_cover_the_pipeline_and_are_thread_invariant() {
    let dir = tmpdir("trace");
    let csv = dir.join("t.csv");
    let dsq = dir.join("t.dsqz");
    let back = dir.join("t_back.csv");

    assert!(dsqz()
        .args(["gen", "monitor", "400", csv.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // Compress with tracing under two different thread limits.
    let mut traces = Vec::new();
    for (tag, threads) in [("t1", "1"), ("t8", "8")] {
        let trace = dir.join(format!("{tag}.jsonl"));
        let out = dsqz()
            .args([
                "compress",
                csv.to_str().unwrap(),
                dsq.to_str().unwrap(),
                "--epochs",
                "6",
                "--shard-rows",
                "100",
                "--quiet",
                "--stats",
                "--trace",
                trace.to_str().unwrap(),
            ])
            .env("DS_THREADS", threads)
            .output()
            .unwrap();
        assert!(out.status.success(), "compress failed: {out:?}");
        // --stats prints the span tree to stderr.
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("compress"), "stats output: {stderr}");
        assert!(stderr.contains("train"), "stats output: {stderr}");
        traces.push(std::fs::read_to_string(&trace).unwrap());
    }

    // Every line is a braced JSON object, and the span tree covers the
    // whole pipeline with per-column and per-expert telemetry.
    let t = &traces[0];
    for line in t.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    for needle in [
        "\"ingest\"",
        "\"stats\"",
        "\"reservoir\"",
        "\"train\"",
        "\"materialize\"",
        "\"shard_flush\"",
        "\"stream.peak_chunk_bytes\"",
        "\"col.bytes\"",
        "\"pipeline.expert_rows\"",
    ] {
        assert!(t.contains(needle), "trace missing {needle}:\n{t}");
    }

    // Timing aside, the trace is bit-identical across thread limits.
    assert_eq!(
        ds_obs::sink::deterministic_view(&traces[0]),
        ds_obs::sink::deterministic_view(&traces[1]),
        "trace must not depend on the thread count"
    );

    // Decompress with a trace too: decode spans per shard.
    let dtrace = dir.join("d.jsonl");
    let out = dsqz()
        .args([
            "decompress",
            dsq.to_str().unwrap(),
            back.to_str().unwrap(),
            "--trace",
            dtrace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "decompress failed: {out:?}");
    let dt = std::fs::read_to_string(&dtrace).unwrap();
    // Decompress routes through the serving layer: one stream span with
    // the row count, per-shard decode spans underneath.
    assert!(dt.contains("\"serve.stream\""), "decode trace:\n{dt}");
    assert!(dt.contains("\"serve.decode_shard\""), "decode trace:\n{dt}");
    assert!(dt.contains("\"rows\":400"), "decode trace:\n{dt}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_compress_matches_in_memory_and_roundtrips() {
    let dir = tmpdir("stream");
    let csv = dir.join("s.csv");
    let stream = dir.join("stream.dsqz");
    let back = dir.join("s_back.csv");

    assert!(dsqz()
        .args(["gen", "census", "500", csv.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // A chunk size that straddles shard boundaries...
    let out = dsqz()
        .args([
            "compress",
            csv.to_str().unwrap(),
            stream.to_str().unwrap(),
            "--epochs",
            "6",
            "--shard-rows",
            "100",
            "--sample-frac",
            "0.5",
            "--chunk-rows",
            "73",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "compress failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(": 500 rows, "), "compress stderr: {stderr}");
    // ...gives the bytes the library writes from the whole table in memory.
    let table = read_csv_infer(&std::fs::read_to_string(&csv).unwrap()).unwrap();
    let cfg = DsConfig {
        max_epochs: 6,
        shard_rows: 100,
        sample_frac: 0.5,
        ..DsConfig::default()
    };
    assert_eq!(
        std::fs::read(&stream).unwrap(),
        compress(&table, &cfg).unwrap().as_bytes(),
        "the CLI must write what `compress` of the parsed table writes"
    );

    // The streamed container decompresses back to the original CSV.
    assert!(dsqz()
        .args([
            "decompress",
            stream.to_str().unwrap(),
            back.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        std::fs::read_to_string(&csv).unwrap(),
        std::fs::read_to_string(&back).unwrap()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `\r` that is not half of a `\r\n` terminator is data: in an
/// unquoted cell it survives a lossless cycle (the writer quotes it), at
/// any chunk size, while CRLF terminators are still dropped.
#[test]
fn bare_cr_in_a_cell_survives_a_lossless_cycle() {
    let dir = tmpdir("bare_cr");
    let want = "name,n\n\"ab\rcd\",1\n\"y\r\",3\n";
    for (tag, input) in [
        ("lf", "name,n\nab\rcd,1\ny\r,3\n"),
        ("crlf", "name,n\r\nab\rcd,1\r\ny\r,3\r\n"),
    ] {
        let csv = dir.join(format!("{tag}.csv"));
        std::fs::write(&csv, input).unwrap();
        for chunk_rows in ["1", "4096"] {
            let dsq = dir.join(format!("{tag}{chunk_rows}.dsqz"));
            let back = dir.join(format!("{tag}{chunk_rows}.out.csv"));
            let out = dsqz()
                .args([
                    "compress",
                    csv.to_str().unwrap(),
                    dsq.to_str().unwrap(),
                    "--error",
                    "0",
                    "--epochs",
                    "2",
                    "--chunk-rows",
                    chunk_rows,
                    "--quiet",
                ])
                .output()
                .unwrap();
            assert!(out.status.success(), "compress {tag}: {out:?}");
            let out = dsqz()
                .args(["decompress", dsq.to_str().unwrap(), back.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(out.status.success(), "decompress {tag}: {out:?}");
            assert_eq!(
                std::fs::read_to_string(&back).unwrap(),
                want,
                "{tag}, chunk_rows {chunk_rows}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_flag_validation() {
    // Out-of-range --sample-frac is ds-core's one config check, on every
    // front end, before any training.
    let dir = tmpdir("flagcheck");
    let csv = dir.join("a.csv");
    std::fs::write(&csv, "x,y\n1,a\n2,b\n").unwrap();
    for bad in ["0", "1.5", "-0.1"] {
        for front_end in ["compress", "recompress"] {
            let out = dsqz()
                .arg(front_end)
                .args([csv.to_str().unwrap(), dir.join("b.dsqz").to_str().unwrap()])
                .args(["--sample-frac", bad])
                .output()
                .unwrap();
            assert!(!out.status.success(), "--sample-frac {bad} accepted");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("sample_frac must be in (0,1]"),
                "{front_end} --sample-frac {bad}: {out:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Zero chunk rows is rejected.
    let out = dsqz()
        .args(["compress", "a.csv", "b.dsqz", "--chunk-rows", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("chunk-rows"));
}

/// Every file a command writes lands under a temp name and is renamed
/// into place only once complete: a failed `compress` or `recompress`
/// leaves no output behind and an existing output's bytes as they were.
#[test]
fn failed_writes_leave_no_output_behind() {
    let dir = tmpdir("failed_write");
    let ragged = dir.join("ragged.csv");
    std::fs::write(&ragged, "x,y\n1,a\n2,b\n3\n").unwrap();
    let good = dir.join("good.csv");
    std::fs::write(&good, "x,y\n1,a\n2,b\n3,a\n").unwrap();
    let out = dir.join("out.dsqz");
    let listing = |want: &[&str]| {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, want);
    };
    // A ragged row fails pass 1; a bad config fails after the input opened.
    let failing: [(&PathBuf, &[&str]); 2] = [
        (&ragged, &["--epochs", "1"]),
        (&good, &["--epochs", "1", "--sample-frac", "0"]),
    ];
    for command in ["compress", "recompress"] {
        for (input, flags) in failing {
            let _ = std::fs::remove_file(&out);
            for existing in [None, Some(b"previous bytes".as_slice())] {
                if let Some(bytes) = existing {
                    std::fs::write(&out, bytes).unwrap();
                }
                let res = dsqz()
                    .args([command, input.to_str().unwrap(), out.to_str().unwrap()])
                    .args(flags)
                    .output()
                    .unwrap();
                let case = format!("{command} {input:?} {flags:?} over {existing:?}");
                assert!(!res.status.success(), "{case} succeeded");
                match existing {
                    None => listing(&["good.csv", "ragged.csv"]),
                    Some(bytes) => {
                        assert_eq!(std::fs::read(&out).unwrap(), bytes, "{case}");
                        listing(&["good.csv", "out.dsqz", "ragged.csv"]);
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `recompress x.dsqz x.dsqz` reads its input intact: the result is the
/// archive `recompress` writes to another path.
#[test]
fn in_place_recompress_matches_recompress_elsewhere() {
    let dir = tmpdir("in_place");
    let csv = dir.join("c.csv");
    let archive = dir.join("a.dsqz");
    let elsewhere = dir.join("b.dsqz");
    assert!(dsqz()
        .args(["gen", "census", "200", csv.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let quick = ["--epochs", "2", "--quiet"];
    assert!(dsqz()
        .args(["compress", csv.to_str().unwrap(), archive.to_str().unwrap()])
        .args(quick)
        .status()
        .unwrap()
        .success());
    let reshard = ["--shard-rows", "64"];
    let res = dsqz()
        .args([
            "recompress",
            archive.to_str().unwrap(),
            elsewhere.to_str().unwrap(),
        ])
        .args(quick)
        .args(reshard)
        .output()
        .unwrap();
    assert!(res.status.success(), "recompress failed: {res:?}");
    let res = dsqz()
        .args([
            "recompress",
            archive.to_str().unwrap(),
            archive.to_str().unwrap(),
        ])
        .args(quick)
        .args(reshard)
        .output()
        .unwrap();
    assert!(res.status.success(), "in-place recompress failed: {res:?}");
    assert_eq!(
        std::fs::read(&archive).unwrap(),
        std::fs::read(&elsewhere).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_exit_nonzero() {
    // Unknown command.
    let out = dsqz().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Unknown flag.
    let out = dsqz()
        .args(["compress", "a.csv", "b.dsqz", "--bogus", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));

    // Missing file.
    let out = dsqz()
        .args(["inspect", "/nonexistent/file.dsqz"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Corrupt archive.
    let dir = tmpdir("corrupt");
    let bad = dir.join("bad.dsqz");
    std::fs::write(&bad, b"not an archive at all").unwrap();
    let out = dsqz()
        .args(["inspect", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A switch the command never reads is an error, as an unknown flag is,
/// before any input is read or output created — not silently ignored.
#[test]
fn switches_a_command_does_not_read_are_refused() {
    let dir = tmpdir("unread_switch");
    let csv = dir.join("a.csv");
    std::fs::write(&csv, "x,y\n1,a\n2,b\n3,a\n").unwrap();
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/tests/golden/v2.dsqz");
    let out_path = dir.join("out");
    let (csv, out) = (csv.to_str().unwrap(), out_path.to_str().unwrap());
    // `--stream` is gone: it now parses as a flag taking `--quiet` as its
    // value, and no command reads a `--stream` flag.
    let cases: [(&[&str], &str); 3] = [
        (
            &["recompress", csv, out, "--epochs", "1", "--tune"],
            "--tune",
        ),
        (&["compress", csv, out, "--stream", "--quiet"], "--stream"),
        (
            &["decompress", golden, out, "--rows", "0..5", "--quiet"],
            "--quiet",
        ),
    ];
    for (args, switch) in cases {
        let res = dsqz().args(args).output().unwrap();
        assert!(!res.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(
            stderr.lines().next(),
            Some(format!("dsqz: unknown flag {switch}").as_str()),
            "{args:?}: {stderr}"
        );
        assert!(!out_path.exists(), "{args:?} wrote its output");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_rejects_unknown_dataset() {
    let out = dsqz()
        .args(["gen", "imaginary", "10", "/tmp/x.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

/// Generates a lossless sharded fixture and returns (csv_path, dsqz_path).
fn serve_fixture(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let csv = dir.join("s.csv");
    let dsq = dir.join("s.dsqz");
    assert!(dsqz()
        .args(["gen", "monitor", "300", csv.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(dsqz()
        .args([
            "compress",
            csv.to_str().unwrap(),
            dsq.to_str().unwrap(),
            "--epochs",
            "6",
            "--shard-rows",
            "64",
            "--quiet",
        ])
        .status()
        .unwrap()
        .success());
    (csv, dsq)
}

#[test]
fn serve_answers_get_stat_quit_over_stdio() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = tmpdir("serve_stdio");
    let (csv, dsq) = serve_fixture(&dir);
    let original = std::fs::read_to_string(&csv).unwrap();
    let data_lines: Vec<&str> = original.lines().skip(1).collect();

    let mut child = dsqz()
        .args(["serve", dsq.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"GET 10..13\nGET 10..13\nSTAT\nFROB\nQUIT\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve failed: {out:?}");

    let text = String::from_utf8_lossy(&out.stdout);
    // Both GETs return the same three rows; the archive is lossless so
    // they match the source CSV exactly (the second answer comes from
    // the shard cache).
    let rows = format!(
        "{}\n{}\n{}\n",
        data_lines[10], data_lines[11], data_lines[12]
    );
    let want_get = format!("OK 3\n{rows}");
    assert!(
        text.starts_with(&format!("{want_get}{want_get}")),
        "got: {text}"
    );
    let stat_line = text
        .lines()
        .find(|l| l.starts_with("OK rows="))
        .expect("STAT response");
    assert!(stat_line.contains("rows=300"), "stat: {stat_line}");
    assert!(stat_line.contains("shards=5"), "stat: {stat_line}");
    // One miss (first GET decodes shard 0), then two hits: the repeated
    // GET plus STAT's own schema probe.
    assert!(stat_line.contains("cache_entries=1"), "stat: {stat_line}");
    assert!(stat_line.contains("hits=2"), "stat: {stat_line}");
    assert!(stat_line.contains("misses=1"), "stat: {stat_line}");
    assert!(text.contains("\nERR unknown request `FROB`"), "got: {text}");
    assert!(text.ends_with("BYE\n"), "got: {text}");

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serving 300 rows in 5 shard(s)"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("served 5 request(s), 6 row(s)"),
        "stderr: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_listens_on_tcp_and_shares_the_cache_across_connections() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::process::Stdio;

    let dir = tmpdir("serve_tcp");
    let (_csv, dsq) = serve_fixture(&dir);

    let mut child = dsqz()
        .args([
            "serve",
            dsq.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "3",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // The bound address (with the ephemeral port) is announced on stderr.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "no listen line");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
    };
    // Sends `request`, then reads until the server closes the connection.
    let exchange = |request: &[u8]| -> Vec<String> {
        let mut c = TcpStream::connect(&addr).unwrap();
        c.write_all(request).unwrap();
        BufReader::new(c).lines().map(Result::unwrap).collect()
    };

    // Connection 1 decodes two shards into the shared cache, and has
    // closed before connection 2 connects: the server reaps its handle
    // on the next accept and keeps answering.
    let first = exchange(b"GET 60..70\nQUIT\n");
    assert_eq!(first.len(), 12, "status, 10 rows, BYE: {first:?}");
    assert_eq!((first[0].as_str(), first[11].as_str()), ("OK 10", "BYE"));

    // Connection 2 sees the cache that connection 1 populated.
    let lines = exchange(b"STAT\nQUIT\n");
    assert!(lines[0].starts_with("OK rows=300"), "stat: {}", lines[0]);
    assert!(
        !lines[0].contains("cache_entries=0"),
        "cache must be warm: {}",
        lines[0]
    );

    // Connection 3 is the last that --max-conns 3 accepts: it is served
    // the same rows, then the server drains it and exits cleanly.
    let lines = exchange(b"GET 60..62\nQUIT\n");
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert_eq!((lines[0].as_str(), lines[3].as_str()), ("OK 2", "BYE"));
    assert_eq!(lines[1..3], first[1..3]);

    let status = child.wait().unwrap();
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).unwrap();
    assert!(!rest.contains("dsqz: connection"), "stderr: {rest}");

    let _ = std::fs::remove_dir_all(&dir);
}
