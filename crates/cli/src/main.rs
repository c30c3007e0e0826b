//! `dsqz` — command-line DeepSqueeze for CSV files.
//!
//! ```text
//! dsqz compress   <in.csv> <out.dsqz> [--error F] [--code K] [--experts E]
//!                 [--epochs N] [--seed S] [--shard-rows N] [--sample-frac F]
//!                 [--stream] [--chunk-rows N] [--numeric-probe] [--tune]
//!                 [--quiet] [--trace <f.jsonl>] [--stats]
//! dsqz recompress <in.csv|in.dsqz|-> <out.dsqz> [compress flags]
//! dsqz decompress <in.dsqz> <out.csv> [--rows A..B] [--trace <f.jsonl>] [--stats]
//! dsqz serve      <in.dsqz> [--cache-mb N] [--listen HOST:PORT] [--max-conns N]
//!                 [--metrics HOST:PORT] [--window N] [--trace <f.jsonl>] [--stats]
//! dsqz top        <in.dsqz | HOST:PORT>
//! dsqz inspect    <in.dsqz>
//! dsqz gen        <corel|forest|census|monitor|criteo> <rows> <out.csv>
//! ```
//!
//! Schema is inferred from the CSV: a column is numeric when every cell
//! parses as a finite number, categorical otherwise. `--error` is the
//! relative per-column error bound for numeric columns (default 0 =
//! lossless); `--tune` runs the paper's Fig. 5 hyperparameter search
//! before compressing. `--shard-rows N` writes the v2 sharded container
//! (row groups of N rows, streamed to the output file as they encode);
//! `--rows A..B` then decompresses only the shards intersecting that
//! half-open row range. `--sample-frac F` trains the model on a seeded
//! fraction of the rows instead of all of them.
//!
//! `--stream` compresses without ever loading the whole CSV: the file is
//! read twice with `--chunk-rows` rows resident at a time (pass 1 infers
//! the schema, folds column statistics, and reservoir-samples training
//! rows; pass 2 encodes shard row groups). The output is a sharded
//! container, byte-identical to the in-memory `--shard-rows` path for the
//! same seed and config.
//!
//! `recompress` does not trust file extensions: the input's magic bytes
//! decide whether it is CSV, a v1 archive, or a v2 container, and `-`
//! reads any of those from stdin (spooled to a temp file so the two-pass
//! pipeline can rewind). Re-encoding an existing archive under a new
//! config — different shard size, error bound, or codec set — therefore
//! needs no CSV round trip. `--numeric-probe` (both commands) tries the
//! per-chunk constant/frame-of-reference numeric model on integer
//! streams and records the chosen per-column codec chains in the v2
//! manifest; `inspect` prints those chains and `serve`'s `STAT` reports
//! the codec set in its `codecs=` field.
//!
//! `serve` opens an archive once and answers many row-range
//! queries against it over a line protocol (`GET A..B` → CSV rows,
//! `STAT` → archive/cache info, `QUIT`): stdin/stdout by default, or a
//! thread-per-connection TCP listener with `--listen HOST:PORT` (port 0
//! picks a free port; the bound address is printed to stderr). Decoded
//! shards stay resident in an LRU cache bounded by `--cache-mb`, so
//! repeated and overlapping reads skip both I/O and decode work.
//! `decompress` opens the file the same way — a `--rows A..B` query
//! touches only the footer, the manifest, and the shards intersecting the
//! range, never the whole file. A v1 archive (compressed without
//! `--shard-rows`) reads and serves through the same path as one shard.
//!
//! `serve` always runs with live telemetry armed: the `METRICS` verb
//! (and `--metrics HOST:PORT`, a minimal HTTP GET responder for
//! scrapers) exposes Prometheus-style text with per-verb request
//! counters, cache gauges, rolling-window views (epochs advance every
//! `--window` requests), and the worst-request span traces. `dsqz top`
//! renders that exposition as a compact operator view — either by
//! scraping a running server (`HOST:PORT`) or by self-probing an archive
//! file.
//!
//! `--trace <f.jsonl>` records a ds-obs trace of the run (one JSON object
//! per span/metric; schema documented in `ds-obs::sink`) and `--stats`
//! prints a human-readable summary tree to stderr. Either flag enables
//! the recorder with wall-clock timing.

mod args;

use args::{ArgError, Parsed};
use ds_core::{
    compress, compress_csv_stream_to, compress_sharded_to, compress_stream_to, inspect,
    open_source, open_source_reader, tune, DsArchive, DsConfig, TuneConfig,
};
use ds_table::csv::{read_csv_infer, write_csv};
use ds_table::gen::Dataset;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dsqz: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     dsqz compress   <in.csv> <out.dsqz> [--error F] [--code K] [--experts E] [--epochs N] [--seed S] [--shard-rows N] [--sample-frac F] [--stream] [--chunk-rows N] [--numeric-probe] [--tune] [--quiet] [--trace <f.jsonl>] [--stats]\n  \
     dsqz recompress <in.csv|in.dsqz|-> <out.dsqz> [--error F] [--code K] [--experts E] [--epochs N] [--seed S] [--shard-rows N] [--sample-frac F] [--chunk-rows N] [--numeric-probe] [--quiet] [--trace <f.jsonl>] [--stats]\n  \
     dsqz decompress <in.dsqz> <out.csv> [--rows A..B] [--trace <f.jsonl>] [--stats]\n  \
     dsqz serve      <in.dsqz> [--cache-mb N] [--listen HOST:PORT] [--max-conns N] [--metrics HOST:PORT] [--window N] [--trace <f.jsonl>] [--stats]\n  \
     dsqz top        <in.dsqz | HOST:PORT>\n  \
     dsqz inspect    <in.dsqz>\n  \
     dsqz gen        <corel|forest|census|monitor|criteo> <rows> <out.csv>"
}

fn run(argv: &[String]) -> Result<(), String> {
    let mut parsed = Parsed::parse(argv).map_err(|e: ArgError| e.to_string())?;
    match parsed.command.as_str() {
        "compress" => cmd_compress(&mut parsed),
        "recompress" => cmd_recompress(&mut parsed),
        "decompress" => cmd_decompress(&mut parsed),
        "serve" => cmd_serve(&mut parsed),
        "top" => cmd_top(&mut parsed),
        "inspect" => cmd_inspect(&mut parsed),
        "gen" => cmd_gen(&mut parsed),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_compress(p: &mut Parsed) -> Result<(), String> {
    let input = p.positional(0)?;
    let output = p.positional(1)?;
    let error: f64 = p.flag_or("error", 0.0)?;
    let code: usize = p.flag_or("code", 2)?;
    let experts: usize = p.flag_or("experts", 1)?;
    let epochs: usize = p.flag_or("epochs", 120)?;
    let seed: u64 = p.flag_or("seed", 0)?;
    let shard_rows: usize = p.flag_or("shard-rows", 0)?;
    let sample_frac: f64 = p.flag_or("sample-frac", 1.0)?;
    let chunk_rows: usize = p.flag_or("chunk-rows", 4096)?;
    let trace: String = p.flag_or("trace", String::new())?;
    let do_tune = p.switch("tune");
    let do_stream = p.switch("stream");
    let numeric_probe = p.switch("numeric-probe");
    let quiet = p.switch("quiet");
    let stats = p.switch("stats");
    p.finish()?;
    // Mirrors the DsConfig validation so a typo fails before any work.
    if !(0.0..=1.0).contains(&sample_frac) || sample_frac == 0.0 {
        return Err(format!(
            "invalid --sample-frac `{sample_frac}`: must be in (0,1]"
        ));
    }
    if chunk_rows == 0 {
        return Err("--chunk-rows must be > 0".to_string());
    }
    if do_stream && do_tune {
        return Err(
            "--stream is incompatible with --tune (tuning needs the full table in memory)"
                .to_string(),
        );
    }
    arm_obs(&trace, stats);

    if do_stream {
        return cmd_compress_stream(
            &input,
            &output,
            error,
            code,
            experts,
            epochs,
            seed,
            shard_rows,
            sample_frac,
            chunk_rows,
            numeric_probe,
            quiet,
            &trace,
            stats,
        );
    }

    let text = std::fs::read_to_string(&input).map_err(|e| format!("read {input}: {e}"))?;
    let table = read_csv_infer(&text).map_err(|e| format!("parse {input}: {e}"))?;
    let (cats, nums) = table.type_counts();
    if !quiet {
        eprintln!(
            "{input}: {} rows, {cats} categorical + {nums} numeric columns, {} bytes raw",
            table.nrows(),
            table.raw_size()
        );
    }

    let mut cfg = DsConfig {
        error_threshold: error,
        code_size: code,
        n_experts: experts,
        max_epochs: epochs,
        seed,
        sample_frac,
        numeric_probe,
        ..Default::default()
    };
    if do_tune {
        let tune_cfg = TuneConfig {
            samples: vec![(table.nrows() / 4).max(256)],
            codes: vec![1, 2, 4, 6],
            experts: vec![1, 2, 4],
            eps: 0.02,
            budget: 8,
            base: DsConfig {
                max_epochs: epochs.min(40),
                ..cfg.clone()
            },
        };
        let outcome = tune(&table, &tune_cfg).map_err(|e| format!("tuning failed: {e}"))?;
        if !quiet {
            eprintln!(
                "tuned: code_size={} experts={} over {} trials",
                outcome.config.code_size,
                outcome.config.n_experts,
                outcome.trials.len()
            );
        }
        cfg.code_size = outcome.config.code_size;
        cfg.n_experts = outcome.config.n_experts;
    }

    if shard_rows > 0 {
        // Sharded container: stream row groups straight to the output
        // file as they finish encoding instead of buffering in memory.
        cfg.shard_rows = shard_rows;
        let file = std::fs::File::create(&output).map_err(|e| format!("create {output}: {e}"))?;
        let out = compress_sharded_to(&table, &cfg, std::io::BufWriter::new(file))
            .map_err(|e| format!("compression failed: {e}"))?;
        if !quiet {
            let b = out.breakdown;
            eprintln!(
                "{output}: {} bytes in {} shard(s) ({:.2}% of raw) [decoder {}, codes {}, failures {}, metadata {}]",
                out.total_bytes,
                out.n_shards,
                100.0 * out.total_bytes as f64 / table.raw_size().max(1) as f64,
                b.decoder,
                b.codes,
                b.failures,
                b.metadata
            );
        }
        return finish_obs(&trace, stats);
    }

    let archive = compress(&table, &cfg).map_err(|e| format!("compression failed: {e}"))?;
    std::fs::write(&output, archive.as_bytes()).map_err(|e| format!("write {output}: {e}"))?;
    if !quiet {
        let b = archive.breakdown();
        eprintln!(
            "{output}: {} bytes ({:.2}% of raw) [decoder {}, codes {}, failures {}, metadata {}]",
            archive.size(),
            100.0 * archive.size() as f64 / table.raw_size().max(1) as f64,
            b.decoder,
            b.codes,
            b.failures,
            b.metadata
        );
    }
    finish_obs(&trace, stats)
}

/// The `--stream` half of `compress`: bounded-memory two-pass pipeline
/// over the CSV file, producing a sharded container byte-identical to the
/// in-memory `--shard-rows` path.
#[allow(clippy::too_many_arguments)]
fn cmd_compress_stream(
    input: &str,
    output: &str,
    error: f64,
    code: usize,
    experts: usize,
    epochs: usize,
    seed: u64,
    shard_rows: usize,
    sample_frac: f64,
    chunk_rows: usize,
    numeric_probe: bool,
    quiet: bool,
    trace: &str,
    stats: bool,
) -> Result<(), String> {
    let cfg = DsConfig {
        error_threshold: error,
        code_size: code,
        n_experts: experts,
        max_epochs: epochs,
        seed,
        sample_frac,
        numeric_probe,
        // Streaming always writes the sharded container; default to the
        // same row-group size as the reader chunks when not specified.
        shard_rows: if shard_rows > 0 {
            shard_rows
        } else {
            chunk_rows
        },
        ..Default::default()
    };
    let file = std::fs::File::create(output).map_err(|e| format!("create {output}: {e}"))?;
    let (out, info) = compress_csv_stream_to(
        std::path::Path::new(input),
        &cfg,
        chunk_rows,
        std::io::BufWriter::new(file),
    )
    .map_err(|e| format!("compression failed: {e}"))?;
    if !quiet {
        let (cats, nums) = {
            let cat = info
                .schema
                .fields()
                .iter()
                .filter(|f| f.ty == ds_table::ColumnType::Categorical)
                .count();
            (cat, info.schema.len() - cat)
        };
        eprintln!(
            "{input}: {} rows, {cats} categorical + {nums} numeric columns (streamed, {chunk_rows} rows/chunk)",
            info.rows
        );
        let b = out.breakdown;
        eprintln!(
            "{output}: {} bytes in {} shard(s) [decoder {}, codes {}, failures {}, metadata {}]",
            out.total_bytes, out.n_shards, b.decoder, b.codes, b.failures, b.metadata
        );
    }
    finish_obs(trace, stats)
}

/// `dsqz recompress`: magic-byte source negotiation instead of trusting
/// extensions. The input may be a CSV file, an existing v1/v2 archive
/// (re-encoded under the new config without a CSV round trip), or `-`
/// for stdin (any of those formats, spooled to a temp file so the
/// two-pass pipeline can rewind a pipe). Always writes a v2 sharded
/// container through the bounded-memory streaming path.
fn cmd_recompress(p: &mut Parsed) -> Result<(), String> {
    let input = p.positional(0)?;
    let output = p.positional(1)?;
    let error: f64 = p.flag_or("error", 0.0)?;
    let code: usize = p.flag_or("code", 2)?;
    let experts: usize = p.flag_or("experts", 1)?;
    let epochs: usize = p.flag_or("epochs", 120)?;
    let seed: u64 = p.flag_or("seed", 0)?;
    let shard_rows: usize = p.flag_or("shard-rows", 0)?;
    let sample_frac: f64 = p.flag_or("sample-frac", 1.0)?;
    let chunk_rows: usize = p.flag_or("chunk-rows", 4096)?;
    let trace: String = p.flag_or("trace", String::new())?;
    let numeric_probe = p.switch("numeric-probe");
    let quiet = p.switch("quiet");
    let stats = p.switch("stats");
    p.finish()?;
    if !(0.0..=1.0).contains(&sample_frac) || sample_frac == 0.0 {
        return Err(format!(
            "invalid --sample-frac `{sample_frac}`: must be in (0,1]"
        ));
    }
    if chunk_rows == 0 {
        return Err("--chunk-rows must be > 0".to_string());
    }
    arm_obs(&trace, stats);

    let source = if input == "-" {
        open_source_reader(std::io::stdin(), chunk_rows).map_err(|e| format!("open stdin: {e}"))?
    } else {
        open_source(std::path::Path::new(&input), chunk_rows)
            .map_err(|e| format!("open {input}: {e}"))?
    };
    if !quiet {
        eprintln!(
            "{input}: {} ({} columns)",
            source.kind().describe(),
            ds_table::stream::RowSource::schema(&source).len()
        );
    }

    let cfg = DsConfig {
        error_threshold: error,
        code_size: code,
        n_experts: experts,
        max_epochs: epochs,
        seed,
        sample_frac,
        numeric_probe,
        shard_rows: if shard_rows > 0 {
            shard_rows
        } else {
            chunk_rows
        },
        ..Default::default()
    };
    let file = std::fs::File::create(&output).map_err(|e| format!("create {output}: {e}"))?;
    let out = compress_stream_to(&source, &cfg, std::io::BufWriter::new(file))
        .map_err(|e| format!("recompression failed: {e}"))?;
    if !quiet {
        let b = out.breakdown;
        eprintln!(
            "{output}: {} bytes in {} shard(s) [decoder {}, codes {}, failures {}, metadata {}]",
            out.total_bytes, out.n_shards, b.decoder, b.codes, b.failures, b.metadata
        );
    }
    finish_obs(&trace, stats)
}

/// Turns the ds-obs recorder on when `--trace` or `--stats` was given.
fn arm_obs(trace: &str, stats: bool) {
    if !trace.is_empty() || stats {
        ds_obs::enable(true);
    }
}

/// Drains the recorder and emits the requested outputs: a JSONL trace
/// file and/or a human-readable summary tree on stderr. A no-op when
/// neither `--trace` nor `--stats` was given.
fn finish_obs(trace: &str, stats: bool) -> Result<(), String> {
    if trace.is_empty() && !stats {
        return Ok(());
    }
    let report = ds_obs::drain();
    if !trace.is_empty() {
        std::fs::write(trace, ds_obs::sink::to_jsonl(&report))
            .map_err(|e| format!("write {trace}: {e}"))?;
    }
    if stats {
        eprint!("{}", ds_obs::sink::render_stats(&report));
    }
    Ok(())
}

fn cmd_decompress(p: &mut Parsed) -> Result<(), String> {
    let input = p.positional(0)?;
    let output = p.positional(1)?;
    let rows_spec: String = p.flag_or("rows", String::new())?;
    let trace: String = p.flag_or("trace", String::new())?;
    let stats = p.switch("stats");
    p.finish()?;
    arm_obs(&trace, stats);
    // Positioned reads on the file: only the footer, the manifest, and the
    // shards intersecting the requested range are ever read from disk (a
    // v1 archive is its own single shard).
    let file = std::fs::File::open(&input).map_err(|e| format!("read {input}: {e}"))?;
    let archive = ds_serve::Archive::open(file).map_err(|e| format!("decode {input}: {e}"))?;
    if rows_spec.is_empty() {
        let out_file =
            std::fs::File::create(&output).map_err(|e| format!("create {output}: {e}"))?;
        let mut sink = std::io::BufWriter::new(out_file);
        let n = archive
            .stream_csv(0..archive.total_rows(), &mut sink, true)
            .map_err(|e| format!("decode {input}: {e}"))?;
        eprintln!("{output}: {n} rows restored");
    } else {
        let range = parse_row_range(&rows_spec)?;
        let (table, rstats) = archive
            .read_rows_with_stats(range)
            .map_err(|e| format!("decode {input}: {e}"))?;
        std::fs::write(&output, write_csv(&table)).map_err(|e| format!("write {output}: {e}"))?;
        eprintln!(
            "{output}: {} rows restored (decoded {}/{} shard(s))",
            table.nrows(),
            rstats.shards_decoded,
            rstats.shards_total
        );
    }
    finish_obs(&trace, stats)
}

fn cmd_serve(p: &mut Parsed) -> Result<(), String> {
    let input = p.positional(0)?;
    let cache_mb: usize = p.flag_or("cache-mb", 256)?;
    let listen: String = p.flag_or("listen", String::new())?;
    let max_conns: usize = p.flag_or("max-conns", 0)?;
    let metrics_addr: String = p.flag_or("metrics", String::new())?;
    let window: u64 = p.flag_or("window", 64)?;
    let trace: String = p.flag_or("trace", String::new())?;
    let stats = p.switch("stats");
    p.finish()?;
    if window == 0 {
        return Err("--window must be > 0".to_string());
    }
    // A server always records (timing only when asked): the METRICS verb
    // and the --metrics scrape endpoint read the live snapshot. Epoch
    // compaction keeps recorder memory bounded for long runs, except
    // when a full end-of-run drain (--trace/--stats) is still wanted.
    ds_obs::enable(!trace.is_empty() || stats);
    ds_obs::live::arm(ds_obs::live::WindowCfg {
        epoch_requests: window,
        compact: trace.is_empty() && !stats,
        ..Default::default()
    });
    let file = std::fs::File::open(&input).map_err(|e| format!("open {input}: {e}"))?;
    let archive = ds_serve::Archive::with_cache(file, cache_mb.saturating_mul(1 << 20))
        .map_err(|e| format!("open {input}: {e}"))?;
    eprintln!(
        "{input}: serving {} rows in {} shard(s), cache budget {cache_mb} MiB",
        archive.total_rows(),
        archive.n_shards()
    );
    if !metrics_addr.is_empty() {
        let (addr, _handle) = ds_serve::spawn_metrics_http(archive.clone(), &metrics_addr)
            .map_err(|e| format!("bind metrics {metrics_addr}: {e}"))?;
        eprintln!("metrics on http://{addr}/metrics");
    }
    if listen.is_empty() {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let summary = ds_serve::serve_connection(&archive, stdin.lock(), stdout.lock())
            .map_err(|e| format!("serve: {e}"))?;
        eprintln!(
            "served {} request(s), {} row(s)",
            summary.requests, summary.rows_served
        );
    } else {
        serve_tcp(&archive, &listen, max_conns)?;
    }
    finish_obs(&trace, stats)
}

/// Thread-per-connection TCP front end for `dsqz serve`. All handler
/// threads share one [`ds_serve::Archive`] (and therefore one shard
/// cache). With `--max-conns N` the listener accepts exactly N
/// connections, drains them, and returns — which is also what the smoke
/// tests use to terminate deterministically.
fn serve_tcp(
    archive: &ds_serve::Archive<std::fs::File>,
    listen: &str,
    max_conns: usize,
) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("bind {listen}: {e}"))?;
    eprintln!("listening on {addr}");
    let mut handles = Vec::new();
    let mut accepted = 0usize;
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept: {e}"))?;
        let archive = archive.clone();
        handles.push(std::thread::spawn(move || -> std::io::Result<()> {
            stream.set_read_timeout(Some(ds_serve::protocol::CLIENT_READ_TIMEOUT))?;
            let reader = std::io::BufReader::new(stream.try_clone()?);
            ds_serve::serve_connection(&archive, reader, stream).map(|_| ())
        }));
        accepted += 1;
        if max_conns > 0 && accepted >= max_conns {
            break;
        }
    }
    for handle in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            // One broken client must not take the server down with it.
            Ok(Err(e)) => eprintln!("dsqz: connection error: {e}"),
            Err(_) => eprintln!("dsqz: connection handler panicked"),
        }
    }
    Ok(())
}

/// `dsqz top`: a compact operator view of live serve telemetry. With a
/// `HOST:PORT` target it scrapes a running `dsqz serve` over the line
/// protocol (`METRICS` verb); with an archive path it arms the live
/// layer, runs a short self-probe request script against the file, and
/// renders the resulting exposition — same pipeline, no server needed.
fn cmd_top(p: &mut Parsed) -> Result<(), String> {
    let target = p.positional(0)?;
    p.finish()?;
    let text = if std::path::Path::new(&target).exists() {
        top_self_probe(&target)?
    } else if target.contains(':') {
        top_scrape(&target)?
    } else {
        return Err(format!(
            "top target `{target}` is neither an archive file nor HOST:PORT"
        ));
    };
    print!("{}", ds_obs::live::render_top(&text));
    Ok(())
}

/// Fetches exposition text from a running server via the `METRICS` verb.
fn top_scrape(addr: &str) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut conn =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.write_all(b"METRICS\nQUIT\n")
        .map_err(|e| format!("send {addr}: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut status = String::new();
    reader
        .read_line(&mut status)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let n: u64 = status
        .trim()
        .strip_prefix("OK ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            format!(
                "unexpected METRICS response from {addr}: `{}`",
                status.trim()
            )
        })?;
    let mut text = String::new();
    reader
        .take(n)
        .read_to_string(&mut text)
        .map_err(|e| format!("read {addr}: {e}"))?;
    Ok(text)
}

/// Opens an archive, serves itself a short request script through the
/// real `serve_connection` path (so every counter and window advances
/// exactly as a server's would), and returns the exposition.
fn top_self_probe(input: &str) -> Result<String, String> {
    ds_obs::enable(false);
    ds_obs::live::arm(ds_obs::live::WindowCfg {
        epoch_requests: 2,
        ..Default::default()
    });
    let file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let archive = ds_serve::Archive::open(file).map_err(|e| format!("open {input}: {e}"))?;
    let rows = archive.total_rows();
    let q = (rows / 4).max(1);
    let script = format!(
        "GET 0..{q}\nGET 0..{q}\nGET {}..{rows}\nSTAT\nGET 0..{rows}\n",
        rows.saturating_sub(q)
    );
    let mut sink = std::io::sink();
    ds_serve::serve_connection(&archive, script.as_bytes(), &mut sink)
        .map_err(|e| format!("probe {input}: {e}"))?;
    Ok(ds_serve::metrics_text(&archive))
}

/// Parses a half-open `A..B` row range.
fn parse_row_range(s: &str) -> Result<std::ops::Range<usize>, String> {
    let invalid = || format!("invalid --rows `{s}` (expected A..B with A <= B)");
    let (a, b) = s.split_once("..").ok_or_else(invalid)?;
    let start: usize = a.trim().parse().map_err(|_| invalid())?;
    let end: usize = b.trim().parse().map_err(|_| invalid())?;
    if end < start {
        return Err(invalid());
    }
    Ok(start..end)
}

fn cmd_inspect(p: &mut Parsed) -> Result<(), String> {
    use std::io::Write;
    let input = p.positional(0)?;
    p.finish()?;
    let bytes = std::fs::read(&input).map_err(|e| format!("read {input}: {e}"))?;
    let size = bytes.len();
    let info = inspect(&DsArchive::from_bytes(bytes)).map_err(|e| format!("{input}: {e}"))?;
    // Ignore write errors (EPIPE from `| head` must not panic a CLI).
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "{input}: {size} bytes");
    let _ = writeln!(out, "rows: {}", info.nrows);
    let _ = writeln!(
        out,
        "container: {}",
        if info.shards > 0 {
            format!("sharded, {} row group(s)", info.shards)
        } else {
            "monolithic".to_owned()
        }
    );
    let _ = writeln!(
        out,
        "model: {}",
        if info.has_model {
            format!(
                "{} expert(s), code size {} × {} bits",
                info.n_experts, info.code_size, info.code_bits
            )
        } else {
            "none (pure columnar fallback)".to_owned()
        }
    );
    let _ = writeln!(out, "columns ({}):", info.columns.len());
    for (name, kind) in &info.columns {
        let _ = writeln!(out, "  {name}: {kind}");
    }
    if info.shards > 0 {
        match &info.codec_chains {
            Some(chains) => {
                let _ = writeln!(out, "codec chains (shard 0 column streams):");
                for (i, chain) in chains.iter().enumerate() {
                    let name = info
                        .columns
                        .get(i)
                        .map(|(n, _)| n.as_str())
                        .unwrap_or("(stream)");
                    let _ = writeln!(out, "  {name}: {}", ds_codec::registry::chain_names(chain));
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "codec chains: legacy (implicit; recorded when compressed with --numeric-probe)"
                );
            }
        }
    }
    Ok(())
}

fn cmd_gen(p: &mut Parsed) -> Result<(), String> {
    let which = p.positional(0)?;
    let rows: usize = p
        .positional(1)?
        .parse()
        .map_err(|_| "rows must be an integer".to_string())?;
    let output = p.positional(2)?;
    let seed: u64 = p.flag_or("seed", 42)?;
    p.finish()?;
    let dataset = Dataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(&which))
        .ok_or_else(|| format!("unknown dataset `{which}`"))?;
    let table = dataset.generate(rows, seed);
    std::fs::write(&output, write_csv(&table)).map_err(|e| format!("write {output}: {e}"))?;
    eprintln!(
        "{output}: {} rows of {} ({} bytes)",
        table.nrows(),
        dataset.name(),
        table.raw_size()
    );
    Ok(())
}
