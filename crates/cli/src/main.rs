//! `dsqz` — command-line DeepSqueeze for CSV files.
//!
//! ```text
//! dsqz compress   <in.csv> <out.dsqz> [--error F] [--code K] [--experts E]
//!                 [--epochs N] [--seed S] [--shard-rows N] [--sample-frac F]
//!                 [--chunk-rows N] [--tune] [--quiet] [--trace <f.jsonl>]
//!                 [--stats]
//! dsqz recompress <in.csv|in.dsqz|-> <out.dsqz> [compress flags except
//!                 --tune]
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
//! before compressing. Every archive written is a v2 container:
//! `--shard-rows N` cuts it into row groups of N rows, streamed to the
//! output file as they encode (without the flag `compress` writes one row
//! group covering the table); `--rows A..B` then decompresses only the
//! shards intersecting that half-open row range. `--sample-frac F` trains
//! the model on a seeded fraction of the rows instead of all of them.
//!
//! `compress` reads the CSV twice with `--chunk-rows` rows resident at a
//! time (pass 1 infers the schema, folds column statistics, and
//! reservoir-samples training rows; pass 2 encodes shard row groups). The
//! bytes do not depend on `--chunk-rows`. Only `--tune` loads the table
//! whole, and only pass 2 of a one-row-group archive holds it, so
//! `--shard-rows` is what bounds memory on a large file. Outputs are
//! renamed into place once complete: a failed run leaves none behind.
//!
//! `recompress` does not trust file extensions: the input's magic bytes
//! decide whether it is CSV, a v1 archive, or a v2 container, and `-`
//! reads any of those from stdin (spooled to a temp file so the two-pass
//! pipeline can rewind). Re-encoding an existing archive under a new
//! config — different shard size or error bound — therefore needs no CSV
//! round trip. Its shards default to `--chunk-rows` rows. `recompress`
//! never tunes, so it refuses `--tune`, as every command refuses a flag
//! or switch it does not read.
//!
//! An archive an older build wrote with its codec probe on carries
//! per-column codec chains in its v2 manifest; `inspect` prints them and
//! `serve`'s `STAT` reports the codec set in its `codecs=` field. This
//! build records none: parq's own wire bytes say how each stream was
//! encoded.
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
//! range, never the whole file. A v1 archive (the single-blob format
//! older builds wrote; read-only now) reads and serves through the same
//! path as one shard.
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
    compress_csv_stream_to, compress_stream_to, inspect, open_source, open_source_reader, tune,
    DsArchive, DsConfig, ShardedCompression, TuneConfig,
};
use ds_table::csv::{read_csv_infer, write_csv};
use ds_table::gen::Dataset;
use std::io::Write;
use std::path::{Path, PathBuf};
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
     dsqz compress   <in.csv> <out.dsqz> [--error F] [--code K] [--experts E] [--epochs N] [--seed S] [--shard-rows N] [--sample-frac F] [--chunk-rows N] [--tune] [--quiet] [--trace <f.jsonl>] [--stats]\n  \
     dsqz recompress <in.csv|in.dsqz|-> <out.dsqz> [--error F] [--code K] [--experts E] [--epochs N] [--seed S] [--shard-rows N] [--sample-frac F] [--chunk-rows N] [--quiet] [--trace <f.jsonl>] [--stats]\n  \
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

/// What `compress` and `recompress` share: the one `DsConfig` their flags
/// spell, and how to read the input and report the run.
struct CompressFlags {
    cfg: DsConfig,
    chunk_rows: usize,
    quiet: bool,
    trace: String,
    stats: bool,
}

/// Parses the flags common to `compress` and `recompress` (range checks
/// on the config are ds-core's). Without `--shard-rows`, `chunked_shards`
/// (`recompress`) makes shards of `--chunk-rows` rows, so memory stays
/// bounded; `compress` writes one shard.
fn compress_flags(p: &mut Parsed, chunked_shards: bool) -> Result<CompressFlags, String> {
    let chunk_rows: usize = p.flag_or("chunk-rows", 4096)?;
    let shard_rows: usize = p.flag_or("shard-rows", 0)?;
    let cfg = DsConfig {
        error_threshold: p.flag_or("error", 0.0)?,
        code_size: p.flag_or("code", 2)?,
        n_experts: p.flag_or("experts", 1)?,
        max_epochs: p.flag_or("epochs", 120)?,
        seed: p.flag_or("seed", 0)?,
        sample_frac: p.flag_or("sample-frac", 1.0)?,
        shard_rows: if chunked_shards && shard_rows == 0 {
            chunk_rows
        } else {
            shard_rows
        },
        ..Default::default()
    };
    let flags = CompressFlags {
        cfg,
        chunk_rows,
        quiet: p.switch("quiet"),
        trace: p.flag_or("trace", String::new())?,
        stats: p.switch("stats"),
    };
    p.finish()?;
    if chunk_rows == 0 {
        return Err("--chunk-rows must be > 0".to_string());
    }
    arm_obs(&flags.trace, flags.stats);
    Ok(flags)
}

/// The output file of `compress`, `recompress` and `decompress`: written
/// to a temp file named by the pid beside it, renamed onto the output by
/// [`Output::commit`] once complete, and removed on drop otherwise. So
/// `recompress x.dsqz x.dsqz` reads its input intact, and a failed run
/// leaves no partial file and an existing output untouched. A device or a
/// pipe (`/dev/stdout`) has nothing to rename onto and is written in place.
struct Output {
    file: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    /// The temp file, until it is renamed onto `path`.
    tmp: Option<PathBuf>,
}

impl Output {
    fn create(output: &str) -> Result<Output, String> {
        let path = PathBuf::from(output);
        let tmp = match path.file_name() {
            Some(name) if !path.metadata().is_ok_and(|m| !m.is_file()) => {
                let pid = std::process::id();
                Some(path.with_file_name(format!(".{}.{pid}.tmp", name.to_string_lossy())))
            }
            _ => None,
        };
        let file = std::fs::File::create(tmp.as_ref().unwrap_or(&path))
            .map_err(|e| format!("create {output}: {e}"))?;
        Ok(Output {
            file: std::io::BufWriter::new(file),
            path,
            tmp,
        })
    }

    /// Flushes the data to disk and moves it onto the output path.
    fn commit(&mut self) -> Result<(), String> {
        let failed = |e: std::io::Error| format!("write {}: {e}", self.path.display());
        self.file.flush().map_err(failed)?;
        if let Some(tmp) = &self.tmp {
            self.file.get_ref().sync_all().map_err(failed)?;
            std::fs::rename(tmp, &self.path).map_err(failed)?;
            self.tmp = None;
            // The rename itself is durable once the directory is synced.
            let dir = match self.path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => dir,
                _ => Path::new("."),
            };
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(failed)?;
        }
        Ok(())
    }
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Drop for Output {
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

/// Commits the output, then prints the one summary line and the
/// trace/stats outputs.
fn report_written(
    flags: &CompressFlags,
    output: &str,
    mut out: ShardedCompression<Output>,
) -> Result<(), String> {
    out.sink.commit()?;
    if !flags.quiet {
        let b = out.breakdown;
        eprintln!(
            "{output}: {} bytes in {} shard(s) [decoder {}, codes {}, failures {}, metadata {}]",
            out.total_bytes, out.n_shards, b.decoder, b.codes, b.failures, b.metadata
        );
    }
    finish_obs(&flags.trace, flags.stats)
}

/// `dsqz compress`: a CSV file through the one staged pipeline, two
/// bounded-memory passes over the file. `--tune` loads the table once
/// more, whole, because the search compresses samples of it in memory.
fn cmd_compress(p: &mut Parsed) -> Result<(), String> {
    let input = p.positional(0)?;
    let output = p.positional(1)?;
    let do_tune = p.switch("tune");
    let mut flags = compress_flags(p, false)?;
    if do_tune {
        let text = std::fs::read_to_string(&input).map_err(|e| format!("read {input}: {e}"))?;
        let table = read_csv_infer(&text).map_err(|e| format!("parse {input}: {e}"))?;
        let tune_cfg = TuneConfig {
            samples: vec![(table.nrows() / 4).max(256)],
            codes: vec![1, 2, 4, 6],
            experts: vec![1, 2, 4],
            eps: 0.02,
            budget: 8,
            base: DsConfig {
                max_epochs: flags.cfg.max_epochs.min(40),
                shard_rows: 0,
                ..flags.cfg.clone()
            },
        };
        let outcome = tune(&table, &tune_cfg).map_err(|e| format!("tuning failed: {e}"))?;
        if !flags.quiet {
            eprintln!(
                "tuned: code_size={} experts={} over {} trials",
                outcome.config.code_size,
                outcome.config.n_experts,
                outcome.trials.len()
            );
        }
        flags.cfg.code_size = outcome.config.code_size;
        flags.cfg.n_experts = outcome.config.n_experts;
    }

    let (out, info) = compress_csv_stream_to(
        Path::new(&input),
        &flags.cfg,
        flags.chunk_rows,
        Output::create(&output)?,
    )
    .map_err(|e| format!("compression failed: {e}"))?;
    if !flags.quiet {
        let cats = info
            .schema
            .fields()
            .iter()
            .filter(|f| f.ty == ds_table::ColumnType::Categorical)
            .count();
        eprintln!(
            "{input}: {} rows, {cats} categorical + {} numeric columns",
            info.rows,
            info.schema.len() - cats
        );
    }
    report_written(&flags, &output, out)
}

/// `dsqz recompress`: magic-byte source negotiation instead of trusting
/// extensions. The input may be a CSV file, an existing v1/v2 archive
/// (re-encoded under the new config without a CSV round trip), or `-`
/// for stdin (any of those formats, spooled to a temp file so the
/// two-pass pipeline can rewind a pipe). Always reads in bounded memory.
fn cmd_recompress(p: &mut Parsed) -> Result<(), String> {
    let input = p.positional(0)?;
    let output = p.positional(1)?;
    let flags = compress_flags(p, true)?;

    let source = if input == "-" {
        open_source_reader(std::io::stdin(), flags.chunk_rows)
            .map_err(|e| format!("open stdin: {e}"))?
    } else {
        open_source(Path::new(&input), flags.chunk_rows)
            .map_err(|e| format!("open {input}: {e}"))?
    };
    if !flags.quiet {
        eprintln!(
            "{input}: {} ({} columns)",
            source.kind().describe(),
            ds_table::stream::RowSource::schema(&source).len()
        );
    }
    let out = compress_stream_to(&source, &flags.cfg, Output::create(&output)?)
        .map_err(|e| format!("recompression failed: {e}"))?;
    report_written(&flags, &output, out)
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
    let mut sink = Output::create(&output)?;
    if rows_spec.is_empty() {
        let n = archive
            .stream_csv(0..archive.total_rows(), &mut sink, true)
            .map_err(|e| format!("decode {input}: {e}"))?;
        sink.commit()?;
        eprintln!("{output}: {n} rows restored");
    } else {
        let range = parse_row_range(&rows_spec)?;
        let (table, rstats) = archive
            .read_rows_with_stats(range)
            .map_err(|e| format!("decode {input}: {e}"))?;
        sink.write_all(write_csv(&table).as_bytes())
            .map_err(|e| format!("write {output}: {e}"))?;
        sink.commit()?;
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
        // Reap the connections that have ended, so the list holds the
        // live ones, not one handle per connection ever accepted.
        let (ended, live) = handles
            .into_iter()
            .partition::<Vec<_>, _>(std::thread::JoinHandle::is_finished);
        handles = live;
        ended.into_iter().for_each(report_connection);
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
    handles.into_iter().for_each(report_connection);
    Ok(())
}

/// Joins a connection's handler thread and reports how it ended: one
/// broken client must not take the server down with it.
fn report_connection(handle: std::thread::JoinHandle<std::io::Result<()>>) {
    match handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => eprintln!("dsqz: connection error: {e}"),
        Err(_) => eprintln!("dsqz: connection handler panicked"),
    }
}

/// `dsqz top`: a compact operator view of live serve telemetry. With a
/// `HOST:PORT` target it scrapes a running `dsqz serve` over the line
/// protocol (`METRICS` verb); with an archive path it arms the live
/// layer, runs a short self-probe request script against the file, and
/// renders the resulting exposition — same pipeline, no server needed.
fn cmd_top(p: &mut Parsed) -> Result<(), String> {
    let target = p.positional(0)?;
    p.finish()?;
    let text = if Path::new(&target).exists() {
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
    use std::io::{BufRead, BufReader, Read};
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
                let _ = writeln!(out, "codec chains: not recorded (parq wire tags only)");
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
    // The CSV's length is the table's raw size by construction.
    let csv = write_csv(&table);
    std::fs::write(&output, &csv).map_err(|e| format!("write {output}: {e}"))?;
    eprintln!(
        "{output}: {} rows of {} ({} bytes)",
        table.nrows(),
        dataset.name(),
        csv.len()
    );
    Ok(())
}
