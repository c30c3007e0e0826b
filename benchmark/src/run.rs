//! One benchmark run: set-up, the timed rounds, verification and — in a
//! traced run — the per-layer probes.
//!
//! Every workload runs the same four kinds of op (compress, full decode,
//! range read, served GETs) in rounds; `workloads.rs` decides how many of
//! each a round holds. Everything is measured from outside: wall timers
//! here around public calls, plus a fold of the `ds_obs::Report` the
//! program emits while the recorder is on.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use ds_codec::{crc32::crc32, gzlike};
use ds_core::pipeline::{ShardDecoder, TrainedCompressor};
use ds_core::{
    compress, compress_csv_stream_to, decompress, decompress_rows_with_stats, DsArchive,
};
use ds_serve::Archive;
use ds_shard::ShardReader;
use ds_table::csv::{read_csv, write_csv, write_csv_header, write_csv_rows, CsvChunks};
use ds_table::Table;

use crate::metrics::Metrics;
use crate::script::RequestScript;
use crate::stats::{median, percentile, quiet_quartile, summarize, Summary};
use crate::trace::{Folded, Tracer};
use crate::verify::Checker;
use crate::workloads::{Input, Workload, SMOKE_DIV};
use crate::{host, rss};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds of any run: one would leave the quiet quartile nothing to
/// choose from, and a traced run needs one with the recorder off.
const MIN_ROUNDS: usize = 2;
const WARMUP_GETS: usize = 20;
/// Requests replayed through `Archive::read_rows` without socket or render.
const DIRECT_READS: usize = 300;
/// Repeats behind each per-layer probe median.
const PROBE_REPS: usize = 11;

pub struct RunArgs {
    pub seed: u64,
    /// Time the timed rounds share.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch files and trace files go here.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable facts that are not metrics (`archive_crc32`, …).
    pub notes: Vec<String>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn mb_per_s(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / 1e6 / (ms / 1e3)
}

/// What one set-up leaves behind.
struct Setup {
    table: Table,
    /// The archive a serving workload compressed in set-up.
    archive: Option<DsArchive>,
    served: Option<Archive<File>>,
    /// Wall time of the set-up at nominal host speed.
    secs: f64,
    gen_ms: f64,
    csv_write_ms: Option<f64>,
    /// Raw compress time and the host speed around it.
    compress_ms: Option<(f64, f64)>,
    open_ms: Option<f64>,
}

/// The samples of one kind of op. A block is what one round ran of it.
struct Samples {
    blocks: Vec<Block>,
    /// Highest `VmHWM` over any block, `None` once a reading failed.
    peak_mb: Option<f64>,
}

struct Block {
    /// Was the recorder on.
    traced: bool,
    /// Host speed around the block (`host::speed`, 1.0 = nominal).
    speed: f64,
    /// Op times as the clock read them, in ms.
    raw_ms: Vec<f64>,
}

impl Samples {
    fn new() -> Samples {
        Samples {
            blocks: Vec::new(),
            peak_mb: Some(0.0),
        }
    }

    fn push_block(&mut self, traced: bool, speed: f64, raw_ms: Vec<f64>, peak_mb: Option<f64>) {
        if !raw_ms.is_empty() {
            self.blocks.push(Block {
                traced,
                speed,
                raw_ms,
            });
        }
        self.peak_mb = self.peak_mb.zip(peak_mb).map(|(a, b)| a.max(b));
    }

    /// Per block with the recorder `traced`: its op times at nominal
    /// host speed.
    fn blocks_of(&self, traced: bool) -> impl Iterator<Item = Vec<f64>> + '_ {
        self.blocks
            .iter()
            .filter(move |b| b.traced == traced)
            .map(|b| b.raw_ms.iter().map(|ms| ms * b.speed).collect())
    }

    /// Every sample taken with the recorder `traced`, at nominal speed.
    fn all(&self, traced: bool) -> Vec<f64> {
        self.blocks_of(traced).flatten().collect()
    }

    /// The reported time: lower quartile over the untraced blocks of
    /// each block's median. See "Why the quiet quartile" in the README.
    fn quiet_ms(&self) -> f64 {
        quiet_quartile(self.blocks_of(false).map(|ms| median(&ms)).collect())
    }

    /// Plain median of the untraced samples as the clock read them.
    fn raw_median_ms(&self) -> f64 {
        let raw: Vec<f64> = self
            .blocks
            .iter()
            .filter(|b| !b.traced)
            .flat_map(|b| b.raw_ms.iter().copied())
            .collect();
        median(&raw)
    }

    fn n(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| !b.traced)
            .map(|b| b.raw_ms.len())
            .sum()
    }

    fn n_all(&self) -> usize {
        self.blocks.iter().map(|b| b.raw_ms.len()).sum()
    }
}

/// What the GET loop keeps besides its timings.
#[derive(Default)]
struct GetLog {
    /// Responses kept for verification: the range asked and the body.
    sampled: Vec<(Range<usize>, Vec<u8>)>,
    /// Fold of the last traced block, and how many GETs it covers.
    folded: Option<(Folded, usize)>,
}

/// What the timed rounds work on and collect.
struct Timed {
    /// The archive of the latest compress.
    archive: Option<DsArchive>,
    compress: Samples,
    decode: Samples,
    range: Samples,
    get: Samples,
    /// Last full decode and last range read, for verification.
    decoded: Option<Table>,
    ranged: Option<Table>,
    log: GetLog,
    /// `Archive::with_cache` times, set-up's included.
    open_ms: Vec<f64>,
}

/// The served archive, its one client, and the server thread.
struct Serving {
    archive: Archive<File>,
    /// Cache counters when serving started.
    before: ds_serve::CacheStats,
    client: Client,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Serving {
    /// Says QUIT, joins the server thread, and returns the cache counters
    /// from before and after the GETs.
    fn stop(self) -> Result<(ds_serve::CacheStats, ds_serve::CacheStats), String> {
        // Dropping the client closes the connection, so the server loop
        // ends even when QUIT could not be sent.
        let quit = self.client.quit();
        let served = self.server.join();
        quit.map_err(|e| format!("QUIT: {e}"))?;
        match served {
            Ok(Ok(())) => Ok((self.before, self.archive.cache_stats())),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

struct Run<'a> {
    w: &'a Workload,
    args: &'a RunArgs,
    csv_path: PathBuf,
    archive_path: PathBuf,
    tracer: Tracer,
    m: Metrics,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    next_op: u64,
    rss_ok: bool,
    /// Every `host::speed` reading, the latest last.
    speeds: Vec<f64>,
    /// CRC-32 of the first archive; every later one must match it.
    archive_crc: Option<u32>,
    /// Work counts of the first traced compress; later ones must match.
    compress_counts: Option<Vec<(&'static str, f64)>>,
    /// Fold and wall time (ms) of the last traced compress.
    last_compress_fold: Option<(Folded, f64)>,
}

/// Runs workload `w` once and returns its metrics.
pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let dir = args
        .out_dir
        .join(format!("tmp-{}-{}", w.name, std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut run = Run {
        w,
        args,
        csv_path: dir.join("input.csv"),
        archive_path: dir.join("archive.dsqz"),
        tracer: Tracer::new(args.trace),
        m: Metrics::default(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
        next_op: 0,
        rss_ok: false,
        speeds: vec![host::speed()],
        archive_crc: None,
        compress_counts: None,
        last_compress_fold: None,
    };
    let result = run.measure();
    let _ = fs::remove_dir_all(&dir);
    result?;
    if args.trace {
        let path = args.out_dir.join(format!("{}.trace.jsonl", w.name));
        run.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        run.notes.push(format!("trace_file {}", path.display()));
    }
    Ok(Outcome {
        metrics: run.m,
        attempted: run.attempted,
        failed: run.failed,
        notes: run.notes,
    })
}

impl Run<'_> {
    fn scaled(&self, n: usize) -> usize {
        if self.args.smoke {
            (n / SMOKE_DIV).max(1)
        } else {
            n
        }
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn fail(&mut self, n: u64, what: &str) {
        self.failed += n;
        self.notes.push(format!("FAILED {what}"));
    }

    /// The workload's table: from `--seed`, unless the workload pins it.
    fn generate(&self) -> Table {
        let seed = self.w.table_seed.unwrap_or(self.args.seed);
        self.w.dataset.generate(self.w.rows, seed)
    }

    /// The middle 10% of the table.
    fn mid_range(&self) -> Range<usize> {
        let rows = self.w.rows;
        rows * 45 / 100..rows * 55 / 100
    }

    fn open_served(&self) -> Result<Archive<File>, String> {
        let file = File::open(&self.archive_path).map_err(|e| format!("open archive: {e}"))?;
        Archive::with_cache(file, self.w.cache_bytes).map_err(|e| format!("open archive: {e}"))
    }

    /// Host speed over the block that just ended: the mean of the
    /// reading before it (the previous call's) and a fresh one after.
    fn speed_over_block(&mut self) -> f64 {
        let before = *self.speeds.last().expect("seeded at construction");
        let after = host::speed();
        self.speeds.push(after);
        (before + after) / 2.0
    }

    /// Peak RSS since the last reset, then resets it for the next block.
    fn take_peak_mb(&self) -> Option<f64> {
        let peak = rss::peak_mb().filter(|_| self.rss_ok);
        rss::reset_peak();
        peak
    }

    // ---- set-up ---------------------------------------------------------

    /// Generate, write the CSV file (streaming workload) or compress,
    /// write the archive, open it and pre-warm (serving workloads).
    fn setup(&mut self) -> Result<Setup, String> {
        self.speeds.push(host::speed());
        let start = Instant::now();
        let t = Instant::now();
        let table = self.generate();
        let gen_ms = ms_since(t);

        let mut csv_write_ms = None;
        if matches!(self.w.input, Input::CsvStream { .. }) {
            let t = Instant::now();
            let text = write_csv(&table);
            fs::write(&self.csv_path, text).map_err(|e| format!("write csv: {e}"))?;
            csv_write_ms = Some(ms_since(t));
        }

        let (mut archive, mut served, mut compress_ms, mut open_ms) = (None, None, None, None);
        if self.w.compress_in_setup {
            let (a, ms) = self.compress_once(&table, false)?;
            let speed = self.speed_over_block();
            fs::write(&self.archive_path, a.as_bytes())
                .map_err(|e| format!("write archive: {e}"))?;
            let t = Instant::now();
            let s = self.open_served()?;
            open_ms = Some(ms_since(t));
            if self.w.prewarm {
                s.read_rows(0..self.w.rows)
                    .map_err(|e| format!("pre-warm: {e}"))?;
            }
            (archive, served, compress_ms) = (Some(a), Some(s), Some((ms, speed)));
        }
        let secs = start.elapsed().as_secs_f64();
        Ok(Setup {
            table,
            archive,
            served,
            secs: secs * self.speed_over_block(),
            gen_ms,
            csv_write_ms,
            compress_ms,
            open_ms,
        })
    }

    // ---- the ops --------------------------------------------------------

    /// One whole compress through the workload's public entry point,
    /// under its own benchmark span. The archive's CRC — and, traced,
    /// the program's own work counts — must repeat from op to op.
    fn compress_once(&mut self, table: &Table, traced: bool) -> Result<(DsArchive, f64), String> {
        self.attempted += 1;
        let op = self.op_id();
        let span = self.tracer.open("compress", op);
        if traced {
            ds_obs::enable(true);
        }
        let timed = match self.w.input {
            Input::Table => {
                let t = Instant::now();
                compress(table, &self.w.cfg)
                    .map(|a| (a, ms_since(t)))
                    .map_err(|e| format!("compress: {e}"))
            }
            Input::CsvStream { chunk_rows } => self.compress_csv(chunk_rows),
        };
        self.tracer.close(span);
        let folded = traced.then(|| Folded::new(ds_obs::drain()));
        let (archive, ms) = timed?;
        if let Some(f) = folded {
            self.tracer.attach(span, &f);
            let counts = compress_counts(&f);
            if *self.compress_counts.get_or_insert_with(|| counts.clone()) != counts {
                self.fail(1, "layer counts differ between compress reps");
            }
            self.last_compress_fold = Some((f, ms));
        }
        let crc = crc32(archive.as_bytes());
        if *self.archive_crc.get_or_insert(crc) != crc {
            self.fail(1, "archive bytes differ between compress reps");
        }
        Ok((archive, ms))
    }

    /// `compress_csv_stream_to` from the CSV file into the archive file,
    /// timed up to the sink's flush; the archive is then read back.
    fn compress_csv(&self, chunk_rows: usize) -> Result<(DsArchive, f64), String> {
        let sink = BufWriter::new(
            File::create(&self.archive_path).map_err(|e| format!("create archive: {e}"))?,
        );
        let t = Instant::now();
        let (out, _info) = compress_csv_stream_to(&self.csv_path, &self.w.cfg, chunk_rows, sink)
            .map_err(|e| format!("compress_csv_stream_to: {e}"))?;
        out.sink
            .into_inner()
            .map_err(|e| format!("flush archive: {e}"))?;
        let ms = ms_since(t);
        let bytes = fs::read(&self.archive_path).map_err(|e| format!("read archive: {e}"))?;
        Ok((DsArchive::from_bytes(bytes), ms))
    }

    /// One `decompress` (full) or `decompress_rows` (`rows`). The row
    /// count is checked at once; the cells of the last output are
    /// verified after the timed rounds.
    fn decode_once(
        &mut self,
        archive: &DsArchive,
        rows: Option<&Range<usize>>,
        traced: bool,
    ) -> Option<(Table, f64)> {
        let op_name = if rows.is_some() {
            "decompress_rows"
        } else {
            "decompress"
        };
        let want_rows = rows.map_or(self.w.rows, |r| r.len());
        self.attempted += 1;
        let op = self.op_id();
        let span = self.tracer.open(op_name, op);
        if traced {
            ds_obs::enable(true);
        }
        let t = Instant::now();
        let out = match rows {
            None => decompress(archive),
            Some(r) => decompress_rows_with_stats(archive, r.clone()).map(|(t, _)| t),
        };
        let ms = ms_since(t);
        self.tracer.close(span);
        if traced {
            self.tracer.attach(span, &Folded::new(ds_obs::drain()));
        }
        match out {
            Ok(t) if t.nrows() == want_rows => Some((t, ms)),
            Ok(t) => {
                self.fail(1, &format!("{op_name}: {} rows", t.nrows()));
                None
            }
            Err(e) => {
                self.fail(1, &format!("{op_name}: {e}"));
                None
            }
        }
    }

    /// `n` scripted GETs over the open connection.
    fn get_block(
        &mut self,
        client: &mut Client,
        script: &mut RequestScript,
        n: usize,
        traced: bool,
        log: &mut GetLog,
    ) -> Result<Vec<f64>, String> {
        let block = self.tracer.open("get_block", 0);
        if traced {
            ds_obs::enable(true);
        }
        let mut ms = Vec::with_capacity(n);
        for req in script.by_ref().take(n) {
            self.attempted += 1;
            let op = self.op_id();
            let span = self.tracer.open("get", op);
            let reply = client.get(&req.rows);
            self.tracer.close(span);
            match reply {
                Ok((t, rows)) if rows == req.rows.len() => {
                    // The first response of every block is kept for
                    // verification as well, so none goes unchecked.
                    if req.verify || ms.is_empty() {
                        log.sampled.push((req.rows, client.body.clone()));
                    }
                    ms.push(t);
                }
                Ok((_, rows)) => self.fail(1, &format!("GET {:?} returned {rows} rows", req.rows)),
                // An ERR line leaves the connection usable.
                Err(GetError::Refused(line)) => {
                    self.fail(1, &format!("GET {:?}: {line}", req.rows))
                }
                Err(GetError::Transport(e)) => return Err(format!("GET {:?}: {e}", req.rows)),
            }
        }
        self.tracer.close(block);
        if traced {
            let f = Folded::new(ds_obs::drain());
            self.tracer.attach(block, &f);
            log.folded = Some((f, n));
        }
        Ok(ms)
    }

    /// Connects one client over loopback TCP to one server thread
    /// running `ds_serve::serve_connection` on `archive`, wired as `dsqz
    /// serve --listen` wires it, and sends the warm-up GETs.
    fn start_serving(
        &mut self,
        archive: Archive<File>,
        script: &mut RequestScript,
    ) -> Result<Serving, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        // Connecting before the server thread exists is fine (the kernel
        // queues it) and means a failed connect leaves no thread behind.
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let client = Client::new(conn).map_err(|e| format!("client: {e}"))?;
        let shared = archive.clone();
        let server = std::thread::spawn(move || -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            let reader = BufReader::new(stream.try_clone()?);
            ds_serve::serve_connection(&shared, reader, stream).map(|_| ())
        });
        let mut serving = Serving {
            before: archive.cache_stats(),
            archive,
            client,
            server,
        };
        for req in script.by_ref().take(self.scaled(WARMUP_GETS)) {
            if let Err(e) = serving.client.get(&req.rows) {
                let _ = serving.stop();
                return Err(format!("warm-up GET: {e:?}"));
            }
        }
        Ok(serving)
    }

    /// Rounds: a few ops of every kind — compress, full decode, range
    /// read, GETs — again and again until `--seconds` is spent, so that
    /// each kind's samples span the whole run. Returns the number of
    /// rounds. A workload that did not compress in set-up has nothing to
    /// serve until its first compress: `serving` starts then.
    fn rounds(
        &mut self,
        st: &mut Timed,
        input: &Table,
        serving: &mut Option<Serving>,
        script: &mut RequestScript,
    ) -> Result<usize, String> {
        let w = self.w;
        let trace = self.args.trace;
        let mid = self.mid_range();
        let clock = Instant::now();
        let mut done = 0;
        while done < MIN_ROUNDS || {
            let spent = clock.elapsed().as_secs_f64();
            spent + spent / done as f64 <= self.args.seconds
        } {
            // In a traced run the recorder is on every other round, so
            // both sides of `trace.overhead_*` see the same minutes of
            // the host.
            let traced = trace && done % 2 == 1;
            let round = self.tracer.open("round", done as u64);
            self.speeds.push(host::speed());

            let mut ms = Vec::new();
            for _ in 0..w.per_round.compresses {
                let (archive, t) = self.compress_once(input, traced)?;
                st.archive = Some(archive);
                ms.push(t);
            }
            let speed = self.speed_over_block();
            st.compress
                .push_block(traced, speed, ms, self.take_peak_mb());
            let archive = st
                .archive
                .as_ref()
                .expect("set-up or this round compressed");

            for (rows, n, samples, last) in [
                (None, w.per_round.decodes, &mut st.decode, &mut st.decoded),
                (
                    Some(&mid),
                    w.per_round.range_reads,
                    &mut st.range,
                    &mut st.ranged,
                ),
            ] {
                let mut ms = Vec::new();
                for _ in 0..n {
                    // At most one decoded table is alive during an op.
                    drop(last.take());
                    if let Some((table, t)) = self.decode_once(archive, rows, traced) {
                        ms.push(t);
                        *last = Some(table);
                    }
                }
                let speed = self.speed_over_block();
                samples.push_block(traced, speed, ms, self.take_peak_mb());
            }

            if serving.is_none() {
                if w.input == Input::Table {
                    fs::write(&self.archive_path, archive.as_bytes())
                        .map_err(|e| format!("write archive: {e}"))?;
                }
                let t = Instant::now();
                let served = self.open_served()?;
                st.open_ms.push(ms_since(t));
                *serving = Some(self.start_serving(served, script)?);
                self.speeds.push(host::speed());
                rss::reset_peak();
            }
            let client = &mut serving.as_mut().expect("started above").client;
            let n = self.scaled(w.per_round.gets);
            let ms = self.get_block(client, script, n, traced, &mut st.log)?;
            let speed = self.speed_over_block();
            st.get.push_block(traced, speed, ms, self.take_peak_mb());
            self.tracer.close(round);
            done += 1;
        }
        Ok(done)
    }

    // ---- the whole run --------------------------------------------------

    fn measure(&mut self) -> Result<(), String> {
        let w = self.w;
        let trace = self.args.trace;
        let root = self.tracer.open("run", 0);

        // Set-up, several times over so `setup_s` is a median. The last
        // one's products are the ones the timed rounds use.
        let span = self.tracer.open("setup", 0);
        let reps = if trace { 1 } else { SETUP_REPS };
        let mut setups = Vec::new();
        for _ in 0..reps {
            setups.push(self.setup()?);
        }
        self.tracer.close(span);
        let pick = |f: fn(&Setup) -> Option<f64>| setups.iter().filter_map(f).collect::<Vec<_>>();
        let setup_s = pick(|s| Some(s.secs));
        let gen_ms = pick(|s| Some(s.gen_ms));
        let csv_write_ms = pick(|s| s.csv_write_ms);
        let open_ms = pick(|s| s.open_ms);
        let mut compress = Samples::new();
        for (ms, speed) in setups.iter().filter_map(|s| s.compress_ms) {
            compress.push_block(false, speed, vec![ms], Some(0.0));
        }
        let Setup {
            table,
            archive,
            served,
            ..
        } = setups.pop().expect("at least one set-up");
        drop(setups);

        let input_bytes = match w.input {
            Input::Table => table.raw_size(),
            Input::CsvStream { .. } => fs::metadata(&self.csv_path)
                .map_err(|e| format!("stat csv: {e}"))?
                .len() as usize,
        };
        // The generated table stays only where a later op reads it: as
        // the compress input, or for the traced run's layer probes.
        let mut table = (trace || w.input == Input::Table).then_some(table);
        let empty = Table::empty(Default::default());
        self.rss_ok = rss::reset_peak();

        let mut script = RequestScript::new(self.args.seed, w.rows, w.get_rows);
        let mut serving = match served {
            Some(s) => Some(self.start_serving(s, &mut script)?),
            None => None,
        };
        let mut st = Timed {
            archive,
            compress,
            decode: Samples::new(),
            range: Samples::new(),
            get: Samples::new(),
            decoded: None,
            ranged: None,
            log: GetLog::default(),
            open_ms,
        };
        let input = table.as_ref().unwrap_or(&empty);
        let rounds = self.rounds(&mut st, input, &mut serving, &mut script);
        // Stop the server thread whether or not the rounds went through.
        let stopped = serving.map(Serving::stop);
        let rounds = rounds?;
        let (before, after) = stopped.expect("the first round starts serving")?;
        let Timed {
            archive,
            compress,
            decode,
            range,
            get,
            decoded,
            ranged,
            mut log,
            open_ms,
        } = st;
        let archive = archive.expect("the first round compresses");
        let mid = self.mid_range();
        self.tracer.close(root);

        // ---- end-to-end metrics -----------------------------------------
        for (name, s) in [
            ("decompress", &decode),
            ("decompress_rows", &range),
            ("GET", &get),
        ] {
            if s.n() == 0 {
                return Err(format!("no {name} succeeded: {:?}", self.notes));
            }
        }
        let decoded_bytes = decoded.as_ref().map_or(0, Table::raw_size);
        self.m.put_summary("setup_s", summarize(&setup_s));
        self.put_quiet("compress_mb_s", &compress, |ms| mb_per_s(input_bytes, ms));
        self.put_quiet("decode_mb_s", &decode, |ms| mb_per_s(decoded_bytes, ms));
        self.put_quiet("range_read_ms", &range, |ms| ms);
        self.m
            .put("ratio", archive.size() as f64 / input_bytes as f64);
        let kinds = [&compress, &decode, &range, &get];
        match kinds
            .iter()
            .try_fold(0.0f64, |m, s| s.peak_mb.map(|p| m.max(p)))
        {
            Some(peak) => self
                .m
                .put_derived("peak_rss_mb", peak, rounds * kinds.len()),
            None => self.m.put_null("peak_rss_mb"),
        }
        self.put_quiet("get_p50_ms", &get, |ms| ms);
        // Every counted GET returned `get_rows` rows, so a block's cost
        // per row is its summed latency over its row count.
        let ms_per_row = get
            .blocks_of(false)
            .map(|ms| ms.iter().sum::<f64>() / (w.get_rows * ms.len()) as f64)
            .collect();
        self.m
            .put_derived("get_rows_s", 1e3 / quiet_quartile(ms_per_row), get.n());
        let mut speeds = self.speeds.clone();
        speeds.sort_by(f64::total_cmp);
        self.m
            .put_derived("host.speed", median(&speeds), speeds.len());
        self.notes.push(format!(
            "host_speed median {:.3} min {:.3} max {:.3} (1 = nominal; timings are scaled to nominal)",
            median(&speeds),
            speeds[0],
            speeds[speeds.len() - 1],
        ));
        self.notes.push(format!(
            "rounds {rounds} archive_crc32 {:08x} archive_bytes {} input_bytes {input_bytes}",
            self.archive_crc.unwrap_or(0),
            archive.size(),
        ));

        // ---- verification (after the RSS readings) ----------------------
        let source = match table.take() {
            Some(t) => t,
            None => self.generate(),
        };
        let checker = Checker::new(&source, w.cfg.error_threshold);
        if let Some(Err(e)) = decoded.as_ref().map(|t| checker.check_rows(&source, 0, t)) {
            self.fail(decode.n_all() as u64, &format!("decompress: {e}"));
        }
        if let Some(Err(e)) = ranged
            .as_ref()
            .map(|t| checker.check_rows(&source, mid.start, t))
        {
            self.fail(range.n_all() as u64, &format!("decompress_rows: {e}"));
        }
        drop((decoded, ranged));
        let mut header = String::new();
        write_csv_header(source.schema(), &mut header);
        for (rows, body) in &log.sampled {
            let text = format!("{header}{}", String::from_utf8_lossy(body));
            let check = read_csv(&text, source.schema().clone())
                .map_err(|e| e.to_string())
                .and_then(|t| checker.check_rows(&source, rows.start, &t));
            if let Err(e) = check {
                self.fail(1, &format!("GET {rows:?}: {e}"));
            }
        }
        self.notes
            .push(format!("verified_get_responses {}", log.sampled.len()));

        if !trace {
            return Ok(());
        }

        // ---- per-layer metrics (traced run only) ------------------------
        let pm = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        self.m
            .put_derived("table.gen_ms", pm(&gen_ms), gen_ms.len());
        self.m
            .put_derived("serve.open_ms", pm(&open_ms), open_ms.len());
        for (name, s) in [
            ("rss.compress_mb", &compress),
            ("rss.decode_mb", &decode),
            ("rss.serve_mb", &get),
        ] {
            match s.peak_mb {
                Some(peak) => self.m.put(name, peak),
                None => self.m.put_null(name),
            }
        }

        let (f, traced_ms) = self
            .last_compress_fold
            .take()
            .expect("a traced run compresses with the recorder on");
        let epochs = f.span_metric("train", "epochs");
        self.m.put("core.ingest_ms", f.busy_ms("ingest"));
        self.m.put("core.apply_plans_ms", f.busy_ms("apply_plans"));
        self.m.put("nn.train_ms", f.busy_ms("train"));
        self.m.put("nn.train_share", f.busy_ms("train") / traced_ms);
        self.m
            .put("nn.epoch_ms", f.busy_ms("epoch") / epochs.max(1) as f64);
        self.m.put("nn.assign_ms", f.busy_ms("assign"));
        self.m.put("core.materialize_ms", f.busy_ms("materialize"));
        self.m.put("codec.encode_ms", f.busy_ms("encode"));
        self.m.put("shard.flush_ms", f.busy_ms("shard_flush"));
        for (name, count) in compress_counts(&f) {
            self.m.put(name, count);
        }
        self.m.put("trace.spans", f.n_spans() as f64);
        // "train is X% of compress" as one line each. Pool stages are
        // busy time over wall time, so shares need not add up to 1.
        for (name, span) in &f.spans {
            let share = span.busy_us as f64 / 1e3 / traced_ms;
            if share >= 0.01 && *name != "compress" {
                self.notes
                    .push(format!("share_of_compress {name} {share:.3}"));
            }
        }
        for (name, s) in [
            ("trace.overhead_compress", &compress),
            ("trace.overhead_decode", &decode),
            ("trace.overhead_get", &get),
        ] {
            self.m
                .put(name, median(&s.all(true)) / median(&s.all(false)));
        }

        let (gf, n_gets) = log
            .folded
            .take()
            .expect("a traced run serves GETs with the recorder on");
        let n_gets = n_gets.max(1) as f64;
        let mut sorted = get.all(false);
        sorted.sort_by(f64::total_cmp);
        self.m
            .put_derived("serve.get_p99_ms", percentile(&sorted, 99.0), sorted.len());
        let lookups = (after.hits - before.hits) + (after.misses - before.misses);
        self.m.put(
            "serve.cache_hit_ratio",
            (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        );
        self.m.put(
            "serve.cache_evictions",
            (after.evictions - before.evictions) as f64,
        );
        self.m.put(
            "serve.shards_decoded_per_get",
            gf.counter("serve.cache_miss") as f64 / n_gets,
        );
        self.m.put(
            "serve.shard_bytes_read_per_get",
            gf.counter("serve.shard_bytes_read") as f64 / n_gets,
        );
        self.m.put(
            "serve.decode_shard_ms",
            gf.busy_ms("serve.decode_shard") / gf.count("serve.decode_shard").max(1) as f64,
        );
        self.m.put(
            "serve.request_us_p50",
            gf.hist_p50("serve.request_us") as f64,
        );

        self.layer_probes(&source, &archive, &csv_write_ms, get.raw_median_ms())
    }

    /// Reports `of(quiet time)` for `name`, with the plain median and the
    /// highest reportable percentile of all samples beside it.
    fn put_quiet(&mut self, name: &'static str, s: &Samples, of: impl Fn(f64) -> f64) {
        let all = summarize(&s.all(false));
        self.m.put_quiet(
            name,
            of(s.quiet_ms()),
            Summary {
                n: all.n,
                median: of(all.median),
                high: all.high.map(|(p, v)| (p, of(v))),
            },
        );
    }

    /// Layers timed from outside, one call at a time.
    fn layer_probes(
        &mut self,
        source: &Table,
        archive: &DsArchive,
        setup_csv_write_ms: &[f64],
        get_p50_ms: f64,
    ) -> Result<(), String> {
        let w = self.w;
        let span = self.tracer.open("probes", 0);

        // ds-table: CSV write / parse, and the gzlike yardstick on the
        // same input bytes.
        let (csv, chunk_rows) = match w.input {
            Input::CsvStream { chunk_rows } => {
                self.m.put_derived(
                    "table.csv_write_ms",
                    median(setup_csv_write_ms),
                    setup_csv_write_ms.len(),
                );
                let bytes = fs::read(&self.csv_path).map_err(|e| format!("read csv: {e}"))?;
                (bytes, chunk_rows)
            }
            Input::Table => {
                let t = Instant::now();
                let text = write_csv(source);
                self.m.put("table.csv_write_ms", ms_since(t));
                (text.into_bytes(), 4096)
            }
        };
        let t = Instant::now();
        let mut chunks =
            CsvChunks::new(csv.as_slice(), chunk_rows).map_err(|e| format!("parse csv: {e}"))?;
        while let Some(rows) = chunks.next_chunk().map_err(|e| format!("parse csv: {e}"))? {
            std::hint::black_box(rows);
        }
        self.m
            .put("table.csv_parse_mb_s", mb_per_s(csv.len(), ms_since(t)));
        let t = Instant::now();
        let gz = gzlike::compress(&csv);
        self.m.put(
            "codec.gzlike_compress_mb_s",
            mb_per_s(csv.len(), ms_since(t)),
        );
        let t = Instant::now();
        let back = gzlike::decompress(&gz).map_err(|e| format!("gzlike: {e}"))?;
        self.m.put(
            "codec.gzlike_decompress_mb_s",
            mb_per_s(csv.len(), ms_since(t)),
        );
        if back != csv {
            self.fail(1, "gzlike round trip differs");
        }
        self.m
            .put("codec.gzlike_ratio", gz.len() as f64 / csv.len() as f64);
        drop((csv, gz, back));

        // ds-table: what one GET renders.
        let a = self.mid_range().start;
        let slice = source.slice_rows(a..a + w.get_rows.min(w.rows));
        let render_ms = median(&probe(PROBE_REPS, || {
            let mut out = String::new();
            write_csv_rows(&slice, 0..slice.nrows(), &mut out);
            out
        }));
        self.m
            .put_derived("table.csv_render_ms", render_ms, PROBE_REPS);

        // ds-shard / ds-codec / ds-core::pipeline: the read path, shard
        // by shard.
        let bytes = archive.as_bytes();
        let open_us = median(&probe(PROBE_REPS, || ShardReader::open(bytes).is_ok())) * 1e3;
        self.m.put_derived("shard.open_us", open_us, PROBE_REPS);
        let reader = ShardReader::open(bytes).map_err(|e| format!("ShardReader::open: {e}"))?;
        let import_ms = median(&probe(PROBE_REPS, || {
            ShardDecoder::from_shared_blob(reader.shared()).is_ok()
        }));
        self.m
            .put_derived("core.decoder_import_ms", import_ms, PROBE_REPS);
        let decoder = ShardDecoder::from_shared_blob(reader.shared())
            .map_err(|e| format!("decoder import: {e}"))?;
        let (mut crc_ms, mut blob_bytes) = (0.0, 0);
        let (mut shard_ms, mut parts) = (Vec::new(), Vec::new());
        for i in 0..reader.n_shards() {
            let blob = reader
                .shard_bytes(i)
                .map_err(|e| format!("shard {i}: {e}"))?;
            let t = Instant::now();
            std::hint::black_box(crc32(blob));
            crc_ms += ms_since(t);
            blob_bytes += blob.len();
            let t = Instant::now();
            let part = decoder
                .decode_shard(blob)
                .map_err(|e| format!("shard {i}: {e}"))?;
            shard_ms.push(ms_since(t));
            parts.push(part);
        }
        self.m.put_derived(
            "codec.crc32_mb_s",
            mb_per_s(blob_bytes, crc_ms),
            parts.len(),
        );
        self.m
            .put_derived("core.decode_shard_ms", median(&shard_ms), shard_ms.len());
        self.m.put_derived(
            "core.decode_shard_max_ms",
            shard_ms.iter().copied().fold(0.0, f64::max),
            shard_ms.len(),
        );
        let concat_ms = median(&probe(3, || Table::concat(&parts).is_ok()));
        self.m.put_derived("table.concat_ms", concat_ms, 3);
        drop(parts);
        let (_, stats) = decompress_rows_with_stats(archive, self.mid_range())
            .map_err(|e| format!("decompress_rows: {e}"))?;
        self.m
            .put("core.shards_decoded", stats.shards_decoded as f64);

        // ds-core::pipeline: staged replay of the write path, as a
        // cross-check of the span split.
        let t = Instant::now();
        let trained =
            TrainedCompressor::train(source, &w.cfg).map_err(|e| format!("train: {e}"))?;
        self.m.put("core.train_call_ms", ms_since(t));
        let shard_rows = w.cfg.shard_rows;
        let mut encode_ms = Vec::new();
        for lo in (0..w.rows).step_by(shard_rows) {
            let group = source.slice_rows(lo..(lo + shard_rows).min(w.rows));
            let t = Instant::now();
            trained
                .compress_batch(&group)
                .map_err(|e| format!("compress_batch: {e}"))?;
            encode_ms.push(ms_since(t));
        }
        self.m
            .put_derived("core.encode_shard_ms", median(&encode_ms), encode_ms.len());

        // ds-serve: the request script straight through `read_rows`, on
        // a fresh handle with the workload's cache, no socket, no render.
        let direct = self.open_served()?;
        if w.prewarm {
            direct
                .read_rows(0..w.rows)
                .map_err(|e| format!("pre-warm: {e}"))?;
        }
        let mut read_ms = Vec::new();
        for req in RequestScript::new(self.args.seed, w.rows, w.get_rows)
            .take(self.scaled(WARMUP_GETS) + self.scaled(DIRECT_READS))
        {
            let t = Instant::now();
            let got = direct
                .read_rows(req.rows)
                .map_err(|e| format!("read_rows: {e}"))?;
            read_ms.push(ms_since(t));
            std::hint::black_box(got);
        }
        let read_p50 = median(&read_ms[self.scaled(WARMUP_GETS)..]);
        self.m.put_derived(
            "serve.read_rows_p50_ms",
            read_p50,
            read_ms.len() - self.scaled(WARMUP_GETS),
        );
        self.m
            .put("serve.protocol_ms", get_p50_ms - read_p50 - render_ms);
        self.tracer.close(span);
        Ok(())
    }
}

#[derive(Debug)]
enum GetError {
    /// The server answered with something other than `OK n`.
    Refused(String),
    Transport(std::io::Error),
}

impl From<std::io::Error> for GetError {
    fn from(e: std::io::Error) -> GetError {
        GetError::Transport(e)
    }
}

/// The client end of the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    status: String,
    /// Body of the last response (CSV rows, no header).
    body: Vec<u8>,
}

impl Client {
    fn new(conn: TcpStream) -> std::io::Result<Client> {
        Ok(Client {
            reader: BufReader::with_capacity(64 << 10, conn.try_clone()?),
            writer: conn,
            status: String::new(),
            body: Vec::new(),
        })
    }

    /// One `GET`: latency in ms (first request byte written → last
    /// response byte read) and the number of rows received.
    fn get(&mut self, rows: &Range<usize>) -> Result<(f64, usize), GetError> {
        let line = format!("GET {}..{}\n", rows.start, rows.end);
        self.status.clear();
        self.body.clear();
        let t = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.reader.read_line(&mut self.status)?;
        let n: usize = self
            .status
            .strip_prefix("OK ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| GetError::Refused(self.status.trim().to_owned()))?;
        for _ in 0..n {
            self.reader.read_until(b'\n', &mut self.body)?;
        }
        Ok((ms_since(t), n))
    }

    fn quit(mut self) -> std::io::Result<()> {
        self.writer.write_all(b"QUIT\n")?;
        self.status.clear();
        self.reader.read_line(&mut self.status).map(|_| ())
    }
}

/// Times `reps` calls of `f`, in ms.
fn probe<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect()
}

/// The work one compress did, as counted by the program itself. These
/// must repeat exactly from rep to rep.
fn compress_counts(f: &Folded) -> Vec<(&'static str, f64)> {
    vec![
        ("nn.epochs_run", f.span_metric("train", "epochs") as f64),
        ("nn.train_rows", f.span_metric("train", "rows") as f64),
        ("nn.simd_calls", f.counter("nn.simd_kernel") as f64),
        (
            "core.failures_bytes",
            f.counter("materialize.failures_bytes") as f64,
        ),
        ("core.patches", f.counter("materialize.patches") as f64),
        ("codec.codes_in", f.counter("codec.parq.codes_in") as f64),
        ("codec.codes_out", f.counter("codec.parq.codes_out") as f64),
        ("shard.bytes", f.counter("shard.bytes") as f64),
        ("exec.tasks", f.counter("exec.tasks") as f64),
    ]
}
