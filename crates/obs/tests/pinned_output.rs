//! Every rendering of a fixed event script, pinned byte for byte: the
//! JSONL trace, the `--stats` text, the deterministic view of a timed
//! run, and the live exposition (snapshot, rolling window and slow
//! traces) with epoch compaction on and off. The other recorder tests
//! compare runs with each other; this one compares against text checked
//! in beside it (`tests/pinned/`), so a change to how events are merged,
//! ordered or rendered shows up as a diff.
//!
//! The script covers indexed and repeated spans, spans recorded from
//! worker threads, an orphan (its parent is still open at the drain),
//! labelled and indexed counters, gauges, histograms, series,
//! runtime-class events, and `serve.request` subtrees over four epochs
//! — including requests with the same number under different
//! connections, in one epoch and across epochs (ties the slow set must
//! break the same way every time), and a request number repeated under
//! one connection (one span identity, merged).
//!
//! One test function on purpose: the recorder and the live view are
//! process-global.

use ds_obs::live::{self, WindowCfg};
use ds_obs::sink::{deterministic_view, render_stats, to_jsonl};

/// The non-request part of the script: a compress-shaped span tree with
/// worker-side children, and one of every metric kind.
fn record_batch_work() {
    let root = ds_obs::span("compress");
    let root_id = root.id();
    {
        let mut ingest = ds_obs::span("ingest");
        ingest.add("rows", 300);
        ingest.add("bytes", 4096);
        for chunk in 0..3u64 {
            let mut sp = ds_obs::span_at("chunk", chunk);
            sp.add("rows", 100);
        }
    }
    // Six shard spans (the stats view collapses past four), recorded from
    // two threads under an explicit parent, last index first.
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            scope.spawn(move || {
                for shard in (0..6u64).rev().filter(|s| s % 2 == t) {
                    let mut sp = ds_obs::span_under(root_id, "shard", shard);
                    sp.add("rows", 50);
                    sp.add("bytes", 100 + shard);
                    ds_obs::counter("exec.tasks", 1);
                    ds_obs::counter_rt("exec.steals", t, 1);
                    ds_obs::hist_rt("exec.task_us", 40 + shard);
                }
            });
        }
    });
    // A repeated identity: three opens of one (parent, name) merge.
    for epoch in 0..3u64 {
        let mut sp = ds_obs::span("train");
        sp.add("epochs", 1);
        ds_obs::series("train.loss", 2 - epoch, 1.0 / (epoch as f64 + 2.0));
        ds_obs::series_at("train.expert_util", epoch % 2, epoch, 0.25 * epoch as f64);
    }
    ds_obs::counter_labeled("col.bytes", "age", 2048);
    ds_obs::counter_labeled("col.bytes", "city \"x\"", 512);
    ds_obs::counter_labeled("col.bytes", "age", 1024);
    ds_obs::counter_at("pipeline.expert_rows", 1, 120);
    ds_obs::counter_at("pipeline.expert_rows", 0, 180);
    ds_obs::counter("decompress.rows", 300);
    ds_obs::gauge_max("csv.chunk_rows", 0, 100);
    ds_obs::gauge_max("csv.chunk_rows", 0, 140);
    ds_obs::gauge_max_rt("exec.queue_hw", 1, 3);
    for v in [0u64, 1, 7, 7, 900, 70_000] {
        ds_obs::hist("shard.bytes", v);
    }
    drop(root);
}

/// One `serve.request` under connection `conn`: a read span with indexed
/// decode children, metrics on the root, and the request's counters.
fn record_request(conn: u64, request: u64, shards: u64) {
    let conn_span = ds_obs::span_at("serve.conn", conn);
    let mut req = ds_obs::span_under(conn_span.id(), live::REQUEST_SPAN, request);
    req.add("rows", 40 * shards);
    {
        let mut read = ds_obs::span_under(req.id(), "serve.read_rows", 0);
        read.add("shards", shards);
        for s in 0..shards {
            let mut dec = ds_obs::span_under(read.id(), "serve.decode_shard", s);
            dec.add("bytes", 200 + 10 * conn + s);
        }
    }
    ds_obs::counter("serve.requests", 1);
    ds_obs::counter_labeled("serve.requests_by_verb", "get", 1);
    ds_obs::hist("serve.request_rows", 40 * shards);
    ds_obs::hist_rt("serve.request_us", 100 + shards);
    drop(req);
    drop(conn_span);
    live::on_request();
}

/// The request stream: nine requests at two per epoch, so four epoch
/// boundaries pass and the ninth stays in the live buffers. Every
/// retained request costs the same, so ties decide the slow set.
fn record_requests() {
    record_request(0, 0, 1);
    record_request(0, 1, 3);
    // Request 2 on two connections in one epoch: a tie between two span
    // identities (their decode spans differ, so the survivor shows).
    record_request(0, 2, 3);
    record_request(1, 2, 3);
    // Request 3 twice on one connection: one identity, merged.
    record_request(1, 3, 2);
    record_request(1, 3, 1);
    // Request 1 again, an epoch later: a tie across epochs.
    record_request(1, 1, 3);
    record_request(0, 5, 1);
    record_request(0, 4, 1);
}

/// The whole script. Ends with an orphan: returns the open parent of a
/// closed span, for the caller to close after its drain.
#[must_use]
fn record_script() -> ds_obs::Span {
    record_batch_work();
    record_requests();
    let parent = ds_obs::span("open_at_drain");
    let mut orphan = ds_obs::span_under(parent.id(), "late", 0);
    orphan.add("rows", 1);
    parent
}

fn exposition(compact: bool) -> (String, String) {
    ds_obs::enable(false);
    live::arm(WindowCfg {
        epoch_requests: 2,
        windows: 2,
        slow_k: 3,
        compact,
    });
    let parent = record_script();
    let snap = live::snapshot().expect("armed");
    let window = live::window().expect("armed");
    let text = live::render_prometheus(&snap, Some(&window), &live::slow_traces());
    live::disarm();
    let report = ds_obs::drain();
    drop(parent);
    (text, to_jsonl(&report))
}

#[track_caller]
fn assert_pinned(name: &str, expected: &str, actual: &str) {
    assert!(
        expected == actual,
        "{name} differs from its pinned text\n--- pinned ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn every_rendering_of_a_fixed_script_is_pinned() {
    // Timing off: the drained trace and the stats text.
    let _ = ds_obs::drain();
    ds_obs::enable(false);
    let parent = record_script();
    let report = ds_obs::drain();
    drop(parent);
    let trace = to_jsonl(&report);
    assert_pinned("trace", include_str!("pinned/trace.jsonl"), &trace);
    assert_pinned(
        "stats",
        include_str!("pinned/stats.txt"),
        &render_stats(&report),
    );

    // Timing on: durations and runtime-class lines vary, but the
    // deterministic view of the trace is the timing-free trace.
    ds_obs::enable(true);
    let parent = record_script();
    let timed = to_jsonl(&ds_obs::drain());
    drop(parent);
    assert!(
        timed.contains(",\"rt\":true}"),
        "rt lines recorded:\n{timed}"
    );
    assert_pinned(
        "timed run, deterministic view",
        include_str!("pinned/trace.jsonl"),
        &deterministic_view(&timed),
    );

    // Live exposition, compacting: consumed epochs live on in the base,
    // and the drain after it sees only the unconsumed tail.
    let (text, tail) = exposition(true);
    assert_pinned(
        "exposition, compact",
        include_str!("pinned/exposition_compact.txt"),
        &text,
    );
    assert_pinned(
        "trace after compaction",
        include_str!("pinned/trace_after_compaction.jsonl"),
        &tail,
    );

    // Not compacting: every snapshot re-folds the buffers, and the drain
    // still sees the whole run.
    let (text, full) = exposition(false);
    assert_pinned(
        "exposition, buffered",
        include_str!("pinned/exposition_buffered.txt"),
        &text,
    );
    assert_pinned("trace with live buffered", &trace, &full);
}
