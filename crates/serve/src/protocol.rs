//! Line protocol behind `dsqz serve`.
//!
//! Requests are single lines; responses start with a status line:
//!
//! ```text
//! request  = "GET" ws range | "STAT" | "METRICS" | "QUIT"
//! range    = int ".." int          ; half-open row range, e.g. 100..200
//! response = "OK" ... | "ERR" msg | "BYE"
//! ```
//!
//! * `GET a..b` → `OK <n>` followed by `n` CSV data rows (no header).
//! * `STAT`     → `OK rows=<r> shards=<s> cols=<c> cache_entries=<e>
//!   cache_bytes=<b> hits=<h> misses=<m> evictions=<v> errors=<x>
//!   codecs=<names>` on one line (fields only ever append, for old
//!   clients). `codecs` is the comma-joined set of registry codec names
//!   in the manifest's recorded chain section, which only archives older
//!   builds wrote under their codec probe carry; otherwise `legacy`.
//! * `METRICS`  → `OK <nbytes>` followed by exactly `nbytes` bytes of
//!   Prometheus-style text exposition (see [`metrics_text`]).
//! * `QUIT`     → `BYE`, then the connection closes.
//! * Anything else → `ERR <reason>`; the connection stays open.
//!
//! Keywords are case-insensitive; blank lines are ignored. The same
//! handler serves stdin/stdout and TCP sockets — anything `BufRead` in,
//! `Write` out.
//!
//! A client cannot make the server hold more than one bounded line or
//! wait forever: a request line longer than [`MAX_REQUEST_LINE`] bytes,
//! or a socket silent past its read timeout ([`CLIENT_READ_TIMEOUT`] for
//! `dsqz serve --listen`), is answered with `ERR`, counted in
//! `serve.errors`, and the connection is closed.
//!
//! Every request feeds the live telemetry layer: per-verb counters, an
//! error counter, a deterministic rows-per-request histogram, a
//! runtime-class latency histogram (timing mode only), and a
//! [`ds_obs::live::on_request`] tick that advances the rolling-window
//! epochs by request count. `STAT`'s hit/miss/eviction numbers come from
//! the live snapshot when it is armed (so they agree with `METRICS`),
//! falling back to the cache's own counters otherwise.

use std::io::{BufRead, ErrorKind, Read, Write};
use std::ops::Range;
use std::time::Duration;

use crate::{Archive, ReadAt};

/// Longest request line accepted, in bytes before the newline. A
/// `GET a..b` is under 64; the cap is what one connection can make the
/// server buffer.
pub const MAX_REQUEST_LINE: usize = 4096;

/// How long `dsqz serve --listen` lets an accepted socket stay silent
/// before closing it, so an idle client cannot pin a handler thread.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Decode and return the given row range as CSV.
    Get(Range<usize>),
    /// Report archive and cache statistics.
    Stat,
    /// Emit Prometheus-style text exposition of the live telemetry.
    Metrics,
    /// Close the connection.
    Quit,
}

/// Parses one request line. Returns a human-readable reason on failure
/// (sent back to the client as `ERR <reason>`).
pub fn parse_request(line: &str) -> std::result::Result<Request, String> {
    let line = line.trim();
    if line.eq_ignore_ascii_case("stat") {
        return Ok(Request::Stat);
    }
    if line.eq_ignore_ascii_case("metrics") {
        return Ok(Request::Metrics);
    }
    if line.eq_ignore_ascii_case("quit") {
        return Ok(Request::Quit);
    }
    let mut words = line.split_whitespace();
    let (Some(verb), Some(spec), None) = (words.next(), words.next(), words.next()) else {
        return Err(format!(
            "unknown request `{line}` (want GET A..B | STAT | METRICS | QUIT)"
        ));
    };
    if !verb.eq_ignore_ascii_case("get") {
        return Err(format!(
            "unknown request `{line}` (want GET A..B | STAT | METRICS | QUIT)"
        ));
    }
    let Some((a, b)) = spec.split_once("..") else {
        return Err(format!("bad range `{spec}` (want A..B, e.g. 100..200)"));
    };
    let start: usize = a
        .parse()
        .map_err(|_| format!("bad range start `{a}` (want a non-negative integer)"))?;
    let end: usize = b
        .parse()
        .map_err(|_| format!("bad range end `{b}` (want a non-negative integer)"))?;
    if end < start {
        return Err(format!("empty-or-backwards range `{spec}` (want A <= B)"));
    }
    Ok(Request::Get(start..end))
}

/// Totals for one served connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests handled (including malformed ones answered with `ERR`).
    pub requests: u64,
    /// Data rows written across all `GET` responses.
    pub rows_served: u64,
    /// Requests answered with `ERR` (malformed or failed).
    pub errors: u64,
}

/// Renders the current live telemetry as Prometheus-style text
/// exposition: the cumulative snapshot, the rolling-window view,
/// retained slow-request traces, and point-in-time archive gauges
/// (cache residency / capacity / entries, hit ratio, archive shape).
///
/// Works whether or not the live layer is armed — unarmed it degrades to
/// the archive gauges plus an empty snapshot, so `METRICS` never errors.
pub fn metrics_text<R: ReadAt>(archive: &Archive<R>) -> String {
    use std::fmt::Write as _;
    let snap = ds_obs::live::snapshot().unwrap_or_default();
    let window = ds_obs::live::window();
    let slow = ds_obs::live::slow_traces();
    let mut text = ds_obs::live::render_prometheus(&snap, window.as_ref(), &slow);
    let c = archive.cache_stats();
    let ratio = {
        let total = c.hits.saturating_add(c.misses);
        if total == 0 {
            0.0
        } else {
            c.hits as f64 / total as f64
        }
    };
    let gauges: [(&str, String); 6] = [
        ("serve_cache_resident_bytes", format!("{}", c.bytes)),
        ("serve_cache_entries", format!("{}", c.entries)),
        ("serve_cache_capacity_bytes", format!("{}", c.capacity)),
        ("serve_cache_hit_ratio", format!("{ratio:.6}")),
        ("serve_archive_rows", format!("{}", archive.total_rows())),
        ("serve_archive_shards", format!("{}", archive.n_shards())),
    ];
    for (name, value) in gauges {
        let _ = writeln!(text, "# TYPE {name} gauge");
        let _ = writeln!(text, "{name} {value}");
    }
    text
}

/// Serves one connection: reads request lines from `input` until EOF or
/// `QUIT`, writing responses to `output`. Request handling errors go to
/// the client as `ERR` lines; an over-long line or a read timeout does
/// too, and ends the connection; only other transport failures (broken
/// pipe, unreadable input) abort the loop with an error.
pub fn serve_connection<R: ReadAt, I: BufRead, O: Write>(
    archive: &Archive<R>,
    mut input: I,
    mut output: O,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let mut raw = Vec::new();
    loop {
        raw.clear();
        // One byte past the cap tells a line of exactly the cap from a
        // longer one without reading (or buffering) the rest of it.
        let mut bounded = input.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
        let overlong = match bounded.read_until(b'\n', &mut raw) {
            Ok(0) => break,
            Ok(_) => raw.len() > MAX_REQUEST_LINE && !raw.ends_with(b"\n"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                summary.errors += 1;
                ds_obs::counter("serve.errors", 1);
                writeln!(output, "ERR idle past the read timeout, closing")?;
                output.flush()?;
                break;
            }
            Err(e) => return Err(e),
        };
        let line = String::from_utf8_lossy(&raw);
        if line.trim().is_empty() {
            continue;
        }
        let start_us = ds_obs::now_us();
        let mut sp = ds_obs::span_at("serve.request", summary.requests);
        summary.requests += 1;
        ds_obs::counter("serve.requests", 1);
        let mut errored = false;
        let request = if overlong {
            Err(format!(
                "request line exceeds {MAX_REQUEST_LINE} bytes, closing"
            ))
        } else {
            parse_request(&line)
        };
        let close = overlong || matches!(request, Ok(Request::Quit));
        match request {
            Err(reason) => {
                ds_obs::counter_labeled("serve.requests_by_verb", "err", 1);
                errored = true;
                writeln!(output, "ERR {reason}")?;
            }
            Ok(Request::Quit) => {
                ds_obs::counter_labeled("serve.requests_by_verb", "quit", 1);
                writeln!(output, "BYE")?;
            }
            Ok(Request::Stat) => {
                ds_obs::counter_labeled("serve.requests_by_verb", "stat", 1);
                match archive.schema() {
                    Ok(schema) => {
                        let c = archive.cache_stats();
                        // Prefer the live snapshot so STAT and METRICS
                        // agree; unarmed, the cache's own counters are
                        // the same numbers by construction.
                        let (hits, misses, evictions) = match ds_obs::live::snapshot() {
                            Some(snap) => (
                                snap.counter_total("serve.cache_hit"),
                                snap.counter_total("serve.cache_miss"),
                                snap.counter_total("serve.cache_evictions"),
                            ),
                            None => (c.hits, c.misses, c.evictions),
                        };
                        writeln!(
                            output,
                            "OK rows={} shards={} cols={} cache_entries={} cache_bytes={} \
                             hits={} misses={} evictions={} errors={} codecs={}",
                            archive.total_rows(),
                            archive.n_shards(),
                            schema.len(),
                            c.entries,
                            c.bytes,
                            hits,
                            misses,
                            evictions,
                            summary.errors,
                            archive.codec_summary(),
                        )?;
                    }
                    Err(e) => {
                        errored = true;
                        writeln!(output, "ERR {e}")?;
                    }
                }
            }
            Ok(Request::Metrics) => {
                ds_obs::counter_labeled("serve.requests_by_verb", "metrics", 1);
                // Status line and body leave in one write: two writes on
                // a Nagle-enabled socket stall a sub-segment body behind
                // the client's delayed ACK (~40 ms).
                let text = metrics_text(archive);
                let mut response = format!("OK {}\n", text.len());
                response.push_str(&text);
                output.write_all(response.as_bytes())?;
            }
            Ok(Request::Get(range)) => {
                ds_obs::counter_labeled("serve.requests_by_verb", "get", 1);
                match archive.read_rows_with_stats(range) {
                    Ok((table, stats)) => {
                        let nrows = table.nrows();
                        summary.rows_served += nrows as u64;
                        ds_obs::counter("serve.rows_served", nrows as u64);
                        ds_obs::hist("serve.request_rows", nrows as u64);
                        // One write per response, as for METRICS.
                        let mut response = format!("OK {nrows}\n");
                        ds_table::csv::write_csv_rows(&table, 0..nrows, &mut response);
                        output.write_all(response.as_bytes())?;
                        sp.add("rows", nrows as u64);
                        sp.add("shards_decoded", stats.shards_decoded as u64);
                    }
                    Err(e) => {
                        errored = true;
                        writeln!(output, "ERR {e}")?;
                    }
                }
            }
        }
        if errored {
            summary.errors += 1;
        }
        finish_request(sp, start_us, errored);
        output.flush()?;
        if close {
            break;
        }
    }
    Ok(summary)
}

/// Closes a request span, records its telemetry tail, and advances the
/// live rolling-window epoch counter. The span must close *before*
/// [`ds_obs::live::on_request`] so an epoch boundary always sees the
/// request's complete subtree.
fn finish_request(sp: ds_obs::Span, start_us: u64, errored: bool) {
    if errored {
        ds_obs::counter("serve.errors", 1);
    }
    drop(sp);
    ds_obs::hist_rt(
        "serve.request_us",
        ds_obs::now_us().saturating_sub(start_us),
    );
    ds_obs::live::on_request();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_valid_requests() {
        assert_eq!(parse_request("GET 0..10"), Ok(Request::Get(0..10)));
        assert_eq!(parse_request("get 5..5"), Ok(Request::Get(5..5)));
        assert_eq!(parse_request("  GET   7..9  "), Ok(Request::Get(7..9)));
        assert_eq!(parse_request("STAT"), Ok(Request::Stat));
        assert_eq!(parse_request("stat"), Ok(Request::Stat));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
        assert_eq!(parse_request("Quit"), Ok(Request::Quit));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "GET",
            "GET 1",
            "GET 1..2 3",
            "GET a..b",
            "GET 1...2",
            "GET -1..2",
            "GET 9..3",
            "PUT 1..2",
            "GETT 1..2",
            "STAT now",
            "METRICS now",
        ] {
            assert!(parse_request(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn error_messages_name_the_offending_input() {
        let err = parse_request("GET 10..2").unwrap_err();
        assert!(err.contains("10..2"), "got: {err}");
        let err = parse_request("FROB").unwrap_err();
        assert!(err.contains("FROB"), "got: {err}");
    }
}
