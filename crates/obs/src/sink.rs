//! Report sinks: the JSONL trace serializer, the human `--stats`
//! renderer, and the **only** wall-clock code in the workspace's
//! instrumented path.
//!
//! `lint.toml` scopes `no-wallclock-nondeterminism` to exempt exactly
//! this file; everything else (including the rest of ds-obs) must stay
//! clock-free. Keeping the clock here means instrumented crates never
//! import `std::time` and can't accidentally leak nondeterminism into a
//! timing-disabled trace.
//!
//! ## JSONL schema (one object per line)
//!
//! | kind   | shape                                                                 |
//! |--------|-----------------------------------------------------------------------|
//! | header | `{"k":"trace","v":1,"timing":<bool>}`                                 |
//! | span   | `{"k":"span","id":"<hex16>","parent":"<hex16>","name":<s>,"depth":<n>[,"i":<n>],"n":<count>[,"m":{<key>:<n>,…}][,"us":<n>]}` |
//! | ctr    | `{"k":"ctr","name":<s>[,"label":<s>][,"i":<n>],"v":<n>[,"rt":true]}`  |
//! | gauge  | `{"k":"gauge","name":<s>[,"i":<n>],"v":<n>[,"rt":true]}`              |
//! | hist   | `{"k":"hist","name":<s>,"count":<n>,"sum":<n>,"max":<n>,"buckets":[[lo,hi,count],…][,"rt":true]}` |
//! | series | `{"k":"series","name":<s>[,"i":<n>],"points":[[x,y],…]}`              |
//!
//! Spans come out in depth-first tree order. The wall-clock field
//! (`"us"`) and the runtime marker (`"rt":true`) are always the *last*
//! fields of their line, which is what lets [`deterministic_view`]
//! remove every timing artifact with plain text surgery: a trace with
//! timing enabled, passed through `deterministic_view`, is bit-identical
//! to the same run traced with timing disabled.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::{Report, SpanRec};

/// Process-local clock epoch; all `clock_us` values are relative to the
/// first call, so traces never embed absolute timestamps.
// ds-lint: allow(no-wallclock-nondeterminism) -- sole sanctioned clock; lint.toml also excludes this file
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first call. Only [`crate::now_us`] and the
/// span guard should call this, and only when timing is enabled.
pub fn clock_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Escapes `s` as the body of a JSON string (no surrounding quotes):
/// quotes, backslashes, and control characters per RFC 8259.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON number for an `f64`; non-finite values become `null` (JSON has
/// no NaN/Inf literals, and a half-written trace must stay parseable).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

/// Serializes a drained [`Report`] to the JSONL trace format above.
pub fn to_jsonl(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"k\":\"trace\",\"v\":1,\"timing\":{}}}",
        report.timing
    );
    for s in &report.spans {
        let _ = write!(
            out,
            "{{\"k\":\"span\",\"id\":\"{}\",\"parent\":\"{}\",\"name\":\"{}\",\"depth\":{}",
            hex16(s.id),
            hex16(s.parent),
            json_escape(s.name),
            s.depth
        );
        if let Some(i) = s.index {
            let _ = write!(out, ",\"i\":{i}");
        }
        let _ = write!(out, ",\"n\":{}", s.count);
        if !s.metrics.is_empty() {
            let _ = write!(out, ",\"m\":{{");
            for (j, (k, v)) in s.metrics.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{}\":{v}", json_escape(k));
            }
            let _ = write!(out, "}}");
        }
        // "us" last, so deterministic_view can strip it textually.
        if report.timing {
            let _ = write!(out, ",\"us\":{}", s.dur_us);
        }
        let _ = writeln!(out, "}}");
    }
    for c in &report.counters {
        let _ = write!(out, "{{\"k\":\"ctr\",\"name\":\"{}\"", json_escape(c.name));
        if let Some(label) = &c.label {
            let _ = write!(out, ",\"label\":\"{}\"", json_escape(label));
        }
        if let Some(i) = c.index {
            let _ = write!(out, ",\"i\":{i}");
        }
        let _ = write!(out, ",\"v\":{}", c.value);
        if c.runtime {
            let _ = write!(out, ",\"rt\":true");
        }
        let _ = writeln!(out, "}}");
    }
    for g in &report.gauges {
        let _ = write!(
            out,
            "{{\"k\":\"gauge\",\"name\":\"{}\"",
            json_escape(g.name)
        );
        if let Some(i) = g.index {
            let _ = write!(out, ",\"i\":{i}");
        }
        let _ = write!(out, ",\"v\":{}", g.value);
        if g.runtime {
            let _ = write!(out, ",\"rt\":true");
        }
        let _ = writeln!(out, "}}");
    }
    for h in &report.hists {
        let _ = write!(
            out,
            "{{\"k\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
            json_escape(h.name),
            h.hist.count,
            h.hist.sum,
            h.hist.max
        );
        for (j, (lo, hi, c)) in h.hist.nonzero_buckets().into_iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(out, "{sep}[{lo},{hi},{c}]");
        }
        let _ = write!(out, "]");
        if h.runtime {
            let _ = write!(out, ",\"rt\":true");
        }
        let _ = writeln!(out, "}}");
    }
    for s in &report.series {
        let _ = write!(
            out,
            "{{\"k\":\"series\",\"name\":\"{}\"",
            json_escape(s.name)
        );
        if let Some(i) = s.index {
            let _ = write!(out, ",\"i\":{i}");
        }
        let _ = write!(out, ",\"points\":[");
        for (j, (x, y)) in s.points.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(out, "{sep}[{x},{}]", fmt_f64(*y));
        }
        let _ = writeln!(out, "]}}");
    }
    out
}

/// Projects a JSONL trace onto its deterministic subset: drops
/// runtime-class lines, strips span durations, and normalizes the
/// header's timing flag. Two runs of the same workload — any thread
/// counts, timing on or off — agree byte-for-byte on this view.
///
/// Textual stripping is sound because `"us"` and `"rt":true` are always
/// the final fields of a line and a span name can never *end* a line
/// with such a suffix (its closing quote and brace would intervene, and
/// in-string quotes are escaped).
pub fn deterministic_view(trace: &str) -> String {
    let mut out = String::with_capacity(trace.len());
    for line in trace.lines() {
        if line.ends_with(",\"rt\":true}") {
            continue;
        }
        let line = strip_us_suffix(line);
        let line: &str = &line;
        if let Some(rest) = line.strip_prefix("{\"k\":\"trace\"") {
            out.push_str("{\"k\":\"trace\"");
            out.push_str(&rest.replace("\"timing\":true", "\"timing\":false"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Removes a trailing `,"us":<digits>` (before the closing `}`) if present.
fn strip_us_suffix(line: &str) -> std::borrow::Cow<'_, str> {
    let Some(body) = line.strip_suffix('}') else {
        return line.into();
    };
    let Some(pos) = body.rfind(",\"us\":") else {
        return line.into();
    };
    let digits = &body[pos + 6..];
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        format!("{}}}", &body[..pos]).into()
    } else {
        line.into()
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

fn fmt_dur_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn push_span_line(out: &mut String, s: &SpanRec, timing: bool) {
    let _ = write!(out, "  {:indent$}{}", "", s.name, indent = s.depth * 2);
    if let Some(i) = s.index {
        let _ = write!(out, "[{i}]");
    }
    if s.count > 1 {
        let _ = write!(out, " ×{}", s.count);
    }
    if timing {
        let _ = write!(out, "  {}", fmt_dur_us(s.dur_us));
    }
    for (k, v) in &s.metrics {
        let _ = write!(out, "  {k}={v}");
    }
    out.push('\n');
}

/// Renders the human `--stats` summary: the span tree, per-column byte
/// flow, expert utilization, throughput, and remaining metrics.
pub fn render_stats(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== ds-obs stats (timing {}) ==",
        if report.timing { "on" } else { "off" }
    );

    if !report.spans.is_empty() {
        let _ = writeln!(out, "spans:");
        // Collapse indexed repeats (e.g. 64 shard spans) past a small
        // threshold so the tree stays readable.
        let mut shown_at: Vec<(u64, &'static str, usize)> = Vec::new();
        for s in &report.spans {
            if s.index.is_some() {
                let seen = shown_at
                    .iter_mut()
                    .find(|(p, n, _)| *p == s.parent && *n == s.name);
                match seen {
                    Some((_, _, k)) if *k >= 4 => {
                        *k += 1;
                        continue;
                    }
                    Some((_, _, k)) => *k += 1,
                    None => shown_at.push((s.parent, s.name, 1)),
                }
            }
            push_span_line(&mut out, s, report.timing);
        }
        for (_, name, k) in shown_at.iter().filter(|(_, _, k)| *k > 4) {
            let _ = writeln!(out, "    … {} more {name} spans", k - 4);
        }
    }

    let col_bytes: Vec<_> = report
        .counters
        .iter()
        .filter(|c| c.name == "col.bytes" && c.label.is_some())
        .collect();
    if !col_bytes.is_empty() {
        let _ = writeln!(out, "byte flow per column:");
        let w = col_bytes
            .iter()
            .map(|c| c.label.as_deref().unwrap_or("").len())
            .max()
            .unwrap_or(0);
        for c in &col_bytes {
            let _ = writeln!(
                out,
                "  {:w$}  {:>12}",
                c.label.as_deref().unwrap_or(""),
                fmt_bytes(c.value),
            );
        }
    }

    let expert_rows: Vec<_> = report
        .counters
        .iter()
        .filter(|c| c.name == "pipeline.expert_rows" && c.index.is_some())
        .collect();
    let total_rows: u64 = expert_rows.iter().map(|c| c.value).sum();
    if total_rows > 0 {
        let _ = writeln!(out, "expert utilization (assigned rows):");
        for c in &expert_rows {
            let frac = c.value as f64 / total_rows as f64;
            let bar_len = (frac * 32.0).round() as usize;
            let _ = writeln!(
                out,
                "  expert {:>2}  {:>8} rows  {:>5.1}%  {}",
                c.index.unwrap_or(0),
                c.value,
                frac * 100.0,
                "#".repeat(bar_len),
            );
        }
    }

    if report.timing {
        if let (Some(dec), rows) = (
            report.span_named("decompress"),
            report.counter_total("decompress.rows"),
        ) {
            if rows > 0 && dec.dur_us > 0 {
                let _ = writeln!(
                    out,
                    "decompress throughput: {:.0} rows/s",
                    rows as f64 / (dec.dur_us as f64 / 1e6),
                );
            }
        }
    }

    let other: Vec<_> = report
        .counters
        .iter()
        .filter(|c| c.name != "col.bytes" && c.name != "pipeline.expert_rows")
        .collect();
    if !other.is_empty() {
        let _ = writeln!(out, "counters:");
        for c in other {
            let _ = write!(out, "  {}", c.name);
            if let Some(label) = &c.label {
                let _ = write!(out, "{{{label}}}");
            }
            if let Some(i) = c.index {
                let _ = write!(out, "[{i}]");
            }
            let _ = writeln!(out, " = {}", c.value);
        }
    }
    for g in &report.gauges {
        let _ = write!(out, "  gauge {}", g.name);
        if let Some(i) = g.index {
            let _ = write!(out, "[{i}]");
        }
        let _ = writeln!(out, " max = {}", g.value);
    }
    if !report.hists.is_empty() {
        let _ = writeln!(out, "histograms:");
        for h in &report.hists {
            let _ = writeln!(
                out,
                "  {}: n={} mean={} max={}",
                h.name,
                h.hist.count,
                h.hist.mean(),
                h.hist.max,
            );
        }
    }
    if !report.series.is_empty() {
        let _ = writeln!(out, "series (last point):");
        for s in &report.series {
            let _ = write!(out, "  {}", s.name);
            if let Some(i) = s.index {
                let _ = write!(out, "[{i}]");
            }
            match s.points.last() {
                Some((x, y)) => {
                    let _ = writeln!(out, " @{x} = {:.6}", y);
                }
                None => {
                    let _ = writeln!(out, " (empty)");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterRec, HistRec, Histogram, SeriesRec, SpanRec};

    fn span(name: &'static str, dur_us: u64) -> SpanRec {
        SpanRec {
            id: 0x1234,
            parent: 0,
            name,
            index: None,
            count: 1,
            dur_us,
            metrics: vec![("bytes", 7)],
            depth: 0,
        }
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\tc\rd"), r"a\nb\tc\rd");
        assert_eq!(json_escape("\u{0}\u{1f}"), "\\u0000\\u001f");
        assert_eq!(json_escape("π≈3"), "π≈3");
    }

    #[test]
    fn spans_with_hostile_names_serialize_escaped() {
        let report = Report {
            timing: false,
            spans: vec![span("col \"x\\y\"\n", 0)],
            ..Report::default()
        };
        let jsonl = to_jsonl(&report);
        let line = jsonl.lines().nth(1).expect("span line");
        assert!(line.contains(r#""name":"col \"x\\y\"\n""#), "{line}");
        // The escaped line must still be a single line of balanced JSON.
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn us_and_rt_are_trailing_fields_and_strippable() {
        let report = Report {
            timing: true,
            spans: vec![span("compress", 1234)],
            counters: vec![
                CounterRec {
                    name: "exec.tasks",
                    label: None,
                    index: None,
                    value: 8,
                    runtime: false,
                },
                CounterRec {
                    name: "exec.steals",
                    label: None,
                    index: Some(0),
                    value: 3,
                    runtime: true,
                },
            ],
            ..Report::default()
        };
        let jsonl = to_jsonl(&report);
        assert!(jsonl.contains(",\"us\":1234}"));
        assert!(jsonl.contains(",\"rt\":true}"));

        let det = deterministic_view(&jsonl);
        assert!(!det.contains("\"us\":"));
        assert!(!det.contains("\"rt\":"));
        assert!(!det.contains("exec.steals"));
        assert!(det.contains("exec.tasks"));
        assert!(det.contains("\"timing\":false"));

        // A timing-off report of the same deterministic content matches.
        let report_off = Report {
            timing: false,
            spans: vec![span("compress", 0)],
            counters: vec![CounterRec {
                name: "exec.tasks",
                label: None,
                index: None,
                value: 8,
                runtime: false,
            }],
            ..Report::default()
        };
        assert_eq!(det, deterministic_view(&to_jsonl(&report_off)));
        assert_eq!(
            deterministic_view(&to_jsonl(&report_off)),
            to_jsonl(&report_off)
        );
    }

    #[test]
    fn us_stripper_ignores_lookalikes_inside_strings() {
        // A span name that *ends* with a us-like suffix still has the
        // closing quote+brace after it, so the stripper leaves it alone.
        let line = r#"{"k":"ctr","name":"weird,\"us\":123","v":1}"#;
        assert_eq!(strip_us_suffix(line), line);
        let line2 = r#"{"k":"span","name":"x","us":42}"#;
        assert_eq!(strip_us_suffix(line2), r#"{"k":"span","name":"x"}"#);
    }

    #[test]
    fn non_finite_series_values_become_null() {
        let report = Report {
            timing: false,
            series: vec![SeriesRec {
                name: "loss",
                index: None,
                points: vec![(0, 1.5), (1, f64::NAN)],
            }],
            ..Report::default()
        };
        let jsonl = to_jsonl(&report);
        assert!(jsonl.contains("[0,1.5],[1,null]"), "{jsonl}");
    }

    #[test]
    fn render_stats_mentions_columns_and_histograms() {
        let mut hist = Histogram::new();
        hist.record(100);
        let report = Report {
            timing: true,
            spans: vec![span("compress", 2_000)],
            counters: vec![CounterRec {
                name: "col.bytes",
                label: Some("age".to_owned()),
                index: None,
                value: 4096,
                runtime: false,
            }],
            hists: vec![HistRec {
                name: "exec.task_us",
                hist,
                runtime: true,
            }],
            ..Report::default()
        };
        let txt = render_stats(&report);
        assert!(txt.contains("compress"));
        assert!(txt.contains("age"));
        assert!(txt.contains("4096 B"));
        assert!(txt.contains("exec.task_us: n=1"));
    }
}
