//! Live telemetry: lock-light snapshots, rolling windows, slow-request
//! capture, and Prometheus-style text exposition over the recorder's
//! sharded buffers.
//!
//! The base recorder (PR 4) is drain-once: nothing can be read until the
//! process is done. A long-running `dsqz serve` needs the opposite — read
//! everything, all the time, while requests keep landing. This module
//! adds that without touching the recording fast path:
//!
//! * [`snapshot`] folds the buffered events, through the same fold as
//!   [`crate::drain`], into a [`Snapshot`] of merged counters, high-water
//!   gauges, histograms, and per-name span rollups (float series have no
//!   windowed meaning and are left out).
//!   Reads take the same per-shard mutexes writers use (briefly, one at a
//!   time); the disabled/disarmed path stays a single relaxed atomic
//!   load, and no new lock is ever taken when the recorder is off.
//! * [`arm`] starts **epoch compaction**: every `epoch_requests` calls to
//!   [`on_request`], buffered events are consumed into a cumulative base
//!   snapshot and the base is pushed onto a ring of the last `windows`
//!   epoch boundaries. [`window`] is then `now − oldest`, a rolling view
//!   over roughly `windows × epoch_requests` requests. Epochs advance by
//!   *request count*, never wall clock, so every windowed view is
//!   byte-identical across `DS_THREADS` settings for a serial request
//!   stream — the same determinism contract as the drain path.
//! * Each compaction also assembles the span subtrees of the completed
//!   `serve.request` spans and retains the `slow_k` worst ([`SlowTrace`];
//!   ranked by wall-clock duration when timing is on, falling back to the
//!   deterministic span-metric cost so the retained set is reproducible
//!   in timing-free runs).
//! * [`render_prometheus`] serializes a snapshot (plus optional window
//!   and slow traces) as Prometheus text exposition; [`parse_prometheus`]
//!   and [`render_top`] read it back for the `dsqz top` CLI view.
//!
//! ## Windowing semantics
//!
//! Counters and histograms subtract bucket-wise across snapshots
//! ([`Snapshot::delta`]), so windowed rates and windowed quantiles are
//! exact. High-water gauges do **not** window — a maximum observed inside
//! the window cannot be recovered from two cumulative maxima — so deltas
//! carry the current cumulative value and the exposition marks them as
//! plain gauges. Span rollups subtract like counters.
//!
//! This module is clock-free by construction (`lint.toml` quarantines
//! wall clocks to `sink.rs`): every duration here arrived inside a
//! recorded event, and is zero unless timing was enabled.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::{Event, Metrics, SpanFold, SpanRec};

/// Cumulative rollup of every span with one name (indexes collapsed —
/// `serve.request` indexes are unbounded, and a live view wants totals).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRoll {
    /// Times a span with this name closed.
    pub count: u64,
    /// Summed wall-clock duration (0 when timing is off).
    pub dur_us: u64,
    /// Summed span metrics, keyed by metric name.
    pub metrics: BTreeMap<&'static str, u64>,
}

/// A point-in-time merged view of everything recorded so far.
///
/// All maps are `BTreeMap`s, so iteration (and therefore every rendering
/// of a snapshot) is deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Requests counted by [`on_request`] when this snapshot was taken.
    pub requests: u64,
    /// Merged counters, gauges and histograms.
    pub metrics: Metrics,
    /// Per-name span rollups.
    pub spans: BTreeMap<&'static str, SpanRoll>,
}

impl Snapshot {
    /// Adds spans folded by identity to the per-name rollups.
    fn roll_up(&mut self, spans: &SpanFold) {
        for s in spans.0.values() {
            let roll = self.spans.entry(s.name).or_default();
            roll.count = roll.count.saturating_add(s.count);
            roll.dur_us = roll.dur_us.saturating_add(s.dur_us);
            for &(k, v) in &s.metrics {
                let slot = roll.metrics.entry(k).or_insert(0);
                *slot = slot.saturating_add(v);
            }
        }
    }

    /// Everything that happened between `earlier` and `self` (both must
    /// be cumulative snapshots of the same recorder session, `earlier`
    /// taken first; subtraction saturates defensively).
    ///
    /// Counters, histograms, and span rollups subtract exactly. Gauges
    /// keep the *current* cumulative high-water value — see the module
    /// docs for why maxima cannot window.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot {
            requests: self.requests.saturating_sub(earlier.requests),
            metrics: Metrics {
                gauges: self.metrics.gauges.clone(),
                ..Metrics::default()
            },
            ..Snapshot::default()
        };
        for (k, v) in &self.metrics.counters {
            let prev = earlier.metrics.counters.get(k).copied().unwrap_or(0);
            out.metrics
                .counters
                .insert(k.clone(), v.saturating_sub(prev));
        }
        for (k, h) in &self.metrics.hists {
            let d = match earlier.metrics.hists.get(k) {
                Some(prev) => h.diff(prev),
                None => h.clone(),
            };
            out.metrics.hists.insert(*k, d);
        }
        for (name, roll) in &self.spans {
            let prev = earlier.spans.get(name);
            let mut d = SpanRoll {
                count: roll.count.saturating_sub(prev.map_or(0, |p| p.count)),
                dur_us: roll.dur_us.saturating_sub(prev.map_or(0, |p| p.dur_us)),
                metrics: BTreeMap::new(),
            };
            for (k, v) in &roll.metrics {
                let pv = prev.and_then(|p| p.metrics.get(k)).copied().unwrap_or(0);
                d.metrics.insert(k, v.saturating_sub(pv));
            }
            out.spans.insert(name, d);
        }
        out
    }

    /// Sum of every counter called `name`, over all labels and indexes
    /// (runtime-class included).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .counters
            .iter()
            .filter(|((n, _, _, _), _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// The merged histogram called `name` (deterministic class), if any.
    pub fn hist_named(&self, name: &'static str) -> Option<&Histogram> {
        self.metrics
            .hists
            .get(&(name, false))
            .or_else(|| self.metrics.hists.get(&(name, true)))
    }
}

// ---------------------------------------------------------------------------
// Slow-request capture
// ---------------------------------------------------------------------------

/// The name of the span whose subtrees the slow capturer retains.
pub const REQUEST_SPAN: &str = "serve.request";

/// The full span subtree of one retained `serve.request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowTrace {
    /// The request span's index (its per-connection request number).
    pub request: u64,
    /// Root wall-clock duration (0 when timing is off).
    pub dur_us: u64,
    /// Deterministic cost: the sum of the root span's metric values
    /// (rows, shards decoded, …) — the timing-free ranking key.
    pub cost: u64,
    /// The subtree, root first at depth 0, depth-first.
    pub spans: Vec<SpanRec>,
}

impl SlowTrace {
    /// Ranking key, worst first: wall-clock duration, then deterministic
    /// cost, then request number. With timing off all durations are 0 and
    /// the ordering is fully deterministic.
    fn rank(&self) -> (u64, u64, u64) {
        (self.dur_us, self.cost, self.request)
    }
}

/// Assembles the `serve.request` span subtrees out of one epoch's span
/// fold, in ascending root id. Events for one request always land in the
/// same epoch for serial request streams (the root span closes before
/// [`on_request`] runs); under concurrent connections a request
/// straddling an epoch boundary yields a truncated subtree — acceptable
/// for a debugging aid.
fn assemble_slow(spans: SpanFold) -> Vec<SlowTrace> {
    let tree = spans.into_tree();
    tree.spans
        .values()
        .filter(|s| s.name == REQUEST_SPAN)
        .map(|root| {
            let mut spans = Vec::new();
            tree.walk(root.id, &mut spans);
            SlowTrace {
                request: root.index.unwrap_or(0),
                dur_us: root.dur_us,
                cost: root
                    .metrics
                    .iter()
                    .fold(0, |c, &(_, v)| c.saturating_add(v)),
                spans,
            }
        })
        .collect()
}

/// Merges freshly assembled traces into the retained worst-`k` set. One
/// entry per request number (the higher-ranked survives), worst first.
fn merge_slow(kept: &mut Vec<SlowTrace>, fresh: Vec<SlowTrace>, k: usize) {
    for t in fresh {
        match kept.iter_mut().find(|o| o.request == t.request) {
            Some(old) if old.rank() < t.rank() => *old = t,
            Some(_) => {}
            None => kept.push(t),
        }
    }
    kept.sort_by_key(|t| std::cmp::Reverse(t.rank()));
    kept.truncate(k);
}

// ---------------------------------------------------------------------------
// Window state
// ---------------------------------------------------------------------------

/// Live-view configuration (see [`arm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCfg {
    /// Requests per epoch: how often [`on_request`] folds the buffers
    /// into the cumulative base and pushes a ring entry.
    pub epoch_requests: u64,
    /// Ring depth: [`window`] spans the last `windows` completed epochs
    /// plus the current partial one.
    pub windows: usize,
    /// How many worst requests to retain as full [`SlowTrace`]s.
    pub slow_k: usize,
    /// When true (the default), compaction *consumes* buffered events,
    /// bounding recorder memory for long-running servers. Set false when
    /// a full end-of-run [`crate::drain`] is still wanted (`--trace`):
    /// events then stay buffered and every snapshot re-folds them.
    pub compact: bool,
}

impl Default for WindowCfg {
    fn default() -> Self {
        WindowCfg {
            epoch_requests: 64,
            windows: 8,
            slow_k: 4,
            compact: true,
        }
    }
}

struct LiveState {
    armed: bool,
    cfg: WindowCfg,
    /// Cumulative totals of every *consumed* event (empty in
    /// non-compacting mode, where events stay in the shards).
    base: Snapshot,
    /// Cumulative snapshots at epoch boundaries, oldest first. Seeded
    /// with an empty snapshot so `window()` is total-so-far until the
    /// ring fills.
    ring: VecDeque<Snapshot>,
    /// Worst-`slow_k` request subtrees seen so far.
    slow: Vec<SlowTrace>,
}

/// Fast-path flag mirroring `LIVE.armed`, so [`on_request`] costs one
/// relaxed load when the live view is off.
static LIVE_ARMED: AtomicBool = AtomicBool::new(false);

/// Requests counted since [`arm`]. Kept outside the [`LIVE`] mutex so
/// the armed [`on_request`] fast path is two relaxed atomics; the mutex
/// is only taken at epoch boundaries (every `epoch_requests`-th call).
static LIVE_REQUESTS: AtomicU64 = AtomicU64::new(0);

/// Mirror of `cfg.epoch_requests` (clamped to ≥ 1) for the lock-free
/// boundary test in [`on_request`].
static LIVE_EPOCH_EVERY: AtomicU64 = AtomicU64::new(u64::MAX);

static LIVE: Mutex<Option<LiveState>> = Mutex::new(None);

fn live_lock() -> std::sync::MutexGuard<'static, Option<LiveState>> {
    // Poisoning cannot tear this state (all updates are append/replace);
    // keep serving telemetry rather than poisoning the whole server.
    LIVE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms the live view with the given windowing config, resetting all
/// prior live state (ring, slow traces, request count). The recorder
/// itself must be enabled separately ([`crate::enable`]); arming is
/// independent so tests and servers can re-arm without losing buffered
/// events.
pub fn arm(cfg: WindowCfg) {
    let mut g = live_lock();
    let mut ring = VecDeque::with_capacity(cfg.windows.saturating_add(1));
    ring.push_back(Snapshot::default());
    *g = Some(LiveState {
        armed: true,
        cfg,
        base: Snapshot::default(),
        ring,
        slow: Vec::new(),
    });
    LIVE_REQUESTS.store(0, Ordering::SeqCst);
    LIVE_EPOCH_EVERY.store(cfg.epoch_requests.max(1), Ordering::SeqCst);
    LIVE_ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the live view (snapshots return `None`; [`on_request`] goes
/// back to a single atomic load). Buffered recorder events are untouched.
pub fn disarm() {
    LIVE_ARMED.store(false, Ordering::SeqCst);
    *live_lock() = None;
}

/// True when [`arm`] is in effect.
pub fn armed() -> bool {
    LIVE_ARMED.load(Ordering::Relaxed)
}

/// Folds buffered events into `snap` — metrics directly, spans by
/// identity and then into the rollups — and returns the span fold for
/// slow-trace assembly. `consume` decides take vs peek.
fn fold_events(snap: &mut Snapshot, consume: bool) -> SpanFold {
    let mut spans = SpanFold::default();
    let mut eat = |ev: &Event| {
        snap.metrics.fold(ev);
        spans.fold(ev);
    };
    if consume {
        crate::take_events(|ev| eat(&ev));
    } else {
        crate::peek_events(eat);
    }
    snap.roll_up(&spans);
    spans
}

/// Counts one completed request; every `epoch_requests`-th call advances
/// the epoch (compacts buffers, pushes a ring entry, updates the slow
/// set). Costs one relaxed atomic load when the live view is disarmed
/// and two relaxed atomics plus a modulo when armed — the `LIVE` mutex
/// is only taken at epoch boundaries.
pub fn on_request() {
    if !LIVE_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let n = LIVE_REQUESTS.fetch_add(1, Ordering::Relaxed) + 1;
    if !n.is_multiple_of(LIVE_EPOCH_EVERY.load(Ordering::Relaxed)) {
        return;
    }
    let mut g = live_lock();
    let Some(state) = g.as_mut() else { return };
    if !state.armed {
        return;
    }
    // Epoch boundary: roll events into the cumulative base. Without
    // compaction events stay buffered, so everything is recomputed.
    let compact = state.cfg.compact;
    let mut boundary = if compact {
        std::mem::take(&mut state.base)
    } else {
        Snapshot::default()
    };
    let spans = fold_events(&mut boundary, compact);
    boundary.requests = n;
    if compact {
        state.base = boundary.clone();
    } else {
        state.slow.clear();
    }
    merge_slow(&mut state.slow, assemble_slow(spans), state.cfg.slow_k);
    state.ring.push_back(boundary);
    while state.ring.len() > state.cfg.windows.saturating_add(1) {
        state.ring.pop_front();
    }
}

/// Current cumulative totals: the compacted base plus everything still
/// buffered. Returns `None` when the live view is disarmed.
pub fn snapshot() -> Option<Snapshot> {
    let mut g = live_lock();
    let state = g.as_mut()?;
    if !state.armed {
        return None;
    }
    let mut snap = state.base.clone();
    fold_events(&mut snap, false);
    snap.requests = LIVE_REQUESTS.load(Ordering::Relaxed);
    Some(snap)
}

/// Rolling-window view: current totals minus the oldest retained epoch
/// boundary — i.e. roughly the last `windows × epoch_requests` requests
/// plus the current partial epoch. `None` when disarmed.
pub fn window() -> Option<Snapshot> {
    let oldest = {
        let g = live_lock();
        let state = g.as_ref()?;
        if !state.armed {
            return None;
        }
        state.ring.front().cloned().unwrap_or_default()
    };
    Some(snapshot()?.delta(&oldest))
}

/// The retained worst-request traces, worst first (empty when disarmed
/// or before the first epoch boundary).
pub fn slow_traces() -> Vec<SlowTrace> {
    let g = live_lock();
    g.as_ref().map(|s| s.slow.clone()).unwrap_or_default()
}

/// Requests counted since [`arm`], and completed epoch boundaries
/// currently retained in the ring (test/diagnostic hook).
pub fn progress() -> (u64, usize) {
    let g = live_lock();
    match g.as_ref() {
        Some(s) => (
            LIVE_REQUESTS.load(Ordering::Relaxed),
            s.ring.len().saturating_sub(1),
        ),
        None => (0, 0),
    }
}

// ---------------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------------

/// Sanitizes a metric name for the exposition format: `[a-zA-Z0-9_:]`
/// pass through, everything else becomes `_`, and a leading digit gets a
/// `_` prefix. (`serve.cache_hit` → `serve_cache_hit`.)
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escapes a label value: backslash, double quote, and newline, per the
/// Prometheus text format.
pub fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Un-escapes a label value read back from exposition text.
fn label_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

fn label_set(label: &Option<String>, index: Option<u64>, rt: bool) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(l) = label {
        parts.push(format!("label=\"{}\"", label_escape(l)));
    }
    if let Some(i) = index {
        parts.push(format!("index=\"{i}\""));
    }
    if rt {
        parts.push("rt=\"1\"".to_owned());
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn type_line(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        last.clear();
        last.push_str(name);
    }
}

/// Quantiles surfaced for windowed histograms: (suffix, q).
const QUANTILES: [(&str, f64); 4] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// Renders a snapshot (plus an optional rolling window and slow traces)
/// as Prometheus-style text exposition. Deterministic: output order
/// derives entirely from the snapshot's sorted maps.
///
/// * counters → `<name>_total[{labels}] <v>` with `# TYPE … counter`
/// * gauges → `<name>[{labels}] <v>` with `# TYPE … gauge`
/// * histograms → cumulative `<name>_bucket{le="…"}` series ending in
///   `le="+Inf"` (equal to `<name>_count`), plus `_sum`/`_count`
/// * windowed counters → `<name>_window` gauges; windowed histograms →
///   `<name>_window_p50/p90/p99/p999` and `<name>_window_count` gauges
/// * span rollups and slow traces → `# span …` / `# slow …` comment
///   lines (ignored by scrapers, read by `dsqz top`)
///
/// Runtime-class metrics carry an `rt="1"` label; with timing disabled
/// they are never recorded, so the whole exposition is byte-identical
/// across thread counts for a serial request stream.
pub fn render_prometheus(snap: &Snapshot, window: Option<&Snapshot>, slow: &[SlowTrace]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ds-obs live exposition requests={} window_requests={}",
        snap.requests,
        window.map_or(0, |w| w.requests),
    );
    let mut last_type = String::new();

    for ((name, label, index, rt), v) in &snap.metrics.counters {
        let n = metric_name(name);
        type_line(&mut out, &mut last_type, &n, "counter");
        let _ = writeln!(out, "{n}_total{} {v}", label_set(label, *index, *rt));
    }
    for ((name, index, rt), v) in &snap.metrics.gauges {
        let n = metric_name(name);
        type_line(&mut out, &mut last_type, &n, "gauge");
        let _ = writeln!(out, "{n}{} {v}", label_set(&None, *index, *rt));
    }
    for ((name, rt), h) in &snap.metrics.hists {
        let n = metric_name(name);
        type_line(&mut out, &mut last_type, &n, "histogram");
        let rt_part = if *rt { ",rt=\"1\"" } else { "" };
        let mut cum: u64 = 0;
        for (_, hi, c) in h.nonzero_buckets() {
            cum += c;
            let _ = writeln!(out, "{n}_bucket{{le=\"{hi}\"{rt_part}}} {cum}");
        }
        let inf_labels = if *rt {
            "{le=\"+Inf\",rt=\"1\"}".to_owned()
        } else {
            "{le=\"+Inf\"}".to_owned()
        };
        let _ = writeln!(out, "{n}_bucket{inf_labels} {}", h.count);
        let plain = label_set(&None, None, *rt);
        let _ = writeln!(out, "{n}_sum{plain} {}", h.sum);
        let _ = writeln!(out, "{n}_count{plain} {}", h.count);
    }

    if let Some(w) = window {
        for ((name, label, index, rt), v) in &w.metrics.counters {
            let n = format!("{}_window", metric_name(name));
            type_line(&mut out, &mut last_type, &n, "gauge");
            let _ = writeln!(out, "{n}{} {v}", label_set(label, *index, *rt));
        }
        for ((name, rt), h) in &w.metrics.hists {
            let base = format!("{}_window", metric_name(name));
            let labels = label_set(&None, None, *rt);
            for (suffix, q) in QUANTILES {
                let n = format!("{base}_{suffix}");
                type_line(&mut out, &mut last_type, &n, "gauge");
                let _ = writeln!(out, "{n}{labels} {}", h.quantile(q));
            }
            let n = format!("{base}_count");
            type_line(&mut out, &mut last_type, &n, "gauge");
            let _ = writeln!(out, "{n}{labels} {}", h.count);
        }
    }

    for (name, roll) in &snap.spans {
        let _ = write!(
            out,
            "# span name=\"{}\" n={} dur_us={}",
            label_escape(name),
            roll.count,
            roll.dur_us
        );
        for (k, v) in &roll.metrics {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    for t in slow {
        let _ = writeln!(
            out,
            "# slow request={} dur_us={} cost={}",
            t.request, t.dur_us, t.cost
        );
        for s in &t.spans {
            let _ = write!(
                out,
                "# slow.span depth={} name=\"{}\"",
                s.depth,
                label_escape(s.name)
            );
            if let Some(i) = s.index {
                let _ = write!(out, " index={i}");
            }
            let _ = write!(out, " n={} dur_us={}", s.count, s.dur_us);
            for (k, v) in &s.metrics {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Exposition reader (for `dsqz top`)
// ---------------------------------------------------------------------------

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (as exposed, e.g. `serve_cache_hit_total`).
    pub name: String,
    /// Label pairs in source order, values un-escaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition into samples, skipping comment and
/// malformed lines (a scrape must degrade, not fail). Comment lines are
/// returned separately so `dsqz top` can surface `# slow …` traces.
pub fn parse_prometheus(text: &str) -> (Vec<Sample>, Vec<String>) {
    let mut samples = Vec::new();
    let mut comments = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            comments.push(rest.trim().to_owned());
            continue;
        }
        let (head, value_txt) = match line.rfind('}') {
            Some(brace) => {
                let (h, rest) = line.split_at(brace + 1);
                (h, rest.trim())
            }
            None => match line.split_once(char::is_whitespace) {
                Some((h, rest)) => (h, rest.trim()),
                None => continue,
            },
        };
        let Ok(value) = value_txt.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            Some((n, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or(rest);
                (n.to_owned(), parse_labels(body))
            }
            None => (head.to_owned(), Vec::new()),
        };
        if name.is_empty() {
            continue;
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    (samples, comments)
}

/// Parses `k="v",k2="v2"` label bodies (values may contain escaped
/// quotes and commas).
fn parse_labels(body: &str) -> Vec<(String, String)> {
    let mut labels = Vec::new();
    let mut rest = body;
    loop {
        rest = rest.trim_start_matches(',').trim();
        if rest.is_empty() {
            break;
        }
        let Some(eq) = rest.find('=') else { break };
        let key = rest[..eq].trim().to_owned();
        let after = &rest[eq + 1..];
        let Some(after) = after.strip_prefix('"') else {
            break;
        };
        // Find the closing quote, honoring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in after.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(end) = end else { break };
        labels.push((key, label_unescape(&after[..end])));
        rest = &after[end + 1..];
    }
    labels
}

/// Rebuilds an approximate [`Histogram`] from `<base>_bucket` samples
/// (cumulative `le` counts over power-of-two bucket uppers), plus
/// `_sum`/`_count` if present. Good enough for quantile estimation on
/// the `dsqz top` side of a scrape.
pub fn hist_from_samples(samples: &[Sample], base: &str) -> Option<Histogram> {
    let bucket_name = format!("{base}_bucket");
    let mut points: Vec<(u64, u64)> = Vec::new();
    for s in samples.iter().filter(|s| s.name == bucket_name) {
        let Some(le) = s.label("le") else { continue };
        if le == "+Inf" {
            continue;
        }
        let Ok(hi) = le.parse::<u64>() else { continue };
        points.push((hi, s.value as u64));
    }
    if points.is_empty() {
        return None;
    }
    points.sort_unstable();
    let mut h = Histogram::new();
    let mut prev_cum: u64 = 0;
    for (hi, cum) in points {
        let delta = cum.saturating_sub(prev_cum);
        prev_cum = cum;
        h.record_n(hi, delta);
    }
    for s in samples {
        if s.name == format!("{base}_sum") {
            h.sum = s.value as u64;
        }
    }
    Some(h)
}

fn sum_samples(samples: &[Sample], name: &str) -> f64 {
    let sum: f64 = samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum();
    // f64's Sum identity is -0.0, which `{:.0}` renders as "-0".
    sum + 0.0
}

/// Renders a compact operator view (`dsqz top`) from exposition text:
/// request totals, per-verb breakdown, cache effectiveness, latency and
/// row-count quantiles, and the retained slow-request traces.
pub fn render_top(text: &str) -> String {
    let (samples, comments) = parse_prometheus(text);
    let mut out = String::new();
    let header = comments
        .iter()
        .find(|c| c.starts_with("ds-obs live exposition"))
        .cloned()
        .unwrap_or_default();
    let _ = writeln!(out, "== dsqz top ==  {header}");

    let total = sum_samples(&samples, "serve_requests_total");
    let errors = sum_samples(&samples, "serve_errors_total");
    let rows = sum_samples(&samples, "serve_rows_served_total");
    let _ = writeln!(
        out,
        "requests: total={total:.0} errors={errors:.0} rows_served={rows:.0}"
    );
    let by_verb: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "serve_requests_by_verb_total")
        .collect();
    if !by_verb.is_empty() {
        let _ = write!(out, "by verb: ");
        for (i, s) in by_verb.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            let _ = write!(
                out,
                "{sep}{}={:.0}",
                s.label("label").unwrap_or("?"),
                s.value
            );
        }
        out.push('\n');
    }

    let hits = sum_samples(&samples, "serve_cache_hit_total");
    let misses = sum_samples(&samples, "serve_cache_miss_total");
    if hits + misses > 0.0 {
        let _ = writeln!(
            out,
            "cache: hits={hits:.0} misses={misses:.0} hit_ratio={:.3} \
             resident_bytes={:.0} evictions={:.0}",
            hits / (hits + misses),
            sum_samples(&samples, "serve_cache_resident_bytes"),
            sum_samples(&samples, "serve_cache_evictions_total"),
        );
    }

    for (hist_base, title) in [
        ("serve_request_us", "latency µs"),
        ("serve_request_rows", "request rows"),
    ] {
        if let Some(h) = hist_from_samples(&samples, hist_base) {
            let _ = writeln!(
                out,
                "{title}: p50≈{} p90≈{} p99≈{} p999≈{} n={}",
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
                h.count,
            );
        }
        // Windowed quantiles are exposed pre-computed; surface as-is.
        let wp: Vec<&Sample> = samples
            .iter()
            .filter(|s| {
                QUANTILES
                    .iter()
                    .any(|(q, _)| s.name == format!("{hist_base}_window_{q}"))
            })
            .collect();
        if !wp.is_empty() {
            let _ = write!(out, "{title} (window):");
            for s in wp {
                let q = s.name.rsplit('_').next().unwrap_or("?");
                let _ = write!(out, " {q}≈{:.0}", s.value);
            }
            out.push('\n');
        }
    }

    let slow: Vec<&String> = comments.iter().filter(|c| c.starts_with("slow")).collect();
    if !slow.is_empty() {
        let _ = writeln!(out, "slow requests:");
        for c in slow {
            let indent = if c.starts_with("slow.span") {
                "    "
            } else {
                "  "
            };
            let _ = writeln!(out, "{indent}{c}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_labels_escape() {
        assert_eq!(metric_name("serve.cache_hit"), "serve_cache_hit");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(metric_name("a-b c"), "a_b_c");
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(label_unescape(&label_escape("a\"b\\c\nd")), "a\"b\\c\nd");
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_hists_but_not_gauges() {
        let mut early = Snapshot::default();
        let mut late = Snapshot::default();
        early.metrics.counters.insert(("c", None, None, false), 3);
        late.metrics.counters.insert(("c", None, None, false), 10);
        late.metrics.counters.insert(("new", None, None, false), 4);
        early.metrics.gauges.insert(("g", None, false), 7);
        late.metrics.gauges.insert(("g", None, false), 9);
        let mut h_early = Histogram::new();
        h_early.record(1);
        let mut h_late = h_early.clone();
        h_late.record(100);
        early.metrics.hists.insert(("h", false), h_early);
        late.metrics.hists.insert(("h", false), h_late);
        early.requests = 5;
        late.requests = 12;

        let d = late.delta(&early);
        assert_eq!(d.requests, 7);
        assert_eq!(d.metrics.counters[&("c", None, None, false)], 7);
        assert_eq!(d.metrics.counters[&("new", None, None, false)], 4);
        assert_eq!(
            d.metrics.gauges[&("g", None, false)],
            9,
            "gauges carry current"
        );
        let dh = &d.metrics.hists[&("h", false)];
        assert_eq!(dh.count, 1);
        assert_eq!(dh.nonzero_buckets().len(), 1);
    }

    #[test]
    fn parse_round_trips_rendered_exposition() {
        let mut snap = Snapshot {
            requests: 3,
            ..Snapshot::default()
        };
        snap.metrics
            .counters
            .insert(("serve.requests", None, None, false), 3);
        snap.metrics.counters.insert(
            (
                "serve.requests_by_verb",
                Some("we\"ird\\v\nerb".to_owned()),
                None,
                false,
            ),
            2,
        );
        snap.metrics
            .gauges
            .insert(("exec.peak", Some(1), false), 42);
        let mut h = Histogram::new();
        h.record(3);
        h.record(900);
        snap.metrics.hists.insert(("serve.request_rows", false), h);

        let text = render_prometheus(&snap, None, &[]);
        let (samples, _) = parse_prometheus(&text);
        let get = |n: &str| -> Vec<&Sample> { samples.iter().filter(|s| s.name == n).collect() };
        assert_eq!(get("serve_requests_total")[0].value, 3.0);
        let labeled = get("serve_requests_by_verb_total");
        assert_eq!(labeled[0].label("label"), Some("we\"ird\\v\nerb"));
        assert_eq!(get("exec_peak")[0].label("index"), Some("1"));
        assert_eq!(get("serve_request_rows_count")[0].value, 2.0);
        // Reconstructed histogram quantiles stay within a factor of two.
        let rh = hist_from_samples(&samples, "serve_request_rows").expect("hist");
        assert_eq!(rh.count, 2);
        assert!(rh.quantile(0.99) >= 512 && rh.quantile(0.99) <= 1023);
    }

    #[test]
    fn exposition_le_buckets_are_cumulative_and_inf_equals_count() {
        let mut snap = Snapshot::default();
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 3, 900, 70_000] {
            h.record(v);
        }
        snap.metrics
            .hists
            .insert(("serve.request_rows", false), h.clone());
        let mut h_rt = Histogram::new();
        h_rt.record(17);
        snap.metrics.hists.insert(("serve.request_us", true), h_rt);

        let text = render_prometheus(&snap, None, &[]);
        let (samples, _) = parse_prometheus(&text);
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "serve_request_rows_bucket")
            .collect();
        assert!(buckets.len() >= 4, "expected several le buckets:\n{text}");
        let mut last_le = -1.0_f64;
        let mut last_cum = 0.0_f64;
        for b in &buckets {
            let le = b.label("le").expect("le label");
            if le == "+Inf" {
                assert_eq!(b.value, h.count as f64, "+Inf bucket == _count");
                continue;
            }
            let le: f64 = le.parse().expect("numeric le");
            assert!(le > last_le, "le bounds must increase:\n{text}");
            assert!(b.value >= last_cum, "bucket counts must be cumulative");
            last_le = le;
            last_cum = b.value;
        }
        let inf = buckets.last().expect("has +Inf");
        assert_eq!(inf.label("le"), Some("+Inf"), "last bucket is +Inf");
        let count = samples
            .iter()
            .find(|s| s.name == "serve_request_rows_count")
            .expect("_count sample");
        assert_eq!(inf.value, count.value);
        // Runtime-class histograms carry rt="1" on every series.
        for s in samples
            .iter()
            .filter(|s| s.name.starts_with("serve_request_us"))
        {
            assert_eq!(s.label("rt"), Some("1"), "rt series must be labeled: {s:?}");
        }
    }

    #[test]
    fn slow_merge_keeps_worst_k_and_dedups_by_request() {
        let t = |request: u64, cost: u64| SlowTrace {
            request,
            dur_us: 0,
            cost,
            spans: Vec::new(),
        };
        let mut kept = Vec::new();
        merge_slow(&mut kept, vec![t(0, 5), t(1, 9), t(2, 1)], 2);
        assert_eq!(
            kept.iter().map(|t| t.request).collect::<Vec<_>>(),
            vec![1, 0]
        );
        // A better showing for request 0 replaces the old entry.
        merge_slow(&mut kept, vec![t(0, 40)], 2);
        assert_eq!(kept[0].cost, 40);
        assert_eq!(kept.len(), 2);
    }
}
