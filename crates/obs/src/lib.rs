//! # ds-obs — deterministic observability for the DeepSqueeze stack
//!
//! Hierarchical spans, monotonic counters, power-of-two histograms and
//! float telemetry series, collected through one global, thread-safe
//! [`Recorder`]-style API. Two properties shape the design:
//!
//! 1. **Near-zero cost when off.** Every recording entry point starts
//!    with a single relaxed atomic load; with the recorder disabled (the
//!    default) nothing else runs, so instrumented hot paths cost one
//!    predictable branch.
//! 2. **Deterministic drains.** Span identities are *content-derived*
//!    (FNV-1a over parent id, name, and an optional caller-supplied
//!    index), never clock- or thread-derived, and events land in
//!    per-worker shards that the drain merges by sorting on those
//!    identities. With timing disabled the drained tree is therefore
//!    byte-identical for any `ds_exec::with_thread_limit` — the same
//!    guarantee family as the rest of the workspace.
//!
//! Wall-clock access is confined to the [`sink`] module (the only file
//! `lint.toml` exempts from `no-wallclock-nondeterminism`); instrumented
//! code only ever calls [`now_us`], which reads the clock solely when
//! timing was requested via [`enable`]`(true)`. Scheduling-dependent
//! metrics (steal counts, queue depths, latency histograms) go through
//! the `_rt` entry points, which drop their events unless timing is on —
//! so they can never leak nondeterminism into a deterministic trace.
//!
//! ```
//! let _ = ds_obs::drain(); // isolate from other doctests
//! ds_obs::enable(false);
//! {
//!     let mut sp = ds_obs::span("compress");
//!     sp.add("bytes_in", 1024);
//!     let _child = ds_obs::span_under(sp.id(), "shard", 0);
//! }
//! ds_obs::counter("exec.tasks", 4);
//! let report = ds_obs::drain();
//! assert_eq!(report.spans[0].name, "compress");
//! assert_eq!(report.spans[1].depth, 1);
//! ```

pub mod hist;
pub mod live;
pub mod sink;

pub use hist::Histogram;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

const OFF: u8 = 0;
const ON: u8 = 1;
const ON_TIMING: u8 = 2;

/// Global recorder state: off / on / on with wall-clock timing.
static STATE: AtomicU8 = AtomicU8::new(OFF);

/// Event shards. Threads are assigned a shard in registration order (a
/// plain counter — thread identity APIs are banned by the workspace
/// lint), so concurrent recorders rarely contend on one mutex. Shard
/// membership is scheduling-dependent, which is fine: the drain merges
/// shards by sorting on content-derived keys, never on arrival order.
const N_SHARDS: usize = 32;
static SHARDS: [Mutex<Vec<Event>>; N_SHARDS] = [const { Mutex::new(Vec::new()) }; N_SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard slot (assigned on first record).
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Stack of open span ids — the implicit parent chain.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Folds `f` over every buffered event without consuming anything — the
/// read side of [`live`] snapshots. Shards are visited in fixed slot
/// order, but which shard holds an event is scheduling-dependent, so `f`
/// must be commutative (sums, maxes, keyed merges).
pub(crate) fn peek_events<F: FnMut(&Event)>(mut f: F) {
    for shard in &SHARDS {
        for ev in shard.lock().unwrap().iter() {
            f(ev);
        }
    }
}

/// Consumes every buffered event, folding `f` over each — [`drain`] and
/// the compaction side of [`live`] epochs. Same commutativity requirement
/// as [`peek_events`]. Events recorded concurrently with the sweep land
/// in whichever shard slot the sweep has not reached yet or stay for the
/// next epoch; either way nothing is lost or double-counted.
pub(crate) fn take_events<F: FnMut(Event)>(mut f: F) {
    for shard in &SHARDS {
        for ev in std::mem::take(&mut *shard.lock().unwrap()) {
            f(ev);
        }
    }
}

/// Identity of a span: deterministic FNV-1a of (parent, name, index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// The root of the span tree (parent of top-level spans).
pub const ROOT: SpanId = SpanId(0);

impl SpanId {
    /// Raw 64-bit id (0 is the root sentinel).
    pub fn raw(self) -> u64 {
        self.0
    }
}

enum Event {
    Span {
        id: u64,
        parent: u64,
        name: &'static str,
        index: Option<u64>,
        dur_us: u64,
        metrics: Vec<(&'static str, u64)>,
    },
    Count {
        name: &'static str,
        label: Option<String>,
        index: Option<u64>,
        delta: u64,
        runtime: bool,
    },
    Gauge {
        name: &'static str,
        index: Option<u64>,
        value: u64,
        runtime: bool,
    },
    HistVal {
        name: &'static str,
        value: u64,
        runtime: bool,
    },
    Series {
        name: &'static str,
        index: Option<u64>,
        x: u64,
        y: f64,
    },
}

fn state() -> u8 {
    STATE.load(Ordering::Relaxed)
}

/// Resets all shards and turns recording on. `timing` additionally
/// enables wall-clock span durations and the scheduling-dependent `_rt`
/// metrics — leave it off when the drained tree must be reproducible.
pub fn enable(timing: bool) {
    STATE.store(OFF, Ordering::SeqCst);
    for shard in &SHARDS {
        shard.lock().unwrap().clear();
    }
    STATE.store(if timing { ON_TIMING } else { ON }, Ordering::SeqCst);
}

/// Turns recording off without touching buffered events.
pub fn disable() {
    STATE.store(OFF, Ordering::SeqCst);
}

/// True when the recorder accepts events.
pub fn enabled() -> bool {
    state() != OFF
}

/// True when wall-clock timing (and `_rt` metrics) are being recorded.
pub fn timing_enabled() -> bool {
    state() == ON_TIMING
}

/// Microseconds since an arbitrary process-local epoch, or 0 when timing
/// is disabled — so deterministic runs never touch the clock.
pub fn now_us() -> u64 {
    if timing_enabled() {
        sink::clock_us()
    } else {
        0
    }
}

fn record(ev: Event) {
    if state() == OFF {
        return;
    }
    let shard = MY_SHARD.with(|c| {
        let mut s = c.get();
        if s == usize::MAX {
            s = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
            c.set(s);
        }
        s
    });
    SHARDS[shard].lock().unwrap().push(ev);
}

/// Adds `delta` to the counter `name`.
pub fn counter(name: &'static str, delta: u64) {
    if state() == OFF {
        return;
    }
    record(Event::Count {
        name,
        label: None,
        index: None,
        delta,
        runtime: false,
    });
}

/// Adds `delta` to the indexed counter `name[index]` (e.g. one counter
/// per column or per expert; the index must be data-derived so the
/// drained tree stays deterministic).
pub fn counter_at(name: &'static str, index: u64, delta: u64) {
    if state() == OFF {
        return;
    }
    record(Event::Count {
        name,
        label: None,
        index: Some(index),
        delta,
        runtime: false,
    });
}

/// Adds `delta` to the labelled counter `name{label}` — for per-column
/// byte flow where the column *name* is the natural key.
pub fn counter_labeled(name: &'static str, label: &str, delta: u64) {
    if state() == OFF {
        return;
    }
    record(Event::Count {
        name,
        label: Some(label.to_owned()),
        index: None,
        delta,
        runtime: false,
    });
}

/// Runtime-class counter (steal counts, retry counts): recorded only
/// when timing is enabled, because its value is scheduling-dependent.
pub fn counter_rt(name: &'static str, index: u64, delta: u64) {
    if state() != ON_TIMING {
        return;
    }
    record(Event::Count {
        name,
        label: None,
        index: Some(index),
        delta,
        runtime: true,
    });
}

/// Runtime-class high-water gauge: the drain keeps the maximum value.
pub fn gauge_max_rt(name: &'static str, index: u64, value: u64) {
    if state() != ON_TIMING {
        return;
    }
    record(Event::Gauge {
        name,
        index: Some(index),
        value,
        runtime: true,
    });
}

/// Deterministic high-water gauge: the drain keeps the maximum value.
/// For data-derived peaks (chunk sizes, dictionary widths) that must be
/// reproducible across thread counts — unlike [`gauge_max_rt`], recorded
/// whenever the recorder is on.
pub fn gauge_max(name: &'static str, index: u64, value: u64) {
    if state() == OFF {
        return;
    }
    record(Event::Gauge {
        name,
        index: Some(index),
        value,
        runtime: false,
    });
}

/// Runtime-class histogram sample (latencies, queue dwell times).
pub fn hist_rt(name: &'static str, value: u64) {
    if state() != ON_TIMING {
        return;
    }
    record(Event::HistVal {
        name,
        value,
        runtime: true,
    });
}

/// Deterministic histogram sample (data-derived sizes, not times).
pub fn hist(name: &'static str, value: u64) {
    if state() == OFF {
        return;
    }
    record(Event::HistVal {
        name,
        value,
        runtime: false,
    });
}

/// Appends the point `(x, y)` to the float series `name` (e.g. per-epoch
/// training loss with `x` = epoch).
pub fn series(name: &'static str, x: u64, y: f64) {
    if state() == OFF {
        return;
    }
    record(Event::Series {
        name,
        index: None,
        x,
        y,
    });
}

/// [`series`] with a sub-stream index (e.g. one utilization series per
/// expert).
pub fn series_at(name: &'static str, index: u64, x: u64, y: f64) {
    if state() == OFF {
        return;
    }
    record(Event::Series {
        name,
        index: Some(index),
        x,
        y,
    });
}

/// The innermost open span on this thread ([`ROOT`] when none) — capture
/// it before fanning work out to the pool, then open worker-side spans
/// with [`span_under`].
pub fn current() -> SpanId {
    SPAN_STACK.with(|s| SpanId(s.borrow().last().copied().unwrap_or(0)))
}

/// FNV-1a over (parent, name, index) — the deterministic span identity.
fn span_id(parent: u64, name: &str, index: Option<u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let eat = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    for b in parent.to_le_bytes() {
        h = eat(h, b);
    }
    h = eat(h, 0xff);
    for b in name.bytes() {
        h = eat(h, b);
    }
    h = eat(h, 0xff);
    if let Some(i) = index {
        for b in i.to_le_bytes() {
            h = eat(h, b);
        }
    }
    if h == 0 {
        h = 1; // 0 is the root sentinel
    }
    h
}

/// An open span; records itself (and its accumulated metrics) on drop.
/// Two spans with the same (parent, name, index) merge at drain time:
/// durations and metrics sum, the repeat count increments.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    index: Option<u64>,
    start_us: u64,
    armed: bool,
    metrics: Vec<(&'static str, u64)>,
}

impl Span {
    /// This span's identity, for parenting worker-side children.
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Accumulates `v` into the span metric `key` (bytes, rows, …).
    pub fn add(&mut self, key: &'static str, v: u64) {
        if !self.armed {
            return;
        }
        match self.metrics.iter_mut().find(|(k, _)| *k == key) {
            Some((_, total)) => *total += v,
            None => self.metrics.push((key, v)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            }
        });
        let dur_us = if timing_enabled() {
            sink::clock_us().saturating_sub(self.start_us)
        } else {
            0
        };
        record(Event::Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            index: self.index,
            dur_us,
            metrics: std::mem::take(&mut self.metrics),
        });
    }
}

fn open_span(parent: u64, name: &'static str, index: Option<u64>) -> Span {
    if state() == OFF {
        return Span {
            id: 0,
            parent: 0,
            name,
            index: None,
            start_us: 0,
            armed: false,
            metrics: Vec::new(),
        };
    }
    let id = span_id(parent, name, index);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span {
        id,
        parent,
        name,
        index,
        start_us: now_us(),
        armed: true,
        metrics: Vec::new(),
    }
}

/// Opens a span under this thread's innermost open span.
pub fn span(name: &'static str) -> Span {
    open_span(current().0, name, None)
}

/// Opens an indexed span (e.g. one per shard or per epoch) under this
/// thread's innermost open span.
pub fn span_at(name: &'static str, index: u64) -> Span {
    open_span(current().0, name, Some(index))
}

/// Opens an indexed span under an explicit parent — the entry point for
/// pool-task closures, where the submitting thread's span stack is not
/// visible.
pub fn span_under(parent: SpanId, name: &'static str, index: u64) -> Span {
    open_span(parent.0, name, Some(index))
}

// ---------------------------------------------------------------------------
// Drain: merge shards into a deterministic report
// ---------------------------------------------------------------------------

/// One merged span in depth-first tree order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Deterministic identity ([`span_id`] of parent/name/index).
    pub id: u64,
    /// Parent identity (0 = root).
    pub parent: u64,
    /// Span name.
    pub name: &'static str,
    /// Caller-supplied index, when opened with `span_at`/`span_under`.
    pub index: Option<u64>,
    /// How many times this identity was opened and closed.
    pub count: u64,
    /// Summed wall-clock duration (0 when timing was disabled).
    pub dur_us: u64,
    /// Summed metrics, sorted by key.
    pub metrics: Vec<(&'static str, u64)>,
    /// Depth in the reconstructed tree (0 = top level).
    pub depth: usize,
}

/// One merged counter.
#[derive(Debug, Clone)]
pub struct CounterRec {
    /// Counter name.
    pub name: &'static str,
    /// Optional string key (per-column counters).
    pub label: Option<String>,
    /// Optional numeric key (per-expert / per-worker counters).
    pub index: Option<u64>,
    /// Summed value.
    pub value: u64,
    /// True for scheduling-dependent metrics (recorded only with timing).
    pub runtime: bool,
}

/// One merged high-water gauge.
#[derive(Debug, Clone)]
pub struct GaugeRec {
    /// Gauge name.
    pub name: &'static str,
    /// Optional numeric key.
    pub index: Option<u64>,
    /// Maximum observed value.
    pub value: u64,
    /// True for scheduling-dependent metrics.
    pub runtime: bool,
}

/// One merged histogram.
#[derive(Debug, Clone)]
pub struct HistRec {
    /// Histogram name.
    pub name: &'static str,
    /// Merged buckets.
    pub hist: Histogram,
    /// True for scheduling-dependent metrics.
    pub runtime: bool,
}

/// One merged float series, points sorted by x.
#[derive(Debug, Clone)]
pub struct SeriesRec {
    /// Series name.
    pub name: &'static str,
    /// Optional sub-stream index.
    pub index: Option<u64>,
    /// `(x, y)` points in x order.
    pub points: Vec<(u64, f64)>,
}

/// A drained, fully merged snapshot of everything recorded since
/// [`enable`]. All vectors are deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether wall-clock timing was on for this session.
    pub timing: bool,
    /// Spans in depth-first tree order.
    pub spans: Vec<SpanRec>,
    /// Counters sorted by (name, label, index).
    pub counters: Vec<CounterRec>,
    /// Gauges sorted by (name, index).
    pub gauges: Vec<GaugeRec>,
    /// Histograms sorted by name.
    pub hists: Vec<HistRec>,
    /// Series sorted by (name, index).
    pub series: Vec<SeriesRec>,
}

impl Report {
    /// First span with `name`, in tree order.
    pub fn span_named(&self, name: &str) -> Option<&SpanRec> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Sum of every counter called `name` (over all labels/indexes).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }
}

/// Counter key: (name, label, index, runtime-class).
pub type CounterKey = (&'static str, Option<String>, Option<u64>, bool);
/// Gauge key: (name, index, runtime-class).
pub type GaugeKey = (&'static str, Option<u64>, bool);
/// Histogram key: (name, runtime-class).
pub type HistKey = (&'static str, bool);

/// Merged counters, high-water gauges and histograms in sorted maps: the
/// one metric fold, behind [`drain`] and every [`live::Snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Summed counters.
    pub counters: BTreeMap<CounterKey, u64>,
    /// High-water gauges.
    pub gauges: BTreeMap<GaugeKey, u64>,
    /// Bucket-wise merged histograms.
    pub hists: BTreeMap<HistKey, Histogram>,
}

impl Metrics {
    /// Folds one event. Commutative and saturating, so the result depends
    /// only on which events happened; spans and series pass through.
    fn fold(&mut self, ev: &Event) {
        match ev {
            Event::Count {
                name,
                label,
                index,
                delta,
                runtime,
            } => {
                let key = (*name, label.clone(), *index, *runtime);
                let slot = self.counters.entry(key).or_insert(0);
                *slot = slot.saturating_add(*delta);
            }
            Event::Gauge {
                name,
                index,
                value,
                runtime,
            } => {
                let slot = self.gauges.entry((name, *index, *runtime)).or_insert(0);
                *slot = (*slot).max(*value);
            }
            Event::HistVal {
                name,
                value,
                runtime,
            } => self
                .hists
                .entry((name, *runtime))
                .or_default()
                .record(*value),
            Event::Span { .. } | Event::Series { .. } => {}
        }
    }
}

/// Span events merged by identity, ids ascending: the one span fold.
/// Repeats of an identity sum their counts, durations and metrics.
#[derive(Default)]
struct SpanFold(BTreeMap<u64, SpanRec>);

impl SpanFold {
    /// Folds one event (commutative, saturating); non-span events pass.
    fn fold(&mut self, ev: &Event) {
        let Event::Span {
            id,
            parent,
            name,
            index,
            dur_us,
            metrics,
        } = ev
        else {
            return;
        };
        let rec = self.0.entry(*id).or_insert_with(|| SpanRec {
            id: *id,
            parent: *parent,
            name,
            index: *index,
            count: 0,
            dur_us: 0,
            metrics: Vec::new(),
            depth: 0,
        });
        rec.count = rec.count.saturating_add(1);
        rec.dur_us = rec.dur_us.saturating_add(*dur_us);
        for &(k, v) in metrics {
            match rec.metrics.iter_mut().find(|(mk, _)| *mk == k) {
                Some((_, total)) => *total = total.saturating_add(v),
                None => rec.metrics.push((k, v)),
            }
        }
    }

    /// Indexes the folded spans by parent, once, for any number of walks.
    fn into_tree(self) -> SpanTree {
        let spans = self.0;
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        for (&id, s) in &spans {
            children.entry(s.parent).or_default().push(id);
        }
        for ids in children.values_mut() {
            ids.sort_by_key(|id| {
                let s = &spans[id];
                (s.name, s.index, *id)
            });
        }
        SpanTree { spans, children }
    }
}

/// Folded spans plus their child index.
struct SpanTree {
    spans: BTreeMap<u64, SpanRec>,
    /// Each parent's children in (name, index, id) order.
    children: HashMap<u64, Vec<u64>>,
}

impl SpanTree {
    /// The drain's roots: top-level spans, then orphans (parent closed
    /// after the drain, or never closed), both in child order — so an
    /// orphan surfaces as an extra root rather than vanishing.
    fn roots(&self) -> Vec<u64> {
        let mut roots = self.children.get(&0).cloned().unwrap_or_default();
        let mut orphans: Vec<&SpanRec> = self
            .spans
            .values()
            .filter(|s| s.parent != 0 && !self.spans.contains_key(&s.parent))
            .collect();
        orphans.sort_by_key(|s| (s.name, s.index, s.id));
        roots.extend(orphans.iter().map(|s| s.id));
        roots
    }

    /// The one tree builder: appends the subtree under `root` to `out`,
    /// depth-first from depth 0, children in (name, index, id) order and
    /// metrics sorted by key. A span is emitted at most once per walk,
    /// which guards against hash-collision cycles.
    fn walk(&self, root: u64, out: &mut Vec<SpanRec>) {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(u64, usize)> = vec![(root, 0)];
        while let Some((id, depth)) = stack.pop() {
            let Some(s) = self.spans.get(&id) else {
                continue;
            };
            if !seen.insert(id) {
                continue;
            }
            let mut rec = s.clone();
            rec.depth = depth;
            rec.metrics.sort_by_key(|&(k, _)| k);
            out.push(rec);
            if let Some(kids) = self.children.get(&id) {
                stack.extend(kids.iter().rev().map(|&kid| (kid, depth + 1)));
            }
        }
    }
}

/// Stops recording and returns the merged report. The merge is
/// deterministic: every ordering derives from names, indexes and ids —
/// never from shard membership or arrival order.
pub fn drain() -> Report {
    let timing = timing_enabled();
    STATE.store(OFF, Ordering::SeqCst);
    type SeriesKey = (&'static str, Option<u64>);
    let mut metrics = Metrics::default();
    let mut spans = SpanFold::default();
    let mut series: BTreeMap<SeriesKey, Vec<(u64, f64)>> = BTreeMap::new();
    take_events(|ev| {
        metrics.fold(&ev);
        spans.fold(&ev);
        if let Event::Series { name, index, x, y } = ev {
            series.entry((name, index)).or_default().push((x, y));
        }
    });

    let tree = spans.into_tree();
    let mut ordered: Vec<SpanRec> = Vec::with_capacity(tree.spans.len());
    for root in tree.roots() {
        tree.walk(root, &mut ordered);
    }
    let Metrics {
        counters,
        gauges,
        hists,
    } = metrics;
    Report {
        timing,
        spans: ordered,
        counters: counters
            .into_iter()
            .map(|((name, label, index, runtime), value)| CounterRec {
                name,
                label,
                index,
                value,
                runtime,
            })
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|((name, index, runtime), value)| GaugeRec {
                name,
                index,
                value,
                runtime,
            })
            .collect(),
        hists: hists
            .into_iter()
            .map(|((name, runtime), hist)| HistRec {
                name,
                hist,
                runtime,
            })
            .collect(),
        series: series
            .into_iter()
            .map(|((name, index), mut points)| {
                points.sort_by_key(|&(x, y)| (x, y.to_bits()));
                SeriesRec {
                    name,
                    index,
                    points,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is a process-global; every test here funnels through
    // one #[test] fn to avoid cross-test interleaving.
    #[test]
    fn recorder_end_to_end() {
        span_ids_are_deterministic();
        disabled_recorder_accepts_and_drops_everything();
        spans_merge_and_order_deterministically();
        runtime_metrics_are_dropped_without_timing();
        parallel_recording_merges_shards_deterministically();
    }

    fn span_ids_are_deterministic() {
        let a = span_id(0, "compress", None);
        let b = span_id(0, "compress", None);
        assert_eq!(a, b);
        assert_ne!(a, span_id(0, "compress", Some(0)));
        assert_ne!(a, span_id(a, "compress", None));
        assert_ne!(span_id(0, "shard", Some(1)), span_id(0, "shard", Some(2)));
    }

    fn disabled_recorder_accepts_and_drops_everything() {
        disable();
        let _ = drain();
        counter("x", 1);
        hist("h", 2);
        series("s", 0, 1.0);
        {
            let mut sp = span("dead");
            sp.add("k", 1);
            assert_eq!(sp.id().raw(), 0);
        }
        let r = drain();
        assert!(r.spans.is_empty() && r.counters.is_empty());
        assert!(r.hists.is_empty() && r.series.is_empty());
    }

    fn spans_merge_and_order_deterministically() {
        enable(false);
        for i in (0..3u64).rev() {
            let root = span("run");
            let mut sp = span_under(root.id(), "shard", i);
            sp.add("bytes", 10 * (i + 1));
        }
        counter("c", 1);
        counter("c", 2);
        counter_at("per", 1, 5);
        counter_labeled("col", "age", 7);
        let r = drain();
        assert!(!r.timing);
        let names: Vec<_> = r.spans.iter().map(|s| (s.name, s.index, s.depth)).collect();
        assert_eq!(
            names,
            vec![
                ("run", None, 0),
                ("shard", Some(0), 1),
                ("shard", Some(1), 1),
                ("shard", Some(2), 1),
            ]
        );
        assert_eq!(r.spans[0].count, 3, "repeated span identities merge");
        assert_eq!(r.spans[1].metrics, vec![("bytes", 10)]);
        assert_eq!(r.counter_total("c"), 3);
        assert_eq!(r.counter_total("per"), 5);
        assert_eq!(
            r.counters.iter().find(|c| c.name == "col").unwrap().label,
            Some("age".to_owned())
        );
        assert_eq!(r.spans[0].dur_us, 0, "no wall clock without timing");
    }

    fn runtime_metrics_are_dropped_without_timing() {
        enable(false);
        counter_rt("steals", 0, 1);
        gauge_max_rt("qhw", 0, 9);
        hist_rt("lat", 100);
        let r = drain();
        assert!(r.counters.is_empty() && r.gauges.is_empty() && r.hists.is_empty());

        enable(true);
        counter_rt("steals", 0, 1);
        gauge_max_rt("qhw", 0, 9);
        gauge_max_rt("qhw", 0, 4);
        hist_rt("lat", 100);
        let r = drain();
        assert!(r.timing);
        assert_eq!(r.counter_total("steals"), 1);
        assert_eq!(r.gauges[0].value, 9);
        assert_eq!(r.hists[0].hist.count, 1);
    }

    /// Same event stream recorded from 1 vs 8 threads must drain to the
    /// same report (shard membership must not leak into the output).
    fn parallel_recording_merges_shards_deterministically() {
        let run = |threads: usize| {
            enable(false);
            let root_id = {
                let root = span("job");
                root.id()
            };
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        for i in 0..16u64 {
                            if i % threads as u64 != t as u64 {
                                continue;
                            }
                            let mut sp = span_under(root_id, "task", i);
                            sp.add("n", i);
                            counter("done", 1);
                            series_at("util", i % 2, i, i as f64);
                        }
                    });
                }
            });
            drain()
        };
        let a = run(1);
        let b = run(8);
        let flat = |r: &Report| -> Vec<String> {
            let spans = r.spans.iter().map(|s| {
                format!(
                    "{}:{}:{}:{:?}:{}:{:?}",
                    s.id, s.parent, s.name, s.index, s.count, s.metrics
                )
            });
            let ctrs = r
                .counters
                .iter()
                .map(|c| format!("{}:{:?}:{}", c.name, c.index, c.value));
            let series = r
                .series
                .iter()
                .map(|s| format!("{}:{:?}:{:?}", s.name, s.index, s.points));
            spans.chain(ctrs).chain(series).collect()
        };
        assert_eq!(flat(&a), flat(&b));
    }
}
