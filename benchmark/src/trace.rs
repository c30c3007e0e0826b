//! The benchmark's own spans, recorded from outside the program: one
//! span around every public call, each carrying the op it belongs to and
//! the span that caused it. The `ds_obs::Report` the program emits while
//! a span is open is folded by span name (busy µs, count) and attached
//! under it. Everything stays in memory until [`Tracer::write_jsonl`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// All `ds_obs` spans of one name, merged.
#[derive(Debug, Clone, Default)]
pub struct ObsFold {
    /// Summed span time; on the pool this is busy time, not wall time.
    pub busy_us: u64,
    pub count: u64,
    /// Busy time of the spans of this name that had no parent. They ran
    /// back to back on the calling thread, so they cover wall time.
    pub top_level_us: u64,
    /// Span metrics (`rows`, `epochs`, …) summed by key.
    pub metrics: BTreeMap<&'static str, u64>,
}

/// A drained `ds_obs::Report`, folded by name.
#[derive(Debug, Default)]
pub struct Folded {
    pub spans: BTreeMap<&'static str, ObsFold>,
    pub report: ds_obs::Report,
}

impl Folded {
    pub fn new(report: ds_obs::Report) -> Folded {
        let mut spans: BTreeMap<&'static str, ObsFold> = BTreeMap::new();
        for s in &report.spans {
            let f = spans.entry(s.name).or_default();
            f.busy_us += s.dur_us;
            f.count += s.count;
            if s.depth == 0 {
                f.top_level_us += s.dur_us;
            }
            for &(k, v) in &s.metrics {
                *f.metrics.entry(k).or_default() += v;
            }
        }
        Folded { spans, report }
    }

    pub fn busy_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |f| f.busy_us as f64 / 1e3)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |f| f.count)
    }

    pub fn span_metric(&self, name: &str, key: &str) -> u64 {
        self.spans
            .get(name)
            .and_then(|f| f.metrics.get(key).copied())
            .unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.report.counter_total(name)
    }

    pub fn hist_p50(&self, name: &str) -> u64 {
        self.report
            .hists
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.hist.quantile(0.5))
    }

    pub fn n_spans(&self) -> u64 {
        self.spans.values().map(|f| f.count).sum()
    }
}

#[derive(Debug)]
struct BenchSpan {
    name: &'static str,
    op_id: u64,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
    obs: BTreeMap<&'static str, ObsFold>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRef(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<BenchSpan>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer records nothing: end-to-end numbers are taken
    /// with tracing off.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op_id: u64) -> SpanRef {
        if !self.enabled {
            return SpanRef(None);
        }
        let start_us = self.now_us();
        self.spans.push(BenchSpan {
            name,
            op_id,
            parent: self.stack.last().copied(),
            start_us,
            end_us: start_us,
            obs: BTreeMap::new(),
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        SpanRef(Some(idx))
    }

    pub fn close(&mut self, span: SpanRef) {
        if let Some(idx) = span.0 {
            self.spans[idx].end_us = self.now_us();
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Attaches what the program recorded while `span` was open.
    pub fn attach(&mut self, span: SpanRef, folded: &Folded) {
        if let Some(idx) = span.0 {
            self.spans[idx].obs = folded.spans.clone();
        }
    }

    /// Self time: the span minus the part its children cover — child
    /// benchmark spans plus the program's top-level spans under it.
    fn self_us(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let bench_children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_us - c.start_us)
            .sum();
        let obs_children: u64 = s.obs.values().map(|f| f.top_level_us).sum();
        (s.end_us - s.start_us).saturating_sub(bench_children + obs_children)
    }

    /// One JSON object per span, in open order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (idx, s) in self.spans.iter().enumerate() {
            let dur = s.end_us - s.start_us;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{idx},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\
                 \"start_us\":{},\"end_us\":{},\"self_us\":{},\"obs\":[",
                s.name,
                s.op_id,
                s.start_us,
                s.end_us,
                self.self_us(idx),
            );
            for (k, (name, f)) in s.obs.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let share = if dur > 0 {
                    f.busy_us as f64 / dur as f64
                } else {
                    0.0
                };
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"busy_us\":{},\"count\":{},\"share_of_parent\":{share:.4}}}",
                    f.busy_us, f.count
                );
            }
            out.push_str("]}\n");
        }
        std::fs::write(path, out)
    }
}
