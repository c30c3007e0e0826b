//! The metric names this benchmark defines. `BENCHMARK.json` at the repo
//! root repeats these tables for the PR driver; `tests/manifest.rs`
//! keeps the two in step.

use crate::stats::Summary;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which are reported and never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
/// (`failed_frac` is not here: its baseline is 0, so it travels as the
/// `attempted` / `failed` counts of the result line instead.) Bounds are
/// at least twice the widest quartile spread seen over ten seeds of any
/// workload (README, "Noise floor"); the driver caps them at 0.25.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compress_mb_s", "MB/s", Higher, 0.2),
    e2e("decode_mb_s", "MB/s", Higher, 0.15),
    e2e("range_read_ms", "ms", Lower, 0.2),
    e2e("ratio", "ratio", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("get_p50_ms", "ms", Lower, 0.25),
    e2e("get_rows_s", "rows/s", Higher, 0.25),
];

/// Single-layer metrics, from the traced run. `*_ms` of a pool stage is
/// busy time (summed over workers) and may exceed the op's wall time.
pub const PER_LAYER: &[MetricDef] = &[
    layer("table.gen_ms", "ms", Lower),
    layer("table.csv_write_ms", "ms", Lower),
    layer("table.csv_parse_mb_s", "MB/s", Higher),
    layer("table.csv_render_ms", "ms", Lower),
    layer("table.concat_ms", "ms", Lower),
    layer("core.ingest_ms", "ms", Lower),
    layer("core.apply_plans_ms", "ms", Lower),
    layer("nn.train_ms", "ms", Lower),
    layer("nn.train_share", "ratio", Lower),
    layer("nn.epochs_run", "count", Lower),
    layer("nn.train_rows", "count", Lower),
    layer("nn.epoch_ms", "ms", Lower),
    layer("nn.simd_calls", "count", Lower),
    layer("nn.assign_ms", "ms", Lower),
    layer("core.materialize_ms", "ms", Lower),
    layer("core.failures_bytes", "count", Lower),
    layer("core.patches", "count", Lower),
    layer("codec.encode_ms", "ms", Lower),
    layer("codec.codes_in", "count", Lower),
    layer("codec.codes_out", "count", Lower),
    layer("codec.crc32_mb_s", "MB/s", Higher),
    layer("codec.gzlike_compress_mb_s", "MB/s", Higher),
    layer("codec.gzlike_decompress_mb_s", "MB/s", Higher),
    layer("codec.gzlike_ratio", "ratio", Lower),
    layer("shard.flush_ms", "ms", Lower),
    layer("shard.bytes", "count", Lower),
    layer("shard.open_us", "us", Lower),
    layer("core.shards_decoded", "count", Lower),
    layer("core.train_call_ms", "ms", Lower),
    layer("core.encode_shard_ms", "ms", Lower),
    layer("core.decoder_import_ms", "ms", Lower),
    layer("core.decode_shard_ms", "ms", Lower),
    layer("core.decode_shard_max_ms", "ms", Lower),
    layer("exec.tasks", "count", Lower),
    layer("serve.open_ms", "ms", Lower),
    layer("serve.read_rows_p50_ms", "ms", Lower),
    layer("serve.protocol_ms", "ms", Lower),
    layer("serve.get_p99_ms", "ms", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.shards_decoded_per_get", "count", Lower),
    layer("serve.shard_bytes_read_per_get", "count", Lower),
    layer("serve.decode_shard_ms", "ms", Lower),
    layer("serve.request_us_p50", "us", Lower),
    layer("rss.compress_mb", "MB", Lower),
    layer("rss.decode_mb", "MB", Lower),
    layer("rss.serve_mb", "MB", Lower),
    layer("trace.overhead_compress", "ratio", Lower),
    layer("trace.overhead_decode", "ratio", Lower),
    layer("trace.overhead_get", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("host.speed", "ratio", Higher),
];

/// One measured value, ready to print.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    /// `None` prints as `null`: the host cannot measure this metric.
    pub value: Option<f64>,
    /// Samples behind `value` (1 for a count or a single reading).
    pub n: usize,
    /// `(percentile, value)` beside a median, where enough samples exist.
    pub high: Option<(f64, f64)>,
    /// Plain median of all samples, where `value` is the quiet quartile.
    pub plain_median: Option<f64>,
}

/// Collects a run's metrics by name.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A single reading or a count.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_derived(name, value, 1);
    }

    /// A metric this host cannot measure (never reported as 0).
    pub fn put_null(&mut self, name: &'static str) {
        self.0.push(Metric {
            name,
            value: None,
            n: 0,
            high: None,
            plain_median: None,
        });
    }

    /// A timing summarised as its median.
    pub fn put_summary(&mut self, name: &'static str, s: Summary) {
        self.0.push(Metric {
            name,
            value: Some(s.median),
            n: s.n,
            high: s.high,
            plain_median: None,
        });
    }

    /// A timing reported as its quiet quartile, with the summary of all
    /// its samples printed beside it.
    pub fn put_quiet(&mut self, name: &'static str, value: f64, all: Summary) {
        self.0.push(Metric {
            name,
            value: Some(value),
            n: all.n,
            high: all.high,
            plain_median: Some(all.median),
        });
    }

    /// A value derived from `n` samples (throughput from a median, …).
    pub fn put_derived(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.push(Metric {
            name,
            value: Some(value),
            n,
            high: None,
            plain_median: None,
        });
    }

    /// The metrics in `defs` order. Errors name the first metric that is
    /// missing or not a finite number, so a run can never silently print
    /// a partial result line.
    pub fn ordered(&self, defs: &[MetricDef]) -> Result<Vec<(MetricDef, Metric)>, String> {
        defs.iter()
            .map(|d| {
                let m = self
                    .0
                    .iter()
                    .find(|m| m.name == d.name)
                    .ok_or_else(|| format!("metric {} was not measured", d.name))?;
                if let Some(v) = m.value.filter(|v| !v.is_finite()) {
                    return Err(format!("metric {} is not finite: {v}", d.name));
                }
                Ok((*d, m.clone()))
            })
            .collect()
    }
}
