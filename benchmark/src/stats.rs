//! Sample summaries: median, nearest-rank percentiles, and the "highest
//! percentile that still has at least ten samples beyond it" rule every
//! timing in the report follows.

/// Percentiles the report may print beside a median, highest first.
const REPORT_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// epsilon keeps `99.9% of 10000` at rank 9990 despite float rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (nearest-rank p50 for odd counts, mean of the two middle
/// samples for even counts). `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(s: &[f64]) -> f64 {
    let mid = s.len() / 2;
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[mid],
        _ => (s[mid - 1] + s[mid]) / 2.0,
    }
}

/// The highest reporting percentile with at least ten of `n` samples
/// strictly beyond its rank, if any.
pub fn high_percentile(n: usize) -> Option<f64> {
    REPORT_PERCENTILES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// What the report prints for one timed quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median of the samples.
    pub median: f64,
    /// `(percentile, value)` chosen by [`high_percentile`].
    pub high: Option<(f64, f64)>,
}

/// Summarises `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        median: median_sorted(&sorted),
        high: high_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
    }
}

/// The quiet quartile: nearest-rank lower quartile of `values` (one per
/// round). On a shared host, interference from outside only ever adds
/// time and lasts for seconds, so the quieter rounds say what the code
/// costs; a regression moves them exactly as it moves the median. `NaN`
/// when empty.
pub fn quiet_quartile(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    percentile(&values, 25.0)
}
