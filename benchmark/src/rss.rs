//! Peak resident set size of this process, per phase.
//!
//! Linux only: `VmHWM` from `/proc/self/status`, reset between phases by
//! writing `5` to `/proc/self/clear_refs`. Where either is unsupported
//! the reading is `None` — never 0, which would read as "no memory".

use std::fs;

/// Resets the peak-RSS high-water mark to the current RSS. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS since the last successful [`reset_peak`], in MB (10^6 bytes).
pub fn peak_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
