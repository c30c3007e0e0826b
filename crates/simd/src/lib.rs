//! Runtime SIMD kernel selection (std-only).
//!
//! `ds-nn`'s kernels are written once, over eight-lane values that run
//! either as plain Rust or as AVX2 registers. Both implement one *fixed
//! accumulation schedule* (DESIGN.md §3f), so which one runs never changes
//! a single output bit — it only changes how fast the bits arrive. This
//! crate owns the decision of which one runs:
//!
//! 1. **Detection.** At first use the host CPU is probed
//!    (`is_x86_feature_detected!("avx2")` on x86-64) and the best supported
//!    [`Level`] is cached for the process.
//! 2. **Override.** `DS_SIMD=auto|off|avx2` (mirroring `DS_THREADS`)
//!    caps the choice: `off` forces the scalar level everywhere, `avx2`
//!    requests AVX2 and quietly falls back to scalar when the host cannot
//!    execute it — requesting an unsupported ISA must never SIGILL.
//!    Unparsable values behave like `auto`.
//! 3. **Scoped override.** [`with_level`] pins a level for the current
//!    thread only, like `ds_exec::with_thread_limit` — concurrent tests
//!    can compare kernels without racing on the process environment.
//!
//! Kernels must resolve their level **once per public entry point, on the
//! calling thread** (before any `ds-exec` fan-out) and thread the choice
//! into their workers: pool workers never see the caller's thread-local
//! override, and a mid-call level switch would break the "one kernel per
//! call" invariant the obs counters report.

use std::cell::Cell;
use std::sync::OnceLock;

/// Which kernel family a dispatch site should run.
///
/// Ordered by preference: a host is always allowed to run a *lower* level
/// than it detects, never a higher one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Plain Rust, on every host: the kernels' eight lanes as `[f32; 8]`.
    Scalar,
    /// 256-bit x86 AVX2: the eight lanes in one register.
    Avx2,
}

impl Level {
    /// Stable lowercase name, used in obs counter labels and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
        }
    }
}

/// Lanes of every kernel value, at every level: a dot product holds this
/// many partial sums (DESIGN.md §3f).
pub const LANE_GROUP: usize = 8;

/// Best level the running CPU can execute, ignoring any override.
pub fn detected() -> Level {
    static CACHED: OnceLock<Level> = OnceLock::new();
    *CACHED.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    if std::arch::is_x86_feature_detected!("avx2") {
        Level::Avx2
    } else {
        Level::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::Scalar
}

/// Caps a requested level at what the host can actually execute: the only
/// runnable non-scalar level is the detected one.
fn cap(level: Level, detected: Level) -> Level {
    if level == detected {
        level
    } else {
        Level::Scalar
    }
}

/// Pure resolution logic, separated for testability: explicit `DS_SIMD`
/// request capped at what the host supports; `off` forces scalar; `auto`,
/// unset, or garbage take the detected level.
fn resolve(env: Option<&str>, detected: Level) -> Level {
    match env.map(str::trim) {
        Some(v) if v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") => {
            Level::Scalar
        }
        Some(v) if v.eq_ignore_ascii_case("avx2") => cap(Level::Avx2, detected),
        _ => detected,
    }
}

/// Process-wide level: `DS_SIMD` env var (capped at the detected level)
/// else the detected level. Read once and cached, like
/// `ds_exec::hardware_threads`.
pub fn configured() -> Level {
    static CACHED: OnceLock<Level> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let env = std::env::var("DS_SIMD").ok();
        resolve(env.as_deref(), detected())
    })
}

thread_local! {
    /// In-process override installed by [`with_level`].
    static LEVEL_OVERRIDE: Cell<Option<Level>> = const { Cell::new(None) };
}

/// The level dispatch sites should use on the *current* thread: the
/// innermost [`with_level`] override, else [`configured`]. Always capped
/// at [`detected`], so the result is executable on this host.
pub fn active() -> Level {
    cap(
        LEVEL_OVERRIDE.with(Cell::get).unwrap_or_else(configured),
        detected(),
    )
}

/// Runs `f` with the calling thread's kernel level pinned to `level`
/// (capped at what the host can execute). Scoped and thread-local, so
/// concurrent tests can compare `Scalar` against the full kernel without
/// racing on the process environment. Note the cap: requesting `Avx2` on
/// a non-AVX2 host silently runs `Scalar`, which keeps identity tests
/// meaningful (if vacuous) everywhere.
pub fn with_level<T>(level: Level, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Level>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = LEVEL_OVERRIDE.with(|c| c.replace(Some(cap(level, detected()))));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_priority_order() {
        // `off` always wins, whatever the host has.
        assert_eq!(resolve(Some("off"), Level::Avx2), Level::Scalar);
        assert_eq!(resolve(Some("OFF"), Level::Avx2), Level::Scalar);
        assert_eq!(resolve(Some("scalar"), Level::Avx2), Level::Scalar);
        // Specific requests are capped at the detected level.
        assert_eq!(resolve(Some("avx2"), Level::Avx2), Level::Avx2);
        assert_eq!(resolve(Some("avx2"), Level::Scalar), Level::Scalar);
        // auto / unset / garbage take the detected level; `neon` selects
        // nothing and reads like any unknown value.
        assert_eq!(resolve(Some("auto"), Level::Avx2), Level::Avx2);
        assert_eq!(resolve(None, Level::Scalar), Level::Scalar);
        assert_eq!(resolve(Some("avx512"), Level::Avx2), Level::Avx2);
        assert_eq!(resolve(Some("neon"), Level::Avx2), Level::Avx2);
        assert_eq!(resolve(Some(" off "), Level::Avx2), Level::Scalar);
    }

    #[test]
    fn with_level_is_scoped_and_restores() {
        let ambient = active();
        with_level(Level::Scalar, || {
            assert_eq!(active(), Level::Scalar);
            with_level(detected(), || assert_eq!(active(), detected()));
            assert_eq!(active(), Level::Scalar);
        });
        assert_eq!(active(), ambient);
    }

    #[test]
    fn active_never_exceeds_detected() {
        with_level(Level::Avx2, || assert!(active() <= detected()));
        assert!(active() <= detected());
    }

    #[test]
    fn names_and_lanes_are_stable() {
        assert_eq!(Level::Scalar.name(), "scalar");
        assert_eq!(Level::Avx2.name(), "avx2");
        assert_eq!(LANE_GROUP, 8);
    }
}
