//! `ds-lint` — workspace invariant checker for the DeepSqueeze crates.
//!
//! A std-only, token-level analyzer that enforces the project's
//! decode-safety and determinism contracts (DESIGN.md §3c): decoder paths
//! must never panic on corrupt input, archive-writing code must never
//! depend on hash-seed iteration order or wall-clock time, every `unsafe`
//! block must state its contract, and no `MutexGuard` may stay live
//! across a pool fan-out or blocking I/O. The architecture rules ("one
//! form per thing", no fused multiply-add) are `[forbid.<name>]` token
//! patterns in `lint.toml`, read by the `forbidden-pattern` rule. Each
//! rule reads one file's token stream; none needs a parser or a call
//! graph, and none applies inside a `#[cfg(test)]` item
//! ([`rules::TestRegions`]). The dynamic half of the decode contract
//! (declared lengths driving allocations) is the counting-allocator
//! mutator in `tests/decode_mutator.rs` (§3h). The binary walks
//! `crates/*/src/**/*.rs`, applies the rules scoped by `lint.toml`, and
//! exits nonzero on any finding; `tests/workspace.rs` runs the same check
//! under `cargo test`.
//!
//! The rule list is pinned here so the README rule table and
//! `--list-rules` cannot drift silently:
//!
//! ```
//! let names: Vec<&str> = ds_lint::rules::RULES.iter().map(|(n, _)| *n).collect();
//! assert_eq!(names, [
//!     "panic-free-decode",
//!     "checked-untrusted-arith",
//!     "no-raw-cast-len",
//!     "deterministic-iteration",
//!     "no-wallclock-nondeterminism",
//!     "unsafe-contract",
//!     "target-feature-gate",
//!     "lock-across-pool",
//!     "forbidden-pattern",
//!     "bad-suppression",
//! ]);
//! ```

pub mod config;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::Config;

/// One lint finding: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative, `/`-separated path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule name (one of [`rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Collects the repo-relative paths of every `.rs` file under `root` that
/// matches a `[scan] include` pattern and is not excluded. Sorted, so
/// output order is stable across platforms and filesystems.
pub fn collect_files(root: &Path, cfg: &Config) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // unreadable dir: skip, the walk is best-effort
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == ".git" || name == "target" || name == "vendor" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let Some(rel) = rel_slash_path(root, &path) else {
                    continue;
                };
                if cfg.scan_excluded(&rel) {
                    continue;
                }
                if cfg
                    .include
                    .iter()
                    .any(|pat| config::pattern_matches_dir(&rel, pat))
                {
                    out.push(rel);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every matching file under `root`, one file at a time. Returns
/// `(files_scanned, findings)`; findings are ordered by (file, line, col,
/// rule).
pub fn lint_root(root: &Path, cfg: &Config) -> Result<(usize, Vec<Finding>), String> {
    let files = collect_files(root, cfg).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut findings = Vec::new();
    for rel in &files {
        let abs: PathBuf = root.join(rel);
        let src =
            fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        findings.extend(rules::check_file(rel, &src, cfg));
    }
    Ok((files.len(), findings))
}

fn rel_slash_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    Some(s)
}
