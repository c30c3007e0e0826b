//! The workspace gate: ds-lint over this repository with its own
//! `lint.toml`, plus the suppression and manifest checks that are not
//! token rules. `cargo test -q` at the root runs it, so Tier-1 fails on
//! any finding.

use std::fs;
use std::path::{Path, PathBuf};

use ds_lint::config::Config;
use ds_lint::lexer::lex;
use ds_lint::rules::TestRegions;
use ds_lint::{collect_files, lint_root};

/// The marker of a suppression comment.
const SUPPRESSION: &str = "ds-lint: allow";

/// A suppression is a place the checker is not checking: the count may go
/// down, never up.
const MAX_SUPPRESSIONS: usize = 3;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Repo-relative paths of the `.rs` files a `[scan]` section selects.
fn rs_files(scan: &str) -> Vec<String> {
    let cfg = Config::parse(&format!("[scan]\n{scan}\n")).expect("scan config parses");
    collect_files(&repo_root(), &cfg).expect("walking the repo")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn workspace_has_no_findings() {
    let root = repo_root();
    let cfg = Config::parse(&read(&root.join("lint.toml"))).expect("lint.toml parses");
    let (files, findings) = lint_root(&root, &cfg).expect("lint_root");
    assert!(
        files > 0,
        "ds-lint scanned no file under {}",
        root.display()
    );
    let report: String = findings.iter().map(|f| format!("{f}\n")).collect();
    assert!(
        findings.is_empty(),
        "ds-lint: {} finding(s)\n{report}",
        findings.len()
    );
}

#[test]
fn suppressions_stay_at_the_ceiling() {
    // Every line under crates/ that holds a suppression, tests included.
    // The linter's own sources and fixtures spell suppressions out as test
    // data, so crates/lint is not counted.
    let mut sites = Vec::new();
    for path in rs_files("include = [\"crates\"]\nexclude = [\"crates/lint\"]") {
        for (i, line) in read(&repo_root().join(&path)).lines().enumerate() {
            if line.contains(SUPPRESSION) {
                sites.push(format!("{path}:{}", i + 1));
            }
        }
    }
    assert!(
        sites.len() <= MAX_SUPPRESSIONS,
        "ds-lint suppressions grew: {} > {MAX_SUPPRESSIONS}\n{}",
        sites.len(),
        sites.join("\n")
    );
}

#[test]
fn ds_codec_suppresses_no_rule_outside_tests() {
    // ds-codec parses every untrusted byte, so its non-test source is
    // checked by every rule with no exemption at all.
    let mut sites = Vec::new();
    for path in rs_files("include = [\"crates/codec/src\"]") {
        let lexed = lex(&read(&repo_root().join(&path)));
        let tests = TestRegions::find(&lexed);
        for c in &lexed.comments {
            if c.text.contains(SUPPRESSION) && !tests.contains(c.line, c.col) {
                sites.push(format!("{path}:{}", c.line));
            }
        }
    }
    assert!(
        sites.is_empty(),
        "ds-codec suppresses a ds-lint rule:\n{}",
        sites.join("\n")
    );
}

#[test]
fn ds_codec_does_not_depend_on_ds_simd() {
    // The manifest half of `[forbid.one-loop-per-codec-stage]`: ds-codec
    // selects no SIMD level, so it does not depend on the crate that picks
    // one (DESIGN §3f).
    let manifest = read(&repo_root().join("crates/codec/Cargo.toml"));
    assert!(
        !manifest.contains("ds-simd"),
        "crates/codec/Cargo.toml depends on ds-simd again"
    );
}
