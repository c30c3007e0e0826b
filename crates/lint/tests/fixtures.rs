//! Self-test: runs the rule engine over a known-bad fixture tree and
//! asserts the exact rule/file/line of every finding, the suppression
//! grammar, test-item skipping, rule scoping, and the binary's output
//! and exit codes; then runs the repo's own `lint.toml` over the
//! `forbid/` tree, where each `[forbid.*]` entry trips on its fixture.

use std::path::{Path, PathBuf};
use std::process::Command;

use ds_lint::config::Config;
use ds_lint::{lint_root, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixtures() -> Vec<Finding> {
    let root = fixture_root();
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("fixture lint.toml");
    let cfg = Config::parse(&toml).expect("fixture config parses");
    let (files, findings) = lint_root(&root, &cfg).expect("lint_root");
    assert_eq!(files, 13, "fixture tree should scan exactly 13 files");
    findings
}

fn rule_lines<'a>(findings: &'a [Finding], file: &str) -> Vec<(&'a str, u32)> {
    findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn bad_decode_fires_every_decode_rule_at_the_right_line() {
    let findings = lint_fixtures();
    assert_eq!(
        rule_lines(&findings, "crates/codec/src/bad_decode.rs"),
        vec![
            ("panic-free-decode", 5),        // buf[i]
            ("panic-free-decode", 6),        // .unwrap()
            ("panic-free-decode", 7),        // .expect()
            ("checked-untrusted-arith", 8),  // len + count
            ("no-raw-cast-len", 9),          // len as u64
            ("panic-free-decode", 11),       // panic!
            ("deterministic-iteration", 15), // for .. in h
            ("deterministic-iteration", 15), // h.iter()
        ]
    );
}

#[test]
fn suppressions_with_reasons_silence_without_reasons_report() {
    let findings = lint_fixtures();
    // Lines 4 (trailing allow) and 6 (standalone allow above) are silenced;
    // line 7's reason-less allow both fails to suppress and is itself
    // reported as bad-suppression.
    assert_eq!(
        rule_lines(&findings, "crates/codec/src/suppressed.rs"),
        vec![("bad-suppression", 7), ("panic-free-decode", 7)]
    );
}

#[test]
fn cfg_test_modules_are_skipped() {
    let findings = lint_fixtures();
    assert_eq!(
        rule_lines(&findings, "crates/codec/src/test_mod.rs"),
        vec![]
    );
}

#[test]
fn cfg_test_exempts_only_the_item_it_is_attached_to() {
    let findings = lint_fixtures();
    // The indented `#[cfg(test)] fn first` (line 11's unwrap) is exempt;
    // `last`, after it in the same impl, is not.
    assert_eq!(
        rule_lines(&findings, "crates/codec/src/test_fn_in_impl.rs"),
        vec![("panic-free-decode", 15)]
    );
    // A mid-file `#[cfg(test)] mod reference` (line 11's unwrap) is
    // exempt; the fn after it is not.
    assert_eq!(
        rule_lines(&findings, "crates/codec/src/test_mod_mid_file.rs"),
        vec![("panic-free-decode", 16)]
    );
}

#[test]
fn rule_scoping_follows_config_paths() {
    let findings = lint_fixtures();
    // bench is excluded from the wallclock rule entirely.
    assert_eq!(rule_lines(&findings, "crates/bench/src/main.rs"), vec![]);
    // other: wallclock + unsafe-contract apply, but the decode-scoped
    // rules (panic-free-decode) do not — the unwrap on line 18 and the
    // SAFETY-annotated unsafe on line 10 stay silent. Any use of
    // thread::current() is thread identity, not only `.id()` (line 22).
    assert_eq!(
        rule_lines(&findings, "crates/other/src/lib.rs"),
        vec![
            ("no-wallclock-nondeterminism", 5),
            ("unsafe-contract", 14),
            ("no-wallclock-nondeterminism", 22),
        ]
    );
    // obs/sink.rs is a single-file exclude: its Instant::now stays silent.
    assert_eq!(rule_lines(&findings, "crates/obs/src/sink.rs"), vec![]);
    // obs/live.rs sits inside the quarantine: the sink-only exclude must
    // not leak to its siblings, so its clock is a finding.
    assert_eq!(
        rule_lines(&findings, "crates/obs/src/live.rs"),
        vec![("no-wallclock-nondeterminism", 7)]
    );
    // obs/lib.rs is NOT excluded, and its reason-less allow both fails to
    // suppress the wallclock finding and is itself reported.
    assert_eq!(
        rule_lines(&findings, "crates/obs/src/lib.rs"),
        vec![("bad-suppression", 5), ("no-wallclock-nondeterminism", 5),]
    );
}

#[test]
fn target_feature_fns_must_be_unsafe_private_and_gated() {
    let findings = lint_fixtures();
    // kernel_pub (line 4 attribute): pub + no gate marker in the file.
    // kernel_safe (line 10 attribute): not unsafe + no gate marker.
    assert_eq!(
        rule_lines(&findings, "crates/other/src/bad_simd.rs"),
        vec![
            ("target-feature-gate", 4),
            ("target-feature-gate", 4),
            ("target-feature-gate", 10),
            ("target-feature-gate", 10),
        ]
    );
}

#[test]
fn lock_across_pool_fires_only_while_guard_is_live() {
    let findings = lint_fixtures();
    // fanout_holding_guard holds `g` across parallel_for (line 8);
    // fanout_after_drop drops it first, and the block-scoped and `let _`
    // guards are gone before their fan-outs (lines 15, 23, 28): silent.
    // A poison-immune guard across write_all (33) and a `…_lock()`
    // helper's guard across ds-core's `sweep` (38) fire.
    assert_eq!(
        rule_lines(&findings, "crates/pool/src/lib.rs"),
        vec![
            ("lock-across-pool", 8),
            ("lock-across-pool", 33),
            ("lock-across-pool", 38),
        ]
    );
}

#[test]
fn suppressions_apply_across_attributes_and_doc_comments() {
    let findings = lint_fixtures();
    // Line 8 (`buf[0]` behind `#[rustfmt::skip]`) and line 15 (unwrap
    // behind a doc comment) are suppressed by the allows above them;
    // line 9 (`buf[1]`) is past the suppressed line and still fires.
    assert_eq!(
        rule_lines(&findings, "crates/codec/src/attr_suppressed.rs"),
        vec![("panic-free-decode", 9)]
    );
}

#[test]
fn findings_are_sorted() {
    let findings = lint_fixtures();
    let mut sorted: Vec<(&str, u32, u32)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.col))
        .collect();
    let original = sorted.clone();
    sorted.sort();
    assert_eq!(original, sorted, "findings must come out ordered");
}

#[test]
fn binary_output_and_exit_codes() {
    let root = fixture_root();
    let bin = env!("CARGO_BIN_EXE_ds-lint");

    // Findings → exit 1, one `file:line:col rule: message` line each,
    // then the summary line.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&root)
        .arg("--config")
        .arg(root.join("lint.toml"))
        .output()
        .expect("run ds-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let findings = lint_fixtures();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), findings.len() + 1, "{stdout}");
    for (line, f) in lines.iter().zip(&findings) {
        assert_eq!(*line, f.to_string());
    }
    assert!(lines[findings.len()].ends_with("FAILED"), "{stdout}");
    assert!(stdout.contains("crates/pool/src/lib.rs:8:14 lock-across-pool"));

    // The retired --format flag is a usage error.
    let out = Command::new(bin)
        .args(["--format", "json"])
        .output()
        .expect("run ds-lint --format");
    assert_eq!(out.status.code(), Some(2));

    // Clean tree → exit 0.
    let clean = root.join("clean");
    let out = Command::new(bin)
        .arg("--root")
        .arg(&clean)
        .arg("--config")
        .arg(clean.join("lint.toml"))
        .output()
        .expect("run ds-lint on clean tree");
    assert_eq!(out.status.code(), Some(0));

    // Missing config → usage/config error, exit 2.
    let out = Command::new(bin)
        .arg("--root")
        .arg(&root)
        .arg("--config")
        .arg(root.join("no-such.toml"))
        .output()
        .expect("run ds-lint with bad config");
    assert_eq!(out.status.code(), Some(2));
}

/// The repo's `lint.toml` over `fixtures/forbid`, whose files sit at the
/// paths the `[forbid.*]` entries guard.
fn lint_forbid_fixtures() -> (Config, Vec<Finding>) {
    let repo_toml = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
    let toml = std::fs::read_to_string(repo_toml).expect("repo lint.toml");
    let cfg = Config::parse(&toml).expect("repo lint.toml parses");
    let (files, findings) = lint_root(&fixture_root().join("forbid"), &cfg).expect("lint_root");
    assert_eq!(files, 11, "forbid tree should scan exactly 11 files");
    (cfg, findings)
}

/// The `[forbid.<name>]` entry a finding's message names.
fn forbid_entry(f: &Finding) -> &str {
    f.message
        .strip_prefix("[forbid.")
        .and_then(|m| m.split_once(']'))
        .map_or("", |(name, _)| name)
}

#[test]
fn every_forbid_entry_trips_on_its_fixture() {
    let (cfg, findings) = lint_forbid_fixtures();
    let got: Vec<(&str, &str, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule, forbid_entry(f), f.file.as_str(), f.line))
        .collect();
    let fp = "forbidden-pattern";
    assert_eq!(
        got,
        vec![
            (
                fp,
                "one-loop-per-codec-stage",
                "crates/codec/src/bitpack.rs",
                4
            ),
            (
                fp,
                "one-gzlike-decode-loop",
                "crates/codec/src/gzlike.rs",
                3
            ),
            (fp, "one-huffman-decoder", "crates/codec/src/huffman.rs", 4),
            (fp, "one-adaptive-range-path", "crates/codec/src/parq.rs", 4),
            (fp, "one-csv-record-form", "crates/core/src/ingest.rs", 3),
            (fp, "one-code-width", "crates/core/src/materialize.rs", 4),
            (fp, "one-head-path", "crates/nn/src/autoencoder.rs", 4),
            (fp, "no-fused-multiply-add", "crates/nn/src/mat.rs", 4),
            (fp, "one-kernel-body", "crates/nn/src/simd.rs", 3),
            (fp, "one-categorical-form", "crates/table/src/column.rs", 5),
        ]
    );
    // A new entry needs a fixture that trips it.
    for forbid in &cfg.forbids {
        assert!(
            got.iter().any(|g| g.1 == forbid.name),
            "[forbid.{}] has no fixture in tests/fixtures/forbid",
            forbid.name
        );
    }
}

#[test]
fn comments_strings_and_test_items_never_trip_a_forbid() {
    let (_, findings) = lint_forbid_fixtures();
    // `quoted.rs` names `mul_add`, `ds_simd`, `dispatch` and
    // `target_feature` in doc comments, a plain comment and a string
    // literal, and calls `mul_add` in a `#[cfg(test)]` fn.
    assert_eq!(rule_lines(&findings, "crates/codec/src/quoted.rs"), vec![]);
}
