//! The lexer, the test-region finder, the pattern parser and every rule
//! must never panic, whatever bytes they are fed: ds-lint runs over every
//! file in the workspace, including ones mid-edit, so "malformed input" is
//! a normal state.

use std::sync::OnceLock;

use proptest::prelude::*;

use ds_lint::config::Config;
use ds_lint::rules::{check_file, Pattern};

/// A config whose rules all apply to the fuzzed path (an empty `[rule]`
/// table scopes each one to every path), with a `[forbid.*]` entry
/// holding every pattern shape: exact tokens, globs, a literal.
const FUZZ_TOML: &str = r##"
[scan]
include = ["crates/*/src"]

[forbid.fuzz]
tokens = ["*x*", "*", ".lock(&mut", "fn *", "#[cfg(test)]", '"str"', "*len>>", "0x1f"]
reason = "fuzz"
"##;

/// The fuzz config, and the repo's own `lint.toml` (whose codec-scoped
/// forbids apply to the fuzzed path).
fn configs() -> &'static [Config; 2] {
    static CONFIGS: OnceLock<[Config; 2]> = OnceLock::new();
    CONFIGS.get_or_init(|| {
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
        let repo = std::fs::read_to_string(repo).expect("repo lint.toml");
        [
            Config::parse(FUZZ_TOML).expect("fuzz config parses"),
            Config::parse(&repo).expect("repo lint.toml parses"),
        ]
    })
}

/// Parses `src` as a pattern, then runs every rule over it under each
/// config (`check_file` lexes it and finds its test regions first).
fn analyze_arbitrary(src: &str) {
    let _ = Pattern::parse(src);
    for cfg in configs() {
        let _ = check_file("crates/codec/src/fuzz.rs", src, cfg);
    }
}

/// Fragments that look like Rust — keywords, brackets, operators — so
/// arbitrary orderings reach far deeper rule states than raw noise.
const FRAGMENTS: &[&str] = &[
    "fn",
    "impl",
    "pub",
    "let",
    "if",
    "match",
    "for",
    "in",
    "return",
    "unsafe",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    "<<",
    ">>",
    "::",
    "->",
    ";",
    ",",
    ".",
    "=",
    "+",
    "*",
    "as",
    "usize",
    "x",
    "len",
    "Type",
    "self",
    "&mut",
    "'a",
    "\"str\"",
    "0x1f",
    "//c",
    "lock",
    "drop",
    "parallel_for",
    "HashMap",
    "iter",
    "#",
    "target_feature",
    "thread",
    "current",
    "// ds-lint: allow(",
    "#[cfg(test)]",
    "cfg",
    "test",
    "mod",
    "const",
    "static",
    "use",
    "pub(crate)",
    "*",
    "mul_add",
    "ds_simd",
    "\"aarch64\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise: arbitrary bytes, lossily decoded.
    #[test]
    fn rules_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400)
    ) {
        analyze_arbitrary(&String::from_utf8_lossy(&bytes));
    }

    /// Structured noise: Rust-ish fragments glued in arbitrary orders.
    #[test]
    fn rules_never_panic_on_rusty_fragments(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..120)
    ) {
        let src: Vec<&str> = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        analyze_arbitrary(&src.join(" "));
    }

    /// Byte-mangled real source: start from a valid item, truncate at an
    /// arbitrary point, and flip arbitrary bytes — unbalanced brackets
    /// and split multi-byte sequences included.
    #[test]
    fn rules_never_panic_on_mangled_source(
        cut in 0usize..320,
        positions in prop::collection::vec(0usize..320, 0..8),
        values in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let base = "impl Reader { #[cfg(test)] fn t() { x.mul_add(1.0, 2.0); }\n\
                    pub fn read<T: Copy>(&mut self, n: usize) -> Vec<T> {\n\
                        let g = self.m.lock().unwrap();\n\
                        let len = self.read_varint_usize() + n;\n\
                        if len > n { return Vec::new(); }\n\
                        drop(g); Vec::with_capacity(len as usize)\n\
                    } }\n";
        let mut bytes = base.as_bytes().to_vec();
        bytes.truncate(cut.min(bytes.len()));
        for (&pos, &val) in positions.iter().zip(&values) {
            if !bytes.is_empty() {
                let p = pos % bytes.len();
                bytes[p] = val;
            }
        }
        let src = String::from_utf8_lossy(&bytes);
        analyze_arbitrary(&src);
    }
}
