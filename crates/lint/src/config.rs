//! `lint.toml` loading — a minimal TOML-subset parser (std-only).
//!
//! The supported grammar covers exactly what the checker needs:
//!
//! ```toml
//! [scan]
//! include = ["crates/*/src"]
//!
//! [rule.panic-free-decode]
//! paths = ["crates/codec/src"]
//! exclude = ["crates/codec/src/generated.rs"]
//! ```
//!
//! Section headers, string values, and arrays of strings. Anything else
//! (inline tables, multi-line strings, numbers) is a configuration error —
//! the parser fails loudly rather than guessing.

use std::collections::BTreeMap;

/// Per-rule path scoping.
#[derive(Debug, Default, Clone)]
pub struct RuleConfig {
    /// Path prefixes (repo-relative, `/`-separated) the rule applies to.
    /// Empty means the rule applies to every scanned file.
    pub paths: Vec<String>,
    /// Path prefixes excluded from the rule even when `paths` matches.
    pub exclude: Vec<String>,
}

/// Parsed `lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Directory patterns to scan (each segment either literal or `*`).
    pub include: Vec<String>,
    /// Path prefixes to skip entirely.
    pub exclude: Vec<String>,
    /// Rule name → scoping. Rules absent from the map run everywhere.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Parses the TOML subset; returns a human-readable error with the
    /// offending line number on malformed input.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("lint.toml:{lineno}: unterminated section header"))?
                    .trim();
                if name.is_empty() {
                    return Err(format!("lint.toml:{lineno}: empty section name"));
                }
                section = Some(name.to_string());
                if let Some(rule) = name.strip_prefix("rule.") {
                    cfg.rules.entry(rule.to_string()).or_default();
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = value`"))?;
            let key = key.trim();
            let values = parse_string_or_array(value.trim())
                .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
            match section.as_deref() {
                Some("scan") => match key {
                    "include" => cfg.include = values,
                    "exclude" => cfg.exclude = values,
                    other => return Err(format!("lint.toml:{lineno}: unknown scan key `{other}`")),
                },
                Some(s) if s.starts_with("rule.") => {
                    let rule = s["rule.".len()..].to_string();
                    let entry = cfg.rules.entry(rule).or_default();
                    match key {
                        "paths" => entry.paths = values,
                        "exclude" => entry.exclude = values,
                        other => {
                            return Err(format!("lint.toml:{lineno}: unknown rule key `{other}`"))
                        }
                    }
                }
                Some(other) => {
                    return Err(format!("lint.toml:{lineno}: unknown section `{other}`"))
                }
                None => {
                    return Err(format!("lint.toml:{lineno}: key outside any section"));
                }
            }
        }
        if cfg.include.is_empty() {
            return Err("lint.toml: [scan] include must list at least one pattern".to_string());
        }
        Ok(cfg)
    }

    /// True when `rule` applies to the (repo-relative, `/`-separated)
    /// `path`: the rule has no scoping, or a `paths` prefix matches and no
    /// `exclude` prefix does.
    pub fn rule_applies(&self, rule: &str, path: &str) -> bool {
        match self.rules.get(rule) {
            None => true,
            Some(rc) => {
                let included =
                    rc.paths.is_empty() || rc.paths.iter().any(|p| path_has_prefix(path, p));
                included && !rc.exclude.iter().any(|p| path_has_prefix(path, p))
            }
        }
    }

    /// True when `path` is excluded from scanning entirely.
    pub fn scan_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(path, p))
    }
}

/// Prefix match at path-component granularity: `crates/codec/src` matches
/// `crates/codec/src/lib.rs` but not `crates/codec/src-old/lib.rs`.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    match path.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

/// True when `path` matches `pattern`, where each `/`-segment of the
/// pattern is either a literal or `*` (one segment), and a matching
/// pattern also matches everything beneath it.
pub fn pattern_matches_dir(path: &str, pattern: &str) -> bool {
    let mut p_segs = path.split('/');
    for pat in pattern.split('/') {
        match p_segs.next() {
            Some(seg) if pat == "*" || pat == seg => {}
            _ => return false,
        }
    }
    true
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string_or_array(value: &str) -> Result<Vec<String>, String> {
    if let Some(inner) = value.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?;
        let mut out = Vec::new();
        for item in split_top_level_commas(inner) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            out.push(parse_string(item)?);
        }
        Ok(out)
    } else {
        Ok(vec![parse_string(value)?])
    }
}

fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn parse_string(s: &str) -> Result<String, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{s}`"))?;
    if inner.contains('\\') {
        return Err("escape sequences are not supported in lint.toml strings".to_string());
    }
    Ok(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[scan]
include = ["crates/*/src"]
exclude = ["crates/bench/src/experiments.rs"]

[rule.panic-free-decode]
paths = ["crates/codec/src", "crates/shard/src"]

[rule.no-wallclock-nondeterminism]
paths = ["crates"]
exclude = ["crates/bench", "crates/cli"]
"#;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.include, vec!["crates/*/src"]);
        assert_eq!(cfg.rules.len(), 2);
        assert_eq!(
            cfg.rules["panic-free-decode"].paths,
            vec!["crates/codec/src", "crates/shard/src"]
        );
    }

    #[test]
    fn rule_scoping() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert!(cfg.rule_applies("panic-free-decode", "crates/codec/src/parq.rs"));
        assert!(!cfg.rule_applies("panic-free-decode", "crates/nn/src/mat.rs"));
        // Unknown rules apply everywhere (scoped only if configured).
        assert!(cfg.rule_applies("unsafe-contract", "crates/nn/src/mat.rs"));
        // Excludes beat includes.
        assert!(cfg.rule_applies("no-wallclock-nondeterminism", "crates/exec/src/lib.rs"));
        assert!(!cfg.rule_applies("no-wallclock-nondeterminism", "crates/bench/src/lib.rs"));
    }

    #[test]
    fn prefix_match_is_component_wise() {
        assert!(path_has_prefix(
            "crates/codec/src/lib.rs",
            "crates/codec/src"
        ));
        assert!(path_has_prefix("crates/codec/src", "crates/codec/src"));
        assert!(!path_has_prefix(
            "crates/codec/src-old/lib.rs",
            "crates/codec/src"
        ));
    }

    #[test]
    fn dir_pattern_matching() {
        assert!(pattern_matches_dir("crates/codec/src", "crates/*/src"));
        assert!(pattern_matches_dir(
            "crates/codec/src/sub/x.rs",
            "crates/*/src"
        ));
        assert!(!pattern_matches_dir("crates/codec/tests", "crates/*/src"));
        assert!(!pattern_matches_dir("crates", "crates/*/src"));
    }

    #[test]
    fn malformed_inputs_error_with_line() {
        assert!(Config::parse("[scan]\ninclude = [\"a\"\n").is_err());
        assert!(Config::parse("key = \"v\"\n").is_err());
        assert!(Config::parse("[scan]\nbogus = \"v\"\n").is_err());
        let err = Config::parse("[scan]\ninclude = 3\n").unwrap_err();
        assert!(err.contains("lint.toml:2"), "{err}");
        // Missing include is a hard error.
        assert!(Config::parse("[scan]\n").is_err());
    }
}
