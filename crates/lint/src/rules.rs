//! The rule engine: nine lexical invariant checks plus suppression
//! handling. See DESIGN.md §3c for the rationale behind each rule and the
//! exemption policy.

use crate::config::{Config, Forbid};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::Finding;

/// Rule: no panicking constructs or unchecked indexing in decode modules.
pub const PANIC_FREE: &str = "panic-free-decode";
/// Rule: `+`/`*` on length-like variables must be checked arithmetic.
pub const CHECKED_ARITH: &str = "checked-untrusted-arith";
/// Rule: no raw `as usize/u32/u64` casts of length-like values.
pub const RAW_CAST: &str = "no-raw-cast-len";
/// Rule: no iteration over hash-ordered collections in archive-writing
/// code.
pub const DET_ITER: &str = "deterministic-iteration";
/// Rule: no wall-clock or thread-identity reads outside bench/cli.
pub const WALLCLOCK: &str = "no-wallclock-nondeterminism";
/// Rule: every `unsafe` block/impl carries a `// SAFETY:` comment.
pub const UNSAFE_CONTRACT: &str = "unsafe-contract";
/// Rule: `#[target_feature]` kernels stay unsafe, private, and dispatched.
pub const TARGET_FEATURE_GATE: &str = "target-feature-gate";
/// Rule: no `let`-bound lock guard live across a pool fan-out or blocking
/// I/O call.
pub const LOCK_POOL: &str = "lock-across-pool";
/// Rule: no token sequence a `[forbid.<name>]` section of `lint.toml`
/// names, in that section's paths.
pub const FORBIDDEN: &str = "forbidden-pattern";
/// Meta-rule: malformed or reason-less suppression comments.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// All rules with one-line descriptions (for `--list-rules`).
pub const RULES: &[(&str, &str)] = &[
    (
        PANIC_FREE,
        "decode modules must not unwrap/expect/panic!/unreachable! or index slices unchecked",
    ),
    (
        CHECKED_ARITH,
        "`+`/`*` on length-like variables in decode modules must be checked_add/checked_mul",
    ),
    (
        RAW_CAST,
        "`as usize/u32/u64` on length-like values must go through try_into or a checked bound",
    ),
    (
        DET_ITER,
        "no iteration over HashMap/HashSet in archive-writing crates unless the result is sorted",
    ),
    (
        WALLCLOCK,
        "SystemTime::now / Instant::now / thread::current() are banned outside bench and cli",
    ),
    (
        UNSAFE_CONTRACT,
        "every `unsafe` block or impl needs a `// SAFETY:` comment on the preceding lines",
    ),
    (
        TARGET_FEATURE_GATE,
        "`#[target_feature]` fns must be unsafe, non-pub, and live behind a runtime detection gate",
    ),
    (
        LOCK_POOL,
        "a `let` bound lock guard must be dropped before a pool fan-out or blocking I/O call",
    ),
    (
        FORBIDDEN,
        "no token sequence a `[forbid.<name>]` section of lint.toml names, in that section's paths",
    ),
    (
        BAD_SUPPRESSION,
        "`ds-lint: allow(...)` comments must name rules and carry a `-- <reason>`",
    ),
];

/// Identifier segments that mark a value as length-like (untrusted sizes,
/// counts, and offsets decoded from headers).
const LEN_SEGMENTS: &[&str] = &["len", "count", "rows", "off", "size"];

/// Keywords that can precede `[` without forming an index expression.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "do", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// Iteration methods whose order is hash-seed dependent on hash maps/sets.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers that mark a hash-iteration result as re-ordered within the
/// same statement (sorted, or collected into an ordered container).
const SORTERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];

/// Checks one file and returns its findings, suppressions already applied.
pub fn check_file(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = &lex(src);
    let tests = TestRegions::find(lexed);
    let suppressions = collect_suppressions(lexed, &tests);
    let mut raw: Vec<Finding> = Vec::new();
    let mk = |line: u32, col: u32, rule: &'static str, message: String| Finding {
        file: rel_path.to_string(),
        line,
        col,
        rule,
        message,
    };

    if cfg.rule_applies(PANIC_FREE, rel_path) {
        check_panic_free(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(CHECKED_ARITH, rel_path) {
        check_arith(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(RAW_CAST, rel_path) {
        check_raw_cast(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(DET_ITER, rel_path) {
        check_det_iter(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(WALLCLOCK, rel_path) {
        check_wallclock(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(UNSAFE_CONTRACT, rel_path) {
        check_unsafe_contract(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(TARGET_FEATURE_GATE, rel_path) {
        check_target_feature_gate(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(LOCK_POOL, rel_path) {
        check_lock_pool(lexed, &mut raw, &mk);
    }
    if cfg.rule_applies(FORBIDDEN, rel_path) {
        for forbid in cfg.forbids.iter().filter(|f| f.scope.applies(rel_path)) {
            check_forbidden(lexed, forbid, &mut raw, &mk);
        }
    }

    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !tests.contains(f.line, f.col))
        .filter(|f| !suppressions.silences(f.line, f.rule))
        .collect();
    if cfg.rule_applies(BAD_SUPPRESSION, rel_path) {
        for bad in &suppressions.malformed {
            out.push(mk(bad.line, 1, BAD_SUPPRESSION, bad.message.clone()));
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// A `ds-lint:` comment that does not follow the grammar (reported by the
/// `bad-suppression` meta-rule).
struct MalformedSuppression {
    /// 1-based line of the comment.
    line: u32,
    /// What is wrong with it.
    message: String,
}

/// All suppression comments of one file, parsed.
struct Suppressions {
    /// (line, rule) pairs silenced by a well-formed allow with a reason.
    allows: Vec<(u32, String)>,
    /// Grammar violations.
    malformed: Vec<MalformedSuppression>,
}

impl Suppressions {
    /// True when an allow with a reason targets `line` for `rule`.
    fn silences(&self, line: u32, rule: &str) -> bool {
        self.allows.iter().any(|(l, r)| *l == line && r == rule)
    }
}

/// Lines whose significant tokens all belong to attribute spans
/// (`#[...]` / `#![...]`). A standalone suppression comment skips over
/// these to reach its real target, so `// ds-lint: allow(...)` above
/// `#[inline]` still silences the function underneath.
fn attribute_only_lines(lexed: &Lexed) -> Vec<bool> {
    let t = &lexed.toks;
    let mut in_attr = vec![false; t.len()];
    let mut i = 0usize;
    while i < t.len() {
        let opens = t[i].is_punct("#")
            && (t.get(i + 1).is_some_and(|n| n.is_punct("["))
                || (t.get(i + 1).is_some_and(|n| n.is_punct("!"))
                    && t.get(i + 2).is_some_and(|n| n.is_punct("["))));
        if opens {
            let open = if t[i + 1].is_punct("[") { i + 1 } else { i + 2 };
            let close = matching_bracket(t, open);
            for slot in in_attr.iter_mut().take(close.min(t.len() - 1) + 1).skip(i) {
                *slot = true;
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    let mut attr_only = vec![false; lexed.code_lines.len()];
    let mut has_other = vec![false; lexed.code_lines.len()];
    for (k, tok) in t.iter().enumerate() {
        let l = tok.line as usize;
        if l >= attr_only.len() {
            continue;
        }
        if in_attr[k] {
            attr_only[l] = true;
        } else {
            has_other[l] = true;
        }
    }
    for (a, o) in attr_only.iter_mut().zip(&has_other) {
        *a = *a && !o;
    }
    attr_only
}

/// Parses every `ds-lint:` comment. Grammar:
/// `// ds-lint: allow(rule-a, rule-b) -- reason text`
/// The reason is mandatory; an allow without one does not suppress and is
/// itself reported. A trailing comment silences its own line; a comment on
/// a line of its own silences the next line that carries non-attribute
/// code (doc comments and `#[...]` attributes between the allow and its
/// item are skipped over).
fn collect_suppressions(lexed: &Lexed, tests: &TestRegions) -> Suppressions {
    let mut sup = Suppressions {
        allows: Vec::new(),
        malformed: Vec::new(),
    };
    let attr_only = attribute_only_lines(lexed);
    for c in &lexed.comments {
        if tests.contains(c.line, c.col) {
            continue;
        }
        let target_line = if lexed.line_has_code(c.line) {
            c.line
        } else {
            // Standalone comment: applies to the next code line that is
            // not attribute-only (bounded scan; files end, so this
            // terminates).
            let mut l = c.line + 1;
            while (l as usize) < lexed.code_lines.len()
                && (!lexed.line_has_code(l) || attr_only.get(l as usize).copied().unwrap_or(false))
            {
                l += 1;
            }
            l
        };
        let Some(pos) = c.text.find("ds-lint:") else {
            continue;
        };
        let directive = c.text[pos + "ds-lint:".len()..].trim();
        let Some(rest) = directive.strip_prefix("allow") else {
            sup.malformed.push(MalformedSuppression {
                line: c.line,
                message: "ds-lint comment is not an `allow(<rule>) -- <reason>` directive"
                    .to_string(),
            });
            continue;
        };
        let rest = rest.trim_start();
        let Some((inside, after)) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
            sup.malformed.push(MalformedSuppression {
                line: c.line,
                message: "malformed allow list: expected `allow(<rule>[, <rule>])`".to_string(),
            });
            continue;
        };
        let rules: Vec<String> = inside
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let known = |r: &String| RULES.iter().any(|(name, _)| name == r);
        if rules.is_empty() || !rules.iter().all(known) {
            sup.malformed.push(MalformedSuppression {
                line: c.line,
                message: format!("allow list names an unknown rule: `{inside}`"),
            });
            continue;
        }
        let reason = after
            .trim_start()
            .strip_prefix("--")
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            sup.malformed.push(MalformedSuppression {
                line: c.line,
                message: "suppression is missing its mandatory `-- <reason>`".to_string(),
            });
            continue;
        }
        for rule in rules {
            sup.allows.push((target_line, rule));
        }
    }
    sup
}

// ---------------------------------------------------------------------------
// Test regions
// ---------------------------------------------------------------------------

/// The source spans of one file's `#[cfg(test)]` items, where no rule
/// applies (tests may unwrap, and reference implementations may keep the
/// code a rule forbids). A `#[cfg(test)]` attribute covers the item it is
/// attached to, from that item's first outer attribute through its last
/// token: the `}` that closes its body, or the `;` or `,` that ends it.
/// The attribute may sit anywhere: on a module, on a fn inside an `impl`,
/// on a field. Only the exact `#[cfg(test)]` spelling counts; an inner
/// `#![cfg(test)]` marks nothing, so such a file is checked in full.
pub struct TestRegions {
    /// Inclusive `(line, col)` start and end of each test item.
    spans: Vec<((u32, u32), (u32, u32))>,
}

impl TestRegions {
    /// Finds every `#[cfg(test)]` item of `lexed`.
    pub fn find(lexed: &Lexed) -> TestRegions {
        let t = &lexed.toks;
        let pos = |k: usize| (t[k].line, t[k].col);
        let mut spans = Vec::new();
        for i in 0..t.len() {
            let is_cfg_test = t[i].is_punct("#")
                && t.get(i + 1).is_some_and(|n| n.is_punct("["))
                && t.get(i + 2).is_some_and(|n| n.is_ident("cfg"))
                && t.get(i + 3).is_some_and(|n| n.is_punct("("))
                && t.get(i + 4).is_some_and(|n| n.is_ident("test"))
                && t.get(i + 5).is_some_and(|n| n.is_punct(")"))
                && t.get(i + 6).is_some_and(|n| n.is_punct("]"));
            if is_cfg_test {
                spans.push((pos(item_start(t, i)), pos(item_end(t, i))));
            }
        }
        TestRegions { spans }
    }

    /// True when the token or comment at (`line`, `col`) lies in a test
    /// item.
    pub fn contains(&self, line: u32, col: u32) -> bool {
        self.spans
            .iter()
            .any(|&(start, end)| start <= (line, col) && (line, col) <= end)
    }
}

/// Index of the first outer attribute of the run that holds the attribute
/// starting at `attr` (`#[allow(..)] #[cfg(test)] fn` starts at `#[allow`).
fn item_start(t: &[Tok], attr: usize) -> usize {
    let mut start = attr;
    while start >= 2 && t[start - 1].is_punct("]") {
        let mut depth = 0usize;
        let mut open = None;
        for j in (0..start).rev() {
            if t[j].is_punct("]") {
                depth += 1;
            } else if t[j].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    open = Some(j);
                    break;
                }
            }
        }
        match open {
            Some(j) if j >= 1 && t[j - 1].is_punct("#") => start = j - 1,
            _ => break,
        }
    }
    start
}

/// Index of the last token of the item whose attribute starts at `attr`:
/// past the item's outer attributes, the first `;` or `,` at bracket depth
/// 0, or the `}` that closes the first brace group opened at depth 0. A
/// `let`, `use`, `static`, `type` or `const NAME` item ends only at its
/// `;` (its initializer may hold braces). An unmatched closer ends the item
/// just before it, and an unterminated one runs to the end of the file.
fn item_end(t: &[Tok], attr: usize) -> usize {
    let mut k = attr;
    while t.get(k).is_some_and(|n| n.is_punct("#")) && t.get(k + 1).is_some_and(|n| n.is_punct("["))
    {
        k = matching_bracket(t, k + 1) + 1;
    }
    let mut head = k;
    while t.get(head).is_some_and(|n| n.is_ident("pub")) {
        head += 1;
        if t.get(head).is_some_and(|n| n.is_punct("(")) {
            head = t[head..]
                .iter()
                .position(|n| n.is_punct(")"))
                .map_or(t.len(), |p| head + p + 1);
        }
    }
    let ends_at_semicolon = t.get(head).is_some_and(|n| {
        n.is_ident("let")
            || n.is_ident("use")
            || n.is_ident("static")
            || n.is_ident("type")
            || (n.is_ident("const")
                && t.get(head + 1)
                    .is_some_and(|m| m.kind == TokKind::Ident && !is_keyword(&m.text)))
    });
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().skip(k) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j.saturating_sub(1).max(attr);
                }
                depth -= 1;
                if depth == 0 && tok.text == "}" && !ends_at_semicolon {
                    return j;
                }
            }
            ";" | "," if depth == 0 => return j,
            _ => {}
        }
    }
    t.len() - 1
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// True when the identifier names a length-like value: any `_`-separated
/// segment contains one of [`LEN_SEGMENTS`]. ALL_CAPS identifiers are
/// compile-time constants, not untrusted input, and primitive type names
/// (`usize` contains "size") are not values at all — both are exempt.
fn is_len_like(name: &str) -> bool {
    if name
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        return false;
    }
    if matches!(name, "usize" | "isize") {
        return false;
    }
    let lower = name.to_ascii_lowercase();
    lower
        .split('_')
        .any(|seg| LEN_SEGMENTS.iter().any(|k| seg.contains(k)))
}

/// Index of the `]` matching the `[` at `open` (or `toks.len()` if
/// unterminated).
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Identifiers bound to fixed-size arrays (`[T; N]` types or `[expr; n]`
/// repeat expressions) in this file, including simple `let a = b;` copies
/// of already-known arrays. Indexing these is exempt from the slice-index
/// check: their length is a compile-time constant and the indices in this
/// workspace are loop-bounded, so flagging them would bury the real
/// findings (untrusted-length slices) in noise.
fn fixed_size_arrays(toks: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_punct("[") {
            continue;
        }
        let close = matching_bracket(toks, i);
        if close >= toks.len() {
            continue;
        }
        // Top-level `;` inside the brackets ⇒ array type or repeat expr.
        let mut depth = 0usize;
        let mut has_semi = false;
        for t in &toks[i + 1..close] {
            match t.text.as_str() {
                "[" | "(" => depth += 1,
                "]" | ")" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => has_semi = true,
                _ => {}
            }
        }
        if !has_semi || i < 2 {
            continue;
        }
        let before = &toks[i - 1];
        if before.is_punct("=") || before.is_punct(":") {
            let name = &toks[i - 2];
            if name.kind == TokKind::Ident && !is_keyword(&name.text) {
                names.push(name.text.clone());
            }
        }
    }
    // One propagation pass for `let [mut] a = b;` copies of known arrays.
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_ident("mut") {
            j += 1;
        }
        if j + 3 < toks.len()
            && toks[j].kind == TokKind::Ident
            && toks[j + 1].is_punct("=")
            && toks[j + 2].kind == TokKind::Ident
            && toks[j + 3].is_punct(";")
            && names.contains(&toks[j + 2].text)
        {
            names.push(toks[j].text.clone());
        }
    }
    names
}

// ---------------------------------------------------------------------------
// panic-free-decode
// ---------------------------------------------------------------------------

fn check_panic_free(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    let arrays = fixed_size_arrays(t);
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.kind == TokKind::Ident {
            let next_is = |s: &str| t.get(i + 1).is_some_and(|n| n.is_punct(s));
            let prev_is_dot = i > 0 && t[i - 1].is_punct(".");
            match tok.text.as_str() {
                "unwrap" | "expect" if prev_is_dot && next_is("(") => {
                    out.push(mk(
                        tok.line,
                        tok.col,
                        PANIC_FREE,
                        format!(".{}() may panic in a decode module", tok.text),
                    ));
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if next_is("!") => {
                    out.push(mk(
                        tok.line,
                        tok.col,
                        PANIC_FREE,
                        format!(
                            "{}! is unreachable-by-assumption in a decode module",
                            tok.text
                        ),
                    ));
                }
                _ => {}
            }
        }
        if tok.is_punct("[") && i > 0 {
            let prev = &t[i - 1];
            let indexable = match prev.kind {
                TokKind::Ident => !is_keyword(&prev.text),
                TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                _ => false,
            };
            if !indexable {
                continue;
            }
            if prev.kind == TokKind::Ident && arrays.contains(&prev.text) {
                continue; // fixed-size array — length is a compile-time constant
            }
            let close = matching_bracket(t, i);
            let content = &t[i + 1..close.min(t.len())];
            if index_is_exempt(content) {
                continue;
            }
            let what = if content
                .iter()
                .any(|c| c.is_punct("..") || c.is_punct("..="))
            {
                "slicing"
            } else {
                "indexing"
            };
            out.push(mk(
                tok.line,
                tok.col,
                PANIC_FREE,
                format!("unchecked {what} may panic in a decode module; use .get()"),
            ));
        }
    }
}

/// Exemptions for index expressions that cannot (or almost cannot) be out
/// of bounds: a lone integer literal, a masked index (`x & 0xFF`), or a
/// ring index (`x % CONST` / `x % 16`).
fn index_is_exempt(content: &[Tok]) -> bool {
    if content.len() == 1 && content[0].kind == TokKind::Literal {
        return true;
    }
    for w in content.windows(2) {
        let op_then_bound = |op: &str| {
            w[0].is_punct(op)
                && (w[1].kind == TokKind::Literal
                    || (w[1].kind == TokKind::Ident
                        && w[1]
                            .text
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c == '_')))
        };
        if op_then_bound("&") || op_then_bound("%") {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// checked-untrusted-arith
// ---------------------------------------------------------------------------

fn check_arith(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    for i in 1..t.len() {
        let tok = &t[i];
        if !(tok.is_punct("+") || tok.is_punct("*")) {
            continue;
        }
        let prev = &t[i - 1];
        let binary = match prev.kind {
            TokKind::Ident => !is_keyword(&prev.text),
            TokKind::Literal => true,
            TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
            _ => false,
        };
        if !binary {
            continue;
        }
        let mut culprit: Option<&str> = None;
        if prev.kind == TokKind::Ident && is_len_like(&prev.text) {
            culprit = Some(&prev.text);
        }
        if culprit.is_none() {
            // Scan the right operand's leading path (`&`, `self.`, `a.b`)
            // for a length-like identifier that is not a method call.
            let mut j = i + 1;
            let mut hops = 0;
            while j < t.len() && hops < 6 {
                let r = &t[j];
                if r.is_punct("&") || r.is_punct(".") || r.is_ident("self") {
                    j += 1;
                    hops += 1;
                    continue;
                }
                if r.kind == TokKind::Ident && !is_keyword(&r.text) {
                    let is_call = t.get(j + 1).is_some_and(|n| n.is_punct("("));
                    if !is_call && is_len_like(&r.text) {
                        culprit = Some(&r.text);
                    }
                    // A plain ident may be a path segment (`a.b`); keep
                    // walking only across `.` which the loop handles.
                    j += 1;
                    hops += 1;
                    if t.get(j).is_some_and(|n| n.is_punct(".")) {
                        continue;
                    }
                }
                break;
            }
        }
        if let Some(name) = culprit {
            out.push(mk(
                tok.line,
                tok.col,
                CHECKED_ARITH,
                format!(
                    "unchecked `{}` on length-like `{name}`; use checked_{}",
                    tok.text,
                    if tok.text == "+" { "add" } else { "mul" },
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-raw-cast-len
// ---------------------------------------------------------------------------

fn check_raw_cast(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    for i in 1..t.len().saturating_sub(1) {
        if !t[i].is_ident("as") {
            continue;
        }
        let target = &t[i + 1];
        if !(target.is_ident("usize") || target.is_ident("u32") || target.is_ident("u64")) {
            continue;
        }
        let prev = &t[i - 1];
        if prev.is_punct("?") {
            out.push(mk(
                t[i].line,
                t[i].col,
                RAW_CAST,
                format!(
                    "raw `as {}` on a fallible read result; use try_from with a typed error",
                    target.text
                ),
            ));
        } else if prev.kind == TokKind::Ident && is_len_like(&prev.text) {
            out.push(mk(
                t[i].line,
                t[i].col,
                RAW_CAST,
                format!(
                    "raw `as {}` on length-like `{}`; use try_from or an annotated bound check",
                    target.text, prev.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// deterministic-iteration
// ---------------------------------------------------------------------------

/// Identifiers bound to `HashMap`/`HashSet` values in this file: `let`
/// bindings, typed fields, and typed parameters. Heuristic (a `Vec` *of*
/// maps is recorded under the outer name too), but iteration over such a
/// name is exactly what the rule wants a human to look at.
fn hash_idents(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back over type-position tokens to the `:`/`=` introducer.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            let type_pos = p.is_punct("::")
                || p.is_punct("<")
                || p.is_punct("&")
                || (p.kind == TokKind::Ident && !is_keyword(&p.text));
            if !type_pos {
                break;
            }
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let intro = &toks[j - 1];
        if !(intro.is_punct(":") || intro.is_punct("=")) || j < 2 {
            continue;
        }
        let name = &toks[j - 2];
        if name.kind == TokKind::Ident && !is_keyword(&name.text) {
            names.push(name.text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

fn check_det_iter(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    let hashes = hash_idents(t);
    if hashes.is_empty() {
        return;
    }
    for i in 0..t.len() {
        // `for pat in <expr-with-hash-ident> {`
        if t[i].is_ident("for") {
            let mut j = i + 1;
            while j < t.len() && !t[j].is_ident("in") {
                j += 1;
            }
            let mut depth = 0usize;
            let mut k = j + 1;
            while k < t.len() {
                let tk = &t[k];
                match tk.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => break,
                    _ => {}
                }
                if tk.kind == TokKind::Ident && hashes.contains(&tk.text) {
                    out.push(mk(
                        t[i].line,
                        t[i].col,
                        DET_ITER,
                        format!(
                            "iterating hash-ordered `{}` in a for loop; order is seed-dependent",
                            tk.text
                        ),
                    ));
                    break;
                }
                k += 1;
            }
        }
        // `<hash>.iter() …` without a sort in the same statement.
        if t[i].kind == TokKind::Ident
            && hashes.contains(&t[i].text)
            && t.get(i + 1).is_some_and(|n| n.is_punct("."))
            && t.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && t.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            let sorted_same_stmt = t[i + 3..]
                .iter()
                .take_while(|tk| !tk.is_punct(";"))
                .take(160)
                .any(|tk| tk.kind == TokKind::Ident && SORTERS.contains(&tk.text.as_str()));
            if !sorted_same_stmt {
                out.push(mk(
                    t[i + 2].line,
                    t[i + 2].col,
                    DET_ITER,
                    format!(
                        ".{}() on hash-ordered `{}` without a same-statement sort",
                        t[i + 2].text,
                        t[i].text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-wallclock-nondeterminism
// ---------------------------------------------------------------------------

fn check_wallclock(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    for i in 0..t.len() {
        if (t[i].is_ident("Instant") || t[i].is_ident("SystemTime"))
            && t.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && t.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            out.push(mk(
                t[i].line,
                t[i].col,
                WALLCLOCK,
                format!("{}::now() makes output time-dependent", t[i].text),
            ));
        }
        // Any use of the current thread's handle (id, name, park):
        // every one of them names which worker ran the code.
        if t[i].is_ident("thread")
            && t.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && t.get(i + 2).is_some_and(|n| n.is_ident("current"))
            && t.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            out.push(mk(
                t[i].line,
                t[i].col,
                WALLCLOCK,
                "thread::current() makes output scheduling-dependent".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-contract
// ---------------------------------------------------------------------------

fn check_unsafe_contract(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    for i in 0..t.len() {
        if !t[i].is_ident("unsafe") {
            continue;
        }
        let next = t.get(i + 1);
        let is_block = next.is_some_and(|n| n.is_punct("{"));
        let is_impl = next.is_some_and(|n| n.is_ident("impl"));
        if !is_block && !is_impl {
            continue; // `unsafe fn` declarations shift the burden to callers
        }
        if has_safety_comment(lexed, t[i].line) {
            continue;
        }
        out.push(mk(
            t[i].line,
            t[i].col,
            UNSAFE_CONTRACT,
            "unsafe without a `// SAFETY:` comment on the preceding lines".to_string(),
        ));
    }
}

// ---------------------------------------------------------------------------
// target-feature-gate
// ---------------------------------------------------------------------------

/// Identifiers whose presence marks a file as carrying a runtime dispatch
/// gate: the std detection macros, or the ds-simd dispatch layer (whose
/// `detected()` wraps them).
const GATE_MARKERS: &[&str] = &[
    "is_x86_feature_detected",
    "is_aarch64_feature_detected",
    "ds_simd",
];

/// A `#[target_feature]` fn compiles instructions the host may not have;
/// calling one on the wrong CPU is immediate UB (illegal instruction at
/// best). The workspace convention keeps such kernels honest three ways:
/// they stay `unsafe fn` (so every call site owes a SAFETY argument), stay
/// private (so no other crate can reach them around the dispatch layer),
/// and their file contains a runtime detection gate that proves the
/// feature before any call.
fn check_target_feature_gate(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    let gated = t
        .iter()
        .any(|tk| tk.kind == TokKind::Ident && GATE_MARKERS.contains(&tk.text.as_str()));
    for i in 0..t.len().saturating_sub(2) {
        if !(t[i].is_punct("#") && t[i + 1].is_punct("[") && t[i + 2].is_ident("target_feature")) {
            continue;
        }
        let close = matching_bracket(t, i + 1);
        // Walk from the attribute to its `fn`, noting the modifiers.
        let mut j = close + 1;
        let mut is_pub = false;
        let mut is_unsafe = false;
        let mut name = String::new();
        while j < t.len() && j <= close + 24 {
            if t[j].is_punct("#") && t.get(j + 1).is_some_and(|n| n.is_punct("[")) {
                j = matching_bracket(t, j + 1) + 1; // another attribute
                continue;
            }
            if t[j].is_ident("pub") {
                is_pub = true;
            } else if t[j].is_ident("unsafe") {
                is_unsafe = true;
            } else if t[j].is_ident("fn") {
                if let Some(id) = t.get(j + 1) {
                    name.clone_from(&id.text);
                }
                break;
            }
            j += 1;
        }
        if name.is_empty() {
            continue; // attribute on something other than a named fn
        }
        let (line, col) = (t[i].line, t[i].col);
        if !is_unsafe {
            out.push(mk(
                line,
                col,
                TARGET_FEATURE_GATE,
                format!("`#[target_feature]` fn `{name}` must be `unsafe fn` so every call site owes a SAFETY argument"),
            ));
        }
        if is_pub {
            out.push(mk(
                line,
                col,
                TARGET_FEATURE_GATE,
                format!("`#[target_feature]` fn `{name}` must not be `pub`; expose it through the runtime dispatch layer"),
            ));
        }
        if !gated {
            out.push(mk(
                line,
                col,
                TARGET_FEATURE_GATE,
                format!("`#[target_feature]` fn `{name}` has no runtime detection gate in this file (is_x86_feature_detected / ds_simd)"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// lock-across-pool
// ---------------------------------------------------------------------------

/// Fan-out entry points: the `ds_exec` pool's, plus ds-core's ordered
/// `sweep` over it. A task that needs a lock its spawner holds waits
/// forever, and the fixed-size pool with it.
const POOL_FNS: &[&str] = &[
    "parallel_for",
    "parallel_map",
    "parallel_map_chunks",
    "parallel_map_consume",
    "parallel_chunks_mut",
    "sweep",
];

/// Blocking I/O calls: a lock held across one stalls every other
/// connection or task contending for it.
const BLOCKING_IO: &[&str] = &[
    "write_all",
    "flush",
    "read_exact",
    "read_exact_at",
    "read_to_end",
    "read_to_string",
    "read_line",
    "accept",
];

/// Index of the name of the call that ends `toks` (`… name(args)`).
fn trailing_call(toks: &[Tok]) -> Option<usize> {
    if !toks.last()?.is_punct(")") {
        return None;
    }
    let mut depth = 0usize;
    for j in (0..toks.len()).rev() {
        if toks[j].is_punct(")") {
            depth += 1;
        } else if toks[j].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                let name = j.checked_sub(1)?;
                return (toks[name].kind == TokKind::Ident).then_some(name);
            }
        }
    }
    None
}

/// The binding a `let` at `i` gives a lock guard, if it does: the
/// initializer ends in `lock()` or `…_lock()`, optionally followed by
/// `.unwrap()`, `.expect(..)` or `.unwrap_or_else(..)`. `let _ = …`
/// drops the guard at once and binds nothing.
fn guard_binding(t: &[Tok], i: usize) -> Option<&str> {
    let mut j = i + 1;
    if t.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name = t.get(j)?;
    if name.kind != TokKind::Ident || name.text == "_" || is_keyword(&name.text) {
        return None;
    }
    // The initializer runs from the `=` to the `;` that ends the
    // statement (skipping a type annotation).
    let mut depth = 0usize;
    let mut eq = None;
    let mut end = None;
    for (k, tk) in t.iter().enumerate().skip(j + 1) {
        match tk.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return None,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 && eq.is_none() => eq = Some(k),
            ";" if depth == 0 => {
                end = Some(k);
                break;
            }
            _ => {}
        }
    }
    let init = t.get(eq? + 1..end?)?;
    let mut call = trailing_call(init)?;
    if matches!(
        init[call].text.as_str(),
        "unwrap" | "expect" | "unwrap_or_else"
    ) {
        call = trailing_call(init.get(..call.checked_sub(1)?)?)?;
    }
    let callee = init[call].text.as_str();
    (callee == "lock" || callee.ends_with("_lock")).then_some(name.text.as_str())
}

/// Tracks `let`-bound lock guards through each body: a guard lives until
/// `drop(guard)` or the end of the block that bound it. A direct call to
/// a [`POOL_FNS`] or [`BLOCKING_IO`] name while one lives is a finding.
fn check_lock_pool(
    lexed: &Lexed,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    // Live guards: (binding, brace depth of the block that bound it).
    let mut guards: Vec<(&str, usize)> = Vec::new();
    let mut depth = 0usize;
    for (i, tok) in t.iter().enumerate() {
        if tok.is_punct("{") {
            depth += 1;
        } else if tok.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|&(_, d)| d <= depth);
        } else if tok.is_ident("let") {
            if let Some(name) = guard_binding(t, i) {
                guards.push((name, depth));
            }
        } else if tok.kind == TokKind::Ident && t.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            if tok.text == "drop" {
                if let Some(arg) = t.get(i + 2) {
                    guards.retain(|&(g, _)| g != arg.text);
                }
                continue;
            }
            let what = if POOL_FNS.contains(&tok.text.as_str()) {
                "a pool fan-out"
            } else if BLOCKING_IO.contains(&tok.text.as_str()) {
                "blocking I/O"
            } else {
                continue;
            };
            if let Some((guard, _)) = guards.first() {
                out.push(mk(
                    tok.line,
                    tok.col,
                    LOCK_POOL,
                    format!(
                        "lock guard `{guard}` is live across {what} call `{}`; drop it first",
                        tok.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// forbidden-pattern
// ---------------------------------------------------------------------------

/// One token of a [`Pattern`]: matched by kind and exact text, or, for an
/// identifier holding `*`, by a glob over identifier texts.
#[derive(Debug, Clone)]
enum PatTok {
    Exact(TokKind, String),
    /// The glob's text split at each `*`.
    Glob(Vec<String>),
}

impl PatTok {
    fn new(kind: TokKind, text: String) -> PatTok {
        if kind == TokKind::Ident && text.contains('*') {
            PatTok::Glob(text.split('*').map(str::to_string).collect())
        } else {
            PatTok::Exact(kind, text)
        }
    }

    fn matches(&self, tok: &Tok) -> bool {
        match self {
            PatTok::Exact(kind, text) => tok.kind == *kind && tok.text == *text,
            PatTok::Glob(parts) => tok.kind == TokKind::Ident && glob_match(parts, &tok.text),
        }
    }
}

/// A token sequence a `[forbid.<name>]` section names. It is written as
/// Rust and lexed by the same lexer as the source, so `Vec<Vec<String>>`
/// and `Vec < Vec < String >>` are one pattern, and a string literal
/// matches only the same literal. A `*` touching an identifier makes it a
/// glob (`*mul_add*` matches every identifier containing `mul_add`).
#[derive(Debug, Clone)]
pub struct Pattern {
    /// The pattern as written in `lint.toml`.
    pub source: String,
    toks: Vec<PatTok>,
}

impl Pattern {
    /// Lexes `source` into a pattern; a pattern with no token or with a
    /// comment (which would silently drop the rest of it) is an error.
    pub fn parse(source: &str) -> Result<Pattern, String> {
        let lexed = lex(source);
        if !lexed.comments.is_empty() {
            return Err(format!("pattern `{source}` holds a comment"));
        }
        // (kind, text, end column): a `*` and an identifier that touch
        // merge into one glob.
        let mut toks: Vec<(TokKind, String, u32)> = Vec::new();
        let globbable = |kind: TokKind, text: &str| kind == TokKind::Ident || text == "*";
        for tok in lexed.toks {
            let end = tok.col + tok.text.len() as u32;
            if let Some((kind, text, last_end)) = toks.last_mut() {
                if *last_end == tok.col && globbable(*kind, text) && globbable(tok.kind, &tok.text)
                {
                    *kind = TokKind::Ident;
                    text.push_str(&tok.text);
                    *last_end = end;
                    continue;
                }
            }
            toks.push((tok.kind, tok.text, end));
        }
        if toks.is_empty() {
            return Err("a pattern must hold at least one token".to_string());
        }
        Ok(Pattern {
            source: source.to_string(),
            toks: toks
                .into_iter()
                .map(|(kind, text, _)| PatTok::new(kind, text))
                .collect(),
        })
    }

    /// True when the pattern matches `t` starting at token `i`.
    fn matches_at(&self, t: &[Tok], i: usize) -> bool {
        t.get(i..i + self.toks.len())
            .is_some_and(|window| self.toks.iter().zip(window).all(|(p, tok)| p.matches(tok)))
    }
}

/// Glob match of `text` against a pattern split at its `*`s (`parts`),
/// where each `*` matches any run, possibly empty.
fn glob_match(parts: &[String], text: &str) -> bool {
    // Most identifiers are shorter than the glob's literal text.
    if text.len() < parts.iter().map(String::len).sum() {
        return false;
    }
    let Some((first, parts)) = parts.split_first() else {
        return false;
    };
    let Some(mut rest) = text.strip_prefix(first.as_str()) else {
        return false;
    };
    let Some((last, middle)) = parts.split_last() else {
        return rest.is_empty(); // no `*`: the whole text
    };
    for part in middle {
        match rest.find(part.as_str()) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    rest.ends_with(last.as_str())
}

fn check_forbidden(
    lexed: &Lexed,
    forbid: &Forbid,
    out: &mut Vec<Finding>,
    mk: &impl Fn(u32, u32, &'static str, String) -> Finding,
) {
    let t = &lexed.toks;
    for i in 0..t.len() {
        for pattern in forbid.patterns.iter().filter(|p| p.matches_at(t, i)) {
            out.push(mk(
                t[i].line,
                t[i].col,
                FORBIDDEN,
                format!(
                    "[forbid.{}] `{}`: {}",
                    forbid.name, pattern.source, forbid.reason
                ),
            ));
        }
    }
}

/// True when the line itself or the contiguous comment-only block directly
/// above it contains `SAFETY:`.
fn has_safety_comment(lexed: &Lexed, line: u32) -> bool {
    if lexed.comments_on(line).any(|c| c.contains("SAFETY:")) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l > 0 && lexed.is_comment_only_line(l) {
        if lexed.comments_on(l).any(|c| c.contains("SAFETY:")) {
            return true;
        }
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (first, last) line of each test region of `src`.
    fn region_lines(src: &str) -> Vec<(u32, u32)> {
        TestRegions::find(&lex(src))
            .spans
            .iter()
            .map(|&((l0, _), (l1, _))| (l0, l1))
            .collect()
    }

    #[test]
    fn a_test_attribute_covers_exactly_its_item() {
        let src = "\
fn a() {}
#[allow(dead_code)]
#[cfg(test)]
#[inline]
pub(crate) fn b() {
    let _ = [1; 2];
}
fn c() {}
#[cfg(test)]
use std::fmt;
#[cfg(test)]
const K: Foo = Foo { a: 1 };
#[cfg(test)]
mod m;
struct S {
    #[cfg(test)]
    x: u8,
    y: u8,
}
fn d() {
    #[cfg(test)]
    let v = {
        1
    };
    v
}
";
        assert_eq!(
            region_lines(src),
            [(2, 7), (9, 10), (11, 12), (13, 14), (16, 17), (21, 24)]
        );
        let tests = TestRegions::find(&lex(src));
        assert!(!tests.contains(1, 1) && !tests.contains(8, 1) && !tests.contains(18, 5));
        assert!(tests.contains(6, 9));
    }

    #[test]
    fn an_unterminated_or_trailing_attribute_stays_in_bounds() {
        assert_eq!(region_lines("fn f() {\n#[cfg(test)]\n}\n"), [(2, 2)]);
        assert_eq!(region_lines("#[cfg(test)]\nmod m {\nfn x() {}\n"), [(1, 3)]);
        assert_eq!(region_lines("#[cfg(test)"), []);
        // An inner attribute marks nothing.
        assert_eq!(region_lines("#![cfg(test)]\nfn f() {}\n"), []);
    }

    fn glob_match(pat: &str, text: &str) -> bool {
        let parts: Vec<String> = pat.split('*').map(str::to_string).collect();
        super::glob_match(&parts, text)
    }

    #[test]
    fn globs_match_identifiers_only() {
        assert!(glob_match("*mul_add*", "mul_add"));
        assert!(glob_match("*mul_add*", "wrapping_mul_add_x"));
        assert!(glob_match("_mm*_fmadd*", "_mm256_fmadd_ps"));
        assert!(!glob_match("_mm*_fmadd*", "_mm256_add_ps"));
        assert!(glob_match("fn*", "fn"));
        assert!(glob_match("a*b*a", "aba"));
        assert!(!glob_match("a*b*a", "ab"));
        assert!(!glob_match("read_bit", "read_bits"));
        assert!(glob_match("*", ""));
    }

    #[test]
    fn patterns_lex_like_source() {
        let hits = |pattern: &str, src: &str| {
            let p = Pattern::parse(pattern).expect("pattern parses");
            let t = &lex(src).toks;
            (0..t.len()).filter(|&i| p.matches_at(t, i)).count()
        };
        // Spacing does not matter; the lexer's `>>` is one token either way.
        assert_eq!(hits("Vec < Vec < String >>", "x: Vec<Vec<String>>"), 1);
        assert_eq!(hits("*Vec<Vec<String>>", "Option<MyVec<Vec<String>>>"), 1);
        // A `*` touching an identifier is a glob; a spaced one multiplies.
        assert_eq!(hits("*read_bit(", "r.read_bit() + r.read_bits(4)"), 1);
        assert_eq!(hits("a * b", "a * b; ab"), 1);
        // Literals match by their full text; comments never match.
        assert_eq!(
            hits(
                r#"target_arch = "aarch64""#,
                r#"cfg(target_arch = "x86_64")"#
            ),
            0
        );
        assert_eq!(
            hits(
                r#"target_arch = "aarch64""#,
                r#"cfg(target_arch = "aarch64")"#
            ),
            1
        );
        assert_eq!(hits("mul_add", "// mul_add\nlet s = \"mul_add\";"), 0);
        assert!(Pattern::parse("a // b").is_err());
        assert!(Pattern::parse("  ").is_err());
    }
}
