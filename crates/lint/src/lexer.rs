//! A lightweight Rust tokenizer sufficient for lexical lint rules.
//!
//! This is *not* a full Rust lexer: it produces a stream of significant
//! tokens (identifiers, literals, punctuation) with line/column positions,
//! and records comments separately per line so rules can inspect
//! suppression annotations and `// SAFETY:` contracts. It understands
//! every construct that would otherwise corrupt a naive scan: nested block
//! comments, string/char/byte literals, raw strings with arbitrary `#`
//! fences, and lifetimes (so `'a` is not mistaken for an unterminated
//! char literal).

/// Kind of a significant token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `let`, `as`).
    Ident,
    /// Any literal: number, string, char, byte string.
    Literal,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Punctuation, with multi-character operators combined (`::`, `+=`).
    Punct,
}

/// One significant token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Source text of the token.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
}

impl Tok {
    /// True when this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True when this is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// A comment found in the source, keyed by the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based byte column the comment starts at.
    pub col: u32,
    /// Comment text including the `//` / `/*` introducer.
    pub text: String,
}

/// Tokenized file: significant tokens plus per-line comment metadata.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub toks: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
    /// Lines (1-based) that carry at least one significant token.
    pub code_lines: Vec<bool>,
}

impl Lexed {
    /// True when `line` (1-based) holds at least one significant token.
    pub fn line_has_code(&self, line: u32) -> bool {
        self.code_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// All comment texts that start on `line` (1-based).
    pub fn comments_on(&self, line: u32) -> impl Iterator<Item = &str> {
        self.comments
            .iter()
            .filter(move |c| c.line == line)
            .map(|c| c.text.as_str())
    }

    /// True when `line` contains a comment but no code — a "comment-only"
    /// line, the unit `// SAFETY:` contract blocks are built from.
    pub fn is_comment_only_line(&self, line: u32) -> bool {
        !self.line_has_code(line) && self.comments.iter().any(|c| c.line == line)
    }
}

/// Longest-first table of multi-character operators to combine.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "..", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Tokenizes `src`. Never fails: unterminated constructs consume to EOF,
/// which is good enough for linting (the compiler rejects such files
/// anyway before they could reach a release build).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n_lines = src.lines().count() + 2;
    let mut out = Lexed {
        toks: Vec::new(),
        comments: Vec::new(),
        code_lines: vec![false; n_lines],
    };
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_start = 0usize;

    macro_rules! col {
        ($pos:expr) => {
            ($pos - line_start + 1) as u32
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    col: col!(start),
                    text: src[start..i].to_string(),
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let start_col = col!(i);
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                            line_start = i + 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    col: start_col,
                    text: src[start..i.min(b.len())].to_string(),
                });
            }
            b'"' => {
                let (tok_line, tok_col) = (line, col!(i));
                let start = i;
                i += 1;
                consume_string_body(b, &mut i, &mut line, &mut line_start);
                let lit = text(src, start, i);
                push_tok(&mut out, TokKind::Literal, lit, tok_line, tok_col);
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let (tok_line, tok_col) = (line, col!(i));
                let start = i;
                consume_prefixed_string(b, &mut i, &mut line, &mut line_start);
                let lit = text(src, start, i);
                push_tok(&mut out, TokKind::Literal, lit, tok_line, tok_col);
            }
            b'\'' => {
                let (tok_line, tok_col) = (line, col!(i));
                if is_lifetime_start(b, i) {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    push_tok(
                        &mut out,
                        TokKind::Lifetime,
                        &src[start..i],
                        tok_line,
                        tok_col,
                    );
                } else {
                    // Char literal: consume until the closing quote,
                    // honouring backslash escapes.
                    let start = i;
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => break, // malformed; bail at EOL
                            _ => i += 1,
                        }
                    }
                    let lit = text(src, start, i);
                    push_tok(&mut out, TokKind::Literal, lit, tok_line, tok_col);
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let (tok_line, tok_col) = (line, col!(i));
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                push_tok(&mut out, TokKind::Ident, &src[start..i], tok_line, tok_col);
            }
            c if c.is_ascii_digit() => {
                let (tok_line, tok_col) = (line, col!(i));
                let start = i;
                i += 1;
                // Numbers: digits, `_`, hex/oct/bin letters, type suffixes,
                // and a decimal point followed by a digit (so `0..n` stays
                // two range dots, not a float).
                while i < b.len() {
                    let d = b[i];
                    let continues = d == b'_'
                        || d.is_ascii_alphanumeric()
                        || (d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit());
                    if !continues {
                        break;
                    }
                    i += 1;
                }
                push_tok(
                    &mut out,
                    TokKind::Literal,
                    &src[start..i],
                    tok_line,
                    tok_col,
                );
            }
            _ => {
                let (tok_line, tok_col) = (line, col!(i));
                let rest = &src[i..];
                let mut matched = None;
                for op in MULTI_PUNCT {
                    if rest.starts_with(op) {
                        matched = Some(*op);
                        break;
                    }
                }
                match matched {
                    Some(op) => {
                        push_tok(&mut out, TokKind::Punct, op, tok_line, tok_col);
                        i += op.len();
                    }
                    None => {
                        // Take the whole char: a multi-byte lead byte
                        // lands here, and a 1-byte slice would split it.
                        let ch_len = rest.chars().next().map_or(1, |c| c.len_utf8());
                        push_tok(
                            &mut out,
                            TokKind::Punct,
                            &src[i..i + ch_len],
                            tok_line,
                            tok_col,
                        );
                        i += ch_len;
                    }
                }
            }
        }
    }
    out
}

/// `src[start..end]`, clamped to the source and widened to whole chars: an
/// escape at the very end can step the cursor past the last byte, and a
/// mangled literal can end inside a multi-byte char.
fn text(src: &str, start: usize, end: usize) -> &str {
    let mut end = end.min(src.len());
    while !src.is_char_boundary(end) {
        end += 1;
    }
    &src[start..end]
}

fn push_tok(out: &mut Lexed, kind: TokKind, text: &str, line: u32, col: u32) {
    if let Some(slot) = out.code_lines.get_mut(line as usize) {
        *slot = true;
    }
    out.toks.push(Tok {
        kind,
        text: text.to_string(),
        line,
        col,
    });
}

/// True when position `i` (at `r` or `b`) starts a raw/byte string:
/// `r"`, `r#`, `b"`, `br"`, `br#`, `b'`.
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let rest = &b[i..];
    matches!(
        rest,
        [b'r', b'"', ..]
            | [b'r', b'#', ..]
            | [b'b', b'"', ..]
            | [b'b', b'\'', ..]
            | [b'b', b'r', b'"', ..]
            | [b'b', b'r', b'#', ..]
    )
}

/// True when `'` at `i` begins a lifetime rather than a char literal:
/// `'ident` not followed by a closing `'`.
fn is_lifetime_start(b: &[u8], i: usize) -> bool {
    let Some(&first) = b.get(i + 1) else {
        return false;
    };
    if first != b'_' && !first.is_ascii_alphabetic() {
        return false;
    }
    let mut j = i + 1;
    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    b.get(j) != Some(&b'\'')
}

/// Consumes a `"`-delimited string body (cursor already past the opening
/// quote), honouring escapes and tracking newlines.
fn consume_string_body(b: &[u8], i: &mut usize, line: &mut u32, line_start: &mut usize) {
    while *i < b.len() {
        match b[*i] {
            b'\\' => *i += 2,
            b'"' => {
                *i += 1;
                return;
            }
            b'\n' => {
                *line += 1;
                *i += 1;
                *line_start = *i;
            }
            _ => *i += 1,
        }
    }
}

/// Consumes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, or `b'…'` starting at the
/// prefix letter.
fn consume_prefixed_string(b: &[u8], i: &mut usize, line: &mut u32, line_start: &mut usize) {
    if b[*i] == b'b' {
        *i += 1;
    }
    if *i < b.len() && b[*i] == b'\'' {
        // Byte char literal b'x'.
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'\\' => *i += 2,
                b'\'' => {
                    *i += 1;
                    return;
                }
                _ => *i += 1,
            }
        }
        return;
    }
    let raw = *i < b.len() && b[*i] == b'r';
    if raw {
        *i += 1;
    }
    let mut hashes = 0usize;
    while *i < b.len() && b[*i] == b'#' {
        hashes += 1;
        *i += 1;
    }
    if *i < b.len() && b[*i] == b'"' {
        *i += 1;
    }
    if !raw {
        consume_string_body(b, i, line, line_start);
        return;
    }
    // Raw string: scan for `"` followed by `hashes` `#`s; no escapes.
    while *i < b.len() {
        if b[*i] == b'\n' {
            *line += 1;
            *i += 1;
            *line_start = *i;
            continue;
        }
        if b[*i] == b'"' {
            let mut j = *i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                j += 1;
                seen += 1;
            }
            if seen == hashes {
                *i = j;
                return;
            }
        }
        *i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_punct_and_multichar_ops() {
        let toks = kinds("a::b += c && d..=e;");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            ["a", "::", "b", "+=", "c", "&&", "d", "..=", "e", ";"]
        );
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("let x = 1; // trailing note\n/* block\nspans */ let y = 2;");
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("trailing note"));
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.toks.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let l = lex(r#"let s = "unwrap() panic! [0]"; s.len();"#);
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.toks.iter().any(|t| t.is_ident("len")));
    }

    #[test]
    fn raw_strings_and_hash_fences() {
        let l = lex(r##"let s = r#"has "quotes" and // not a comment"#; x"##);
        assert!(l.comments.is_empty());
        assert!(l.toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        // The function body token `x` must survive.
        assert!(l.toks.iter().filter(|t| t.is_ident("x")).count() >= 2);
    }

    #[test]
    fn char_literals_consume_escapes() {
        let l = lex(r"let c = '\''; let d = '\n'; y");
        assert!(l.toks.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ let z = 1;");
        assert_eq!(l.comments.len(), 1);
        assert!(l.toks.iter().any(|t| t.is_ident("z")));
    }

    #[test]
    fn line_tracking_and_code_lines() {
        let l = lex("let a = 1;\n// only comment\nlet b = 2;\n");
        assert!(l.line_has_code(1));
        assert!(!l.line_has_code(2));
        assert!(l.is_comment_only_line(2));
        assert!(l.line_has_code(3));
        let b_tok = l.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn range_after_int_is_not_a_float() {
        let texts: Vec<String> = kinds("0..n").into_iter().map(|(_, t)| t).collect();
        assert_eq!(texts, ["0", "..", "n"]);
    }

    #[test]
    fn multibyte_chars_outside_strings_do_not_panic() {
        // Non-ASCII outside a string or comment is not valid Rust, but
        // the lexer must survive it (mid-edit files, mangled input).
        let l = lex("let é = \u{fffd}; fn f() {}\n");
        assert!(l.toks.iter().any(|t| t.is_ident("f")));
        let l = lex("é");
        assert_eq!(l.toks.len(), 1);
    }
}
