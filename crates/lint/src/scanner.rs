//! Lexical scanning: a comment- and string-aware Rust tokenizer, waiver
//! extraction and `#[cfg(test)]` region tracking.
//!
//! The linter deliberately does **not** parse Rust (no `syn`, no external
//! dependencies — the workspace's offline vendored-shim policy applies to its
//! tooling too). Every rule in [`crate::rules`] is written against the token
//! stream this module produces, which is exactly strong enough for the
//! invariants we enforce:
//!
//! * **Tokens** carry their source line, so violations are reported where
//!   they occur. Comments and literals are lexed as single tokens: an
//!   `Instant` inside a string, doc comment or raw string can never be
//!   mistaken for a call to `std::time::Instant` (the tokenizer property
//!   tests pin this down).
//! * **Waivers** — `// scfs-lint: allow(RULE, reason)` comments — are
//!   collected with their line numbers. A waiver covers its own line and the
//!   line immediately below it, so it can sit at the end of the offending
//!   line or on its own line above. A waiver without a reason is reported by
//!   rule `W001` instead of being honoured.
//! * **Safety comments** — `// SAFETY: …` — are collected by the line their
//!   run of comment lines ends on, which is what rule `U001` asks to see
//!   directly above every `unsafe`.
//! * **Test regions** — items under `#[cfg(test)]` or `#[test]` — are
//!   marked token-by-token, so rules scoped to non-test code (the E-rules,
//!   most D-rules) can skip them without a real parser.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lexical token kind. Literal payloads are not retained: no rule needs
/// the contents of a string, char or number, only the fact that the source
/// bytes were literal data rather than code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`HashMap`, `fn`, `unwrap`, `_`).
    Ident(String),
    /// A single punctuation character (`::` is two `:` tokens).
    Punct(char),
    /// Any string literal: `"…"`, `r#"…"#`, `b"…"`, `br##"…"##`.
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A numeric literal (including suffixes: `0xcbf2u64`, `1.5e3`).
    Num,
    /// A lifetime (`'a`) — distinguished from char literals.
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line number.
    pub line: u32,
    /// The token itself.
    pub tok: Tok,
}

/// One inline waiver: `// scfs-lint: allow(RULE, reason)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Line the waiver comment starts on.
    pub line: u32,
    /// The rule id being waived (e.g. `E002`).
    pub rule: String,
    /// The justification; empty means the waiver is invalid (rule `W001`).
    pub reason: String,
}

/// A scanned source file, ready for the rule passes.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Owning crate, underscored (`sim_core`, `scfs`, `scfs_repro`).
    pub crate_name: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Parallel to `tokens`: `true` for tokens inside `#[cfg(test)]` /
    /// `#[test]` items (including the attribute itself).
    pub test_mask: Vec<bool>,
    /// All waivers found in comments.
    pub waivers: Vec<Waiver>,
    /// The last line of every `// SAFETY:` comment: the line it opens on, or
    /// the last of the `//` comment lines that directly follow it.
    pub safety_comments: Vec<u32>,
}

impl SourceFile {
    /// Scans `source`, attributing it to `rel_path` within `crate_name`.
    pub fn parse(rel_path: &str, crate_name: &str, source: &str) -> SourceFile {
        let (tokens, waivers, safety_comments) = tokenize(source);
        let test_mask = test_mask(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            tokens,
            test_mask,
            waivers,
            safety_comments,
        }
    }

    /// Whether the token at `idx` is inside a test region.
    pub fn is_test(&self, idx: usize) -> bool {
        self.test_mask.get(idx).copied().unwrap_or(false)
    }
}

/// Tokenizes Rust source, returning the token stream, any waivers found in
/// comments, and the end lines of the `// SAFETY:` comment runs. Never fails:
/// unexpected bytes become `Punct` tokens.
pub fn tokenize(source: &str) -> (Vec<Token>, Vec<Waiver>, Vec<u32>) {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut waivers = Vec::new();
    let mut safety_comments: Vec<u32> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let comment = &source[start..i];
                collect_waivers(comment, line, &mut waivers);
                // A comment trailing code neither opens nor continues a run.
                if tokens.last().is_none_or(|t: &Token| t.line != line) {
                    let continued = |end: &&mut u32| **end + 1 == line;
                    if comment
                        .trim_start_matches('/')
                        .trim_start()
                        .starts_with("SAFETY:")
                    {
                        safety_comments.push(line);
                    } else if let Some(end) = safety_comments.last_mut().filter(continued) {
                        *end = line;
                    }
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                collect_waivers(&source[start..i], start_line, &mut waivers);
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let tok_line = line;
                i = consume_string_like(bytes, i, &mut line);
                tokens.push(Token {
                    line: tok_line,
                    tok: Tok::Str,
                });
            }
            b'"' => {
                let tok_line = line;
                i = consume_plain_string(bytes, i, &mut line);
                tokens.push(Token {
                    line: tok_line,
                    tok: Tok::Str,
                });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let tok_line = line;
                if is_lifetime(bytes, i) {
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_byte(bytes[j]) {
                        j += 1;
                    }
                    i = j;
                    tokens.push(Token {
                        line: tok_line,
                        tok: Tok::Lifetime,
                    });
                } else {
                    i = consume_char_literal(bytes, i, &mut line);
                    tokens.push(Token {
                        line: tok_line,
                        tok: Tok::Char,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                let tok_line = line;
                i = consume_number(bytes, i);
                tokens.push(Token {
                    line: tok_line,
                    tok: Tok::Num,
                });
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                let ident = &source[start..i];
                // A byte-string/char prefix never reaches here: `b"` and `r#"`
                // were handled above; `b'x'` — `b` followed by `'` — is
                // caught by peeking.
                if (ident == "b" || ident == "br") && bytes.get(i) == Some(&b'\'') {
                    let tok_line = line;
                    i = consume_char_literal(bytes, i, &mut line);
                    tokens.push(Token {
                        line: tok_line,
                        tok: Tok::Char,
                    });
                } else {
                    tokens.push(Token {
                        line,
                        tok: Tok::Ident(ident.to_string()),
                    });
                }
            }
            other => {
                tokens.push(Token {
                    line,
                    tok: Tok::Punct(other as char),
                });
                i += 1;
            }
        }
    }
    (tokens, waivers, safety_comments)
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `'a` is a lifetime unless the identifier is followed by a closing quote
/// (then it is a char literal like `'a'`).
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let Some(&first) = bytes.get(i + 1) else {
        return false;
    };
    if !is_ident_start(first) {
        return false;
    }
    let mut j = i + 1;
    while j < bytes.len() && is_ident_byte(bytes[j]) {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

/// Whether position `i` starts `r"`, `r#"`, `b"`, `br"`, `br#"` (a raw or
/// byte string rather than an identifier beginning with `r`/`b`).
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    j > i && bytes.get(j) == Some(&b'"')
}

/// Consumes a raw/byte string starting at `i` (first byte `r` or `b`).
fn consume_string_like(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut raw = false;
    if bytes[i] == b'b' {
        i += 1;
    }
    let mut hashes = 0usize;
    if bytes.get(i) == Some(&b'r') {
        raw = true;
        i += 1;
        while bytes.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
    }
    if !raw {
        return consume_plain_string(bytes, i, line);
    }
    // Raw string: ends at `"` followed by `hashes` hash marks; no escapes.
    i += 1; // opening quote
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Consumes a `"…"` string with escapes, starting at the opening quote.
fn consume_plain_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes `'x'` / `'\n'` / `b'x'`, starting at the quote (or the `b`).
fn consume_char_literal(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a numeric literal. A `.` continues the number only when followed
/// by a digit, so `self.0.iter()` and `0..n` tokenize correctly.
fn consume_number(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphanumeric()
            || c == b'_'
            || (c == b'.' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
        {
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// Extracts `scfs-lint: allow(RULE, reason)` waivers from one comment.
/// Several `allow(...)` clauses may follow a single `scfs-lint:` marker.
fn collect_waivers(comment: &str, line: u32, out: &mut Vec<Waiver>) {
    let Some(pos) = comment.find("scfs-lint:") else {
        return;
    };
    let mut rest = &comment[pos + "scfs-lint:".len()..];
    while let Some(open) = rest.find("allow(") {
        let body_start = open + "allow(".len();
        let Some(close) = rest[body_start..].find(')') else {
            break;
        };
        let body = &rest[body_start..body_start + close];
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        if !rule.is_empty() {
            out.push(Waiver {
                line,
                rule: rule.to_string(),
                reason: reason.to_string(),
            });
        }
        rest = &rest[body_start + close + 1..];
    }
}

/// Marks the tokens belonging to `#[cfg(test)]` / `#[test]` items.
///
/// The walk is structural but brace-based, not grammar-based: a test-ish
/// attribute marks everything up to the end of the item it decorates — the
/// matching `}` of the first block to open, or the first top-level `;` for
/// block-less items (`#[cfg(test)] use …;`).
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Punct('#')
            && matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Punct('['))
        {
            let attr_start = i;
            let (end, is_test) = scan_attribute(tokens, i);
            if is_test {
                let item_end = mark_item_end(tokens, end);
                for m in mask
                    .iter_mut()
                    .take(item_end.min(tokens.len()))
                    .skip(attr_start)
                {
                    *m = true;
                }
                i = item_end;
            } else {
                i = end;
            }
        } else {
            i += 1;
        }
    }
    mask
}

/// Scans one `#[…]` attribute starting at the `#`. Returns the index one
/// past the closing `]` and whether the attribute gates test code: `#[test]`
/// or any `#[cfg(… test …)]`.
fn scan_attribute(tokens: &[Token], start: usize) -> (usize, bool) {
    let mut i = start + 2; // past `#` `[`
    let mut depth = 1usize;
    let mut idents: Vec<&str> = Vec::new();
    while i < tokens.len() && depth > 0 {
        match &tokens[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => depth -= 1,
            Tok::Ident(name) => idents.push(name),
            _ => {}
        }
        i += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => idents.len() == 1,
        Some(&"cfg") => idents.contains(&"test"),
        _ => false,
    };
    (i, is_test)
}

/// From the first token after a test attribute, finds the end of the item:
/// skips further attributes, then runs to the matching `}` of the first
/// brace to open, or one past the first `;` before any brace.
fn mark_item_end(tokens: &[Token], mut i: usize) -> usize {
    // Skip any further attributes on the same item.
    while i < tokens.len()
        && tokens[i].tok == Tok::Punct('#')
        && matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Punct('['))
    {
        let (end, _) = scan_attribute(tokens, i);
        i = end;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// A source file on disk, located for scanning.
#[derive(Debug, Clone)]
pub struct WorkspaceFile {
    /// Absolute path.
    pub path: PathBuf,
    /// Path relative to the workspace root (`/`-separated).
    pub rel_path: String,
    /// Owning crate, underscored.
    pub crate_name: String,
}

/// Enumerates the `.rs` files the linter covers: `src/` of the root package
/// and `crates/*/src`, in deterministic (sorted) order. Crates named in
/// `skip_crates` (the vendored shims) are not scanned.
pub fn workspace_files(root: &Path, skip_crates: &[String]) -> io::Result<Vec<WorkspaceFile>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, root, "scfs_repro", &mut out)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .replace('-', "_");
            if skip_crates.contains(&name) {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &name, &mut out)?;
            }
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<WorkspaceFile>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(WorkspaceFile {
                path,
                rel_path: rel,
                crate_name: crate_name.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .0
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r###"
            let a = "Instant::now() inside a string";
            // Instant in a line comment
            /* Instant in /* a nested */ block comment */
            let b = r#"raw Instant"#;
            let c = b"byte Instant";
            let real = SimInstant::EPOCH;
        "###;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "Instant"));
        assert!(ids.iter().any(|s| s == "SimInstant"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let n = '\\n'; x }";
        let (tokens, _, _) = tokenize(src);
        let lifetimes = tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = tokens.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 2);
    }

    #[test]
    fn numbers_do_not_swallow_method_calls() {
        let src = "self.0.iter(); let r = 0..n; let f = 1.5e3f64;";
        let ids = idents(src);
        assert!(ids.iter().any(|s| s == "iter"));
        assert!(ids.iter().any(|s| s == "n"));
    }

    #[test]
    fn waivers_parse_with_rule_and_reason() {
        let src = "foo(); // scfs-lint: allow(E002, invariant: index is in bounds)\n\
                   // scfs-lint: allow(D004)\n";
        let (_, waivers, _) = tokenize(src);
        assert_eq!(waivers.len(), 2);
        assert_eq!(waivers[0].rule, "E002");
        assert_eq!(waivers[0].reason, "invariant: index is in bounds");
        assert_eq!(waivers[0].line, 1);
        assert_eq!(waivers[1].rule, "D004");
        assert_eq!(waivers[1].reason, "");
    }

    #[test]
    fn test_mask_covers_cfg_test_mod_and_test_fns() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn helper() { y.unwrap(); }\n}\n\
                   #[test]\nfn standalone() { z.unwrap(); }\n";
        let sf = SourceFile::parse("f.rs", "demo", src);
        let unwraps: Vec<(u32, bool)> = sf
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.tok == Tok::Ident("unwrap".into()))
            .map(|(i, t)| (t.line, sf.is_test(i)))
            .collect();
        assert_eq!(unwraps.len(), 3);
        assert!(!unwraps[0].1, "live code is not masked");
        assert!(unwraps[1].1, "cfg(test) mod is masked");
        assert!(unwraps[2].1, "#[test] fn is masked");
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(feature = \"x\")]\nfn live() { a.unwrap(); }";
        let sf = SourceFile::parse("f.rs", "demo", src);
        assert!(sf.test_mask.iter().all(|m| !m));
    }
}
