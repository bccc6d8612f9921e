//! Per-line code/comment views, built on the token [`lexer`](crate::lexer).
//!
//! Rules that reason line-wise (allow directives, `SAFETY:` comments,
//! doc-comment adjacency) consume these views; rules that reason about
//! syntax consume the token stream or the [`items`](crate::items) model
//! directly. Both derive from the same lexer, so they can never
//! disagree about what is code and what is quoted text.
//!
//! The view splits every source line into:
//!
//! * **code** — everything outside comments, with string and char
//!   literal *contents* blanked to spaces (delimiters kept), so
//!   substring checks match real syntax and not text; and
//! * **comment** — the comment text on that line, including the
//!   `//` / `/*` introducer on the line that opens it.

use crate::lexer::{Token, TokenKind};

/// One source line, split into its code and comment parts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Line {
    /// Code with string contents blanked and comments removed.
    pub code: String,
    /// The comment on this line, if any, including its `//` / `/*`
    /// introducer (for block comments spanning lines, the part on this
    /// line).
    pub comment: String,
}

impl Line {
    /// `true` when the comment is a doc comment (`///`, `//!`, `/**`,
    /// `/*!`).
    pub fn is_doc_comment(&self) -> bool {
        (self.comment.starts_with("///") && !self.comment.starts_with("////"))
            || self.comment.starts_with("//!")
            || (self.comment.starts_with("/**") && !self.comment.starts_with("/**/"))
            || self.comment.starts_with("/*!")
    }
}

/// Scan a lexed source into per-line code/comment views.
pub fn scan_tokens(source: &str, tokens: &[Token]) -> Vec<Line> {
    let line_count = source.split('\n').count();
    let mut lines = vec![Line::default(); line_count];
    for t in tokens {
        let text = t.text(source);
        match t.kind {
            TokenKind::LineComment { .. } | TokenKind::BlockComment { .. } => {
                for (off, part) in text.split('\n').enumerate() {
                    lines[t.line - 1 + off].comment.push_str(part);
                }
            }
            TokenKind::StrLit { raw, byte } => {
                // Keep the delimiters (prefix through the opening quote,
                // closing quote plus hashes), blank the payload.
                let chars: Vec<char> = text.chars().collect();
                let prefix = usize::from(byte) + usize::from(raw);
                let hashes = chars[prefix..].iter().take_while(|&&c| c == '#').count();
                let open_quote = prefix + hashes; // index of the opening `"`
                let close_from = match string_close(&chars, open_quote, raw, hashes) {
                    Some(close) => close,
                    None => chars.len(), // unterminated: blank to EOF
                };
                let mut row = t.line - 1;
                for (i, &c) in chars.iter().enumerate() {
                    if c == '\n' {
                        row += 1;
                    } else if i <= open_quote || i >= close_from {
                        lines[row].code.push(c);
                    } else {
                        lines[row].code.push(' ');
                    }
                }
            }
            TokenKind::CharLit => {
                // `'x'` → `' '`: quotes kept, payload blanked.
                let n = text.chars().count();
                let line = &mut lines[t.line - 1];
                line.code.push('\'');
                for _ in 0..n.saturating_sub(2) {
                    line.code.push(' ');
                }
                if n >= 2 {
                    line.code.push('\'');
                }
            }
            _ => {
                for (off, part) in text.split('\n').enumerate() {
                    lines[t.line - 1 + off].code.push_str(part);
                }
            }
        }
    }
    lines
}

/// Index of the closing delimiter (the closing `"`, or for raw strings
/// the `"` before the trailing hashes), or `None` when the token ran to
/// EOF unterminated. `open` is the index of the opening quote.
fn string_close(chars: &[char], open: usize, raw: bool, hashes: usize) -> Option<usize> {
    if raw {
        // Terminated iff the token ends `"` + `hashes` `#`s past `open`.
        let close = chars.len().checked_sub(1 + hashes)?;
        (close > open && chars[close] == '"' && chars[close + 1..].iter().all(|&c| c == '#'))
            .then_some(close)
    } else {
        // The lexer consumed escapes as pairs, so a terminating quote is
        // exactly the final char (and not the opening one).
        let close = chars.len().checked_sub(1)?;
        (close > open && chars[close] == '"').then_some(close)
    }
}

/// `true` for characters that can appear in a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find all occurrences of `ident` in `code` at identifier boundaries.
/// Returns byte offsets. Boundary checks are char-correct (the v1
/// byte-cast version misjudged boundaries next to multi-byte chars).
pub fn find_ident(code: &str, ident: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(ident) {
        let start = from + pos;
        let end = start + ident.len();
        let ok_before = code[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let ok_after = code[end..].chars().next().is_none_or(|c| !is_ident_char(c));
        if ok_before && ok_after {
            out.push(start);
        }
        from = start + ident.len().max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(source: &str) -> Vec<Line> {
        scan_tokens(source, &lex(source))
    }

    fn code_of(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strips_line_comments() {
        let l = scan("let x = 1; // thread_rng mention");
        assert_eq!(l[0].code, "let x = 1; ");
        assert!(l[0].comment.contains("thread_rng"));
    }

    #[test]
    fn doc_comments_detected() {
        let l = scan("/// docs\npub fn f() {}\n//! inner");
        assert!(l[0].is_doc_comment());
        assert!(!l[1].is_doc_comment());
        assert!(l[2].is_doc_comment());
    }

    #[test]
    fn blanks_string_contents() {
        let c = code_of(r#"let s = "HashMap::new()";"#);
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains('"'));
    }

    #[test]
    fn blanks_raw_strings_with_hashes() {
        let src = "let s = r#\"Instant::now() \"quoted\"\"#; let y = 2;";
        let c = code_of(src);
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("let y = 2;"));
    }

    #[test]
    fn multiline_string_blanked() {
        let src = "let s = \"line one\nInstant::now()\nend\"; let t = 3;";
        let c = code_of(src);
        assert!(!c.join("\n").contains("Instant"));
        assert!(c[2].contains("let t = 3;"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let c = code_of(src);
        assert!(c[0].contains('a') && c[0].contains('b'));
        assert!(!c[0].contains("still"));
    }

    #[test]
    fn block_comment_spans_lines() {
        let src = "a /* one\ntwo Instant\nthree */ b";
        let c = code_of(src);
        assert!(!c.join("\n").contains("Instant"));
        assert!(c[2].contains('b'));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let c = code_of("fn f<'a>(x: &'a str, c: char) -> bool { c == 'z' }");
        assert!(c[0].contains("'a>"));
        assert!(!c[0].contains("'z'"));
        let c = code_of(r"let nl = '\n'; let q = '\''; done();");
        assert!(c[0].contains("done();"));
    }

    #[test]
    fn escaped_quote_char_leaves_no_stray_quote() {
        // Regression: v1 consumed `'\'` and re-parsed the real closing
        // quote as a lifetime, leaving `''` garbage in its code view.
        let c = code_of(r"let q = '\''; after();");
        assert!(c[0].contains("after();"));
        assert!(!c[0].contains("''"), "stray quote leaked: {:?}", c[0]);
    }

    #[test]
    fn escaped_quote_in_string() {
        let c = code_of(r#"let s = "he said \"Instant\""; go();"#);
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("go();"));
    }

    #[test]
    fn byte_string_and_byte_char_blanked() {
        let c = code_of(r#"let b = b"Instant"; let bc = b'I'; ok();"#);
        assert!(!c[0].contains("Instant"));
        assert!(!c[0].contains("'I'"));
        assert!(c[0].contains("ok();"));
    }

    #[test]
    fn shebang_line_kept_in_code() {
        let c = code_of("#!/usr/bin/env thing\nfn main() {}");
        assert!(c[0].contains("#!/usr/bin/env"));
        assert!(c[1].contains("fn main"));
    }

    #[test]
    fn find_ident_respects_boundaries() {
        assert_eq!(find_ident("Instant::now()", "Instant"), vec![0]);
        assert!(find_ident("SimInstant::now()", "Instant").is_empty());
        assert!(find_ident("unsafe_code", "unsafe").is_empty());
        assert_eq!(find_ident("x unsafe {", "unsafe").len(), 1);
    }

    #[test]
    fn find_ident_boundary_is_char_correct() {
        // Regression: v1 cast the preceding *byte* to char, so a
        // multi-byte identifier char before the needle was misread as a
        // boundary and produced a false match.
        assert!(find_ident("caféInstant::now()", "Instant").is_empty());
    }
}
