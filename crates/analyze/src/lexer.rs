//! A lightweight Rust lexer — just enough token structure for the
//! workspace rules, with none of `syn`'s weight (or its dependency
//! tree, which the offline vendored-shim policy rules out).
//!
//! The lexer turns a source file into
//!
//! * a flat [`Tok`] stream (identifiers, literals, single-character
//!   punctuation, doc comments) with 1-based line numbers, and
//! * a per-line table of ordinary comments ([`LexFile::comments`]), which
//!   is where the `// analyze: allow(panic)` annotations live.
//!
//! It understands the lexical constructs that break naive `grep`-style
//! scanning: nested block comments, string escapes, raw strings
//! (`r"…"`, `r#"…"#`, any number of `#`s), byte and raw-byte strings,
//! raw identifiers (`r#match`), char literals vs. lifetimes, and
//! numeric literals containing `.` (without swallowing `..` ranges).
//! It does **not** build a syntax tree: rules pattern-match the token
//! stream directly.

/// What a token is. Punctuation is kept single-character: the rules only
/// ever match short sequences (`# [ cfg (`, `. unwrap (`), so multi-char
/// operators need no special treatment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unsafe`, `unwrap`, …).
    Ident,
    /// A raw identifier: `r#ident` (text carries `ident`, without `r#`).
    RawIdent,
    /// A lifetime: `'a` (text carries `a`).
    Lifetime,
    /// A string literal of any flavor (text carries the *contents*).
    Str,
    /// A char or byte literal (contents not preserved).
    Char,
    /// A numeric literal (contents not preserved).
    Num,
    /// One punctuation character.
    Punct(char),
    /// An outer doc comment: `///` or `/** … */`.
    DocOuter,
    /// An inner doc comment: `//!` or `/*! … */`.
    DocInner,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// The token class.
    pub kind: TokKind,
    /// Identifier text, raw-identifier text, or string contents;
    /// empty for punctuation and skipped literal classes.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// `true` when the token is the identifier `word`.
    #[must_use]
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// `true` when the token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A lexed source file: the token stream plus the ordinary-comment text
/// per line (doc comments are tokens instead, so rules can attach them
/// to items).
#[derive(Debug, Default)]
pub struct LexFile {
    /// The token stream, in source order.
    pub tokens: Vec<Tok>,
    /// `(line, text)` for every non-doc comment, in source order. Block
    /// comments are recorded once at their starting line with their full
    /// text (newlines included).
    pub comments: Vec<(usize, String)>,
}

impl LexFile {
    /// The concatenated ordinary-comment text on `line`.
    #[must_use]
    pub fn comment_on(&self, line: usize) -> Option<String> {
        let mut joined = String::new();
        for (l, text) in &self.comments {
            if *l == line {
                joined.push_str(text);
                joined.push(' ');
            }
        }
        if joined.is_empty() {
            None
        } else {
            Some(joined)
        }
    }

    /// Walks upward from `line - 1` through contiguous comment-only lines
    /// (lines holding a comment and no token) and returns their text, plus
    /// any trailing comment on `line` itself. This is the annotation
    /// scope: an annotation binds to the item on the next code line.
    #[must_use]
    pub fn annotation_text(&self, line: usize) -> String {
        let mut text = self.comment_on(line).unwrap_or_default();
        let mut l = line;
        while l > 1 {
            l -= 1;
            let has_comment = self.comment_on(l).is_some();
            let has_token = self.tokens.iter().any(|t| t.line == l);
            if has_comment && !has_token {
                // Prepend: upper lines come first in reading order.
                let mut upper = self.comment_on(l).unwrap_or_default();
                upper.push(' ');
                upper.push_str(&text);
                text = upper;
            } else {
                break;
            }
        }
        text
    }
}

/// Lexes `source` into tokens and comments. Unterminated constructs
/// (strings, block comments) are tolerated: the rest of the file becomes
/// part of the construct, which is the useful behavior for a linter that
/// must never panic on weird input.
#[must_use]
pub fn lex(source: &str) -> LexFile {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    out: LexFile,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            out: LexFile::default(),
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn push(&mut self, kind: TokKind, text: String, line: usize) {
        self.out.tokens.push(Tok { kind, text, line });
    }

    fn run(mut self) -> LexFile {
        while self.pos < self.src.len() {
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'r' if self.peek(1) == b'#' && is_ident_start(self.peek(2)) => self.raw_ident(),
                b'r' if is_raw_string_start(self.peek(1)) => {
                    let line = self.line;
                    self.bump(); // r
                    let text = self.raw_string_body();
                    self.push(TokKind::Str, text, line);
                }
                b'b' if self.peek(1) == b'"' => {
                    let line = self.line;
                    self.bump(); // b
                    let text = self.quoted_string();
                    self.push(TokKind::Str, text, line);
                }
                b'b' if self.peek(1) == b'r' && is_raw_string_start(self.peek(2)) => {
                    let line = self.line;
                    self.bump(); // b
                    self.bump(); // r
                    let text = self.raw_string_body();
                    self.push(TokKind::Str, text, line);
                }
                b'b' if self.peek(1) == b'\'' => {
                    let line = self.line;
                    self.bump(); // b
                    self.char_literal();
                    self.push(TokKind::Char, String::new(), line);
                }
                b'"' => {
                    let line = self.line;
                    let text = self.quoted_string();
                    self.push(TokKind::Str, text, line);
                }
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                _ if is_ident_start(b) => self.ident(),
                _ => {
                    let line = self.line;
                    let c = self.bump();
                    // Multi-byte UTF-8 (in identifiers we don't emit, or
                    // stray unicode punctuation) collapses to one token.
                    if c < 0x80 {
                        self.push(TokKind::Punct(c as char), String::new(), line);
                    }
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // //
        let third = self.peek(0);
        let start = self.pos;
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let body = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        match third {
            // `///` is outer doc, but `////…` is an ordinary comment
            // (rustc quirk we mirror: 4+ slashes are not doc). `body`
            // starts at the third character, so doc means "exactly one
            // more slash": body[0] == '/' and body[1] != '/'.
            b'/' if !body[1..].starts_with('/') => {
                self.push(TokKind::DocOuter, body[1..].to_string(), line);
            }
            b'!' => self.push(TokKind::DocInner, body[1..].to_string(), line),
            _ => self.out.comments.push((line, body)),
        }
    }

    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // /*
        let third = self.peek(0);
        // `/**/` is empty ordinary; `/**x` is doc; `/*!` is inner doc.
        let is_outer_doc = third == b'*' && self.peek(1) != b'/' && self.peek(1) != b'*';
        let is_inner_doc = third == b'!';
        if is_outer_doc || is_inner_doc {
            self.bump(); // the * or !
        }
        let start = self.pos;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
        let end = self.pos.saturating_sub(2).max(start);
        let body = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        if is_outer_doc {
            self.push(TokKind::DocOuter, body, line);
        } else if is_inner_doc {
            self.push(TokKind::DocInner, body, line);
        } else {
            self.out.comments.push((line, body));
        }
    }

    fn raw_ident(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // r#
        let start = self.pos;
        while is_ident_continue(self.peek(0)) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::RawIdent, text, line);
    }

    /// Lexes `"…"#…#` after the leading `r` (and optional `b`) was eaten.
    fn raw_string_body(&mut self) -> String {
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != b'"' {
            return String::new(); // not actually a raw string; tolerate
        }
        self.bump(); // opening quote
        let start = self.pos;
        loop {
            if self.pos >= self.src.len() {
                return String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            }
            if self.peek(0) == b'"' {
                let mut ok = true;
                for i in 0..hashes {
                    if self.peek(1 + i) != b'#' {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                    self.bump(); // closing quote
                    for _ in 0..hashes {
                        self.bump();
                    }
                    return text;
                }
            }
            self.bump();
        }
    }

    /// Lexes `"…"` with escape handling; the opening quote is at `pos`.
    fn quoted_string(&mut self) -> String {
        self.bump(); // opening quote
        let start = self.pos;
        loop {
            match self.peek(0) {
                0 if self.pos >= self.src.len() => {
                    return String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                }
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => {
                    let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                    self.bump();
                    return text;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// A `'`: either a char literal or a lifetime.
    fn quote(&mut self) {
        let line = self.line;
        // Lifetime: 'ident not followed by a closing quote.
        if is_ident_start(self.peek(1)) && self.peek(2) != b'\'' {
            self.bump(); // '
            let start = self.pos;
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokKind::Lifetime, text, line);
            return;
        }
        self.char_literal();
        self.push(TokKind::Char, String::new(), line);
    }

    /// Lexes `'…'` with escapes; the opening quote is at `pos`.
    fn char_literal(&mut self) {
        self.bump(); // opening '
        loop {
            match self.peek(0) {
                0 if self.pos >= self.src.len() => return,
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'\'' => {
                    self.bump();
                    return;
                }
                b'\n' => return, // tolerate stray quote
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        while is_ident_continue(self.peek(0)) {
            self.bump();
        }
        // `1.5` continues the literal, `1..n` does not.
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump();
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
        }
        self.push(TokKind::Num, String::new(), line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while is_ident_continue(self.peek(0)) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokKind::Ident, text, line);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn is_raw_string_start(b: u8) -> bool {
    b == b'"' || b == b'#'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(file: &LexFile) -> Vec<&str> {
        file.tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn plain_tokens_with_lines() {
        let f = lex("fn main() {\n    x.unwrap();\n}\n");
        assert_eq!(idents(&f), vec!["fn", "main", "x", "unwrap"]);
        let unwrap = f.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn line_comments_are_recorded_not_tokenized() {
        let f = lex("let a = 1; // trailing note\n// full line\nlet b = 2;\n");
        assert!(f.tokens.iter().all(|t| t.kind != TokKind::Punct('/')));
        assert_eq!(f.comments.len(), 2);
        assert_eq!(f.comment_on(1).unwrap().trim(), "trailing note");
        assert_eq!(f.comment_on(2).unwrap().trim(), "full line");
    }

    #[test]
    fn doc_comments_are_tokens() {
        let f = lex("/// Outer doc.\n//! Inner doc.\n/** block doc */\npub fn f() {}\n");
        let kinds: Vec<_> = f.tokens.iter().map(|t| t.kind.clone()).collect();
        assert_eq!(kinds[0], TokKind::DocOuter);
        assert_eq!(kinds[1], TokKind::DocInner);
        assert_eq!(kinds[2], TokKind::DocOuter);
        assert!(f.comments.is_empty());
        assert_eq!(f.tokens[0].text.trim(), "Outer doc.");
    }

    #[test]
    fn four_slashes_is_not_doc() {
        let f = lex("//// separator\nfn f() {}\n");
        assert!(f.tokens.iter().all(|t| t.kind != TokKind::DocOuter));
        assert_eq!(f.comments.len(), 1);
    }

    #[test]
    fn nested_block_comments() {
        let f = lex("/* outer /* inner */ still outer */ fn f() {}\n");
        assert_eq!(idents(&f), vec!["fn", "f"]);
        assert_eq!(f.comments.len(), 1);
        assert!(f.comments[0].1.contains("inner"));
        assert!(f.comments[0].1.contains("still outer"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let f = lex(r#"let s = "fn fake() { x.unwrap() } // not a comment";"#);
        assert_eq!(idents(&f), vec!["let", "s"]);
        assert!(f.comments.is_empty());
        let s = f
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string token");
        assert!(s.text.contains("unwrap"));
    }

    #[test]
    fn string_escapes_do_not_end_early() {
        let f = lex(r#"let s = "a \" b"; let t = 1;"#);
        assert_eq!(idents(&f), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let f = lex("let s = r#\"quote \" and // slash\"#; let t = r\"plain\"; done();");
        assert_eq!(idents(&f), vec!["let", "s", "let", "t", "done"]);
        assert!(f.comments.is_empty());
        let texts: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(texts, vec!["quote \" and // slash", "plain"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let f = lex("let a = b\"bytes\"; let b2 = br#\"raw \" bytes\"#; end();");
        assert_eq!(idents(&f), vec!["let", "a", "let", "b2", "end"]);
    }

    #[test]
    fn raw_identifiers() {
        let f = lex("fn r#match(r#fn: u8) {}\n");
        let raws: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::RawIdent)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(raws, vec!["match", "fn"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }\n");
        let lifetimes: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let f = lex("for i in 0..n { let x = 1.5e3 + 0xFF + 1_000; }\n");
        assert_eq!(idents(&f), vec!["for", "i", "in", "n", "let", "x"]);
        // The `..` survives as two dots.
        assert_eq!(f.tokens.iter().filter(|t| t.is_punct('.')).count(), 2);
    }

    #[test]
    fn annotation_text_walks_comment_block_upward() {
        let f = lex(
            "// analyze: allow(panic): reason one\n// continued\nx.unwrap();\ny.unwrap(); // analyze: allow(panic): inline\n",
        );
        let a = f.annotation_text(3);
        assert!(a.contains("allow(panic)"));
        assert!(a.contains("continued"));
        let b = f.annotation_text(4);
        assert!(b.contains("inline"));
        // A code line above breaks the comment block.
        assert!(!b.contains("reason one"));
    }

    #[test]
    fn cfg_gated_items_lex_plainly() {
        let f = lex("#[cfg(feature = \"serde\")]\nmod wire {}\n#[cfg(test)]\nmod tests {}\n");
        assert_eq!(
            idents(&f),
            vec!["cfg", "feature", "mod", "wire", "cfg", "test", "mod", "tests"]
        );
        let feature_val = f
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("feature value");
        assert_eq!(feature_val.text, "serde");
    }
}
