//! A minimal Rust lexer producing line-attributed tokens.
//!
//! The build environment is offline, so the workspace cannot pull in
//! `syn`/`proc-macro2`; this module is the hand-rolled stand-in. It
//! tokenizes exactly as much of the surface syntax as the lints need:
//! identifiers, punctuation and string/char/number literals. Comments,
//! doc comments included, and whitespace are discarded. The lexer is
//! intentionally forgiving — on malformed input it keeps scanning so a
//! single odd token never hides findings in the rest of the file.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `self`, `commit`, …).
    Ident,
    /// Single punctuation character (`.`, `=`, `{`, …).
    Punct,
    /// String literal; `text` holds the *contents* without quotes.
    Str,
    /// Char literal or lifetime; `text` holds the raw spelling.
    CharLit,
    /// Numeric literal.
    Num,
}

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what is included).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// True when the token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lexes `src` into tokens. Never fails: unrecognizable bytes are
/// skipped (they cannot occur in code that `rustc` accepts anyway).
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.char_indices().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run(src)
}

struct Lexer {
    chars: Vec<(usize, char)>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn run(mut self, _src: &str) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line),
                'r' | 'b'
                    if matches!(self.peek(1), Some('"' | '#'))
                        || (c == 'b' && self.peek(1) == Some('r')) =>
                {
                    self.raw_or_byte(line);
                }
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphanumeric() => self.ident(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while let Some(c) = self.bump() {
            if c == '/' && self.peek(0) == Some('*') {
                self.bump();
                depth += 1;
            } else if c == '*' && self.peek(0) == Some('/') {
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }

    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push('\\');
                        text.push(esc);
                    }
                }
                _ => text.push(c),
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// Raw strings (`r"…"`, `r#"…"#`), byte strings, or an identifier
    /// starting with `r`/`b` that merely *looks* like one.
    fn raw_or_byte(&mut self, line: u32) {
        let start = self.pos;
        let mut prefix = String::new();
        while let Some(c) = self.peek(0) {
            if c == 'r' || c == 'b' {
                prefix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) == Some('"') {
            self.bump();
            let mut text = String::new();
            'scan: while let Some(c) = self.bump() {
                if c == '"' {
                    // A raw string closes only on `"` followed by the
                    // right number of `#`.
                    let mut ok = true;
                    for i in 0..hashes {
                        if self.peek(i) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break 'scan;
                    }
                    text.push(c);
                } else if c == '\\' && hashes == 0 && !prefix.contains('r') {
                    if let Some(esc) = self.bump() {
                        text.push('\\');
                        text.push(esc);
                    }
                } else {
                    text.push(c);
                }
            }
            self.push(TokKind::Str, text, line);
        } else {
            // Not a literal after all — rewind and lex as identifier.
            self.pos = start;
            self.ident(line);
        }
    }

    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // the `'`
        let mut text = String::from("'");
        // Lifetime: 'ident not followed by a closing quote.
        let first = self.peek(0);
        if let Some(c) = first {
            if (c == '_' || c.is_alphabetic()) && self.peek(1) != Some('\'') {
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokKind::CharLit, text, line);
                return;
            }
        }
        // Char literal (possibly escaped).
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '\'' {
                break;
            }
        }
        self.push(TokKind::CharLit, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                // Stop a range expression `0..n` from being eaten.
                if c == '.' && self.peek(1) == Some('.') {
                    break;
                }
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_puncts_and_lines() {
        let toks = lex("fn commit(&mut self) {\n    self.q = 1;\n}");
        assert!(toks[0].is_ident("fn"));
        assert!(toks[1].is_ident("commit"));
        let q = toks.iter().find(|t| t.is_ident("q")).expect("q lexed");
        assert_eq!(q.line, 2);
    }

    #[test]
    fn doc_comments_are_skipped_like_plain_comments() {
        let toks = lex("/// committed state\n//! inner\n/** block */ // plain\nstruct S;");
        assert!(toks[0].is_ident("struct"));
        assert_eq!(toks[0].line, 4);
    }

    #[test]
    fn strings_and_raw_strings() {
        let toks = lex(r####"x("a\"b"); y(r#"raw "inner" text"#); rate"####);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[1].text, r#"raw "inner" text"#);
        assert!(toks.last().expect("tokens").is_ident("rate"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lives: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::CharLit).collect();
        assert_eq!(lives.len(), 3);
        assert_eq!(lives[0].text, "'a");
        assert_eq!(lives[2].text, "'x'");
    }

    #[test]
    fn nested_block_comment_is_skipped() {
        let toks = lex("a /* x /* y */ z */ b");
        assert_eq!(toks.len(), 2);
        assert!(toks[1].is_ident("b"));
    }
}
