//! A minimal Rust lexer: just enough token structure for pattern-level
//! static analysis.
//!
//! The build environment is offline and `syn` is not vendored, so the
//! analyzers in this crate work on a token stream produced here instead of
//! a full AST. The lexer's one job is to be *truthful about what is code*:
//! comments, doc comments, strings (including raw strings with any number
//! of `#`s), byte strings, char literals and lifetimes are recognized and
//! excluded, so `// like HashMap::new` in a doc comment or `"Instant::now"`
//! inside a string literal can never produce a diagnostic. Comments are
//! returned on the side because the `detlint::allow` escape hatch lives in
//! them.

/// One significant token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text (identifier text, punctuation characters, or a literal
    /// placeholder — literal *contents* are never exposed to analyzers).
    pub text: TokenText,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// What kind of token this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenText {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// Any literal (string, char, number); contents withheld by design.
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.text {
            TokenText::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.text == TokenText::Punct(c)
    }

    /// `true` if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// A comment with its position, used for allow-annotation parsing.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//`/`/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// `true` when nothing but whitespace precedes the comment on its line
    /// (a "standalone" comment annotates the *next* code line; a trailing
    /// comment annotates its own).
    pub standalone: bool,
}

/// Lexer output: the significant tokens plus all comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenizes Rust source. Unterminated constructs are tolerated (the rest
/// of the file is swallowed by the open construct) — the pass must never
/// panic on in-progress code.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Line on which the last code token ended; a comment is "standalone"
    // when no code precedes it on its own line.
    let mut last_code_line: u32 = 0;

    // Advances past `n` bytes, counting newlines.
    macro_rules! advance {
        ($n:expr) => {{
            let end = (i + $n).min(bytes.len());
            for &b in &bytes[i..end] {
                if b == b'\n' {
                    line += 1;
                }
            }
            i = end;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => advance!(1),
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start_line = line;
                let standalone = line != last_code_line;
                let mut j = i + 2;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    text: src[i + 2..j].to_string(),
                    line: start_line,
                    standalone,
                });
                advance!(j - i);
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let standalone = line != last_code_line;
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let inner_end = j.saturating_sub(2).max(i + 2);
                out.comments.push(Comment {
                    text: src[i + 2..inner_end].to_string(),
                    line: start_line,
                    standalone,
                });
                advance!(j - i);
            }
            '"' => {
                advance!(string_len(&src[i..], 0));
                last_code_line = line;
                out.tokens.push(Token {
                    text: TokenText::Literal,
                    line,
                });
            }
            'r' | 'b' if starts_string_prefix(&src[i..]) => {
                let (prefix, hashes) = string_prefix(&src[i..]);
                // `prefix` and `string_len` both count the opening quote.
                advance!(prefix - 1 + string_len(&src[i + prefix - 1..], hashes));
                last_code_line = line;
                out.tokens.push(Token {
                    text: TokenText::Literal,
                    line,
                });
            }
            '\'' => {
                // Lifetime or char literal. `'a` / `'static` (no closing
                // quote after the ident run) is a lifetime; otherwise a
                // char literal, possibly escaped.
                let rest = &src[i + 1..];
                let ident_len = rest
                    .char_indices()
                    .take_while(|&(_, ch)| ch.is_alphanumeric() || ch == '_')
                    .count();
                let is_lifetime = ident_len > 0
                    && !rest[ident_len..].starts_with('\'')
                    && !rest.starts_with('\\');
                if is_lifetime {
                    let l = line;
                    advance!(1 + ident_len);
                    last_code_line = line;
                    out.tokens.push(Token {
                        text: TokenText::Lifetime,
                        line: l,
                    });
                } else {
                    let l = line;
                    advance!(char_literal_len(&src[i..]));
                    last_code_line = line;
                    out.tokens.push(Token {
                        text: TokenText::Literal,
                        line: l,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let rest = &src[i..];
                let len: usize = rest
                    .chars()
                    .take_while(|&ch| ch.is_alphanumeric() || ch == '_')
                    .map(char::len_utf8)
                    .sum();
                let l = line;
                let text = rest[..len].to_string();
                advance!(len);
                last_code_line = line;
                out.tokens.push(Token {
                    text: TokenText::Ident(text),
                    line: l,
                });
            }
            c if c.is_ascii_digit() => {
                // Numbers (incl. suffixes like 1e9, 0xff_u64): swallow the
                // alphanumeric run plus any `.` directly between digits.
                let rest = &src[i..];
                let mut len = 0usize;
                let rb = rest.as_bytes();
                while len < rb.len() {
                    let b = rb[len] as char;
                    if b.is_alphanumeric()
                        || b == '_'
                        || (b == '.'
                            && rb
                                .get(len + 1)
                                .is_some_and(|n| (*n as char).is_ascii_digit()))
                    {
                        len += 1;
                    } else {
                        break;
                    }
                }
                let l = line;
                advance!(len);
                last_code_line = line;
                out.tokens.push(Token {
                    text: TokenText::Literal,
                    line: l,
                });
            }
            c => {
                let l = line;
                advance!(c.len_utf8());
                last_code_line = line;
                out.tokens.push(Token {
                    text: TokenText::Punct(c),
                    line: l,
                });
            }
        }
    }
    out
}

/// `true` when `rest` starts a raw/byte string prefix (`r"`, `r#`, `b"`,
/// `br#`, ...) rather than a plain identifier starting with r/b.
fn starts_string_prefix(rest: &str) -> bool {
    let b = rest.as_bytes();
    let mut j = 0;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) == Some(&b'r') {
        j += 1;
        while b.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    j > 0 && b.get(j) == Some(&b'"')
}

/// Length of the prefix up to and including the opening quote, plus the
/// number of `#`s in a raw-string guard.
fn string_prefix(rest: &str) -> (usize, usize) {
    let b = rest.as_bytes();
    let mut j = 0;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    let mut hashes = 0;
    let raw = b.get(j) == Some(&b'r');
    if raw {
        j += 1;
        while b.get(j) == Some(&b'#') {
            j += 1;
            hashes += 1;
        }
    }
    debug_assert_eq!(b.get(j), Some(&b'"'));
    (j + 1, if raw { hashes } else { usize::MAX })
}

/// Byte length of a string starting at an opening `"`, including both
/// quotes. `hashes == usize::MAX` means a normal (escaped) string; any
/// other value means a raw string closed by `"` + that many `#`s.
fn string_len(s: &str, hashes: usize) -> usize {
    let b = s.as_bytes();
    debug_assert_eq!(b[0], b'"');
    let mut j = 1;
    if hashes == usize::MAX || hashes == 0 {
        let raw = hashes == 0;
        while j < b.len() {
            match b[j] {
                b'\\' if !raw => j += 2,
                b'"' => return j + 1,
                _ => j += 1,
            }
        }
    } else {
        let close: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while j < b.len() {
            if b[j..].starts_with(&close) {
                return j + close.len();
            }
            j += 1;
        }
    }
    b.len()
}

/// Byte length of a char literal starting at `'`, including both quotes.
fn char_literal_len(s: &str) -> usize {
    let b = s.as_bytes();
    debug_assert_eq!(b[0], b'\'');
    let mut j = 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code_like_text() {
        let src = r##"
// HashMap in a comment
/* Instant::now() in a block /* nested */ comment */
let s = "HashMap::new()";
let r = r#"thread_rng "quoted""#;
let b = b"SystemTime";
real_ident();
"##;
        let ids = idents(src);
        assert_eq!(ids, ["let", "s", "let", "r", "let", "b", "real_ident"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("HashMap"));
        assert!(lexed.comments[0].standalone);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.text == TokenText::Lifetime)
            .count();
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| t.text == TokenText::Literal)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(literals, 1);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = \"x\ny\";\nInstant::now();\n";
        let lexed = lex(src);
        let now = lexed.tokens.iter().find(|t| t.is_ident("Instant")).unwrap();
        assert_eq!(now.line, 3);
    }

    #[test]
    fn trailing_comment_is_not_standalone() {
        let lexed = lex("let x = 1; // detlint::allow(wall-clock, reason = \"r\")\n");
        assert_eq!(lexed.comments.len(), 1);
        assert!(!lexed.comments[0].standalone);
    }

    #[test]
    fn numeric_literals_with_suffixes_and_floats() {
        let src = "let x = 1e9 + 0xff_u64 + 3.25 + 7.;";
        // `7.` lexes as literal 7 + punct '.' — fine for pattern scanning.
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.is_punct('.')));
        assert_eq!(idents(src), ["let", "x"]);
    }
}
