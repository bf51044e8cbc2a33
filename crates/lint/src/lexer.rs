//! A small hand-rolled Rust lexer: just enough token structure for the
//! analyses in this crate, in the same no-dependency spirit as the
//! in-tree proptest shim.
//!
//! The scanner understands comments (line, block, doc), string
//! literals (cooked, raw, byte), char literals vs lifetimes, numbers,
//! identifiers, and single-character punctuation. Comments are not
//! emitted as tokens — they are collected separately with their line
//! numbers so the allow-directive layer can match them against
//! findings without the analyses ever seeing them.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-indexed source line the token starts on.
    pub line: usize,
}

/// The token classes the analyses care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `struct`, `unwrap`, ...).
    Ident(String),
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime(String),
    /// One punctuation character (`.`, `!`, `[`, `{`, ...). Multi-char
    /// operators arrive as consecutive tokens.
    Punct(char),
    /// A string literal (cooked, raw, or byte); the unquoted text.
    Str(String),
    /// A char or byte literal.
    Char,
    /// A numeric literal.
    Num,
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the given identifier/keyword.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(t) if t == s)
    }
}

/// A comment captured during lexing (the directive layer's input).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//`/`/*` framing.
    pub text: String,
    /// 1-indexed line the comment starts on.
    pub line: usize,
}

/// The output of [`lex`]: code tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments (line, block, and doc) in source order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source. Tolerant by design: unterminated constructs
/// consume to end of input rather than failing, so a half-edited file
/// still yields findings for the part that scans.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    text: src[start..j].to_string(),
                    line,
                });
                i = j;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1;
                let mut j = start;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        if bytes[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    text: src[start..end].to_string(),
                    line: start_line,
                });
                i = j;
            }
            '"' => {
                let (text, next, newlines) = cooked_string(src, i + 1);
                out.tokens.push(Token {
                    kind: TokenKind::Str(text),
                    line,
                });
                line += newlines;
                i = next;
            }
            'r' | 'b' if raw_string_start(bytes, i).is_some() => {
                // r"...", r#"..."#, b"...", br#"..."# and friends.
                let (hash_count, body_start) = raw_string_start(bytes, i).unwrap_or((0, i + 1));
                let closer = format!("\"{}", "#".repeat(hash_count));
                let rest = &src[body_start..];
                let (text, consumed) = match rest.find(&closer) {
                    Some(pos) => (rest[..pos].to_string(), pos + closer.len()),
                    None => (rest.to_string(), rest.len()),
                };
                let newlines = text.matches('\n').count();
                out.tokens.push(Token {
                    kind: TokenKind::Str(text),
                    line,
                });
                line += newlines;
                i = body_start + consumed;
            }
            '\'' => {
                // Lifetime, label, or char literal. A lifetime is 'ident
                // NOT followed by a closing quote; 'a' is a char.
                let mut j = i + 1;
                while j < bytes.len() && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                if j > i + 1 && bytes.get(j) != Some(&b'\'') {
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime(src[i + 1..j].to_string()),
                        line,
                    });
                    i = j;
                } else {
                    let next = char_literal_end(bytes, i + 1);
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        line,
                    });
                    i = next;
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_alphanumeric()
                        || bytes[j] == b'_'
                        || bytes[j] == b'.'
                            && bytes
                                .get(j + 1)
                                .is_some_and(|n| (*n as char).is_ascii_digit()))
                {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    line,
                });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let (ident, next) = ident_at(src, i);
                out.tokens.push(Token {
                    kind: TokenKind::Ident(ident),
                    line,
                });
                i = next;
            }
            c => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Scans a cooked string body starting just past the opening quote.
/// Returns (text, index past the closing quote, newline count).
fn cooked_string(src: &str, start: usize) -> (String, usize, usize) {
    let bytes = src.as_bytes();
    let mut j = start;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => {
                let text = src[start..j].to_string();
                let newlines = text.matches('\n').count();
                return (text, j + 1, newlines);
            }
            _ => j += 1,
        }
    }
    let text = src[start..].to_string();
    let newlines = text.matches('\n').count();
    (text, bytes.len(), newlines)
}

/// If a raw or byte string literal starts at `i` (`r"`, `r#"`, `b"`,
/// `br"`, `br#"` ...), returns `(hash_count, index of the first body
/// byte)`. `b'x'` byte chars and plain identifiers return `None` and
/// lex through the ordinary paths.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut saw_r = false;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        saw_r = true;
        j += 1;
    }
    let mut hashes = 0;
    if saw_r {
        while bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
    }
    // A bare identifier like `result` also starts with 'r'; only an
    // opening quote right here makes this a string literal.
    if bytes.get(j) == Some(&b'"') {
        Some((hashes, j + 1))
    } else {
        None
    }
}

/// Index just past a char literal whose body starts at `start`.
fn char_literal_end(bytes: &[u8], start: usize) -> usize {
    let mut j = start;
    if bytes.get(j) == Some(&b'\\') {
        j += 2;
    } else if j < bytes.len() {
        j += 1;
    }
    // Unicode escapes and multi-byte chars: scan to the closing quote.
    while j < bytes.len() && bytes[j] != b'\'' {
        j += 1;
    }
    (j + 1).min(bytes.len())
}

/// Reads the identifier starting at `i`; returns (text, next index).
fn ident_at(src: &str, i: usize) -> (String, usize) {
    let bytes = src.as_bytes();
    let mut j = i;
    while j < bytes.len() && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    (src[i..j].to_string(), j)
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
    fn idents_and_puncts_scan() {
        let l = lex("fn main() { x.unwrap(); }");
        assert_eq!(
            idents("fn main() { x.unwrap(); }"),
            vec!["fn", "main", "x", "unwrap"]
        );
        assert!(l.tokens.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn comments_are_side_channeled() {
        let l = lex("let a = 1; // vdisk-lint: allow(x) reason=\"y\"\nlet b = 2;");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("vdisk-lint"));
        assert_eq!(l.comments[0].line, 1);
        // The comment's tokens never reach the analyses.
        assert!(!idents("// x.unwrap()").contains(&"unwrap".to_string()));
    }

    #[test]
    fn strings_hide_their_contents_from_token_matching() {
        let l = lex(r#"let s = "a.unwrap() // not code"; s.len();"#);
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Str(s) if s.contains("unwrap"))));
        assert!(l.comments.is_empty());
    }

    #[test]
    fn raw_strings_and_escapes() {
        let l = lex(r##"let s = r#"quote " inside"#; let t = "esc\"aped";"##);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs[0], "quote \" inside");
        assert_eq!(strs[1], "esc\\\"aped");
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| matches!(t.kind, TokenKind::Lifetime(_)))
                .count(),
            2
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let l = lex("let a = \"two\nlines\";\nlet b = 1;");
        let b_line = l.tokens.iter().find(|t| t.is_ident("b")).map(|t| t.line);
        assert_eq!(b_line, Some(3));
    }

    #[test]
    fn block_comments_nest() {
        let l = lex("/* outer /* inner */ still */ fn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert!(idents("/* x */ fn f() {}").contains(&"fn".to_string()));
    }
}
