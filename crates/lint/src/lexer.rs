//! A token-level Rust lexer for the determinism linter.
//!
//! The rule engine must never fire inside string literals or comments —
//! a doc comment mentioning `Instant` or a fixture string containing
//! `println!` is not a violation. A regex over raw source cannot make
//! that distinction reliably (raw strings may contain `"`, block
//! comments nest, `'a` is a lifetime while `'x'` is a char literal), so
//! the linter lexes every file into a token stream first and lets each
//! rule pick the token kinds it cares about.
//!
//! The lexer is deliberately lossless about position (every token
//! carries its 1-based start line) and deliberately lossy about
//! anything rules do not need: numeric suffixes, operator composition
//! (`::` arrives as two `:` puncts), and keyword-vs-identifier
//! distinctions are all left to the rule layer.

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`unsafe`, `println`, `std`, ...).
    Ident,
    /// String literal of any flavor: `"..."`, `r#"..."#`, `b"..."`,
    /// `c"..."`. The token text includes the quotes and any prefix.
    Str,
    /// Character or byte literal: `'x'`, `'\n'`, `b'q'`.
    Char,
    /// Lifetime or loop label: `'a`, `'static`, `'outer`.
    Lifetime,
    /// Numeric literal (integers and floats, suffixes included).
    Number,
    /// A single punctuation character (`:`, `!`, `{`, ...).
    Punct,
    /// Line comment (`// ...`), text includes the `//`.
    LineComment,
    /// Block comment (`/* ... */`, nesting honored), text included.
    BlockComment,
}

/// One lexed token: kind, verbatim text, and 1-based start line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The verbatim source text of the token.
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// True for the comment kinds.
    #[must_use]
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True for tokens that are executable code (not comments, not
    /// string/char literal *content*). String literals themselves are
    /// excluded here; rules that inspect format strings ask for
    /// [`TokenKind::Str`] explicitly.
    #[must_use]
    pub(crate) fn is_code(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Ident | TokenKind::Number | TokenKind::Punct
        )
    }
}

/// Lex `source` into a flat token stream.
///
/// The lexer never fails: unexpected bytes become single-character
/// [`TokenKind::Punct`] tokens, and an unterminated string or block
/// comment swallows the rest of the file as that token (the compiler
/// will reject such a file anyway; the linter's job is merely to avoid
/// misclassifying the remainder).
#[must_use]
#[allow(clippy::too_many_lines)]
pub(crate) fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Number of consecutive `#` characters starting at `bytes[at]`.
    fn count_hashes(bytes: &[u8], at: usize) -> usize {
        let mut n = 0;
        while at + n < bytes.len() && bytes[at + n] == b'#' {
            n += 1;
        }
        n
    }

    // Index past the escape at `bytes[at]` (a backslash); a
    // line-continuation escape still ends a line.
    fn skip_escape(bytes: &[u8], at: usize, line: &mut u32) -> usize {
        if bytes.get(at + 1) == Some(&b'\n') {
            *line += 1;
        }
        at + 2
    }

    // Is `word` a raw/byte/C string literal prefix?
    fn is_str_prefix(word: &str) -> bool {
        matches!(word, "r" | "b" | "br" | "rb" | "c" | "cr" | "rc")
    }

    while i < bytes.len() {
        let start = i;
        let start_line = line;
        let ch = bytes[i];

        // Whitespace.
        if ch.is_ascii_whitespace() {
            if ch == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if ch == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::LineComment,
                    text: source[start..i].to_string(),
                    line: start_line,
                });
                continue;
            }
            if bytes[i + 1] == b'*' {
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::BlockComment,
                    text: source[start..i].to_string(),
                    line: start_line,
                });
                continue;
            }
        }

        // Plain string literal.
        if ch == b'"' {
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i = skip_escape(bytes, i, &mut line),
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            tokens.push(Token {
                kind: TokenKind::Str,
                text: source[start..i.min(bytes.len())].to_string(),
                line: start_line,
            });
            continue;
        }

        // Lifetime vs char literal.
        if ch == b'\'' {
            let next = bytes.get(i + 1).copied();
            let after = bytes.get(i + 2).copied();
            let next_is_name = next.is_some_and(|c| c.is_ascii_alphabetic() || c == b'_');
            // `'a` / `'static` (not followed by a closing quote) is a
            // lifetime; `'x'` is a char literal. `'\n'` starts with a
            // backslash, so it is never mistaken for a lifetime.
            if next_is_name && after != Some(b'\'') {
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: source[start..i].to_string(),
                    line: start_line,
                });
                continue;
            }
            // Char literal (possibly escaped, possibly `'\u{1F600}'`).
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'\'' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            tokens.push(Token {
                kind: TokenKind::Char,
                text: source[start..i.min(bytes.len())].to_string(),
                line: start_line,
            });
            continue;
        }

        // Identifier, keyword, or prefixed string literal.
        if ch.is_ascii_alphabetic() || ch == b'_' {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            let word = &source[i..j];

            // Raw / byte / C string literal (`r"..."`, `br#"..."#`, ...).
            if is_str_prefix(word) && j < bytes.len() {
                let hashes = count_hashes(bytes, j);
                let quote_at = j + hashes;
                if quote_at < bytes.len() && bytes[quote_at] == b'"' {
                    if hashes > 0 || word.contains('r') {
                        // Raw string: ends at `"` followed by `hashes` hashes.
                        i = quote_at + 1;
                        loop {
                            if i >= bytes.len() {
                                break;
                            }
                            if bytes[i] == b'\n' {
                                line += 1;
                                i += 1;
                                continue;
                            }
                            if bytes[i] == b'"' && count_hashes(bytes, i + 1) >= hashes {
                                i += 1 + hashes;
                                break;
                            }
                            i += 1;
                        }
                        tokens.push(Token {
                            kind: TokenKind::Str,
                            text: source[start..i.min(bytes.len())].to_string(),
                            line: start_line,
                        });
                        continue;
                    }
                    // `b"..."` / `c"..."`: escaped string body.
                    i = quote_at + 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i = skip_escape(bytes, i, &mut line),
                            b'"' => {
                                i += 1;
                                break;
                            }
                            b'\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        text: source[start..i.min(bytes.len())].to_string(),
                        line: start_line,
                    });
                    continue;
                }
            }
            // Byte char literal `b'q'`.
            if word == "b" && j < bytes.len() && bytes[j] == b'\'' {
                i = j + 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'\'' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Char,
                    text: source[start..i.min(bytes.len())].to_string(),
                    line: start_line,
                });
                continue;
            }

            i = j;
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: word.to_string(),
                line: start_line,
            });
            continue;
        }

        // Numeric literal (loose: digits plus alphanumerics, `_`, and
        // a decimal point — suffixes and bases ride along).
        if ch.is_ascii_digit() {
            let mut j = i;
            while j < bytes.len()
                && (bytes[j].is_ascii_alphanumeric()
                    || bytes[j] == b'_'
                    || (bytes[j] == b'.' && j + 1 < bytes.len() && bytes[j + 1].is_ascii_digit()))
            {
                j += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: source[i..j].to_string(),
                line: start_line,
            });
            i = j;
            continue;
        }

        // Everything else: one punct per character.
        // (Multi-byte UTF-8 inside code is rare; emit the full scalar.)
        let char_len = source[i..].chars().next().map_or(1, char::len_utf8);
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: source[i..i + char_len].to_string(),
            line: start_line,
        });
        i += char_len;
    }

    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn raw_string_with_quotes_and_macro() {
        let src = "let s = r#\"println!(\"x\")\"#;";
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("println")));
        // The `println` inside the raw string must NOT surface as an
        // identifier token.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "println"));
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let src = "/* outer /* inner */ still outer */ fn x() {}";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[0].1.contains("inner"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "fn"));
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "two 'a lifetimes");
        assert_eq!(chars.len(), 2, "'x' and '\\n' char literals");
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\"two\nline\"\nc");
        let a = toks.iter().find(|t| t.text == "a").unwrap();
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        let c = toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!((a.line, b.line), (1, 2));
        assert_eq!(c.line, 5, "multi-line string advanced the counter");
    }

    #[test]
    fn line_continuation_escape_still_ends_a_line() {
        let toks = lex("\"one \\\n two\"\nk b\"x\\\ny\"\nz");
        let k = toks.iter().find(|t| t.text == "k").unwrap();
        let z = toks.iter().find(|t| t.text == "z").unwrap();
        assert_eq!((k.line, z.line), (3, 5));
    }

    #[test]
    fn byte_and_c_strings_are_strings() {
        let toks = kinds("let a = b\"bytes\"; let c = c\"cstr\"; let r = br#\"raw\"#;");
        let strs = toks.iter().filter(|(k, _)| *k == TokenKind::Str).count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn unterminated_string_swallows_tail_without_panic() {
        let toks = lex("let s = \"never closed");
        assert_eq!(toks.last().unwrap().kind, TokenKind::Str);
    }
}
