//! Lexer for the C glue-code sublanguage.
//!
//! Preprocessor directives (`#include`, `#define`, …) are skipped line-wise
//! (with continuation handling); the FFI macros the analysis cares about
//! (`Val_int`, `CAMLparam1`, …) appear as ordinary identifiers because glue
//! code *uses* them rather than defining them.

use crate::token::{CToken, CTokenKind};
use ffisafe_support::scan::Scanner;
use ffisafe_support::FileId;

/// Multi-character punctuation, longest first.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "&=", "|=", "^=", "+", "-", "*", "/", "%", "=", "<", ">", "!", "~",
    "&", "|", "^", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
];

/// Lexes C source text into tokens (ending with `Eof`).
pub fn lex(file: FileId, src: &str) -> Vec<CToken> {
    let mut s = Scanner::new(file, src);
    let mut out = Vec::new();
    loop {
        skip_trivia(&mut s);
        let lo = s.pos();
        let Some(c) = s.peek() else {
            out.push(s.token(CTokenKind::Eof, lo));
            return out;
        };
        let kind = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                CTokenKind::Ident(s.take_while(|c| c.is_ascii_alphanumeric() || c == b'_'))
            }
            b'0'..=b'9' => take_number(&mut s),
            b'"' => CTokenKind::Str(take_string(&mut s)),
            b'\'' => CTokenKind::Char(take_char(&mut s)),
            _ => match s.punct(PUNCTS) {
                Some(p) => CTokenKind::Punct(p),
                None => {
                    s.bump();
                    continue; // unknown byte: drop it
                }
            },
        };
        out.push(s.token(kind, lo));
    }
}

fn skip_trivia(s: &mut Scanner) {
    loop {
        match (s.peek(), s.peek_at(1)) {
            (Some(b' ' | b'\t' | b'\r' | b'\n'), _) => s.bump(),
            (Some(b'/'), Some(b'/')) => s.line_comment(),
            (Some(b'/'), Some(b'*')) => s.block_comment(false),
            // preprocessor line, honoring backslash continuations
            (Some(b'#'), _) => loop {
                match s.peek() {
                    None => return,
                    Some(b'\\') => {
                        s.bump();
                        if s.peek() == Some(b'\r') {
                            s.bump();
                        }
                        if s.peek() == Some(b'\n') {
                            s.bump();
                        }
                    }
                    Some(b'\n') => {
                        s.bump();
                        break;
                    }
                    _ => s.bump(),
                }
            },
            _ => return,
        }
    }
}

fn take_number(s: &mut Scanner) -> CTokenKind {
    let start = s.pos();
    let mut is_float = false;
    if s.peek() == Some(b'0') && matches!(s.peek_at(1), Some(b'x') | Some(b'X')) {
        s.bump_n(2);
        s.eat_while(|c| c.is_ascii_hexdigit());
    } else {
        s.eat_while(|c| c.is_ascii_digit());
        if s.peek() == Some(b'.') && matches!(s.peek_at(1), Some(b'0'..=b'9')) {
            is_float = true;
            s.bump();
            s.eat_while(|c| c.is_ascii_digit());
        }
        // 1e9 style
        if matches!(s.peek(), Some(b'e' | b'E'))
            && !is_float
            && matches!(s.peek_at(1), Some(b'0'..=b'9' | b'+' | b'-'))
        {
            is_float = true;
            s.bump();
            if matches!(s.peek(), Some(b'+' | b'-')) {
                s.bump();
            }
            s.eat_while(|c| c.is_ascii_digit());
        }
    }
    // suffixes
    while let Some(c @ (b'u' | b'U' | b'l' | b'L' | b'f' | b'F')) = s.peek() {
        is_float |= matches!(c, b'f' | b'F');
        s.bump();
    }
    let text = s.text(start);
    let text = text.trim_end_matches(['u', 'U', 'l', 'L', 'f', 'F']);
    if is_float {
        CTokenKind::Float(text.parse().unwrap_or(0.0))
    } else if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        CTokenKind::Int(i64::from_str_radix(hex, 16).unwrap_or(0))
    } else if text.len() > 1 && text.starts_with('0') {
        CTokenKind::Int(i64::from_str_radix(&text[1..], 8).unwrap_or(0))
    } else {
        CTokenKind::Int(text.parse().unwrap_or(0))
    }
}

fn take_string(s: &mut Scanner) -> String {
    s.bump(); // "
    let mut out = String::new();
    loop {
        match s.peek() {
            None => return out,
            Some(b'"') => {
                s.bump();
                return out;
            }
            Some(b'\\') => {
                s.bump();
                match s.peek() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'0') => out.push('\0'),
                    Some(c) => out.push(c as char),
                    None => {}
                }
                s.bump();
            }
            Some(c) => {
                out.push(c as char);
                s.bump();
            }
        }
    }
}

fn take_char(s: &mut Scanner) -> i64 {
    s.bump(); // '
    let v = match s.peek() {
        Some(b'\\') => {
            s.bump();
            let v = match s.peek() {
                Some(b'n') => b'\n' as i64,
                Some(b't') => b'\t' as i64,
                Some(b'0') => 0,
                Some(c) => c as i64,
                None => 0,
            };
            s.bump();
            v
        }
        Some(c) => {
            s.bump();
            c as i64
        }
        None => 0,
    };
    if s.peek() == Some(b'\'') {
        s.bump();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<CTokenKind> {
        lex(FileId::from_raw(0), src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_glue_function_header() {
        let ks = kinds("value ml_add(value a, value b) {");
        assert_eq!(ks[0], CTokenKind::Ident("value".into()));
        assert_eq!(ks[1], CTokenKind::Ident("ml_add".into()));
        assert_eq!(ks[2], CTokenKind::Punct("("));
        assert!(ks.contains(&CTokenKind::Punct("{")));
    }

    #[test]
    fn skips_preprocessor_and_comments() {
        let ks = kinds(
            "#include <caml/mlvalues.h>\n// line comment\n/* block */ int x; #define A \\\n  1\nlong y;",
        );
        assert_eq!(ks[0], CTokenKind::Ident("int".into()));
        assert_eq!(ks[4], CTokenKind::Ident("y".into()));
    }

    #[test]
    fn numbers_in_all_bases() {
        let ks = kinds("42 0x2A 052 1.5 2e3 7L 3UL");
        assert_eq!(ks[0], CTokenKind::Int(42));
        assert_eq!(ks[1], CTokenKind::Int(42));
        assert_eq!(ks[2], CTokenKind::Int(42));
        assert_eq!(ks[3], CTokenKind::Float(1.5));
        assert_eq!(ks[4], CTokenKind::Float(2000.0));
        assert_eq!(ks[5], CTokenKind::Int(7));
        assert_eq!(ks[6], CTokenKind::Int(3));
    }

    #[test]
    fn multichar_punct_longest_match() {
        let ks = kinds("a->b <<= c >> d != e");
        assert!(ks.contains(&CTokenKind::Punct("->")));
        assert!(ks.contains(&CTokenKind::Punct("<<=")));
        assert!(ks.contains(&CTokenKind::Punct(">>")));
        assert!(ks.contains(&CTokenKind::Punct("!=")));
    }

    #[test]
    fn strings_and_chars() {
        let ks = kinds(r#""hello\n" 'x' '\n'"#);
        assert_eq!(ks[0], CTokenKind::Str("hello\n".into()));
        assert_eq!(ks[1], CTokenKind::Char('x' as i64));
        assert_eq!(ks[2], CTokenKind::Char('\n' as i64));
    }

    #[test]
    fn spans_track_positions() {
        let toks = lex(FileId::from_raw(0), "int x");
        assert_eq!((toks[0].span.lo, toks[0].span.hi), (0, 3));
        assert_eq!((toks[1].span.lo, toks[1].span.hi), (4, 5));
    }
}
