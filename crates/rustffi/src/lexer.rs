//! Lexer for the Rust-FFI sublanguage.
//!
//! Handles line and (nested) block comments, raw identifiers, raw strings,
//! byte/char literals and lifetimes — enough that the item-level parser can
//! skip function bodies by brace matching without being fooled by braces
//! inside literals or comments.

use crate::token::{RsToken, RsTokenKind};
use ffisafe_support::scan::Scanner;
use ffisafe_support::FileId;

/// Multi-character punctuation, longest first.
const PUNCTS: &[&str] = &[
    "..=", "...", "<<=", ">>=", "->", "=>", "::", "..", "&&", "||", "<<", ">>", "<=", ">=", "==",
    "!=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "#", "+", "-", "*", "/", "%", "=", "<",
    ">", "!", "~", "&", "|", "^", "?", "@", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}", "$",
];

/// Lexes Rust source text into tokens (ending with `Eof`).
pub fn lex(file: FileId, src: &str) -> Vec<RsToken> {
    let mut s = Scanner::new(file, src);
    let mut out = Vec::new();
    loop {
        skip_trivia(&mut s);
        let lo = s.pos();
        let Some(c) = s.peek() else {
            out.push(s.token(RsTokenKind::Eof, lo));
            return out;
        };
        let kind = match c {
            b'r' | b'b' if is_raw_or_byte_string(&s) => take_raw_or_byte_string(&mut s),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => RsTokenKind::Ident(take_ident(&mut s)),
            b'0'..=b'9' => RsTokenKind::Number(take_number(&mut s)),
            b'"' => {
                s.bump(); // opening quote
                RsTokenKind::Str(quoted(&mut s, b'"'))
            }
            b'\'' => take_lifetime_or_char(&mut s),
            _ => match s.punct(PUNCTS) {
                Some(p) => RsTokenKind::Punct(p),
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
            (Some(c), _) if c.is_ascii_whitespace() => s.bump(),
            (Some(b'/'), Some(b'/')) => s.line_comment(),
            (Some(b'/'), Some(b'*')) => s.block_comment(true),
            _ => return,
        }
    }
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn take_ident(s: &mut Scanner) -> String {
    let ident = s.take_while(is_ident_byte);
    // `r#type` lexes as a raw identifier meaning `type`-the-name; strip
    // the sigil so the parser never confuses it with the keyword (raw
    // identifiers are never keywords).
    if ident == "r" && s.peek() == Some(b'#') && s.peek_at(1).is_some_and(is_ident_byte) {
        s.bump(); // '#'
        return s.take_while(is_ident_byte);
    }
    ident
}

fn take_number(s: &mut Scanner) -> String {
    let start = s.pos();
    // Digits, radix prefixes/hex digits, `_` separators, exponent signs
    // and type suffixes all fall in this set; the parser only ever looks
    // at array-length literals, so precision is not required here.
    while let Some(c) = s.peek() {
        if !(is_ident_byte(c) || c == b'.') || (c == b'.' && s.peek_at(1) == Some(b'.')) {
            break; // also stops a `0..n` range before its `..`
        }
        s.bump();
    }
    s.text(start)
}

/// A quoted literal's contents (escapes verbatim) up to its closing
/// `quote`, which is stepped over; the cursor just past the opening one.
fn quoted(s: &mut Scanner, quote: u8) -> String {
    let start = s.pos();
    while let Some(c) = s.peek() {
        if c == quote {
            break;
        }
        s.bump();
        if c == b'\\' && s.peek().is_some() {
            s.bump();
        }
    }
    let text = s.text(start);
    if s.peek() == Some(quote) {
        s.bump();
    }
    text
}

/// Whether the cursor sits on `r"`, `r#`-string, `b"`, `br"` or `b'`.
fn is_raw_or_byte_string(s: &Scanner) -> bool {
    match (s.peek(), s.peek_at(1)) {
        (Some(b'r'), Some(b'"')) => true,
        (Some(b'r'), Some(b'#')) => {
            // distinguish r"..."/r#"..."# from raw identifiers r#name
            let mut i = 1;
            while s.peek_at(i) == Some(b'#') {
                i += 1;
            }
            s.peek_at(i) == Some(b'"')
        }
        (Some(b'b'), Some(b'"')) | (Some(b'b'), Some(b'\'')) => true,
        (Some(b'b'), Some(b'r')) => matches!(s.peek_at(2), Some(b'"') | Some(b'#')),
        _ => false,
    }
}

fn take_raw_or_byte_string(s: &mut Scanner) -> RsTokenKind {
    if s.peek() == Some(b'b') {
        s.bump();
    }
    if s.peek() == Some(b'\'') {
        return take_lifetime_or_char(s); // byte literal b'x'
    }
    if s.peek() != Some(b'r') {
        s.bump(); // opening quote
        return RsTokenKind::Str(quoted(s, b'"'));
    }
    s.bump();
    let hashes = s.take_while(|c| c == b'#').len();
    s.bump(); // opening quote
    let closer: Vec<u8> = std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
    let start = s.pos();
    while s.peek().is_some() && !s.starts_with(&closer) {
        s.bump();
    }
    let text = s.text(start);
    if s.starts_with(&closer) {
        s.bump_n(closer.len());
    }
    RsTokenKind::Str(text)
}

fn take_lifetime_or_char(s: &mut Scanner) -> RsTokenKind {
    // A lifetime is `'ident` NOT followed by a closing quote ('a' is a
    // char literal, 'a a lifetime).
    s.bump(); // opening '
    if s.peek().is_some_and(|c| c.is_ascii_alphabetic() || c == b'_') {
        let mut i = 0;
        while s.peek_at(i).is_some_and(is_ident_byte) {
            i += 1;
        }
        if s.peek_at(i) != Some(b'\'') {
            return RsTokenKind::Lifetime(s.take_while(is_ident_byte));
        }
    }
    RsTokenKind::Char(quoted(s, b'\''))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffisafe_support::scan::Kind;

    fn kinds(src: &str) -> Vec<RsTokenKind> {
        lex(FileId::from_raw(0), src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_puncts_and_arrow() {
        let ks = kinds("extern \"C\" fn f(x: *const u8) -> i32;");
        assert!(ks.contains(&RsTokenKind::Ident("extern".into())));
        assert!(ks.contains(&RsTokenKind::Str("C".into())));
        assert!(ks.contains(&RsTokenKind::Punct("->")));
        assert!(ks.contains(&RsTokenKind::Punct("*")));
    }

    #[test]
    fn comments_are_trivia_even_nested() {
        let ks = kinds("a /* x /* y */ z */ b // tail\nc");
        let idents: Vec<_> = ks.iter().filter_map(|k| k.ident().map(String::from)).collect();
        assert_eq!(idents, ["a", "b", "c"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ks = kinds("&'a str '\\n' 'x'");
        assert!(ks.contains(&RsTokenKind::Lifetime("a".into())));
        assert!(ks.contains(&RsTokenKind::Char("\\n".into())));
        assert!(ks.contains(&RsTokenKind::Char("x".into())));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let ks = kinds(r###"r#"{ not a brace }"# r#type b"bytes""###);
        assert!(ks.contains(&RsTokenKind::Str("{ not a brace }".into())));
        assert!(ks.contains(&RsTokenKind::Ident("type".into())));
        assert!(ks.contains(&RsTokenKind::Str("bytes".into())));
    }

    #[test]
    fn paths_and_generics() {
        let ks = kinds("std::os::raw::c_int Option<&T>");
        assert!(ks.contains(&RsTokenKind::Punct("::")));
        assert!(ks.contains(&RsTokenKind::Punct("<")));
        assert!(ks.contains(&RsTokenKind::Punct("&")));
    }
}
