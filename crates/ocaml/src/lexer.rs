//! Lexer for the OCaml declaration sublanguage.
//!
//! Handles nested `(* … *)` comments, string literals with escapes, type
//! variables, and the punctuation used by `type` and `external`
//! declarations. Everything else (expression syntax) is lexed permissively
//! into [`TokenKind::Other`] so the parser can skip non-declaration items.

use crate::token::{Token, TokenKind};
use ffisafe_support::scan::Scanner;
use ffisafe_support::FileId;

/// Punctuation, longest first; [`punct_kind`] names each entry's kind.
const PUNCTS: &[&str] = &[
    "||", ";;", "->", "=", "|", "*", "(", ")", "[", "]", "{", "}", ";", ":", ",", "-", ".", "?",
    "~", "<", ">", "#", "`",
];

/// Lexes an entire OCaml source file into tokens (ending with `Eof`).
pub fn lex(file: FileId, src: &str) -> Vec<Token> {
    let mut s = Scanner::new(file, src);
    let mut out = Vec::new();
    loop {
        skip_trivia(&mut s);
        let lo = s.pos();
        let Some(c) = s.peek() else {
            out.push(s.token(TokenKind::Eof, lo));
            return out;
        };
        let kind = match c {
            b'a'..=b'z' | b'_' => TokenKind::LIdent(take_ident(&mut s)),
            b'A'..=b'Z' => TokenKind::UIdent(take_ident(&mut s)),
            b'\'' => {
                // type variable 'a or char literal; we only need tyvars
                s.bump();
                if matches!(s.peek(), Some(b'a'..=b'z' | b'_')) {
                    // excludes primes: `'x'` is a char literal, not tyvar `x'`
                    let v = s.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                    // char literal like 'a' has a closing quote
                    if s.peek() == Some(b'\'') && v.len() == 1 {
                        s.bump();
                        TokenKind::Other('\'')
                    } else {
                        TokenKind::TyVar(v)
                    }
                } else {
                    // char literal such as '\n' or '0'; consume loosely
                    if s.peek() == Some(b'\\') {
                        s.bump();
                    }
                    s.bump();
                    if s.peek() == Some(b'\'') {
                        s.bump();
                    }
                    TokenKind::Other('\'')
                }
            }
            b'"' => TokenKind::Str(take_string(&mut s)),
            b'0'..=b'9' => TokenKind::Int(take_int(&mut s)),
            other => match s.punct(PUNCTS) {
                Some(p) => punct_kind(p),
                None => {
                    s.bump();
                    TokenKind::Other(other as char)
                }
            },
        };
        out.push(s.token(kind, lo));
    }
}

fn punct_kind(p: &str) -> TokenKind {
    match p {
        "=" => TokenKind::Eq,
        "|" => TokenKind::Bar,
        "*" => TokenKind::Star,
        "(" => TokenKind::LParen,
        ")" => TokenKind::RParen,
        "[" => TokenKind::LBracket,
        "]" => TokenKind::RBracket,
        "{" => TokenKind::LBrace,
        "}" => TokenKind::RBrace,
        ";" => TokenKind::Semi,
        ";;" => TokenKind::SemiSemi,
        ":" => TokenKind::Colon,
        "," => TokenKind::Comma,
        "->" => TokenKind::Arrow,
        "." => TokenKind::Dot,
        "?" => TokenKind::Question,
        "~" => TokenKind::Tilde,
        "<" => TokenKind::Lt,
        ">" => TokenKind::Gt,
        "#" => TokenKind::Hash,
        "`" => TokenKind::Backtick,
        // tolerated in skipped expressions
        "||" => TokenKind::Other('|'),
        "-" => TokenKind::Other('-'),
        _ => unreachable!("`{p}` is not in PUNCTS"),
    }
}

fn skip_trivia(s: &mut Scanner) {
    loop {
        match (s.peek(), s.peek_at(1)) {
            (Some(b' ' | b'\t' | b'\r' | b'\n'), _) => s.bump(),
            (Some(b'('), Some(b'*')) => skip_comment(s),
            _ => return,
        }
    }
}

/// Skips a nested `(* … *)` comment, the cursor on its `(*`. String
/// literals inside are lexed, so a `*)` in one does not end the comment.
fn skip_comment(s: &mut Scanner) {
    s.bump_n(2);
    let mut depth = 1usize;
    while depth > 0 {
        match (s.peek(), s.peek_at(1)) {
            (None, _) => return,
            (Some(b'('), Some(b'*')) => {
                s.bump_n(2);
                depth += 1;
            }
            (Some(b'*'), Some(b')')) => {
                s.bump_n(2);
                depth -= 1;
            }
            (Some(b'"'), _) => {
                let _ = take_string(s);
            }
            _ => s.bump(),
        }
    }
}

/// Identifiers may contain primes (`x'`); a prime followed by a letter at
/// the start of a token is a type variable, lexed separately.
fn take_ident(s: &mut Scanner) -> String {
    s.take_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'')
}

fn take_string(s: &mut Scanner) -> String {
    s.bump(); // '"'
    let mut out = String::new();
    loop {
        match s.peek() {
            None | Some(b'"') => {
                s.bump();
                return out;
            }
            Some(b'\\') => {
                s.bump();
                match s.peek() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
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

fn take_int(s: &mut Scanner) -> i64 {
    let text = s.take_while(|c| c.is_ascii_hexdigit() || matches!(c, b'x' | b'X' | b'_'));
    let text = text.replace('_', "");
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).unwrap_or(0)
    } else {
        text.parse().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(FileId::from_raw(0), src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_external_declaration() {
        let ks = kinds(r#"external seek : channel -> int -> unit = "ml_gz_seek""#);
        assert_eq!(
            ks,
            vec![
                TokenKind::LIdent("external".into()),
                TokenKind::LIdent("seek".into()),
                TokenKind::Colon,
                TokenKind::LIdent("channel".into()),
                TokenKind::Arrow,
                TokenKind::LIdent("int".into()),
                TokenKind::Arrow,
                TokenKind::LIdent("unit".into()),
                TokenKind::Eq,
                TokenKind::Str("ml_gz_seek".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_type_declaration_with_variants() {
        let ks = kinds("type t = A of int | B | C of int * int | D");
        assert!(ks.contains(&TokenKind::UIdent("A".into())));
        assert!(ks.contains(&TokenKind::Bar));
        assert!(ks.contains(&TokenKind::Star));
        assert!(ks.contains(&TokenKind::LIdent("of".into())));
    }

    #[test]
    fn nested_comments_are_skipped() {
        let ks = kinds("type (* a (* nested *) comment *) t = int");
        assert_eq!(ks[0], TokenKind::LIdent("type".into()));
        assert_eq!(ks[1], TokenKind::LIdent("t".into()));
    }

    #[test]
    fn tyvars_and_char_literals() {
        let ks = kinds("'a 'b_var");
        assert_eq!(ks[0], TokenKind::TyVar("a".into()));
        assert_eq!(ks[1], TokenKind::TyVar("b_var".into()));
        // char literal should not become a tyvar
        let ks = kinds("'x' 'a");
        assert_eq!(ks[0], TokenKind::Other('\''));
        assert_eq!(ks[1], TokenKind::TyVar("a".into()));
    }

    #[test]
    fn string_escapes() {
        let ks = kinds(r#""a\nb\"c""#);
        assert_eq!(ks[0], TokenKind::Str("a\nb\"c".into()));
    }

    #[test]
    fn semisemi_and_arrow() {
        let ks = kinds(";; ->");
        assert_eq!(ks[0], TokenKind::SemiSemi);
        assert_eq!(ks[1], TokenKind::Arrow);
    }

    #[test]
    fn integers_including_hex() {
        let ks = kinds("42 0x1f 1_000");
        assert_eq!(ks[0], TokenKind::Int(42));
        assert_eq!(ks[1], TokenKind::Int(31));
        assert_eq!(ks[2], TokenKind::Int(1000));
    }

    #[test]
    fn spans_cover_tokens() {
        let toks = lex(FileId::from_raw(0), "type t");
        assert_eq!(toks[0].span.lo, 0);
        assert_eq!(toks[0].span.hi, 4);
        assert_eq!(toks[1].span.lo, 5);
        assert_eq!(toks[1].span.hi, 6);
    }

    #[test]
    fn backtick_for_polymorphic_variants() {
        let ks = kinds("[ `On | `Off ]");
        assert_eq!(ks[0], TokenKind::LBracket);
        assert_eq!(ks[1], TokenKind::Backtick);
    }
}
