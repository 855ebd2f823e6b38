//! Tokens of the Rust-FFI sublanguage.
//!
//! The lexer only needs to be faithful enough to recover item structure,
//! attributes and type syntax; expression bodies are skipped by brace
//! matching in the parser, so literals carry no decoded payload.

use ffisafe_support::scan::{Kind, Token};

/// A lexed Rust token.
#[derive(Clone, Debug, PartialEq)]
pub enum RsTokenKind {
    /// Identifier or keyword (including raw identifiers, `r#fn` → `fn`).
    Ident(String),
    /// Lifetime, without the leading `'` (e.g. `a` for `'a`).
    Lifetime(String),
    /// Integer/float literal text (kept verbatim; suffixes included).
    Number(String),
    /// String literal contents (escapes left verbatim; raw strings
    /// unwrapped).
    Str(String),
    /// Character or byte literal (contents verbatim).
    Char(String),
    /// Punctuation / operator, e.g. `"->"`, `"::"`, `"#"`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl Kind for RsTokenKind {
    fn is_eof(&self) -> bool {
        matches!(self, RsTokenKind::Eof)
    }

    fn ident(&self) -> Option<&str> {
        match self {
            RsTokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn punct(&self) -> Option<&str> {
        match self {
            RsTokenKind::Punct(p) => Some(p),
            _ => None,
        }
    }
}

/// A Rust token with its source span.
pub type RsToken = Token<RsTokenKind>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(RsTokenKind::Ident("extern".into()).is_ident("extern"));
        assert!(!RsTokenKind::Ident("extern".into()).is_ident("fn"));
        assert!(RsTokenKind::Punct("->").is_punct("->"));
        assert_eq!(RsTokenKind::Ident("repr".into()).ident(), Some("repr"));
        assert_eq!(RsTokenKind::Punct("#").ident(), None);
    }
}
