//! Tokens of the C glue-code sublanguage.

use ffisafe_support::scan::{Kind, Token};

/// A lexed C token.
#[derive(Clone, Debug, PartialEq)]
pub enum CTokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// String literal (unescaped contents).
    Str(String),
    /// Character literal (its value).
    Char(i64),
    /// Punctuation / operator, e.g. `"+"`, `"->"`, `"<<="`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl Kind for CTokenKind {
    fn is_eof(&self) -> bool {
        matches!(self, CTokenKind::Eof)
    }

    fn ident(&self) -> Option<&str> {
        match self {
            CTokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn punct(&self) -> Option<&str> {
        match self {
            CTokenKind::Punct(p) => Some(p),
            _ => None,
        }
    }
}

/// A C token with its source span.
pub type CToken = Token<CTokenKind>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(CTokenKind::Ident("value".into()).is_ident("value"));
        assert!(!CTokenKind::Ident("value".into()).is_ident("int"));
        assert!(CTokenKind::Punct("->").is_punct("->"));
        assert_eq!(CTokenKind::Ident("x".into()).ident(), Some("x"));
        assert_eq!(CTokenKind::Int(3).ident(), None);
        assert_eq!(CTokenKind::Punct("{").nesting(), 1);
        assert!(CTokenKind::Eof.is_eof());
    }
}
