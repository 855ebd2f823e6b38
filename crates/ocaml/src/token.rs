//! Tokens of the OCaml declaration sublanguage.

use ffisafe_support::scan::{self, Kind};

/// A lexed OCaml token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Lowercase identifier or keyword candidate (`type`, `t`, `external`).
    LIdent(String),
    /// Uppercase identifier (constructors, module names).
    UIdent(String),
    /// Type variable `'a`.
    TyVar(String),
    /// String literal (contents, unescaped).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// `=`
    Eq,
    /// `|`
    Bar,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `;;`
    SemiSemi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `->`
    Arrow,
    /// `.`
    Dot,
    /// `?`
    Question,
    /// `~`
    Tilde,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `#`
    Hash,
    /// `` ` `` (polymorphic-variant tag marker)
    Backtick,
    /// Any other punctuation we tolerate while skipping non-declarations.
    Other(char),
    /// End of input.
    Eof,
}

impl Kind for TokenKind {
    fn is_eof(&self) -> bool {
        matches!(self, TokenKind::Eof)
    }

    /// Lowercase identifiers, which include every keyword.
    fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::LIdent(s) => Some(s),
            _ => None,
        }
    }

    fn nesting(&self) -> i32 {
        match self {
            TokenKind::LParen | TokenKind::LBracket | TokenKind::LBrace => 1,
            TokenKind::RParen | TokenKind::RBracket | TokenKind::RBrace => -1,
            _ => 0,
        }
    }
}

/// An OCaml token with its source span.
pub type Token = scan::Token<TokenKind>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_recognition() {
        assert!(TokenKind::LIdent("type".into()).is_ident("type"));
        assert!(!TokenKind::LIdent("typ".into()).is_ident("type"));
        assert!(!TokenKind::UIdent("Type".into()).is_ident("type"));
        assert_eq!(TokenKind::LBracket.nesting(), 1);
        assert_eq!(TokenKind::Lt.nesting(), 0);
    }
}
