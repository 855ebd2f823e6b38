//! The lexing and parsing toolkit the three frontends share.
//!
//! The OCaml, C and Rust frontends each keep their own token kinds and
//! grammar, but they move over their input the same way:
//!
//! * [`Scanner`] is the byte cursor every lexer runs on: lookahead,
//!   `eat_while`, span-carrying [`Token`] construction, `//` and `/* */`
//!   comments, and a longest-match punctuation lookup over a table.
//! * [`Token`] is the one token shape: a language's [`Kind`] plus a span.
//! * [`Cursor`] is the token cursor every parser runs on: clamped
//!   lookahead over a stream that ends in a sticky end-of-input token,
//!   balanced-group and depth-counting skips for error recovery, and the
//!   `(span, message)` error list every parsed unit carries.
//!
//! The frontends' own lexers and parsers (`ffisafe_cil`, `ffisafe_ocaml`,
//! `ffisafe_rustffi`) are the worked examples; the unit tests below drive
//! a toy language through both halves.

use crate::{FileId, Span};

/// A lexed token: a language's kind and its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token<K> {
    /// Kind and payload.
    pub kind: K,
    /// Source span.
    pub span: Span,
}

/// A byte cursor over one source file, producing [`Token`]s with spans.
///
/// The position may run past the end of the input (a lexer that steps
/// over a quote or escape at end of input does); every read then sees end
/// of input.
pub struct Scanner<'a> {
    file: FileId,
    src: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `src`, which lives in `file`.
    pub fn new(file: FileId, src: &'a str) -> Self {
        Scanner { file, src: src.as_bytes(), pos: 0 }
    }

    /// The current byte offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The current byte, if any.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.peek_at(0)
    }

    /// The byte `n` places ahead of the current one, if any.
    #[inline]
    pub fn peek_at(&self, n: usize) -> Option<u8> {
        self.src.get(self.pos + n).copied()
    }

    /// Steps over one byte.
    #[inline]
    pub fn bump(&mut self) {
        self.pos += 1;
    }

    /// Steps over `n` bytes.
    #[inline]
    pub fn bump_n(&mut self, n: usize) {
        self.pos += n;
    }

    /// Whether the input continues with `s` at the current position.
    #[inline]
    pub fn starts_with(&self, s: &[u8]) -> bool {
        self.src.get(self.pos..).is_some_and(|rest| rest.starts_with(s))
    }

    /// Steps over every byte satisfying `pred`.
    pub fn eat_while(&mut self, pred: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
    }

    /// Steps over every byte satisfying `pred` and returns them as text.
    pub fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> String {
        let start = self.pos;
        self.eat_while(pred);
        self.text(start)
    }

    /// The input from `start` up to the current position, as (lossy)
    /// UTF-8 text.
    pub fn text(&self, start: usize) -> String {
        let end = self.pos.min(self.src.len());
        String::from_utf8_lossy(&self.src[start.min(end)..end]).into_owned()
    }

    /// A token of `kind` spanning from `lo` to the current position.
    pub fn token<K>(&self, kind: K, lo: usize) -> Token<K> {
        Token { kind, span: Span::new(self.file, lo as u32, self.pos as u32) }
    }

    /// Steps over a line comment, up to (not over) the next newline.
    pub fn line_comment(&mut self) {
        self.eat_while(|c| c != b'\n');
    }

    /// Steps over a `/* … */` comment, the cursor on its `/*`. With
    /// `nested`, every inner `/*` needs its own `*/`. An unterminated
    /// comment runs to end of input.
    pub fn block_comment(&mut self, nested: bool) {
        self.bump_n(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (None, _) => return,
                (Some(b'/'), Some(b'*')) if nested => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                _ => self.bump(),
            }
        }
    }

    /// Steps over the first entry of `table` the input continues with and
    /// returns it; list longer punctuation first for a longest match.
    pub fn punct(&mut self, table: &[&'static str]) -> Option<&'static str> {
        let rest = self.src.get(self.pos..)?;
        let first = *rest.first()?;
        let p =
            *table.iter().find(|p| p.as_bytes()[0] == first && rest.starts_with(p.as_bytes()))?;
        self.bump_n(p.len());
        Some(p)
    }
}

/// What [`Cursor`] needs to know about a language's token kinds.
pub trait Kind: PartialEq {
    /// Whether this is the end-of-input token every stream ends with.
    fn is_eof(&self) -> bool;

    /// The identifier (or keyword) text, if this is one.
    fn ident(&self) -> Option<&str>;

    /// The punctuation text, for languages that lex punctuation as text.
    fn punct(&self) -> Option<&str> {
        None
    }

    /// Whether this is the identifier or keyword `kw`.
    fn is_ident(&self, kw: &str) -> bool {
        self.ident() == Some(kw)
    }

    /// Whether this is the punctuation `p`.
    fn is_punct(&self, p: &str) -> bool {
        self.punct() == Some(p)
    }

    /// `1` for `(`, `[` and `{`, `-1` for their closers and `0` otherwise:
    /// the depth [`Cursor::skip_until`] counts.
    fn nesting(&self) -> i32 {
        match self.punct() {
            Some("(" | "[" | "{") => 1,
            Some(")" | "]" | "}") => -1,
            _ => 0,
        }
    }
}

/// A token cursor with a sticky end of input, and the parse errors
/// recorded so far.
pub struct Cursor<K> {
    toks: Vec<Token<K>>,
    pos: usize,
    errors: Vec<(Span, String)>,
}

impl<K: Kind> Cursor<K> {
    /// A cursor on the first of `toks`.
    ///
    /// # Panics
    ///
    /// Panics unless `toks` ends with the end-of-input token.
    pub fn new(toks: Vec<Token<K>>) -> Self {
        assert!(toks.last().is_some_and(|t| t.kind.is_eof()), "token stream must end at EOF");
        Cursor { toks, pos: 0, errors: Vec::new() }
    }

    /// The current token's kind.
    pub fn peek(&self) -> &K {
        &self.toks[self.pos].kind
    }

    /// The kind `n` tokens ahead; past the end, the end-of-input token.
    pub fn peek_at(&self, n: usize) -> &K {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].kind
    }

    /// The current token's span.
    pub fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Whether the cursor is on the end-of-input token.
    pub fn at_eof(&self) -> bool {
        self.peek().is_eof()
    }

    /// Moves to the next token; the end-of-input token is never left.
    pub fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// Steps over the current token if it satisfies `pred`.
    fn eat_if(&mut self, pred: impl Fn(&K) -> bool) -> bool {
        let hit = pred(self.peek());
        if hit {
            self.bump();
        }
        hit
    }

    /// Steps over the current token if it is `kind`.
    pub fn eat(&mut self, kind: &K) -> bool {
        self.eat_if(|k| k == kind)
    }

    /// Steps over the current token if it is the punctuation `p`.
    pub fn eat_punct(&mut self, p: &str) -> bool {
        self.eat_if(|k| k.is_punct(p))
    }

    /// Steps over the current token if it is the identifier `kw`.
    pub fn eat_ident(&mut self, kw: &str) -> bool {
        self.eat_if(|k| k.is_ident(kw))
    }

    /// Steps over the current token if it is an identifier, returning it.
    pub fn take_ident(&mut self) -> Option<String> {
        let s = self.peek().ident()?.to_string();
        self.bump();
        Some(s)
    }

    /// A position to [`Cursor::reset`] to after a speculative parse.
    pub fn mark(&self) -> usize {
        self.pos
    }

    /// Returns to a [`Cursor::mark`]; errors recorded since stay.
    pub fn reset(&mut self, mark: usize) {
        self.pos = mark;
    }

    /// Replaces the current token's kind, keeping its span (splitting
    /// `>>` or `&&` into the single token a grammar wants).
    pub fn rewrite(&mut self, kind: K) {
        self.toks[self.pos].kind = kind;
    }

    /// Records a parse error at the current token.
    pub fn error(&mut self, msg: impl Into<String>) {
        let span = self.span();
        self.error_at(span, msg);
    }

    /// Records a parse error at `span`.
    pub fn error_at(&mut self, span: Span, msg: impl Into<String>) {
        self.errors.push((span, msg.into()));
    }

    /// The parse errors recorded so far, in order.
    pub fn take_errors(&mut self) -> Vec<(Span, String)> {
        std::mem::take(&mut self.errors)
    }

    /// Steps over a balanced `open … close` group, the cursor on `open`;
    /// other delimiters are not counted. An unclosed group runs to end of
    /// input.
    pub fn skip_group(&mut self, open: &K, close: &K) {
        self.bump();
        self.close_group(open, close);
    }

    /// Steps to just past the `close` ending a group whose `open` is
    /// already behind the cursor; nested `open … close` pairs are skipped
    /// whole.
    pub fn close_group(&mut self, open: &K, close: &K) {
        let mut depth = 1usize;
        while depth > 0 && !self.at_eof() {
            if self.peek() == open {
                depth += 1;
            } else if self.peek() == close {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Advances to the first token satisfying `stop` outside every group
    /// (or to end of input) without consuming it. Every [`Kind::nesting`]
    /// opener deepens and every closer, matched or not, undoes one level,
    /// so after an unmatched closer the next `stop` still counts.
    pub fn skip_until(&mut self, stop: impl Fn(&K) -> bool) {
        let mut depth = 0i32;
        loop {
            let k = self.peek();
            let step = k.nesting();
            if k.is_eof() || (step == 0 && depth <= 0 && stop(k)) {
                return;
            }
            depth += step;
            self.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum K {
        Word(String),
        Punct(&'static str),
        Eof,
    }

    impl Kind for K {
        fn is_eof(&self) -> bool {
            *self == K::Eof
        }
        fn ident(&self) -> Option<&str> {
            match self {
                K::Word(w) => Some(w),
                _ => None,
            }
        }
        fn punct(&self) -> Option<&str> {
            match self {
                K::Punct(p) => Some(p),
                _ => None,
            }
        }
    }

    const PUNCTS: &[&str] = &["<<", "(", ")", "[", "]", "{", "}", ";", ",", "<"];

    fn lex(src: &str) -> Vec<Token<K>> {
        let mut s = Scanner::new(FileId::from_raw(0), src);
        let mut out = Vec::new();
        loop {
            s.eat_while(|c| c == b' ');
            let lo = s.pos();
            let kind = match s.peek() {
                None => {
                    out.push(s.token(K::Eof, lo));
                    return out;
                }
                Some(c) if c.is_ascii_alphanumeric() => {
                    K::Word(s.take_while(|c| c.is_ascii_alphanumeric()))
                }
                Some(_) => match s.punct(PUNCTS) {
                    Some(p) => K::Punct(p),
                    None => {
                        s.bump();
                        continue;
                    }
                },
            };
            out.push(s.token(kind, lo));
        }
    }

    fn kinds(src: &str) -> Vec<K> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn scanner_spans_and_longest_match() {
        let toks = lex("ab << <x");
        let spans: Vec<_> = toks.iter().map(|t| (t.span.lo, t.span.hi)).collect();
        assert_eq!(spans, [(0, 2), (3, 5), (6, 7), (7, 8), (8, 8)]);
        assert_eq!(toks[1].kind, K::Punct("<<"));
        assert_eq!(kinds("a ? b").len(), 3, "unknown bytes are the lexer's call");
    }

    #[test]
    fn comments_nested_or_not() {
        let skip = |src: &str, nested| {
            let mut s = Scanner::new(FileId::from_raw(0), src);
            s.block_comment(nested);
            s.take_while(|_| true)
        };
        assert_eq!(skip("/* a /* b */ c */ d", false), " c */ d");
        assert_eq!(skip("/* a /* b */ c */ d", true), " d");
        assert_eq!(skip("/* open", true), "");
        let mut s = Scanner::new(FileId::from_raw(0), "// x\ny");
        s.line_comment();
        assert_eq!(s.peek(), Some(b'\n'));
    }

    #[test]
    fn text_past_the_end_is_empty() {
        let mut s = Scanner::new(FileId::from_raw(0), "ab");
        s.bump_n(3);
        assert_eq!(s.peek(), None);
        assert_eq!(s.text(3), "");
        assert!(!s.starts_with(b"a"));
    }

    #[test]
    fn cursor_lookahead_clamps_and_eof_is_sticky() {
        let mut c = Cursor::new(lex("a b"));
        assert!(c.peek_at(1).is_ident("b"));
        assert!(c.peek_at(9).is_eof());
        for _ in 0..5 {
            c.bump();
        }
        assert!(c.at_eof());
        assert_eq!(c.span().lo, 3);
        c.error("late");
        assert_eq!(c.take_errors(), [(c.span(), "late".to_string())]);
    }

    #[test]
    fn eat_take_and_rewrite() {
        let mut c = Cursor::new(lex("x ; << y"));
        assert!(!c.eat_ident("y"));
        assert_eq!(c.take_ident().as_deref(), Some("x"));
        assert!(c.take_ident().is_none());
        assert!(c.eat_punct(";"));
        c.rewrite(K::Punct("<"));
        assert!(c.eat(&K::Punct("<")));
        let m = c.mark();
        assert!(c.eat_ident("y"));
        c.reset(m);
        assert!(c.peek().is_ident("y"));
    }

    #[test]
    fn skip_group_counts_only_its_own_delimiter() {
        let mut c = Cursor::new(lex("{ ( } x"));
        c.skip_group(&K::Punct("{"), &K::Punct("}"));
        assert!(c.peek().is_ident("x"));
        let mut c = Cursor::new(lex("[ [ ] x"));
        c.skip_group(&K::Punct("["), &K::Punct("]"));
        assert!(c.at_eof(), "an unclosed group runs to end of input");
    }

    #[test]
    fn skip_until_counts_mixed_delimiters() {
        let mut c = Cursor::new(lex("a ( ; [ ; ] ) ; b"));
        c.skip_until(|k| k.is_punct(";"));
        assert_eq!(c.span().lo, 14);
        let mut c = Cursor::new(lex(") ; x"));
        c.skip_until(|k| k.is_punct(";"));
        assert_eq!(c.span().lo, 2, "an unmatched closer leaves depth below 0");
        let mut c = Cursor::new(lex("( ;"));
        c.skip_until(|k| k.is_punct(";"));
        assert!(c.at_eof());
    }
}
