//! Recursive-descent parser for the OCaml declaration sublanguage.
//!
//! The paper's first phase only needs `type` and `external` declarations
//! (§3.1, §5.1): OCaml function bodies are never analyzed. The parser
//! therefore understands declarations precisely and *skips* every other
//! top-level item robustly.

use crate::ast::*;
use crate::lexer::lex;
use crate::token::TokenKind;
use ffisafe_support::scan::{Cursor, Kind};
use ffisafe_support::{FileId, Span};

/// Result of parsing one OCaml source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Declarations found, in source order.
    pub items: Vec<Item>,
    /// Recoverable parse problems (span + message); the parser continues
    /// after recording one.
    pub errors: Vec<(Span, String)>,
}

/// Parses OCaml source text into declarations.
pub fn parse(file: FileId, src: &str) -> ParsedFile {
    let tokens = lex(file, src);
    Parser { cur: Cursor::new(tokens), out: ParsedFile::default() }.run()
}

const STOP_KEYWORDS: &[&str] = &[
    "of",
    "and",
    "type",
    "external",
    "mutable",
    "let",
    "val",
    "module",
    "open",
    "exception",
    "private",
    "rec",
    "end",
    "sig",
    "struct",
    "in",
];

struct Parser {
    cur: Cursor<TokenKind>,
    out: ParsedFile,
}

impl Parser {
    fn run(mut self) -> ParsedFile {
        loop {
            match self.cur.peek() {
                TokenKind::Eof => {
                    self.out.errors = self.cur.take_errors();
                    return self.out;
                }
                k if k.is_ident("type") => {
                    self.cur.bump();
                    self.parse_type_chain();
                }
                k if k.is_ident("external") => {
                    self.cur.bump();
                    self.parse_external();
                }
                _ => self.skip_item(),
            }
        }
    }

    /// Skips one unknown top-level item: advances until the next `type` /
    /// `external` keyword at bracket depth 0 (or EOF).
    fn skip_item(&mut self) {
        self.cur.skip_until(|k| k.is_ident("type") || k.is_ident("external"));
    }

    // ---- type declarations --------------------------------------------------

    fn parse_type_chain(&mut self) {
        loop {
            if let Some(decl) = self.parse_type_decl() {
                self.out.items.push(Item::Type(decl));
            }
            if self.cur.peek().is_ident("and") {
                self.cur.bump();
            } else {
                return;
            }
        }
    }

    fn parse_type_decl(&mut self) -> Option<TypeDecl> {
        let start = self.cur.span();
        // `nonrec` is a modifier we can ignore
        if self.cur.peek().is_ident("nonrec") {
            self.cur.bump();
        }
        // parameters: 'a  or  ('a, 'b)
        let mut params = Vec::new();
        match self.cur.peek().clone() {
            TokenKind::TyVar(v) => {
                self.cur.bump();
                params.push(v);
            }
            TokenKind::LParen => {
                if matches!(self.cur.peek_at(1), TokenKind::TyVar(_)) {
                    self.cur.bump(); // (
                    while let TokenKind::TyVar(v) = self.cur.peek().clone() {
                        self.cur.bump();
                        params.push(v);
                        if !self.cur.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.cur.eat(&TokenKind::RParen);
                }
            }
            _ => {}
        }
        let Some(name) = self.cur.take_ident() else {
            self.cur.error("expected type name");
            self.skip_item();
            return None;
        };
        if !self.cur.eat(&TokenKind::Eq) {
            // abstract type
            return Some(TypeDecl { name, params, kind: TypeDeclKind::Opaque, span: start });
        }
        if self.cur.peek().is_ident("private") {
            self.cur.bump();
        }
        let kind = match self.cur.peek().clone() {
            TokenKind::LBrace => self.parse_record(),
            TokenKind::LBracket => {
                self.cur.skip_group(&TokenKind::LBracket, &TokenKind::RBracket);
                TypeDeclKind::PolyVariant
            }
            TokenKind::Bar | TokenKind::UIdent(_) => self.parse_sum(),
            _ => TypeDeclKind::Alias(self.parse_type_expr()),
        };
        Some(TypeDecl { name, params, kind, span: start })
    }

    fn parse_record(&mut self) -> TypeDeclKind {
        self.cur.bump(); // {
        let mut fields = Vec::new();
        loop {
            if self.cur.eat(&TokenKind::RBrace) || matches!(self.cur.peek(), TokenKind::Eof) {
                break;
            }
            let mutable = if self.cur.peek().is_ident("mutable") {
                self.cur.bump();
                true
            } else {
                false
            };
            let Some(name) = self.cur.take_ident() else {
                self.cur.error("expected record field name");
                self.cur.bump();
                continue;
            };
            if !self.cur.eat(&TokenKind::Colon) {
                self.cur.error("expected `:` in record field");
            }
            let ty = self.parse_type_expr();
            fields.push(Field { name, mutable, ty });
            if !self.cur.eat(&TokenKind::Semi) {
                self.cur.eat(&TokenKind::RBrace);
                break;
            }
        }
        TypeDeclKind::Record(fields)
    }

    fn parse_sum(&mut self) -> TypeDeclKind {
        let mut variants = Vec::new();
        self.cur.eat(&TokenKind::Bar); // optional leading bar
        while let TokenKind::UIdent(name) = self.cur.peek().clone() {
            self.cur.bump();
            let mut args = Vec::new();
            if self.cur.peek().is_ident("of") {
                self.cur.bump();
                args = self.parse_constructor_args();
            }
            variants.push(Variant { name, args });
            if !self.cur.eat(&TokenKind::Bar) {
                break;
            }
        }
        TypeDeclKind::Sum(variants)
    }

    /// Parses `of` arguments: a `*`-separated list where each element is at
    /// postfix (not tuple) level, so `of int * int` yields two args while
    /// `of (int * int)` yields one tuple arg.
    fn parse_constructor_args(&mut self) -> Vec<TypeExpr> {
        let mut args = vec![self.parse_postfix_type()];
        while self.cur.eat(&TokenKind::Star) {
            args.push(self.parse_postfix_type());
        }
        args
    }

    // ---- external declarations ------------------------------------------------

    fn parse_external(&mut self) {
        let start = self.cur.span();
        let ml_name = match self.cur.peek().clone() {
            TokenKind::LIdent(n) => {
                self.cur.bump();
                n
            }
            TokenKind::LParen => {
                // operator name like ( + ); consume to RParen
                self.cur.bump();
                let mut name = String::from("op");
                while !matches!(self.cur.peek(), TokenKind::RParen | TokenKind::Eof) {
                    name.push('_');
                    self.cur.bump();
                }
                self.cur.eat(&TokenKind::RParen);
                name
            }
            _ => {
                self.cur.error("expected external name");
                self.skip_item();
                return;
            }
        };
        if !self.cur.eat(&TokenKind::Colon) {
            self.cur.error("expected `:` in external declaration");
            self.skip_item();
            return;
        }
        let ty = self.parse_type_expr();
        if !self.cur.eat(&TokenKind::Eq) {
            self.cur.error("expected `=` in external declaration");
            self.skip_item();
            return;
        }
        let mut c_names = Vec::new();
        while let TokenKind::Str(s) = self.cur.peek().clone() {
            self.cur.bump();
            // runtime hints like "noalloc"/"float" are attributes, not names
            if s != "noalloc" && s != "float" {
                c_names.push(s);
            }
        }
        if c_names.is_empty() {
            self.cur.error("external declaration has no C function name");
            return;
        }
        let span = start.merge(self.cur.span());
        self.out.items.push(Item::External(ExternalDecl { ml_name, ty, c_names, span }));
    }

    // ---- type expressions -------------------------------------------------------

    /// Arrow-level: handles labels (`x:t ->`, `?x:t ->`) and right
    /// associativity.
    fn parse_type_expr(&mut self) -> TypeExpr {
        // optional argument label
        if matches!(self.cur.peek(), TokenKind::Question)
            && matches!(self.cur.peek_at(1), TokenKind::LIdent(_))
            && matches!(self.cur.peek_at(2), TokenKind::Colon)
        {
            self.cur.bump();
            self.cur.bump();
            self.cur.bump();
            // ?lbl:t means the parameter is `t option` at the C interface
            let inner = self.parse_tuple_type();
            let lhs = TypeExpr::Constr(vec!["option".into()], vec![inner]);
            return self.finish_arrow(lhs);
        }
        if matches!(self.cur.peek(), TokenKind::LIdent(s) if !STOP_KEYWORDS.contains(&s.as_str()))
            && matches!(self.cur.peek_at(1), TokenKind::Colon)
        {
            self.cur.bump();
            self.cur.bump();
        }
        let lhs = self.parse_tuple_type();
        self.finish_arrow(lhs)
    }

    fn finish_arrow(&mut self, lhs: TypeExpr) -> TypeExpr {
        if self.cur.eat(&TokenKind::Arrow) {
            let rhs = self.parse_type_expr();
            TypeExpr::Arrow(Box::new(lhs), Box::new(rhs))
        } else {
            lhs
        }
    }

    fn parse_tuple_type(&mut self) -> TypeExpr {
        let first = self.parse_postfix_type();
        if self.cur.peek() == &TokenKind::Star {
            let mut parts = vec![first];
            while self.cur.eat(&TokenKind::Star) {
                parts.push(self.parse_postfix_type());
            }
            TypeExpr::Tuple(parts)
        } else {
            first
        }
    }

    /// Postfix level: a primary followed by constructor applications
    /// (`int list`, `int list array`).
    fn parse_postfix_type(&mut self) -> TypeExpr {
        let mut base = self.parse_primary_type();
        loop {
            match self.cur.peek().clone() {
                TokenKind::LIdent(s) if !STOP_KEYWORDS.contains(&s.as_str()) => {
                    // `base s` — but only if this is genuinely an application,
                    // not a label (`s :`) of a following arrow
                    if matches!(self.cur.peek_at(1), TokenKind::Colon) {
                        break;
                    }
                    let path = self.parse_lident_path();
                    base = TypeExpr::Constr(path, vec![base]);
                }
                TokenKind::UIdent(_) => {
                    // `base M.t`
                    if !self.lookahead_is_module_type_path() {
                        break;
                    }
                    let path = self.parse_module_type_path();
                    base = TypeExpr::Constr(path, vec![base]);
                }
                _ => break,
            }
        }
        base
    }

    fn parse_primary_type(&mut self) -> TypeExpr {
        match self.cur.peek().clone() {
            TokenKind::TyVar(v) => {
                self.cur.bump();
                TypeExpr::Var(v)
            }
            TokenKind::Other('_') => {
                self.cur.bump();
                TypeExpr::Var("_".into())
            }
            TokenKind::LParen => {
                self.cur.bump();
                let first = self.parse_type_expr();
                if self.cur.eat(&TokenKind::Comma) {
                    // (t1, t2) path
                    let mut args = vec![first];
                    loop {
                        args.push(self.parse_type_expr());
                        if !self.cur.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.cur.eat(&TokenKind::RParen);
                    let path = match self.cur.peek().clone() {
                        TokenKind::LIdent(_) => self.parse_lident_path(),
                        TokenKind::UIdent(_) => self.parse_module_type_path(),
                        _ => {
                            self.cur.error("expected type constructor after (t, …)");
                            vec!["?".into()]
                        }
                    };
                    TypeExpr::Constr(path, args)
                } else {
                    self.cur.eat(&TokenKind::RParen);
                    first
                }
            }
            TokenKind::LIdent(s) if !STOP_KEYWORDS.contains(&s.as_str()) => {
                let path = self.parse_lident_path();
                TypeExpr::Constr(path, Vec::new())
            }
            TokenKind::UIdent(_) => {
                let path = self.parse_module_type_path();
                TypeExpr::Constr(path, Vec::new())
            }
            TokenKind::LBracket => {
                self.cur.skip_group(&TokenKind::LBracket, &TokenKind::RBracket);
                TypeExpr::PolyVariant
            }
            TokenKind::Lt => {
                self.cur.skip_group(&TokenKind::Lt, &TokenKind::Gt);
                TypeExpr::Object
            }
            _ => {
                self.cur.error("expected a type");
                self.cur.bump();
                TypeExpr::named("?")
            }
        }
    }

    /// Parses `ident(.ident)*` starting at an LIdent.
    fn parse_lident_path(&mut self) -> Vec<String> {
        let mut path = Vec::new();
        if let TokenKind::LIdent(s) = self.cur.peek().clone() {
            self.cur.bump();
            path.push(s);
        }
        while self.cur.peek() == &TokenKind::Dot {
            if let TokenKind::LIdent(s) | TokenKind::UIdent(s) = self.cur.peek_at(1).clone() {
                self.cur.bump();
                self.cur.bump();
                path.push(s);
            } else {
                break;
            }
        }
        path
    }

    /// Whether `UIdent (. UIdent)* . LIdent` starts here.
    fn lookahead_is_module_type_path(&self) -> bool {
        let mut n = 0usize;
        loop {
            match self.cur.peek_at(n) {
                TokenKind::UIdent(_) => {}
                _ => return false,
            }
            match self.cur.peek_at(n + 1) {
                TokenKind::Dot => {}
                _ => return false,
            }
            match self.cur.peek_at(n + 2) {
                TokenKind::LIdent(_) => return true,
                TokenKind::UIdent(_) => n += 2,
                _ => return false,
            }
        }
    }

    /// Parses `M(.N)*.t`.
    fn parse_module_type_path(&mut self) -> Vec<String> {
        let mut path = Vec::new();
        loop {
            match self.cur.peek().clone() {
                TokenKind::UIdent(s) => {
                    self.cur.bump();
                    path.push(s);
                    if !self.cur.eat(&TokenKind::Dot) {
                        return path;
                    }
                }
                TokenKind::LIdent(s) => {
                    self.cur.bump();
                    path.push(s);
                    return path;
                }
                _ => {
                    self.cur.error("malformed module path");
                    return path;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> ParsedFile {
        parse(FileId::from_raw(0), src)
    }

    fn only_type(src: &str) -> TypeDecl {
        let pf = parse_src(src);
        assert!(pf.errors.is_empty(), "{:?}", pf.errors);
        match pf.items.into_iter().next().unwrap() {
            Item::Type(d) => d,
            other => panic!("expected type decl, got {other:?}"),
        }
    }

    fn only_external(src: &str) -> ExternalDecl {
        let pf = parse_src(src);
        assert!(pf.errors.is_empty(), "{:?}", pf.errors);
        match pf.items.into_iter().next().unwrap() {
            Item::External(e) => e,
            other => panic!("expected external decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_running_example_sum() {
        let d = only_type("type t = A of int | B | C of int * int | D");
        assert_eq!(d.name, "t");
        let TypeDeclKind::Sum(vs) = &d.kind else { panic!() };
        assert_eq!(vs.len(), 4);
        assert_eq!(vs[0].args.len(), 1);
        assert!(vs[1].is_nullary());
        assert_eq!(vs[2].args.len(), 2);
        assert!(vs[3].is_nullary());
        assert_eq!(d.nullary_count(), Some(2));
    }

    #[test]
    fn parenthesized_constructor_arg_is_single_tuple() {
        let d = only_type("type t = C of (int * int)");
        let TypeDeclKind::Sum(vs) = &d.kind else { panic!() };
        assert_eq!(vs[0].args.len(), 1);
        assert!(matches!(vs[0].args[0], TypeExpr::Tuple(_)));
    }

    #[test]
    fn parses_record_with_mutable() {
        let d = only_type("type r = { a : int; mutable b : string }");
        let TypeDeclKind::Record(fs) = &d.kind else { panic!() };
        assert_eq!(fs.len(), 2);
        assert!(!fs[0].mutable);
        assert!(fs[1].mutable);
    }

    #[test]
    fn parses_alias_and_opaque() {
        let d = only_type("type size = int");
        assert!(matches!(d.kind, TypeDeclKind::Alias(_)));
        let d = only_type("type handle");
        assert!(matches!(d.kind, TypeDeclKind::Opaque));
    }

    #[test]
    fn parses_parametrized_types() {
        let d = only_type("type 'a pair = 'a * 'a");
        assert_eq!(d.params, vec!["a".to_string()]);
        let d = only_type("type ('a, 'b) either = L of 'a | R of 'b");
        assert_eq!(d.params, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn parses_type_and_chain() {
        let pf = parse_src("type a = int and b = string");
        assert_eq!(pf.items.len(), 2);
    }

    #[test]
    fn parses_external_simple() {
        let e = only_external(r#"external f : int -> unit = "ml_f""#);
        assert_eq!(e.ml_name, "f");
        assert_eq!(e.native_c_name(), "ml_f");
        assert_eq!(e.arity(), 1);
    }

    #[test]
    fn parses_external_two_names() {
        let e = only_external(
            r#"external g : int -> int -> int -> int -> int -> int -> int = "g_bc" "g_nat""#,
        );
        assert_eq!(e.c_names, vec!["g_bc".to_string(), "g_nat".to_string()]);
        assert_eq!(e.native_c_name(), "g_nat");
        assert_eq!(e.arity(), 6);
    }

    #[test]
    fn external_noalloc_attribute_ignored() {
        let e = only_external(r#"external h : unit -> int = "ml_h" "noalloc""#);
        assert_eq!(e.c_names, vec!["ml_h".to_string()]);
    }

    #[test]
    fn parses_postfix_applications() {
        let e = only_external(r#"external f : int list -> int array -> unit = "ml_f""#);
        let (params, _) = e.ty.arrow_spine();
        assert_eq!(params[0], &TypeExpr::Constr(vec!["list".into()], vec![TypeExpr::named("int")]));
        assert_eq!(
            params[1],
            &TypeExpr::Constr(vec!["array".into()], vec![TypeExpr::named("int")])
        );
    }

    #[test]
    fn parses_multi_param_constructor() {
        let e = only_external(r#"external f : (int, string) Hashtbl.t -> unit = "ml_f""#);
        let (params, _) = e.ty.arrow_spine();
        match params[0] {
            TypeExpr::Constr(path, args) => {
                assert_eq!(path, &vec!["Hashtbl".to_string(), "t".to_string()]);
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_labelled_arrows() {
        let e = only_external(r#"external f : x:int -> ?y:string -> unit -> unit = "ml_f""#);
        let (params, _) = e.ty.arrow_spine();
        assert_eq!(params.len(), 3);
        // optional argument becomes an option at the FFI boundary
        assert_eq!(
            params[1],
            &TypeExpr::Constr(vec!["option".into()], vec![TypeExpr::named("string")])
        );
    }

    #[test]
    fn poly_variant_type_is_flagged() {
        let e = only_external(r#"external f : [ `A | `B ] -> unit = "ml_f""#);
        let (params, _) = e.ty.arrow_spine();
        assert_eq!(params[0], &TypeExpr::PolyVariant);
        assert!(e.ty.mentions_poly_variant());
    }

    #[test]
    fn skips_let_bindings_between_declarations() {
        let pf = parse_src(
            r#"
            type t = A | B
            let f x = x + 1
            let g = List.map (fun y -> y) [1; 2]
            external h : t -> unit = "ml_h"
            "#,
        );
        assert_eq!(pf.items.len(), 2);
        assert!(pf.errors.is_empty());
    }

    #[test]
    fn skips_module_scaffolding() {
        let pf = parse_src(
            r#"
            open Printf
            module M = struct let x = 1 end
            type u = { v : int }
            "#,
        );
        assert_eq!(pf.items.len(), 1);
    }

    #[test]
    fn recovers_from_bad_external() {
        let pf = parse_src(r#"external broken type ok = int"#);
        assert!(!pf.errors.is_empty());
        assert_eq!(pf.items.len(), 1); // `type ok` still parsed
    }

    #[test]
    fn tuple_in_signature() {
        let e = only_external(r#"external f : int * string -> unit = "ml_f""#);
        let (params, _) = e.ty.arrow_spine();
        assert!(matches!(params[0], TypeExpr::Tuple(_)));
    }

    #[test]
    fn object_type_is_opaque() {
        let e = only_external(r#"external f : < x : int > -> unit = "ml_f""#);
        let (params, _) = e.ty.arrow_spine();
        assert_eq!(params[0], &TypeExpr::Object);
    }
}
