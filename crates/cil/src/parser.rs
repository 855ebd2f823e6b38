//! Recursive-descent parser for the C glue-code sublanguage.
//!
//! Covers the constructs OCaml FFI glue actually uses: function
//! definitions over `value`, locals, full expression syntax with the usual
//! precedence, `if`/`while`/`do`/`for`/`switch`/`goto`, casts, and the
//! `CAMLparam`/`CAMLlocal`/`CAMLreturn` macros (recognized syntactically,
//! exactly like the paper's CIL-based tool). Unknown constructs are skipped
//! with a recorded error rather than aborting.

use crate::ast::*;
use crate::ctypes::CTypeExpr;
use crate::lexer::lex;
use crate::token::CTokenKind;
use ffisafe_support::scan::{Cursor, Kind};
use ffisafe_support::{FileId, Span};
use std::collections::HashMap;

/// Parses a C translation unit.
pub fn parse(file: FileId, src: &str) -> CUnit {
    let tokens = lex(file, src);
    let mut typedefs = HashMap::new();
    // Common library handles appear without their defining headers (we skip
    // preprocessing); seed them as opaque named types.
    for t in ["FILE", "size_t", "intnat", "uintnat", "mlsize_t", "tag_t", "header_t"] {
        typedefs.insert(
            t.to_string(),
            if t == "FILE" { CTypeExpr::Named("FILE".into()) } else { CTypeExpr::Int },
        );
    }
    Parser { cur: Cursor::new(tokens), unit: CUnit::default(), typedefs }.run()
}

const TYPE_WORDS: &[&str] = &[
    "void", "int", "long", "short", "char", "unsigned", "signed", "float", "double", "value",
    "struct", "union", "enum", "const", "volatile",
];

const QUALIFIERS: &[&str] =
    &["static", "extern", "inline", "register", "CAMLprim", "CAMLexport", "CAMLextern"];

struct Parser {
    cur: Cursor<CTokenKind>,
    unit: CUnit,
    typedefs: HashMap<String, CTypeExpr>,
}

impl Parser {
    fn run(mut self) -> CUnit {
        loop {
            match self.cur.peek().clone() {
                CTokenKind::Eof => {
                    self.unit.errors = self.cur.take_errors();
                    return self.unit;
                }
                CTokenKind::Punct(";") => {
                    self.cur.bump();
                }
                CTokenKind::Ident(s) if s == "typedef" => self.parse_typedef(),
                _ => self.parse_top_decl(),
            }
        }
    }

    fn expect_punct(&mut self, p: &str) {
        if !self.cur.eat_punct(p) {
            self.cur.error(format!("expected `{p}`"));
        }
    }

    /// Skips to just past the next `;` at depth 0.
    fn skip_to_semi(&mut self) {
        self.cur.skip_until(|k| k.is_punct(";"));
        self.cur.bump();
    }

    // ---- types -------------------------------------------------------------

    fn is_type_start(&self) -> bool {
        match self.cur.peek() {
            CTokenKind::Ident(s) => {
                TYPE_WORDS.contains(&s.as_str()) || self.typedefs.contains_key(s)
            }
            _ => false,
        }
    }

    /// Parses a base type (without pointer declarators).
    fn parse_base_type(&mut self) -> CTypeExpr {
        // skip qualifiers
        while matches!(self.cur.peek(), CTokenKind::Ident(s) if s == "const" || s == "volatile") {
            self.cur.bump();
        }
        match self.cur.peek().clone() {
            CTokenKind::Ident(s) if s == "struct" || s == "union" || s == "enum" => {
                self.cur.bump();
                let name = self.cur.take_ident().unwrap_or_else(|| "<anon>".to_string());
                if self.cur.peek().is_punct("{") {
                    self.cur.skip_group(&CTokenKind::Punct("{"), &CTokenKind::Punct("}"));
                }
                if s == "enum" {
                    CTypeExpr::Int
                } else {
                    CTypeExpr::Named(name)
                }
            }
            CTokenKind::Ident(s) if s == "value" => {
                self.cur.bump();
                CTypeExpr::Value
            }
            CTokenKind::Ident(s) if s == "void" => {
                self.cur.bump();
                CTypeExpr::Void
            }
            CTokenKind::Ident(s) if s == "float" || s == "double" => {
                self.cur.bump();
                CTypeExpr::Float
            }
            CTokenKind::Ident(s)
                if matches!(
                    s.as_str(),
                    "int" | "long" | "short" | "char" | "unsigned" | "signed"
                ) =>
            {
                while matches!(
                    self.cur.peek(),
                    CTokenKind::Ident(w)
                        if matches!(w.as_str(), "int" | "long" | "short" | "char" | "unsigned" | "signed")
                ) {
                    self.cur.bump();
                }
                CTypeExpr::Int
            }
            CTokenKind::Ident(s) => {
                if let Some(ty) = self.typedefs.get(&s).cloned() {
                    self.cur.bump();
                    ty
                } else {
                    // unknown library type used as `Foo x` / `Foo *x`
                    self.cur.bump();
                    CTypeExpr::Named(s)
                }
            }
            _ => {
                self.cur.error("expected a type");
                self.cur.bump();
                CTypeExpr::Int
            }
        }
    }

    /// Parses pointer stars and an optional name:
    /// `* * name`, `(*name)(…)` (function pointer) or an abstract
    /// declarator. Returns `(name, type)`.
    fn parse_declarator(&mut self, base: CTypeExpr) -> (String, CTypeExpr) {
        let mut ty = base;
        while self.cur.eat_punct("*") {
            // skip qualifiers between stars
            while matches!(self.cur.peek(), CTokenKind::Ident(s) if s == "const" || s == "volatile")
            {
                self.cur.bump();
            }
            ty = ty.ptr();
        }
        if self.cur.peek().is_punct("(") && self.cur.peek_at(1).is_punct("*") {
            // function pointer: (*name)(params)
            self.cur.bump(); // (
            self.cur.bump(); // *
            let name = self.cur.take_ident().unwrap_or_default();
            self.expect_punct(")");
            if self.cur.peek().is_punct("(") {
                self.cur.skip_group(&CTokenKind::Punct("("), &CTokenKind::Punct(")"));
            }
            return (name, CTypeExpr::FuncPtr);
        }
        let name = match self.cur.peek().clone() {
            CTokenKind::Ident(n) if !TYPE_WORDS.contains(&n.as_str()) => {
                self.cur.bump();
                n
            }
            _ => String::new(),
        };
        // array suffixes become pointers
        while self.cur.peek().is_punct("[") {
            self.cur.skip_group(&CTokenKind::Punct("["), &CTokenKind::Punct("]"));
            ty = ty.ptr();
        }
        (name, ty)
    }

    // ---- top level ------------------------------------------------------------

    fn parse_typedef(&mut self) {
        self.cur.bump(); // typedef
        let base = self.parse_base_type();
        let (name, ty) = self.parse_declarator(base);
        if !name.is_empty() {
            self.typedefs.insert(name, ty);
        }
        self.skip_to_semi();
    }

    fn parse_top_decl(&mut self) {
        let start = self.cur.span();
        let mut is_static = false;
        while matches!(self.cur.peek(), CTokenKind::Ident(s) if QUALIFIERS.contains(&s.as_str())) {
            if self.cur.peek().is_ident("static") {
                is_static = true;
            }
            self.cur.bump();
        }
        if self.cur.at_eof() {
            return;
        }
        // bare struct definition at top level
        if matches!(self.cur.peek(), CTokenKind::Ident(s) if s == "struct" || s == "union" || s == "enum")
        {
            let save = self.cur.mark();
            let _ = self.parse_base_type();
            if self.cur.peek().is_punct(";") {
                self.cur.bump();
                return;
            }
            self.cur.reset(save);
        }
        if !self.is_type_start()
            && !matches!(
                (self.cur.peek(), self.cur.peek_at(1)),
                (CTokenKind::Ident(_), CTokenKind::Ident(_))
                    | (CTokenKind::Ident(_), CTokenKind::Punct("*"))
            )
        {
            self.cur.error("unrecognized top-level construct");
            self.skip_to_semi();
            return;
        }
        let base = self.parse_base_type();
        loop {
            let (name, ty) = self.parse_declarator(base.clone());
            if name.is_empty() {
                self.cur.error("expected declarator name");
                self.skip_to_semi();
                return;
            }
            if self.cur.peek().is_punct("(") {
                // function
                let params = self.parse_params();
                if self.cur.peek().is_punct("{") {
                    let body = self.parse_block();
                    self.unit.functions.push(CFunction {
                        name,
                        ret: ty,
                        params,
                        body: Some(body),
                        is_static,
                        span: start,
                    });
                } else {
                    self.skip_to_semi();
                    self.unit.functions.push(CFunction {
                        name,
                        ret: ty,
                        params,
                        body: None,
                        is_static,
                        span: start,
                    });
                }
                return;
            }
            // global variable (initializer skipped — globals are opaque to
            // the analysis, which only warns about `value` globals)
            self.unit.globals.push(CGlobal { name, ty, span: start });
            if self.cur.eat_punct("=") {
                // skip initializer expression/braces
                self.cur.skip_until(|k| k.is_punct(",") || k.is_punct(";"));
            }
            if self.cur.eat_punct(",") {
                continue;
            }
            self.expect_punct(";");
            return;
        }
    }

    fn parse_params(&mut self) -> Vec<CParam> {
        self.expect_punct("(");
        let mut params = Vec::new();
        if self.cur.eat_punct(")") {
            return params;
        }
        loop {
            if self.cur.peek().is_ident("void") && self.cur.peek_at(1).is_punct(")") {
                self.cur.bump();
                self.cur.bump();
                return params;
            }
            if self.cur.peek().is_punct("...") {
                self.cur.bump();
                self.cur.eat_punct(")");
                return params;
            }
            let base = self.parse_base_type();
            let (name, ty) = self.parse_declarator(base);
            params.push(CParam { name, ty });
            if self.cur.eat_punct(",") {
                continue;
            }
            self.expect_punct(")");
            return params;
        }
    }

    // ---- statements -----------------------------------------------------------

    fn parse_block(&mut self) -> Vec<CStmt> {
        self.expect_punct("{");
        let mut out = Vec::new();
        while !self.cur.peek().is_punct("}") && !self.cur.at_eof() {
            out.push(self.parse_stmt());
        }
        self.cur.eat_punct("}");
        out
    }

    fn parse_stmt(&mut self) -> CStmt {
        let start = self.cur.span();
        match self.cur.peek().clone() {
            CTokenKind::Punct("{") => {
                let body = self.parse_block();
                CStmt::new(CStmtKind::Block(body), start)
            }
            CTokenKind::Punct(";") => {
                self.cur.bump();
                CStmt::new(CStmtKind::Empty, start)
            }
            CTokenKind::Ident(s) => match s.as_str() {
                "if" => self.parse_if(start),
                "while" => self.parse_while(start),
                "do" => self.parse_do_while(start),
                "for" => self.parse_for(start),
                "switch" => self.parse_switch(start),
                "return" => {
                    self.cur.bump();
                    let e =
                        if self.cur.peek().is_punct(";") { None } else { Some(self.parse_expr()) };
                    self.expect_punct(";");
                    CStmt::new(CStmtKind::Return(e), start)
                }
                "break" => {
                    self.cur.bump();
                    self.expect_punct(";");
                    CStmt::new(CStmtKind::Break, start)
                }
                "continue" => {
                    self.cur.bump();
                    self.expect_punct(";");
                    CStmt::new(CStmtKind::Continue, start)
                }
                "goto" => {
                    self.cur.bump();
                    let label = self.cur.take_ident().unwrap_or_else(|| {
                        self.cur.error("expected label after goto");
                        String::new()
                    });
                    self.expect_punct(";");
                    CStmt::new(CStmtKind::Goto(label), start)
                }
                _ if is_caml_param_macro(&s) => self.parse_caml_protect(start, &s, false),
                _ if is_caml_local_macro(&s) => self.parse_caml_protect(start, &s, true),
                "CAMLreturn" => {
                    self.cur.bump();
                    self.expect_punct("(");
                    let e =
                        if self.cur.peek().is_punct(")") { None } else { Some(self.parse_expr()) };
                    self.expect_punct(")");
                    self.cur.eat_punct(";");
                    CStmt::new(CStmtKind::CamlReturn(e), start)
                }
                "CAMLreturn0" => {
                    self.cur.bump();
                    // may be used as `CAMLreturn0;` or `CAMLreturn0()`
                    if self.cur.peek().is_punct("(") {
                        self.cur.skip_group(&CTokenKind::Punct("("), &CTokenKind::Punct(")"));
                    }
                    self.cur.eat_punct(";");
                    CStmt::new(CStmtKind::CamlReturn(None), start)
                }
                _ if self.is_type_start() => self.parse_decl_stmt(start),
                _ if self.looks_like_named_decl() => self.parse_decl_stmt(start),
                _ if matches!(self.cur.peek_at(1), CTokenKind::Punct(":"))
                    && !matches!(self.cur.peek_at(2), CTokenKind::Punct(":")) =>
                {
                    self.cur.bump();
                    self.cur.bump();
                    CStmt::new(CStmtKind::Label(s), start)
                }
                _ => self.parse_expr_stmt(start),
            },
            _ => self.parse_expr_stmt(start),
        }
    }

    /// `Foo x;` / `Foo *x = …;` where `Foo` is an unknown library type.
    fn looks_like_named_decl(&self) -> bool {
        let CTokenKind::Ident(_) = self.cur.peek() else { return false };
        match (self.cur.peek_at(1), self.cur.peek_at(2)) {
            (CTokenKind::Ident(_), CTokenKind::Punct(";"))
            | (CTokenKind::Ident(_), CTokenKind::Punct("="))
            | (CTokenKind::Ident(_), CTokenKind::Punct(","))
            | (CTokenKind::Ident(_), CTokenKind::Punct("[")) => true,
            (CTokenKind::Punct("*"), CTokenKind::Ident(_)) => matches!(
                self.cur.peek_at(3),
                CTokenKind::Punct(";") | CTokenKind::Punct("=") | CTokenKind::Punct(",")
            ),
            _ => false,
        }
    }

    fn parse_decl_stmt(&mut self, start: Span) -> CStmt {
        let base = self.parse_base_type();
        let mut decls = Vec::new();
        loop {
            let (name, ty) = self.parse_declarator(base.clone());
            let init = if self.cur.eat_punct("=") { Some(self.parse_assign_expr()) } else { None };
            decls.push(CStmt::new(CStmtKind::Decl { ty, name, init }, start));
            if self.cur.eat_punct(",") {
                continue;
            }
            self.expect_punct(";");
            break;
        }
        if decls.len() == 1 {
            decls.pop().unwrap()
        } else {
            CStmt::new(CStmtKind::Block(decls), start)
        }
    }

    fn parse_expr_stmt(&mut self, start: Span) -> CStmt {
        let e = self.parse_expr();
        self.expect_punct(";");
        CStmt::new(CStmtKind::Expr(e), start)
    }

    fn parse_caml_protect(&mut self, start: Span, _macro_name: &str, declares: bool) -> CStmt {
        self.cur.bump(); // macro name
        let mut names = Vec::new();
        if self.cur.eat_punct("(") {
            while !self.cur.peek().is_punct(")") && !self.cur.at_eof() {
                if let CTokenKind::Ident(n) = self.cur.peek().clone() {
                    names.push(n);
                }
                self.cur.bump();
                self.cur.eat_punct(",");
            }
            self.cur.eat_punct(")");
        }
        self.cur.eat_punct(";");
        CStmt::new(CStmtKind::CamlProtect { names, declares }, start)
    }

    fn parse_if(&mut self, start: Span) -> CStmt {
        self.cur.bump(); // if
        self.expect_punct("(");
        let cond = self.parse_expr();
        self.expect_punct(")");
        let then_branch = self.parse_stmt_as_block();
        let else_branch = if self.cur.peek().is_ident("else") {
            self.cur.bump();
            self.parse_stmt_as_block()
        } else {
            Vec::new()
        };
        CStmt::new(CStmtKind::If { cond, then_branch, else_branch }, start)
    }

    fn parse_stmt_as_block(&mut self) -> Vec<CStmt> {
        if self.cur.peek().is_punct("{") {
            self.parse_block()
        } else {
            vec![self.parse_stmt()]
        }
    }

    fn parse_while(&mut self, start: Span) -> CStmt {
        self.cur.bump();
        self.expect_punct("(");
        let cond = self.parse_expr();
        self.expect_punct(")");
        let body = self.parse_stmt_as_block();
        CStmt::new(CStmtKind::While { cond, body }, start)
    }

    fn parse_do_while(&mut self, start: Span) -> CStmt {
        self.cur.bump();
        let body = self.parse_stmt_as_block();
        if self.cur.peek().is_ident("while") {
            self.cur.bump();
        }
        self.expect_punct("(");
        let cond = self.parse_expr();
        self.expect_punct(")");
        self.cur.eat_punct(";");
        CStmt::new(CStmtKind::DoWhile { body, cond }, start)
    }

    fn parse_for(&mut self, start: Span) -> CStmt {
        self.cur.bump();
        self.expect_punct("(");
        let init = if self.cur.peek().is_punct(";") {
            self.cur.bump();
            None
        } else if self.is_type_start() {
            Some(Box::new(self.parse_decl_stmt(start)))
        } else {
            let e = self.parse_expr();
            self.expect_punct(";");
            Some(Box::new(CStmt::new(CStmtKind::Expr(e), start)))
        };
        let cond = if self.cur.peek().is_punct(";") { None } else { Some(self.parse_expr()) };
        self.expect_punct(";");
        let step = if self.cur.peek().is_punct(")") { None } else { Some(self.parse_expr()) };
        self.expect_punct(")");
        let body = self.parse_stmt_as_block();
        CStmt::new(CStmtKind::For { init, cond, step, body }, start)
    }

    fn parse_switch(&mut self, start: Span) -> CStmt {
        self.cur.bump();
        self.expect_punct("(");
        let scrutinee = self.parse_expr();
        self.expect_punct(")");
        self.expect_punct("{");
        let mut cases: Vec<SwitchCase> = Vec::new();
        while !self.cur.peek().is_punct("}") && !self.cur.at_eof() {
            if self.cur.peek().is_ident("case") {
                self.cur.bump();
                let value = self.parse_case_const();
                self.expect_punct(":");
                cases.push(SwitchCase {
                    value: Some(value),
                    body: Vec::new(),
                    falls_through: true,
                });
            } else if self.cur.peek().is_ident("default") {
                self.cur.bump();
                self.expect_punct(":");
                cases.push(SwitchCase { value: None, body: Vec::new(), falls_through: true });
            } else {
                let stmt = self.parse_stmt();
                let ends = matches!(
                    stmt.kind,
                    CStmtKind::Break
                        | CStmtKind::Return(_)
                        | CStmtKind::CamlReturn(_)
                        | CStmtKind::Goto(_)
                        | CStmtKind::Continue
                );
                match cases.last_mut() {
                    Some(case) => {
                        case.body.push(stmt);
                        if ends {
                            case.falls_through = false;
                        }
                    }
                    None => self.cur.error("statement before first case label"),
                }
            }
        }
        self.cur.eat_punct("}");
        CStmt::new(CStmtKind::Switch { scrutinee, cases }, start)
    }

    fn parse_case_const(&mut self) -> i64 {
        let neg = self.cur.eat_punct("-");
        match self.cur.peek().clone() {
            CTokenKind::Int(n) => {
                self.cur.bump();
                if neg {
                    -n
                } else {
                    n
                }
            }
            CTokenKind::Char(c) => {
                self.cur.bump();
                c
            }
            _ => {
                self.cur.error("unsupported case constant");
                self.cur.bump();
                i64::MIN / 2
            }
        }
    }

    // ---- expressions -------------------------------------------------------------

    fn parse_expr(&mut self) -> CExpr {
        let first = self.parse_assign_expr();
        if self.cur.peek().is_punct(",") {
            let span = first.span;
            let mut acc = first;
            while self.cur.eat_punct(",") {
                let rhs = self.parse_assign_expr();
                acc = CExpr::new(CExprKind::Comma(Box::new(acc), Box::new(rhs)), span);
            }
            acc
        } else {
            first
        }
    }

    fn parse_assign_expr(&mut self) -> CExpr {
        let lhs = self.parse_ternary();
        let op = match self.cur.peek() {
            CTokenKind::Punct(
                p @ ("=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>="),
            ) => *p,
            _ => return lhs,
        };
        self.cur.bump();
        let rhs = self.parse_assign_expr();
        let span = lhs.span;
        CExpr::new(CExprKind::Assign(op, Box::new(lhs), Box::new(rhs)), span)
    }

    fn parse_ternary(&mut self) -> CExpr {
        let cond = self.parse_binary(0);
        if self.cur.eat_punct("?") {
            let a = self.parse_assign_expr();
            self.expect_punct(":");
            let b = self.parse_assign_expr();
            let span = cond.span;
            CExpr::new(CExprKind::Ternary(Box::new(cond), Box::new(a), Box::new(b)), span)
        } else {
            cond
        }
    }

    fn binop_level(p: &str) -> Option<u8> {
        Some(match p {
            "||" => 1,
            "&&" => 2,
            "|" => 3,
            "^" => 4,
            "&" => 5,
            "==" | "!=" => 6,
            "<" | ">" | "<=" | ">=" => 7,
            "<<" | ">>" => 8,
            "+" | "-" => 9,
            "*" | "/" | "%" => 10,
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_level: u8) -> CExpr {
        let mut lhs = self.parse_unary();
        loop {
            let (op, level) = match self.cur.peek() {
                CTokenKind::Punct(p) => match Self::binop_level(p) {
                    Some(l) if l >= min_level => (*p, l),
                    _ => return lhs,
                },
                _ => return lhs,
            };
            self.cur.bump();
            let rhs = self.parse_binary(level + 1);
            let span = lhs.span;
            lhs = CExpr::new(CExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
    }

    fn parse_unary(&mut self) -> CExpr {
        let span = self.cur.span();
        match self.cur.peek().clone() {
            CTokenKind::Punct(p @ ("*" | "&" | "-" | "!" | "~" | "+")) => {
                self.cur.bump();
                let inner = self.parse_unary();
                if p == "+" {
                    inner
                } else {
                    CExpr::new(CExprKind::Unary(p, Box::new(inner)), span)
                }
            }
            CTokenKind::Punct(p @ ("++" | "--")) => {
                self.cur.bump();
                let inner = self.parse_unary();
                CExpr::new(CExprKind::Unary(p, Box::new(inner)), span)
            }
            CTokenKind::Ident(s) if s == "sizeof" => {
                self.cur.bump();
                if self.cur.peek().is_punct("(") {
                    self.cur.skip_group(&CTokenKind::Punct("("), &CTokenKind::Punct(")"));
                } else {
                    let _ = self.parse_unary();
                }
                CExpr::new(CExprKind::Sizeof, span)
            }
            CTokenKind::Punct("(") if self.cast_ahead() => {
                self.cur.bump(); // (
                let base = self.parse_base_type();
                let mut ty = base;
                while self.cur.eat_punct("*") {
                    ty = ty.ptr();
                }
                self.expect_punct(")");
                let inner = self.parse_unary();
                CExpr::new(CExprKind::Cast(ty, Box::new(inner)), span)
            }
            _ => self.parse_postfix(),
        }
    }

    /// Whether `( … )` starting here is a cast.
    fn cast_ahead(&self) -> bool {
        let CTokenKind::Ident(s) = self.cur.peek_at(1) else { return false };
        if TYPE_WORDS.contains(&s.as_str()) || self.typedefs.contains_key(s) {
            return true;
        }
        // unknown ident: treat `(Foo *) e` / `(Foo) e` as cast when followed
        // by stars then `)`, and the `)` is followed by something castable
        let mut n = 2usize;
        while self.cur.peek_at(n).is_punct("*") {
            n += 1;
        }
        if !self.cur.peek_at(n).is_punct(")") {
            return false;
        }
        if n > 2 {
            // `(Foo *)` — always a cast
            matches!(
                self.cur.peek_at(n + 1),
                CTokenKind::Ident(_) | CTokenKind::Int(_) | CTokenKind::Punct("(")
            )
        } else {
            // `(Foo) x` — juxtaposition is not valid C expression syntax,
            // so this must be a cast; `(f)(x)` stays a call
            matches!(
                self.cur.peek_at(n + 1),
                CTokenKind::Ident(_) | CTokenKind::Int(_) | CTokenKind::Str(_)
            )
        }
    }

    fn parse_postfix(&mut self) -> CExpr {
        let mut e = self.parse_primary();
        loop {
            let span = self.cur.span();
            match self.cur.peek().clone() {
                CTokenKind::Punct("(") => {
                    self.cur.bump();
                    let mut args = Vec::new();
                    if !self.cur.peek().is_punct(")") {
                        loop {
                            args.push(self.parse_assign_expr());
                            if !self.cur.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")");
                    let espan = e.span;
                    e = CExpr::new(CExprKind::Call(Box::new(e), args), espan);
                }
                CTokenKind::Punct("[") => {
                    self.cur.bump();
                    let idx = self.parse_expr();
                    self.expect_punct("]");
                    let espan = e.span;
                    e = CExpr::new(CExprKind::Index(Box::new(e), Box::new(idx)), espan);
                }
                CTokenKind::Punct(".") => {
                    self.cur.bump();
                    let field = self.take_ident_or("field");
                    let espan = e.span;
                    e = CExpr::new(CExprKind::Member(Box::new(e), field, false), espan);
                }
                CTokenKind::Punct("->") => {
                    self.cur.bump();
                    let field = self.take_ident_or("field");
                    let espan = e.span;
                    e = CExpr::new(CExprKind::Member(Box::new(e), field, true), espan);
                }
                CTokenKind::Punct(p @ ("++" | "--")) => {
                    self.cur.bump();
                    e = CExpr::new(CExprKind::Postfix(Box::new(e), p), span);
                }
                _ => return e,
            }
        }
    }

    fn take_ident_or(&mut self, what: &str) -> String {
        self.cur.take_ident().unwrap_or_else(|| {
            self.cur.error(format!("expected {what} name"));
            String::new()
        })
    }

    fn parse_primary(&mut self) -> CExpr {
        let span = self.cur.span();
        match self.cur.peek().clone() {
            CTokenKind::Int(n) => {
                self.cur.bump();
                CExpr::new(CExprKind::Int(n), span)
            }
            CTokenKind::Char(c) => {
                self.cur.bump();
                CExpr::new(CExprKind::Int(c), span)
            }
            CTokenKind::Float(f) => {
                self.cur.bump();
                CExpr::new(CExprKind::Float(f), span)
            }
            CTokenKind::Str(s) => {
                self.cur.bump();
                CExpr::new(CExprKind::Str(s), span)
            }
            CTokenKind::Ident(s) => {
                self.cur.bump();
                CExpr::new(CExprKind::Ident(s), span)
            }
            CTokenKind::Punct("(") => {
                self.cur.bump();
                let e = self.parse_expr();
                self.expect_punct(")");
                e
            }
            _ => {
                self.cur.error("expected expression");
                self.cur.bump();
                CExpr::new(CExprKind::Int(0), span)
            }
        }
    }
}

/// `CAMLparam0` … `CAMLparam5`, `CAMLxparam1` … — register existing
/// variables.
pub fn is_caml_param_macro(name: &str) -> bool {
    name.strip_prefix("CAMLparam")
        .or_else(|| name.strip_prefix("CAMLxparam"))
        .is_some_and(|rest| rest.len() == 1 && rest.chars().all(|c| c.is_ascii_digit()))
}

/// `CAMLlocal1` … `CAMLlocal5`, `CAMLlocalN` — declare and register.
pub fn is_caml_local_macro(name: &str) -> bool {
    name.strip_prefix("CAMLlocal").is_some_and(|rest| {
        rest.len() == 1 && (rest.chars().all(|c| c.is_ascii_digit()) || rest == "N")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> CUnit {
        parse(FileId::from_raw(0), src)
    }

    fn one_fn(src: &str) -> CFunction {
        let u = parse_src(src);
        assert!(u.errors.is_empty(), "{:?}", u.errors);
        assert_eq!(u.functions.len(), 1, "{:#?}", u.functions);
        u.functions.into_iter().next().unwrap()
    }

    #[test]
    fn parses_simple_glue_function() {
        let f = one_fn(
            r#"
            value ml_add(value a, value b) {
                return Val_int(Int_val(a) + Int_val(b));
            }
            "#,
        );
        assert_eq!(f.name, "ml_add");
        assert_eq!(f.ret, CTypeExpr::Value);
        assert_eq!(f.params.len(), 2);
        let body = f.body.unwrap();
        assert_eq!(body.len(), 1);
        assert!(matches!(body[0].kind, CStmtKind::Return(Some(_))));
    }

    #[test]
    fn parses_camlprim_qualifier() {
        let f = one_fn("CAMLprim value f(value x) { return x; }");
        assert_eq!(f.name, "f");
    }

    #[test]
    fn parses_caml_macros() {
        let f = one_fn(
            r#"
            value f(value a, value b) {
                CAMLparam2(a, b);
                CAMLlocal1(res);
                res = a;
                CAMLreturn(res);
            }
            "#,
        );
        let body = f.body.unwrap();
        assert!(matches!(
            &body[0].kind,
            CStmtKind::CamlProtect { names, declares: false } if names == &vec!["a".to_string(), "b".to_string()]
        ));
        assert!(matches!(
            &body[1].kind,
            CStmtKind::CamlProtect { names, declares: true } if names == &vec!["res".to_string()]
        ));
        assert!(matches!(&body[3].kind, CStmtKind::CamlReturn(Some(_))));
    }

    #[test]
    fn parses_if_else_and_while() {
        let f = one_fn(
            r#"
            int f(int x) {
                int n = 0;
                if (x > 0) { n = 1; } else n = 2;
                while (n < 10) n++;
                return n;
            }
            "#,
        );
        let body = f.body.unwrap();
        assert!(matches!(body[1].kind, CStmtKind::If { .. }));
        assert!(matches!(body[2].kind, CStmtKind::While { .. }));
    }

    #[test]
    fn parses_switch_with_cases() {
        let f = one_fn(
            r#"
            int f(value x) {
                switch (Tag_val(x)) {
                    case 0: return 1;
                    case 1: break;
                    default: return 3;
                }
                return 0;
            }
            "#,
        );
        let body = f.body.unwrap();
        let CStmtKind::Switch { cases, .. } = &body[0].kind else { panic!() };
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].value, Some(0));
        assert!(!cases[0].falls_through);
        assert_eq!(cases[2].value, None);
    }

    #[test]
    fn parses_for_loop_with_decl() {
        let f = one_fn("int f(void) { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }");
        let body = f.body.unwrap();
        assert!(matches!(body[1].kind, CStmtKind::For { .. }));
    }

    #[test]
    fn parses_casts_and_field_macro() {
        let f = one_fn(
            r#"
            value f(value v) {
                value x = Field(v, 0);
                long n = (long) x;
                char *p = (char *) Field(v, 1);
                return Val_int((int) n);
            }
            "#,
        );
        let body = f.body.unwrap();
        assert_eq!(body.len(), 4);
        let CStmtKind::Decl { init: Some(init), .. } = &body[1].kind else { panic!() };
        assert!(matches!(init.kind, CExprKind::Cast(CTypeExpr::Int, _)));
    }

    #[test]
    fn parses_unknown_library_types() {
        let u = parse_src(
            r#"
            value ml_open(value path) {
                gzFile f;
                SSL *ssl = NULL;
                f = gzopen(String_val(path), "rb");
                return Val_unit;
            }
            "#,
        );
        assert!(u.errors.is_empty(), "{:?}", u.errors);
        let body = u.functions[0].body.as_ref().unwrap();
        assert!(matches!(
            &body[0].kind,
            CStmtKind::Decl { ty: CTypeExpr::Named(n), .. } if n == "gzFile"
        ));
        assert!(matches!(&body[1].kind, CStmtKind::Decl { ty: CTypeExpr::Ptr(_), .. }));
    }

    #[test]
    fn parses_typedef_and_use() {
        let u = parse_src("typedef struct win Window;\nvalue f(value x) { Window *w; return x; }");
        assert!(u.errors.is_empty(), "{:?}", u.errors);
        let body = u.functions[0].body.as_ref().unwrap();
        assert!(matches!(&body[0].kind, CStmtKind::Decl { .. }));
    }

    #[test]
    fn parses_globals_and_prototypes() {
        let u = parse_src(
            r#"
            static value cached;
            int helper(int x);
            extern int errno_like;
            "#,
        );
        assert_eq!(u.globals.len(), 2);
        assert_eq!(u.functions.len(), 1);
        assert!(u.functions[0].body.is_none());
    }

    #[test]
    fn parses_goto_and_labels() {
        let f = one_fn(
            r#"
            int f(int x) {
                if (x) goto out;
                x = 1;
            out:
                return x;
            }
            "#,
        );
        let body = f.body.unwrap();
        assert!(body.iter().any(|s| matches!(&s.kind, CStmtKind::Label(l) if l == "out")));
    }

    #[test]
    fn parses_ternary_and_logical() {
        let f = one_fn("int f(int a, int b) { return a && b ? a : b || !a; }");
        let body = f.body.unwrap();
        let CStmtKind::Return(Some(e)) = &body[0].kind else { panic!() };
        assert!(matches!(e.kind, CExprKind::Ternary(..)));
    }

    #[test]
    fn parses_member_access_and_calls() {
        let f =
            one_fn("int f(struct buf *b) { b->len = b->len + 1; return use(b->data, (*b).len); }");
        assert_eq!(f.params[0].ty, CTypeExpr::Named("buf".into()).ptr());
    }

    #[test]
    fn multi_declarator_statement() {
        let f = one_fn("int f(void) { int a = 1, b = 2; return a + b; }");
        let body = f.body.unwrap();
        assert!(matches!(&body[0].kind, CStmtKind::Block(ds) if ds.len() == 2));
    }

    #[test]
    fn do_while_loop() {
        let f = one_fn("int f(int n) { do { n--; } while (n > 0); return n; }");
        let body = f.body.unwrap();
        assert!(matches!(body[0].kind, CStmtKind::DoWhile { .. }));
    }

    #[test]
    fn varargs_prototype() {
        let u = parse_src("int printf(const char *fmt, ...);");
        assert_eq!(u.functions.len(), 1);
        assert_eq!(u.functions[0].params.len(), 1);
    }

    #[test]
    fn recovers_from_garbage() {
        let u = parse_src("@@@ ; value f(value x) { return x; }");
        assert_eq!(u.functions.len(), 1);
    }

    #[test]
    fn array_local_becomes_pointer() {
        let f = one_fn("int f(void) { int buf[16]; return buf[0]; }");
        let body = f.body.unwrap();
        assert!(matches!(&body[0].kind, CStmtKind::Decl { ty: CTypeExpr::Ptr(_), .. }));
    }

    #[test]
    fn function_pointer_param() {
        let f = one_fn("int apply(int (*fn)(int), int x) { return fn(x); }");
        assert_eq!(f.params[0].ty, CTypeExpr::FuncPtr);
    }
}
