//! Item-level parser for the Rust-FFI sublanguage.
//!
//! The analysis only needs the *boundary surface* of a `.rs` file: its
//! `extern "C"` blocks, `#[no_mangle] extern "C" fn` definitions, type
//! declarations (with their `#[repr(..)]`) and `type` aliases. Function
//! bodies, expressions, `impl` blocks and macros are skipped by balanced
//! delimiter matching; `mod name { … }` is recursed into. Parsing is
//! tolerant: malformed items record an error and resynchronize at the next
//! `;` / `}` instead of aborting the file.

use crate::ast::*;
use crate::lexer;
use crate::token::RsTokenKind;
use ffisafe_support::scan::{Cursor, Kind};
use ffisafe_support::FileId;

/// Parses one `.rs` source file into its boundary-relevant items.
pub fn parse(file: FileId, name: &str, src: &str) -> ParsedRustFile {
    let mut p = Parser {
        cur: Cursor::new(lexer::lex(file, src)),
        out: ParsedRustFile { name: name.to_string(), ..Default::default() },
    };
    p.items(true);
    p.out.errors = p.cur.take_errors();
    p.out
}

/// Attributes gathered in front of an item.
#[derive(Default)]
struct Attrs {
    repr: Option<Repr>,
    no_mangle: bool,
    export_name: Option<String>,
    link_name: Option<String>,
}

struct Parser {
    cur: Cursor<RsTokenKind>,
    out: ParsedRustFile,
}

impl Parser {
    /// Consumes one `>` even when the lexer produced `>>` (nested generic
    /// closers), by rewriting the token in place.
    fn eat_gt(&mut self) -> bool {
        match self.cur.peek() {
            RsTokenKind::Punct(">") => {
                self.cur.bump();
                true
            }
            RsTokenKind::Punct(">>") => {
                self.cur.rewrite(RsTokenKind::Punct(">"));
                true
            }
            _ => false,
        }
    }

    /// Skips a balanced `{ … }` / `( … )` / `[ … ]` group, cursor on the
    /// opener.
    fn skip_group(&mut self) {
        if let RsTokenKind::Punct(open @ ("{" | "(" | "[")) = *self.cur.peek() {
            let close = match open {
                "{" => "}",
                "(" => ")",
                _ => "]",
            };
            self.cur.skip_group(&RsTokenKind::Punct(open), &RsTokenKind::Punct(close));
        }
    }

    /// Skips to (and over) the next `;` at delimiter depth 0, also stopping
    /// after a balanced top-level `{ … }` (items like `static X: T = { … };`
    /// and `fn` bodies both end an item).
    fn skip_item_rest(&mut self) {
        while !self.cur.at_eof() {
            match self.cur.peek() {
                RsTokenKind::Punct(";") => {
                    self.cur.bump();
                    return;
                }
                RsTokenKind::Punct("{") => {
                    self.skip_group();
                    // a trailing `;` after the group belongs to the item
                    self.cur.eat_punct(";");
                    return;
                }
                RsTokenKind::Punct("(") | RsTokenKind::Punct("[") => self.skip_group(),
                RsTokenKind::Punct("}") => return, // enclosing mod/block closes
                _ => self.cur.bump(),
            }
        }
    }

    // ---- attributes -----------------------------------------------------

    /// Parses any number of leading `#[…]` attributes (and skips inner
    /// `#![…]` ones).
    fn attrs(&mut self) -> Attrs {
        let mut out = Attrs::default();
        while self.cur.peek().is_punct("#") {
            self.cur.bump();
            self.cur.eat_punct("!"); // inner attribute: parsed the same, flags ignored anyway
            if !self.cur.peek().is_punct("[") {
                return out;
            }
            self.cur.bump();
            self.attr_body(&mut out);
            // consume to the closing `]` whatever attr_body left behind
            self.cur.close_group(&RsTokenKind::Punct("["), &RsTokenKind::Punct("]"));
        }
        out
    }

    fn attr_body(&mut self, out: &mut Attrs) {
        let Some(mut head) = self.cur.take_ident() else { return };
        // Rust 2024 spells exporty attributes `#[unsafe(no_mangle)]`.
        if head == "unsafe" && self.cur.peek().is_punct("(") {
            self.cur.bump();
            match self.cur.take_ident() {
                Some(inner) => head = inner,
                None => return,
            }
        }
        match head.as_str() {
            "no_mangle" => out.no_mangle = true,
            "export_name" | "link_name" if self.cur.eat_punct("=") => {
                if let RsTokenKind::Str(s) = self.cur.peek() {
                    let s = s.clone();
                    if head == "export_name" {
                        out.export_name = Some(s);
                    } else {
                        out.link_name = Some(s);
                    }
                    self.cur.bump();
                }
            }
            "repr" => {
                if !self.cur.peek().is_punct("(") {
                    return;
                }
                self.cur.bump();
                let mut repr = out.repr;
                while !self.cur.peek().is_punct(")") && !self.cur.at_eof() {
                    if let Some(arg) = self.cur.peek().ident().map(String::from) {
                        self.cur.bump();
                        let int_reprs = [
                            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
                            "i128", "isize",
                        ];
                        match arg.as_str() {
                            "C" => repr = Some(Repr::C),
                            "transparent" if repr != Some(Repr::C) => {
                                repr = Some(Repr::Transparent);
                            }
                            "align" | "packed" if self.cur.peek().is_punct("(") => {
                                self.skip_group();
                            }
                            a if int_reprs.contains(&a)
                                && (repr.is_none() || repr == Some(Repr::Rust)) =>
                            {
                                repr = Some(Repr::PrimitiveInt);
                            }
                            _ => {}
                        }
                    } else {
                        self.cur.bump();
                    }
                    self.cur.eat_punct(",");
                }
                out.repr = repr;
            }
            _ => {}
        }
    }

    // ---- items ----------------------------------------------------------

    /// Parses items until EOF (`top` true) or the enclosing `}`.
    fn items(&mut self, top: bool) {
        loop {
            if self.cur.at_eof() {
                return;
            }
            if self.cur.peek().is_punct("}") {
                if top {
                    self.cur.bump(); // stray close at top level: drop it
                    continue;
                }
                return;
            }
            self.item();
        }
    }

    fn item(&mut self) {
        let attrs = self.attrs();
        // visibility
        if self.cur.eat_ident("pub") && self.cur.peek().is_punct("(") {
            self.skip_group(); // pub(crate), pub(in path)
        }
        // leading fn qualifiers; remember the ABI if an `extern` shows up
        let mut abi: Option<String> = None;
        let mut saw_unsafe = false;
        loop {
            if self.cur.eat_ident("const") || self.cur.eat_ident("async") {
                continue;
            }
            if self.cur.peek().is_ident("unsafe") {
                saw_unsafe = true;
                self.cur.bump();
                continue;
            }
            if self.cur.peek().is_ident("extern") {
                self.cur.bump();
                if let RsTokenKind::Str(s) = self.cur.peek() {
                    abi = Some(s.clone());
                    self.cur.bump();
                } else if self.cur.eat_ident("crate") {
                    self.skip_item_rest(); // `extern crate name;`
                    return;
                } else {
                    abi = Some("C".to_string()); // bare `extern` defaults to "C"
                }
                continue;
            }
            break;
        }
        let _ = saw_unsafe;

        match self.cur.peek().clone() {
            // `extern "C" { … }` — a foreign block
            RsTokenKind::Punct("{") if abi.is_some() => {
                let c_abi = is_c_abi(abi.as_deref());
                self.cur.bump();
                self.foreign_block(c_abi);
            }
            RsTokenKind::Ident(kw) => match kw.as_str() {
                "fn" => self.fn_item(&attrs, abi.as_deref()),
                "struct" => self.adt_item(&attrs, AdtKind::Struct),
                "enum" => self.adt_item(&attrs, AdtKind::Enum),
                "union" => self.adt_item(&attrs, AdtKind::Union),
                "type" => self.alias_item(),
                "mod" => {
                    self.cur.bump();
                    let _ = self.cur.take_ident();
                    if self.cur.peek().is_punct("{") {
                        self.cur.bump();
                        self.items(false);
                        self.cur.eat_punct("}");
                    } else {
                        self.cur.eat_punct(";"); // `mod name;` — out-of-line, not our file
                    }
                }
                "impl" | "trait" | "macro_rules" | "macro" | "use" | "static" | "const" => {
                    self.cur.bump();
                    self.skip_item_rest();
                }
                _ => {
                    // Unknown leading token: resynchronize at the next item.
                    let sp = self.cur.span();
                    self.cur.error_at(sp, format!("unexpected `{kw}` at item position"));
                    self.cur.bump();
                    self.skip_item_rest();
                }
            },
            _ => {
                self.cur.bump(); // stray punctuation: drop and continue
            }
        }
    }

    fn foreign_block(&mut self, c_abi: bool) {
        while !self.cur.at_eof() && !self.cur.peek().is_punct("}") {
            let attrs = self.attrs();
            if self.cur.eat_ident("pub") && self.cur.peek().is_punct("(") {
                self.skip_group();
            }
            self.cur.eat_ident("unsafe");
            if self.cur.eat_ident("fn") {
                let sp = self.cur.span();
                let Some(name) = self.cur.take_ident() else {
                    self.cur.error_at(sp, "expected function name in extern block");
                    self.skip_item_rest();
                    continue;
                };
                let (params, variadic, ret) = self.fn_signature();
                self.cur.eat_punct(";");
                if c_abi {
                    let link_name = attrs.link_name.clone().unwrap_or_else(|| name.clone());
                    self.out.imports.push(ForeignFn {
                        name,
                        link_name,
                        variadic,
                        params,
                        ret,
                        span: sp,
                    });
                }
            } else if self.cur.eat_ident("static") {
                self.cur.eat_ident("mut");
                let sp = self.cur.span();
                let Some(name) = self.cur.take_ident() else {
                    self.cur.error_at(sp, "expected static name in extern block");
                    self.skip_item_rest();
                    continue;
                };
                if !self.cur.eat_punct(":") {
                    self.skip_item_rest();
                    continue;
                }
                let ty = self.ty();
                self.cur.eat_punct(";");
                if c_abi {
                    let link_name = attrs.link_name.clone().unwrap_or_else(|| name.clone());
                    self.out.statics.push(ForeignStatic { name, link_name, ty, span: sp });
                }
            } else if self.cur.eat_ident("type") {
                // opaque foreign type (`extern { type Name; }`): skip
                self.skip_item_rest();
            } else {
                let sp = self.cur.span();
                self.cur.error_at(sp, "unexpected token in extern block");
                self.cur.bump();
                self.skip_item_rest();
            }
        }
        self.cur.eat_punct("}");
    }

    fn fn_item(&mut self, attrs: &Attrs, abi: Option<&str>) {
        self.cur.bump(); // `fn`
        let sp = self.cur.span();
        let Some(name) = self.cur.take_ident() else {
            self.cur.error_at(sp, "expected function name");
            self.skip_item_rest();
            return;
        };
        if self.cur.peek().is_punct("<") {
            self.skip_generics();
        }
        let (params, _variadic, ret) = self.fn_signature();
        // `where` clause, then body (or `;` for trait-style decls)
        while !self.cur.at_eof()
            && !self.cur.peek().is_punct("{")
            && !self.cur.peek().is_punct(";")
            && !self.cur.peek().is_punct("}")
        {
            self.cur.bump();
        }
        if self.cur.peek().is_punct("{") {
            self.skip_group();
        } else {
            self.cur.eat_punct(";");
        }
        let exported = attrs.no_mangle || attrs.export_name.is_some();
        if exported && is_c_abi(abi) {
            let link_name = attrs.export_name.clone().unwrap_or_else(|| name.clone());
            self.out.exports.push(ExportFn { name, link_name, params, ret, span: sp });
        }
    }

    /// Parses `( params ) [-> ret]`, cursor on `(`. Returns
    /// `(params, variadic, ret)`.
    fn fn_signature(&mut self) -> (Vec<RustType>, bool, RustType) {
        let mut params = Vec::new();
        let mut variadic = false;
        if self.cur.eat_punct("(") {
            while !self.cur.at_eof() && !self.cur.peek().is_punct(")") {
                let _ = self.attrs(); // per-parameter attributes
                if self.cur.eat_punct("...") {
                    variadic = true;
                    self.cur.eat_punct(",");
                    continue;
                }
                self.param_pattern();
                params.push(self.ty());
                if !self.cur.eat_punct(",") {
                    break;
                }
            }
            self.cur.eat_punct(")");
        }
        let ret = if self.cur.eat_punct("->") { self.ty() } else { RustType::Unit };
        (params, variadic, ret)
    }

    /// Consumes an (optional) `pattern :` in front of a parameter type.
    /// Foreign declarations allow bare types, so the colon may be absent.
    fn param_pattern(&mut self) {
        // `mut name:` / `name:` / `_:`
        let lookahead = if self.cur.peek().is_ident("mut") { 1 } else { 0 };
        let is_named = matches!(self.cur.peek_at(lookahead), RsTokenKind::Ident(_))
            && self.cur.peek_at(lookahead + 1).is_punct(":")
            && !self.cur.peek_at(lookahead + 1).is_punct("::");
        if is_named {
            for _ in 0..lookahead + 2 {
                self.cur.bump(); // pattern + `:`
            }
        }
    }

    fn adt_item(&mut self, attrs: &Attrs, kind: AdtKind) {
        self.cur.bump(); // keyword
        let sp = self.cur.span();
        let Some(name) = self.cur.take_ident() else {
            self.cur.error_at(sp, "expected type name");
            self.skip_item_rest();
            return;
        };
        let mut generic = false;
        if self.cur.peek().is_punct("<") {
            generic = !self.skip_generics();
        }
        // `where` clause
        while !self.cur.at_eof()
            && !self.cur.peek().is_punct("{")
            && !self.cur.peek().is_punct("(")
            && !self.cur.peek().is_punct(";")
        {
            self.cur.bump();
        }
        let repr = attrs.repr.unwrap_or(Repr::Rust);
        let mut fields = Vec::new();
        let mut has_payload = false;
        match kind {
            AdtKind::Struct | AdtKind::Union => {
                if self.cur.peek().is_punct("{") {
                    self.cur.bump();
                    self.named_fields(&mut fields, "");
                    self.cur.eat_punct("}");
                } else if self.cur.peek().is_punct("(") {
                    self.cur.bump();
                    self.tuple_fields(&mut fields, "");
                    self.cur.eat_punct(")");
                    self.cur.eat_punct(";");
                } else {
                    self.cur.eat_punct(";"); // unit struct
                }
            }
            AdtKind::Enum => {
                if self.cur.peek().is_punct("{") {
                    self.cur.bump();
                    while !self.cur.at_eof() && !self.cur.peek().is_punct("}") {
                        let _ = self.attrs();
                        let Some(variant) = self.cur.take_ident() else {
                            self.cur.bump();
                            continue;
                        };
                        if self.cur.peek().is_punct("(") {
                            self.cur.bump();
                            let before = fields.len();
                            self.tuple_fields(&mut fields, &format!("{variant}."));
                            self.cur.eat_punct(")");
                            has_payload |= fields.len() > before;
                        } else if self.cur.peek().is_punct("{") {
                            self.cur.bump();
                            let before = fields.len();
                            self.named_fields(&mut fields, &format!("{variant}."));
                            self.cur.eat_punct("}");
                            has_payload |= fields.len() > before;
                        }
                        if self.cur.eat_punct("=") {
                            // explicit discriminant: skip to `,` / `}`
                            while !self.cur.at_eof()
                                && !self.cur.peek().is_punct(",")
                                && !self.cur.peek().is_punct("}")
                            {
                                if matches!(
                                    self.cur.peek(),
                                    RsTokenKind::Punct("(")
                                        | RsTokenKind::Punct("[")
                                        | RsTokenKind::Punct("{")
                                ) {
                                    self.skip_group();
                                } else {
                                    self.cur.bump();
                                }
                            }
                        }
                        self.cur.eat_punct(",");
                    }
                    self.cur.eat_punct("}");
                } else {
                    self.cur.eat_punct(";");
                }
            }
        }
        self.out.types.push(TypeDecl { name, repr, kind, fields, generic, has_payload, span: sp });
    }

    fn named_fields(&mut self, out: &mut Vec<Field>, prefix: &str) {
        while !self.cur.at_eof() && !self.cur.peek().is_punct("}") {
            let _ = self.attrs();
            if self.cur.eat_ident("pub") && self.cur.peek().is_punct("(") {
                self.skip_group();
            }
            let sp = self.cur.span();
            let Some(fname) = self.cur.take_ident() else {
                self.cur.bump();
                continue;
            };
            if !self.cur.eat_punct(":") {
                continue;
            }
            let ty = self.ty();
            out.push(Field { name: format!("{prefix}{fname}"), ty, span: sp });
            if !self.cur.eat_punct(",") {
                break;
            }
        }
    }

    fn tuple_fields(&mut self, out: &mut Vec<Field>, prefix: &str) {
        let mut i = 0usize;
        while !self.cur.at_eof() && !self.cur.peek().is_punct(")") {
            let _ = self.attrs();
            if self.cur.eat_ident("pub") && self.cur.peek().is_punct("(") {
                self.skip_group();
            }
            let sp = self.cur.span();
            let ty = self.ty();
            out.push(Field { name: format!("{prefix}{i}"), ty, span: sp });
            i += 1;
            if !self.cur.eat_punct(",") {
                break;
            }
        }
    }

    fn alias_item(&mut self) {
        self.cur.bump(); // `type`
        let sp = self.cur.span();
        let Some(name) = self.cur.take_ident() else {
            self.skip_item_rest();
            return;
        };
        if self.cur.peek().is_punct("<") {
            self.skip_generics();
        }
        if !self.cur.eat_punct("=") {
            self.skip_item_rest();
            return;
        }
        let ty = self.ty();
        self.cur.eat_punct(";");
        self.out.aliases.push(TypeAlias { name, ty, span: sp });
    }

    /// Skips a `<…>` generic parameter list, cursor on `<`, and reports
    /// whether it declared only lifetimes (no type or const parameters).
    fn skip_generics(&mut self) -> bool {
        self.cur.bump();
        let mut depth = 1usize;
        let mut only_lifetimes = true;
        while depth > 0 && !self.cur.at_eof() {
            match self.cur.peek() {
                RsTokenKind::Punct("<") => depth += 1,
                RsTokenKind::Punct(">") => depth -= 1,
                RsTokenKind::Punct(">>") => depth = depth.saturating_sub(2),
                // lifetime bounds `'a: 'b` — the bound side is lifetimes
                RsTokenKind::Lifetime(_) | RsTokenKind::Punct("," | ":") => {}
                _ => only_lifetimes = false,
            }
            self.cur.bump();
        }
        only_lifetimes
    }

    // ---- types ----------------------------------------------------------

    /// Parses one type expression.
    fn ty(&mut self) -> RustType {
        match self.cur.peek().clone() {
            RsTokenKind::Punct("*") => {
                self.cur.bump();
                let mutable = if self.cur.eat_ident("mut") {
                    true
                } else {
                    self.cur.eat_ident("const");
                    false
                };
                RustType::Ptr { mutable, inner: Box::new(self.ty()) }
            }
            RsTokenKind::Punct("&") | RsTokenKind::Punct("&&") => {
                if self.cur.peek().is_punct("&&") {
                    // split `&&T` into two references
                    self.cur.rewrite(RsTokenKind::Punct("&"));
                    return RustType::Ref { mutable: false, inner: Box::new(self.ty()) };
                }
                self.cur.bump();
                if let RsTokenKind::Lifetime(_) = self.cur.peek() {
                    self.cur.bump();
                }
                let mutable = self.cur.eat_ident("mut");
                RustType::Ref { mutable, inner: Box::new(self.ty()) }
            }
            RsTokenKind::Punct("[") => {
                self.cur.bump();
                let inner = self.ty();
                if self.cur.eat_punct(";") {
                    let mut len = String::new();
                    while !self.cur.at_eof() && !self.cur.peek().is_punct("]") {
                        match self.cur.peek() {
                            RsTokenKind::Number(n) => len.push_str(n),
                            RsTokenKind::Ident(s) => len.push_str(s),
                            RsTokenKind::Punct(p) => len.push_str(p),
                            _ => {}
                        }
                        self.cur.bump();
                    }
                    self.cur.eat_punct("]");
                    RustType::Array(Box::new(inner), len)
                } else {
                    self.cur.eat_punct("]");
                    RustType::Slice(Box::new(inner))
                }
            }
            RsTokenKind::Punct("(") => {
                self.cur.bump();
                if self.cur.eat_punct(")") {
                    return RustType::Unit;
                }
                let mut parts = vec![self.ty()];
                let mut trailing_comma = false;
                while self.cur.eat_punct(",") {
                    if self.cur.peek().is_punct(")") {
                        trailing_comma = true;
                        break;
                    }
                    parts.push(self.ty());
                }
                self.cur.eat_punct(")");
                if parts.len() == 1 && !trailing_comma {
                    parts.pop().unwrap() // parenthesized type
                } else {
                    RustType::Tuple(parts)
                }
            }
            RsTokenKind::Punct("!") => {
                self.cur.bump();
                RustType::Never
            }
            RsTokenKind::Ident(kw) if kw == "dyn" || kw == "impl" => {
                self.cur.bump();
                self.skip_bounds();
                if kw == "dyn" {
                    RustType::TraitObject
                } else {
                    RustType::Unknown
                }
            }
            RsTokenKind::Ident(kw) if kw == "for" => {
                // HRTB: `for<'a> fn(&'a u8)`
                self.cur.bump();
                if self.cur.peek().is_punct("<") {
                    self.skip_generics();
                }
                self.ty()
            }
            RsTokenKind::Ident(kw) if kw == "fn" || kw == "unsafe" || kw == "extern" => {
                self.fn_ptr_ty()
            }
            RsTokenKind::Ident(kw) if kw == "str" => {
                self.cur.bump();
                RustType::Str
            }
            RsTokenKind::Ident(kw) if kw == "_" => {
                self.cur.bump();
                RustType::Unknown
            }
            RsTokenKind::Ident(_) => self.path_ty(),
            _ => {
                self.cur.bump();
                RustType::Unknown
            }
        }
    }

    fn fn_ptr_ty(&mut self) -> RustType {
        self.cur.eat_ident("unsafe");
        let mut abi_c = false;
        if self.cur.eat_ident("extern") {
            if let RsTokenKind::Str(s) = self.cur.peek() {
                abi_c = is_c_abi(Some(s));
                self.cur.bump();
            } else {
                abi_c = true;
            }
        }
        if !self.cur.eat_ident("fn") {
            return RustType::Unknown;
        }
        let mut params = Vec::new();
        if self.cur.eat_punct("(") {
            while !self.cur.at_eof() && !self.cur.peek().is_punct(")") {
                if self.cur.eat_punct("...") {
                    self.cur.eat_punct(",");
                    continue;
                }
                self.param_pattern();
                params.push(self.ty());
                if !self.cur.eat_punct(",") {
                    break;
                }
            }
            self.cur.eat_punct(")");
        }
        let ret = if self.cur.eat_punct("->") { self.ty() } else { RustType::Unit };
        RustType::FnPtr { abi_c, params, ret: Box::new(ret) }
    }

    fn path_ty(&mut self) -> RustType {
        let mut full = String::new();
        let mut name = String::new();
        let mut args = Vec::new();
        while let Some(seg) = self.cur.take_ident() {
            if !full.is_empty() {
                full.push_str("::");
            }
            full.push_str(&seg);
            name = seg;
            if self.cur.peek().is_punct("<") {
                args = self.generic_args();
            }
            if self.cur.peek().is_punct("::") {
                self.cur.bump();
                args.clear(); // `Segment<T>::Next` — keep the final segment's args
                continue;
            }
            break;
        }
        RustType::Path { name, full, args }
    }

    /// Parses `<…>` generic arguments into types, cursor on `<`. Lifetimes
    /// and associated-type bindings are skipped.
    fn generic_args(&mut self) -> Vec<RustType> {
        self.cur.bump(); // `<`
        let mut args = Vec::new();
        loop {
            if self.cur.at_eof() || self.eat_gt() {
                break;
            }
            match self.cur.peek().clone() {
                RsTokenKind::Lifetime(_) => {
                    self.cur.bump();
                }
                RsTokenKind::Number(_) | RsTokenKind::Str(_) | RsTokenKind::Char(_) => {
                    self.cur.bump(); // const-generic literal argument
                }
                RsTokenKind::Ident(_)
                    if self.cur.peek_at(1).is_punct("=") && !self.cur.peek_at(1).is_punct("==") =>
                {
                    // associated binding `Item = T`: skip name, `=`, the type
                    self.cur.bump();
                    self.cur.bump();
                    let _ = self.ty();
                }
                _ => args.push(self.ty()),
            }
            if !self.cur.eat_punct(",") {
                if self.eat_gt() {
                    break;
                }
                // malformed: avoid livelock
                if !matches!(self.cur.peek(), RsTokenKind::Lifetime(_)) && !self.cur.at_eof() {
                    self.cur.bump();
                }
            }
        }
        args
    }

    /// Skips trait bounds after `dyn` / `impl` (stops at any token that can
    /// end a type in context).
    fn skip_bounds(&mut self) {
        while !self.cur.at_eof() {
            match self.cur.peek() {
                RsTokenKind::Punct(",")
                | RsTokenKind::Punct(")")
                | RsTokenKind::Punct(";")
                | RsTokenKind::Punct("{")
                | RsTokenKind::Punct("}")
                | RsTokenKind::Punct("]")
                | RsTokenKind::Punct(">")
                | RsTokenKind::Punct(">>")
                | RsTokenKind::Punct("=") => return,
                RsTokenKind::Punct("<") => {
                    self.skip_generics();
                }
                RsTokenKind::Punct("(") => self.skip_group(),
                _ => self.cur.bump(),
            }
        }
    }
}

/// Whether an ABI string names the C ABI family the checker understands.
fn is_c_abi(abi: Option<&str>) -> bool {
    matches!(abi, Some("C") | Some("C-unwind") | Some("system") | Some("cdecl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> ParsedRustFile {
        parse(FileId::from_raw(0), "lib.rs", src)
    }

    #[test]
    fn extern_block_imports() {
        let f = parse_src(
            r#"
            extern "C" {
                pub fn gz_open(path: *const u8, mode: i32) -> *mut GzFile;
                #[link_name = "gz_close_impl"]
                fn gz_close(h: *mut GzFile) -> i32;
                static mut GZ_ERRNO: i32;
                pub fn printf(fmt: *const u8, ...) -> i32;
            }
            "#,
        );
        assert_eq!(f.imports.len(), 3);
        assert_eq!(f.imports[0].name, "gz_open");
        assert_eq!(f.imports[0].params.len(), 2);
        assert_eq!(f.imports[1].link_name, "gz_close_impl");
        assert!(f.imports[2].variadic);
        assert_eq!(f.statics.len(), 1);
        assert_eq!(f.statics[0].name, "GZ_ERRNO");
        assert!(f.errors.is_empty());
    }

    #[test]
    fn no_mangle_exports_with_bodies_skipped() {
        let f = parse_src(
            r#"
            #[no_mangle]
            pub extern "C" fn rb_len(rb: *const RingBuf) -> usize {
                let s = "not } a close";
                if true { nested(); }
                0
            }
            #[export_name = "rb_push_impl"]
            pub unsafe extern "C" fn rb_push(rb: *mut RingBuf, v: u32) {}
            pub extern "C" fn not_exported(x: i32) -> i32 { x }
            fn plain(x: u64) -> u64 { x }
            "#,
        );
        assert_eq!(f.exports.len(), 2);
        assert_eq!(f.exports[0].link_name, "rb_len");
        assert_eq!(f.exports[1].link_name, "rb_push_impl");
        assert!(f.errors.is_empty());
    }

    #[test]
    fn unsafe_extern_block_2024_style() {
        let f = parse_src(
            r#"
            unsafe extern "C" {
                pub safe fn abs(x: i32) -> i32;
            }
            #[unsafe(no_mangle)]
            pub extern "C" fn twice(x: i32) -> i32 { x * 2 }
            "#,
        );
        // `safe` is not modeled; the decl is resynchronized away but the
        // export must still parse.
        assert_eq!(f.exports.len(), 1);
        assert_eq!(f.exports[0].name, "twice");
    }

    #[test]
    fn repr_attributes_and_fields() {
        let f = parse_src(
            r#"
            #[repr(C)]
            pub struct Header { pub len: u32, data: *mut u8 }
            #[repr(transparent)]
            struct Fd(i32);
            #[repr(u8)]
            enum Mode { Read, Write = 3 }
            enum Shape { Dot, Line(f64, f64) }
            pub struct Plain { s: String }
            #[repr(C, packed(4))]
            union Overlay { word: u64, bytes: [u8; 8] }
            "#,
        );
        assert_eq!(f.types.len(), 6);
        assert_eq!(f.types[0].repr, Repr::C);
        assert_eq!(f.types[0].fields.len(), 2);
        assert_eq!(f.types[1].repr, Repr::Transparent);
        assert_eq!(f.types[2].repr, Repr::PrimitiveInt);
        assert!(!f.types[2].has_payload);
        assert_eq!(f.types[3].repr, Repr::Rust);
        assert!(f.types[3].has_payload);
        assert_eq!(f.types[3].fields[0].name, "Line.0");
        assert_eq!(f.types[4].fields[0].ty, RustType::path("String"));
        assert_eq!(f.types[5].repr, Repr::C);
        assert_eq!(f.types[5].kind, AdtKind::Union);
    }

    #[test]
    fn type_shapes() {
        let f = parse_src(
            r#"
            extern "C" {
                fn f(
                    a: Option<&u32>,
                    b: extern "C" fn(i32) -> i32,
                    c: *const *mut core::ffi::c_void,
                    d: [u8; 16],
                    e: &[u8],
                ) -> Option<extern "C" fn()>;
            }
            "#,
        );
        let p = &f.imports[0].params;
        assert_eq!(p.len(), 5);
        match &p[0] {
            RustType::Path { name, args, .. } => {
                assert_eq!(name, "Option");
                assert!(matches!(args[0], RustType::Ref { .. }));
            }
            other => panic!("expected Option path, got {other:?}"),
        }
        assert!(matches!(&p[1], RustType::FnPtr { abi_c: true, .. }));
        assert!(matches!(&p[2], RustType::Ptr { .. }));
        assert!(matches!(&p[3], RustType::Array(..)));
        assert!(matches!(&p[4], RustType::Ref { .. }));
    }

    #[test]
    fn aliases_mods_and_noise() {
        let f = parse_src(
            r#"
            use std::ffi::c_int;
            type Handle = *mut Opaque;
            mod inner {
                extern "C" { fn nested_import(x: i32); }
            }
            impl Foo { fn method(&self) {} }
            macro_rules! noisy { () => { extern "C" { fn not_real(); } } }
            static TABLE: [u8; 4] = [0; 4];
            "#,
        );
        assert_eq!(f.aliases.len(), 1);
        assert_eq!(f.aliases[0].name, "Handle");
        assert_eq!(f.imports.len(), 1);
        assert_eq!(f.imports[0].name, "nested_import");
    }

    #[test]
    fn non_c_abi_is_ignored() {
        let f = parse_src(
            r#"
            extern "Rust" { fn not_ffi(x: i32); }
            #[no_mangle]
            pub fn rust_abi_export(x: i32) -> i32 { x }
            "#,
        );
        assert!(f.imports.is_empty());
        assert!(f.exports.is_empty());
    }
}
