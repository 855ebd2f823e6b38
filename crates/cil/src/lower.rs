//! Lowering from the C AST to the Figure 5 IR.
//!
//! Responsibilities:
//!
//! * compile structured control flow (`if`/`while`/`for`/`switch`) into
//!   labels and conditional fall-through branches;
//! * recognize dynamic tests syntactically — `Is_long(x)`, `Is_block(x)`,
//!   `Tag_val(x) == n`, `Int_val(x) == n` and `switch (Tag_val(x))` — and
//!   turn them into the `if unboxed` / `if sum_tag` / `if int_tag`
//!   primitives of §3.2 (this is the "syntactic pattern matching to
//!   identify tag and boxedness tests" of §5.1);
//! * translate FFI macros: `Val_int`/`Int_val` conversions, `Field` into
//!   value pointer arithmetic + dereference, `Store_field` into heap
//!   stores, `CAMLparam`/`CAMLlocal` into `CAMLprotect`, `CAMLreturn`;
//! * flatten side effects: nested calls, assignments, `++`/`--` and `?:`
//!   become statements on synthesized temporaries.

use crate::ast::*;
use crate::ctypes::CTypeExpr;
use crate::ir::*;
use ffisafe_support::Span;
use std::collections::{HashMap, HashSet};

/// Lowers a parsed translation unit.
pub fn lower_unit(unit: &CUnit) -> IrProgram {
    let mut program = IrProgram::default();
    for g in &unit.globals {
        program.globals.push((g.name.clone(), g.ty.clone(), g.span));
    }
    for f in &unit.functions {
        match &f.body {
            None => program.prototypes.push(IrPrototype {
                name: f.name.clone(),
                ret: f.ret.clone(),
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                span: f.span,
            }),
            Some(body) => {
                let mut ctx = FnLowerer::new(f, &mut program.notes);
                ctx.lower_body(body);
                program.functions.push(ctx.finish());
            }
        }
    }
    program
}

struct Scope {
    shadowed: Vec<(String, Option<VarId>)>,
}

struct FnLowerer<'a> {
    name: String,
    ret: CTypeExpr,
    locals: Vec<IrLocal>,
    n_params: usize,
    vars: HashMap<String, VarId>,
    scopes: Vec<Scope>,
    body: Vec<IrStmt>,
    next_label: u32,
    next_temp: u32,
    break_stack: Vec<Label>,
    continue_stack: Vec<Label>,
    named_labels: HashMap<String, Label>,
    address_taken: HashSet<VarId>,
    is_static: bool,
    span: Span,
    notes: &'a mut Vec<(Span, String)>,
}

impl<'a> FnLowerer<'a> {
    fn new(f: &CFunction, notes: &'a mut Vec<(Span, String)>) -> Self {
        let mut locals = Vec::new();
        let mut vars = HashMap::new();
        for (i, p) in f.params.iter().enumerate() {
            let name = if p.name.is_empty() { format!("%arg{i}") } else { p.name.clone() };
            vars.insert(name.clone(), VarId(i as u32));
            locals.push(IrLocal { name, ty: p.ty.clone(), is_param: true, span: f.span });
        }
        FnLowerer {
            name: f.name.clone(),
            ret: f.ret.clone(),
            n_params: locals.len(),
            locals,
            vars,
            scopes: Vec::new(),
            body: Vec::new(),
            next_label: 0,
            next_temp: 0,
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
            named_labels: HashMap::new(),
            address_taken: HashSet::new(),
            is_static: f.is_static,
            span: f.span,
            notes,
        }
    }

    fn finish(mut self) -> IrFunction {
        // guarantee an explicit exit so protection-set checks see it
        let needs_exit = !matches!(
            self.body.last().map(|s| &s.kind),
            Some(IrStmtKind::Return(_))
                | Some(IrStmtKind::CamlReturn(_))
                | Some(IrStmtKind::Goto(_))
        );
        if needs_exit {
            self.body.push(IrStmt::new(IrStmtKind::Return(None), self.span));
        }
        IrFunction {
            name: self.name,
            ret: self.ret,
            locals: self.locals,
            n_params: self.n_params,
            body: self.body,
            n_labels: self.next_label,
            address_taken: self.address_taken,
            is_static: self.is_static,
            span: self.span,
        }
    }

    // ---- helpers -----------------------------------------------------------

    fn fresh_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    fn declare(&mut self, name: &str, ty: CTypeExpr, span: Span) -> VarId {
        let id = VarId(self.locals.len() as u32);
        let prev = self.vars.insert(name.to_string(), id);
        if let Some(scope) = self.scopes.last_mut() {
            scope.shadowed.push((name.to_string(), prev));
        }
        self.locals.push(IrLocal { name: name.to_string(), ty, is_param: false, span });
        id
    }

    fn fresh_temp(&mut self, ty: CTypeExpr, span: Span) -> VarId {
        let name = format!("%t{}", self.next_temp);
        self.next_temp += 1;
        let id = VarId(self.locals.len() as u32);
        self.locals.push(IrLocal { name, ty, is_param: false, span });
        id
    }

    fn lookup(&mut self, name: &str) -> Option<VarId> {
        self.vars.get(name).copied()
    }

    fn emit(&mut self, kind: IrStmtKind, span: Span) {
        self.body.push(IrStmt::new(kind, span));
    }

    fn note(&mut self, span: Span, msg: impl Into<String>) {
        self.notes.push((span, msg.into()));
    }

    fn label_for(&mut self, name: &str) -> Label {
        if let Some(&l) = self.named_labels.get(name) {
            return l;
        }
        let l = self.fresh_label();
        self.named_labels.insert(name.to_string(), l);
        l
    }

    // ---- statements ----------------------------------------------------------

    fn lower_body(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            self.lower_stmt(s);
        }
    }

    fn lower_block(&mut self, stmts: &[CStmt]) {
        self.scopes.push(Scope { shadowed: Vec::new() });
        self.lower_body(stmts);
        let scope = self.scopes.pop().expect("scope stack balanced");
        for (name, prev) in scope.shadowed.into_iter().rev() {
            match prev {
                Some(v) => {
                    self.vars.insert(name, v);
                }
                None => {
                    self.vars.remove(&name);
                }
            }
        }
    }

    fn lower_stmt(&mut self, stmt: &CStmt) {
        let span = stmt.span;
        match &stmt.kind {
            CStmtKind::Empty => {}
            CStmtKind::Block(stmts) => self.lower_block(stmts),
            CStmtKind::Decl { ty, name, init } => {
                let var = self.declare(name, ty.clone(), span);
                if let Some(init) = init {
                    self.lower_assign_to(IrLval::Var(var), init, span);
                }
            }
            CStmtKind::Expr(e) => self.lower_expr_stmt(e, span),
            CStmtKind::Return(e) => {
                let ir = e.as_ref().map(|e| self.lower_expr(e));
                self.emit(IrStmtKind::Return(ir), span);
            }
            CStmtKind::CamlReturn(e) => {
                let ir = e.as_ref().map(|e| self.lower_expr(e));
                self.emit(IrStmtKind::CamlReturn(ir), span);
            }
            CStmtKind::CamlProtect { names, declares } => {
                for n in names {
                    let var = if *declares {
                        // CAMLlocal declares and registers; its Val_unit
                        // initialization is a macro artifact that must not
                        // constrain the variable's type
                        self.declare(n, CTypeExpr::Value, span)
                    } else {
                        match self.lookup(n) {
                            Some(v) => v,
                            None => {
                                self.note(span, format!("CAMLparam of unknown variable `{n}`"));
                                continue;
                            }
                        }
                    };
                    self.emit(IrStmtKind::Protect(var), span);
                }
            }
            CStmtKind::If { cond, then_branch, else_branch } => {
                let l_then = self.fresh_label();
                let l_else = self.fresh_label();
                let l_end = self.fresh_label();
                self.branch(cond, l_then, l_else, span);
                self.emit(IrStmtKind::Mark(l_then), span);
                self.lower_block(then_branch);
                self.emit(IrStmtKind::Goto(l_end), span);
                self.emit(IrStmtKind::Mark(l_else), span);
                self.lower_block(else_branch);
                self.emit(IrStmtKind::Mark(l_end), span);
            }
            CStmtKind::While { cond, body } => {
                let l_head = self.fresh_label();
                let l_body = self.fresh_label();
                let l_end = self.fresh_label();
                self.emit(IrStmtKind::Mark(l_head), span);
                self.branch(cond, l_body, l_end, span);
                self.emit(IrStmtKind::Mark(l_body), span);
                self.break_stack.push(l_end);
                self.continue_stack.push(l_head);
                self.lower_block(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.emit(IrStmtKind::Goto(l_head), span);
                self.emit(IrStmtKind::Mark(l_end), span);
            }
            CStmtKind::DoWhile { body, cond } => {
                let l_body = self.fresh_label();
                let l_cond = self.fresh_label();
                let l_end = self.fresh_label();
                self.emit(IrStmtKind::Mark(l_body), span);
                self.break_stack.push(l_end);
                self.continue_stack.push(l_cond);
                self.lower_block(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.emit(IrStmtKind::Mark(l_cond), span);
                self.branch(cond, l_body, l_end, span);
                self.emit(IrStmtKind::Mark(l_end), span);
            }
            CStmtKind::For { init, cond, step, body } => {
                self.scopes.push(Scope { shadowed: Vec::new() });
                if let Some(init) = init {
                    self.lower_stmt(init);
                }
                let l_cond = self.fresh_label();
                let l_body = self.fresh_label();
                let l_step = self.fresh_label();
                let l_end = self.fresh_label();
                self.emit(IrStmtKind::Mark(l_cond), span);
                match cond {
                    Some(c) => self.branch(c, l_body, l_end, span),
                    None => self.emit(IrStmtKind::Goto(l_body), span),
                }
                self.emit(IrStmtKind::Mark(l_body), span);
                self.break_stack.push(l_end);
                self.continue_stack.push(l_step);
                self.lower_block(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.emit(IrStmtKind::Mark(l_step), span);
                if let Some(step) = step {
                    self.lower_expr_stmt(step, span);
                }
                self.emit(IrStmtKind::Goto(l_cond), span);
                self.emit(IrStmtKind::Mark(l_end), span);
                let scope = self.scopes.pop().expect("scope stack balanced");
                for (name, prev) in scope.shadowed.into_iter().rev() {
                    match prev {
                        Some(v) => {
                            self.vars.insert(name, v);
                        }
                        None => {
                            self.vars.remove(&name);
                        }
                    }
                }
            }
            CStmtKind::Switch { scrutinee, cases } => self.lower_switch(scrutinee, cases, span),
            CStmtKind::Break => match self.break_stack.last() {
                Some(&l) => self.emit(IrStmtKind::Goto(l), span),
                None => self.note(span, "break outside loop/switch"),
            },
            CStmtKind::Continue => match self.continue_stack.last() {
                Some(&l) => self.emit(IrStmtKind::Goto(l), span),
                None => self.note(span, "continue outside loop"),
            },
            CStmtKind::Goto(name) => {
                let l = self.label_for(name);
                self.emit(IrStmtKind::Goto(l), span);
            }
            CStmtKind::Label(name) => {
                let l = self.label_for(name);
                self.emit(IrStmtKind::Mark(l), span);
            }
        }
    }

    fn lower_switch(&mut self, scrutinee: &CExpr, cases: &[SwitchCase], span: Span) {
        let l_end = self.fresh_label();
        // Recognized patterns: switch (Tag_val(x)) / switch (Int_val(x)).
        enum Mode {
            SumTag(VarId),
            IntTag(VarId),
            Plain(IrExpr),
        }
        let mode = match macro_call(scrutinee) {
            Some(("Tag_val", [arg])) => match self.lower_expr(arg).as_var() {
                Some(v) => Mode::SumTag(v),
                None => Mode::Plain(self.lower_expr(scrutinee)),
            },
            Some(("Int_val" | "Long_val" | "Bool_val", [arg])) => {
                match self.lower_expr(arg).as_var() {
                    Some(v) => Mode::IntTag(v),
                    None => Mode::Plain(self.lower_expr(scrutinee)),
                }
            }
            _ => Mode::Plain(self.lower_expr(scrutinee)),
        };
        let case_labels: Vec<Label> = cases.iter().map(|_| self.fresh_label()).collect();
        let mut default_label = l_end;
        for (case, &label) in cases.iter().zip(&case_labels) {
            match case.value {
                Some(k) => {
                    let cond = match &mode {
                        Mode::SumTag(v) => IrCond::SumTagEq(*v, k),
                        Mode::IntTag(v) => IrCond::IntTagEq(*v, k),
                        Mode::Plain(e) => IrCond::Expr(IrExpr::new(
                            IrExprKind::Binop(
                                "==",
                                Box::new(e.clone()),
                                Box::new(IrExpr::int(k, span)),
                            ),
                            span,
                        )),
                    };
                    self.emit(IrStmtKind::If { cond, target: label }, span);
                }
                None => default_label = label,
            }
        }
        self.emit(IrStmtKind::Goto(default_label), span);
        self.break_stack.push(l_end);
        for (case, &label) in cases.iter().zip(&case_labels) {
            self.emit(IrStmtKind::Mark(label), span);
            self.lower_block(&case.body);
            // fall-through to the next case is implicit in the layout
        }
        self.break_stack.pop();
        self.emit(IrStmtKind::Mark(l_end), span);
    }

    /// Emits `if <cond> goto true_label; goto false_label;` recognizing the
    /// dynamic-test patterns.
    fn branch(&mut self, cond: &CExpr, true_label: Label, false_label: Label, span: Span) {
        let (ir_cond, swapped) = self.lower_cond(cond, false);
        let (t, f) = if swapped { (false_label, true_label) } else { (true_label, false_label) };
        self.emit(IrStmtKind::If { cond: ir_cond, target: t }, span);
        self.emit(IrStmtKind::Goto(f), span);
    }

    /// Canonicalizes a condition. Returns the positive IR condition and
    /// whether the branches must be swapped.
    fn lower_cond(&mut self, cond: &CExpr, negated: bool) -> (IrCond, bool) {
        match &cond.kind {
            CExprKind::Unary("!", inner) => return self.lower_cond(inner, !negated),
            CExprKind::Binary(op @ ("==" | "!="), lhs, rhs) => {
                let negated = if *op == "!=" { !negated } else { negated };
                // Tag_val(x) == n  /  Int_val(x) == n  (either operand order)
                let (call_side, const_side) = (lhs.as_ref(), rhs.as_ref());
                for (c, k) in [(call_side, const_side), (const_side, call_side)] {
                    let CExprKind::Int(n) = k.kind else { continue };
                    if let Some((name, [arg])) = macro_call(c) {
                        if let Some(v) = self.simple_var(arg) {
                            match name {
                                "Tag_val" => return (IrCond::SumTagEq(v, n), negated),
                                "Int_val" | "Long_val" | "Bool_val" => {
                                    return (IrCond::IntTagEq(v, n), negated)
                                }
                                // Is_long(x) == 0  ≡  Is_block(x)
                                "Is_long" if n == 0 => return (IrCond::Boxed(v), negated),
                                "Is_long" if n == 1 => return (IrCond::Unboxed(v), negated),
                                "Is_block" if n == 0 => return (IrCond::Unboxed(v), negated),
                                "Is_block" if n == 1 => return (IrCond::Boxed(v), negated),
                                _ => {}
                            }
                        }
                    }
                    // x == Val_int(n) / x == Val_unit comparisons on values
                    // are value-equality tests; treat as plain expressions.
                }
            }
            CExprKind::Call(..) => {
                if let Some((name, [arg])) = macro_call(cond) {
                    if let Some(v) = self.simple_var(arg) {
                        match name {
                            "Is_long" => return (IrCond::Unboxed(v), negated),
                            "Is_block" => return (IrCond::Boxed(v), negated),
                            _ => {}
                        }
                    }
                }
            }
            _ => {}
        }
        let e = self.lower_expr(cond);
        (IrCond::Expr(e), negated)
    }

    /// A bare variable reference (possibly parenthesized — the parser
    /// already flattened those).
    fn simple_var(&mut self, e: &CExpr) -> Option<VarId> {
        match &e.kind {
            CExprKind::Ident(n) => self.lookup(n),
            _ => None,
        }
    }

    // ---- expressions ---------------------------------------------------------

    /// Lowers an expression used only for effect.
    fn lower_expr_stmt(&mut self, e: &CExpr, span: Span) {
        match &e.kind {
            CExprKind::Assign("=", lhs, rhs) => {
                let lval = self.lower_lval(lhs);
                self.lower_assign_to(lval, rhs, span);
            }
            CExprKind::Assign(op, lhs, rhs) => {
                self.lower_compound_assign(op, lhs, rhs, span);
            }
            CExprKind::Call(..) => {
                if self.lower_store_field(e, span) {
                    return;
                }
                let (callee, args) = self.lower_call_parts(e);
                match callee {
                    Some((callee, args)) => {
                        self.emit(IrStmtKind::Call { dst: None, callee, args }, span)
                    }
                    None => {
                        // macro translated to a pure expression; evaluate for
                        // effect (none) and drop
                        let _ = args;
                        let _ = self.lower_expr(e);
                    }
                }
            }
            CExprKind::Postfix(inner, op) | CExprKind::Unary(op @ ("++" | "--"), inner) => {
                self.lower_incdec(inner, op, span);
            }
            CExprKind::Comma(a, b) => {
                self.lower_expr_stmt(a, span);
                self.lower_expr_stmt(b, span);
            }
            _ => {
                let _ = self.lower_expr(e);
            }
        }
    }

    /// `Store_field(x, i, v)` at statement level.
    fn lower_store_field(&mut self, e: &CExpr, span: Span) -> bool {
        // Store_double_field stores a C double, not a value; it lowers as
        // an ordinary (unconstrained) call instead
        if let Some(("Store_field", [x, i, v])) = macro_call(e) {
            let base = self.lower_expr(x);
            let offset = self.lower_expr(i);
            let lval = IrLval::Mem { base, offset };
            self.lower_assign_to(lval, v, span);
            return true;
        }
        false
    }

    /// Assigns `rhs` to `lval`, emitting a `Call` statement when `rhs` is a
    /// function call (Figure 5's `lval := f(e…)`).
    fn lower_assign_to(&mut self, lval: IrLval, rhs: &CExpr, span: Span) {
        if let CExprKind::Call(..) = rhs.kind {
            if let Some((callee, args)) = self.lower_call_parts(rhs).0 {
                self.emit(IrStmtKind::Call { dst: Some(lval), callee, args }, span);
                return;
            }
        }
        let e = self.lower_expr(rhs);
        self.emit(IrStmtKind::Assign(lval, e), span);
    }

    fn lower_compound_assign(&mut self, op: &str, lhs: &CExpr, rhs: &CExpr, span: Span) {
        let bare = op.trim_end_matches('=');
        let bare: &'static str = match bare {
            "+" => "+",
            "-" => "-",
            "*" => "*",
            "/" => "/",
            "%" => "%",
            "&" => "&",
            "|" => "|",
            "^" => "^",
            "<<" => "<<",
            ">>" => ">>",
            _ => "+",
        };
        let lval = self.lower_lval(lhs);
        let cur = self.lval_as_expr(&lval, span);
        let r = self.lower_expr(rhs);
        let combined = IrExpr::new(IrExprKind::Binop(bare, Box::new(cur), Box::new(r)), span);
        self.emit(IrStmtKind::Assign(lval, combined), span);
    }

    fn lower_incdec(&mut self, inner: &CExpr, op: &str, span: Span) {
        let bare: &'static str = if op == "++" { "+" } else { "-" };
        let lval = self.lower_lval(inner);
        let cur = self.lval_as_expr(&lval, span);
        let combined = IrExpr::new(
            IrExprKind::Binop(bare, Box::new(cur), Box::new(IrExpr::int(1, span))),
            span,
        );
        self.emit(IrStmtKind::Assign(lval, combined), span);
    }

    fn lval_as_expr(&mut self, lval: &IrLval, span: Span) -> IrExpr {
        match lval {
            IrLval::Var(v) => IrExpr::var(*v, span),
            IrLval::Mem { base, offset } => IrExpr::new(
                IrExprKind::Deref(Box::new(IrExpr::new(
                    IrExprKind::PtrAdd(Box::new(base.clone()), Box::new(offset.clone())),
                    span,
                ))),
                span,
            ),
        }
    }

    fn lower_lval(&mut self, e: &CExpr) -> IrLval {
        let span = e.span;
        match &e.kind {
            CExprKind::Ident(n) => match self.lookup(n) {
                Some(v) => IrLval::Var(v),
                None => {
                    // assignment to a global or unknown name
                    self.note(span, format!("assignment to unmodeled location `{n}`"));
                    let tmp = self.fresh_temp(CTypeExpr::Auto, span);
                    IrLval::Var(tmp)
                }
            },
            CExprKind::Unary("*", inner) => {
                let base = self.lower_expr(inner);
                IrLval::Mem { base, offset: IrExpr::int(0, span) }
            }
            CExprKind::Index(base, idx) => {
                let b = self.lower_expr(base);
                let i = self.lower_expr(idx);
                IrLval::Mem { base: b, offset: i }
            }
            CExprKind::Call(..) => {
                if let Some(("Field", [x, i])) = macro_call(e) {
                    let base = self.lower_expr(x);
                    let offset = self.lower_expr(i);
                    return IrLval::Mem { base, offset };
                }
                self.note(span, "unsupported assignment target");
                let tmp = self.fresh_temp(CTypeExpr::Auto, span);
                IrLval::Var(tmp)
            }
            CExprKind::Member(..) => {
                // stores into C structs are outside the model
                let tmp = self.fresh_temp(CTypeExpr::Auto, span);
                IrLval::Var(tmp)
            }
            _ => {
                self.note(span, "unsupported assignment target");
                let tmp = self.fresh_temp(CTypeExpr::Auto, span);
                IrLval::Var(tmp)
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn lower_call_parts(&mut self, e: &CExpr) -> (Option<(Callee, Vec<IrExpr>)>, Vec<IrExpr>) {
        let CExprKind::Call(f, args) = &e.kind else {
            return (None, Vec::new());
        };
        if let CExprKind::Ident(name) = &f.kind {
            if is_pure_macro(name) {
                return (None, Vec::new());
            }
            // a local variable used as callee is a function pointer
            if let Some(v) = self.lookup(name) {
                let ptr = IrExpr::var(v, f.span);
                let lowered: Vec<IrExpr> = args.iter().map(|a| self.lower_expr(a)).collect();
                return (Some((Callee::Pointer(Box::new(ptr)), lowered)), Vec::new());
            }
            let lowered: Vec<IrExpr> = args.iter().map(|a| self.lower_expr(a)).collect();
            return (Some((Callee::Named(name.clone()), lowered)), Vec::new());
        }
        // call through an expression: function pointer
        let callee = self.lower_expr(f);
        let lowered: Vec<IrExpr> = args.iter().map(|a| self.lower_expr(a)).collect();
        (Some((Callee::Pointer(Box::new(callee)), lowered)), Vec::new())
    }

    fn lower_expr(&mut self, e: &CExpr) -> IrExpr {
        let span = e.span;
        match &e.kind {
            CExprKind::Int(n) => IrExpr::int(*n, span),
            CExprKind::Float(_) => IrExpr::new(IrExprKind::Float, span),
            CExprKind::Str(s) => IrExpr::new(IrExprKind::Str(s.clone()), span),
            CExprKind::Sizeof => IrExpr::new(IrExprKind::OpaqueInt, span),
            CExprKind::Ident(n) => self.lower_ident(n, span),
            CExprKind::Call(..) => self.lower_call_expr(e, span),
            CExprKind::Index(base, idx) => {
                let b = self.lower_expr(base);
                let i = self.lower_expr(idx);
                IrExpr::new(
                    IrExprKind::Deref(Box::new(IrExpr::new(
                        IrExprKind::PtrAdd(Box::new(b), Box::new(i)),
                        span,
                    ))),
                    span,
                )
            }
            CExprKind::Member(..) => IrExpr::new(IrExprKind::OpaqueInt, span),
            CExprKind::Unary("*", inner) => {
                let b = self.lower_expr(inner);
                IrExpr::new(IrExprKind::Deref(Box::new(b)), span)
            }
            CExprKind::Unary("&", inner) => match &inner.kind {
                CExprKind::Ident(n) => match self.lookup(n) {
                    Some(v) => {
                        self.address_taken.insert(v);
                        IrExpr::new(IrExprKind::AddrOfVar(v), span)
                    }
                    None => IrExpr::new(IrExprKind::Unknown, span),
                },
                _ => {
                    self.note(span, "address-of on a non-variable");
                    IrExpr::new(IrExprKind::Unknown, span)
                }
            },
            CExprKind::Unary("-", inner) => {
                let b = self.lower_expr(inner);
                IrExpr::new(IrExprKind::Neg(Box::new(b)), span)
            }
            CExprKind::Unary("!", inner) => {
                let b = self.lower_expr(inner);
                IrExpr::new(IrExprKind::Not(Box::new(b)), span)
            }
            CExprKind::Unary("~", inner) => {
                let b = self.lower_expr(inner);
                IrExpr::new(
                    IrExprKind::Binop("^", Box::new(b), Box::new(IrExpr::int(-1, span))),
                    span,
                )
            }
            CExprKind::Unary(op @ ("++" | "--"), inner) => {
                self.lower_incdec(inner, op, span);
                let lval = self.lower_lval(inner);
                self.lval_as_expr(&lval, span)
            }
            CExprKind::Unary(_, _) => IrExpr::new(IrExprKind::Unknown, span),
            CExprKind::Postfix(inner, op) => {
                // post-increment evaluated for value: the analysis tracks the
                // post state (documented approximation)
                self.lower_incdec(inner, op, span);
                let lval = self.lower_lval(inner);
                self.lval_as_expr(&lval, span)
            }
            CExprKind::Binary(op, a, b) => {
                let ia = self.lower_expr(a);
                let ib = self.lower_expr(b);
                // `p + i` on pointers/values is pointer arithmetic; the
                // type rules dispatch, so lower `+`/`-` into PtrAdd only
                // when a side could be a pointer — conservatively, keep
                // arithmetic as Binop and let the engine reinterpret
                // Binop("+") over value/pointer operands.
                IrExpr::new(IrExprKind::Binop(op, Box::new(ia), Box::new(ib)), span)
            }
            CExprKind::Assign(..) => {
                self.lower_expr_stmt(e, span);
                match &e.kind {
                    CExprKind::Assign(_, lhs, _) => {
                        let lval = self.lower_lval(lhs);
                        self.lval_as_expr(&lval, span)
                    }
                    _ => unreachable!(),
                }
            }
            CExprKind::Ternary(c, a, b) => {
                let tmp = self.fresh_temp(CTypeExpr::Auto, span);
                let l_true = self.fresh_label();
                let l_false = self.fresh_label();
                let l_end = self.fresh_label();
                self.branch(c, l_true, l_false, span);
                self.emit(IrStmtKind::Mark(l_true), span);
                self.lower_assign_to(IrLval::Var(tmp), a, span);
                self.emit(IrStmtKind::Goto(l_end), span);
                self.emit(IrStmtKind::Mark(l_false), span);
                self.lower_assign_to(IrLval::Var(tmp), b, span);
                self.emit(IrStmtKind::Mark(l_end), span);
                IrExpr::var(tmp, span)
            }
            CExprKind::Cast(ty, inner) => {
                let b = self.lower_expr(inner);
                IrExpr::new(IrExprKind::Cast(ty.clone(), Box::new(b)), span)
            }
            CExprKind::Comma(a, b) => {
                self.lower_expr_stmt(a, span);
                self.lower_expr(b)
            }
        }
    }

    fn lower_ident(&mut self, name: &str, span: Span) -> IrExpr {
        match name {
            "Val_unit" | "Val_false" | "Val_none" | "Val_emptylist" => {
                return IrExpr::new(IrExprKind::ValInt(Box::new(IrExpr::int(0, span))), span)
            }
            "Val_true" => {
                return IrExpr::new(IrExprKind::ValInt(Box::new(IrExpr::int(1, span))), span)
            }
            "NULL" => return IrExpr::int(0, span),
            _ => {}
        }
        match self.lookup(name) {
            Some(v) => IrExpr::var(v, span),
            None => {
                // global variable or enum constant: unknown int-ish value
                IrExpr::new(IrExprKind::Unknown, span)
            }
        }
    }

    fn lower_call_expr(&mut self, e: &CExpr, span: Span) -> IrExpr {
        // FFI macros that are pure expressions
        if let Some((name, args)) = macro_call(e) {
            match (name, args) {
                ("Val_int" | "Val_long" | "Val_bool", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::ValInt(Box::new(ia)), span);
                }
                ("Int_val" | "Long_val" | "Bool_val" | "Unsigned_long_val", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::IntVal(Box::new(ia)), span);
                }
                ("Field", [x, i]) => {
                    let b = self.lower_expr(x);
                    let off = self.lower_expr(i);
                    return IrExpr::new(
                        IrExprKind::Deref(Box::new(IrExpr::new(
                            IrExprKind::PtrAdd(Box::new(b), Box::new(off)),
                            span,
                        ))),
                        span,
                    );
                }
                ("Tag_val", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::Prim(PrimOp::TagVal, vec![ia]), span);
                }
                ("Is_long", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::Prim(PrimOp::IsLong, vec![ia]), span);
                }
                ("Is_block", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::Prim(PrimOp::IsBlock, vec![ia]), span);
                }
                ("String_val" | "Bytes_val" | "Bp_val", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::Prim(PrimOp::StringVal, vec![ia]), span);
                }
                ("Double_val", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::Prim(PrimOp::DoubleVal, vec![ia]), span);
                }
                ("Wosize_val" | "caml_string_length", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::Prim(PrimOp::WosizeVal, vec![ia]), span);
                }
                ("Atom", [a]) => {
                    let ia = self.lower_expr(a);
                    return IrExpr::new(IrExprKind::Prim(PrimOp::Atom, vec![ia]), span);
                }
                ("Store_field", [_, _, _]) => {
                    self.lower_store_field(e, span);
                    return IrExpr::new(IrExprKind::ValInt(Box::new(IrExpr::int(0, span))), span);
                }
                _ => {}
            }
        }
        // ordinary call in expression position: extract to a temporary
        let (parts, _) = self.lower_call_parts(e);
        match parts {
            Some((callee, args)) => {
                let tmp = self.fresh_temp(CTypeExpr::Auto, span);
                self.emit(IrStmtKind::Call { dst: Some(IrLval::Var(tmp)), callee, args }, span);
                IrExpr::var(tmp, span)
            }
            None => IrExpr::new(IrExprKind::Unknown, span),
        }
    }
}

/// Matches `name(args…)` where `name` is an identifier; returns the name
/// and argument slice.
fn macro_call(e: &CExpr) -> Option<(&str, &[CExpr])> {
    match &e.kind {
        CExprKind::Call(f, args) => match &f.kind {
            CExprKind::Ident(n) => Some((n.as_str(), args.as_slice())),
            _ => None,
        },
        _ => None,
    }
}

/// Macros lowered to pure expressions rather than calls.
fn is_pure_macro(name: &str) -> bool {
    matches!(
        name,
        "Val_int"
            | "Val_long"
            | "Val_bool"
            | "Int_val"
            | "Long_val"
            | "Bool_val"
            | "Unsigned_long_val"
            | "Field"
            | "Tag_val"
            | "Is_long"
            | "Is_block"
            | "String_val"
            | "Bytes_val"
            | "Bp_val"
            | "Double_val"
            | "Wosize_val"
            | "caml_string_length"
            | "Atom"
            | "Store_field"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use ffisafe_support::FileId;

    fn lower_src(src: &str) -> IrProgram {
        let unit = parse(FileId::from_raw(0), src);
        assert!(unit.errors.is_empty(), "{:?}", unit.errors);
        lower_unit(&unit)
    }

    fn one(src: &str) -> IrFunction {
        let p = lower_src(src);
        assert_eq!(p.functions.len(), 1);
        p.functions.into_iter().next().unwrap()
    }

    #[test]
    fn lowers_val_int_roundtrip() {
        let f = one("value f(value x) { return Val_int(Int_val(x) + 1); }");
        let IrStmtKind::Return(Some(e)) = &f.body[0].kind else { panic!("{:?}", f.body) };
        let IrExprKind::ValInt(inner) = &e.kind else { panic!() };
        let IrExprKind::Binop("+", l, _) = &inner.kind else { panic!() };
        assert!(matches!(l.kind, IrExprKind::IntVal(_)));
    }

    #[test]
    fn lowers_field_to_value_deref() {
        let f = one("value f(value x) { return Field(x, 1); }");
        let IrStmtKind::Return(Some(e)) = &f.body[0].kind else { panic!() };
        let IrExprKind::Deref(add) = &e.kind else { panic!("{:?}", e.kind) };
        let IrExprKind::PtrAdd(b, o) = &add.kind else { panic!() };
        assert_eq!(b.as_var(), Some(VarId(0)));
        assert!(matches!(o.kind, IrExprKind::Int(1)));
    }

    #[test]
    fn lowers_store_field() {
        let f = one("void f(value x, value v) { Store_field(x, 0, v); }");
        let IrStmtKind::Assign(IrLval::Mem { base, offset }, rhs) = &f.body[0].kind else {
            panic!("{:?}", f.body)
        };
        assert_eq!(base.as_var(), Some(VarId(0)));
        assert!(matches!(offset.kind, IrExprKind::Int(0)));
        assert_eq!(rhs.as_var(), Some(VarId(1)));
    }

    #[test]
    fn recognizes_is_long_test() {
        let f = one("int f(value x) { if (Is_long(x)) return 1; else return 2; }");
        let IrStmtKind::If { cond, .. } = &f.body[0].kind else { panic!("{:?}", f.body) };
        assert_eq!(cond, &IrCond::Unboxed(VarId(0)));
    }

    #[test]
    fn recognizes_negated_is_long() {
        let f = one("int f(value x) { if (!Is_long(x)) return 1; else return 2; }");
        // the branch still uses the positive Unboxed condition with targets
        // swapped: the If's fall-through must be the `return 1` path
        let IrStmtKind::If { cond, .. } = &f.body[0].kind else { panic!() };
        assert_eq!(cond, &IrCond::Unboxed(VarId(0)));
    }

    #[test]
    fn recognizes_tag_tests() {
        let f = one(
            "int f(value x) { if (Tag_val(x) == 1) return 1; if (Int_val(x) == 0) return 2; return 0; }",
        );
        let conds: Vec<&IrCond> = f
            .body
            .iter()
            .filter_map(|s| match &s.kind {
                IrStmtKind::If { cond, .. } => Some(cond),
                _ => None,
            })
            .collect();
        assert!(conds.contains(&&IrCond::SumTagEq(VarId(0), 1)));
        assert!(conds.contains(&&IrCond::IntTagEq(VarId(0), 0)));
    }

    #[test]
    fn switch_on_tag_val_becomes_sum_tag_chain() {
        let f = one(r#"
            int f(value x) {
                switch (Tag_val(x)) {
                    case 0: return 1;
                    case 1: return 2;
                    default: return 3;
                }
            }
            "#);
        let tags: Vec<i64> = f
            .body
            .iter()
            .filter_map(|s| match &s.kind {
                IrStmtKind::If { cond: IrCond::SumTagEq(_, n), .. } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![0, 1]);
    }

    #[test]
    fn caml_macros_lower_to_protect() {
        let f = one(r#"
            value f(value a) {
                CAMLparam1(a);
                CAMLlocal1(r);
                r = a;
                CAMLreturn(r);
            }
            "#);
        let protects: Vec<VarId> = f
            .body
            .iter()
            .filter_map(|s| match &s.kind {
                IrStmtKind::Protect(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(protects.len(), 2);
        assert!(f.body.iter().any(|s| matches!(s.kind, IrStmtKind::CamlReturn(Some(_)))));
    }

    #[test]
    fn calls_in_expressions_are_extracted() {
        let f = one("value f(value x) { return caml_copy_string(\"hi\"); }");
        assert!(matches!(
            &f.body[0].kind,
            IrStmtKind::Call { dst: Some(IrLval::Var(_)), callee: Callee::Named(n), .. } if n == "caml_copy_string"
        ));
        assert!(matches!(&f.body[1].kind, IrStmtKind::Return(Some(_))));
    }

    #[test]
    fn decl_with_call_initializer() {
        let f = one("value f(value x) { value r = caml_alloc(2, 0); return r; }");
        assert!(matches!(
            &f.body[0].kind,
            IrStmtKind::Call { dst: Some(IrLval::Var(_)), callee: Callee::Named(n), .. } if n == "caml_alloc"
        ));
    }

    #[test]
    fn while_loop_shape() {
        let f = one("int f(int n) { while (n > 0) { n = n - 1; } return n; }");
        // head mark, if, goto, body mark, assign, goto, end mark, return
        assert!(f.body.iter().filter(|s| matches!(s.kind, IrStmtKind::Mark(_))).count() >= 3);
        assert!(f.body.iter().any(|s| matches!(s.kind, IrStmtKind::Goto(_))));
    }

    #[test]
    fn implicit_return_synthesized() {
        let f = one("void f(int x) { x = x + 1; }");
        assert!(matches!(f.body.last().unwrap().kind, IrStmtKind::Return(None)));
    }

    #[test]
    fn address_of_recorded() {
        let f = one("int f(value v) { helper(&v); return 0; }");
        assert!(f.address_taken.contains(&VarId(0)));
    }

    #[test]
    fn function_pointer_call_lowered() {
        let f = one("int apply(int (*fn)(int), int x) { return fn(x); }");
        assert!(f
            .body
            .iter()
            .any(|s| matches!(&s.kind, IrStmtKind::Call { callee: Callee::Pointer(_), .. })));
    }

    #[test]
    fn ternary_creates_join_point() {
        let f = one("int f(int c) { return c ? 1 : 2; }");
        let marks = f.body.iter().filter(|s| matches!(s.kind, IrStmtKind::Mark(_))).count();
        assert!(marks >= 3, "{:#?}", f.body);
    }

    #[test]
    fn val_unit_is_tagged_zero() {
        let f = one("value f(void) { return Val_unit; }");
        let IrStmtKind::Return(Some(e)) = &f.body[0].kind else { panic!() };
        let IrExprKind::ValInt(i) = &e.kind else { panic!("{:?}", e.kind) };
        assert!(matches!(i.kind, IrExprKind::Int(0)));
    }

    #[test]
    fn prototypes_and_globals_collected() {
        let p = lower_src("int helper(value v);\nstatic value cache;\n");
        assert_eq!(p.prototypes.len(), 1);
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].1, CTypeExpr::Value);
    }

    #[test]
    fn shadowing_respects_blocks() {
        let f = one(r#"
            int f(int x) {
                { int y = 1; x = y; }
                { value y = Val_int(2); x = Int_val(y); }
                return x;
            }
            "#);
        // two distinct `y` locals plus param
        assert_eq!(f.locals.iter().filter(|l| l.name == "y").count(), 2);
    }

    #[test]
    fn string_val_prim() {
        let f = one("int f(value s) { return use(String_val(s)); }");
        let has_prim = f.body.iter().any(|st| match &st.kind {
            IrStmtKind::Call { args, .. } => {
                args.iter().any(|a| matches!(&a.kind, IrExprKind::Prim(PrimOp::StringVal, _)))
            }
            _ => false,
        });
        assert!(has_prim, "{:#?}", f.body);
    }
}
