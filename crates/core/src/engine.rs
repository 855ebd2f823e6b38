//! The per-function inference engine: Figures 6 and 7.
//!
//! Types have the form `ct [B{I}]{T}`: a flow-insensitive extended C type
//! `ct` (kept in the union-find [`TypeTable`]) and a flow-sensitive shape
//! `[B{I}]{T}` (kept in per-program-point environments). The engine walks
//! the flat Figure 5 IR, joining environments at labels (`G`) until a
//! fixpoint, then makes one reporting pass that emits diagnostics and
//! records deferred obligations (`T + 1 ≤ Ψ` bounds and GC registration
//! checks).

use crate::eta::eta;
use crate::registry::{FuncOrigin, Registry};
use ffisafe_cil::ir::*;
use ffisafe_cil::liveness::{self, Liveness};
use ffisafe_cil::CTypeExpr;
use ffisafe_support::{Diagnostic, DiagnosticBag, DiagnosticCode, Interner, Span};
use ffisafe_types::{
    Boxedness, ConstraintSet, CtId, CtNode, FlatInt, GcId, MtId, MtNode, Shape, TypeTable,
};
use std::collections::{HashMap, HashSet};

pub use ffisafe_support::session::AnalysisOptions;

/// A deferred (App)-rule check: when `effect` solves to `gc`, every live
/// heap pointer at the call must be registered.
#[derive(Clone, Debug)]
pub struct GcObligation {
    /// Enclosing function.
    pub func: String,
    /// Callee name (for messages).
    pub callee: String,
    /// The callee's GC effect.
    pub effect: GcId,
    /// Live-across locals at the call, with name and type.
    pub live: Vec<(String, CtId)>,
    /// Variables registered with `CAMLprotect` in this function.
    pub protected: HashSet<String>,
    /// Call site.
    pub span: Span,
}

/// Output of analyzing one function.
#[derive(Debug, Default)]
pub struct FunctionResult {
    /// Diagnostics from the reporting pass.
    pub diagnostics: DiagnosticBag,
    /// Deferred GC checks.
    pub obligations: Vec<GcObligation>,
    /// Fixpoint passes executed.
    pub passes: usize,
}

/// Analyzes one lowered function against the registry.
pub fn analyze_function(
    table: &mut TypeTable,
    constraints: &mut ConstraintSet,
    registry: &mut Registry,
    interner: &mut Interner,
    options: &AnalysisOptions,
    func: &IrFunction,
) -> FunctionResult {
    let liveness = liveness::compute(func);
    let info = registry
        .get(interner, &func.name)
        .unwrap_or_else(|| panic!("function {} not registered", func.name))
        .clone();
    // Flow-insensitive cts: parameters share the registry's (possibly
    // external-unified) types; locals get η of their declarations.
    let mut var_cts: Vec<CtId> = Vec::with_capacity(func.locals.len());
    for (i, local) in func.locals.iter().enumerate() {
        if i < func.n_params && i < info.params.len() {
            var_cts.push(info.params[i]);
        } else {
            var_cts.push(eta(table, &local.ty));
        }
    }
    // Protection set P: constant across the body (§3.3.2).
    let mut protected: HashSet<VarId> = HashSet::new();
    for s in &func.body {
        if let IrStmtKind::Protect(v) = s.kind {
            protected.insert(v);
        }
    }
    // Address-taken int locals are pinned to ⊤ (§5.1).
    let mut volatile_ints: HashSet<VarId> = HashSet::new();
    for &v in &func.address_taken {
        if matches!(func.locals[v.as_usize()].ty, CTypeExpr::Int | CTypeExpr::Float) {
            volatile_ints.insert(v);
        }
    }

    let mut engine = Engine {
        table,
        constraints,
        registry,
        interner,
        options,
        func,
        liveness,
        var_cts,
        protected,
        volatile_ints,
        ret_ct: info.ret,
        self_effect: info.effect,
        labels: HashMap::new(),
        env: Vec::new(),
        reporting: false,
        diags: DiagnosticBag::new(),
        obligations: Vec::new(),
        reported_addr_of: HashSet::new(),
    };
    // Address-of on value-typed locals: imprecision (§5.1), once per local.
    for &v in &func.address_taken {
        if func.locals[v.as_usize()].ty.contains_value() {
            engine.diags.push(Diagnostic::new(
                DiagnosticCode::AddressOfValue,
                func.locals[v.as_usize()].span,
                format!(
                    "address of `value` variable `{}` is taken; the analysis cannot track it",
                    func.locals[v.as_usize()].name
                ),
            ));
            engine.reported_addr_of.insert(v);
        }
    }

    let mut passes = 0usize;
    const MAX_PASSES: usize = 64;
    loop {
        passes += 1;
        let changed = engine.run_pass();
        if !changed || passes >= MAX_PASSES {
            break;
        }
    }
    engine.reporting = true;
    engine.run_pass();
    passes += 1;

    FunctionResult {
        diagnostics: std::mem::take(&mut engine.diags),
        obligations: std::mem::take(&mut engine.obligations),
        passes,
    }
}

struct Engine<'a> {
    table: &'a mut TypeTable,
    constraints: &'a mut ConstraintSet,
    registry: &'a mut Registry,
    interner: &'a mut Interner,
    options: &'a AnalysisOptions,
    func: &'a IrFunction,
    liveness: Liveness,
    var_cts: Vec<CtId>,
    protected: HashSet<VarId>,
    volatile_ints: HashSet<VarId>,
    ret_ct: CtId,
    self_effect: GcId,
    /// `G`: environment at each label, all-⊥ initially (`reset(Γ)`).
    labels: HashMap<Label, Vec<Shape>>,
    env: Vec<Shape>,
    reporting: bool,
    diags: DiagnosticBag,
    obligations: Vec<GcObligation>,
    reported_addr_of: HashSet<VarId>,
}

/// An expression's inferred `ct [B{I}]{T}`.
#[derive(Clone, Copy, Debug)]
struct ExprTy {
    ct: CtId,
    shape: Shape,
}

impl<'a> Engine<'a> {
    // ---- plumbing ------------------------------------------------------------

    fn report(&mut self, code: DiagnosticCode, span: Span, msg: String) {
        if self.reporting {
            self.diags.push(Diagnostic::new(code, span, msg));
        }
    }

    fn bottom_env(&self) -> Vec<Shape> {
        vec![Shape::bottom(); self.func.locals.len()]
    }

    fn initial_env(&self) -> Vec<Shape> {
        let mut env = self.bottom_env();
        for slot in env.iter_mut().take(self.func.n_params) {
            *slot = Shape::unknown();
        }
        env
    }

    fn join_into_label(&mut self, label: Label, env: &[Shape]) -> bool {
        let entry = self.labels.entry(label).or_insert_with(|| vec![Shape::bottom(); env.len()]);
        let mut changed = false;
        for (g, e) in entry.iter_mut().zip(env.iter()) {
            let joined = g.join(*e);
            if joined != *g {
                *g = joined;
                changed = true;
            }
        }
        changed
    }

    /// Normalizes a shape according to the variable's resolved `ct`
    /// (§3.3: non-`value`, non-`int` types carry no useful shape).
    fn shape_for_ct(&mut self, ct: CtId, s: Shape) -> Shape {
        let ct = self.table.resolve(ct);
        match self.table.node(ct).clone() {
            CtNode::Value(_) | CtNode::Var => s,
            CtNode::Int => Shape::new(Boxedness::Top, FlatInt::Known(0), s.t),
            _ => Shape::unknown(),
        }
    }

    fn set_var(&mut self, v: VarId, s: Shape) {
        let s = if self.volatile_ints.contains(&v) { Shape::unknown() } else { s };
        let ct = self.var_cts[v.as_usize()];
        self.env[v.as_usize()] = self.shape_for_ct(ct, s);
    }

    /// The `mt` under a `value` ct, binding unknown cts to fresh values.
    fn value_mt(&mut self, ct: CtId) -> Option<MtId> {
        let ct = self.table.resolve(ct);
        match self.table.node(ct).clone() {
            CtNode::Value(mt) => Some(mt),
            CtNode::Var => {
                let fresh = self.table.ct_fresh_value();
                self.table.unify_ct(ct, fresh).ok();
                self.value_mt(fresh)
            }
            _ => None,
        }
    }

    /// Forces `mt` to be a representational type, binding variables.
    /// Returns `None` (without reporting) for abstract/custom types.
    fn rep_components(
        &mut self,
        mt: MtId,
    ) -> Option<(ffisafe_types::PsiId, ffisafe_types::SigmaId)> {
        let mt = self.table.resolve(mt);
        match self.table.node(mt).clone() {
            MtNode::Rep(psi, sigma) => Some((psi, sigma)),
            MtNode::Var => {
                let fresh = self.table.mt_fresh_rep();
                self.table.unify_mt(mt, fresh).ok();
                match self.table.node(fresh).clone() {
                    MtNode::Rep(psi, sigma) => Some((psi, sigma)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn unify_ct_or_report(&mut self, a: CtId, b: CtId, span: Span, what: &str) {
        if let Err(e) = self.table.unify_ct(a, b) {
            self.report(DiagnosticCode::TypeMismatch, span, format!("{what}: {e}"));
        }
    }

    // ---- the driver pass -------------------------------------------------------

    /// Walks the body once; returns whether any label environment changed.
    fn run_pass(&mut self) -> bool {
        self.env = self.initial_env();
        let mut changed = false;
        for idx in 0..self.func.body.len() {
            changed |= self.step(idx);
        }
        changed
    }

    fn step(&mut self, idx: usize) -> bool {
        let stmt = self.func.body[idx].clone();
        let span = stmt.span;
        let mut changed = false;
        match &stmt.kind {
            IrStmtKind::Nop => {}
            IrStmtKind::Mark(l) => {
                let env = self.env.clone();
                changed |= self.join_into_label(*l, &env);
                self.env = self.labels[l].clone();
            }
            IrStmtKind::Goto(l) => {
                let env = self.env.clone();
                changed |= self.join_into_label(*l, &env);
                self.env = self.bottom_env();
            }
            IrStmtKind::Protect(_) => {}
            IrStmtKind::Return(e) => {
                if let Some(e) = e {
                    let t = self.eval(e);
                    let ret = self.ret_ct;
                    self.unify_ct_or_report(t.ct, ret, span, "return type");
                    self.check_safe(&t, span, "returned value");
                }
                if !self.protected.is_empty() {
                    self.report(
                        DiagnosticCode::MissingCamlReturn,
                        span,
                        format!(
                            "`{}` registered values with CAMLparam/CAMLlocal but exits through plain return",
                            self.func.name
                        ),
                    );
                }
                self.env = self.bottom_env();
            }
            IrStmtKind::CamlReturn(e) => {
                if let Some(e) = e {
                    let t = self.eval(e);
                    let ret = self.ret_ct;
                    self.unify_ct_or_report(t.ct, ret, span, "return type");
                    self.check_safe(&t, span, "returned value");
                }
                if self.protected.is_empty() {
                    self.report(
                        DiagnosticCode::SpuriousCamlReturn,
                        span,
                        format!(
                            "`{}` uses CAMLreturn but never registered anything with CAMLparam/CAMLlocal",
                            self.func.name
                        ),
                    );
                }
                self.env = self.bottom_env();
            }
            IrStmtKind::Assign(lval, e) => {
                let t = self.eval(e);
                self.assign(lval, t, span);
            }
            IrStmtKind::Call { dst, callee, args } => self.call(idx, dst, callee, args, span),
            IrStmtKind::If { cond, target } => changed |= self.branch(cond, *target, span),
        }
        changed
    }

    fn assign(&mut self, lval: &IrLval, t: ExprTy, span: Span) {
        match lval {
            IrLval::Var(v) => {
                let vct = self.var_cts[v.as_usize()];
                self.unify_ct_or_report(t.ct, vct, span, "assignment");
                self.set_var(*v, t.shape);
            }
            IrLval::Mem { base, offset } => {
                let b = self.eval(base);
                let o = self.eval(offset);
                self.store(b, o, t, span);
            }
        }
    }

    /// (LSet Stmt): heap stores are flow-insensitive; the stored value must
    /// be safe and match the field type.
    fn store(&mut self, base: ExprTy, offset: ExprTy, value: ExprTy, span: Span) {
        self.check_safe(&value, span, "stored value");
        let base_ct = self.table.resolve(base.ct);
        match self.table.node(base_ct).clone() {
            CtNode::Value(mt) => {
                let Some(field) = self.value_field(mt, base.shape, offset.shape.t, span) else {
                    return;
                };
                let want = self.table.ct_value(field);
                self.unify_ct_or_report(value.ct, want, span, "value stored into OCaml block");
            }
            CtNode::Ptr(inner) => {
                self.unify_ct_or_report(value.ct, inner, span, "store through pointer");
            }
            CtNode::Var => {
                let fresh = self.table.fresh_ct();
                let ptr = self.table.ct_ptr(fresh);
                self.table.unify_ct(base_ct, ptr).ok();
                self.unify_ct_or_report(value.ct, fresh, span, "store through pointer");
            }
            other => {
                let rendered = self.table.render_ct(base_ct);
                let _ = other;
                self.report(
                    DiagnosticCode::TypeMismatch,
                    span,
                    format!("store through non-pointer type `{rendered}`"),
                );
            }
        }
    }

    /// Locates the field `mt` of an OCaml block at (`tag` from the shape,
    /// `index` = shape offset + extra), implementing (Val Deref Exp) /
    /// (Val Deref Tuple Exp) and their store duals.
    fn value_field(&mut self, mt: MtId, shape: Shape, extra: FlatInt, span: Span) -> Option<MtId> {
        // Unreachable code (⊥ shapes) is vacuously well-typed: `reset(Γ)`
        // satisfies every rule, so no structural demands are made.
        if shape.b == Boxedness::Bot {
            return None;
        }
        // Combined offset
        let off = shape.i.aop("+", extra);
        let index = match off {
            FlatInt::Known(n) if n >= 0 => n as usize,
            FlatInt::Bot => 0,
            _ => {
                // if the base offset was already ⊤, the pointer arithmetic
                // that lost it has reported the imprecision at its own site
                if !matches!(shape.i, FlatInt::Top) {
                    self.report(
                        DiagnosticCode::UnknownOffset,
                        span,
                        "offset into OCaml block is not statically known".to_string(),
                    );
                }
                return None;
            }
        };
        let Some((psi, sigma)) = self.rep_components(mt) else {
            let rendered = self.table.render_mt(mt);
            self.report(
                DiagnosticCode::TypeMismatch,
                span,
                format!("structured-block access on non-block type `{rendered}`"),
            );
            return None;
        };
        if shape.b == Boxedness::Unboxed {
            self.report(
                DiagnosticCode::BoxednessMismatch,
                span,
                "dereference of a value known to be unboxed".to_string(),
            );
            return None;
        }
        let tag = match shape.t {
            FlatInt::Known(n) if n >= 0 && shape.b == Boxedness::Boxed => n as usize,
            FlatInt::Bot => 0,
            _ => {
                // (Val Deref Tuple Exp): no tag test — the block must be a
                // bare product (tuple/record/ref/array) at tag 0.
                if self.reporting && shape.b != Boxedness::Bot {
                    // strictness per the paper: tag-0 access without a
                    // boxedness test requires a product type; unify Ψ = 0
                    // only when Ψ is not already a known sum count
                    let psi_node = self.table.node(psi);
                    if matches!(psi_node, ffisafe_types::PsiNode::Var) {
                        let zero = self.table.psi_count(0);
                        self.table.unify_psi(psi, zero).ok();
                    }
                }
                0
            }
        };
        match self.table.sigma_at(sigma, tag) {
            Ok(pi) => match self.table.pi_at(pi, index) {
                Ok(field) => Some(field),
                Err(e) => {
                    self.report(DiagnosticCode::FieldRange, span, e.to_string());
                    None
                }
            },
            Err(e) => {
                self.report(DiagnosticCode::TagRange, span, e.to_string());
                None
            }
        }
    }

    fn check_safe(&mut self, t: &ExprTy, span: Span, what: &str) {
        match t.shape.i {
            FlatInt::Known(0) | FlatInt::Bot => {}
            FlatInt::Known(n) => self.report(
                DiagnosticCode::UnsafeValue,
                span,
                format!("{what} points into the middle of an OCaml block (offset {n})"),
            ),
            FlatInt::Top => {
                // already reported as UnknownOffset where the offset was lost
            }
        }
    }

    // ---- calls ----------------------------------------------------------------

    fn call(
        &mut self,
        idx: usize,
        dst: &Option<IrLval>,
        callee: &Callee,
        args: &[IrExpr],
        span: Span,
    ) {
        let arg_tys: Vec<ExprTy> = args.iter().map(|a| self.eval(a)).collect();
        let info = match callee {
            Callee::Pointer(p) => {
                let _ = self.eval(p);
                self.report(
                    DiagnosticCode::FunctionPointerCall,
                    span,
                    "call through an unknown C function pointer; no constraints generated"
                        .to_string(),
                );
                let fresh = self.table.fresh_ct();
                if let Some(lv) = dst {
                    let t = ExprTy { ct: fresh, shape: Shape::unknown() };
                    self.assign(lv, t, span);
                }
                return;
            }
            Callee::Named(name) => {
                self.registry.resolve_call(self.table, self.interner, name, args.len(), span)
            }
        };
        if info.params.len() != args.len()
            && matches!(
                info.origin,
                FuncOrigin::Defined | FuncOrigin::Declared | FuncOrigin::Runtime
            )
        {
            self.report(
                DiagnosticCode::ArityMismatch,
                span,
                format!(
                    "`{}` called with {} argument(s) but declared with {}",
                    info.name,
                    args.len(),
                    info.params.len()
                ),
            );
        }
        for (t, p) in arg_tys.iter().zip(info.params.iter()) {
            self.unify_ct_or_report(t.ct, *p, span, &format!("argument to `{}`", info.name));
            self.check_safe(t, span, &format!("argument to `{}`", info.name));
        }
        if self.options.gc_effects {
            self.constraints.add_gc_edge(info.effect, self.self_effect);
            if self.reporting && !info.noreturn {
                // Sorted, so the obligation (and the tier-1 payload that
                // stores it) never follows the hash set's order.
                let mut live: Vec<_> =
                    self.liveness.live_across(self.func, idx).into_iter().collect();
                live.sort_unstable();
                let live: Vec<(String, CtId)> = live
                    .iter()
                    .map(|v| {
                        (self.func.locals[v.as_usize()].name.clone(), self.var_cts[v.as_usize()])
                    })
                    .collect();
                let protected = self
                    .protected
                    .iter()
                    .map(|v| self.func.locals[v.as_usize()].name.clone())
                    .collect();
                self.obligations.push(GcObligation {
                    func: self.func.name.clone(),
                    callee: info.name.clone(),
                    effect: info.effect,
                    live,
                    protected,
                    span,
                });
            }
        }
        if let Some(lv) = dst {
            let t = ExprTy { ct: info.ret, shape: Shape::unknown() };
            self.assign(lv, t, span);
        }
        if info.noreturn {
            self.env = self.bottom_env();
        }
    }

    // ---- branches ----------------------------------------------------------------

    fn branch(&mut self, cond: &IrCond, target: Label, span: Span) -> bool {
        let fs = self.options.flow_sensitive;
        match cond {
            IrCond::Expr(e) => {
                let t = self.eval(e);
                match (fs, t.shape.t) {
                    (true, FlatInt::Known(0)) => false, // branch never taken
                    (true, FlatInt::Known(_)) => {
                        let env = self.env.clone();
                        let changed = self.join_into_label(target, &env);
                        self.env = self.bottom_env(); // fall-through unreachable
                        changed
                    }
                    _ => {
                        let env = self.env.clone();
                        self.join_into_label(target, &env)
                    }
                }
            }
            IrCond::Unboxed(x) => self.boxedness_test(*x, target, span, Boxedness::Unboxed),
            IrCond::Boxed(x) => self.boxedness_test(*x, target, span, Boxedness::Boxed),
            IrCond::SumTagEq(x, n) => {
                let vct = self.var_cts[x.as_usize()];
                let shape = self.env[x.as_usize()];
                if shape.b == Boxedness::Unboxed {
                    self.report(
                        DiagnosticCode::BoxednessMismatch,
                        span,
                        "Tag_val applied to a value known to be unboxed".to_string(),
                    );
                }
                if !shape.is_safe() {
                    self.report(
                        DiagnosticCode::UnsafeValue,
                        span,
                        "Tag_val applied to an interior pointer".to_string(),
                    );
                }
                if let Some(mt) = self.value_mt(vct) {
                    if let Some((_, sigma)) = self.rep_components(mt) {
                        // unreachable code makes no structural demands
                        if *n >= 0 && shape.b != Boxedness::Bot {
                            if let Err(e) = self.table.sigma_at(sigma, *n as usize) {
                                self.report(DiagnosticCode::TagRange, span, e.to_string());
                            }
                        }
                    }
                } else {
                    let rendered = self.table.render_ct(vct);
                    self.report(
                        DiagnosticCode::TypeMismatch,
                        span,
                        format!("Tag_val applied to non-value type `{rendered}`"),
                    );
                }
                if !fs {
                    let env = self.env.clone();
                    return self.join_into_label(target, &env);
                }
                let mut tenv = self.env.clone();
                tenv[x.as_usize()] =
                    Shape::new(Boxedness::Boxed, FlatInt::Known(0), FlatInt::Known(*n));
                self.join_into_label(target, &tenv)
            }
            IrCond::IntTagEq(x, n) => {
                let vct = self.var_cts[x.as_usize()];
                let shape = self.env[x.as_usize()];
                if shape.b == Boxedness::Boxed {
                    self.report(
                        DiagnosticCode::BoxednessMismatch,
                        span,
                        "Int_val tag test on a value known to be boxed".to_string(),
                    );
                }
                if let Some(mt) = self.value_mt(vct) {
                    if let Some((psi, _)) = self.rep_components(mt) {
                        if self.reporting && shape.b != Boxedness::Bot {
                            self.constraints.add_psi_bound(
                                FlatInt::Known(*n),
                                psi,
                                span,
                                format!("int_tag test against {n}"),
                            );
                        }
                    }
                }
                if !fs {
                    let env = self.env.clone();
                    return self.join_into_label(target, &env);
                }
                let mut tenv = self.env.clone();
                tenv[x.as_usize()] =
                    Shape::new(Boxedness::Unboxed, FlatInt::Known(0), FlatInt::Known(*n));
                self.join_into_label(target, &tenv)
            }
        }
    }

    /// (If unboxed Stmt) and its `Is_block` dual.
    fn boxedness_test(
        &mut self,
        x: VarId,
        target: Label,
        span: Span,
        on_target: Boxedness,
    ) -> bool {
        let vct = self.var_cts[x.as_usize()];
        let shape = self.env[x.as_usize()];
        if !shape.is_safe() {
            self.report(
                DiagnosticCode::UnsafeValue,
                span,
                "boxedness test on an interior pointer".to_string(),
            );
        }
        match self.value_mt(vct) {
            Some(mt) => {
                // The Figure 8 example: the test forces a representational
                // type when nothing else is known. Abstract/custom types
                // keep their identity (only B is refined).
                let mt = self.table.resolve(mt);
                if matches!(self.table.node(mt), MtNode::Var) {
                    let fresh = self.table.mt_fresh_rep();
                    self.table.unify_mt(mt, fresh).ok();
                }
            }
            None => {
                let rendered = self.table.render_ct(vct);
                self.report(
                    DiagnosticCode::TypeMismatch,
                    span,
                    format!("boxedness test on non-value type `{rendered}`"),
                );
            }
        }
        if !self.options.flow_sensitive {
            let env = self.env.clone();
            return self.join_into_label(target, &env);
        }
        let other = match on_target {
            Boxedness::Unboxed => Boxedness::Boxed,
            _ => Boxedness::Unboxed,
        };
        let mut tenv = self.env.clone();
        tenv[x.as_usize()] = Shape::new(on_target, FlatInt::Known(0), shape.t);
        let changed = self.join_into_label(target, &tenv);
        self.env[x.as_usize()] = Shape::new(other, FlatInt::Known(0), shape.t);
        changed
    }

    // ---- expressions ---------------------------------------------------------------

    fn eval(&mut self, e: &IrExpr) -> ExprTy {
        let span = e.span;
        match &e.kind {
            IrExprKind::Int(n) => ExprTy { ct: self.table.ct_int(), shape: Shape::int_const(*n) },
            IrExprKind::Float => ExprTy { ct: self.table.ct_float(), shape: Shape::unknown() },
            IrExprKind::Str(_) => {
                let i = self.table.ct_int();
                let p = self.table.ct_ptr(i);
                ExprTy { ct: p, shape: Shape::unknown() }
            }
            IrExprKind::OpaqueInt => ExprTy { ct: self.table.ct_int(), shape: Shape::unknown() },
            IrExprKind::Var(v) => {
                ExprTy { ct: self.var_cts[v.as_usize()], shape: self.env[v.as_usize()] }
            }
            IrExprKind::AddrOfVar(v) => {
                if self.func.locals[v.as_usize()].ty.contains_value()
                    && !self.reported_addr_of.contains(v)
                {
                    // normally pre-reported; guard for synthesized temps
                    self.reported_addr_of.insert(*v);
                }
                let inner = self.var_cts[v.as_usize()];
                let p = self.table.ct_ptr(inner);
                ExprTy { ct: p, shape: Shape::unknown() }
            }
            IrExprKind::ValInt(inner) => {
                let t = self.eval(inner);
                let ict = self.table.ct_int();
                if let Err(err) = self.table.unify_ct(t.ct, ict) {
                    self.report(
                        DiagnosticCode::TypeMismatch,
                        span,
                        format!("Val_int applied to a non-integer: {err}"),
                    );
                }
                // fresh (ψ, σ) with T + 1 ≤ ψ  — (Val Int Exp)
                let mt = self.table.mt_fresh_rep();
                let MtNode::Rep(psi, _) = *self.table.node(mt) else { unreachable!() };
                if self.reporting {
                    self.constraints.add_psi_bound(
                        t.shape.t,
                        psi,
                        span,
                        "Val_int conversion".to_string(),
                    );
                }
                let ct = self.table.ct_value(mt);
                ExprTy { ct, shape: Shape::new(Boxedness::Unboxed, FlatInt::Known(0), t.shape.t) }
            }
            IrExprKind::IntVal(inner) => {
                let t = self.eval(inner);
                let fresh = self.table.ct_fresh_value();
                if let Err(err) = self.table.unify_ct(t.ct, fresh) {
                    self.report(
                        DiagnosticCode::TypeMismatch,
                        span,
                        format!("Int_val applied to a non-value: {err}"),
                    );
                }
                // The value must admit an immediate representation: abstract
                // types (strings, floats, custom data, unmodeled
                // polymorphic variants) are always boxed, as are
                // representational types with no nullary constructors.
                if let Some(mt) = self.value_mt(t.ct) {
                    let mt = self.table.resolve(mt);
                    match self.table.node(mt).clone() {
                        MtNode::Abstract { name, .. } => {
                            self.report(
                                DiagnosticCode::TypeMismatch,
                                span,
                                format!("Int_val applied to a value of boxed type `{name}`"),
                            );
                        }
                        MtNode::Rep(psi, sigma)
                            if matches!(self.table.node(psi), ffisafe_types::PsiNode::Count(0))
                                && self.table.sigma_nonempty(sigma) =>
                        {
                            let rendered = self.table.render_mt(mt);
                            self.report(
                                DiagnosticCode::TypeMismatch,
                                span,
                                format!(
                                    "Int_val applied to a value of type `{rendered}`, which is always boxed"
                                ),
                            );
                        }
                        _ => {}
                    }
                }
                if t.shape.b == Boxedness::Boxed {
                    self.report(
                        DiagnosticCode::BoxednessMismatch,
                        span,
                        "Int_val applied to a value known to be boxed".to_string(),
                    );
                }
                ExprTy {
                    ct: self.table.ct_int(),
                    shape: Shape::new(Boxedness::Top, FlatInt::Known(0), t.shape.t),
                }
            }
            IrExprKind::Deref(inner) => self.deref(inner, span),
            IrExprKind::PtrAdd(a, b) => self.add(a, b, "+", span),
            IrExprKind::Binop(op @ ("+" | "-"), a, b) => self.add(a, b, op, span),
            IrExprKind::Binop(op, a, b) => {
                let ta = self.eval(a);
                let tb = self.eval(b);
                self.arith(op, ta, tb, span)
            }
            IrExprKind::Not(inner) => {
                let t = self.eval(inner);
                let nt = match t.shape.t {
                    FlatInt::Known(0) => FlatInt::Known(1),
                    FlatInt::Known(_) => FlatInt::Known(0),
                    other => other,
                };
                ExprTy {
                    ct: self.table.ct_int(),
                    shape: Shape::new(Boxedness::Top, FlatInt::Known(0), nt),
                }
            }
            IrExprKind::Neg(inner) => {
                let t = self.eval(inner);
                let nt = FlatInt::Known(0).aop("-", t.shape.t);
                ExprTy {
                    ct: self.table.ct_int(),
                    shape: Shape::new(Boxedness::Top, FlatInt::Known(0), nt),
                }
            }
            IrExprKind::Cast(ty, inner) => self.cast(ty, inner, span),
            IrExprKind::Prim(op, args) => self.prim(*op, args, span),
            IrExprKind::Unknown => ExprTy { ct: self.table.fresh_ct(), shape: Shape::unknown() },
        }
    }

    /// (AOP Exp): both operands C integers; values may be compared for
    /// equality against each other.
    fn arith(&mut self, op: &str, ta: ExprTy, tb: ExprTy, span: Span) -> ExprTy {
        let a_ct = self.table.resolve(ta.ct);
        let b_ct = self.table.resolve(tb.ct);
        let a_val = matches!(self.table.node(a_ct), CtNode::Value(_));
        let b_val = matches!(self.table.node(b_ct), CtNode::Value(_));
        if (op == "==" || op == "!=") && (a_val || b_val) {
            // comparing two OCaml values (e.g. `x == Val_unit`)
            self.unify_ct_or_report(ta.ct, tb.ct, span, "value comparison");
        } else {
            let ia = self.table.ct_int();
            self.unify_ct_or_report(ta.ct, ia, span, "arithmetic operand");
            let ib = self.table.ct_int();
            self.unify_ct_or_report(tb.ct, ib, span, "arithmetic operand");
        }
        ExprTy {
            ct: self.table.ct_int(),
            shape: Shape::new(Boxedness::Top, FlatInt::Known(0), ta.shape.t.aop(op, tb.shape.t)),
        }
    }

    /// `e₁ +p e₂` and additive operators: dispatches between
    /// (Add Val Exp), (Add C Exp) and (AOP Exp) on the inferred types.
    fn add(&mut self, a: &IrExpr, b: &IrExpr, op: &str, span: Span) -> ExprTy {
        let ta = self.eval(a);
        let tb = self.eval(b);
        let a_ct = self.table.resolve(ta.ct);
        let b_ct = self.table.resolve(tb.ct);
        let a_node = self.table.node(a_ct).clone();
        let b_node = self.table.node(b_ct).clone();
        match (a_node, b_node) {
            // (Add Val Exp)
            (CtNode::Value(mt), _) => self.add_value(mt, ta, tb, op, span),
            (_, CtNode::Value(mt)) if op == "+" => self.add_value(mt, tb, ta, op, span),
            // (Add C Exp)
            (CtNode::Ptr(_), _) => {
                let i = self.table.ct_int();
                self.unify_ct_or_report(tb.ct, i, span, "pointer offset");
                ExprTy { ct: ta.ct, shape: Shape::unknown() }
            }
            (_, CtNode::Ptr(_)) if op == "+" => {
                let i = self.table.ct_int();
                self.unify_ct_or_report(ta.ct, i, span, "pointer offset");
                ExprTy { ct: tb.ct, shape: Shape::unknown() }
            }
            _ => self.arith(op, ta, tb, span),
        }
    }

    fn add_value(&mut self, mt: MtId, base: ExprTy, off: ExprTy, op: &str, span: Span) -> ExprTy {
        let ict = self.table.ct_int();
        self.unify_ct_or_report(off.ct, ict, span, "offset into OCaml block");
        let m = if op == "-" { FlatInt::Known(0).aop("-", off.shape.t) } else { off.shape.t };
        let new_off = base.shape.i.aop("+", m);
        if matches!(new_off, FlatInt::Top) {
            self.report(
                DiagnosticCode::UnknownOffset,
                span,
                "pointer arithmetic on an OCaml value with a statically-unknown offset".to_string(),
            );
        }
        // grow the rows so the new interior pointer is known in-bounds
        // ((Add Val Exp) side conditions), when tag and offset are known
        if let (FlatInt::Known(tag), FlatInt::Known(idx)) = (base.shape.t, new_off) {
            if base.shape.b == Boxedness::Boxed && tag >= 0 && idx >= 0 {
                if let Some((_, sigma)) = self.rep_components(mt) {
                    match self.table.sigma_at(sigma, tag as usize) {
                        Ok(pi) => {
                            if let Err(e) = self.table.pi_at(pi, idx as usize) {
                                self.report(DiagnosticCode::FieldRange, span, e.to_string());
                            }
                        }
                        Err(e) => {
                            self.report(DiagnosticCode::TagRange, span, e.to_string());
                        }
                    }
                }
            }
        }
        ExprTy { ct: base.ct, shape: Shape::new(base.shape.b, new_off, base.shape.t) }
    }

    /// `*e` — (Val Deref Exp) / (Val Deref Tuple Exp) / (C Deref Exp).
    fn deref(&mut self, inner: &IrExpr, span: Span) -> ExprTy {
        let t = self.eval(inner);
        let ct = self.table.resolve(t.ct);
        match self.table.node(ct).clone() {
            CtNode::Value(mt) => {
                let Some(field) = self.value_field(mt, t.shape, FlatInt::Known(0), span) else {
                    let fresh = self.table.ct_fresh_value();
                    return ExprTy { ct: fresh, shape: Shape::unknown() };
                };
                let fct = self.table.ct_value(field);
                ExprTy { ct: fct, shape: Shape::unknown() }
            }
            CtNode::Ptr(inner_ct) => ExprTy { ct: inner_ct, shape: Shape::unknown() },
            CtNode::Var => {
                let fresh = self.table.fresh_ct();
                let ptr = self.table.ct_ptr(fresh);
                self.table.unify_ct(ct, ptr).ok();
                ExprTy { ct: fresh, shape: Shape::unknown() }
            }
            other => {
                let rendered = self.table.render_ct(ct);
                let _ = other;
                self.report(
                    DiagnosticCode::TypeMismatch,
                    span,
                    format!("dereference of non-pointer type `{rendered}`"),
                );
                ExprTy { ct: self.table.fresh_ct(), shape: Shape::unknown() }
            }
        }
    }

    /// Casts: (Custom Exp), (Val Cast Exp) and the §5.1 heuristics.
    fn cast(&mut self, ty: &CTypeExpr, inner: &IrExpr, span: Span) -> ExprTy {
        let t = self.eval(inner);
        let src_ct = self.table.resolve(t.ct);
        let src_is_value = matches!(self.table.node(src_ct), CtNode::Value(_));
        match ty {
            CTypeExpr::Value => {
                match self.table.node(src_ct).clone() {
                    // (value) e where e is already a value: identity
                    CtNode::Value(_) => t,
                    // (Custom Exp): C data enters OCaml as `ct custom`
                    CtNode::Ptr(_) | CtNode::Named(_) | CtNode::Var => {
                        let custom = self.table.mt_custom(src_ct);
                        let ct = self.table.ct_value(custom);
                        ExprTy { ct, shape: Shape::unknown() }
                    }
                    CtNode::Int => {
                        self.report(
                            DiagnosticCode::SuspiciousCast,
                            span,
                            "C integer cast directly to `value` without Val_int".to_string(),
                        );
                        let ct = self.table.ct_fresh_value();
                        ExprTy { ct, shape: Shape::unknown() }
                    }
                    _ => {
                        let ct = self.table.ct_fresh_value();
                        ExprTy { ct, shape: Shape::unknown() }
                    }
                }
            }
            _ if src_is_value => {
                let CtNode::Value(mt) = self.table.node(src_ct).clone() else { unreachable!() };
                let target = eta(self.table, ty);
                match ty {
                    // heuristic: casts through void * are ignored (§5.1)
                    CTypeExpr::Ptr(inner_ty) if **inner_ty == CTypeExpr::Void => {
                        ExprTy { ct: target, shape: Shape::unknown() }
                    }
                    // (long) v idiom: tolerated without constraints
                    CTypeExpr::Int | CTypeExpr::Float => {
                        ExprTy { ct: target, shape: Shape::unknown() }
                    }
                    _ => {
                        // (Val Cast Exp): the value must embed this C type
                        let custom = self.table.mt_custom(target);
                        if let Err(e) = self.table.unify_mt(mt, custom) {
                            self.report(
                                DiagnosticCode::SuspiciousCast,
                                span,
                                format!("cast of OCaml value to `{ty}`: {e}"),
                            );
                        }
                        ExprTy { ct: target, shape: Shape::unknown() }
                    }
                }
            }
            _ => {
                let target = eta(self.table, ty);
                // numeric/pointer casts between C types: keep T for ints
                let shape = self.shape_for_ct(target, t.shape);
                ExprTy { ct: target, shape }
            }
        }
    }

    fn prim(&mut self, op: PrimOp, args: &[IrExpr], span: Span) -> ExprTy {
        let tys: Vec<ExprTy> = args.iter().map(|a| self.eval(a)).collect();
        let int_result =
            |table: &mut TypeTable| ExprTy { ct: table.ct_int(), shape: Shape::unknown() };
        match op {
            PrimOp::TagVal | PrimOp::IsLong | PrimOp::IsBlock | PrimOp::WosizeVal => {
                if let Some(t) = tys.first() {
                    let fresh = self.table.ct_fresh_value();
                    self.unify_ct_or_report(t.ct, fresh, span, "FFI primitive argument");
                }
                int_result(self.table)
            }
            PrimOp::StringVal => {
                if let Some(t) = tys.first() {
                    let s = self.table.mt_abstract("string", true);
                    let want = self.table.ct_value(s);
                    self.unify_ct_or_report(t.ct, want, span, "String_val argument");
                }
                let i = self.table.ct_int();
                let p = self.table.ct_ptr(i);
                ExprTy { ct: p, shape: Shape::unknown() }
            }
            PrimOp::DoubleVal => {
                if let Some(t) = tys.first() {
                    let f = self.table.mt_abstract("float", true);
                    let want = self.table.ct_value(f);
                    self.unify_ct_or_report(t.ct, want, span, "Double_val argument");
                }
                ExprTy { ct: self.table.ct_float(), shape: Shape::unknown() }
            }
            PrimOp::Atom => {
                // Atom(t): a zero-sized boxed block with tag t. The result
                // is boxed at offset 0; when the tag is a known constant
                // the sum row must have that constructor.
                let tag = tys.first().map(|t| t.shape.t).unwrap_or(FlatInt::Top);
                let mt = self.table.mt_fresh_rep();
                if let (FlatInt::Known(n), MtNode::Rep(_, sigma)) =
                    (tag, self.table.node(mt).clone())
                {
                    if n >= 0 {
                        let _ = self.table.sigma_at(sigma, n as usize);
                    }
                }
                let ct = self.table.ct_value(mt);
                ExprTy { ct, shape: Shape::new(Boxedness::Boxed, FlatInt::Known(0), tag) }
            }
        }
    }
}
