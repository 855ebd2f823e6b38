//! The CIL-like intermediate representation of Figure 5.
//!
//! ```text
//! e    ::= n | lval | *e | e aop e | e +p e | (ct) e | Val_int e | Int_val e
//! lval ::= x | *(e +p n)
//! s    ::= s ; s | return e | CAMLreturn(e) | lval := f(e, …, e)
//!        | lval := e | L: s | goto L | if e then L
//!        | if unboxed(x) then L | if sum_tag(x) == n then L
//!        | if int_tag(x) == n then L
//! ```
//!
//! Statements are a flat sequence with labels; structured control flow is
//! compiled away by [`crate::lower`]. Conditionals *fall through* on false,
//! so `if cond then L` carries refinement both to `L` (condition true) and
//! to the next statement (condition false), exactly as Figure 7's rules
//! expect.

use crate::ctypes::CTypeExpr;
use ffisafe_support::Span;
use std::collections::{HashMap, HashSet};

/// Index of a local variable (parameters first) within one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// A branch target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

/// FFI primitives that appear in expression position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrimOp {
    /// `Tag_val(e)` outside a recognized test — an unknown int.
    TagVal,
    /// `Is_long(e)` outside a recognized test.
    IsLong,
    /// `Is_block(e)` outside a recognized test.
    IsBlock,
    /// `String_val(e)` — `char *` of an OCaml string.
    StringVal,
    /// `Double_val(e)` — the `double` in a float block.
    DoubleVal,
    /// `Wosize_val(e)` — block size in words.
    WosizeVal,
    /// `Atom(t)` — the static zero-sized block with tag `t`.
    Atom,
}

/// An IR expression with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct IrExpr {
    /// Expression form.
    pub kind: IrExprKind,
    /// Source span.
    pub span: Span,
}

impl IrExpr {
    /// Creates an expression node.
    pub fn new(kind: IrExprKind, span: Span) -> Self {
        IrExpr { kind, span }
    }

    /// Convenience integer constant.
    pub fn int(n: i64, span: Span) -> Self {
        IrExpr::new(IrExprKind::Int(n), span)
    }

    /// Convenience variable reference.
    pub fn var(v: VarId, span: Span) -> Self {
        IrExpr::new(IrExprKind::Var(v), span)
    }

    /// If this expression is a plain variable, its id.
    pub fn as_var(&self) -> Option<VarId> {
        match self.kind {
            IrExprKind::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Collects every variable used in the expression into `out`.
    pub fn collect_vars(&self, out: &mut HashSet<VarId>) {
        match &self.kind {
            IrExprKind::Var(v) | IrExprKind::AddrOfVar(v) => {
                out.insert(*v);
            }
            IrExprKind::Int(_)
            | IrExprKind::Float
            | IrExprKind::Str(_)
            | IrExprKind::OpaqueInt
            | IrExprKind::Unknown => {}
            IrExprKind::Deref(e)
            | IrExprKind::Not(e)
            | IrExprKind::Neg(e)
            | IrExprKind::ValInt(e)
            | IrExprKind::IntVal(e)
            | IrExprKind::Cast(_, e) => e.collect_vars(out),
            IrExprKind::PtrAdd(a, b) | IrExprKind::Binop(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            IrExprKind::Prim(_, args) => args.iter().for_each(|a| a.collect_vars(out)),
        }
    }
}

/// Expression forms.
#[derive(Clone, Debug, PartialEq)]
pub enum IrExprKind {
    /// Integer constant.
    Int(i64),
    /// Floating constant (value not tracked).
    Float,
    /// String literal (a `char *`).
    Str(String),
    /// An integer of statically-unknown value (`sizeof`, struct reads …).
    OpaqueInt,
    /// Local variable.
    Var(VarId),
    /// `*e` — dispatches to (Val Deref) or (C Deref) on `e`'s inferred type.
    Deref(Box<IrExpr>),
    /// `e₁ +p e₂` — value or C pointer arithmetic, type-dispatched.
    PtrAdd(Box<IrExpr>, Box<IrExpr>),
    /// Arithmetic/comparison on integers.
    Binop(&'static str, Box<IrExpr>, Box<IrExpr>),
    /// Logical negation.
    Not(Box<IrExpr>),
    /// Arithmetic negation.
    Neg(Box<IrExpr>),
    /// `Val_int e`.
    ValInt(Box<IrExpr>),
    /// `Int_val e`.
    IntVal(Box<IrExpr>),
    /// `(ct) e`.
    Cast(CTypeExpr, Box<IrExpr>),
    /// `&x` — triggers the §5.1 address-of heuristics.
    AddrOfVar(VarId),
    /// FFI primitive in expression position.
    Prim(PrimOp, Vec<IrExpr>),
    /// An expression the frontend could not model; types as fresh.
    Unknown,
}

/// L-values: `x` or `*(e +p e)`.
#[derive(Clone, Debug, PartialEq)]
pub enum IrLval {
    /// A local variable.
    Var(VarId),
    /// A store through a pointer at an offset.
    Mem {
        /// Base address expression.
        base: IrExpr,
        /// Offset expression (0 for plain `*e`).
        offset: IrExpr,
    },
}

/// Call targets.
#[derive(Clone, Debug, PartialEq)]
pub enum Callee {
    /// A named function.
    Named(String),
    /// An unknown function pointer (imprecision per §5.1).
    Pointer(Box<IrExpr>),
}

/// Branch conditions. `Unboxed`/`Boxed`/`SumTagEq`/`IntTagEq` are the
/// syntactically-recognized dynamic tests of §3.2.
#[derive(Clone, Debug, PartialEq)]
pub enum IrCond {
    /// Branch if the integer expression is non-zero.
    Expr(IrExpr),
    /// `if unboxed(x)`: branch when `x` is an immediate.
    Unboxed(VarId),
    /// Branch when `x` is a pointer (the `Is_block` dual).
    Boxed(VarId),
    /// `if sum_tag(x) == n`.
    SumTagEq(VarId, i64),
    /// `if int_tag(x) == n`.
    IntTagEq(VarId, i64),
}

/// An IR statement with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct IrStmt {
    /// Statement form.
    pub kind: IrStmtKind,
    /// Source span.
    pub span: Span,
}

impl IrStmt {
    /// Creates a statement node.
    pub fn new(kind: IrStmtKind, span: Span) -> Self {
        IrStmt { kind, span }
    }
}

/// Statement forms of Figure 5.
#[derive(Clone, Debug, PartialEq)]
pub enum IrStmtKind {
    /// `lval := e`.
    Assign(IrLval, IrExpr),
    /// `lval := f(e…)` / bare call.
    Call {
        /// Destination, if any.
        dst: Option<IrLval>,
        /// Callee.
        callee: Callee,
        /// Arguments.
        args: Vec<IrExpr>,
    },
    /// `if cond then L` (falls through on false).
    If {
        /// Condition.
        cond: IrCond,
        /// Target label when the condition holds.
        target: Label,
    },
    /// `goto L`.
    Goto(Label),
    /// `L:` — label definition point.
    Mark(Label),
    /// `return e`.
    Return(Option<IrExpr>),
    /// `CAMLreturn(e)`.
    CamlReturn(Option<IrExpr>),
    /// `CAMLprotect(x)` — registration with the GC.
    Protect(VarId),
    /// No-op.
    Nop,
}

/// A local variable (parameters first).
#[derive(Clone, Debug, PartialEq)]
pub struct IrLocal {
    /// Source name (synthesized temporaries are `%tN`).
    pub name: String,
    /// Declared C type.
    pub ty: CTypeExpr,
    /// Whether this is a formal parameter.
    pub is_param: bool,
    /// Declaration span.
    pub span: Span,
}

/// A lowered function definition.
#[derive(Clone, Debug)]
pub struct IrFunction {
    /// Function name.
    pub name: String,
    /// Declared return type.
    pub ret: CTypeExpr,
    /// All locals; the first [`IrFunction::n_params`] are parameters.
    pub locals: Vec<IrLocal>,
    /// Number of parameters.
    pub n_params: usize,
    /// Flat statement sequence.
    pub body: Vec<IrStmt>,
    /// Number of labels allocated.
    pub n_labels: u32,
    /// Locals whose address was taken (heuristics of §5.1).
    pub address_taken: HashSet<VarId>,
    /// Whether the function was `static`.
    pub is_static: bool,
    /// Header span.
    pub span: Span,
}

impl IrFunction {
    /// Maps every label to the statement index of its `Mark`.
    pub fn label_positions(&self) -> HashMap<Label, usize> {
        let mut out = HashMap::new();
        for (i, s) in self.body.iter().enumerate() {
            if let IrStmtKind::Mark(l) = s.kind {
                out.insert(l, i);
            }
        }
        out
    }

    /// Successor statement indices of statement `i` (`len` = exit).
    pub fn successors(&self, i: usize, labels: &HashMap<Label, usize>) -> Vec<usize> {
        match &self.body[i].kind {
            IrStmtKind::Goto(l) => labels.get(l).copied().into_iter().collect(),
            IrStmtKind::Return(_) | IrStmtKind::CamlReturn(_) => vec![],
            IrStmtKind::If { target, .. } => {
                let mut out = vec![i + 1];
                if let Some(&t) = labels.get(target) {
                    out.push(t);
                }
                out
            }
            _ => vec![i + 1],
        }
    }
}

/// A function prototype (declaration without body).
#[derive(Clone, Debug, PartialEq)]
pub struct IrPrototype {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CTypeExpr,
    /// Parameter types.
    pub params: Vec<CTypeExpr>,
    /// Span of the declaration.
    pub span: Span,
}

/// A lowered translation unit (or several merged ones).
#[derive(Clone, Debug, Default)]
pub struct IrProgram {
    /// Function definitions.
    pub functions: Vec<IrFunction>,
    /// Prototypes without definitions.
    pub prototypes: Vec<IrPrototype>,
    /// Global variables (name, type, span).
    pub globals: Vec<(String, CTypeExpr, Span)>,
    /// Notes about constructs the frontend had to approximate.
    pub notes: Vec<(Span, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_vars_walks_structure() {
        let s = Span::dummy();
        let e = IrExpr::new(
            IrExprKind::PtrAdd(
                Box::new(IrExpr::var(VarId(0), s)),
                Box::new(IrExpr::new(
                    IrExprKind::Binop(
                        "+",
                        Box::new(IrExpr::var(VarId(2), s)),
                        Box::new(IrExpr::int(1, s)),
                    ),
                    s,
                )),
            ),
            s,
        );
        let mut vars = HashSet::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, HashSet::from([VarId(0), VarId(2)]));
    }

    #[test]
    fn successors_of_control_statements() {
        let s = Span::dummy();
        let f = IrFunction {
            name: "f".into(),
            ret: CTypeExpr::Void,
            locals: vec![],
            n_params: 0,
            body: vec![
                IrStmt::new(
                    IrStmtKind::If { cond: IrCond::Unboxed(VarId(0)), target: Label(0) },
                    s,
                ),
                IrStmt::new(IrStmtKind::Goto(Label(1)), s),
                IrStmt::new(IrStmtKind::Mark(Label(0)), s),
                IrStmt::new(IrStmtKind::Mark(Label(1)), s),
                IrStmt::new(IrStmtKind::Return(None), s),
            ],
            n_labels: 2,
            address_taken: HashSet::new(),
            is_static: false,
            span: s,
        };
        let labels = f.label_positions();
        assert_eq!(labels[&Label(0)], 2);
        assert_eq!(f.successors(0, &labels), vec![1, 2]);
        assert_eq!(f.successors(1, &labels), vec![3]);
        assert_eq!(f.successors(4, &labels), Vec::<usize>::new());
    }
}
