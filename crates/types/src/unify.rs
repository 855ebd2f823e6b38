//! Unification over the multi-lingual type language (§3.3.3).
//!
//! Equality constraints `ct = ct′` and `mt = mt′` generated by the
//! inference rules are solved by ordinary unification, with two twists:
//!
//! * `Σ`/`Π` are **rows**: open rows (ending in `σ`/`π` variables) grow on
//!   demand via [`TypeTable::sigma_at`] / [`TypeTable::pi_at`], and closing
//!   them against a declared OCaml type checks the observed tags and fields
//!   against the real constructors.
//! * Types may be **cyclic** (recursive OCaml types such as `'a list` tie
//!   knots in the arena), so unification memoizes in-progress id pairs and
//!   treats re-encountered pairs as success — standard equirecursive
//!   unification.
//!
//! `Ψ` components unify only when identical (`n` does not unify with `⊤`),
//! exactly as §3.3.3 prescribes.

use crate::arena::{Sort, TypeTable};
use crate::term::*;
use std::collections::HashSet;

/// Why two types failed to unify. The rendered strings are produced at
/// failure time so diagnostics can show concrete, resolved types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnifyError {
    /// Two `mt`s with incompatible head constructors.
    MtMismatch {
        /// Rendered left type.
        left: String,
        /// Rendered right type.
        right: String,
    },
    /// Two `ct`s with incompatible head constructors.
    CtMismatch {
        /// Rendered left type.
        left: String,
        /// Rendered right type.
        right: String,
    },
    /// `Ψ` components differ (`n ≠ m`, or `n` vs `⊤`): the code treats a
    /// sum type as an integer or vice-versa.
    PsiMismatch {
        /// Rendered left bound.
        left: String,
        /// Rendered right bound.
        right: String,
    },
    /// The sum rows have different numbers of non-nullary constructors.
    SumArity {
        /// Constructors on the shorter, closed side.
        have: usize,
        /// Constructors required by the other side.
        need: usize,
    },
    /// The product rows have different numbers of fields.
    ProductArity {
        /// Fields on the shorter, closed side.
        have: usize,
        /// Fields required by the other side.
        need: usize,
    },
    /// Two abstract types with different names.
    AbstractMismatch {
        /// Left nominal name.
        left: String,
        /// Right nominal name.
        right: String,
    },
    /// OCaml function types of different arity.
    FunArity {
        /// Left arity.
        left: usize,
        /// Right arity.
        right: usize,
    },
}

impl std::fmt::Display for UnifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnifyError::MtMismatch { left, right } => {
                write!(f, "OCaml types `{left}` and `{right}` are incompatible")
            }
            UnifyError::CtMismatch { left, right } => {
                write!(f, "C types `{left}` and `{right}` are incompatible")
            }
            UnifyError::PsiMismatch { left, right } => write!(
                f,
                "unboxed-value bounds `{left}` and `{right}` differ (an integer is not a sum type)"
            ),
            UnifyError::SumArity { have, need } => {
                write!(f, "sum type has {have} non-nullary constructor(s) but {need} are required")
            }
            UnifyError::ProductArity { have, need } => {
                write!(f, "structured block has {have} field(s) but {need} are required")
            }
            UnifyError::AbstractMismatch { left, right } => {
                write!(f, "abstract types `{left}` and `{right}` are distinct")
            }
            UnifyError::FunArity { left, right } => {
                write!(f, "function types have different arities ({left} vs {right})")
            }
        }
    }
}

impl std::error::Error for UnifyError {}

/// Why a row could not supply a requested tag or field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowError {
    /// Tag `need` requested but the closed sum has only `have` products.
    TagOutOfRange {
        /// Products available.
        have: usize,
        /// Tag requested (0-based).
        need: usize,
    },
    /// Field `need` requested but the closed product has only `have`
    /// fields.
    FieldOutOfRange {
        /// Fields available.
        have: usize,
        /// Field index requested (0-based).
        need: usize,
    },
}

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowError::TagOutOfRange { have, need } => write!(
                f,
                "tag {} used but the sum type has only {have} non-nullary constructor(s)",
                need - 1
            ),
            RowError::FieldOutOfRange { have, need } => write!(
                f,
                "field {} accessed but the structured block has only {have} field(s)",
                need - 1
            ),
        }
    }
}

impl std::error::Error for RowError {}

/// Memoization state for one top-level unification call: the pairs of
/// each recursive sort already being unified.
#[derive(Default)]
struct Session {
    mt: HashSet<(u32, u32)>,
    ct: HashSet<(u32, u32)>,
    sigma: HashSet<(u32, u32)>,
    pi: HashSet<(u32, u32)>,
}

impl TypeTable {
    /// The prologue every unifier starts from. Resolves both sides and
    /// returns `None` when the pair needs no further work: both are one
    /// class already, one side is an unbound variable (then `a` is linked
    /// to `b`, else `b` to `a`), or `visited` (the cycle memo of the
    /// recursive sorts) already holds the pair. Otherwise returns both
    /// canonicals with a copy of their nodes.
    fn bind<S: Sort>(
        &mut self,
        a: S,
        b: S,
        visited: Option<&mut HashSet<(u32, u32)>>,
    ) -> Option<(S, S, S::Node, S::Node)> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        if a == b {
            return None;
        }
        let shelf = S::shelf(self);
        let (na, nb) = (shelf.get(a.raw()), shelf.get(b.raw()));
        if S::is_var(na) {
            self.set(a, b.link());
            return None;
        }
        if S::is_var(nb) {
            self.set(b, a.link());
            return None;
        }
        let (na, nb) = (na.clone(), nb.clone());
        let key = if a.raw() <= b.raw() { (a.raw(), b.raw()) } else { (b.raw(), a.raw()) };
        if visited.is_some_and(|visited| !visited.insert(key)) {
            return None; // already unifying this pair (cycle)
        }
        Some((a, b, na, nb))
    }

    /// Merges two successfully-unified nodes (post-link; resolves first in
    /// case child unification already aliased them).
    fn merge<S: Sort>(&mut self, a: S, b: S) {
        let a = self.resolve(a);
        let b = self.resolve(b);
        if a != b {
            self.set(b, a.link());
        }
    }

    /// Unifies two extended OCaml types.
    ///
    /// # Errors
    ///
    /// Returns a [`UnifyError`] describing the first incompatibility; the
    /// table may be partially updated on failure (standard for destructive
    /// unification — the analysis reports the error and carries on).
    pub fn unify_mt(&mut self, a: MtId, b: MtId) -> Result<(), UnifyError> {
        let mut s = Session::default();
        self.unify_mt_in(&mut s, a, b)
    }

    /// Unifies two extended C types.
    ///
    /// # Errors
    ///
    /// Returns a [`UnifyError`] describing the first incompatibility.
    pub fn unify_ct(&mut self, a: CtId, b: CtId) -> Result<(), UnifyError> {
        let mut s = Session::default();
        self.unify_ct_in(&mut s, a, b)
    }

    fn unify_mt_in(&mut self, s: &mut Session, a: MtId, b: MtId) -> Result<(), UnifyError> {
        let Some((a, b, na, nb)) = self.bind(a, b, Some(&mut s.mt)) else {
            return Ok(());
        };
        // NOTE: nodes are merged only *after* their children unify.
        // Pre-linking would make a failed unification "succeed" on retry
        // (the reporting pass re-runs the rules); the visited set, not
        // pre-linking, is what guarantees termination on cyclic types.
        match (na, nb) {
            (MtNode::Fun(p1, r1), MtNode::Fun(p2, r2)) => {
                if p1.len() != p2.len() {
                    return Err(UnifyError::FunArity { left: p1.len(), right: p2.len() });
                }
                for (x, y) in p1.iter().zip(p2.iter()) {
                    self.unify_mt_in(s, *x, *y)?;
                }
                self.unify_mt_in(s, r1, r2)?;
                self.merge(a, b);
                Ok(())
            }
            (MtNode::Custom(c1), MtNode::Custom(c2)) => {
                self.unify_ct_in(s, c1, c2)?;
                self.merge(a, b);
                Ok(())
            }
            (MtNode::Rep(ps1, sg1), MtNode::Rep(ps2, sg2)) => {
                self.unify_psi(ps1, ps2)?;
                self.unify_sigma_in(s, sg1, sg2)?;
                self.merge(a, b);
                Ok(())
            }
            (MtNode::Abstract { name: n1, .. }, MtNode::Abstract { name: n2, .. }) => {
                if n1 == n2 {
                    self.merge(a, b);
                    Ok(())
                } else {
                    Err(UnifyError::AbstractMismatch { left: n1, right: n2 })
                }
            }
            _ => Err(UnifyError::MtMismatch { left: self.render_mt(a), right: self.render_mt(b) }),
        }
    }

    fn unify_ct_in(&mut self, s: &mut Session, a: CtId, b: CtId) -> Result<(), UnifyError> {
        let Some((a, b, na, nb)) = self.bind(a, b, Some(&mut s.ct)) else {
            return Ok(());
        };
        match (na, nb) {
            (CtNode::Void, CtNode::Void)
            | (CtNode::Int, CtNode::Int)
            | (CtNode::Float, CtNode::Float) => Ok(()),
            (CtNode::Value(m1), CtNode::Value(m2)) => {
                self.unify_mt_in(s, m1, m2)?;
                self.merge(a, b);
                Ok(())
            }
            (CtNode::Ptr(p1), CtNode::Ptr(p2)) => {
                self.unify_ct_in(s, p1, p2)?;
                self.merge(a, b);
                Ok(())
            }
            (CtNode::Named(n1), CtNode::Named(n2)) => {
                if n1 == n2 {
                    Ok(())
                } else {
                    Err(UnifyError::CtMismatch { left: n1, right: n2 })
                }
            }
            (CtNode::Fun(p1, r1, g1), CtNode::Fun(p2, r2, g2)) => {
                if p1.len() != p2.len() {
                    return Err(UnifyError::FunArity { left: p1.len(), right: p2.len() });
                }
                self.unify_gc(g1, g2);
                for (x, y) in p1.iter().zip(p2.iter()) {
                    self.unify_ct_in(s, *x, *y)?;
                }
                self.unify_ct_in(s, r1, r2)?;
                self.merge(a, b);
                Ok(())
            }
            _ => Err(UnifyError::CtMismatch { left: self.render_ct(a), right: self.render_ct(b) }),
        }
    }

    /// Unifies two `Ψ` bounds. Per §3.3.3, `n` unifies only with `n`
    /// (and `⊤` only with `⊤`); variables bind freely.
    pub fn unify_psi(&mut self, a: PsiId, b: PsiId) -> Result<(), UnifyError> {
        match self.bind(a, b, None) {
            None | Some((_, _, PsiNode::Top, PsiNode::Top)) => Ok(()),
            Some((_, _, PsiNode::Count(n), PsiNode::Count(m))) if n == m => Ok(()),
            Some((a, b, _, _)) => {
                Err(UnifyError::PsiMismatch { left: self.render_psi(a), right: self.render_psi(b) })
            }
        }
    }

    fn unify_sigma_in(
        &mut self,
        s: &mut Session,
        a: SigmaId,
        b: SigmaId,
    ) -> Result<(), UnifyError> {
        let Some((a, b, na, nb)) = self.bind(a, b, Some(&mut s.sigma)) else {
            return Ok(());
        };
        match (na, nb) {
            (SigmaNode::Nil, SigmaNode::Nil) => Ok(()),
            (SigmaNode::Cons(h1, t1), SigmaNode::Cons(h2, t2)) => {
                self.unify_pi_in(s, h1, h2)?;
                self.unify_sigma_in(s, t1, t2)?;
                self.merge(a, b);
                Ok(())
            }
            (SigmaNode::Nil, SigmaNode::Cons(..)) => {
                Err(UnifyError::SumArity { have: 0, need: self.sigma_products(b).len() })
            }
            (SigmaNode::Cons(..), SigmaNode::Nil) => {
                Err(UnifyError::SumArity { have: 0, need: self.sigma_products(a).len() })
            }
            _ => unreachable!("links resolved, vars handled"),
        }
    }

    fn unify_pi_in(&mut self, s: &mut Session, a: PiId, b: PiId) -> Result<(), UnifyError> {
        let Some((a, b, na, nb)) = self.bind(a, b, Some(&mut s.pi)) else {
            return Ok(());
        };
        match (na, nb) {
            (PiNode::Nil, PiNode::Nil) => Ok(()),
            (PiNode::Cons(h1, t1), PiNode::Cons(h2, t2)) => {
                self.unify_mt_in(s, h1, h2)?;
                self.unify_pi_in(s, t1, t2)?;
                self.merge(a, b);
                Ok(())
            }
            (PiNode::Array(e1), PiNode::Array(e2)) => {
                self.unify_mt_in(s, e1, e2)?;
                self.merge(a, b);
                Ok(())
            }
            // A block of statically-known layout can be viewed as an array
            // when every field matches the element type; this mirrors how C
            // code iterates over tuples of uniform type. Nil against Array
            // is trivially fine.
            (PiNode::Cons(h, t), PiNode::Array(e)) | (PiNode::Array(e), PiNode::Cons(h, t)) => {
                self.unify_mt_in(s, h, e)?;
                let arr = self.pi_array(e);
                self.unify_pi_in(s, t, arr)
            }
            (PiNode::Nil, PiNode::Array(_)) | (PiNode::Array(_), PiNode::Nil) => Ok(()),
            (PiNode::Nil, PiNode::Cons(..)) => {
                let need = self.pi_fields(b).map(|f| f.len()).unwrap_or(1);
                Err(UnifyError::ProductArity { have: 0, need })
            }
            (PiNode::Cons(..), PiNode::Nil) => {
                let need = self.pi_fields(a).map(|f| f.len()).unwrap_or(1);
                Err(UnifyError::ProductArity { have: 0, need })
            }
            _ => unreachable!("links resolved, vars handled"),
        }
    }

    /// Unifies two GC effects. Effect *variables* alias; if one side is the
    /// constant `gc` and the other `nogc`, the merged effect is the
    /// conservative `gc` (a join, not an error — the effect language has no
    /// declared annotations to contradict).
    pub fn unify_gc(&mut self, a: GcId, b: GcId) {
        match self.bind(a, b, None) {
            None => {}
            Some((a, b, GcNode::Gc, _) | (a, b, GcNode::NoGc, GcNode::NoGc)) => {
                self.set(b, a.link())
            }
            Some((a, b, _, GcNode::Gc)) => self.set(a, b.link()),
            Some(_) => unreachable!("resolved, vars handled"),
        }
    }

    // ---- row access with growth -----------------------------------------

    /// Returns the product at tag `tag` of sum row `sigma`, growing open
    /// rows with fresh products as needed — the
    /// `Σ = Π₀ + … + Πₙ + σ` side conditions of (Val Deref Exp),
    /// (Add Val Exp) and (If sum tag).
    ///
    /// # Errors
    ///
    /// Fails when the row is closed and shorter than `tag + 1`.
    pub fn sigma_at(&mut self, sigma: SigmaId, tag: usize) -> Result<PiId, RowError> {
        let mut cur = self.resolve(sigma);
        let mut k = 0usize;
        loop {
            match *self.node(cur) {
                SigmaNode::Cons(head, tail) => {
                    if k == tag {
                        return Ok(head);
                    }
                    k += 1;
                    cur = self.resolve(tail);
                }
                SigmaNode::Nil => return Err(RowError::TagOutOfRange { have: k, need: tag + 1 }),
                SigmaNode::Var => {
                    let head = self.fresh_pi();
                    let tail = self.fresh_sigma();
                    self.set(cur, SigmaNode::Cons(head, tail));
                    if k == tag {
                        return Ok(head);
                    }
                    k += 1;
                    cur = tail;
                }
                SigmaNode::Link(_) => unreachable!("resolved"),
            }
        }
    }

    /// Returns the field type at offset `idx` of product row `pi`, growing
    /// open rows with fresh field types as needed — the
    /// `Π = α₀ × … × αₙ × π` side conditions of (Val Deref Exp) and
    /// (Add Val Exp).
    ///
    /// # Errors
    ///
    /// Fails when the row is closed and shorter than `idx + 1`.
    pub fn pi_at(&mut self, pi: PiId, idx: usize) -> Result<MtId, RowError> {
        let mut cur = self.resolve(pi);
        let mut k = 0usize;
        loop {
            match *self.node(cur) {
                PiNode::Cons(head, tail) => {
                    if k == idx {
                        return Ok(head);
                    }
                    k += 1;
                    cur = self.resolve(tail);
                }
                PiNode::Array(elem) => return Ok(elem),
                PiNode::Nil => return Err(RowError::FieldOutOfRange { have: k, need: idx + 1 }),
                PiNode::Var => {
                    let head = self.fresh_mt();
                    let tail = self.fresh_pi();
                    self.set(cur, PiNode::Cons(head, tail));
                    if k == idx {
                        return Ok(head);
                    }
                    k += 1;
                    cur = tail;
                }
                PiNode::Link(_) => unreachable!("resolved"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the representational type of the paper's running example
    /// `type t = A of int | B | C of int * int | D`:
    /// `(2, (⊤,∅) + (⊤,∅) × (⊤,∅))`.
    fn type_t(tt: &mut TypeTable) -> MtId {
        let int0 = {
            let p = tt.psi_top();
            let s = tt.sigma_nil();
            tt.mt_rep(p, s)
        };
        let int1 = {
            let p = tt.psi_top();
            let s = tt.sigma_nil();
            tt.mt_rep(p, s)
        };
        let int2 = {
            let p = tt.psi_top();
            let s = tt.sigma_nil();
            tt.mt_rep(p, s)
        };
        let pi_a = tt.pi_closed(&[int0]);
        let pi_c = tt.pi_closed(&[int1, int2]);
        let sigma = tt.sigma_closed(&[pi_a, pi_c]);
        let psi = tt.psi_count(2);
        tt.mt_rep(psi, sigma)
    }

    #[test]
    fn var_binds_both_directions() {
        let mut tt = TypeTable::new();
        let a = tt.fresh_mt();
        let t = type_t(&mut tt);
        tt.unify_mt(a, t).unwrap();
        assert_eq!(tt.resolve(a), tt.resolve(t));
        let b = tt.fresh_mt();
        tt.unify_mt(t, b).unwrap();
        assert_eq!(tt.resolve(b), tt.resolve(t));
    }

    #[test]
    fn psi_count_does_not_unify_with_top() {
        let mut tt = TypeTable::new();
        let c = tt.psi_count(2);
        let t = tt.psi_top();
        assert!(tt.unify_psi(c, t).is_err());
        let c2 = tt.psi_count(2);
        let c3 = tt.psi_count(3);
        assert!(tt.unify_psi(c2, c3).is_err());
        let c4 = tt.psi_count(2);
        let c5 = tt.psi_count(2);
        assert!(tt.unify_psi(c4, c5).is_ok());
    }

    #[test]
    fn open_row_grows_and_then_closes_against_declared_type() {
        let mut tt = TypeTable::new();
        // Inference observed: tag 0 and tag 1 tested, so σ grows to
        // π0 + π1 + σ'. Unifying with `t` must succeed and close σ'.
        let open = tt.fresh_sigma();
        let _pi0 = tt.sigma_at(open, 0).unwrap();
        let _pi1 = tt.sigma_at(open, 1).unwrap();
        let psi = tt.fresh_psi();
        let observed = tt.mt_rep(psi, open);
        let declared = type_t(&mut tt);
        tt.unify_mt(observed, declared).unwrap();
        // Ψ resolved to 2, row closed at length 2
        match tt.node(psi) {
            PsiNode::Count(2) => {}
            other => panic!("expected Count(2), got {other:?}"),
        }
        assert_eq!(tt.sigma_len(open), Some(2));
    }

    #[test]
    fn closed_row_rejects_excess_tags() {
        let mut tt = TypeTable::new();
        let declared = type_t(&mut tt);
        let MtNode::Rep(_, sigma) = *tt.node(declared) else { panic!() };
        assert!(tt.sigma_at(sigma, 1).is_ok());
        assert_eq!(tt.sigma_at(sigma, 2), Err(RowError::TagOutOfRange { have: 2, need: 3 }));
    }

    #[test]
    fn pi_at_grows_open_products() {
        let mut tt = TypeTable::new();
        let pi = tt.fresh_pi();
        let f0 = tt.pi_at(pi, 0).unwrap();
        let f2 = tt.pi_at(pi, 2).unwrap();
        assert_ne!(f0, f2);
        // closed row rejects index 3
        let a = tt.fresh_mt();
        let closed = tt.pi_closed(&[a]);
        assert_eq!(tt.pi_at(closed, 1), Err(RowError::FieldOutOfRange { have: 1, need: 2 }));
    }

    #[test]
    fn pi_array_serves_any_index() {
        let mut tt = TypeTable::new();
        let elem = tt.fresh_mt();
        let arr = tt.pi_array(elem);
        assert_eq!(tt.pi_at(arr, 0).unwrap(), elem);
        assert_eq!(tt.pi_at(arr, 17).unwrap(), elem);
    }

    #[test]
    fn sum_arity_mismatch_reported() {
        let mut tt = TypeTable::new();
        let t = type_t(&mut tt); // two products
        let psi = tt.psi_count(2);
        let p0 = tt.fresh_pi();
        let sigma1 = tt.sigma_closed(&[p0]); // one product
        let shorter = tt.mt_rep(psi, sigma1);
        let err = tt.unify_mt(t, shorter).unwrap_err();
        assert!(matches!(err, UnifyError::SumArity { .. }), "{err:?}");
    }

    #[test]
    fn abstract_types_are_nominal() {
        let mut tt = TypeTable::new();
        let s1 = tt.mt_abstract("string", true);
        let s2 = tt.mt_abstract("string", true);
        let f = tt.mt_abstract("float", true);
        assert!(tt.unify_mt(s1, s2).is_ok());
        let err = tt.unify_mt(s1, f).unwrap_err();
        assert!(matches!(err, UnifyError::AbstractMismatch { .. }));
    }

    #[test]
    fn custom_types_unify_through_ct() {
        let mut tt = TypeTable::new();
        let w1 = tt.ct_named("GtkWindow");
        let p1 = tt.ct_ptr(w1);
        let c1 = tt.mt_custom(p1);
        let w2 = tt.ct_named("GtkWindow");
        let p2 = tt.ct_ptr(w2);
        let c2 = tt.mt_custom(p2);
        assert!(tt.unify_mt(c1, c2).is_ok());
        let b = tt.ct_named("GtkButton");
        let pb = tt.ct_ptr(b);
        let cb = tt.mt_custom(pb);
        let err = tt.unify_mt(c1, cb).unwrap_err();
        assert!(matches!(err, UnifyError::CtMismatch { .. }));
    }

    #[test]
    fn cyclic_types_unify_without_divergence() {
        let mut tt = TypeTable::new();
        // Build two structurally-identical `int list` types:
        // list = (1, (elem × list) + ∅)
        let make_list = |tt: &mut TypeTable| {
            let elem = {
                let p = tt.psi_top();
                let s = tt.sigma_nil();
                tt.mt_rep(p, s)
            };
            let knot = tt.fresh_mt();
            let pi = tt.pi_closed(&[elem, knot]);
            let sigma = tt.sigma_closed(&[pi]);
            let psi = tt.psi_count(1);
            let list = tt.mt_rep(psi, sigma);
            tt.set(knot, MtNode::Link(list));
            list
        };
        let l1 = make_list(&mut tt);
        let l2 = make_list(&mut tt);
        tt.unify_mt(l1, l2).unwrap();
        assert_eq!(tt.resolve(l1), tt.resolve(l2));
    }

    #[test]
    fn gc_unify_prefers_gc() {
        let mut tt = TypeTable::new();
        let v = tt.fresh_gc();
        let g = tt.gc_gc();
        tt.unify_gc(v, g);
        assert_eq!(*tt.node(v), GcNode::Gc);
        let n = tt.gc_nogc();
        let g2 = tt.gc_gc();
        tt.unify_gc(n, g2);
        assert_eq!(*tt.node(n), GcNode::Gc);
    }

    #[test]
    fn ct_fun_unification_checks_arity() {
        let mut tt = TypeTable::new();
        let i1 = tt.ct_int();
        let r1 = tt.ct_void();
        let g1 = tt.fresh_gc();
        let f1 = tt.ct_fun(vec![i1], r1, g1);
        let i2 = tt.ct_int();
        let i3 = tt.ct_int();
        let r2 = tt.ct_void();
        let g2 = tt.fresh_gc();
        let f2 = tt.ct_fun(vec![i2, i3], r2, g2);
        let err = tt.unify_ct(f1, f2).unwrap_err();
        assert!(matches!(err, UnifyError::FunArity { left: 1, right: 2 }));
    }

    #[test]
    fn value_unification_descends_into_mt() {
        let mut tt = TypeTable::new();
        let m1 = tt.fresh_mt();
        let v1 = tt.ct_value(m1);
        let t = type_t(&mut tt);
        let v2 = tt.ct_value(t);
        tt.unify_ct(v1, v2).unwrap();
        assert!(tt.mt_is_concrete(m1));
    }

    #[test]
    fn int_vs_value_mismatch() {
        let mut tt = TypeTable::new();
        let i = tt.ct_int();
        let v = tt.ct_fresh_value();
        let err = tt.unify_ct(i, v).unwrap_err();
        assert!(matches!(err, UnifyError::CtMismatch { .. }));
    }

    #[test]
    fn array_vs_tuple_unifies_elementwise() {
        let mut tt = TypeTable::new();
        let elem = tt.mt_abstract("float", true);
        let arr = tt.pi_array(elem);
        let e1 = tt.mt_abstract("float", true);
        let e2 = tt.mt_abstract("float", true);
        let tup = tt.pi_closed(&[e1, e2]);
        let psi1 = tt.psi_count(0);
        let psi2 = tt.psi_count(0);
        let s1 = tt.sigma_closed(&[arr]);
        let s2 = tt.sigma_closed(&[tup]);
        let m1 = tt.mt_rep(psi1, s1);
        let m2 = tt.mt_rep(psi2, s2);
        assert!(tt.unify_mt(m1, m2).is_ok());
    }
}
