//! Deferred constraints: `T + 1 ≤ Ψ` bounds and GC effect edges
//! (`GC ⊑ GC′`), discharged after unification per §3.3.3.

use crate::arena::TypeTable;
use crate::lattice::FlatInt;
use crate::term::{GcId, GcNode, PsiId, PsiNode};
use ffisafe_support::Span;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A recorded `T + 1 ≤ Ψ` constraint from (Val Int Exp) or (If int tag).
#[derive(Clone, Debug)]
pub struct PsiBound {
    /// The flow-sensitive value `T` at constraint-generation time.
    pub t: FlatInt,
    /// The bound being constrained.
    pub psi: PsiId,
    /// Where the constraint arose.
    pub span: Span,
    /// Short description of the construct (for diagnostics).
    pub context: String,
}

/// A violated `Ψ` bound, with an explanation.
#[derive(Clone, Debug)]
pub struct PsiViolation {
    /// The original constraint.
    pub bound: PsiBound,
    /// Why it is violated.
    pub reason: String,
}

/// The constraint store accumulated during inference.
///
/// Unification happens eagerly; these are the two constraint forms the
/// paper defers: `Ψ` lower bounds (checked once `Ψ`s are resolved) and
/// the atomic-subtyping GC edges (solved by graph reachability).
///
/// Like the type arena, a constraint store can be an *overlay* over a
/// frozen, `Arc`-shared base (see [`ConstraintSet::overlay`]): reads see
/// base constraints followed by locally-recorded ones, writes append
/// locally, and global indices are continuous across the seam — index `n`
/// in an overlay means the same constraint a deep clone's index `n` would.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSet {
    /// Shared post-link constraints this store layers over, if any.
    base: Option<Arc<ConstraintSet>>,
    psi_bounds: Vec<PsiBound>,
    /// Edges `lo ⊑ hi`: if `lo` may collect, so may `hi`.
    gc_edges: Vec<(GcId, GcId)>,
}

impl ConstraintSet {
    /// Creates an empty store.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Creates a copy-on-write view over a shared base store. O(1).
    pub fn overlay(base: Arc<ConstraintSet>) -> Self {
        debug_assert!(base.base.is_none(), "overlay bases must be flat stores");
        ConstraintSet { base: Some(base), psi_bounds: Vec::new(), gc_edges: Vec::new() }
    }

    fn base_psi_bounds(&self) -> &[PsiBound] {
        self.base.as_deref().map_or(&[][..], |b| &b.psi_bounds)
    }

    fn base_gc_edges(&self) -> &[(GcId, GcId)] {
        self.base.as_deref().map_or(&[][..], |b| &b.gc_edges)
    }

    /// Records `t + 1 ≤ psi`.
    pub fn add_psi_bound(
        &mut self,
        t: FlatInt,
        psi: PsiId,
        span: Span,
        context: impl Into<String>,
    ) {
        self.psi_bounds.push(PsiBound { t, psi, span, context: context.into() });
    }

    /// Records the effect edge `lo ⊑ hi`.
    pub fn add_gc_edge(&mut self, lo: GcId, hi: GcId) {
        self.gc_edges.push((lo, hi));
    }

    /// Number of recorded `Ψ` bounds (base plus local).
    pub fn psi_bound_count(&self) -> usize {
        self.base_psi_bounds().len() + self.psi_bounds.len()
    }

    /// Recorded `Ψ` bounds from global index `start` on, in recording
    /// order (base first, then local appends).
    pub fn psi_bounds_from(&self, start: usize) -> impl Iterator<Item = &PsiBound> {
        self.base_psi_bounds().iter().chain(self.psi_bounds.iter()).skip(start)
    }

    /// Number of recorded GC edges (base plus local).
    pub fn gc_edge_count(&self) -> usize {
        self.base_gc_edges().len() + self.gc_edges.len()
    }

    /// Recorded GC edges from global index `start` on, in recording order
    /// (base first, then local appends).
    pub fn gc_edges_from(&self, start: usize) -> impl Iterator<Item = (GcId, GcId)> + '_ {
        self.base_gc_edges().iter().chain(self.gc_edges.iter()).copied().skip(start)
    }

    /// Checks every `Ψ` bound against the resolved table (§3.3.3):
    ///
    /// * `Ψ = ⊤` satisfies everything — the value is an ordinary integer;
    /// * an unresolved `ψ` satisfies everything — the value never flowed
    ///   into a context that fixed its type;
    /// * `Ψ = n` requires a known, non-negative `T` with `T + 1 ≤ n`;
    ///   negative values are never constructors, and a `⊤` value cannot be
    ///   proven in range.
    pub fn check_psi_bounds(&self, table: &TypeTable) -> Vec<PsiViolation> {
        let mut out = Vec::new();
        for bound in self.psi_bounds_from(0) {
            let node = *table.node(bound.psi);
            let violation = match node {
                PsiNode::Top | PsiNode::Var => None,
                PsiNode::Count(k) => match bound.t {
                    FlatInt::Bot => None,
                    FlatInt::Known(n) if n < 0 => Some(format!(
                        "negative value {n} used as a constructor of a sum type with {k} nullary constructor(s)"
                    )),
                    FlatInt::Known(n) if (n as u64) + 1 > k as u64 => Some(format!(
                        "constructor number {n} used but the sum type has only {k} nullary constructor(s)"
                    )),
                    FlatInt::Known(_) => None,
                    FlatInt::Top => Some(format!(
                        "unknown integer used where a sum type with exactly {k} nullary constructor(s) is required"
                    )),
                },
                PsiNode::Link(_) => unreachable!("resolved"),
            };
            if let Some(reason) = violation {
                out.push(PsiViolation { bound: bound.clone(), reason });
            }
        }
        out
    }

    /// Solves the GC effect constraints by graph reachability and returns
    /// the solution. An effect is `gc` if its canonical node is the
    /// constant `gc` or is reachable along recorded edges from one that is.
    pub fn solve_gc(&self, table: &mut TypeTable) -> GcSolution {
        // Build adjacency over canonical ids.
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut roots: VecDeque<u32> = VecDeque::new();
        let mut all_nodes: HashSet<u32> = HashSet::new();
        for (lo, hi) in self.gc_edges_from(0) {
            let lo = table.resolve(lo).as_raw();
            let hi = table.resolve(hi).as_raw();
            all_nodes.insert(lo);
            all_nodes.insert(hi);
            adj.entry(lo).or_default().push(hi);
        }
        for &n in &all_nodes {
            if matches!(table.node(GcId(n)), GcNode::Gc) {
                roots.push_back(n);
            }
        }
        let mut gc_set: HashSet<u32> = roots.iter().copied().collect();
        while let Some(n) = roots.pop_front() {
            if let Some(succs) = adj.get(&n) {
                for &s in succs {
                    if gc_set.insert(s) {
                        roots.push_back(s);
                    }
                }
            }
        }
        GcSolution { gc_set }
    }
}

/// The result of [`ConstraintSet::solve_gc`].
#[derive(Clone, Debug, Default)]
pub struct GcSolution {
    gc_set: HashSet<u32>,
}

impl GcSolution {
    /// Whether the effect `id` may invoke the garbage collector.
    pub fn may_gc(&self, table: &TypeTable, id: GcId) -> bool {
        let canon = table.find(id);
        if matches!(table.node(canon), GcNode::Gc) {
            return true;
        }
        self.gc_set.contains(&canon.as_raw())
    }

    /// Number of effects proven `gc`.
    pub fn gc_count(&self) -> usize {
        self.gc_set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_bound_satisfied_by_top_and_unresolved() {
        let mut tt = TypeTable::new();
        let mut cs = ConstraintSet::new();
        let top = tt.psi_top();
        let var = tt.fresh_psi();
        cs.add_psi_bound(FlatInt::Top, top, Span::dummy(), "Val_int of unknown");
        cs.add_psi_bound(FlatInt::Known(7), var, Span::dummy(), "unused");
        assert!(cs.check_psi_bounds(&tt).is_empty());
    }

    #[test]
    fn psi_bound_violations() {
        let mut tt = TypeTable::new();
        let mut cs = ConstraintSet::new();
        let two = tt.psi_count(2);
        cs.add_psi_bound(FlatInt::Known(1), two, Span::dummy(), "ok"); // 1+1 <= 2
        cs.add_psi_bound(FlatInt::Known(2), two, Span::dummy(), "bad"); // 2+1 > 2
        cs.add_psi_bound(FlatInt::Known(-1), two, Span::dummy(), "negative");
        cs.add_psi_bound(FlatInt::Top, two, Span::dummy(), "unknown");
        cs.add_psi_bound(FlatInt::Bot, two, Span::dummy(), "unreachable");
        let v = cs.check_psi_bounds(&tt);
        assert_eq!(v.len(), 3);
        assert!(v.iter().any(|x| x.reason.contains("only 2")));
        assert!(v.iter().any(|x| x.reason.contains("negative")));
        assert!(v.iter().any(|x| x.reason.contains("unknown integer")));
    }

    #[test]
    fn psi_bound_after_unification() {
        let mut tt = TypeTable::new();
        let mut cs = ConstraintSet::new();
        let var = tt.fresh_psi();
        cs.add_psi_bound(FlatInt::Known(3), var, Span::dummy(), "if_int_tag x == 3");
        // later the variable unifies with a 2-constructor sum: violation
        let two = tt.psi_count(2);
        tt.unify_psi(var, two).unwrap();
        let v = cs.check_psi_bounds(&tt);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn gc_reachability_through_chain() {
        let mut tt = TypeTable::new();
        let mut cs = ConstraintSet::new();
        // alloc (gc) ⊑ helper ⊑ entry
        let alloc = tt.gc_gc();
        let helper = tt.fresh_gc();
        let entry = tt.fresh_gc();
        let other = tt.fresh_gc();
        cs.add_gc_edge(alloc, helper);
        cs.add_gc_edge(helper, entry);
        let sol = cs.solve_gc(&mut tt);
        assert!(sol.may_gc(&tt, alloc));
        assert!(sol.may_gc(&tt, helper));
        assert!(sol.may_gc(&tt, entry));
        assert!(!sol.may_gc(&tt, other));
    }

    #[test]
    fn gc_solution_respects_unification_aliases() {
        let mut tt = TypeTable::new();
        let mut cs = ConstraintSet::new();
        let alloc = tt.gc_gc();
        let a = tt.fresh_gc();
        let b = tt.fresh_gc();
        cs.add_gc_edge(alloc, a);
        tt.unify_gc(a, b); // b aliases a
        let sol = cs.solve_gc(&mut tt);
        assert!(sol.may_gc(&tt, b));
    }

    #[test]
    fn overlay_indices_are_continuous_with_base() {
        let mut tt = TypeTable::new();
        let mut base = ConstraintSet::new();
        let a = tt.gc_gc();
        let b = tt.fresh_gc();
        base.add_gc_edge(a, b);
        base.add_psi_bound(FlatInt::Known(0), tt.psi_top(), Span::dummy(), "base");
        let base = Arc::new(base);

        let mut view = ConstraintSet::overlay(base.clone());
        assert_eq!(view.gc_edge_count(), 1);
        assert_eq!(view.psi_bound_count(), 1);
        let c = tt.fresh_gc();
        view.add_gc_edge(b, c);
        let over = tt.psi_count(2);
        view.add_psi_bound(FlatInt::Known(5), over, Span::dummy(), "local");
        assert_eq!(view.gc_edge_count(), 2);
        assert_eq!(view.gc_edges_from(1).collect::<Vec<_>>(), vec![(b, c)]);
        assert_eq!(view.psi_bounds_from(1).count(), 1);

        // solving sees base and local edges together
        let sol = view.solve_gc(&mut tt);
        assert!(sol.may_gc(&tt, c), "gc flows base → local edge");
        // checks see base and local bounds; only the local one violates
        assert_eq!(view.check_psi_bounds(&tt).len(), 1);
        // the shared base is untouched
        assert_eq!(base.gc_edge_count(), 1);
        assert_eq!(base.psi_bound_count(), 1);
    }

    #[test]
    fn nogc_stays_nogc_without_edges() {
        let mut tt = TypeTable::new();
        let cs = ConstraintSet::new();
        let n = tt.gc_nogc();
        let sol = cs.solve_gc(&mut tt);
        assert!(!sol.may_gc(&tt, n));
        assert_eq!(sol.gc_count(), 0);
    }
}
