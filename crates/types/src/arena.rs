//! The type arena: one table owning every node of every sort, with one
//! union-find over all six.
//!
//! Each sort of Figure 3 is an id type implementing [`Sort`], which names
//! its node type, its `Var` and `Link` nodes and its shelf of the arena;
//! [`TypeTable::resolve`], [`TypeTable::find`], [`TypeTable::node`] and the
//! unifier's `bind`/`merge` are written once for all of them.
//!
//! Storage is layered for the parallel pipeline. A [`TypeTable`] built
//! from scratch owns its nodes outright; [`TypeTable::freeze`] turns the
//! post-link table into a [`FrozenTypeTable`] — six `Arc`-shared,
//! fully path-compressed node vectors — and [`FrozenTypeTable::overlay`]
//! hands out O(1) copy-on-write views of it. An overlay records only what
//! a worker changes: re-bound base nodes land in a small per-sort delta
//! map, fresh allocations append to a local tail, and every read falls
//! through to the frozen base. Ids allocated by an overlay are numbered
//! exactly as a deep clone would have numbered them, so snapshot-isolated
//! workers behave identically to the old clone-per-worker scheme while
//! paying per-function cost proportional to what they touch, not to the
//! whole base state.

use crate::shelf::Shelf;
use crate::term::*;

/// One sort of Figure 3 (`mt`, `ct`, `Ψ`, `Σ`, `Π` or `GC`): an id type
/// whose nodes are union-find nodes on one shelf of the arena. The six id
/// types implement it; every union-find operation of [`TypeTable`] is
/// generic over it.
pub trait Sort: Copy + Eq {
    /// The sort's node type (`MtNode` for [`MtId`], …).
    type Node: Clone + PartialEq;
    /// The node that forwards to `self`.
    fn link(self) -> Self::Node;
    /// Where `node` forwards to, if it is a link.
    fn follow(node: &Self::Node) -> Option<Self>;
    /// Whether `node` is an unbound variable.
    fn is_var(node: &Self::Node) -> bool;
    /// The id's raw arena index.
    fn raw(self) -> u32;
    /// The id at raw arena index `raw`.
    fn of_raw(raw: u32) -> Self;
    #[doc(hidden)]
    fn shelf(table: &TypeTable) -> &Shelf<Self::Node>;
    #[doc(hidden)]
    fn shelf_mut(table: &mut TypeTable) -> &mut Shelf<Self::Node>;
}

/// Owns all type nodes and implements union-find over each sort.
///
/// Every phase of the analysis allocates its types here: the OCaml
/// translation (`ρ`/`Φ`), the C-side `η` mapping, and the inference rules.
/// Nodes are never removed; links created by unification are compressed on
/// resolution.
///
/// A table is either self-contained (built by [`TypeTable::new`]) or an
/// overlay view of a [`FrozenTypeTable`]; the two behave identically
/// through this API.
///
/// # Examples
///
/// ```
/// use ffisafe_types::TypeTable;
/// let mut tt = TypeTable::new();
/// // Build the representational type of OCaml `unit`: (1, ∅)
/// let psi = tt.psi_count(1);
/// let sigma = tt.sigma_nil();
/// let unit = tt.mt_rep(psi, sigma);
/// assert_eq!(tt.render_mt(unit), "(1, ∅)");
/// ```
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    pub(crate) mts: Shelf<MtNode>,
    pub(crate) cts: Shelf<CtNode>,
    pub(crate) psis: Shelf<PsiNode>,
    pub(crate) sigmas: Shelf<SigmaNode>,
    pub(crate) pis: Shelf<PiNode>,
    pub(crate) gcs: Shelf<GcNode>,
}

/// An immutable, fully path-compressed type table shared by reference.
///
/// Produced by [`TypeTable::freeze`] after linking; every inference worker
/// gets an O(1) [`FrozenTypeTable::overlay`] view instead of a deep clone.
/// It wraps the same six shelves as a [`TypeTable`], each holding only its
/// shared base, and offers no way to write them. Cloning a frozen table
/// clones six `Arc`s.
#[derive(Clone, Debug, Default)]
pub struct FrozenTypeTable(TypeTable);

impl FrozenTypeTable {
    /// A fresh mutable view: reads fall through to this frozen base,
    /// writes stay private to the view. O(1).
    pub fn overlay(&self) -> TypeTable {
        self.0.clone()
    }

    /// Total node count across all sorts.
    pub fn node_count(&self) -> usize {
        self.0.node_count()
    }

    /// The node behind the canonical representative of `id` (frozen chains
    /// are at most one hop, but links are followed fully).
    pub fn node<S: Sort>(&self, id: S) -> &S::Node {
        self.0.node(id)
    }

    /// All nodes of sort `S`, id order (digest input).
    pub fn nodes<S: Sort>(&self) -> &[S::Node] {
        S::shelf(&self.0).base()
    }
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Freezes this table into shared immutable storage.
    ///
    /// Every link chain of every sort is fully path-compressed first, so
    /// base chains in the frozen vectors are at most one hop and any later
    /// overlay write to a base id reflects a genuine change, never
    /// base-derivable compression.
    pub fn freeze(mut self) -> FrozenTypeTable {
        self.freeze_sort::<MtId>();
        self.freeze_sort::<CtId>();
        self.freeze_sort::<PsiId>();
        self.freeze_sort::<SigmaId>();
        self.freeze_sort::<PiId>();
        self.freeze_sort::<GcId>();
        FrozenTypeTable(self)
    }

    /// Compresses every chain of sort `S`, then moves the sort into its
    /// shared base.
    fn freeze_sort<S: Sort>(&mut self) {
        for i in 0..self.count::<S>() as u32 {
            self.resolve(S::of_raw(i));
        }
        S::shelf_mut(self).freeze();
    }

    // ---- union-find ---------------------------------------------------------

    /// Canonical representative of `id`, with path compression.
    pub fn resolve<S: Sort>(&mut self, mut id: S) -> S {
        let mut seen = Vec::new();
        while let Some(next) = S::follow(S::shelf(self).get(id.raw())) {
            seen.push(id);
            id = next;
        }
        for s in seen {
            self.set(s, id.link());
        }
        id
    }

    /// Canonical representative without mutation (no compression).
    pub fn find<S: Sort>(&self, mut id: S) -> S {
        while let Some(next) = S::follow(S::shelf(self).get(id.raw())) {
            id = next;
        }
        id
    }

    /// The node behind the canonical representative of `id`.
    pub fn node<S: Sort>(&self, id: S) -> &S::Node {
        S::shelf(self).get(self.find(id).raw())
    }

    /// Overwrites the node behind `id` (not its representative). Used to
    /// install links and grow rows.
    pub(crate) fn set<S: Sort>(&mut self, id: S, node: S::Node) {
        S::shelf_mut(self).set(id.raw(), node);
    }

    /// Base ids of sort `S` this view re-bound, ascending. The unifier
    /// writes GC nodes only as links onto resolved canonicals (and the
    /// frozen base is fully compressed), so every base effect class whose
    /// canonical or constant changed in this view has at least one member
    /// in `overlay_keys::<GcId>()` — the effect-delta export scans it
    /// instead of every base class.
    pub fn overlay_keys<S: Sort>(&self) -> Vec<u32> {
        S::shelf(self).overlay_keys()
    }

    /// Total re-bound base ids across all sorts (diagnostics/tests).
    pub fn overlay_node_count(&self) -> usize {
        self.mts.overlay_len()
            + self.cts.overlay_len()
            + self.psis.overlay_len()
            + self.sigmas.overlay_len()
            + self.pis.overlay_len()
            + self.gcs.overlay_len()
    }

    // ---- allocation: mt -------------------------------------------------

    /// Fresh type variable `α`.
    pub fn fresh_mt(&mut self) -> MtId {
        self.push_mt(MtNode::Var)
    }

    /// OCaml function type node.
    pub fn mt_fun(&mut self, params: Vec<MtId>, ret: MtId) -> MtId {
        self.push_mt(MtNode::Fun(params, ret))
    }

    /// `ct custom` node.
    pub fn mt_custom(&mut self, ct: CtId) -> MtId {
        self.push_mt(MtNode::Custom(ct))
    }

    /// Representational type `(Ψ, Σ)`.
    pub fn mt_rep(&mut self, psi: PsiId, sigma: SigmaId) -> MtId {
        self.push_mt(MtNode::Rep(psi, sigma))
    }

    /// Fresh representational type `(ψ, σ)` with both components unbound.
    pub fn mt_fresh_rep(&mut self) -> MtId {
        let psi = self.fresh_psi();
        let sigma = self.fresh_sigma();
        self.mt_rep(psi, sigma)
    }

    /// Nominal abstract OCaml type.
    pub fn mt_abstract(&mut self, name: &str, heap: bool) -> MtId {
        self.push_mt(MtNode::Abstract { name: name.to_string(), heap })
    }

    fn push_mt(&mut self, n: MtNode) -> MtId {
        MtId(self.mts.push(n))
    }

    /// Binds the unbound variable `var` to `to`, tying a recursive knot.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not an unbound `α` variable.
    pub fn link_mt(&mut self, var: MtId, to: MtId) {
        assert!(
            matches!(*self.mts.get(var.0), MtNode::Var),
            "link_mt target must be an unbound variable"
        );
        self.set(var, MtNode::Link(to));
    }

    // ---- allocation: ct -------------------------------------------------

    /// Fresh unknown C type.
    pub fn fresh_ct(&mut self) -> CtId {
        self.push_ct(CtNode::Var)
    }

    /// `void`.
    pub fn ct_void(&mut self) -> CtId {
        self.push_ct(CtNode::Void)
    }

    /// Any C integer type.
    pub fn ct_int(&mut self) -> CtId {
        self.push_ct(CtNode::Int)
    }

    /// Any C floating-point type.
    pub fn ct_float(&mut self) -> CtId {
        self.push_ct(CtNode::Float)
    }

    /// `mt value`.
    pub fn ct_value(&mut self, mt: MtId) -> CtId {
        self.push_ct(CtNode::Value(mt))
    }

    /// `α value` with a fresh `α` — the `η(value)` of §3.3.2.
    pub fn ct_fresh_value(&mut self) -> CtId {
        let mt = self.fresh_mt();
        self.ct_value(mt)
    }

    /// `ct *`.
    pub fn ct_ptr(&mut self, inner: CtId) -> CtId {
        self.push_ct(CtNode::Ptr(inner))
    }

    /// Nominal C type.
    pub fn ct_named(&mut self, name: &str) -> CtId {
        self.push_ct(CtNode::Named(name.to_string()))
    }

    /// Function type with effect.
    pub fn ct_fun(&mut self, params: Vec<CtId>, ret: CtId, gc: GcId) -> CtId {
        self.push_ct(CtNode::Fun(params, ret, gc))
    }

    fn push_ct(&mut self, n: CtNode) -> CtId {
        CtId(self.cts.push(n))
    }

    // ---- allocation: psi / sigma / pi / gc --------------------------------

    /// Fresh `ψ` variable.
    pub fn fresh_psi(&mut self) -> PsiId {
        PsiId(self.psis.push(PsiNode::Var))
    }

    /// `Ψ = n` (exactly `n` nullary constructors).
    pub fn psi_count(&mut self, n: u32) -> PsiId {
        PsiId(self.psis.push(PsiNode::Count(n)))
    }

    /// `Ψ = ⊤` (the type is `int`-like).
    pub fn psi_top(&mut self) -> PsiId {
        PsiId(self.psis.push(PsiNode::Top))
    }

    /// Fresh `σ` row variable.
    pub fn fresh_sigma(&mut self) -> SigmaId {
        SigmaId(self.sigmas.push(SigmaNode::Var))
    }

    /// The empty sum row `∅`.
    pub fn sigma_nil(&mut self) -> SigmaId {
        SigmaId(self.sigmas.push(SigmaNode::Nil))
    }

    /// `Π + Σ`.
    pub fn sigma_cons(&mut self, head: PiId, tail: SigmaId) -> SigmaId {
        SigmaId(self.sigmas.push(SigmaNode::Cons(head, tail)))
    }

    /// Builds a closed sum row from products.
    pub fn sigma_closed(&mut self, products: &[PiId]) -> SigmaId {
        let mut tail = self.sigma_nil();
        for &p in products.iter().rev() {
            tail = self.sigma_cons(p, tail);
        }
        tail
    }

    /// Fresh `π` row variable.
    pub fn fresh_pi(&mut self) -> PiId {
        PiId(self.pis.push(PiNode::Var))
    }

    /// The empty product row `∅`.
    pub fn pi_nil(&mut self) -> PiId {
        PiId(self.pis.push(PiNode::Nil))
    }

    /// `mt × Π`.
    pub fn pi_cons(&mut self, head: MtId, tail: PiId) -> PiId {
        PiId(self.pis.push(PiNode::Cons(head, tail)))
    }

    /// Unknown-length block with uniform element type (`'a array`).
    pub fn pi_array(&mut self, elem: MtId) -> PiId {
        PiId(self.pis.push(PiNode::Array(elem)))
    }

    /// Builds a closed product row from field types.
    pub fn pi_closed(&mut self, fields: &[MtId]) -> PiId {
        let mut tail = self.pi_nil();
        for &f in fields.iter().rev() {
            tail = self.pi_cons(f, tail);
        }
        tail
    }

    /// Fresh effect variable `γ`.
    pub fn fresh_gc(&mut self) -> GcId {
        GcId(self.gcs.push(GcNode::Var))
    }

    /// The constant effect `gc`.
    pub fn gc_gc(&mut self) -> GcId {
        GcId(self.gcs.push(GcNode::Gc))
    }

    /// The constant effect `nogc`.
    pub fn gc_nogc(&mut self) -> GcId {
        GcId(self.gcs.push(GcNode::NoGc))
    }

    // ---- statistics --------------------------------------------------------

    /// Total number of nodes across all sorts (bench metric).
    pub fn node_count(&self) -> usize {
        self.mts.len()
            + self.cts.len()
            + self.psis.len()
            + self.sigmas.len()
            + self.pis.len()
            + self.gcs.len()
    }

    /// Number of nodes of sort `S`. Parallel inference workers use the base
    /// table's counts to tell shared (frozen) ids from ids they allocated
    /// locally in their overlay.
    pub fn count<S: Sort>(&self) -> usize {
        S::shelf(self).len()
    }

    // ---- structured queries -------------------------------------------------

    /// Number of products in a sum row, if the row is closed.
    pub fn sigma_len(&self, id: SigmaId) -> Option<usize> {
        let mut n = 0usize;
        let mut cur = self.find(id);
        loop {
            match *self.node(cur) {
                SigmaNode::Nil => return Some(n),
                SigmaNode::Cons(_, tail) => {
                    n += 1;
                    cur = self.find(tail);
                    // cyclic rows cannot be closed
                    if n > self.sigmas.len() {
                        return None;
                    }
                }
                SigmaNode::Var => return None,
                SigmaNode::Link(_) => unreachable!("resolved"),
            }
        }
    }

    /// Returns `true` when the sum row is known to contain at least one
    /// product (the `|Σ| > 0` test of the (App) rule's `ValPtrs`).
    pub fn sigma_nonempty(&self, id: SigmaId) -> bool {
        matches!(self.node(id), SigmaNode::Cons(..))
    }

    /// Collects the products of a row up to its (possibly open) end.
    pub fn sigma_products(&self, id: SigmaId) -> Vec<PiId> {
        let mut out = Vec::new();
        let mut cur = self.find(id);
        while let SigmaNode::Cons(head, tail) = *self.node(cur) {
            out.push(head);
            cur = self.find(tail);
            if out.len() > self.sigmas.len() {
                break; // cyclic row; stop
            }
        }
        out
    }

    /// Collects the fields of a product row up to its (possibly open) end.
    /// Returns `None` for `Array` rows, whose length is unknown.
    pub fn pi_fields(&self, id: PiId) -> Option<Vec<MtId>> {
        let mut out = Vec::new();
        let mut cur = self.find(id);
        loop {
            match *self.node(cur) {
                PiNode::Cons(head, tail) => {
                    out.push(head);
                    cur = self.find(tail);
                    if out.len() > self.pis.len() {
                        return Some(out); // cyclic; stop
                    }
                }
                PiNode::Array(_) => return None,
                PiNode::Nil | PiNode::Var => return Some(out),
                PiNode::Link(_) => unreachable!("resolved"),
            }
        }
    }

    /// Whether `mt` is a heap pointer candidate for `ValPtrs(Γ)`: a
    /// representational type with at least one product, or a heap-allocated
    /// abstract type (strings, floats, boxed opaque data).
    pub fn mt_is_heap_pointer(&self, mt: MtId) -> bool {
        match self.node(mt) {
            MtNode::Rep(_, sigma) => self.sigma_nonempty(*sigma),
            MtNode::Abstract { heap, .. } => *heap,
            _ => false,
        }
    }

    /// Whether `mt` resolved to something concrete (not a bare variable).
    pub fn mt_is_concrete(&self, mt: MtId) -> bool {
        !matches!(self.node(mt), MtNode::Var)
    }

    /// Whether `mt` resolved to a fully *ground* type — no inference
    /// variable of any sort anywhere inside. Ground types render without
    /// variable indices, so two ground renders are equal iff the types are
    /// structurally identical; the pipeline's interface-consistency check
    /// relies on that.
    pub fn mt_is_ground(&self, mt: MtId) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.mt_ground_rec(mt, &mut seen)
    }

    fn mt_ground_rec(&self, mt: MtId, seen: &mut std::collections::HashSet<u32>) -> bool {
        let mt = self.find(mt);
        if !seen.insert(mt.as_raw()) {
            return true; // equirecursive cycle: already being checked
        }
        match self.node(mt) {
            MtNode::Var => false,
            MtNode::Abstract { .. } => true,
            MtNode::Custom(ct) => self.ct_ground_rec(*ct, seen),
            MtNode::Fun(params, ret) => {
                params.clone().iter().all(|p| self.mt_ground_rec(*p, seen))
                    && self.mt_ground_rec(*ret, seen)
            }
            MtNode::Rep(psi, sigma) => {
                let psi_ok = !matches!(self.node(*psi), PsiNode::Var);
                psi_ok && self.sigma_ground_rec(*sigma, seen)
            }
            MtNode::Link(_) => unreachable!("resolved"),
        }
    }

    fn sigma_ground_rec(&self, sigma: SigmaId, seen: &mut std::collections::HashSet<u32>) -> bool {
        let mut cur = self.find(sigma);
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > self.sigmas.len() + 1 {
                return true; // cyclic row
            }
            match *self.node(cur) {
                SigmaNode::Var => return false,
                SigmaNode::Nil => return true,
                SigmaNode::Cons(pi, rest) => {
                    if !self.pi_ground_rec(pi, seen) {
                        return false;
                    }
                    cur = self.find(rest);
                }
                SigmaNode::Link(_) => unreachable!("resolved"),
            }
        }
    }

    fn pi_ground_rec(&self, pi: PiId, seen: &mut std::collections::HashSet<u32>) -> bool {
        let mut cur = self.find(pi);
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > self.pis.len() + 1 {
                return true; // cyclic row
            }
            match *self.node(cur) {
                PiNode::Var => return false,
                PiNode::Nil => return true,
                PiNode::Array(mt) => return self.mt_ground_rec(mt, seen),
                PiNode::Cons(mt, rest) => {
                    if !self.mt_ground_rec(mt, seen) {
                        return false;
                    }
                    cur = self.find(rest);
                }
                PiNode::Link(_) => unreachable!("resolved"),
            }
        }
    }

    fn ct_ground_rec(&self, ct: CtId, seen: &mut std::collections::HashSet<u32>) -> bool {
        let ct = self.find(ct);
        match self.node(ct) {
            CtNode::Var => false,
            CtNode::Void | CtNode::Int | CtNode::Float | CtNode::Named(_) => true,
            CtNode::Value(mt) => self.mt_ground_rec(*mt, seen),
            CtNode::Ptr(inner) => self.ct_ground_rec(*inner, seen),
            CtNode::Fun(params, ret, gc) => {
                params.clone().iter().all(|p| self.ct_ground_rec(*p, seen))
                    && self.ct_ground_rec(*ret, seen)
                    && !matches!(self.node(*gc), GcNode::Var)
            }
            CtNode::Link(_) => unreachable!("resolved"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_resolve_links() {
        let mut tt = TypeTable::new();
        let a = tt.fresh_mt();
        let b = tt.fresh_mt();
        let c = tt.fresh_mt();
        tt.set(a, MtNode::Link(b));
        tt.set(b, MtNode::Link(c));
        assert_eq!(tt.resolve(a), c);
        // path compression happened
        assert_eq!(*tt.mts.get(a.as_raw()), MtNode::Link(c));
    }

    #[test]
    fn sigma_len_closed_and_open() {
        let mut tt = TypeTable::new();
        let p0 = tt.pi_nil();
        let p1 = tt.pi_nil();
        let closed = tt.sigma_closed(&[p0, p1]);
        assert_eq!(tt.sigma_len(closed), Some(2));
        let tail = tt.fresh_sigma();
        let open = tt.sigma_cons(p0, tail);
        assert_eq!(tt.sigma_len(open), None);
        assert!(tt.sigma_nonempty(open));
        let nil = tt.sigma_nil();
        assert!(!tt.sigma_nonempty(nil));
    }

    #[test]
    fn pi_fields_closed_and_array() {
        let mut tt = TypeTable::new();
        let a = tt.fresh_mt();
        let b = tt.fresh_mt();
        let pi = tt.pi_closed(&[a, b]);
        assert_eq!(tt.pi_fields(pi), Some(vec![a, b]));
        let arr = tt.pi_array(a);
        assert_eq!(tt.pi_fields(arr), None);
    }

    #[test]
    fn heap_pointer_classification() {
        let mut tt = TypeTable::new();
        // (⊤, ∅): an int — not a heap pointer
        let psi = tt.psi_top();
        let nil = tt.sigma_nil();
        let int_mt = tt.mt_rep(psi, nil);
        assert!(!tt.mt_is_heap_pointer(int_mt));
        // (0, Π) with one product — heap pointer
        let f = tt.fresh_mt();
        let pi = tt.pi_closed(&[f]);
        let psi0 = tt.psi_count(0);
        let sig = tt.sigma_closed(&[pi]);
        let ref_mt = tt.mt_rep(psi0, sig);
        assert!(tt.mt_is_heap_pointer(ref_mt));
        // heap abstract
        let s = tt.mt_abstract("string", true);
        assert!(tt.mt_is_heap_pointer(s));
        let c = tt.mt_abstract("win32_handle", false);
        assert!(!tt.mt_is_heap_pointer(c));
    }

    #[test]
    fn node_count_accumulates() {
        let mut tt = TypeTable::new();
        assert_eq!(tt.node_count(), 0);
        tt.fresh_mt();
        tt.fresh_psi();
        tt.fresh_gc();
        assert_eq!(tt.node_count(), 3);
    }

    #[test]
    fn find_does_not_mutate() {
        let mut tt = TypeTable::new();
        let a = tt.fresh_mt();
        let b = tt.fresh_mt();
        tt.set(a, MtNode::Link(b));
        let found = tt.find(a);
        assert_eq!(found, b);
        // no compression via find
        assert_eq!(*tt.mts.get(a.as_raw()), MtNode::Link(b));
    }

    #[test]
    fn freeze_compresses_and_overlay_reads_fall_through() {
        let mut tt = TypeTable::new();
        let a = tt.fresh_mt();
        let b = tt.fresh_mt();
        let c = tt.fresh_mt();
        tt.set(a, MtNode::Link(b));
        tt.set(b, MtNode::Link(c));
        let frozen = tt.freeze();
        let view = frozen.overlay();
        // frozen chains are ≤ 1 hop, so find needs no compression
        assert_eq!(view.find(a), c);
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.overlay_node_count(), 0, "reads must not populate the overlay");
    }

    #[test]
    fn overlay_ids_match_clone_ids() {
        let mut tt = TypeTable::new();
        tt.fresh_mt();
        tt.fresh_gc();
        let mut cloned = tt.clone();
        let frozen = tt.freeze();
        let mut view = frozen.overlay();
        assert_eq!(view.fresh_mt(), cloned.fresh_mt());
        assert_eq!(view.fresh_gc(), cloned.fresh_gc());
        assert_eq!(view.node_count(), cloned.node_count());
    }

    #[test]
    fn overlay_writes_stay_private_and_equality_skips() {
        let mut tt = TypeTable::new();
        let a = tt.fresh_gc();
        let g = tt.gc_gc();
        let frozen = tt.freeze();
        let mut view = frozen.overlay();
        view.unify_gc(a, g);
        assert_eq!(*view.node(a), GcNode::Gc);
        assert_eq!(
            view.overlay_keys::<GcId>(),
            vec![a.as_raw()],
            "only the re-bound id is recorded"
        );
        // a sibling view never sees the write
        let sibling = frozen.overlay();
        assert_eq!(*sibling.node(a), GcNode::Var);
        // writing the base value back erases the delta entry
        let mut view2 = frozen.overlay();
        view2.set(a, GcNode::Var);
        assert_eq!(view2.overlay_keys::<GcId>(), Vec::<u32>::new());
    }

    #[test]
    fn freeze_of_overlay_materializes_all_layers() {
        let mut tt = TypeTable::new();
        let a = tt.fresh_mt();
        let frozen = tt.freeze();
        let mut view = frozen.overlay();
        let b = view.fresh_mt();
        view.unify_mt(a, b).unwrap();
        let refrozen = view.freeze();
        let reread = refrozen.overlay();
        assert_eq!(reread.find(a), reread.find(b));
        assert_eq!(reread.node_count(), 2);
    }
}
