//! Rendering multi-lingual types for diagnostics, in the paper's notation:
//! `(2, (⊤,∅) + (⊤,∅) × (⊤,∅))` for the running example's `type t`.

use crate::arena::TypeTable;
use crate::term::*;
use std::collections::HashSet;

impl TypeTable {
    /// Renders an `mt` in paper notation. Cycles print as `µ`.
    pub fn render_mt(&self, id: MtId) -> String {
        let mut seen = HashSet::new();
        self.render_mt_rec(id, &mut seen)
    }

    fn render_mt_rec(&self, id: MtId, seen: &mut HashSet<u32>) -> String {
        let id = self.find(id);
        if !seen.insert(id.as_raw()) {
            return "µ".to_string();
        }
        let out = match self.node(id) {
            MtNode::Var => format!("α{}", id.as_raw()),
            MtNode::Fun(params, ret) => {
                let mut s = String::new();
                for p in params {
                    s.push_str(&self.render_mt_rec(*p, seen));
                    s.push_str(" → ");
                }
                s.push_str(&self.render_mt_rec(*ret, seen));
                s
            }
            MtNode::Custom(ct) => format!("{} custom", self.render_ct_rec(*ct, seen)),
            MtNode::Rep(psi, sigma) => {
                format!("({}, {})", self.render_psi(*psi), self.render_sigma_rec(*sigma, seen))
            }
            MtNode::Abstract { name, .. } => name.clone(),
            MtNode::Link(_) => unreachable!("resolved"),
        };
        seen.remove(&id.as_raw());
        out
    }

    /// Renders a `ct` in paper notation.
    pub fn render_ct(&self, id: CtId) -> String {
        let mut seen = HashSet::new();
        self.render_ct_rec(id, &mut seen)
    }

    fn render_ct_rec(&self, id: CtId, seen: &mut HashSet<u32>) -> String {
        let id = self.find(id);
        match self.node(id) {
            CtNode::Var => format!("?c{}", id.as_raw()),
            CtNode::Void => "void".into(),
            CtNode::Int => "int".into(),
            CtNode::Float => "double".into(),
            CtNode::Value(mt) => format!("{} value", self.render_mt_rec(*mt, seen)),
            CtNode::Ptr(inner) => format!("{} *", self.render_ct_rec(*inner, seen)),
            CtNode::Named(n) => n.clone(),
            CtNode::Fun(params, ret, gc) => {
                let ps: Vec<String> = params.iter().map(|p| self.render_ct_rec(*p, seen)).collect();
                format!(
                    "({}) →{} {}",
                    ps.join(" × "),
                    self.render_gc(*gc),
                    self.render_ct_rec(*ret, seen)
                )
            }
            CtNode::Link(_) => unreachable!("resolved"),
        }
    }

    /// Renders a `Ψ` bound.
    pub fn render_psi(&self, id: PsiId) -> String {
        let id = self.find(id);
        match *self.node(id) {
            PsiNode::Var => format!("ψ{}", id.as_raw()),
            PsiNode::Count(n) => n.to_string(),
            PsiNode::Top => "⊤".into(),
            PsiNode::Link(_) => unreachable!("resolved"),
        }
    }

    /// Renders a `Σ` row.
    pub fn render_sigma(&self, id: SigmaId) -> String {
        let mut seen = HashSet::new();
        self.render_sigma_rec(id, &mut seen)
    }

    fn render_sigma_rec(&self, id: SigmaId, seen: &mut HashSet<u32>) -> String {
        let mut parts = Vec::new();
        let mut cur = self.find(id);
        let mut guard = 0usize;
        loop {
            match *self.node(cur) {
                SigmaNode::Nil => break,
                SigmaNode::Var => {
                    parts.push(format!("σ{}", cur.as_raw()));
                    break;
                }
                SigmaNode::Cons(head, tail) => {
                    parts.push(self.render_pi_rec(head, seen));
                    cur = self.find(tail);
                }
                SigmaNode::Link(_) => unreachable!("resolved"),
            }
            guard += 1;
            if guard > self.sigmas.len() {
                parts.push("µ".into());
                break;
            }
        }
        if parts.is_empty() {
            "∅".into()
        } else {
            parts.join(" + ")
        }
    }

    fn render_pi_rec(&self, id: PiId, seen: &mut HashSet<u32>) -> String {
        let mut parts = Vec::new();
        let mut cur = self.find(id);
        let mut guard = 0usize;
        loop {
            match *self.node(cur) {
                PiNode::Nil => break,
                PiNode::Var => {
                    parts.push(format!("π{}", cur.as_raw()));
                    break;
                }
                PiNode::Array(elem) => {
                    parts.push(format!("{}[]", self.render_mt_rec(elem, seen)));
                    break;
                }
                PiNode::Cons(head, tail) => {
                    parts.push(self.render_mt_rec(head, seen));
                    cur = self.find(tail);
                }
                PiNode::Link(_) => unreachable!("resolved"),
            }
            guard += 1;
            if guard > self.pis.len() {
                parts.push("µ".into());
                break;
            }
        }
        if parts.is_empty() {
            "∅".into()
        } else if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            parts.join(" × ")
        }
    }

    /// Renders a GC effect.
    pub fn render_gc(&self, id: GcId) -> String {
        let id = self.find(id);
        match *self.node(id) {
            GcNode::Var => format!("γ{}", id.as_raw()),
            GcNode::Gc => "gc".into(),
            GcNode::NoGc => "nogc".into(),
            GcNode::Link(_) => unreachable!("resolved"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_running_example_type() {
        let mut tt = TypeTable::new();
        // type t = A of int | B | C of int * int | D
        let mk_int = |tt: &mut TypeTable| {
            let p = tt.psi_top();
            let s = tt.sigma_nil();
            tt.mt_rep(p, s)
        };
        let i0 = mk_int(&mut tt);
        let i1 = mk_int(&mut tt);
        let i2 = mk_int(&mut tt);
        let pa = tt.pi_closed(&[i0]);
        let pc = tt.pi_closed(&[i1, i2]);
        let sig = tt.sigma_closed(&[pa, pc]);
        let psi = tt.psi_count(2);
        let t = tt.mt_rep(psi, sig);
        assert_eq!(tt.render_mt(t), "(2, (⊤, ∅) + (⊤, ∅) × (⊤, ∅))");
    }

    #[test]
    fn renders_unit_and_int() {
        let mut tt = TypeTable::new();
        let p1 = tt.psi_count(1);
        let s1 = tt.sigma_nil();
        let unit = tt.mt_rep(p1, s1);
        assert_eq!(tt.render_mt(unit), "(1, ∅)");
        let pt = tt.psi_top();
        let s2 = tt.sigma_nil();
        let int = tt.mt_rep(pt, s2);
        assert_eq!(tt.render_mt(int), "(⊤, ∅)");
    }

    #[test]
    fn renders_cyclic_type_with_mu() {
        let mut tt = TypeTable::new();
        let elem = tt.mt_abstract("string", true);
        let knot = tt.fresh_mt();
        let pi = tt.pi_closed(&[elem, knot]);
        let sig = tt.sigma_closed(&[pi]);
        let psi = tt.psi_count(1);
        let list = tt.mt_rep(psi, sig);
        tt.set(knot, MtNode::Link(list));
        let s = tt.render_mt(list);
        assert!(s.contains('µ'), "{s}");
        assert!(s.contains("string"), "{s}");
    }

    #[test]
    fn renders_ct_forms() {
        let mut tt = TypeTable::new();
        let i = tt.ct_int();
        let p = tt.ct_ptr(i);
        assert_eq!(tt.render_ct(p), "int *");
        let g = tt.gc_gc();
        let v = tt.ct_void();
        let f = tt.ct_fun(vec![p], v, g);
        assert_eq!(tt.render_ct(f), "(int *) →gc void");
        let m = tt.fresh_mt();
        let val = tt.ct_value(m);
        assert!(tt.render_ct(val).ends_with(" value"));
    }

    #[test]
    fn renders_open_rows_with_variables() {
        let mut tt = TypeTable::new();
        let sig = tt.fresh_sigma();
        let _ = tt.sigma_at(sig, 0).unwrap();
        let s = tt.render_sigma(sig);
        assert!(s.contains('π'), "{s}");
        assert!(s.contains('σ'), "{s}");
    }

    #[test]
    fn renders_custom() {
        let mut tt = TypeTable::new();
        let n = tt.ct_named("gzFile");
        let p = tt.ct_ptr(n);
        let c = tt.mt_custom(p);
        assert_eq!(tt.render_mt(c), "gzFile * custom");
    }
}
