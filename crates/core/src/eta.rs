//! The `η` mapping of §3.3.2: source C types to extended C types.
//!
//! ```text
//! η(void)    = void
//! η(int)     = int
//! η(value)   = α value      (α fresh)
//! η(ctype *) = η(ctype) *
//! ```

use ffisafe_cil::CTypeExpr;
use ffisafe_types::{CtId, TypeTable};

/// Translates a source C type to an arena type, allocating a fresh `α`
/// under every `value`.
pub fn eta(table: &mut TypeTable, ty: &CTypeExpr) -> CtId {
    match ty {
        CTypeExpr::Void => table.ct_void(),
        CTypeExpr::Int => table.ct_int(),
        CTypeExpr::Float => table.ct_float(),
        CTypeExpr::Value => table.ct_fresh_value(),
        CTypeExpr::Ptr(inner) => {
            let i = eta(table, inner);
            table.ct_ptr(i)
        }
        CTypeExpr::Named(n) => table.ct_named(n),
        // Function pointers and synthesized temporaries are unconstrained.
        CTypeExpr::FuncPtr | CTypeExpr::Auto => table.fresh_ct(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffisafe_types::CtNode;

    #[test]
    fn eta_value_allocates_fresh_alpha() {
        let mut tt = TypeTable::new();
        let a = eta(&mut tt, &CTypeExpr::Value);
        let b = eta(&mut tt, &CTypeExpr::Value);
        let (CtNode::Value(m1), CtNode::Value(m2)) = (tt.node(a).clone(), tt.node(b).clone())
        else {
            panic!()
        };
        assert_ne!(tt.find(m1), tt.find(m2));
    }

    #[test]
    fn eta_structural_forms() {
        let mut tt = TypeTable::new();
        let p = eta(&mut tt, &CTypeExpr::Int.ptr());
        assert_eq!(tt.render_ct(p), "int *");
        let n = eta(&mut tt, &CTypeExpr::Named("gzFile".into()));
        assert_eq!(tt.render_ct(n), "gzFile");
        let auto = eta(&mut tt, &CTypeExpr::Auto);
        assert!(matches!(tt.node(auto), CtNode::Var));
    }
}
