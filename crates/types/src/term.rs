//! Node sorts and ids for the multi-lingual type language (Figure 3).
//!
//! ```text
//! ct ::= void | int | mt value | ct * | ct × … × ct →GC ct
//! GC ::= γ | gc | nogc
//! mt ::= α | mt → mt | ct custom | (Ψ, Σ)
//! Ψ  ::= ψ | n | ⊤
//! Σ  ::= σ | ∅ | Π + Σ
//! Π  ::= π | ∅ | mt × Π
//! ```
//!
//! All sorts live in one [`crate::TypeTable`] arena as union-find nodes; the
//! ids below are typed indices into it. `Σ` and `Π` are *rows* in the sense
//! of Rémy: a row is either closed (`Nil`-terminated) or open (ends in a
//! row variable), and open rows grow during inference as the C code is
//! observed testing tags and reading fields.

use crate::arena::{Sort, TypeTable};
use crate::shelf::Shelf;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $node:ident, $shelf:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Raw arena index.
            pub fn as_raw(self) -> u32 {
                self.0
            }

            /// Rebuilds the id from a raw arena index. The index must come
            /// from [`Self::as_raw`] against the same [`crate::TypeTable`]
            /// (or a clone sharing its base prefix, as the parallel
            /// inference workers do).
            pub fn from_raw(raw: u32) -> Self {
                $name(raw)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }

        impl Sort for $name {
            type Node = $node;

            fn link(self) -> $node {
                $node::Link(self)
            }

            fn follow(node: &$node) -> Option<Self> {
                match node {
                    $node::Link(next) => Some(*next),
                    _ => None,
                }
            }

            fn is_var(node: &$node) -> bool {
                matches!(node, $node::Var)
            }

            fn raw(self) -> u32 {
                self.0
            }

            fn of_raw(raw: u32) -> Self {
                $name(raw)
            }

            fn shelf(table: &TypeTable) -> &Shelf<$node> {
                &table.$shelf
            }

            fn shelf_mut(table: &mut TypeTable) -> &mut Shelf<$node> {
                &mut table.$shelf
            }
        }
    };
}

define_id!(
    /// An extended OCaml type `mt`.
    MtId, MtNode, mts
);
define_id!(
    /// An extended C type `ct`.
    CtId, CtNode, cts
);
define_id!(
    /// An unboxed-value bound `Ψ`.
    PsiId, PsiNode, psis
);
define_id!(
    /// A sum row `Σ`.
    SigmaId, SigmaNode, sigmas
);
define_id!(
    /// A product row `Π`.
    PiId, PiNode, pis
);
define_id!(
    /// A garbage-collection effect `GC`.
    GcId, GcNode, gcs
);

/// Nodes of sort `mt`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MtNode {
    /// An unbound type variable `α`.
    Var,
    /// Union-find forwarding link.
    Link(MtId),
    /// OCaml function type `mt₁ → … → mtₙ → mt` (uncurried spine).
    Fun(Vec<MtId>, MtId),
    /// C data embedded in OCaml: `ct custom`.
    Custom(CtId),
    /// A representational type `(Ψ, Σ)`.
    Rep(PsiId, SigmaId),
    /// A nominal abstract type (e.g. `string`, `float`, a user opaque
    /// type). `heap` records whether its values live in the OCaml heap,
    /// which matters for the GC-root analysis.
    Abstract {
        /// Nominal name; abstract types unify only with themselves.
        name: String,
        /// Whether values of this type are heap-allocated blocks.
        heap: bool,
    },
}

/// Nodes of sort `ct`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtNode {
    /// An unknown C type (used for unanalyzable casts).
    Var,
    /// Union-find forwarding link.
    Link(CtId),
    /// `void`.
    Void,
    /// Any C integer type (`int`, `long`, `char`, …).
    Int,
    /// Any C floating-point type.
    Float,
    /// `mt value`: OCaml data seen from C.
    Value(MtId),
    /// `ct *`.
    Ptr(CtId),
    /// A nominal C type (struct/union/typedef we treat opaquely).
    Named(String),
    /// `ct₁ × … × ctₙ →GC ct`.
    Fun(Vec<CtId>, CtId, GcId),
}

/// Nodes of sort `Ψ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PsiNode {
    /// An unbound variable `ψ`.
    Var,
    /// Union-find forwarding link.
    Link(PsiId),
    /// Exactly `n` nullary constructors.
    Count(u32),
    /// `⊤`: any integer (the type is `int`-like).
    Top,
}

/// Nodes of sort `Σ` (sum rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigmaNode {
    /// An unbound row variable `σ`.
    Var,
    /// Union-find forwarding link.
    Link(SigmaId),
    /// The empty row `∅`.
    Nil,
    /// `Π + Σ`.
    Cons(PiId, SigmaId),
}

/// Nodes of sort `Π` (product rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PiNode {
    /// An unbound row variable `π`.
    Var,
    /// Union-find forwarding link.
    Link(PiId),
    /// The empty row `∅`.
    Nil,
    /// `mt × Π`.
    Cons(MtId, PiId),
    /// Extension beyond the paper: a block whose every field has the same
    /// type and whose length is statically unknown (`'a array`).
    Array(MtId),
}

/// Nodes of sort `GC`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcNode {
    /// An effect variable `γ`.
    Var,
    /// Union-find forwarding link.
    Link(GcId),
    /// May invoke the OCaml garbage collector.
    Gc,
    /// Definitely does not invoke the collector.
    NoGc,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_sort() {
        assert_eq!(MtId(3).to_string(), "MtId3");
        assert_eq!(GcId(0).to_string(), "GcId0");
    }

    #[test]
    fn id_raw_roundtrip() {
        assert_eq!(PsiId(42).as_raw(), 42);
        assert_eq!(SigmaId(7).as_raw(), 7);
        assert_eq!(PiId(9).as_raw(), 9);
        assert_eq!(CtId(1).as_raw(), 1);
    }

    #[test]
    fn nodes_compare_structurally() {
        assert_eq!(PsiNode::Count(2), PsiNode::Count(2));
        assert_ne!(PsiNode::Count(2), PsiNode::Top);
        assert_eq!(
            MtNode::Abstract { name: "string".into(), heap: true },
            MtNode::Abstract { name: "string".into(), heap: true }
        );
    }
}
