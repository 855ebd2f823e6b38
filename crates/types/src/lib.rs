//! The multi-lingual type language of Furr & Foster's *Checking Type
//! Safety of Foreign Function Calls* (PLDI 2005), with unification and
//! constraint solving.
//!
//! The grammar (the paper's Figure 3) embeds OCaml types in C types and
//! vice-versa:
//!
//! ```text
//! ct ::= void | int | mt value | ct * | ct × … × ct →GC ct
//! GC ::= γ | gc | nogc
//! mt ::= α | mt → mt | ct custom | (Ψ, Σ)
//! Ψ  ::= ψ | n | ⊤        (bound on unboxed values)
//! Σ  ::= σ | ∅ | Π + Σ    (boxed constructors, one product per tag)
//! Π  ::= π | ∅ | mt × Π   (fields of a structured block)
//! ```
//!
//! The central entry point is [`TypeTable`], an arena with one union-find
//! for all six sorts. Each sort's id type (`MtId`, `CtId`, `PsiId`,
//! `SigmaId`, `PiId`, `GcId`) implements [`Sort`], which names its node
//! type and its `Var` and `Link` nodes, so [`TypeTable::resolve`],
//! [`TypeTable::find`], [`TypeTable::node`] and the unifier's variable
//! binding are written once. The table provides:
//!
//! * constructors (`mt_rep`, `ct_value`, `sigma_cons`, …) used by the
//!   OCaml-side translation `ρ`/`Φ` and the C-side mapping `η`;
//! * [`TypeTable::unify_mt`] / [`TypeTable::unify_ct`] — destructive
//!   unification with row growth and equirecursive cycle handling;
//! * [`TypeTable::sigma_at`] / [`TypeTable::pi_at`] — row access that grows
//!   open rows, implementing the side conditions of (Val Deref Exp),
//!   (Add Val Exp), (If sum tag) and friends;
//! * rendering of resolved types in paper notation for diagnostics.
//!
//! Deferred constraints (`T + 1 ≤ Ψ`, GC effect edges) accumulate in a
//! [`ConstraintSet`] and are discharged after unification, exactly as
//! §3.3.3 prescribes.
//!
//! The flow-sensitive part of the system — the `[B{I}]{T}` shapes of
//! §3.3 — lives in [`lattice`].
//!
//! # Examples
//!
//! Inferring that an observed tag test is compatible with
//! `type t = A of int | B | C of int * int | D`:
//!
//! ```
//! use ffisafe_types::{TypeTable, PsiNode};
//!
//! let mut tt = TypeTable::new();
//! // The C code tested `if (Tag_val(x) == 1)`: x's type grows a row.
//! let sigma = tt.fresh_sigma();
//! let psi = tt.fresh_psi();
//! let observed = tt.mt_rep(psi, sigma);
//! let _pi1 = tt.sigma_at(sigma, 1).unwrap();
//!
//! // The declared type t: (2, (⊤,∅) + (⊤,∅) × (⊤,∅)).
//! let mk_int = |tt: &mut TypeTable| { let p = tt.psi_top(); let s = tt.sigma_nil(); tt.mt_rep(p, s) };
//! let (a, c1, c2) = (mk_int(&mut tt), mk_int(&mut tt), mk_int(&mut tt));
//! let pa = tt.pi_closed(&[a]);
//! let pc = tt.pi_closed(&[c1, c2]);
//! let sig_t = tt.sigma_closed(&[pa, pc]);
//! let psi_t = tt.psi_count(2);
//! let t = tt.mt_rep(psi_t, sig_t);
//!
//! tt.unify_mt(observed, t).unwrap();
//! assert!(matches!(tt.node(psi), PsiNode::Count(2)));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod constraints;
pub mod display;
pub mod lattice;
mod shelf;
pub mod term;
pub mod unify;

pub use arena::{FrozenTypeTable, Sort, TypeTable};
pub use constraints::{ConstraintSet, GcSolution, PsiBound, PsiViolation};
pub use lattice::{Boxedness, FlatInt, Shape};
pub use term::{
    CtId, CtNode, GcId, GcNode, MtId, MtNode, PiId, PiNode, PsiId, PsiNode, SigmaId, SigmaNode,
};
pub use unify::{RowError, UnifyError};
