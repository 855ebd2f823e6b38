//! Function registry: the initial environment `Γ_I` plus every C function
//! the analysis discovers.
//!
//! Three kinds of functions live here:
//!
//! * glue functions declared `external` in OCaml — their `Φ`-translated
//!   signatures are unified with their C definitions (checking arity and
//!   the trailing-`unit` practice of §5.2);
//! * OCaml runtime entry points (`caml_alloc`, `caml_callback`, …) with
//!   known types and GC effects;
//! * ordinary C functions (helpers, system libraries) — helpers get
//!   `η`-translated declared types, unknown library functions get
//!   unconstrained signatures and, absent effect edges, are `nogc`.
//!
//! The registry is keyed by interned [`Symbol`]s from the session's
//! [`Interner`], so the hot `resolve_call` path in the inference engine
//! hashes a `u32` instead of a string.

use crate::eta::eta;
use ffisafe_cil::CTypeExpr;
use ffisafe_support::{Interner, Span, Symbol};
use ffisafe_types::{CtId, GcId, TypeTable};
use std::collections::HashMap;
use std::sync::Arc;

/// How the registry learned about a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuncOrigin {
    /// Defined in analyzed C code.
    Defined,
    /// Declared (prototype) in analyzed C code.
    Declared,
    /// A known OCaml runtime function.
    Runtime,
    /// Synthesized at a call site to an unknown function.
    Unknown,
}

/// Everything the engine needs to type a call to one function.
#[derive(Clone, Debug)]
pub struct FuncInfo {
    /// Function name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<CtId>,
    /// Return type.
    pub ret: CtId,
    /// GC effect.
    pub effect: GcId,
    /// Provenance.
    pub origin: FuncOrigin,
    /// Index into the phase-1 signatures when this is an FFI entry point.
    pub external_index: Option<usize>,
    /// Whether the function never returns (`caml_failwith` and friends):
    /// values live "after" such a call are unwound, so no GC-registration
    /// obligation arises.
    pub noreturn: bool,
    /// Where the function was declared/first seen.
    pub span: Span,
}

/// The immutable classification of one OCaml runtime entry point: which
/// slot shapes to instantiate, its effect constant and whether it returns.
///
/// Runtime functions are *polymorphic* — every call site must get fresh
/// inference variables — so the [`FuncInfo`] itself cannot be cached. What
/// never changes per name is this shape, which used to be re-derived from
/// scratch (a long string-match chain) at every call site. The registry
/// memoizes it per interned [`Symbol`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeShape {
    params: Vec<SlotShape>,
    ret: SlotShape,
    /// `true` for the `gc` effect constant, `false` for `nogc`.
    may_gc: bool,
    noreturn: bool,
}

/// Type shapes a runtime signature slot can take; instantiated with fresh
/// table nodes per call site by [`RuntimeShape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotShape {
    /// Any C integer.
    Int,
    /// Any C float.
    Float,
    /// `char *`.
    CharPtr,
    /// A fresh `value`.
    Value,
    /// Pointer to a fresh `value`.
    PtrValue,
    /// A fully unconstrained fresh `ct` (e.g. `custom_operations *`).
    Fresh,
    /// `void`.
    Void,
    /// `value` of a boxed abstract type (`string`, `float`, `int64`, …).
    Abstract(&'static str),
}

/// The function environment shared by all per-function analyses.
///
/// Post-link the environment is frozen behind an `Arc` and every worker
/// gets an O(1) [`Registry::overlay`] view: lookups fall through to the
/// shared base, memoizations and unknown-function synthesis land in the
/// worker's local maps. An overlay behaves exactly like a deep clone of
/// its base.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Shared post-link environment this registry layers over, if any.
    base: Option<Arc<Registry>>,
    funcs: HashMap<Symbol, FuncInfo>,
    /// Memoized per-name runtime classification (`None` = not a runtime
    /// function). Keyed by interned symbol; the expensive fresh
    /// *instantiation* still happens per call site, preserving runtime
    /// polymorphism.
    runtime_shapes: HashMap<Symbol, Option<RuntimeShape>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates a copy-on-write view over a shared base registry. O(1).
    pub fn overlay(base: Arc<Registry>) -> Self {
        debug_assert!(base.base.is_none(), "overlay bases must be flat registries");
        Registry { base: Some(base), funcs: HashMap::new(), runtime_shapes: HashMap::new() }
    }

    /// Looks up a function by name. Non-mutating: a name never interned
    /// was never registered.
    pub fn get(&self, interner: &Interner, name: &str) -> Option<&FuncInfo> {
        self.get_sym(interner.get(name)?)
    }

    /// Looks up a function by its interned symbol.
    pub fn get_sym(&self, sym: Symbol) -> Option<&FuncInfo> {
        self.funcs.get(&sym).or_else(|| self.base.as_deref().and_then(|b| b.funcs.get(&sym)))
    }

    fn contains_sym(&self, sym: Symbol) -> bool {
        self.funcs.contains_key(&sym)
            || self.base.as_deref().is_some_and(|b| b.funcs.contains_key(&sym))
    }

    /// Registers a function definition/prototype with `η`-translated
    /// declared types. Re-registration keeps the first entry (definitions
    /// are registered before prototypes by the driver).
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        table: &mut TypeTable,
        interner: &mut Interner,
        name: &str,
        ret: &CTypeExpr,
        params: &[CTypeExpr],
        origin: FuncOrigin,
        span: Span,
    ) -> &FuncInfo {
        let sym = interner.intern(name);
        if !self.contains_sym(sym) {
            let params: Vec<CtId> = params.iter().map(|p| eta(table, p)).collect();
            let ret = eta(table, ret);
            let effect = table.fresh_gc();
            self.funcs.insert(
                sym,
                FuncInfo {
                    name: name.to_string(),
                    params,
                    ret,
                    effect,
                    origin,
                    external_index: None,
                    noreturn: false,
                    span,
                },
            );
        }
        self.get_sym(sym).expect("just ensured present")
    }

    /// Ties a registered function to its phase-1 `external` signature.
    pub fn set_external_index(&mut self, interner: &Interner, name: &str, idx: usize) {
        let Some(sym) = interner.get(name) else { return };
        // copy-on-write: pull a base entry into the local layer to annotate
        if !self.funcs.contains_key(&sym) {
            if let Some(info) = self.base.as_deref().and_then(|b| b.funcs.get(&sym)) {
                self.funcs.insert(sym, info.clone());
            }
        }
        if let Some(f) = self.funcs.get_mut(&sym) {
            f.external_index = Some(idx);
        }
    }

    /// Resolves a call target, synthesizing runtime or unknown signatures
    /// on demand. `arity` is the number of arguments at the call site.
    ///
    /// Runtime functions (`caml_alloc`, `caml_callback`, …) are
    /// *polymorphic*: each call site gets a fresh instantiation. Defined
    /// and unknown C functions are monomorphic (§5.1) and memoized.
    pub fn resolve_call(
        &mut self,
        table: &mut TypeTable,
        interner: &mut Interner,
        name: &str,
        arity: usize,
        span: Span,
    ) -> FuncInfo {
        let _ = arity; // runtime classification is name-driven
        let sym = interner.intern(name);
        if let Some(info) = self.get_sym(sym) {
            return info.clone();
        }
        // The shape (the immutable part) is memoized; the instantiation
        // stays fresh per call site, keeping runtime functions polymorphic.
        // A memo already present in the shared base is reused as-is; fresh
        // classifications land in the local layer.
        let base_shape = self.base.as_deref().and_then(|b| b.runtime_shapes.get(&sym)).cloned();
        let shape = match base_shape {
            Some(memoized) => memoized,
            None => self.runtime_shapes.entry(sym).or_insert_with(|| runtime_shape(name)).clone(),
        };
        if let Some(shape) = shape {
            return shape.instantiate(table, name, span);
        }
        // unknown library function: unconstrained, nogc unless edges prove
        // otherwise; monomorphic, so memoized
        let params: Vec<CtId> = (0..arity).map(|_| table.fresh_ct()).collect();
        let ret = table.fresh_ct();
        let effect = table.fresh_gc();
        let info = FuncInfo {
            name: name.to_string(),
            params,
            ret,
            effect,
            origin: FuncOrigin::Unknown,
            external_index: None,
            noreturn: false,
            span,
        };
        self.funcs.insert(sym, info.clone());
        info
    }

    /// All registered functions: base entries not shadowed locally, then
    /// local entries (iteration order within each layer is unspecified).
    pub fn iter(&self) -> impl Iterator<Item = &FuncInfo> {
        self.base
            .as_deref()
            .map(|b| &b.funcs)
            .into_iter()
            .flatten()
            .filter(|(sym, _)| !self.funcs.contains_key(sym))
            .map(|(_, f)| f)
            .chain(self.funcs.values())
    }

    /// All registered functions with their symbols, sorted by symbol —
    /// a deterministic iteration for fingerprinting.
    pub fn iter_stable(&self) -> Vec<(Symbol, &FuncInfo)> {
        let mut out: Vec<(Symbol, &FuncInfo)> = self
            .base
            .as_deref()
            .map(|b| &b.funcs)
            .into_iter()
            .flatten()
            .filter(|(sym, _)| !self.funcs.contains_key(sym))
            .chain(self.funcs.iter())
            .map(|(sym, f)| (*sym, f))
            .collect();
        out.sort_by_key(|(sym, _)| *sym);
        out
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        let shadowed = match self.base.as_deref() {
            Some(b) => b.funcs.keys().filter(|s| self.funcs.contains_key(s)).count(),
            None => 0,
        };
        self.base.as_deref().map_or(0, |b| b.funcs.len()) + self.funcs.len() - shadowed
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RuntimeShape {
    /// Instantiates the shape with fresh table nodes for one call site.
    fn instantiate(&self, table: &mut TypeTable, name: &str, span: Span) -> FuncInfo {
        let slot = |table: &mut TypeTable, s: SlotShape| -> CtId {
            match s {
                SlotShape::Int => table.ct_int(),
                SlotShape::Float => table.ct_float(),
                SlotShape::CharPtr => {
                    let i = table.ct_int();
                    table.ct_ptr(i)
                }
                SlotShape::Value => table.ct_fresh_value(),
                SlotShape::PtrValue => {
                    let v = table.ct_fresh_value();
                    table.ct_ptr(v)
                }
                SlotShape::Fresh => table.fresh_ct(),
                SlotShape::Void => table.ct_void(),
                SlotShape::Abstract(n) => {
                    let m = table.mt_abstract(n, true);
                    table.ct_value(m)
                }
            }
        };
        let params: Vec<CtId> = self.params.iter().map(|&s| slot(table, s)).collect();
        let ret = slot(table, self.ret);
        let effect: GcId = if self.may_gc { table.gc_gc() } else { table.gc_nogc() };
        FuncInfo {
            name: name.to_string(),
            params,
            ret,
            effect,
            origin: FuncOrigin::Runtime,
            external_index: None,
            noreturn: self.noreturn,
            span,
        }
    }
}

/// Every OCaml runtime entry point [`runtime_shape`] classifies.
///
/// The [`crate::api::AnalysisService`] pre-interns these into the interner
/// seed it clones into each request's session, so the names glue code
/// calls hottest resolve to already-interned symbols on every run.
pub fn runtime_names() -> &'static [&'static str] {
    &[
        "caml_alloc",
        "caml_alloc_small",
        "caml_alloc_shr",
        "caml_alloc_tuple",
        "caml_alloc_string",
        "caml_copy_string",
        "caml_copy_double",
        "caml_copy_int32",
        "caml_copy_int64",
        "caml_copy_nativeint",
        "caml_callback",
        "caml_callback_exn",
        "caml_callback2",
        "caml_callback2_exn",
        "caml_callback3",
        "caml_callback3_exn",
        "caml_failwith",
        "caml_invalid_argument",
        "caml_raise_out_of_memory",
        "caml_raise_stack_overflow",
        "caml_raise_not_found",
        "caml_raise",
        "caml_raise_constant",
        "caml_raise_with_arg",
        "caml_named_value",
        "caml_register_global_root",
        "caml_remove_global_root",
        "caml_modify",
        "caml_alloc_custom",
        "caml_enter_blocking_section",
        "caml_leave_blocking_section",
        "caml_gc_full_major",
        "caml_gc_minor",
        "caml_gc_compaction",
    ]
}

/// Classifies a known OCaml runtime function by name, or `None`.
///
/// Effects follow §2/§5: allocation and callbacks may trigger the
/// collector; root registration and field writes do not. This is the pure,
/// table-free part of the old `runtime_signature`; the registry memoizes
/// its result so the string-match chain runs once per distinct name
/// instead of once per call site.
fn runtime_shape(name: &str) -> Option<RuntimeShape> {
    use SlotShape::*;
    let shape = |params: Vec<SlotShape>, ret: SlotShape, may_gc: bool| RuntimeShape {
        params,
        ret,
        may_gc,
        noreturn: false,
    };
    let mut out = match name {
        "caml_alloc" | "caml_alloc_small" | "caml_alloc_shr" => shape(vec![Int, Int], Value, true),
        "caml_alloc_tuple" | "caml_alloc_string" => shape(vec![Int], Value, true),
        "caml_copy_string" => shape(vec![CharPtr], Abstract("string"), true),
        "caml_copy_double" => shape(vec![Float], Abstract("float"), true),
        "caml_copy_int32" => shape(vec![Int], Abstract("int32"), true),
        "caml_copy_int64" => shape(vec![Int], Abstract("int64"), true),
        "caml_copy_nativeint" => shape(vec![Int], Abstract("nativeint"), true),
        "caml_callback" | "caml_callback_exn" => shape(vec![Value, Value], Value, true),
        "caml_callback2" | "caml_callback2_exn" => shape(vec![Value, Value, Value], Value, true),
        "caml_callback3" | "caml_callback3_exn" => {
            shape(vec![Value, Value, Value, Value], Value, true)
        }
        "caml_failwith" | "caml_invalid_argument" => shape(vec![CharPtr], Void, true),
        "caml_raise_out_of_memory" | "caml_raise_stack_overflow" | "caml_raise_not_found" => {
            shape(vec![], Void, true)
        }
        "caml_raise" | "caml_raise_constant" => shape(vec![Value], Void, true),
        "caml_raise_with_arg" => shape(vec![Value, Value], Void, true),
        "caml_named_value" => shape(vec![CharPtr], PtrValue, false),
        "caml_register_global_root" | "caml_remove_global_root" => {
            shape(vec![PtrValue], Void, false)
        }
        "caml_modify" => shape(vec![PtrValue, Value], Void, false),
        "caml_alloc_custom" => shape(vec![Fresh, Int, Int, Int], Value, true),
        // other threads may collect while the lock is released
        "caml_enter_blocking_section" | "caml_leave_blocking_section" => shape(vec![], Void, true),
        "caml_gc_full_major" | "caml_gc_minor" | "caml_gc_compaction" => shape(vec![], Void, true),
        _ => return None,
    };
    out.noreturn = matches!(
        name,
        "caml_failwith"
            | "caml_invalid_argument"
            | "caml_raise"
            | "caml_raise_constant"
            | "caml_raise_with_arg"
            | "caml_raise_out_of_memory"
            | "caml_raise_stack_overflow"
            | "caml_raise_not_found"
    );
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffisafe_types::GcNode;

    #[test]
    fn runtime_alloc_is_gc() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut reg = Registry::new();
        let f = reg.resolve_call(&mut tt, &mut intern, "caml_alloc", 2, Span::dummy()).clone();
        assert_eq!(f.origin, FuncOrigin::Runtime);
        assert_eq!(*tt.node(f.effect), GcNode::Gc);
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn unknown_library_function_is_nogc_variable() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut reg = Registry::new();
        let f = reg.resolve_call(&mut tt, &mut intern, "gzopen", 2, Span::dummy()).clone();
        assert_eq!(f.origin, FuncOrigin::Unknown);
        assert_eq!(*tt.node(f.effect), GcNode::Var);
        // memoized
        let again = reg.resolve_call(&mut tt, &mut intern, "gzopen", 2, Span::dummy()).clone();
        assert_eq!(f.ret, again.ret);
    }

    #[test]
    fn defined_functions_keep_first_registration() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut reg = Registry::new();
        let r1 = reg
            .register(
                &mut tt,
                &mut intern,
                "helper",
                &CTypeExpr::Int,
                &[CTypeExpr::Value],
                FuncOrigin::Defined,
                Span::dummy(),
            )
            .clone();
        let r2 = reg
            .register(
                &mut tt,
                &mut intern,
                "helper",
                &CTypeExpr::Void,
                &[],
                FuncOrigin::Declared,
                Span::dummy(),
            )
            .clone();
        assert_eq!(r1.ret, r2.ret);
        assert_eq!(r2.origin, FuncOrigin::Defined);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn copy_string_returns_string_value() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut reg = Registry::new();
        let f =
            reg.resolve_call(&mut tt, &mut intern, "caml_copy_string", 1, Span::dummy()).clone();
        assert_eq!(tt.render_ct(f.ret), "string value");
    }

    #[test]
    fn runtime_shape_memoized_but_instantiation_fresh() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut reg = Registry::new();
        let a = reg.resolve_call(&mut tt, &mut intern, "caml_alloc", 2, Span::dummy());
        let b = reg.resolve_call(&mut tt, &mut intern, "caml_alloc", 2, Span::dummy());
        // one classification, memoized by symbol…
        assert_eq!(reg.runtime_shapes.len(), 1);
        let sym = intern.get("caml_alloc").unwrap();
        assert!(reg.runtime_shapes.get(&sym).unwrap().is_some());
        // …but polymorphic per call site: distinct fresh nodes every time
        assert_ne!(a.ret, b.ret, "each call site must get a fresh instantiation");
        assert_ne!(a.params[0], b.params[0]);
        assert_eq!(*tt.node(a.effect), GcNode::Gc);
        assert_eq!(*tt.node(b.effect), GcNode::Gc);
        // non-runtime names are memoized as `None` and stay Unknown
        let g = reg.resolve_call(&mut tt, &mut intern, "gzopen", 1, Span::dummy());
        assert_eq!(g.origin, FuncOrigin::Unknown);
        let gz = intern.get("gzopen").unwrap();
        assert!(reg.runtime_shapes.get(&gz).unwrap().is_none());
    }

    #[test]
    fn runtime_shapes_match_legacy_signatures() {
        // regression for the shape refactor: spot-check every slot kind
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut reg = Registry::new();
        let case = |reg: &mut Registry, tt: &mut TypeTable, intern: &mut Interner, name: &str| {
            reg.resolve_call(tt, intern, name, 0, Span::dummy())
        };
        let f = case(&mut reg, &mut tt, &mut intern, "caml_copy_double");
        assert_eq!(tt.render_ct(f.params[0]), "double");
        assert_eq!(tt.render_ct(f.ret), "float value");
        assert_eq!(*tt.node(f.effect), GcNode::Gc);
        assert!(!f.noreturn);

        let f = case(&mut reg, &mut tt, &mut intern, "caml_failwith");
        assert_eq!(tt.render_ct(f.params[0]), "int *");
        assert_eq!(tt.render_ct(f.ret), "void");
        assert!(f.noreturn);

        let f = case(&mut reg, &mut tt, &mut intern, "caml_named_value");
        assert_eq!(*tt.node(f.effect), GcNode::NoGc);
        assert!(!f.noreturn);

        let f = case(&mut reg, &mut tt, &mut intern, "caml_modify");
        assert_eq!(*tt.node(f.effect), GcNode::NoGc);
        assert_eq!(f.params.len(), 2);

        let f = case(&mut reg, &mut tt, &mut intern, "caml_enter_blocking_section");
        assert_eq!(*tt.node(f.effect), GcNode::Gc);
        assert!(f.params.is_empty());

        let f = case(&mut reg, &mut tt, &mut intern, "caml_raise_not_found");
        assert!(f.noreturn);
        assert_eq!(f.origin, FuncOrigin::Runtime);
    }

    #[test]
    fn lookup_by_name_and_symbol_agree() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut reg = Registry::new();
        reg.register(
            &mut tt,
            &mut intern,
            "helper",
            &CTypeExpr::Int,
            &[],
            FuncOrigin::Defined,
            Span::dummy(),
        );
        let sym = intern.get("helper").unwrap();
        assert_eq!(reg.get(&intern, "helper").unwrap().name, "helper");
        assert_eq!(reg.get_sym(sym).unwrap().name, "helper");
        assert!(reg.get(&intern, "missing").is_none());
    }

    #[test]
    fn overlay_reads_base_and_writes_locally() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut base = Registry::new();
        base.register(
            &mut tt,
            &mut intern,
            "helper",
            &CTypeExpr::Int,
            &[CTypeExpr::Value],
            FuncOrigin::Defined,
            Span::dummy(),
        );
        base.resolve_call(&mut tt, &mut intern, "caml_alloc", 2, Span::dummy());
        let base = Arc::new(base);

        let mut view = Registry::overlay(base.clone());
        assert_eq!(view.len(), base.len());
        // base entries resolve through the overlay without copying
        let helper = view.resolve_call(&mut tt, &mut intern, "helper", 1, Span::dummy());
        assert_eq!(helper.origin, FuncOrigin::Defined);
        assert!(view.funcs.is_empty(), "base hit must not populate the local layer");
        // the base runtime-shape memo is reused, not re-derived
        let alloc = view.resolve_call(&mut tt, &mut intern, "caml_alloc", 2, Span::dummy());
        assert_eq!(alloc.origin, FuncOrigin::Runtime);
        assert!(view.runtime_shapes.is_empty());
        // unknown synthesis lands locally; the shared base is untouched
        let gz = view.resolve_call(&mut tt, &mut intern, "gzopen", 1, Span::dummy());
        assert_eq!(gz.origin, FuncOrigin::Unknown);
        assert_eq!(view.len(), base.len() + 1);
        assert!(base.get(&intern, "gzopen").is_none());
        assert_eq!(view.iter().count(), view.len());
        // a sibling view never sees another view's synthesis
        let sibling = Registry::overlay(base);
        assert!(sibling.get(&intern, "gzopen").is_none());
    }

    #[test]
    fn iter_stable_is_sorted_and_complete() {
        let mut tt = TypeTable::new();
        let mut intern = Interner::new();
        let mut base = Registry::new();
        for name in ["zeta", "alpha", "mid"] {
            base.register(
                &mut tt,
                &mut intern,
                name,
                &CTypeExpr::Int,
                &[],
                FuncOrigin::Defined,
                Span::dummy(),
            );
        }
        let base = Arc::new(base);
        let mut view = Registry::overlay(base);
        view.resolve_call(&mut tt, &mut intern, "extra", 0, Span::dummy());
        let stable = view.iter_stable();
        assert_eq!(stable.len(), 4);
        let syms: Vec<u32> = stable.iter().map(|(s, _)| s.as_raw()).collect();
        let mut sorted = syms.clone();
        sorted.sort_unstable();
        assert_eq!(syms, sorted, "iter_stable must be symbol-ordered");
    }

    #[test]
    fn runtime_names_list_matches_classifier() {
        // Every advertised name classifies; the list has no duplicates.
        let names = runtime_names();
        for name in names {
            assert!(runtime_shape(name).is_some(), "{name} must classify as a runtime function");
        }
        let mut sorted: Vec<_> = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate entries in runtime_names()");
    }
}
