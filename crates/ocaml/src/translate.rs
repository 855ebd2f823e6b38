//! The `ρ` / `Φ` translation of Figure 4: OCaml source types become
//! multi-lingual representational types.
//!
//! ```text
//! ρ(unit)        = (1, ∅)
//! ρ(int)         = (⊤, ∅)
//! ρ(t ref)       = (0, ρ(t))
//! ρ(t₁ → t₂)     = ρ(t₁) → ρ(t₂)
//! ρ(L₁ | L₂ of t) = (1, ρ(t))              (one product per non-nullary ctor)
//! ρ(t₁ × t₂)     = (0, ρ(t₁) × ρ(t₂))
//!
//! Φ(external t₁ → … → tₙ) = ρ(t₁) value × … × ρ(tₙ₋₁) value →g ρ(tₙ) value
//! ```
//!
//! Extensions beyond the figure (documented in DESIGN.md): builtin
//! containers (`list`, `option`, `array`, `result`), heap-allocated
//! abstract types (`string`, `float`, `int32`, …), recursive user types
//! (knot-tied in the arena), unknown types (opaque), and polymorphic
//! variants (flagged; the analysis does not model them, §5.1).

use crate::ast::{ExternalDecl, TypeDeclKind, TypeExpr};
use crate::repository::TypeRepository;
use ffisafe_support::Span;
use ffisafe_types::{CtId, GcId, MtId, TypeTable};
use std::collections::HashMap;

/// A problem encountered during translation; none are fatal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateIssue {
    /// A polymorphic variant type was encountered; it is not modeled and
    /// downstream reports touching it may be spurious (§5.1/§5.2).
    PolyVariant {
        /// Where the type occurred.
        span: Span,
        /// The external involved.
        external: String,
    },
    /// A named type had no declaration; it is treated as opaque.
    UnknownType {
        /// Dotted name.
        name: String,
        /// Where it was referenced.
        span: Span,
    },
}

/// The multi-lingual signature of one `external`, ready for phase 2.
#[derive(Clone, Debug)]
pub struct ExternalSignature {
    /// OCaml-side name.
    pub ml_name: String,
    /// C function name (native variant).
    pub c_name: String,
    /// Bytecode-variant C name, when declared.
    pub byte_c_name: Option<String>,
    /// Translated parameter types (the `mt` under each `value`).
    pub params: Vec<MtId>,
    /// Translated return type.
    pub ret: MtId,
    /// The full C-side function type `value × … × value →γ value`.
    pub fun_ct: CtId,
    /// The function's (initially unconstrained) GC effect variable.
    pub effect: GcId,
    /// Which parameters are literally `unit` in the OCaml signature
    /// (used for the trailing-`unit` practice warning, §5.2).
    pub unit_params: Vec<bool>,
    /// Fresh `α` variables instantiated for the external's `'a` parameters,
    /// for the polymorphic-abuse check (the paper's `gz` seek warning).
    pub poly_params: Vec<(String, MtId)>,
    /// Whether the declared type mentions polymorphic variants.
    pub uses_poly_variant: bool,
    /// Source span of the `external` declaration.
    pub span: Span,
}

/// Output of phase 1 for a whole program.
#[derive(Clone, Debug, Default)]
pub struct Phase1 {
    /// One signature per `external`, keyed by C function name on lookup.
    pub signatures: Vec<ExternalSignature>,
    /// Non-fatal translation issues.
    pub issues: Vec<TranslateIssue>,
}

impl Phase1 {
    /// Finds the signature bound to C function `c_name` (native or
    /// bytecode variant).
    pub fn signature_for_c(&self, c_name: &str) -> Option<&ExternalSignature> {
        self.signatures
            .iter()
            .find(|s| s.c_name == c_name || s.byte_c_name.as_deref() == Some(c_name))
    }
}

/// Translates OCaml types into the shared [`TypeTable`].
pub struct Translator<'a> {
    repo: &'a TypeRepository,
    table: &'a mut TypeTable,
    /// Memo/in-progress map for named type applications, keyed by
    /// `name(arg-ids…)`; enables recursive types via knot-tying.
    named: HashMap<String, MtId>,
    issues: Vec<TranslateIssue>,
}

impl<'a> Translator<'a> {
    /// Creates a translator over `repo` allocating into `table`.
    pub fn new(repo: &'a TypeRepository, table: &'a mut TypeTable) -> Self {
        Translator { repo, table, named: HashMap::new(), issues: Vec::new() }
    }

    /// Consumes the translator, returning accumulated issues.
    pub fn into_issues(self) -> Vec<TranslateIssue> {
        self.issues
    }

    /// The `Φ` of Figure 4: translates one `external` declaration into a
    /// C-side function signature.
    pub fn translate_external(&mut self, ext: &ExternalDecl) -> ExternalSignature {
        let (param_tys, ret_ty) = ext.ty.arrow_spine();
        // Fresh monomorphic α per type variable of this external (§5.1:
        // C analysis is monomorphic).
        let mut poly = HashMap::new();
        let mut poly_params = Vec::new();
        for v in ext.ty.type_vars() {
            let mt = self.table.fresh_mt();
            poly.insert(v.clone(), mt);
            poly_params.push((v, mt));
        }
        let uses_poly_variant = ext.ty.mentions_poly_variant();
        if uses_poly_variant {
            self.issues.push(TranslateIssue::PolyVariant {
                span: ext.span,
                external: ext.ml_name.clone(),
            });
        }
        let params: Vec<MtId> = param_tys.iter().map(|t| self.rho(t, &poly, ext.span)).collect();
        let unit_params: Vec<bool> = param_tys.iter().map(|t| t.is_unit()).collect();
        let ret = self.rho(ret_ty, &poly, ext.span);
        let param_cts: Vec<CtId> = params.iter().map(|&mt| self.table.ct_value(mt)).collect();
        let ret_ct = self.table.ct_value(ret);
        let effect = self.table.fresh_gc();
        let fun_ct = self.table.ct_fun(param_cts, ret_ct, effect);
        let mut names = ext.c_names.clone();
        let c_name = names.pop().unwrap_or_default();
        let byte_c_name = names.pop();
        ExternalSignature {
            ml_name: ext.ml_name.clone(),
            c_name,
            byte_c_name,
            params,
            ret,
            fun_ct,
            effect,
            unit_params,
            poly_params,
            uses_poly_variant,
            span: ext.span,
        }
    }

    /// The `ρ` of Figure 4, extended to the whole declaration language.
    pub fn rho(&mut self, ty: &TypeExpr, env: &HashMap<String, MtId>, span: Span) -> MtId {
        match ty {
            TypeExpr::Var(v) => match env.get(v) {
                Some(&mt) => mt,
                None => self.table.fresh_mt(),
            },
            TypeExpr::Arrow(..) => {
                let (ps, r) = ty.arrow_spine();
                let params: Vec<MtId> = ps.iter().map(|t| self.rho(t, env, span)).collect();
                let ret = self.rho(r, env, span);
                self.table.mt_fun(params, ret)
            }
            TypeExpr::Tuple(ts) => {
                let fields: Vec<MtId> = ts.iter().map(|t| self.rho(t, env, span)).collect();
                self.product_block(&fields)
            }
            TypeExpr::Constr(path, args) => self.rho_constr(path, args, env, span),
            TypeExpr::PolyVariant => {
                // Unmodeled (§5.1): a nominal abstract type. Glue code
                // manipulates polymorphic variants as hashed integers and
                // blocks, which this type cannot unify with — reproducing
                // the paper's polymorphic-variant false positives.
                self.table.mt_abstract("<poly-variant>", false)
            }
            TypeExpr::Object => self.table.mt_abstract("<object>", true),
        }
    }

    /// `(0, Π(fields))`: a tag-0 structured block.
    fn product_block(&mut self, fields: &[MtId]) -> MtId {
        let pi = self.table.pi_closed(fields);
        let sigma = self.table.sigma_closed(&[pi]);
        let psi = self.table.psi_count(0);
        self.table.mt_rep(psi, sigma)
    }

    /// `(n, ∅)` for an immediate-only type.
    fn immediate(&mut self, n: Option<u32>) -> MtId {
        let psi = match n {
            Some(k) => self.table.psi_count(k),
            None => self.table.psi_top(),
        };
        let sigma = self.table.sigma_nil();
        self.table.mt_rep(psi, sigma)
    }

    fn rho_constr(
        &mut self,
        path: &[String],
        args: &[TypeExpr],
        env: &HashMap<String, MtId>,
        span: Span,
    ) -> MtId {
        let name = path.last().map(String::as_str).unwrap_or("?");
        // Builtins first (the pre-generated stdlib repository of §5.1).
        match (name, args.len()) {
            ("unit", 0) => return self.immediate(Some(1)),
            ("int", 0) => return self.immediate(None),
            ("bool", 0) => return self.immediate(Some(2)),
            ("char", 0) => return self.immediate(None),
            ("string", 0) | ("bytes", 0) => return self.table.mt_abstract("string", true),
            ("float", 0) => return self.table.mt_abstract("float", true),
            ("int32", 0) => return self.table.mt_abstract("int32", true),
            ("int64", 0) => return self.table.mt_abstract("int64", true),
            ("nativeint", 0) => return self.table.mt_abstract("nativeint", true),
            ("exn", 0) => return self.table.mt_abstract("exn", true),
            ("in_channel", 0) => return self.table.mt_abstract("in_channel", true),
            ("out_channel", 0) => return self.table.mt_abstract("out_channel", true),
            ("option", 1) => {
                // None | Some of 'a  =  (1, ρ('a))
                let a = self.rho(&args[0], env, span);
                let pi = self.table.pi_closed(&[a]);
                let sigma = self.table.sigma_closed(&[pi]);
                let psi = self.table.psi_count(1);
                return self.table.mt_rep(psi, sigma);
            }
            ("ref", 1) => {
                // (0, ρ(t)) — a one-field mutable block
                let a = self.rho(&args[0], env, span);
                return self.product_block(&[a]);
            }
            ("list", 1) => {
                // [] | (::) of 'a * 'a list  =  (1, ρ('a) × µ)
                let key = self.app_key("list", &args[0], env, span);
                if let Some(&hit) = self.named.get(&key) {
                    return hit;
                }
                let knot = self.table.fresh_mt();
                self.named.insert(key.clone(), knot);
                let a = self.rho(&args[0], env, span);
                let pi = self.table.pi_closed(&[a, knot]);
                let sigma = self.table.sigma_closed(&[pi]);
                let psi = self.table.psi_count(1);
                let list = self.table.mt_rep(psi, sigma);
                self.table.link_mt(knot, list);
                self.named.insert(key, list);
                return list;
            }
            ("array", 1) => {
                // tag-0 block of statically-unknown size
                let a = self.rho(&args[0], env, span);
                let pi = self.table.pi_array(a);
                let sigma = self.table.sigma_closed(&[pi]);
                let psi = self.table.psi_count(0);
                return self.table.mt_rep(psi, sigma);
            }
            ("result", 2) => {
                // Ok of 'a | Error of 'b  =  (0, ρ('a) + ρ('b))
                let a = self.rho(&args[0], env, span);
                let b = self.rho(&args[1], env, span);
                let pa = self.table.pi_closed(&[a]);
                let pb = self.table.pi_closed(&[b]);
                let sigma = self.table.sigma_closed(&[pa, pb]);
                let psi = self.table.psi_count(0);
                return self.table.mt_rep(psi, sigma);
            }
            _ => {}
        }
        // User-declared types from the repository.
        let Some(decl) = self.repo.lookup(name).cloned() else {
            self.issues.push(TranslateIssue::UnknownType { name: name.to_string(), span });
            return self.table.mt_abstract(name, true);
        };
        // Translate arguments, bind them to the declaration's parameters.
        let arg_mts: Vec<MtId> = args.iter().map(|t| self.rho(t, env, span)).collect();
        let key = {
            let ids: Vec<String> =
                arg_mts.iter().map(|m| self.table.find(*m).as_raw().to_string()).collect();
            format!("{name}({})", ids.join(","))
        };
        if let Some(&hit) = self.named.get(&key) {
            return hit;
        }
        let knot = self.table.fresh_mt();
        self.named.insert(key.clone(), knot);
        let mut inner_env: HashMap<String, MtId> = HashMap::new();
        for (p, a) in decl.params.iter().zip(arg_mts.iter()) {
            inner_env.insert(p.clone(), *a);
        }
        // Declarations refer to their own parameters only; merge outer env
        // for robustness against under-applied decls.
        for (k, v) in env {
            inner_env.entry(k.clone()).or_insert(*v);
        }
        let body = match &decl.kind {
            TypeDeclKind::Alias(t) => self.rho(t, &inner_env, span),
            TypeDeclKind::Sum(variants) => {
                let nullary = variants.iter().filter(|v| v.is_nullary()).count() as u32;
                let mut products = Vec::new();
                for v in variants.iter().filter(|v| !v.is_nullary()) {
                    let fields: Vec<MtId> =
                        v.args.iter().map(|t| self.rho(t, &inner_env, span)).collect();
                    products.push(self.table.pi_closed(&fields));
                }
                let sigma = self.table.sigma_closed(&products);
                let psi = self.table.psi_count(nullary);
                self.table.mt_rep(psi, sigma)
            }
            TypeDeclKind::Record(fields) => {
                let fs: Vec<MtId> =
                    fields.iter().map(|f| self.rho(&f.ty, &inner_env, span)).collect();
                self.product_block(&fs)
            }
            // Opaque types are memoized inference *variables*: their hidden
            // representation is discovered from the C side (typically
            // `ct custom` via a `(value)` cast), and the memoization makes
            // every use of the same opaque type share one variable — so the
            // analysis "checks that OCaml code faithfully distinguishes the
            // C types" (§2): two different C types flowing into one opaque
            // type is a unification error.
            TypeDeclKind::Opaque => self.table.fresh_mt(),
            TypeDeclKind::PolyVariant => {
                self.issues.push(TranslateIssue::PolyVariant { span, external: name.to_string() });
                self.table.mt_abstract("<poly-variant>", false)
            }
        };
        self.table.link_mt(knot, body);
        self.named.insert(key, body);
        body
    }

    fn app_key(
        &mut self,
        ctor: &str,
        arg: &TypeExpr,
        env: &HashMap<String, MtId>,
        span: Span,
    ) -> String {
        // Key list applications by their (translated) element type so that
        // `int list` inside `int list list` shares one node.
        let a = self.rho(arg, env, span);
        format!("{ctor}({})", self.table.find(a).as_raw())
    }
}

/// Runs phase 1 over a set of externals: translates every signature into
/// `table` and collects issues.
pub fn translate_program(
    repo: &TypeRepository,
    externals: &[ExternalDecl],
    table: &mut TypeTable,
) -> Phase1 {
    let mut tr = Translator::new(repo, table);
    let signatures: Vec<ExternalSignature> =
        externals.iter().map(|e| tr.translate_external(e)).collect();
    let issues = tr.into_issues();
    Phase1 { signatures, issues }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Item;
    use crate::parser::parse;
    use ffisafe_support::FileId;
    use ffisafe_types::{MtNode, PsiNode, SigmaNode};

    fn setup(src: &str) -> (TypeRepository, Vec<ExternalDecl>) {
        let pf = parse(FileId::from_raw(0), src);
        assert!(pf.errors.is_empty(), "{:?}", pf.errors);
        let mut repo = TypeRepository::new();
        repo.register_file(&pf);
        let externals = pf
            .items
            .into_iter()
            .filter_map(|i| match i {
                Item::External(e) => Some(e),
                _ => None,
            })
            .collect();
        (repo, externals)
    }

    fn rho_of(src: &str, ty: &str) -> (TypeTable, MtId) {
        let (repo, _) = setup(src);
        let pf = parse(FileId::from_raw(1), &format!("type probe = {ty}"));
        let Item::Type(decl) = &pf.items[0] else { panic!() };
        let TypeDeclKind::Alias(t) = &decl.kind else { panic!("{:?}", decl.kind) };
        let mut table = TypeTable::new();
        let mut tr = Translator::new(&repo, &mut table);
        let mt = tr.rho(t, &HashMap::new(), Span::dummy());
        (table, mt)
    }

    #[test]
    fn rho_unit_int_bool() {
        let (tt, m) = rho_of("", "unit");
        assert_eq!(tt.render_mt(m), "(1, ∅)");
        let (tt, m) = rho_of("", "int");
        assert_eq!(tt.render_mt(m), "(⊤, ∅)");
        let (tt, m) = rho_of("", "bool");
        assert_eq!(tt.render_mt(m), "(2, ∅)");
    }

    #[test]
    fn rho_running_example_type_t() {
        let (tt, m) = rho_of("type t = A of int | B | C of int * int | D", "t");
        assert_eq!(tt.render_mt(m), "(2, (⊤, ∅) + (⊤, ∅) × (⊤, ∅))");
    }

    #[test]
    fn rho_ref_and_tuple() {
        let (tt, m) = rho_of("", "int ref");
        assert_eq!(tt.render_mt(m), "(0, (⊤, ∅))");
        let (tt, m) = rho_of("", "int * string");
        assert_eq!(tt.render_mt(m), "(0, (⊤, ∅) × string)");
    }

    #[test]
    fn rho_option_matches_paper_encoding() {
        let (tt, m) = rho_of("", "string option");
        // None | Some of string = (1, string)
        assert_eq!(tt.render_mt(m), "(1, string)");
    }

    #[test]
    fn rho_list_is_recursive() {
        let (tt, m) = rho_of("", "int list");
        let MtNode::Rep(psi, sigma) = *tt.node(m) else { panic!() };
        assert!(matches!(tt.node(psi), PsiNode::Count(1)));
        // one non-nullary constructor (::) with two fields, second is the
        // list itself
        let SigmaNode::Cons(pi, _) = *tt.node(sigma) else { panic!() };
        let fields = tt.pi_fields(pi).unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(tt.find(fields[1]), tt.find(m));
        // rendering terminates
        assert!(tt.render_mt(m).contains('µ'));
    }

    #[test]
    fn rho_array_is_uniform_block() {
        let (tt, m) = rho_of("", "float array");
        let MtNode::Rep(_, sigma) = *tt.node(m) else { panic!() };
        let SigmaNode::Cons(pi, _) = *tt.node(sigma) else { panic!() };
        assert_eq!(tt.pi_fields(pi), None); // array row
    }

    #[test]
    fn rho_record_is_tag0_block() {
        let (tt, m) = rho_of("type r = { x : int; mutable y : string }", "r");
        assert_eq!(tt.render_mt(m), "(0, (⊤, ∅) × string)");
    }

    #[test]
    fn rho_alias_expands() {
        let (tt, m) = rho_of("type size = int\ntype s2 = size", "s2");
        assert_eq!(tt.render_mt(m), "(⊤, ∅)");
    }

    #[test]
    fn rho_opaque_and_unknown_are_abstract() {
        // opaque types are shared inference variables (pinned by C uses)
        let (tt, m) = rho_of("type win", "win");
        assert!(matches!(tt.node(m), MtNode::Var), "{}", tt.render_mt(m));
        let (repo, _) = setup("");
        let mut table = TypeTable::new();
        let mut tr = Translator::new(&repo, &mut table);
        let t = TypeExpr::named("mystery");
        let m = tr.rho(&t, &HashMap::new(), Span::dummy());
        assert_eq!(tr.into_issues().len(), 1);
        assert_eq!(table.render_mt(m), "mystery");
    }

    #[test]
    fn rho_parametrized_user_type() {
        let (tt, m) = rho_of("type 'a box = Box of 'a | Empty", "int box");
        // 1 nullary (Empty), 1 non-nullary Box of int
        assert_eq!(tt.render_mt(m), "(1, (⊤, ∅))");
    }

    #[test]
    fn rho_mutually_recursive_types() {
        let src = "type expr = Num of int | Neg of expr | Sum of expr * expr";
        let (tt, m) = rho_of(src, "expr");
        let s = tt.render_mt(m);
        // Num/Neg/Sum are all non-nullary: (0, …) with recursive products
        assert!(s.starts_with("(0, "), "{s}");
        assert!(s.contains('µ'), "{s}");
    }

    #[test]
    fn phi_translates_external_signature() {
        let (repo, exts) = setup(
            "type t = A of int | B\n\
             external get : t -> int -> unit = \"ml_get\"",
        );
        let mut table = TypeTable::new();
        let p1 = translate_program(&repo, &exts, &mut table);
        assert_eq!(p1.signatures.len(), 1);
        let sig = &p1.signatures[0];
        assert_eq!(sig.c_name, "ml_get");
        assert_eq!(sig.params.len(), 2);
        assert_eq!(table.render_mt(sig.params[0]), "(1, (⊤, ∅))");
        assert_eq!(table.render_mt(sig.params[1]), "(⊤, ∅)");
        assert_eq!(table.render_mt(sig.ret), "(1, ∅)");
        assert_eq!(sig.unit_params, vec![false, false]);
    }

    #[test]
    fn phi_records_poly_params() {
        let (repo, exts) = setup("external seek : 'a -> int -> unit = \"ml_seek\"");
        let mut table = TypeTable::new();
        let p1 = translate_program(&repo, &exts, &mut table);
        let sig = &p1.signatures[0];
        assert_eq!(sig.poly_params.len(), 1);
        assert_eq!(sig.poly_params[0].0, "a");
        // both uses of 'a share one variable
        assert_eq!(table.find(sig.params[0]), table.find(sig.poly_params[0].1));
    }

    #[test]
    fn phi_flags_poly_variants() {
        let (repo, exts) = setup("external f : [ `A | `B ] -> unit = \"ml_f\"");
        let mut table = TypeTable::new();
        let p1 = translate_program(&repo, &exts, &mut table);
        assert!(p1.signatures[0].uses_poly_variant);
        assert_eq!(p1.issues.len(), 1);
    }

    #[test]
    fn phi_trailing_unit_recorded() {
        let (repo, exts) = setup("external f : int -> unit -> unit = \"ml_f\"");
        let mut table = TypeTable::new();
        let p1 = translate_program(&repo, &exts, &mut table);
        assert_eq!(p1.signatures[0].unit_params, vec![false, true]);
    }

    #[test]
    fn signature_lookup_by_either_name() {
        let (repo, exts) = setup(
            "external g : int -> int -> int -> int -> int -> int -> int = \"g_bc\" \"g_nat\"",
        );
        let mut table = TypeTable::new();
        let p1 = translate_program(&repo, &exts, &mut table);
        assert!(p1.signature_for_c("g_nat").is_some());
        assert!(p1.signature_for_c("g_bc").is_some());
        assert!(p1.signature_for_c("none").is_none());
    }

    #[test]
    fn same_named_type_shares_nodes() {
        let (repo, _) = setup("type t = A of int | B");
        let mut table = TypeTable::new();
        let mut tr = Translator::new(&repo, &mut table);
        let te = TypeExpr::named("t");
        let m1 = tr.rho(&te, &HashMap::new(), Span::dummy());
        let m2 = tr.rho(&te, &HashMap::new(), Span::dummy());
        assert_eq!(table.find(m1), table.find(m2));
    }
}
