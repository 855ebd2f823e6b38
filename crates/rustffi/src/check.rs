//! The Rust-FFI boundary checker.
//!
//! Mirrors rustc's `improper_ctypes` walk (the `check_type_for_ffi` lint):
//! every type reachable from an `extern "C"` boundary signature is
//! recursively classified, with a visiting set for cycle protection, and
//! compared representation-for-representation against the C definitions
//! lowered by the C frontend:
//!
//! * arity and per-position type compatibility against the C function with
//!   the same link name ([`DiagnosticCode::RustArityMismatch`] /
//!   [`DiagnosticCode::RustTypeMismatch`]);
//! * `struct`/`enum`/`union` declarations crossing the boundary without a
//!   C-stable `repr` ([`DiagnosticCode::RustMissingReprC`]);
//! * FFI-unsafe payloads — `String`, `Vec`, wide pointers (`&str`,
//!   `&[T]`), `char`, niche-less `Option`, Rust-ABI fn pointers
//!   ([`DiagnosticCode::RustFfiUnsafe`]);
//! * non-nullable references where the C contract has a plain pointer
//!   ([`DiagnosticCode::RustNullability`]).
//!
//! Classification is deliberately lenient where C is opaque: `Named` C
//! types and unknown Rust paths compare as compatible, so only confident
//! representation clashes (integer vs pointer, float vs integer, …) are
//! reported.

use crate::ast::*;
use ffisafe_cil::ctypes::CTypeExpr;
use ffisafe_cil::ir::IrProgram;
use ffisafe_support::{Diagnostic, DiagnosticBag, DiagnosticCode, Span};
use std::collections::{BTreeMap, BTreeSet};

/// The merged boundary surface of every `.rs` file in a corpus.
#[derive(Clone, Debug, Default)]
pub struct RustProgram {
    /// Imported C functions, in file-then-declaration order.
    pub imports: Vec<ForeignFn>,
    /// Imported C globals.
    pub statics: Vec<ForeignStatic>,
    /// Exported Rust functions.
    pub exports: Vec<ExportFn>,
    /// Type declarations by name (a later declaration shadows an earlier
    /// duplicate, matching last-definition-wins linking).
    pub types: BTreeMap<String, TypeDecl>,
    /// `type` aliases by name.
    pub aliases: BTreeMap<String, RustType>,
}

impl RustProgram {
    /// Merges parsed files into one program surface.
    pub fn merge(files: &[ParsedRustFile]) -> RustProgram {
        let mut out = RustProgram::default();
        for f in files {
            out.imports.extend(f.imports.iter().cloned());
            out.statics.extend(f.statics.iter().cloned());
            out.exports.extend(f.exports.iter().cloned());
            for t in &f.types {
                out.types.insert(t.name.clone(), t.clone());
            }
            for a in &f.aliases {
                out.aliases.insert(a.name.clone(), a.ty.clone());
            }
        }
        out
    }

    /// Whether the surface declares anything boundary-relevant.
    pub fn is_empty(&self) -> bool {
        self.imports.is_empty() && self.statics.is_empty() && self.exports.is_empty()
    }
}

/// How a Rust type is represented at the boundary, for comparison against a
/// [`CTypeExpr`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum Shape {
    /// Any FFI-stable integer (including `bool` and fieldless
    /// primitive-repr enums).
    Int,
    /// `f32` / `f64` and friends.
    Float,
    /// A data pointer. `nullable` is `true` when the type admits a NULL
    /// representation (`*const T`, `Option<&T>`), `false` for `&T` /
    /// `Box<T>` / `NonNull<T>`.
    Ptr {
        /// Whether NULL is a value of the type.
        nullable: bool,
    },
    /// An `extern "C"` function pointer.
    FnPtr,
    /// `()` (meaningful as a return type only).
    Unit,
    /// `!`.
    Never,
    /// A `#[repr(C)]`-stable ADT passed by value.
    Adt(String),
    /// Unknown / opaque: never reported against.
    Opaque,
    /// Already reported as FFI-unsafe; compatibility is not re-checked.
    Bad,
}

/// One flagged component discovered during a signature walk.
struct Unsafety {
    reason: String,
    note: Option<(Span, String)>,
}

/// A `repr`-less ADT observed crossing the boundary: declaration span plus
/// the first boundary position that reaches it.
struct ReprUse {
    decl_span: Span,
    keyword: &'static str,
    use_span: Span,
    use_desc: String,
}

struct Checker<'a> {
    program: &'a RustProgram,
    /// Findings for the position currently being walked.
    pending: Vec<Unsafety>,
    /// `repr`-less ADTs, keyed by type name (first use wins).
    missing_repr: BTreeMap<String, ReprUse>,
    diags: DiagnosticBag,
}

/// Checks the merged Rust surface against the lowered C program.
pub fn check(program: &RustProgram, c: &IrProgram) -> DiagnosticBag {
    let mut ck = Checker {
        program,
        pending: Vec::new(),
        missing_repr: BTreeMap::new(),
        diags: DiagnosticBag::new(),
    };
    for im in &program.imports {
        ck.check_import(im, c);
    }
    for ex in &program.exports {
        ck.check_export(ex, c);
    }
    for st in &program.statics {
        ck.check_static(st, c);
    }
    ck.flush_missing_repr();
    ck.diags
}

/// The C-side view of one function: its signature and where it was
/// declared.
struct CSig<'a> {
    ret: &'a CTypeExpr,
    params: Vec<&'a CTypeExpr>,
    span: Span,
}

fn c_signature<'a>(c: &'a IrProgram, link_name: &str) -> Option<CSig<'a>> {
    for f in &c.functions {
        if f.name == link_name {
            return Some(CSig {
                ret: &f.ret,
                params: f.locals[..f.n_params].iter().map(|l| &l.ty).collect(),
                span: f.span,
            });
        }
    }
    for p in &c.prototypes {
        if p.name == link_name {
            return Some(CSig { ret: &p.ret, params: p.params.iter().collect(), span: p.span });
        }
    }
    None
}

impl<'a> Checker<'a> {
    // ---- per-item entry points -----------------------------------------

    fn check_import(&mut self, im: &ForeignFn, c: &IrProgram) {
        let shapes = self.walk_signature("extern \"C\" fn", &im.name, &im.params, &im.ret, im.span);
        let Some(csig) = c_signature(c, &im.link_name) else { return };
        self.check_against_c(&im.name, "declares", im.variadic, &shapes, im.span, &csig);
        // Nullability: C may *return* NULL where the Rust import promises a
        // non-null reference.
        if let (Shape::Ptr { nullable: false }, CTypeExpr::Ptr(_)) = (&shapes.ret, csig.ret) {
            if matches!(im.ret, RustType::Ref { .. }) {
                self.diags.push(
                    Diagnostic::new(
                        DiagnosticCode::RustNullability,
                        im.span,
                        format!(
                            "extern \"C\" fn `{}` returns `{}`, which can never be NULL, \
                             but the C definition returns a plain pointer; use `Option<{}>` \
                             if NULL is a possible result",
                            im.name,
                            im.ret.display(),
                            im.ret.display()
                        ),
                    )
                    .with_note(csig.span, "C definition here".to_string()),
                );
            }
        }
    }

    fn check_export(&mut self, ex: &ExportFn, c: &IrProgram) {
        let shapes = self.walk_signature("exported fn", &ex.name, &ex.params, &ex.ret, ex.span);
        let Some(csig) = c_signature(c, &ex.link_name) else { return };
        self.check_against_c(&ex.name, "is defined with", false, &shapes, ex.span, &csig);
        // Nullability: C may *pass* NULL where the Rust export demands a
        // non-null reference.
        for (i, shape) in shapes.params.iter().enumerate() {
            let c_ty = match csig.params.get(i) {
                Some(t) => *t,
                None => continue,
            };
            if let (Shape::Ptr { nullable: false }, CTypeExpr::Ptr(_)) = (shape, c_ty) {
                if matches!(ex.params[i], RustType::Ref { .. }) {
                    self.diags.push(
                        Diagnostic::new(
                            DiagnosticCode::RustNullability,
                            ex.span,
                            format!(
                                "parameter {} of exported fn `{}` is `{}`, which C callers \
                                 may pass NULL for; use `Option<{}>` to make NULL legal",
                                i + 1,
                                ex.name,
                                ex.params[i].display(),
                                ex.params[i].display()
                            ),
                        )
                        .with_note(csig.span, "C declaration here".to_string()),
                    );
                }
            }
        }
    }

    fn check_static(&mut self, st: &ForeignStatic, c: &IrProgram) {
        let shape =
            self.position(&format!("foreign static `{}`", st.name), &st.name, &st.ty, st.span);
        let Some((_, c_ty, c_span)) = c.globals.iter().find(|(name, _, _)| *name == st.link_name)
        else {
            return;
        };
        if let Some(clash) = incompatible(&shape, c_ty) {
            self.diags.push(
                Diagnostic::new(
                    DiagnosticCode::RustTypeMismatch,
                    st.span,
                    format!(
                        "foreign static `{}` is `{}` but the C definition is `{c_ty}` ({clash})",
                        st.name,
                        st.ty.display()
                    ),
                )
                .with_note(*c_span, "C definition here".to_string()),
            );
        }
    }

    // ---- signature walking ----------------------------------------------

    fn walk_signature(
        &mut self,
        what: &str,
        name: &str,
        params: &[RustType],
        ret: &RustType,
        span: Span,
    ) -> SigShapes {
        let mut shapes = Vec::with_capacity(params.len());
        for (i, p) in params.iter().enumerate() {
            let desc = format!("parameter {} of {what} `{name}`", i + 1);
            shapes.push(self.position(&desc, name, p, span));
        }
        let ret_desc = format!("return type of {what} `{name}`");
        let ret_shape = self.position(&ret_desc, name, ret, span);
        SigShapes { params: shapes, ret: ret_shape }
    }

    /// Classifies one signature position, draining any unsafety findings
    /// into `E014` diagnostics anchored at the signature.
    fn position(&mut self, desc: &str, _name: &str, ty: &RustType, span: Span) -> Shape {
        let mut visiting = BTreeSet::new();
        let shape = self.classify(ty, span, desc, &mut visiting);
        for u in std::mem::take(&mut self.pending) {
            let mut d = Diagnostic::new(
                DiagnosticCode::RustFfiUnsafe,
                span,
                format!("{desc} is not FFI-safe: {}", u.reason),
            );
            if let Some((nspan, nmsg)) = u.note {
                d = d.with_note(nspan, nmsg);
            }
            self.diags.push(d);
        }
        shape
    }

    fn bad(&mut self, reason: String) -> Shape {
        self.pending.push(Unsafety { reason, note: None });
        Shape::Bad
    }

    fn bad_at(&mut self, reason: String, span: Span, note: String) -> Shape {
        self.pending.push(Unsafety { reason, note: Some((span, note)) });
        Shape::Bad
    }

    /// The recursive field walk. `visiting` carries the ADT names on the
    /// current path (rustc's cycle cache): a recursive `struct Node { next:
    /// *mut Node }` terminates because the second visit of `Node` answers
    /// immediately.
    fn classify(
        &mut self,
        ty: &RustType,
        use_span: Span,
        use_desc: &str,
        visiting: &mut BTreeSet<String>,
    ) -> Shape {
        match ty {
            RustType::Ptr { inner, .. } => self.pointee(inner, true, use_span, use_desc, visiting),
            RustType::Ref { inner, .. } => self.pointee(inner, false, use_span, use_desc, visiting),
            RustType::Slice(_) => {
                self.bad("a bare slice `[T]` has no C representation".to_string())
            }
            RustType::Str => self
                .bad("`str` has no C representation; use `*const c_char` and a length".to_string()),
            RustType::Array(inner, _) => {
                // Arrays are C-compatible inside structs; walk the element.
                self.classify(inner, use_span, use_desc, visiting);
                Shape::Opaque
            }
            RustType::Tuple(parts) if parts.is_empty() => Shape::Unit,
            RustType::Tuple(_) => {
                self.bad("tuples have unspecified layout; use a `#[repr(C)]` struct".to_string())
            }
            RustType::Unit => Shape::Unit,
            RustType::Never => Shape::Never,
            RustType::FnPtr { abi_c: true, params, ret } => {
                for p in params {
                    self.classify(p, use_span, use_desc, visiting);
                }
                self.classify(ret, use_span, use_desc, visiting);
                Shape::FnPtr
            }
            RustType::FnPtr { abi_c: false, .. } => self.bad(
                "`fn(..)` is a Rust-ABI function pointer; declare it `extern \"C\" fn(..)`"
                    .to_string(),
            ),
            RustType::TraitObject => self.bad("trait objects have no C representation".to_string()),
            RustType::Unknown => Shape::Opaque,
            RustType::Path { name, args, .. } => {
                self.classify_path(ty, name, args, use_span, use_desc, visiting)
            }
        }
    }

    fn classify_path(
        &mut self,
        whole: &RustType,
        name: &str,
        args: &[RustType],
        use_span: Span,
        use_desc: &str,
        visiting: &mut BTreeSet<String>,
    ) -> Shape {
        const INTS: &[&str] = &[
            "i8",
            "i16",
            "i32",
            "i64",
            "isize",
            "u8",
            "u16",
            "u32",
            "u64",
            "usize",
            "bool",
            "c_char",
            "c_schar",
            "c_uchar",
            "c_short",
            "c_ushort",
            "c_int",
            "c_uint",
            "c_long",
            "c_ulong",
            "c_longlong",
            "c_ulonglong",
            "c_size_t",
            "c_ssize_t",
            "size_t",
            "ssize_t",
            "intptr_t",
            "uintptr_t",
        ];
        const FLOATS: &[&str] = &["f32", "f64", "c_float", "c_double"];
        const OWNED_CONTAINERS: &[&str] = &[
            "String", "Vec", "VecDeque", "HashMap", "BTreeMap", "HashSet", "BTreeSet", "OsString",
            "PathBuf", "CString",
        ];
        if INTS.contains(&name) {
            return Shape::Int;
        }
        if FLOATS.contains(&name) {
            return Shape::Float;
        }
        match name {
            "char" => self.bad(
                "`char` is a 4-byte Unicode scalar with a restricted range; use `u32` or \
                 `c_char`"
                    .to_string(),
            ),
            "u128" | "i128" => self.bad(format!("`{name}` has no stable C ABI on common targets")),
            n if OWNED_CONTAINERS.contains(&n) => self.bad(format!(
                "`{}` is an owned Rust container with no C representation; pass a pointer and \
                 length instead",
                whole.display()
            )),
            "c_void" => Shape::Opaque,
            "Option" => {
                let Some(inner) = args.first() else { return Shape::Opaque };
                // Niche-guaranteed payloads — Option<&T> / Option<Box<T>> /
                // Option<NonNull<T>> / Option<extern "C" fn> — collapse to a
                // single nullable pointer.
                let niche = match inner {
                    RustType::Ref { .. } => true,
                    RustType::FnPtr { abi_c: true, .. } => true,
                    RustType::Path { name, .. } => name == "NonNull" || name == "Box",
                    _ => false,
                };
                if niche {
                    self.classify(inner, use_span, use_desc, visiting);
                    Shape::Ptr { nullable: true }
                } else {
                    self.bad(format!(
                        "`Option<{}>` has no guaranteed layout; only pointer-niche payloads \
                         (`Option<&T>`, `Option<extern \"C\" fn>`, …) are FFI-safe",
                        inner.display()
                    ))
                }
            }
            "NonNull" => {
                if let Some(inner) = args.first() {
                    self.pointee(inner, false, use_span, use_desc, visiting)
                } else {
                    Shape::Ptr { nullable: false }
                }
            }
            "Box" => {
                if let Some(inner) = args.first() {
                    self.pointee(inner, false, use_span, use_desc, visiting)
                } else {
                    Shape::Ptr { nullable: false }
                }
            }
            "ManuallyDrop" | "MaybeUninit" | "Cell" | "UnsafeCell" | "Pin" => match args.first() {
                Some(inner) => self.classify(inner, use_span, use_desc, visiting),
                None => Shape::Opaque,
            },
            "PhantomData" => Shape::Opaque,
            "CStr" | "OsStr" | "Path" => self.bad(format!(
                "`{name}` is unsized; it only exists behind a wide pointer, which has no C \
                 representation"
            )),
            _ => {
                if let Some(aliased) = self.program.aliases.get(name).cloned() {
                    // Aliases share the walk path with ADTs under a key no
                    // type name can take; an alias already on it is a
                    // cycle, which stays opaque like an undeclared name.
                    let key = format!("type {name}");
                    if !visiting.insert(key.clone()) {
                        return Shape::Opaque;
                    }
                    let shape = self.classify(&aliased, use_span, use_desc, visiting);
                    visiting.remove(&key);
                    return shape;
                }
                let Some(decl) = self.program.types.get(name).cloned() else {
                    return Shape::Opaque; // undeclared: treated opaquely
                };
                self.classify_adt(&decl, use_span, use_desc, visiting)
            }
        }
    }

    fn classify_adt(
        &mut self,
        decl: &TypeDecl,
        use_span: Span,
        use_desc: &str,
        visiting: &mut BTreeSet<String>,
    ) -> Shape {
        if !visiting.insert(decl.name.clone()) {
            // Already on the walk path: assume safe, exactly like rustc's
            // `cache.insert(ty)` early return.
            return Shape::Adt(decl.name.clone());
        }
        if decl.generic {
            let shape = self.bad_at(
                format!("generic {} `{}` has no single C layout", decl.kind.keyword(), decl.name),
                decl.span,
                "declared here".to_string(),
            );
            visiting.remove(&decl.name);
            return shape;
        }
        let shape = match decl.repr {
            Repr::C => {
                for f in &decl.fields {
                    self.field(decl, f, use_span, use_desc, visiting);
                }
                Shape::Adt(decl.name.clone())
            }
            Repr::Transparent => {
                // Layout of the single non-zero-sized field.
                let mut inner_shape = Shape::Opaque;
                for f in &decl.fields {
                    let s = self.field(decl, f, use_span, use_desc, visiting);
                    if !matches!(s, Shape::Opaque) {
                        inner_shape = s;
                    }
                }
                inner_shape
            }
            Repr::PrimitiveInt => {
                if decl.kind == AdtKind::Enum && !decl.has_payload {
                    Shape::Int
                } else {
                    // RFC 2195 gives data-carrying primitive-repr enums a
                    // defined layout; walk payloads, compare as an ADT.
                    for f in &decl.fields {
                        self.field(decl, f, use_span, use_desc, visiting);
                    }
                    Shape::Adt(decl.name.clone())
                }
            }
            Repr::Rust => {
                self.missing_repr.entry(decl.name.clone()).or_insert_with(|| ReprUse {
                    decl_span: decl.span,
                    keyword: decl.kind.keyword(),
                    use_span,
                    use_desc: use_desc.to_string(),
                });
                Shape::Opaque // already reported; avoid cascading E012s
            }
        };
        visiting.remove(&decl.name);
        shape
    }

    /// Classifies one ADT field, wrapping any unsafety it surfaces with a
    /// note pointing at the field declaration.
    fn field(
        &mut self,
        decl: &TypeDecl,
        f: &Field,
        use_span: Span,
        use_desc: &str,
        visiting: &mut BTreeSet<String>,
    ) -> Shape {
        let before = self.pending.len();
        let shape = self.classify(&f.ty, use_span, use_desc, visiting);
        for u in &mut self.pending[before..] {
            if u.note.is_none() {
                u.note = Some((
                    f.span,
                    format!(
                        "reached via field `{}` of {} `{}`, declared here",
                        f.name,
                        decl.kind.keyword(),
                        decl.name
                    ),
                ));
            }
        }
        shape
    }

    /// Classifies a pointee and returns the pointer shape, flagging wide
    /// pointers (slices, `str`, trait objects) whose fat layout has no C
    /// counterpart.
    fn pointee(
        &mut self,
        inner: &RustType,
        nullable: bool,
        use_span: Span,
        use_desc: &str,
        visiting: &mut BTreeSet<String>,
    ) -> Shape {
        match inner {
            RustType::Slice(_) => self.bad(
                "a pointer to a slice is a wide (pointer, length) pair with no C layout; pass \
                 the data pointer and length separately"
                    .to_string(),
            ),
            RustType::Str => self.bad(
                "`&str` is a wide (pointer, length) pair with no C layout; use `*const c_char`"
                    .to_string(),
            ),
            RustType::TraitObject => {
                self.bad("a pointer to a trait object is a wide (data, vtable) pair".to_string())
            }
            RustType::Path { name, .. } if name == "CStr" || name == "OsStr" || name == "Path" => {
                self.bad(format!(
                    "`&{name}` is a wide pointer with no C layout; use `*const c_char`"
                ))
            }
            _ => {
                // The pointee itself must still be representable (a pointer
                // to a `repr(Rust)` struct leaks its layout to C).
                self.classify(inner, use_span, use_desc, visiting);
                Shape::Ptr { nullable }
            }
        }
    }

    // ---- comparison against C -------------------------------------------

    fn check_against_c(
        &mut self,
        name: &str,
        verb: &str,
        variadic: bool,
        shapes: &SigShapes,
        span: Span,
        csig: &CSig<'_>,
    ) {
        let n_rust = shapes.params.len();
        let n_c = csig.params.len();
        let arity_ok = if variadic { n_c >= n_rust } else { n_c == n_rust };
        if !arity_ok {
            let c_desc = if variadic { format!("at least {n_rust}") } else { n_rust.to_string() };
            self.diags.push(
                Diagnostic::new(
                    DiagnosticCode::RustArityMismatch,
                    span,
                    format!(
                        "`{name}` {verb} {c_desc} parameter(s) on the Rust side but the C \
                         definition has {n_c}"
                    ),
                )
                .with_note(csig.span, "C definition here".to_string()),
            );
            return; // positional comparison is meaningless past an arity clash
        }
        for (i, (shape, c_ty)) in shapes.params.iter().zip(&csig.params).enumerate() {
            if let Some(clash) = incompatible(shape, c_ty) {
                self.diags.push(
                    Diagnostic::new(
                        DiagnosticCode::RustTypeMismatch,
                        span,
                        format!(
                            "parameter {} of `{name}` does not match the C definition: {clash}",
                            i + 1
                        ),
                    )
                    .with_note(csig.span, "C definition here".to_string()),
                );
            }
        }
        if let Some(clash) = incompatible_ret(&shapes.ret, csig.ret) {
            self.diags.push(
                Diagnostic::new(
                    DiagnosticCode::RustTypeMismatch,
                    span,
                    format!("return type of `{name}` does not match the C definition: {clash}"),
                )
                .with_note(csig.span, "C definition here".to_string()),
            );
        }
    }

    fn flush_missing_repr(&mut self) {
        for (name, u) in std::mem::take(&mut self.missing_repr) {
            self.diags.push(
                Diagnostic::new(
                    DiagnosticCode::RustMissingReprC,
                    u.decl_span,
                    format!(
                        "{} `{name}` crosses the `extern \"C\"` boundary but has no \
                         `#[repr(C)]` attribute; its layout is unspecified",
                        u.keyword
                    ),
                )
                .with_note(u.use_span, format!("reachable from {} here", u.use_desc))
                .with_note(u.decl_span, "consider adding a `#[repr(C)]` attribute".to_string()),
            );
        }
    }
}

/// Shapes of one signature, parallel to its parameter list.
struct SigShapes {
    params: Vec<Shape>,
    ret: Shape,
}

/// Confident representation clashes between a Rust parameter shape and a C
/// parameter type; `None` means compatible (or not confidently comparable).
fn incompatible(shape: &Shape, c: &CTypeExpr) -> Option<String> {
    let clash = |r: &str, c_desc: &str| Some(format!("Rust side is {r}, C side is {c_desc}"));
    match (shape, c) {
        // Opaque / already-flagged shapes and opaque C types never clash.
        (Shape::Opaque | Shape::Bad | Shape::Never, _) => None,
        (_, CTypeExpr::Named(_) | CTypeExpr::Auto) => None,
        (Shape::Int, CTypeExpr::Int | CTypeExpr::Value) => None,
        (Shape::Int, CTypeExpr::Ptr(_) | CTypeExpr::FuncPtr) => clash("an integer", "a pointer"),
        (Shape::Int, CTypeExpr::Float) => clash("an integer", "a floating type"),
        (Shape::Int, CTypeExpr::Void) => clash("an integer", "void"),
        (Shape::Float, CTypeExpr::Float) => None,
        (Shape::Float, CTypeExpr::Int | CTypeExpr::Value) => clash("a floating type", "an integer"),
        (Shape::Float, CTypeExpr::Ptr(_) | CTypeExpr::FuncPtr) => {
            clash("a floating type", "a pointer")
        }
        (Shape::Float, CTypeExpr::Void) => clash("a floating type", "void"),
        (Shape::Ptr { .. }, CTypeExpr::Ptr(_) | CTypeExpr::FuncPtr | CTypeExpr::Value) => None,
        (Shape::Ptr { .. }, CTypeExpr::Int) => clash("a pointer", "an integer"),
        (Shape::Ptr { .. }, CTypeExpr::Float) => clash("a pointer", "a floating type"),
        (Shape::Ptr { .. }, CTypeExpr::Void) => clash("a pointer", "void"),
        (Shape::FnPtr, CTypeExpr::FuncPtr | CTypeExpr::Ptr(_) | CTypeExpr::Value) => None,
        (Shape::FnPtr, CTypeExpr::Int) => clash("a function pointer", "an integer"),
        (Shape::FnPtr, CTypeExpr::Float) => clash("a function pointer", "a floating type"),
        (Shape::FnPtr, CTypeExpr::Void) => clash("a function pointer", "void"),
        (Shape::Adt(name), CTypeExpr::Int | CTypeExpr::Float | CTypeExpr::Ptr(_)) => {
            Some(format!("Rust side passes `{name}` by value, C side is `{c}`"))
        }
        (Shape::Adt(_), _) => None,
        (Shape::Unit, CTypeExpr::Void) => None,
        (Shape::Unit, _) => clash("`()`", "a non-void type"),
    }
}

/// Like [`incompatible`] but for the return position, where `void`/`()`
/// pair up and anything-vs-void is the confident clash.
fn incompatible_ret(shape: &Shape, c: &CTypeExpr) -> Option<String> {
    match (shape, c) {
        (Shape::Unit, CTypeExpr::Void) => None,
        (Shape::Unit, CTypeExpr::Named(_) | CTypeExpr::Auto) => None,
        (Shape::Unit, _) => Some(format!("Rust side returns `()`, C side returns `{c}`")),
        (Shape::Opaque | Shape::Bad | Shape::Never, _) => None,
        (s, CTypeExpr::Void) if !matches!(s, Shape::Unit) => {
            Some("Rust side returns a value, C side returns void".to_string())
        }
        _ => incompatible(shape, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use ffisafe_cil::{lower, parser as cparser};
    use ffisafe_support::SourceMap;

    fn run(rust_src: &str, c_src: &str) -> DiagnosticBag {
        let mut sm = SourceMap::new();
        let rs_file = sm.add_file("lib.rs", rust_src);
        let c_file = sm.add_file("glue.c", c_src);
        let parsed = parser::parse(rs_file, "lib.rs", rust_src);
        assert!(parsed.errors.is_empty(), "parse errors: {:?}", parsed.errors);
        let program = RustProgram::merge(std::slice::from_ref(&parsed));
        let unit = cparser::parse(c_file, c_src);
        let ir = lower::lower_unit(&unit);
        let mut bag = check(&program, &ir);
        bag.dedup();
        bag
    }

    fn codes(bag: &DiagnosticBag) -> Vec<&'static str> {
        bag.iter().map(|d| d.code().code_str()).collect()
    }

    #[test]
    fn clean_pair_is_silent() {
        let bag = run(
            r#"
            #[repr(C)]
            pub struct Pair { a: i32, b: i32 }
            extern "C" {
                fn pair_sum(p: *const Pair, n: i32) -> i32;
            }
            "#,
            r#"
            typedef struct pair pair_t;
            int pair_sum(pair_t *p, int n) { return n; }
            "#,
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }

    #[test]
    fn arity_mismatch_is_e011() {
        let bag = run(
            "extern \"C\" { fn mix(a: i32, b: i32, c: i32) -> i32; }",
            "int mix(int a, int b) { return a + b; }",
        );
        assert_eq!(codes(&bag), ["E011"]);
    }

    #[test]
    fn type_mismatch_is_e012() {
        let bag = run(
            "extern \"C\" { fn scale(x: i64) -> f64; }",
            "double scale(double x) { return x; }",
        );
        assert_eq!(codes(&bag), ["E012"]);
    }

    #[test]
    fn missing_repr_is_e013_once_per_type() {
        let bag = run(
            r#"
            pub struct Handle { fd: i32 }
            extern "C" {
                fn h_open() -> *mut Handle;
                fn h_close(h: *mut Handle) -> i32;
            }
            "#,
            "",
        );
        assert_eq!(codes(&bag), ["E013"]);
    }

    #[test]
    fn ffi_unsafe_payloads_are_e014() {
        let bag = run(
            r#"
            #[repr(C)]
            pub struct Meta { name: String }
            extern "C" {
                fn put(m: Meta);
                fn desc() -> &'static str;
            }
            "#,
            "",
        );
        assert_eq!(codes(&bag), ["E014", "E014"]);
    }

    #[test]
    fn nullability_is_w004_for_export_params() {
        let bag = run(
            r#"
            #[no_mangle]
            pub extern "C" fn consume(buf: &u8) -> i32 { 0 }
            "#,
            "int consume(char *buf);",
        );
        assert_eq!(codes(&bag), ["W004"]);
    }

    #[test]
    fn option_ref_matches_plain_pointer_silently() {
        let bag = run(
            r#"
            #[no_mangle]
            pub extern "C" fn consume(buf: Option<&u8>) -> i32 { 0 }
            "#,
            "int consume(char *buf);",
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }

    #[test]
    fn recursive_struct_terminates() {
        let bag = run(
            r#"
            #[repr(C)]
            pub struct Node { value: i32, next: *mut Node }
            extern "C" { fn visit(n: *const Node); }
            "#,
            "",
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }

    #[test]
    fn self_referential_alias_terminates() {
        let bag = run(
            r#"
            type A = *mut A;
            extern "C" { fn f(x: A); }
            "#,
            "void f(void *x) { }",
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }

    #[test]
    fn mutually_recursive_aliases_terminate() {
        let bag = run(
            r#"
            type A = B;
            type B = A;
            extern "C" { fn f(x: A); }
            "#,
            "void f(void *x) { }",
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }

    #[test]
    fn an_alias_cycle_through_a_struct_still_checks_its_fields() {
        let bag = run(
            r#"
            #[repr(C)]
            pub struct Node { next: *mut Link, name: String }
            type Link = Node;
            extern "C" { fn f(x: *mut Link); }
            "#,
            "void f(void *x) { }",
        );
        assert_eq!(codes(&bag), ["E014"]);
    }

    #[test]
    fn transparent_unwraps_to_inner_layout() {
        let bag = run(
            r#"
            #[repr(transparent)]
            pub struct Fd(i32);
            extern "C" { fn close_fd(fd: Fd) -> i32; }
            "#,
            "int close_fd(int fd) { return 0; }",
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }

    #[test]
    fn niche_less_option_is_flagged() {
        let bag = run(
            "extern \"C\" { fn maybe(x: Option<i32>) -> i32; }",
            "int maybe(int x) { return x; }",
        );
        assert_eq!(codes(&bag), ["E014"]);
    }

    #[test]
    fn fieldless_primitive_enum_is_an_int() {
        let bag = run(
            r#"
            #[repr(u8)]
            pub enum Mode { Read, Write }
            extern "C" { fn set_mode(m: Mode) -> i32; }
            "#,
            "int set_mode(int m) { return m; }",
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }

    #[test]
    fn foreign_static_type_checked() {
        let bag = run("extern \"C\" { static ERRNO: *mut u8; }", "int ERRNO;");
        assert_eq!(codes(&bag), ["E012"]);
    }

    #[test]
    fn variadic_import_checks_lower_bound() {
        let bag = run(
            "extern \"C\" { fn logf(fmt: *const u8, ...) -> i32; }",
            "int logf(char *fmt) { return 0; }",
        );
        assert!(bag.is_empty(), "unexpected findings: {:?}", codes(&bag));
    }
}
