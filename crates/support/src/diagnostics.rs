//! Diagnostics: machine-classifiable findings with severities matching the
//! columns of the paper's Figure 9.
//!
//! The paper's experimental results classify every report into one of four
//! buckets: outright **errors**, **warnings** for questionable coding
//! practice, **false positives** (reports on code that is actually correct)
//! and **imprecision** warnings (places where the analysis lacks precise
//! flow-sensitive information). The first, second and fourth are intrinsic
//! to the analysis and are encoded here as [`Severity`]; false positives are
//! a *judgment about* an error report, made by the benchmark harness against
//! ground truth, not a property of the diagnostic itself.

use crate::span::Span;
use std::fmt;

/// Coarse severity, mirroring the Figure 9 columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// A type or GC safety violation (Figure 9 "Errors" column).
    Error,
    /// Questionable coding practice (Figure 9 "Warnings" column).
    Warning,
    /// The analysis lacked precise information (Figure 9 "Imprecision").
    Imprecision,
    /// Informational note attached to another diagnostic.
    Note,
}

impl Severity {
    /// Returns `true` for [`Severity::Error`].
    pub fn is_error(self) -> bool {
        matches!(self, Severity::Error)
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Imprecision => "imprecision",
            Severity::Note => "note",
        };
        f.write_str(s)
    }
}

/// Declares [`DiagnosticCode`] from one table: each code is listed once,
/// with its report string, its default severity and the byte that stands
/// for it in cache payloads. Strings and tags are stable: reports and
/// stored payloads depend on them.
macro_rules! diagnostic_codes {
    ($($(#[$doc:meta])* $name:ident => $code:literal, $severity:ident, tag $tag:literal;)*) => {
        /// Stable machine-readable codes for every finding the analysis can emit.
        ///
        /// `E*` are type/GC safety errors, `W*` questionable-practice warnings and
        /// `P*` imprecision reports, following §5.2 of the paper.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum DiagnosticCode {
            $($(#[$doc])* $name,)*
        }

        impl DiagnosticCode {
            #[cfg(test)]
            const ALL: &'static [DiagnosticCode] = &[$(DiagnosticCode::$name),*];

            /// The default severity this code is reported at.
            pub fn severity(self) -> Severity {
                match self {
                    $(DiagnosticCode::$name => Severity::$severity,)*
                }
            }

            /// Stable short code string (`E001` …) for reports and tests.
            pub fn code_str(self) -> &'static str {
                match self {
                    $(DiagnosticCode::$name => $code,)*
                }
            }

            /// The byte that stands for this code in cache payloads.
            pub fn cache_tag(self) -> u8 {
                match self {
                    $(DiagnosticCode::$name => $tag,)*
                }
            }

            /// The code a cache payload byte stands for, if any.
            pub fn from_cache_tag(tag: u8) -> Option<DiagnosticCode> {
                match tag {
                    $($tag => Some(DiagnosticCode::$name),)*
                    _ => None,
                }
            }
        }
    };
}

diagnostic_codes! {
    // ---- errors -------------------------------------------------------
    /// Unification failure between inferred and declared multi-lingual types
    /// (e.g. `Val_int` applied where `Int_val` was needed).
    TypeMismatch => "E001", Error, tag 0;
    /// An unboxed value was used where a boxed value is required or
    /// vice-versa (boxedness lattice violation).
    BoxednessMismatch => "E002", Error, tag 1;
    /// A nullary-constructor value exceeds the number of nullary
    /// constructors of its sum type (`T + 1 ≤ Ψ` violated).
    ConstructorRange => "E003", Error, tag 2;
    /// A structured-block access uses a tag with no corresponding
    /// non-nullary constructor.
    TagRange => "E004", Error, tag 3;
    /// A structured-block field access is out of bounds for the product at
    /// that tag.
    FieldRange => "E005", Error, tag 4;
    /// A live pointer into the OCaml heap was not registered with the GC
    /// before a call that may trigger collection.
    UnrootedValue => "E006", Error, tag 5;
    /// A function registered values with `CAMLparam`/`CAMLlocal` but exits
    /// through plain `return` instead of `CAMLreturn`.
    MissingCamlReturn => "E007", Error, tag 6;
    /// `CAMLreturn` used although nothing was registered.
    SpuriousCamlReturn => "E008", Error, tag 7;
    /// An unsafe value was passed to a function or stored to the heap
    /// (offset not statically zero).
    UnsafeValue => "E009", Error, tag 8;
    /// Arity mismatch between the OCaml `external` and the C definition.
    ArityMismatch => "E010", Error, tag 9;
    /// Arity mismatch between a Rust `extern "C"` signature and the C
    /// definition with the same link name.
    RustArityMismatch => "E011", Error, tag 19;
    /// Representation-level type mismatch between a Rust `extern "C"`
    /// parameter/return and the C definition (e.g. integer vs pointer).
    RustTypeMismatch => "E012", Error, tag 20;
    /// A Rust struct/enum/union crosses the FFI boundary without
    /// `#[repr(C)]` (or another FFI-stable representation).
    RustMissingReprC => "E013", Error, tag 21;
    /// An FFI-unsafe payload (`String`, `Vec`, wide pointer, non-`repr`
    /// ADT, …) is reachable from a Rust boundary signature.
    RustFfiUnsafe => "E014", Error, tag 22;
    // ---- questionable practice -----------------------------------------
    /// Trailing `unit` parameter in the OCaml signature with no C
    /// counterpart.
    TrailingUnitParameter => "W001", Warning, tag 10;
    /// A polymorphic (`'a`) external parameter used at a concrete
    /// representational type in C.
    PolymorphicAbuse => "W002", Warning, tag 11;
    /// Value cast chains that are legal but fragile (heuristic).
    SuspiciousCast => "W003", Warning, tag 12;
    /// A non-nullable Rust reference (`&T`) crosses the boundary where the
    /// C side has a plain (nullable) pointer; `Option<&T>` matches the C
    /// contract.
    RustNullability => "W004", Warning, tag 23;
    // ---- imprecision ----------------------------------------------------
    /// Pointer arithmetic with a statically-unknown offset.
    UnknownOffset => "P001", Imprecision, tag 13;
    /// A global variable holds a `value`; the analysis cannot track it.
    GlobalValue => "P002", Imprecision, tag 14;
    /// A `value` variable (or struct containing one) has its address taken.
    AddressOfValue => "P003", Imprecision, tag 15;
    /// Call through an unknown C function pointer.
    FunctionPointerCall => "P004", Imprecision, tag 16;
    /// Polymorphic variants are not handled; report is likely spurious.
    PolymorphicVariant => "P005", Imprecision, tag 17;
    // ---- notes ----------------------------------------------------------
    /// Free-form note providing context for another diagnostic.
    Context => "N001", Note, tag 18;
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code_str())
    }
}

/// A single finding: code, severity, primary span, message and optional
/// notes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    code: DiagnosticCode,
    severity: Severity,
    span: Span,
    message: String,
    notes: Vec<(Span, String)>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: DiagnosticCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Creates an error-severity diagnostic (assertion helper for codes that
    /// default to errors).
    pub fn error(code: DiagnosticCode, span: Span, message: impl Into<String>) -> Self {
        let mut d = Diagnostic::new(code, span, message);
        d.severity = Severity::Error;
        d
    }

    /// Attaches an explanatory note.
    pub fn with_note(mut self, span: Span, message: impl Into<String>) -> Self {
        self.notes.push((span, message.into()));
        self
    }

    /// Overrides the severity (used by heuristics that downgrade reports).
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// The machine-readable code.
    pub fn code(&self) -> DiagnosticCode {
        self.code
    }

    /// Severity of this finding.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Primary span.
    pub fn span(&self) -> Span {
        self.span
    }

    /// Human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Attached notes.
    pub fn notes(&self) -> &[(Span, String)] {
        &self.notes
    }
}

/// An ordered collection of diagnostics with counting helpers.
///
/// # Examples
///
/// ```
/// use ffisafe_support::{DiagnosticBag, Diagnostic, DiagnosticCode, Span};
/// let mut bag = DiagnosticBag::new();
/// bag.push(Diagnostic::new(DiagnosticCode::UnknownOffset, Span::dummy(), "offset unknown"));
/// assert_eq!(bag.count_imprecision(), 1);
/// assert_eq!(bag.count_errors(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiagnosticBag {
    diags: Vec<Diagnostic>,
}

impl DiagnosticBag {
    /// Creates an empty bag.
    pub fn new() -> Self {
        DiagnosticBag::default()
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Moves all diagnostics from `other` into `self`.
    pub fn append(&mut self, other: &mut DiagnosticBag) {
        self.diags.append(&mut other.diags);
    }

    /// All diagnostics in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Returns `true` when no diagnostics were emitted.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of diagnostics with [`Severity::Error`].
    pub fn count_errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of diagnostics with [`Severity::Warning`].
    pub fn count_warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of diagnostics with [`Severity::Imprecision`].
    pub fn count_imprecision(&self) -> usize {
        self.count(Severity::Imprecision)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity() == sev).count()
    }

    /// Diagnostics with the given code.
    pub fn with_code(&self, code: DiagnosticCode) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(move |d| d.code() == code)
    }

    /// Sorts diagnostics by (file, position, code) for stable output.
    pub fn sort(&mut self) {
        self.diags.sort_by_key(|d| (d.span().file, d.span().lo, d.code()));
    }

    /// Sorts, then removes exact duplicates (same code, span and message) —
    /// distinct rules can flag one offending expression identically.
    pub fn dedup(&mut self) {
        self.sort();
        self.diags.dedup_by(|a, b| {
            a.code() == b.code() && a.span() == b.span() && a.message() == b.message()
        });
    }
}

impl IntoIterator for DiagnosticBag {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

impl Extend<Diagnostic> for DiagnosticBag {
    fn extend<T: IntoIterator<Item = Diagnostic>>(&mut self, iter: T) {
        self.diags.extend(iter);
    }
}

impl FromIterator<Diagnostic> for DiagnosticBag {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        DiagnosticBag { diags: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_map::FileId;

    fn sp(lo: u32) -> Span {
        Span::new(FileId::from_raw(0), lo, lo + 1)
    }

    #[test]
    fn code_severity_buckets() {
        assert_eq!(DiagnosticCode::TypeMismatch.severity(), Severity::Error);
        assert_eq!(DiagnosticCode::TrailingUnitParameter.severity(), Severity::Warning);
        assert_eq!(DiagnosticCode::UnknownOffset.severity(), Severity::Imprecision);
        assert_eq!(DiagnosticCode::Context.severity(), Severity::Note);
    }

    #[test]
    fn code_strings_are_unique() {
        let all = DiagnosticCode::ALL;
        let mut strs: Vec<_> = all.iter().map(|c| c.code_str()).collect();
        strs.sort();
        strs.dedup();
        assert_eq!(strs.len(), all.len());
    }

    #[test]
    fn cache_tags_are_unique_and_round_trip() {
        let all = DiagnosticCode::ALL;
        let mut tags: Vec<_> = all.iter().map(|c| c.cache_tag()).collect();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), all.len());
        for &code in all {
            assert_eq!(DiagnosticCode::from_cache_tag(code.cache_tag()), Some(code));
        }
        let unused = (0..=u8::MAX).find(|t| !tags.contains(t)).unwrap();
        assert_eq!(DiagnosticCode::from_cache_tag(unused), None);
    }

    #[test]
    fn bag_counts_by_severity() {
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::new(DiagnosticCode::TypeMismatch, sp(0), "a"));
        bag.push(Diagnostic::new(DiagnosticCode::UnrootedValue, sp(1), "b"));
        bag.push(Diagnostic::new(DiagnosticCode::TrailingUnitParameter, sp(2), "c"));
        bag.push(Diagnostic::new(DiagnosticCode::UnknownOffset, sp(3), "d"));
        assert_eq!(bag.count_errors(), 2);
        assert_eq!(bag.count_warnings(), 1);
        assert_eq!(bag.count_imprecision(), 1);
        assert_eq!(bag.len(), 4);
    }

    #[test]
    fn bag_sort_is_stable_by_position() {
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::new(DiagnosticCode::TypeMismatch, sp(9), "late"));
        bag.push(Diagnostic::new(DiagnosticCode::TypeMismatch, sp(1), "early"));
        bag.sort();
        let msgs: Vec<_> = bag.iter().map(|d| d.message().to_string()).collect();
        assert_eq!(msgs, ["early", "late"]);
    }

    #[test]
    fn notes_and_severity_override() {
        let d = Diagnostic::new(DiagnosticCode::TypeMismatch, sp(0), "m")
            .with_note(sp(1), "declared here")
            .with_severity(Severity::Imprecision);
        assert_eq!(d.notes().len(), 1);
        assert_eq!(d.severity(), Severity::Imprecision);
    }

    #[test]
    fn with_code_filters() {
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::new(DiagnosticCode::TypeMismatch, sp(0), "a"));
        bag.push(Diagnostic::new(DiagnosticCode::UnknownOffset, sp(1), "b"));
        assert_eq!(bag.with_code(DiagnosticCode::TypeMismatch).count(), 1);
    }
}
