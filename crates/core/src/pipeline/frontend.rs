//! The pluggable frontend boundary: one trait every language frontend
//! implements, and the registry the corpus parser dispatches through.
//!
//! A frontend owns one side of a language pair: it claims corpus files by
//! [`SourceKind`], parses each into the shared [`Session`] (registering
//! the file in the source map, interning declared names, and reporting
//! parse errors to the diagnostic sink), and hands back a typed
//! [`ParsedUnit`]. Lowering stays stage-typed — the artifacts feed each
//! other (the Rust boundary check consumes the C frontend's lowered
//! program), so each stage's `run` keeps its concrete signature and
//! [`crate::api`] sequences them in [`FRONTENDS`] order under each
//! frontend's [`Phase`].
//!
//! Adding a language pair means implementing [`Frontend`], appending the
//! implementation to [`FRONTENDS`], and giving its lowering a stage module
//! next to [`super::frontend_ml`], [`super::frontend_c`] and
//! [`super::frontend_rust`].

use super::{frontend_c, frontend_ml, frontend_rust};
use crate::api::SourceKind;
use ffisafe_cil as cil;
use ffisafe_ocaml as ocaml;
use ffisafe_rustffi as rustffi;
use ffisafe_support::{Diagnostic, DiagnosticCode, Phase, Session, Severity, Span};

/// One corpus file parsed by some frontend, still carrying its
/// language-typed payload.
#[derive(Debug)]
pub enum ParsedUnit {
    /// An OCaml interface/implementation file.
    Ml(ocaml::ParsedFile),
    /// A C translation unit.
    C(cil::CUnit),
    /// The boundary surface of a Rust file.
    Rust(rustffi::ParsedRustFile),
}

/// A language frontend behind the pipeline's parsing stage.
///
/// Implementations must be stateless (the registry shares one `'static`
/// instance across concurrent analyses); all per-run state lives in the
/// [`Session`] threaded through [`Frontend::parse`].
pub trait Frontend: Sync {
    /// Stable identifier, used in telemetry labels and cache recipes.
    fn id(&self) -> &'static str;

    /// The pipeline phase this frontend's lowering is timed and traced
    /// under ([`Phase::span_name`] names the emitted span).
    fn phase(&self) -> Phase;

    /// Whether this frontend claims corpus files of `kind`.
    fn handles(&self, kind: SourceKind) -> bool;

    /// Parses one source into the session: registers the file in the
    /// source map, interns declared names, and reports parse errors to the
    /// session's diagnostic sink. Never fails — frontends recover and
    /// return a partial unit.
    fn parse(&self, session: &mut Session, name: &str, src: &str) -> ParsedUnit;
}

/// The OCaml frontend: `external` declarations and type definitions
/// (`.ml`/`.mli`).
pub struct MlFrontend;

impl Frontend for MlFrontend {
    fn id(&self) -> &'static str {
        "ml"
    }

    fn phase(&self) -> Phase {
        Phase::FrontendMl
    }

    fn handles(&self, kind: SourceKind) -> bool {
        kind == SourceKind::Ml
    }

    fn parse(&self, session: &mut Session, name: &str, src: &str) -> ParsedUnit {
        ParsedUnit::Ml(frontend_ml::parse(session, name, src))
    }
}

/// The C frontend: glue code lowered to the Figure 5 IR (`.c`/`.h`).
pub struct CFrontend;

impl Frontend for CFrontend {
    fn id(&self) -> &'static str {
        "c"
    }

    fn phase(&self) -> Phase {
        Phase::FrontendC
    }

    fn handles(&self, kind: SourceKind) -> bool {
        kind == SourceKind::C
    }

    fn parse(&self, session: &mut Session, name: &str, src: &str) -> ParsedUnit {
        ParsedUnit::C(frontend_c::parse(session, name, src))
    }
}

/// The Rust frontend: `extern "C"` boundary surfaces (`.rs`), checked for
/// layout agreement against the C program.
pub struct RustFrontend;

impl Frontend for RustFrontend {
    fn id(&self) -> &'static str {
        "rust"
    }

    fn phase(&self) -> Phase {
        Phase::FrontendRust
    }

    fn handles(&self, kind: SourceKind) -> bool {
        kind == SourceKind::Rust
    }

    fn parse(&self, session: &mut Session, name: &str, src: &str) -> ParsedUnit {
        ParsedUnit::Rust(frontend_rust::parse(session, name, src))
    }
}

/// Reports a frontend's recoverable parse errors to the session's
/// diagnostic sink as `N001` notes, in the order the parser recorded them.
pub(super) fn emit_parse_errors(session: &mut Session, errors: &[(Span, String)]) {
    for (span, msg) in errors {
        session.emit(
            Diagnostic::new(DiagnosticCode::Context, *span, msg.clone())
                .with_severity(Severity::Note),
        );
    }
}

/// Every registered frontend, in pipeline stage order.
pub static FRONTENDS: [&dyn Frontend; 3] = [&MlFrontend, &CFrontend, &RustFrontend];

/// The frontend owning files of `kind`. Total: every [`SourceKind`] is
/// claimed by exactly one registered frontend, which the registry test
/// locks in.
pub fn frontend_for(kind: SourceKind) -> &'static dyn Frontend {
    FRONTENDS
        .iter()
        .copied()
        .find(|f| f.handles(kind))
        .expect("every source kind has a registered frontend")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_claims_every_kind_exactly_once() {
        for kind in [SourceKind::Ml, SourceKind::C, SourceKind::Rust] {
            let claims = FRONTENDS.iter().filter(|f| f.handles(kind)).count();
            assert_eq!(claims, 1, "{kind:?} must have exactly one frontend");
        }
        assert_eq!(frontend_for(SourceKind::Ml).id(), "ml");
        assert_eq!(frontend_for(SourceKind::C).id(), "c");
        assert_eq!(frontend_for(SourceKind::Rust).id(), "rust");
    }

    #[test]
    fn ids_and_phases_are_distinct() {
        let ids: Vec<_> = FRONTENDS.iter().map(|f| f.id()).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate frontend id: {ids:?}");
        let phases: Vec<_> = FRONTENDS.iter().map(|f| f.phase()).collect();
        assert_eq!(phases, [Phase::FrontendMl, Phase::FrontendC, Phase::FrontendRust]);
    }

    #[test]
    fn parse_dispatches_to_the_claimed_frontend() {
        let mut session = Session::new();
        let unit = frontend_for(SourceKind::Rust).parse(
            &mut session,
            "lib.rs",
            r#"extern "C" { fn f(x: i32) -> i32; }"#,
        );
        match unit {
            ParsedUnit::Rust(file) => assert_eq!(file.imports.len(), 1),
            other => panic!("expected a Rust unit, got {other:?}"),
        }
        let unit = frontend_for(SourceKind::C).parse(&mut session, "a.c", "int f(int x);");
        assert!(matches!(unit, ParsedUnit::C(_)));
        let unit = frontend_for(SourceKind::Ml).parse(&mut session, "a.ml", "type t");
        assert!(matches!(unit, ParsedUnit::Ml(_)));
    }
}
