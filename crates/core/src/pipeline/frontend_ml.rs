//! Pipeline stage 1: the OCaml frontend (§3.1, §5.1).
//!
//! Parses `.ml` sources into the session, builds the central type
//! repository, and translates every `external` declaration through the
//! Φ/ρ mapping of Figure 4, producing the [`MlArtifact`] that seeds the
//! initial environment `Γ_I` of the C phase.

use super::frontend::emit_parse_errors;
use ffisafe_ocaml as ocaml;
use ffisafe_support::{Diagnostic, DiagnosticCode, Session, Severity};
use ffisafe_types::TypeTable;

/// Output of the OCaml frontend stage.
#[derive(Debug)]
pub struct MlArtifact {
    /// The central type repository, built from every parsed file.
    pub repo: ocaml::TypeRepository,
    /// Φ-translated `external` signatures (phase 1 of the paper).
    pub phase1: ocaml::translate::Phase1,
}

/// Parses one OCaml source into the session: registers the file in the
/// session source map, interns every declared name, and reports parse
/// errors to the session's diagnostic sink.
pub fn parse(session: &mut Session, name: &str, src: &str) -> ocaml::ParsedFile {
    let file = session.add_file(name, src);
    let parsed = ocaml::parser::parse(file, src);
    emit_parse_errors(session, &parsed.errors);
    for item in &parsed.items {
        match item {
            ocaml::Item::Type(d) => {
                session.intern(&d.name);
            }
            ocaml::Item::External(e) => {
                session.intern(&e.ml_name);
                for c_name in &e.c_names {
                    session.intern(c_name);
                }
            }
        }
    }
    parsed
}

/// Runs the stage: registers all parsed files and translates the
/// externals into `table`.
pub fn run(
    session: &mut Session,
    files: &[ocaml::ParsedFile],
    table: &mut TypeTable,
) -> MlArtifact {
    let mut repo = ocaml::TypeRepository::new();
    for f in files {
        repo.register_file(f);
    }
    let externals: Vec<ocaml::ExternalDecl> = files
        .iter()
        .flat_map(|f| f.items.iter())
        .filter_map(|i| match i {
            ocaml::Item::External(e) => Some(e.clone()),
            _ => None,
        })
        .collect();
    let phase1 = ocaml::translate::translate_program(&repo, &externals, table);
    for issue in &phase1.issues {
        match issue {
            // Note severity: the per-use imprecision (P005) is the engine's
            // report; the declaration-level issue is context for it, and
            // must not disturb the Figure 9 counts.
            ocaml::translate::TranslateIssue::PolyVariant { span, external } => {
                session.emit(
                    Diagnostic::new(
                        DiagnosticCode::PolymorphicVariant,
                        *span,
                        format!(
                            "external `{external}` involves a polymorphic variant type, which the analysis does not model; reports touching it may be spurious"
                        ),
                    )
                    .with_severity(Severity::Note),
                );
            }
            ocaml::translate::TranslateIssue::UnknownType { name, span } => {
                session.emit(
                    Diagnostic::new(
                        DiagnosticCode::Context,
                        *span,
                        format!("type `{name}` has no declaration here; treated as opaque"),
                    )
                    .with_severity(Severity::Note),
                );
            }
        }
    }
    MlArtifact { repo, phase1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_interns_declared_names_into_session() {
        let mut session = Session::new();
        let parsed = parse(
            &mut session,
            "t.ml",
            r#"
                type t = A of int | B
                external examine : t -> int = "ml_examine"
            "#,
        );
        assert_eq!(parsed.items.len(), 2);
        assert!(session.interner().get("t").is_some());
        assert!(session.interner().get("examine").is_some());
        assert!(session.interner().get("ml_examine").is_some());
    }

    #[test]
    fn run_translates_externals() {
        let mut session = Session::new();
        let parsed = parse(&mut session, "t.ml", r#"external double : int -> int = "ml_double""#);
        let mut table = TypeTable::new();
        let ml = run(&mut session, &[parsed], &mut table);
        assert_eq!(ml.phase1.signatures.len(), 1);
        assert!(ml.phase1.signature_for_c("ml_double").is_some());
    }

    #[test]
    fn parse_errors_land_in_session_sink() {
        let mut session = Session::new();
        let _ = parse(&mut session, "bad.ml", "type = = =");
        assert!(!session.diagnostics().is_empty());
    }
}
