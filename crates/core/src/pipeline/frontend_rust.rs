//! Pipeline stage 2½: the Rust frontend — the third language pair.
//!
//! Where [`super::frontend_ml`]/[`super::frontend_c`] check *runtime
//! representation agreement* through the OCaml `value` encoding, this
//! stage checks *layout agreement* across `extern "C"`: it merges the
//! boundary surfaces parsed out of the corpus's `.rs` files into one
//! [`ffisafe_rustffi::RustProgram`] and compares every import/export
//! signature against the C program lowered by the C frontend, emitting
//! `E011`–`E014` / `W004` diagnostics through the session sink.
//!
//! The whole boundary check is memoized as **one tier-1 cache entry**
//! keyed by [`super::cache::rust_check_fingerprint`] — the merged Rust
//! surface plus the C signature surface (never C function bodies). A C
//! body edit or an `.ml` edit leaves the key unchanged; any `.rs`
//! boundary edit or C signature edit invalidates exactly this entry while
//! every per-function OCaml/C outcome survives (the Rust surface never
//! reaches [`super::cache::base_state_digest`]).

use super::cache::{self, PipelineCache};
use super::frontend::emit_parse_errors;
use ffisafe_cache::Tier;
use ffisafe_cil as cil;
use ffisafe_rustffi as rustffi;
use ffisafe_support::Session;

/// Output of the Rust frontend stage: the merged corpus boundary surface.
#[derive(Debug, Default)]
pub struct RustArtifact {
    /// Every import, export, type declaration and alias across the
    /// corpus's `.rs` files.
    pub program: rustffi::RustProgram,
    /// Whether the boundary check was replayed from the cache instead of
    /// recomputed.
    pub check_cached: bool,
    /// Whether the store held the check's entry but its payload failed to
    /// decode, so the check was recomputed.
    pub check_rejected: bool,
}

/// Parses one Rust source into the session: registers the file in the
/// session source map and reports recoverable parse errors to the
/// session's diagnostic sink, exactly like the C frontend does.
pub fn parse(session: &mut Session, name: &str, src: &str) -> rustffi::ParsedRustFile {
    let file = session.add_file(name, src);
    let parsed = rustffi::parser::parse(file, name, src);
    emit_parse_errors(session, &parsed.errors);
    parsed
}

/// Runs the stage: merges the parsed files, interns every boundary link
/// name, and checks the surface against the C program (replaying the
/// memoized verdict when the cache already holds it).
pub fn run(
    session: &mut Session,
    files: &[rustffi::ParsedRustFile],
    c: &cil::IrProgram,
    pcache: Option<&PipelineCache>,
) -> RustArtifact {
    let program = rustffi::RustProgram::merge(files);
    for f in &program.imports {
        session.intern(&f.link_name);
    }
    for s in &program.statics {
        session.intern(&s.link_name);
    }
    for f in &program.exports {
        session.intern(&f.link_name);
    }
    if files.is_empty() {
        return RustArtifact { program, check_cached: false, check_rejected: false };
    }

    let fp = pcache.map(|_| cache::rust_check_fingerprint(session.options(), &program, c));
    let mut check_rejected = false;
    if let (Some(pc), Some(fp)) = (pcache, fp) {
        if let Some(bytes) = pc.get(Tier::Function, fp) {
            match cache::decode_diagnostics(&bytes) {
                Some(bag) => {
                    for d in bag.iter() {
                        session.emit(d.clone());
                    }
                    return RustArtifact { program, check_cached: true, check_rejected: false };
                }
                None => check_rejected = true,
            }
        }
    }

    let bag = rustffi::check(&program, c);
    if let (Some(pc), Some(fp)) = (pcache, fp) {
        pc.put(Tier::Function, fp, &cache::encode_diagnostics(&bag));
    }
    for d in bag.iter() {
        session.emit(d.clone());
    }
    RustArtifact { program, check_cached: false, check_rejected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffisafe_support::DiagnosticCode;

    fn c_program(session: &mut Session, src: &str) -> cil::IrProgram {
        let unit = super::super::frontend_c::parse(session, "glue.c", src);
        super::super::frontend_c::run(session, &[unit]).program
    }

    #[test]
    fn merges_and_checks_against_c() {
        let mut session = Session::new();
        let c = c_program(&mut session, "int add(int a, int b) { return a + b; }");
        let parsed = parse(
            &mut session,
            "lib.rs",
            r#"extern "C" { fn add(a: i32, b: i32, c: i32) -> i32; }"#,
        );
        let art = run(&mut session, &[parsed], &c, None);
        assert_eq!(art.program.imports.len(), 1);
        assert!(!art.check_cached);
        assert!(session.interner().get("add").is_some());
        let codes: Vec<_> = session.diagnostics().iter().map(|d| d.code()).collect();
        assert_eq!(codes, [DiagnosticCode::RustArityMismatch]);
    }

    #[test]
    fn parse_errors_land_in_session_sink() {
        let mut session = Session::new();
        let _ = parse(&mut session, "bad.rs", r#"extern "C" { 42 }"#);
        assert!(!session.diagnostics().is_empty());
    }

    #[test]
    fn cache_replays_the_boundary_check() {
        let dir = std::env::temp_dir().join(format!("ffisafe-rustfe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pc = PipelineCache::open(&dir).unwrap();

        let mut session = Session::new();
        let c = c_program(&mut session, "int add(int a, int b) { return a + b; }");
        let src = r#"extern "C" { fn add(a: i32, b: i32, c: i32) -> i32; }"#;
        let parsed = parse(&mut session, "lib.rs", src);
        let cold = run(&mut session, &[parsed], &c, Some(&pc));
        assert!(!cold.check_cached);
        let cold_diags: Vec<String> =
            session.diagnostics().iter().map(|d| d.message().to_string()).collect();

        let mut session2 = Session::new();
        let c2 = c_program(&mut session2, "int add(int a, int b) { return a + b; }");
        let parsed2 = parse(&mut session2, "lib.rs", src);
        let warm = run(&mut session2, &[parsed2], &c2, Some(&pc));
        assert!(warm.check_cached, "identical surface must replay");
        let warm_diags: Vec<String> =
            session2.diagnostics().iter().map(|d| d.message().to_string()).collect();
        assert_eq!(cold_diags, warm_diags);

        // A C *body* edit leaves the signature surface (and the key) alone…
        let mut session3 = Session::new();
        let c3 = c_program(&mut session3, "int add(int a, int b) { return b + a; }");
        let parsed3 = parse(&mut session3, "lib.rs", src);
        let body_edit = run(&mut session3, &[parsed3], &c3, Some(&pc));
        assert!(body_edit.check_cached, "C body edits must not invalidate");

        // …while an edited Rust boundary misses and is recomputed.
        let mut session4 = Session::new();
        let c4 = c_program(&mut session4, "int add(int a, int b) { return a + b; }");
        let parsed4 =
            parse(&mut session4, "lib.rs", r#"extern "C" { fn add(a: i32, b: i32) -> i32; }"#);
        let edited = run(&mut session4, &[parsed4], &c4, Some(&pc));
        assert!(!edited.check_cached, "boundary edit must invalidate");
        assert!(session4.diagnostics().is_empty(), "fixed arity is clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_file_set_skips_the_store() {
        let mut session = Session::new();
        let c = cil::IrProgram::default();
        let art = run(&mut session, &[], &c, None);
        assert!(art.program.is_empty());
        assert!(session.diagnostics().is_empty());
    }
}
