//! Pipeline stage 2: the C frontend (§3.2, §5.1).
//!
//! Parses C glue sources into the session and lowers every unit to the
//! flat, labeled IR of Figure 5, merging them into one [`CArtifact`]
//! program for the inference stage.

use super::frontend::emit_parse_errors;
use ffisafe_cil as cil;
use ffisafe_support::Session;

/// Output of the C frontend stage: the whole-program Figure 5 IR.
#[derive(Debug, Default)]
pub struct CArtifact {
    /// All lowered functions, prototypes and globals, in input order.
    pub program: cil::IrProgram,
}

/// Parses one C source into the session: registers the file in the
/// session source map, interns every defined function name, and reports
/// parse errors to the session's diagnostic sink.
pub fn parse(session: &mut Session, name: &str, src: &str) -> cil::CUnit {
    let file = session.add_file(name, src);
    let unit = cil::parser::parse(file, src);
    emit_parse_errors(session, &unit.errors);
    unit
}

/// Runs the stage: lowers every parsed unit and merges the results.
pub fn run(session: &mut Session, units: &[cil::CUnit]) -> CArtifact {
    let mut program = cil::IrProgram::default();
    for unit in units {
        let lowered = cil::lower::lower_unit(unit);
        program.functions.extend(lowered.functions);
        program.prototypes.extend(lowered.prototypes);
        program.globals.extend(lowered.globals);
        program.notes.extend(lowered.notes);
    }
    for f in &program.functions {
        session.intern(&f.name);
    }
    for p in &program.prototypes {
        session.intern(&p.name);
    }
    CArtifact { program }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_lower_one_unit() {
        let mut session = Session::new();
        let unit =
            parse(&mut session, "glue.c", "value ml_id(value x) { return x; }\nint helper(int n);");
        let c = run(&mut session, &[unit]);
        assert_eq!(c.program.functions.len(), 1);
        assert_eq!(c.program.prototypes.len(), 1);
        assert!(session.interner().get("ml_id").is_some());
        assert!(session.interner().get("helper").is_some());
    }

    #[test]
    fn units_merge_in_input_order() {
        let mut session = Session::new();
        let u1 = parse(&mut session, "a.c", "value f(value x) { return x; }");
        let u2 = parse(&mut session, "b.c", "value g(value x) { return x; }");
        let c = run(&mut session, &[u1, u2]);
        let names: Vec<_> = c.program.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
    }

    #[test]
    fn parse_errors_land_in_session_sink() {
        let mut session = Session::new();
        let _ = parse(&mut session, "bad.c", "value f(value x { return; ");
        assert!(!session.diagnostics().is_empty());
    }
}
