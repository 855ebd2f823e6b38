//! Known-answer checks on every verdict.
//!
//! Daemon replies are scored from their `rendered_stable` text and sweep
//! results from their diagnostic rows; both reduce to [`Finding`]s, which
//! [`check`] compares against the corpus's [`Expect`]ation.

use crate::inputs::Expect;
use ffisafe_bench::corpus::SeedKind;
use std::collections::HashSet;

/// One reported diagnostic, reduced to what scoring reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// File the diagnostic points into.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// `error`, `warning`, `imprecision` or `note`.
    pub severity: String,
    /// Stable code (`E001`, …).
    pub code: String,
}

/// Parses the diagnostic lines of a stable text report
/// (`file:line:col: severity [CODE]: message`). Note lines (indented) and
/// the summary line carry no verdict of their own and are skipped.
pub fn parse_rendered(text: &str) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if lines.peek().is_none() {
            // The summary line closes every report.
            if !line.contains(" error(s), ") {
                return Err(format!("report does not end with a summary line: {line:?}"));
            }
            break;
        }
        if line.starts_with("  ") {
            continue;
        }
        let bad = || format!("unparseable diagnostic line {line:?}");
        let mut parts = line.splitn(4, ':');
        let (Some(file), Some(row), Some(_col), Some(rest)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        let rest = rest.strip_prefix(' ').ok_or_else(bad)?;
        let (severity, rest) = rest.split_once(" [").ok_or_else(bad)?;
        let (code, _) = rest.split_once("]: ").ok_or_else(bad)?;
        findings.push(Finding {
            file: file.to_string(),
            line: row.parse().map_err(|_| bad())?,
            severity: severity.to_string(),
            code: code.to_string(),
        });
    }
    Ok(findings)
}

/// Checks a verdict against its known answer. `Err` lists every
/// discrepancy.
pub fn check(expect: &Expect, findings: &[Finding]) -> Result<(), String> {
    match expect {
        Expect::Figure9(bench) => check_figure9(bench, findings),
        Expect::Example(expected) => {
            let mut got: Vec<(&str, &str)> = findings
                .iter()
                .filter(|f| f.severity != "note")
                .map(|f| (f.severity.as_str(), f.code.as_str()))
                .collect();
            let mut want = expected.clone();
            got.sort_unstable();
            want.sort_unstable();
            if got == want {
                Ok(())
            } else {
                Err(format!("expected {want:?}, got {got:?}"))
            }
        }
    }
}

/// The rules of `ffisafe_bench::figure9::score`: every non-note report
/// must fall in a seeded function of a kind that explains it (no
/// unexpected report), and every seed must be confirmed (no missed seed).
fn check_figure9(bench: &ffisafe_bench::Benchmark, findings: &[Finding]) -> Result<(), String> {
    let mut hit_errors: HashSet<&str> = HashSet::new();
    let mut hit_warnings: HashSet<&str> = HashSet::new();
    let mut hit_imprecision: HashSet<&str> = HashSet::new();
    let mut false_pos = 0usize;
    let mut problems = Vec::new();
    for f in findings.iter().filter(|f| f.severity != "note") {
        let func = if f.file.ends_with(".c") {
            bench.func_at_c_line(f.line)
        } else {
            bench.func_at_ml_line(f.line)
        };
        let unexpected =
            || format!("unexpected {} [{}] at {}:{}", f.severity, f.code, f.file, f.line);
        let Some(func) = func else {
            problems.push(unexpected());
            continue;
        };
        match func.seed {
            None => problems.push(unexpected()),
            Some(kind) if kind.is_true_defect() => {
                if f.severity == "error" {
                    hit_errors.insert(&func.name);
                }
            }
            Some(kind) if kind.is_warning() => {
                if f.severity == "warning" {
                    hit_warnings.insert(&func.name);
                } else {
                    problems.push(unexpected());
                }
            }
            Some(kind) if kind.is_false_positive_source() => match f.severity.as_str() {
                "error" | "warning" => false_pos += 1,
                _ => problems.push(unexpected()),
            },
            Some(_) => {
                if f.severity == "imprecision" {
                    hit_imprecision.insert(&func.name);
                } else {
                    problems.push(unexpected());
                }
            }
        }
    }
    for f in &bench.funcs {
        let Some(kind) = f.seed else { continue };
        let hit = match kind {
            k if k.is_true_defect() => hit_errors.contains(f.name.as_str()),
            k if k.is_warning() => hit_warnings.contains(f.name.as_str()),
            k if k.is_imprecision() => hit_imprecision.contains(f.name.as_str()),
            SeedKind::PolyVariantFp | SeedKind::DisguisedPtrFp => false_pos > 0,
            _ => true,
        };
        if !hit {
            problems.push(format!("missed {kind:?} in {}", f.name));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Shows that the checker rejects a wrong answer: `findings` must pass
/// against `expect` and fail once the expectation is corrupted (a seed
/// added to a clean function, or an extra defect expected of an example).
pub fn self_test(expect: &Expect, findings: &[Finding]) -> Result<(), String> {
    check(expect, findings).map_err(|e| format!("self-test input does not pass: {e}"))?;
    let corrupted = match expect {
        Expect::Figure9(bench) => {
            let mut bench = (**bench).clone();
            let clean = bench
                .funcs
                .iter_mut()
                .find(|f| f.seed.is_none())
                .ok_or("self-test library has no clean function")?;
            clean.seed = Some(SeedKind::TypeConfusion);
            Expect::Figure9(std::sync::Arc::new(bench))
        }
        Expect::Example(expected) => {
            let mut expected = expected.clone();
            expected.push(("error", "E001"));
            Expect::Example(expected)
        }
    };
    match check(&corrupted, findings) {
        Err(_) => Ok(()),
        Ok(()) => Err("a corrupted expected answer still passed".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{figure9_job, spec};
    use ffisafe_core::{AnalysisRequest, AnalysisService, Corpus};

    fn verdict(corpus: &Corpus) -> Vec<Finding> {
        let report = AnalysisService::new().analyze(&AnalysisRequest::new(corpus.clone())).unwrap();
        parse_rendered(&report.render_stable()).unwrap()
    }

    #[test]
    fn rendered_reports_parse_into_findings() {
        let text = "glue.c:4:5: error [E001]: bad\n  glue.c:3:1: note: here\nlib.ml:2:1: warning [W001]: odd: really\n1 error(s), 1 warning(s), 0 imprecision report(s) — 9 lines C, 2 lines OCaml\n";
        let findings = parse_rendered(text).unwrap();
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[1].severity, "warning");
        assert_eq!(findings[1].code, "W001");
        assert!(parse_rendered("glue.c:4:5 error\n").is_err());
    }

    #[test]
    fn figure9_verdicts_pass_and_a_corrupted_answer_fails() {
        let job = figure9_job(&spec("ocaml-ssl-0.1.0"));
        let findings = verdict(&job.corpus);
        assert!(!findings.is_empty());
        self_test(&job.expect, &findings).unwrap();
        // A dropped report is a missed seed.
        assert!(check(&job.expect, &findings[1..]).is_err());
    }

    #[test]
    fn example_verdicts_pass_and_a_corrupted_answer_fails() {
        let expect = Expect::Example(vec![("error", "E001")]);
        let findings = vec![Finding {
            file: "s.c".into(),
            line: 6,
            severity: "error".into(),
            code: "E001".into(),
        }];
        self_test(&expect, &findings).unwrap();
        assert!(check(&Expect::Example(vec![]), &findings).is_err());
    }
}
