//! The sweep reducer: merges per-library results — structured
//! [`AnalysisReport`]s from in-process runs, versioned JSON documents
//! from child processes — into one deterministic [`SweepReport`].
//!
//! Determinism is the whole contract: the reduced report is **byte
//! identical** for any shard partitioning, any shard arrival order, any
//! worker count and either map mode. The reducer earns that by (a)
//! normalizing both input shapes into the same [`LibraryReport`] rows,
//! (b) re-sorting everything by library name, and (c) excluding every
//! wall-clock or resource-usage field from the stable document (those
//! live in [`crate::MapStats`], which is reported separately and *is*
//! allowed to vary run to run).

use ffisafe_cache::CacheStats;
use ffisafe_core::{AnalysisReport, ReportSummary, REPORT_SCHEMA_VERSION};
use ffisafe_support::json::{self, escape_into, Json};

/// Version of the reduced sweep document emitted by
/// [`SweepReport::to_json`]. Bumped whenever a field changes meaning,
/// moves or disappears; adding fields does not bump it.
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

/// One note attached to a diagnostic, location resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagNote {
    /// File the note points into.
    pub file: String,
    /// 1-based line.
    pub line: u64,
    /// 1-based column.
    pub column: u64,
    /// The note text.
    pub message: String,
}

/// One diagnostic row, normalized from either map mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagRow {
    /// File the diagnostic points into.
    pub file: String,
    /// 1-based line.
    pub line: u64,
    /// 1-based column.
    pub column: u64,
    /// Severity, rendered (`error`, `warning`, `imprecision`, `note`).
    pub severity: String,
    /// Diagnostic code, rendered.
    pub code: String,
    /// The message.
    pub message: String,
    /// Attached notes.
    pub notes: Vec<DiagNote>,
}

/// Execution-side accounting for one library — everything that may vary
/// with cache temperature, worker count or hardware, and therefore stays
/// **out** of the stable sweep document. The executor folds these into
/// [`crate::MapStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LibraryExec {
    /// OCaml lines analyzed.
    pub ml_loc: usize,
    /// C lines analyzed.
    pub c_loc: usize,
    /// Rust lines analyzed.
    pub rust_loc: usize,
    /// C functions analyzed.
    pub functions: usize,
    /// Fixpoint passes.
    pub passes: usize,
    /// Wall-clock seconds for the library's analysis.
    pub seconds: f64,
    /// Summed per-function inference work (zero when replayed).
    pub work_seconds: f64,
    /// Tier-1 cache hits.
    pub cache_fn_hits: usize,
    /// Tier-1 cache misses.
    pub cache_fn_misses: usize,
    /// Functions analyzed by a live inference worker.
    pub workers_executed: usize,
    /// Whether the whole report came from the tier-2 report cache.
    pub report_hit: bool,
}

/// One library's reduced result: the stable rollup plus execution
/// accounting.
#[derive(Clone, Debug)]
pub struct LibraryReport {
    /// Library name (directory name under the corpus root).
    pub library: String,
    /// Source files analyzed.
    pub files: usize,
    /// Count rollup (identical to the per-report JSON `summary`).
    pub summary: ReportSummary,
    /// Every diagnostic, in report order.
    pub rows: Vec<DiagRow>,
    /// Execution accounting (excluded from the stable document).
    pub exec: LibraryExec,
}

impl LibraryReport {
    /// Normalizes an in-process [`AnalysisReport`] — structured access,
    /// no JSON round-trip.
    pub fn from_report(library: String, files: usize, report: &AnalysisReport) -> LibraryReport {
        let rows = report
            .diagnostics
            .iter()
            .map(|d| {
                let loc = report.source_map().resolve(d.span());
                DiagRow {
                    file: loc.file.clone(),
                    line: u64::from(loc.line),
                    column: u64::from(loc.col),
                    severity: d.severity().to_string(),
                    code: d.code().to_string(),
                    message: d.message().to_string(),
                    notes: d
                        .notes()
                        .iter()
                        .map(|(nspan, note)| {
                            let nloc = report.source_map().resolve(*nspan);
                            DiagNote {
                                file: nloc.file.clone(),
                                line: u64::from(nloc.line),
                                column: u64::from(nloc.col),
                                message: note.clone(),
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        let s = &report.stats;
        LibraryReport {
            library,
            files,
            summary: report.summary(),
            rows,
            exec: LibraryExec {
                ml_loc: s.ml_loc,
                c_loc: s.c_loc,
                rust_loc: s.rust_loc,
                functions: s.c_functions,
                passes: s.passes,
                seconds: s.seconds,
                work_seconds: s.infer_work_seconds,
                cache_fn_hits: s.cache_fn_hits,
                cache_fn_misses: s.cache_fn_misses,
                workers_executed: s.workers_executed,
                report_hit: s.cache_report_hit,
            },
        }
    }

    /// Normalizes a child process's versioned JSON report (the
    /// `--format json` document, schema version
    /// [`REPORT_SCHEMA_VERSION`]). Any structural problem — parse error,
    /// wrong schema version, missing field — is an `Err` the executor
    /// treats as a failed attempt (retryable).
    pub fn from_json(library: String, files: usize, text: &str) -> Result<LibraryReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing schema_version".to_string())?;
        if schema != u64::from(REPORT_SCHEMA_VERSION) {
            return Err(format!("report schema {schema} != supported {REPORT_SCHEMA_VERSION}"));
        }
        let summary = doc.get("summary").ok_or_else(|| "missing summary".to_string())?;
        let count = |key: &str| {
            summary
                .get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("summary.{key} missing or not a count"))
        };
        let summary = ReportSummary {
            errors: count("errors")?,
            warnings: count("warnings")?,
            imprecision: count("imprecision")?,
            notes: count("notes")?,
            diagnostics: count("diagnostics")?,
        };

        let rows = doc
            .get("diagnostics")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing diagnostics array".to_string())?
            .iter()
            .map(diag_row)
            .collect::<Result<Vec<DiagRow>, String>>()?;

        let stats = doc.get("stats").ok_or_else(|| "missing stats".to_string())?;
        let stat = |key: &str| {
            stats
                .get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("stats.{key} missing or not a count"))
        };
        let cache = stats.get("cache").ok_or_else(|| "missing stats.cache".to_string())?;
        let cache_count = |key: &str| {
            cache
                .get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("stats.cache.{key} missing or not a count"))
        };
        let exec = LibraryExec {
            ml_loc: stat("ml_loc")?,
            c_loc: stat("c_loc")?,
            rust_loc: stat("rust_loc")?,
            functions: stat("c_functions")?,
            passes: stat("passes")?,
            seconds: stats.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            work_seconds: stats.get("infer_work_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            cache_fn_hits: cache_count("fn_hits")?,
            cache_fn_misses: cache_count("fn_misses")?,
            workers_executed: cache_count("workers_executed")?,
            report_hit: cache
                .get("report_hit")
                .and_then(Json::as_bool)
                .ok_or_else(|| "stats.cache.report_hit missing".to_string())?,
        };
        Ok(LibraryReport { library, files, summary, rows, exec })
    }
}

fn loc_fields(v: &Json, what: &str) -> Result<(String, u64, u64), String> {
    let file = v
        .get("file")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}.file missing"))?
        .to_string();
    let line =
        v.get("line").and_then(Json::as_u64).ok_or_else(|| format!("{what}.line missing"))?;
    let column =
        v.get("column").and_then(Json::as_u64).ok_or_else(|| format!("{what}.column missing"))?;
    Ok((file, line, column))
}

fn diag_row(v: &Json) -> Result<DiagRow, String> {
    let (file, line, column) = loc_fields(v, "diagnostic")?;
    let field = |key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("diagnostic.{key} missing"))
    };
    let notes = v
        .get("notes")
        .and_then(Json::as_array)
        .ok_or_else(|| "diagnostic.notes missing".to_string())?
        .iter()
        .map(|n| {
            let (file, line, column) = loc_fields(n, "note")?;
            let message = n
                .get("message")
                .and_then(Json::as_str)
                .ok_or_else(|| "note.message missing".to_string())?
                .to_string();
            Ok(DiagNote { file, line, column, message })
        })
        .collect::<Result<Vec<DiagNote>, String>>()?;
    Ok(DiagRow {
        file,
        line,
        column,
        severity: field("severity")?,
        code: field("code")?,
        message: field("message")?,
        notes,
    })
}

/// A library that could not be analyzed after every retry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepFailure {
    /// Library name.
    pub library: String,
    /// What went wrong on the final attempt.
    pub error: String,
}

/// The reduced result of one sweep: per-library rollups, failures, and
/// the shared cache store's occupancy — and nothing that varies with
/// partitioning, arrival order, worker count, map mode or cache
/// temperature.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Per-library results, sorted by library name.
    pub libraries: Vec<LibraryReport>,
    /// Libraries that failed after every retry, sorted by name.
    pub failures: Vec<SweepFailure>,
    /// Occupancy of the shared cache store after the sweep (`None` when
    /// the sweep ran uncached). Occupancy is content-determined: entry
    /// count and live bytes are identical for any partitioning and for a
    /// warm re-sweep over an unchanged tree.
    pub cache_store: Option<CacheStats>,
}

impl SweepReport {
    /// Reduces normalized rows into the deterministic report (sorts by
    /// library name).
    pub fn reduce(
        mut libraries: Vec<LibraryReport>,
        mut failures: Vec<SweepFailure>,
        cache_store: Option<CacheStats>,
    ) -> SweepReport {
        let _span = ffisafe_support::telemetry::span_with("sweep.reduce", || {
            vec![("libraries", libraries.len().to_string())]
        });
        libraries.sort_by(|a, b| a.library.cmp(&b.library));
        failures.sort_by(|a, b| a.library.cmp(&b.library));
        SweepReport { libraries, failures, cache_store }
    }

    /// Cross-library count totals.
    pub fn summary(&self) -> ReportSummary {
        let mut total = ReportSummary::default();
        for lib in &self.libraries {
            total.errors += lib.summary.errors;
            total.warnings += lib.summary.warnings;
            total.imprecision += lib.summary.imprecision;
            total.notes += lib.summary.notes;
            total.diagnostics += lib.summary.diagnostics;
        }
        total
    }

    /// Total error findings across every library.
    pub fn error_count(&self) -> usize {
        self.summary().errors
    }

    /// The stable human-readable rollup: one line per library, failures,
    /// and the sweep total. Deterministic (no timings, no resource
    /// usage).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for lib in &self.libraries {
            out.push_str(&format!(
                "{}: {} error(s), {} warning(s), {} imprecision report(s) — {} file(s)\n",
                lib.library,
                lib.summary.errors,
                lib.summary.warnings,
                lib.summary.imprecision,
                lib.files,
            ));
        }
        for failure in &self.failures {
            out.push_str(&format!("{}: FAILED ({})\n", failure.library, failure.error));
        }
        let total = self.summary();
        out.push_str(&format!(
            "sweep: {} library(ies), {} failed — {} error(s), {} warning(s), {} imprecision report(s)\n",
            self.libraries.len(),
            self.failures.len(),
            total.errors,
            total.warnings,
            total.imprecision,
        ));
        out
    }

    /// The versioned machine-readable sweep document.
    ///
    /// Schema (v1, see [`SWEEP_SCHEMA_VERSION`]):
    ///
    /// ```text
    /// {
    ///   "sweep_schema_version": 1,
    ///   "tool": "ffisafe",
    ///   "tool_version": "<crate version>",
    ///   "libraries": N,
    ///   "summary": { "errors", "warnings", "imprecision", "notes",
    ///                "diagnostics" },
    ///   "library_reports": [ { "library", "files", "summary": {…},
    ///       "diagnostics": [ { "file", "line", "column", "severity",
    ///                          "code", "message", "notes": […] } ] } ],
    ///   "failures": [ { "library", "error" } ],
    ///   "cache_store": { "entries", "live_bytes" } | null
    /// }
    /// ```
    ///
    /// Byte-identical for any shard partitioning, shard arrival order,
    /// worker count or map mode over the same tree and options — and for
    /// a warm re-sweep over an unchanged tree. Wall-clock and hit/miss
    /// accounting deliberately live elsewhere ([`crate::MapStats`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"sweep_schema_version\": {SWEEP_SCHEMA_VERSION},\n"));
        out.push_str("  \"tool\": \"ffisafe\",\n");
        out.push_str(&format!("  \"tool_version\": \"{}\",\n", env!("CARGO_PKG_VERSION")));
        out.push_str(&format!("  \"libraries\": {},\n", self.libraries.len()));
        let total = self.summary();
        push_summary(&mut out, "  \"summary\": ", &total);
        out.push_str(",\n  \"library_reports\": [");
        for (i, lib) in self.libraries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"library\": \"");
            escape_into(&mut out, &lib.library);
            out.push_str(&format!("\", \"files\": {}, ", lib.files));
            push_summary(&mut out, "\"summary\": ", &lib.summary);
            out.push_str(", \"diagnostics\": [");
            for (j, row) in lib.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      {");
                push_loc(&mut out, &row.file, row.line, row.column);
                out.push_str(&format!(
                    ", \"severity\": \"{}\", \"code\": \"{}\", \"message\": \"",
                    { &row.severity },
                    { &row.code }
                ));
                escape_into(&mut out, &row.message);
                out.push_str("\", \"notes\": [");
                for (k, note) in row.notes.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push('{');
                    push_loc(&mut out, &note.file, note.line, note.column);
                    out.push_str(", \"message\": \"");
                    escape_into(&mut out, &note.message);
                    out.push_str("\"}");
                }
                out.push_str("]}");
            }
            out.push_str(if lib.rows.is_empty() { "]}" } else { "\n    ]}" });
        }
        out.push_str(if self.libraries.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"failures\": [");
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"library\": \"");
            escape_into(&mut out, &failure.library);
            out.push_str("\", \"error\": \"");
            escape_into(&mut out, &failure.error);
            out.push_str("\"}");
        }
        out.push_str(if self.failures.is_empty() { "],\n" } else { "\n  ],\n" });
        // Occupancy only: entries and live bytes are content-determined.
        // Evictions (and every hit/miss counter) are store-*lifetime*
        // numbers that depend on which process opened the store when, so
        // they live in the run-varying accounting (`--timings` stderr,
        // [`crate::MapStats`]), never in this document.
        match &self.cache_store {
            Some(stats) => out.push_str(&format!(
                "  \"cache_store\": {{\"entries\": {}, \"live_bytes\": {}}}\n",
                stats.entries, stats.live_bytes
            )),
            None => out.push_str("  \"cache_store\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

fn push_summary(out: &mut String, prefix: &str, s: &ReportSummary) {
    out.push_str(&format!(
        "{prefix}{{\"errors\": {}, \"warnings\": {}, \"imprecision\": {}, \"notes\": {}, \"diagnostics\": {}}}",
        s.errors, s.warnings, s.imprecision, s.notes, s.diagnostics
    ));
}

fn push_loc(out: &mut String, file: &str, line: u64, column: u64) {
    out.push_str("\"file\": \"");
    escape_into(out, file);
    out.push_str(&format!("\", \"line\": {line}, \"column\": {column}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffisafe_core::{AnalysisRequest, AnalysisService, Corpus};

    fn buggy_report() -> AnalysisReport {
        let corpus = Corpus::builder()
            .ml_source("lib.ml", r#"external f : int -> int = "ml_f""#)
            .c_source("glue.c", "value ml_f(value n) { return Val_int(n); }")
            .build();
        AnalysisService::new().analyze(&AnalysisRequest::new(corpus)).unwrap()
    }

    #[test]
    fn from_report_and_from_json_normalize_identically() {
        let report = buggy_report();
        let structured = LibraryReport::from_report("lib".into(), 2, &report);
        let parsed = LibraryReport::from_json("lib".into(), 2, &report.to_json()).unwrap();
        assert_eq!(structured.summary, parsed.summary);
        assert_eq!(structured.rows, parsed.rows);
        assert_eq!(structured.exec.functions, parsed.exec.functions);
        assert_eq!(structured.exec.report_hit, parsed.exec.report_hit);
        assert!(structured.summary.errors >= 1, "premise: the corpus is buggy");
        // the two normalizations reduce to byte-identical sweep documents
        let a = SweepReport::reduce(vec![structured], vec![], None);
        let b = SweepReport::reduce(vec![parsed], vec![], None);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn reduce_sorts_by_library_name_and_totals_counts() {
        let report = buggy_report();
        let zeta = LibraryReport::from_report("zeta".into(), 2, &report);
        let alpha = LibraryReport::from_report("alpha".into(), 2, &report);
        let reduced = SweepReport::reduce(
            vec![zeta, alpha],
            vec![SweepFailure { library: "omega".into(), error: "spawn failed".into() }],
            None,
        );
        assert_eq!(reduced.libraries[0].library, "alpha");
        assert_eq!(reduced.libraries[1].library, "zeta");
        let total = reduced.summary();
        assert_eq!(total.errors, reduced.libraries.iter().map(|l| l.summary.errors).sum());
        assert!(reduced.render().contains("omega: FAILED (spawn failed)"));
        assert!(reduced.render().ends_with("imprecision report(s)\n"));
    }

    #[test]
    fn sweep_json_is_versioned_and_parseable() {
        let report = buggy_report();
        let lib = LibraryReport::from_report("lib".into(), 2, &report);
        let stats = CacheStats { entries: 3, live_bytes: 120, ..CacheStats::default() };
        let reduced = SweepReport::reduce(vec![lib], vec![], Some(stats));
        let doc = json::parse(&reduced.to_json()).expect("valid JSON");
        assert_eq!(doc.get("sweep_schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("libraries").and_then(Json::as_u64), Some(1));
        let store = doc.get("cache_store").unwrap();
        assert_eq!(store.get("entries").and_then(Json::as_u64), Some(3));
        assert_eq!(store.get("live_bytes").and_then(Json::as_u64), Some(120));
        assert!(
            store.get("evictions").is_none(),
            "evictions is a store-lifetime counter, not content-determined occupancy"
        );
        let libs = doc.get("library_reports").and_then(Json::as_array).unwrap();
        let diags = libs[0].get("diagnostics").and_then(Json::as_array).unwrap();
        assert!(!diags.is_empty());
        assert!(diags[0].get("severity").and_then(Json::as_str).is_some());
        // uncached sweeps say so explicitly
        let uncached = SweepReport::reduce(vec![], vec![], None);
        assert!(uncached.to_json().contains("\"cache_store\": null"));
    }

    #[test]
    fn from_json_rejects_structural_problems() {
        assert!(LibraryReport::from_json("l".into(), 1, "not json").is_err());
        assert!(LibraryReport::from_json("l".into(), 1, "{}").is_err());
        let wrong_schema = r#"{"schema_version": 999}"#;
        let err = LibraryReport::from_json("l".into(), 1, wrong_schema).unwrap_err();
        assert!(err.contains("999"), "{err}");
    }
}
