//! The analysis report.
//!
//! The engine itself lives in [`crate::api`]: [`crate::api::AnalysisService`]
//! parses a [`crate::api::Corpus`] through the frontend registry and runs
//! the pipeline stages — [`pipeline::frontend_ml`],
//! [`pipeline::frontend_c`], [`pipeline::frontend_rust`],
//! [`pipeline::infer`] (parallel), [`pipeline::discharge`]. This module
//! holds what comes *out*:
//! [`AnalysisReport`] with its stable rendering and versioned
//! [`AnalysisReport::to_json`] form.
//!
//! [`pipeline::frontend_ml`]: crate::pipeline::frontend_ml
//! [`pipeline::frontend_c`]: crate::pipeline::frontend_c
//! [`pipeline::frontend_rust`]: crate::pipeline::frontend_rust
//! [`pipeline::infer`]: crate::pipeline::infer
//! [`pipeline::discharge`]: crate::pipeline::discharge

use crate::pipeline::cache::CachedReport;
use ffisafe_support::json::escape_into;
use ffisafe_support::telemetry::{self, MetricsRegistry};
use ffisafe_support::{DiagnosticBag, DiagnosticCode, Loc, Phase, PhaseTimings, SourceMap};

/// Version of the structured report schema emitted by
/// [`AnalysisReport::to_json`]. Bumped whenever a field changes meaning,
/// moves or disappears; adding fields is backward-compatible and does not
/// bump it.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Whole-run statistics (benchmark metrics and the Figure 9 columns).
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// Lines of OCaml source added.
    pub ml_loc: usize,
    /// Lines of C source added.
    pub c_loc: usize,
    /// Lines of Rust source added.
    pub rust_loc: usize,
    /// Number of `external` declarations.
    pub externals: usize,
    /// Number of C function definitions analyzed.
    pub c_functions: usize,
    /// Rust boundary imports checked (`extern "C"` functions and statics).
    pub rust_externs: usize,
    /// Rust boundary exports checked (`#[no_mangle] extern "C" fn`).
    pub rust_exports: usize,
    /// Rust type declarations visible to the boundary checker.
    pub rust_types: usize,
    /// Whether the Rust boundary check was replayed from the tier-1 cache.
    pub rust_check_cached: bool,
    /// Total fixpoint passes across all functions.
    pub passes: usize,
    /// Arena nodes allocated (base table plus every worker's growth).
    pub type_nodes: usize,
    /// GC effect edges recorded.
    pub gc_edges: usize,
    /// Worker threads used by the inference stage.
    pub jobs: usize,
    /// Wall-clock seconds of the whole `analyze` call, from receiving the
    /// corpus to returning the report: parsing and the cache write-back
    /// included.
    pub seconds: f64,
    /// Sum of per-function inference wall-clock (total parallelizable
    /// work). Cache replays contribute zero.
    pub infer_work_seconds: f64,
    /// Portion of `infer_work_seconds` spent building per-worker overlay
    /// views (the former snapshot-clone tax). Cache replays contribute
    /// zero.
    pub infer_setup_seconds: f64,
    /// Slowest single function (lower bound on parallel inference time).
    pub infer_critical_path_seconds: f64,
    /// Functions replayed from the tier-1 (per-function) cache.
    pub cache_fn_hits: usize,
    /// Functions that missed the tier-1 cache (0 with caching disabled).
    pub cache_fn_misses: usize,
    /// Tier-1 store hits whose payload failed to decode — a function
    /// outcome or the Rust boundary check that was recomputed although
    /// the store held its entry.
    pub cache_fn_rejected: usize,
    /// Functions analyzed by a live inference worker this run.
    pub workers_executed: usize,
    /// Whether the whole report was served from the tier-2 (report) cache.
    pub cache_report_hit: bool,
}

/// The count rollup of one report — the structured equivalent of the
/// `summary` object in [`AnalysisReport::to_json`], so in-process shard
/// reducers aggregate counts without re-parsing the JSON they would have
/// emitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReportSummary {
    /// Error findings.
    pub errors: usize,
    /// Questionable-practice warnings.
    pub warnings: usize,
    /// Imprecision reports.
    pub imprecision: usize,
    /// Context notes (severity [`ffisafe_support::Severity::Note`]).
    pub notes: usize,
    /// All diagnostics, every severity.
    pub diagnostics: usize,
}

/// A concrete run-time check that would make an imprecise site safe
/// (§5.2's future-work direction, made actionable).
#[derive(Clone, Debug)]
pub struct RuntimeCheckSuggestion {
    /// The imprecision code the suggestion addresses.
    pub code: ffisafe_support::DiagnosticCode,
    /// Resolved source location of the imprecise site.
    pub location: ffisafe_support::Loc,
    /// What to insert.
    pub suggestion: String,
}

/// The result of one whole-program analysis.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// All findings, sorted by position — populated on cold runs and on
    /// tier-2 cache hits alike (the cache stores the structured
    /// diagnostics next to the rendered report).
    pub diagnostics: DiagnosticBag,
    /// Run statistics.
    pub stats: AnalysisStats,
    /// Cumulative wall-clock time per pipeline phase.
    pub timings: PhaseTimings,
    pub(crate) source_map: SourceMap,
    /// Set when this report was served from the tier-2 report cache.
    pub(crate) cached: Option<CachedReport>,
}

impl AnalysisReport {
    /// Number of error findings (Figure 9 "Errors" + false positives —
    /// ground-truth classification is the harness's job).
    pub fn error_count(&self) -> usize {
        match &self.cached {
            Some(c) => c.errors,
            None => self.diagnostics.count_errors(),
        }
    }

    /// Number of questionable-practice warnings.
    pub fn warning_count(&self) -> usize {
        match &self.cached {
            Some(c) => c.warnings,
            None => self.diagnostics.count_warnings(),
        }
    }

    /// Number of imprecision reports.
    pub fn imprecision_count(&self) -> usize {
        match &self.cached {
            Some(c) => c.imprecision,
            None => self.diagnostics.count_imprecision(),
        }
    }

    /// The source map used to resolve diagnostic spans.
    pub fn source_map(&self) -> &SourceMap {
        &self.source_map
    }

    /// The count rollup, identical to the `summary` object of
    /// [`AnalysisReport::to_json`] — and identical at any cache
    /// temperature (tier-2 hits store the structured diagnostics).
    pub fn summary(&self) -> ReportSummary {
        let notes = self
            .diagnostics
            .iter()
            .filter(|d| d.severity() == ffisafe_support::Severity::Note)
            .count();
        ReportSummary {
            errors: self.error_count(),
            warnings: self.warning_count(),
            imprecision: self.imprecision_count(),
            notes,
            diagnostics: self.diagnostics.len(),
        }
    }

    /// Feeds this report's timings, stats, and diagnostic counts into a
    /// [`MetricsRegistry`]. This is the single source both the CLI's
    /// `--timings` stderr renderer and the Prometheus `--metrics-out`
    /// export draw from, so the two cannot drift apart.
    pub fn feed_metrics(&self, reg: &mut MetricsRegistry) {
        for phase in Phase::ALL {
            let labels = [("phase", phase.name())];
            reg.set_gauge(
                "ffisafe_phase_wall_seconds",
                "Wall-clock seconds spent in each pipeline phase",
                &labels,
                self.timings.get(phase).as_secs_f64(),
            );
            reg.set_gauge(
                "ffisafe_phase_work_seconds",
                "Work seconds performed by each pipeline phase (= wall for serial phases)",
                &labels,
                self.timings.get_work(phase).as_secs_f64(),
            );
        }
        let s = &self.stats;
        reg.set_gauge(
            "ffisafe_analysis_seconds",
            "Wall-clock seconds for the whole analysis",
            &[],
            s.seconds,
        );
        reg.observe(
            "ffisafe_analysis_duration_seconds",
            "Distribution of whole-analysis wall-clock seconds",
            &[],
            telemetry::LATENCY_BUCKETS,
            s.seconds,
        );
        reg.set_gauge(
            "ffisafe_infer_setup_seconds",
            "Inference work spent building per-worker overlay views",
            &[],
            s.infer_setup_seconds,
        );
        reg.set_gauge(
            "ffisafe_infer_critical_path_seconds",
            "Slowest single function (lower bound on parallel inference)",
            &[],
            s.infer_critical_path_seconds,
        );
        reg.set_gauge("ffisafe_jobs", "Inference worker threads used", &[], s.jobs as f64);
        reg.set_gauge("ffisafe_ml_loc", "Lines of OCaml source analyzed", &[], s.ml_loc as f64);
        reg.set_gauge("ffisafe_c_loc", "Lines of C source analyzed", &[], s.c_loc as f64);
        reg.set_gauge(
            "ffisafe_c_functions",
            "C function definitions analyzed",
            &[],
            s.c_functions as f64,
        );
        reg.set_gauge(
            "ffisafe_frontend_rust_loc",
            "Lines of Rust source analyzed",
            &[],
            s.rust_loc as f64,
        );
        reg.set_gauge(
            "ffisafe_frontend_rust_externs",
            "Rust extern \"C\" imports checked against the C program",
            &[],
            s.rust_externs as f64,
        );
        reg.set_gauge(
            "ffisafe_frontend_rust_exports",
            "Rust #[no_mangle] extern \"C\" exports checked against the C program",
            &[],
            s.rust_exports as f64,
        );
        reg.set_gauge(
            "ffisafe_frontend_rust_types",
            "Rust type declarations visible to the boundary checker",
            &[],
            s.rust_types as f64,
        );
        reg.inc_counter(
            "ffisafe_frontend_rust_check_cache_hits_total",
            "Rust boundary checks replayed from the tier-1 cache",
            &[],
            u64::from(s.rust_check_cached),
        );
        reg.inc_counter(
            "ffisafe_passes_total",
            "Fixpoint passes across all functions",
            &[],
            s.passes as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_fn_hits_total",
            "Functions replayed from the tier-1 (per-function) cache",
            &[],
            s.cache_fn_hits as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_fn_misses_total",
            "Functions that missed the tier-1 cache",
            &[],
            s.cache_fn_misses as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_fn_rejected_total",
            "Tier-1 store hits whose payload failed to decode and were recomputed",
            &[],
            s.cache_fn_rejected as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_report_hits_total",
            "Whole reports served from the tier-2 (report) cache",
            &[],
            u64::from(s.cache_report_hit),
        );
        reg.inc_counter(
            "ffisafe_workers_executed_total",
            "Functions analyzed by a live inference worker",
            &[],
            s.workers_executed as u64,
        );
        let summary = self.summary();
        for (severity, count) in [
            ("error", summary.errors),
            ("warning", summary.warnings),
            ("imprecision", summary.imprecision),
            ("note", summary.notes),
        ] {
            reg.inc_counter(
                "ffisafe_diagnostics_total",
                "Findings by severity",
                &[("severity", severity)],
                count as u64,
            );
        }
    }

    /// For every imprecision report, the run-time check that would make
    /// the site safe — the future-work direction §5.2 sketches
    /// ("eliminating these warnings and instead adding run-time checks to
    /// the C code for these cases").
    pub fn suggest_runtime_checks(&self) -> Vec<RuntimeCheckSuggestion> {
        self.diagnostics
            .iter()
            .filter_map(|d| {
                let suggestion = match d.code() {
                    DiagnosticCode::UnknownOffset => {
                        "guard the access with `if (Is_block(v) && (mlsize_t) i < Wosize_val(v))` \
                         before reading or writing the field"
                    }
                    DiagnosticCode::GlobalValue | DiagnosticCode::AddressOfValue => {
                        "register the location as a GC root with \
                         `caml_register_global_root(&v)` (and remove it with \
                         `caml_remove_global_root` before reuse)"
                    }
                    DiagnosticCode::FunctionPointerCall => {
                        "dispatch through a named wrapper function so the callee's \
                         type and GC effect are visible to the analysis"
                    }
                    _ => return None,
                };
                Some(RuntimeCheckSuggestion {
                    code: d.code(),
                    location: self.source_map.resolve(d.span()),
                    suggestion: suggestion.to_string(),
                })
            })
            .collect()
    }

    /// Renders a human-readable report: [`AnalysisReport::render_stable`]
    /// with the run's wall-clock appended to the summary line.
    pub fn render(&self) -> String {
        let mut out = self.render_stable();
        out.pop();
        out.push_str(&format!(", {:.3}s\n", self.stats.seconds));
        out
    }

    /// Like [`AnalysisReport::render`], but without the trailing timing
    /// line — byte-identical across runs and worker counts, which the
    /// determinism tests rely on. The tier-2 cache stores exactly this
    /// string, so cache hits replay it verbatim.
    pub fn render_stable(&self) -> String {
        if let Some(c) = &self.cached {
            return c.rendered.clone();
        }
        let mut out = String::new();
        for d in self.diagnostics.iter() {
            let loc = self.source_map.resolve(d.span());
            out.push_str(&format!("{loc}: {} [{}]: {}\n", d.severity(), d.code(), d.message()));
            for (nspan, note) in d.notes() {
                let nloc = self.source_map.resolve(*nspan);
                out.push_str(&format!("  {nloc}: note: {note}\n"));
            }
        }
        // The Rust clause is appended only when the corpus has Rust
        // sources, so pure OCaml/C reports stay byte-identical to what
        // they were before the Rust frontend existed.
        let rust = if self.stats.rust_loc > 0 {
            format!(", {} lines Rust", self.stats.rust_loc)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} imprecision report(s) — {} lines C, {} lines OCaml{rust}\n",
            self.error_count(),
            self.warning_count(),
            self.imprecision_count(),
            self.stats.c_loc,
            self.stats.ml_loc,
        ));
        out
    }

    /// The versioned machine-readable report: stable JSON a shard reducer
    /// or CI job can consume without parsing rendered text.
    ///
    /// Schema (v1, see [`REPORT_SCHEMA_VERSION`]):
    ///
    /// ```text
    /// {
    ///   "schema_version": 1,
    ///   "tool": "ffisafe",
    ///   "tool_version": "<crate version>",
    ///   "summary": { "errors": N, "warnings": N, "imprecision": N,
    ///                "notes": N, "diagnostics": N },
    ///   "diagnostics": [ { "file", "line", "column", "severity", "code",
    ///                      "message", "notes": [ {file,line,column,message} ] } ],
    ///   "stats": { "ml_loc", "c_loc", "rust_loc", "externals",
    ///              "c_functions", "rust_externs", "rust_exports",
    ///              "rust_types", "passes", "type_nodes", "gc_edges",
    ///              "jobs", "seconds", "infer_work_seconds",
    ///              "infer_setup_seconds", "infer_critical_path_seconds",
    ///              "cache": { "fn_hits", "fn_misses", "workers_executed",
    ///                         "report_hit", "rust_check_hit" } },
    ///   "timings": [ { "phase", "wall_seconds", "work_seconds" } ]
    /// }
    /// ```
    ///
    /// Key order is fixed; counts and the per-diagnostic fields are
    /// independent of `--jobs` and cache temperature. `seconds`-type
    /// fields are wall-clock measurements and naturally vary between runs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {REPORT_SCHEMA_VERSION},\n"));
        out.push_str("  \"tool\": \"ffisafe\",\n");
        out.push_str(&format!("  \"tool_version\": \"{}\",\n", env!("CARGO_PKG_VERSION")));

        let summary = self.summary();
        out.push_str(&format!(
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"imprecision\": {}, \"notes\": {}, \"diagnostics\": {}}},\n",
            summary.errors, summary.warnings, summary.imprecision, summary.notes,
            summary.diagnostics,
        ));

        out.push_str("  \"diagnostics\": [");
        let mut first = true;
        for d in self.diagnostics.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    {");
            push_loc_fields(&mut out, &self.source_map.resolve(d.span()));
            out.push_str(&format!(
                ", \"severity\": \"{}\", \"code\": \"{}\", \"message\": \"",
                d.severity(),
                d.code()
            ));
            escape_into(&mut out, d.message());
            out.push_str("\", \"notes\": [");
            let mut first_note = true;
            for (nspan, note) in d.notes() {
                if !first_note {
                    out.push_str(", ");
                }
                first_note = false;
                out.push('{');
                push_loc_fields(&mut out, &self.source_map.resolve(*nspan));
                out.push_str(", \"message\": \"");
                escape_into(&mut out, note);
                out.push_str("\"}");
            }
            out.push_str("]}");
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });

        let s = &self.stats;
        out.push_str(&format!(
            "  \"stats\": {{\"ml_loc\": {}, \"c_loc\": {}, \"rust_loc\": {}, \"externals\": {}, \"c_functions\": {}, \"rust_externs\": {}, \"rust_exports\": {}, \"rust_types\": {}, \"passes\": {}, \"type_nodes\": {}, \"gc_edges\": {}, \"jobs\": {}, \"seconds\": {:.6}, \"infer_work_seconds\": {:.6}, \"infer_setup_seconds\": {:.6}, \"infer_critical_path_seconds\": {:.6}, \"cache\": {{\"fn_hits\": {}, \"fn_misses\": {}, \"workers_executed\": {}, \"report_hit\": {}, \"rust_check_hit\": {}}}}},\n",
            s.ml_loc,
            s.c_loc,
            s.rust_loc,
            s.externals,
            s.c_functions,
            s.rust_externs,
            s.rust_exports,
            s.rust_types,
            s.passes,
            s.type_nodes,
            s.gc_edges,
            s.jobs,
            s.seconds,
            s.infer_work_seconds,
            s.infer_setup_seconds,
            s.infer_critical_path_seconds,
            s.cache_fn_hits,
            s.cache_fn_misses,
            s.workers_executed,
            s.cache_report_hit,
            s.rust_check_cached,
        ));

        out.push_str("  \"timings\": [\n");
        let phases: Vec<String> = self
            .timings
            .iter()
            .map(|(phase, wall)| {
                format!(
                    "    {{\"phase\": \"{}\", \"wall_seconds\": {:.6}, \"work_seconds\": {:.6}}}",
                    phase.name(),
                    wall.as_secs_f64(),
                    self.timings.get_work(phase).as_secs_f64()
                )
            })
            .collect();
        out.push_str(&phases.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn push_loc_fields(out: &mut String, loc: &Loc) {
    out.push_str("\"file\": \"");
    escape_into(out, &loc.file);
    out.push_str(&format!("\", \"line\": {}, \"column\": {}", loc.line, loc.col));
}
