//! The analysis [`Session`]: shared state threaded through every pipeline
//! stage.
//!
//! Before the session refactor each layer of the pipeline owned ad-hoc
//! copies of the source map, the interner and its diagnostic buffer, and
//! options were passed piecemeal. A `Session` centralizes all four plus
//! per-phase wall-clock timing, so that:
//!
//! * every [`crate::Span`] in the run resolves against one [`SourceMap`];
//! * every name interned anywhere in the run means the same [`Symbol`];
//! * diagnostics from any stage land in one sink, sorted once at the end;
//! * `--jobs`-style knobs reach every stage without signature churn.
//!
//! # Examples
//!
//! ```
//! use ffisafe_support::session::{AnalysisOptions, Phase, Session};
//!
//! let mut session = Session::new();
//! let file = session.add_file("glue.c", "value f(value x) { return x; }");
//! let sym = session.intern("f");
//! assert_eq!(session.interner().resolve(sym), "f");
//! let n = session.time(Phase::FrontendC, |s| s.source_map().file(file).line_count());
//! assert_eq!(n, 1);
//! assert!(session.timings().total() > std::time::Duration::ZERO);
//! ```

use crate::diagnostics::{Diagnostic, DiagnosticBag};
use crate::fingerprint::{Fingerprint, FingerprintHasher};
use crate::intern::{Interner, Symbol};
use crate::source_map::{FileId, SourceMap};
use std::fmt;
use std::time::{Duration, Instant};

/// Tunable analysis switches, shared by every pipeline stage.
///
/// `flow_sensitive` and `gc_effects` drive the ablation experiments
/// (DESIGN.md E5); `jobs` sizes the inference worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Track `B`/`I`/`T` refinements from dynamic tests. Disabling this
    /// removes the dataflow analysis of §3.3 while keeping unification.
    pub flow_sensitive: bool,
    /// Track GC effects and registration obligations (§2, (App)).
    pub gc_effects: bool,
    /// Worker threads for the per-function inference stage. `0` means
    /// "auto": use [`crate::pool::available_cores`].
    pub jobs: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions { flow_sensitive: true, gc_effects: true, jobs: 0 }
    }
}

impl AnalysisOptions {
    /// The number of worker threads the inference stage will actually use:
    /// `jobs` if nonzero, otherwise [`crate::pool::available_cores`].
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            crate::pool::available_cores()
        }
    }

    /// Returns `self` with an explicit worker count (builder style).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Fingerprint of every option that can change analysis *results*.
    ///
    /// `jobs` is deliberately excluded: reports are byte-identical at any
    /// worker count (the parallel-determinism invariant), so a cache entry
    /// written at `--jobs 1` must hit at `--jobs 8` and vice versa.
    pub fn semantic_digest(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str("AnalysisOptions");
        h.write_bool(self.flow_sensitive);
        h.write_bool(self.gc_effects);
        h.finish()
    }
}

/// The pipeline stages a session times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// OCaml frontend: parse `.ml`, build the repository, translate Φ/ρ.
    FrontendMl,
    /// C frontend: parse `.c`, lower to the Figure 5 IR.
    FrontendC,
    /// Rust-FFI frontend: parse `.rs`, collect `extern "C"` boundary
    /// signatures and check them against the C surface.
    FrontendRust,
    /// Per-function flow-sensitive inference (the parallel stage).
    Infer,
    /// Deferred constraint discharge: GC solve, Ψ bounds, practice checks.
    Discharge,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] =
        [Phase::FrontendMl, Phase::FrontendC, Phase::FrontendRust, Phase::Infer, Phase::Discharge];

    fn index(self) -> usize {
        match self {
            Phase::FrontendMl => 0,
            Phase::FrontendC => 1,
            Phase::FrontendRust => 2,
            Phase::Infer => 3,
            Phase::Discharge => 4,
        }
    }

    /// Stable lowercase name (used in reports and `BENCH_pipeline.json`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::FrontendMl => "frontend_ml",
            Phase::FrontendC => "frontend_c",
            Phase::FrontendRust => "frontend_rust",
            Phase::Infer => "infer",
            Phase::Discharge => "discharge",
        }
    }

    /// Trace span name for this phase (`phase.<name>`, see README
    /// "Observability").
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::FrontendMl => "phase.frontend_ml",
            Phase::FrontendC => "phase.frontend_c",
            Phase::FrontendRust => "phase.frontend_rust",
            Phase::Infer => "phase.infer",
            Phase::Discharge => "phase.discharge",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cumulative wall-clock and work time per [`Phase`].
///
/// *Wall* is elapsed time; *work* is the total compute the phase performed.
/// For serial phases the two coincide, so [`PhaseTimings::record`] charges
/// both. The parallel inference stage overrides its work total with the sum
/// of per-function analysis time ([`PhaseTimings::set_work`]) — on a warm
/// cached run that sum drops to (near) zero while wall still includes
/// fingerprinting and replay, which is exactly the signal `--timings`
/// surfaces.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    totals: [Duration; 5],
    work: [Duration; 5],
}

impl PhaseTimings {
    /// Adds `elapsed` to `phase`'s wall and work totals.
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        self.totals[phase.index()] += elapsed;
        self.work[phase.index()] += elapsed;
    }

    /// Cumulative wall-clock time spent in `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        self.totals[phase.index()]
    }

    /// Cumulative work performed by `phase` (= wall for serial phases).
    pub fn get_work(&self, phase: Phase) -> Duration {
        self.work[phase.index()]
    }

    /// Replaces `phase`'s work total (parallel stages report true work).
    pub fn set_work(&mut self, phase: Phase, work: Duration) {
        self.work[phase.index()] = work;
    }

    /// Sum of wall-clock over all phases.
    pub fn total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// `(phase, cumulative wall-clock)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, Duration)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }
}

/// Shared state for one analysis run: source map, interner, diagnostic
/// sink, options and per-phase timings.
///
/// Stages receive `&mut Session` and must not construct their own
/// [`SourceMap`] or [`Interner`]; that guarantee is what makes every span
/// and symbol in a run globally meaningful.
#[derive(Clone, Debug, Default)]
pub struct Session {
    source_map: SourceMap,
    interner: Interner,
    diagnostics: DiagnosticBag,
    options: AnalysisOptions,
    timings: PhaseTimings,
}

impl Session {
    /// Creates a session with default options.
    pub fn new() -> Self {
        Session::default()
    }

    /// Creates a session with explicit options.
    pub fn with_options(options: AnalysisOptions) -> Self {
        Session { options, ..Session::default() }
    }

    /// Registers a source file and returns its id.
    pub fn add_file(&mut self, name: impl Into<String>, src: impl Into<String>) -> FileId {
        self.source_map.add_file(name, src)
    }

    /// The session-wide source map.
    pub fn source_map(&self) -> &SourceMap {
        &self.source_map
    }

    /// Interns a string in the session-wide interner.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// The session-wide interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the interner (for stages that batch-intern).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// The options this run was configured with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Adds a finding to the session's diagnostic sink.
    pub fn emit(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Moves all diagnostics from `bag` into the sink.
    pub fn emit_all(&mut self, bag: &mut DiagnosticBag) {
        self.diagnostics.append(bag);
    }

    /// The diagnostics accumulated so far.
    pub fn diagnostics(&self) -> &DiagnosticBag {
        &self.diagnostics
    }

    /// Drains the accumulated diagnostics, leaving the sink empty.
    pub fn take_diagnostics(&mut self) -> DiagnosticBag {
        std::mem::take(&mut self.diagnostics)
    }

    /// Runs `f`, charging its wall-clock time to `phase` and recording a
    /// `phase.<name>` trace span when tracing is enabled.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Session) -> T) -> T {
        let _span = crate::telemetry::span(phase.span_name());
        let start = Instant::now();
        let out = f(self);
        self.timings.record(phase, start.elapsed());
        out
    }

    /// Per-phase timings recorded so far.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// Mutable access to the timings (drivers that record true parallel
    /// work totals).
    pub fn timings_mut(&mut self) -> &mut PhaseTimings {
        &mut self.timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::DiagnosticCode;
    use crate::span::Span;

    #[test]
    fn default_options_auto_jobs() {
        let o = AnalysisOptions::default();
        assert_eq!(o.jobs, 0);
        assert!(o.effective_jobs() >= 1);
        assert_eq!(o.with_jobs(3).effective_jobs(), 3);
    }

    #[test]
    fn session_threads_one_source_map_and_interner() {
        let mut s = Session::new();
        let f1 = s.add_file("a.ml", "type t = A");
        let f2 = s.add_file("b.c", "value f(value x) { return x; }");
        assert_ne!(f1, f2);
        let a = s.intern("ml_examine");
        let b = s.intern("ml_examine");
        assert_eq!(a, b);
        assert_eq!(s.interner().len(), 1);
    }

    #[test]
    fn diagnostics_accumulate_and_drain() {
        let mut s = Session::new();
        s.emit(Diagnostic::new(DiagnosticCode::TypeMismatch, Span::dummy(), "x"));
        let mut extra = DiagnosticBag::new();
        extra.push(Diagnostic::new(DiagnosticCode::UnknownOffset, Span::dummy(), "y"));
        s.emit_all(&mut extra);
        assert_eq!(s.diagnostics().len(), 2);
        let drained = s.take_diagnostics();
        assert_eq!(drained.len(), 2);
        assert!(s.diagnostics().is_empty());
    }

    #[test]
    fn timings_accumulate_per_phase() {
        let mut s = Session::new();
        s.time(Phase::Infer, |_| std::thread::sleep(Duration::from_millis(1)));
        s.time(Phase::Infer, |_| ());
        s.time(Phase::Discharge, |_| ());
        assert!(s.timings().get(Phase::Infer) >= Duration::from_millis(1));
        assert_eq!(s.timings().get(Phase::FrontendMl), Duration::ZERO);
        let names: Vec<_> = s.timings().iter().map(|(p, _)| p.name()).collect();
        assert_eq!(names, ["frontend_ml", "frontend_c", "frontend_rust", "infer", "discharge"]);
    }

    #[test]
    fn work_defaults_to_wall_and_can_be_overridden() {
        let mut t = PhaseTimings::default();
        t.record(Phase::Infer, Duration::from_millis(10));
        assert_eq!(t.get_work(Phase::Infer), t.get(Phase::Infer));
        t.set_work(Phase::Infer, Duration::from_millis(3));
        assert_eq!(t.get_work(Phase::Infer), Duration::from_millis(3));
        assert_eq!(t.get(Phase::Infer), Duration::from_millis(10));
    }

    #[test]
    fn semantic_digest_ignores_jobs_but_not_switches() {
        let base = AnalysisOptions::default();
        assert_eq!(base.semantic_digest(), base.with_jobs(8).semantic_digest());
        let mut no_flow = base;
        no_flow.flow_sensitive = false;
        assert_ne!(base.semantic_digest(), no_flow.semantic_digest());
        let mut no_gc = base;
        no_gc.gc_effects = false;
        assert_ne!(base.semantic_digest(), no_gc.semantic_digest());
        assert_ne!(no_flow.semantic_digest(), no_gc.semantic_digest());
    }
}
