//! The service-grade batch API: [`Corpus`], [`AnalysisRequest`],
//! [`AnalysisService`].
//!
//! The paper's tool is a one-shot CLI; this module is the opposite shape —
//! the boundary a long-lived deployment programs against:
//!
//! * a [`Corpus`] is an **immutable, content-addressed** bundle of named
//!   `.ml`/`.rs`/`.c` sources, fingerprinted once at build time
//!   ([`ffisafe_support::Fingerprint`]) so caches and shard reducers can
//!   key work by content instead of by path or mtime;
//! * an [`AnalysisRequest`] pairs a corpus with [`AnalysisOptions`] and a
//!   [`CacheMode`], and every fallible edge reports a typed [`ApiError`]
//!   instead of panicking or printing;
//! * an [`AnalysisService`] is a **long-lived handle** owning the interner
//!   seed, the batch worker-pool width and one open `ffisafe-cache` store.
//!   [`AnalysisService::analyze`] runs one request;
//!   [`AnalysisService::analyze_batch`] runs many concurrently over the
//!   pool and returns results in submission order at any width.
//!
//! Reports come back as [`AnalysisReport`] — same structured diagnostics,
//! stats and renderings as always, plus the versioned
//! [`AnalysisReport::to_json`] form batch reducers and CI consume.
//!
//! # Examples
//!
//! ```
//! use ffisafe_core::api::{AnalysisRequest, AnalysisService, Corpus};
//!
//! let corpus = Corpus::builder()
//!     .ml_source("lib.ml", r#"external double : int -> int = "ml_double""#)
//!     .c_source("glue.c", r#"value ml_double(value n) { return Val_int(2 * Int_val(n)); }"#)
//!     .build();
//!
//! let service = AnalysisService::new();
//! let report = service.analyze(&AnalysisRequest::new(corpus)).unwrap();
//! assert_eq!(report.error_count(), 0, "{}", report.render());
//! ```

use crate::driver::{AnalysisReport, AnalysisStats};
use crate::engine::AnalysisOptions;
use crate::pipeline::cache::{self, CachedReport, PipelineCache};
use crate::pipeline::{discharge, frontend, frontend_c, frontend_ml, frontend_rust, infer};
use ffisafe_cache::{open_backend, CacheBackend, CacheLocation, Tier};
use ffisafe_cil as cil;
use ffisafe_ocaml as ocaml;
use ffisafe_support::pool::{self, available_cores};
use ffisafe_support::telemetry;
use ffisafe_support::{Fingerprint, Interner, Phase, PhaseTimings, Session, SourceMap};
use ffisafe_types::TypeTable;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- errors -------------------------------------------------------------

/// A typed failure at the API boundary.
///
/// Everything the old surface reported by `eprintln` + exit or by silently
/// degrading is a variant here, so embedders can branch on the cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// Reading a source file from disk failed.
    Io {
        /// The path that could not be read.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A file's extension names neither an OCaml (`.ml`/`.mli`), a Rust
    /// (`.rs`) nor a C (`.c`/`.h`) source.
    UnknownFileKind {
        /// The offending file name.
        name: String,
    },
    /// Opening the cache backend failed (local directory unusable, or the
    /// remote daemon unreachable / serving a different analyzer version).
    Cache {
        /// The configured cache location (directory path or `tcp://` URL).
        dir: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            ApiError::UnknownFileKind { name } => {
                write!(f, "{name}: unknown file kind (expected .ml, .mli, .rs, .c or .h)")
            }
            ApiError::Cache { dir, message } => {
                write!(f, "cannot open cache directory {dir}: {message}")
            }
        }
    }
}

impl std::error::Error for ApiError {}

// ---- corpus -------------------------------------------------------------

/// How one corpus file is parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// OCaml: `external` declarations and type definitions.
    Ml,
    /// C glue code.
    C,
    /// Rust: `extern "C"` boundary surfaces.
    Rust,
}

impl SourceKind {
    /// Stable tag folded into content digests (the file name alone need
    /// not determine how a file is parsed).
    pub(crate) fn tag(self) -> u8 {
        match self {
            SourceKind::Ml => 0,
            SourceKind::C => 1,
            SourceKind::Rust => 2,
        }
    }

    /// Classifies a file name by extension: `.ml`/`.mli` are OCaml,
    /// `.rs` is Rust, `.c`/`.h` are C, anything else is `None` (not an
    /// FFI source).
    pub fn from_name(name: &str) -> Option<SourceKind> {
        if name.ends_with(".ml") || name.ends_with(".mli") {
            Some(SourceKind::Ml)
        } else if name.ends_with(".rs") {
            Some(SourceKind::Rust)
        } else if name.ends_with(".c") || name.ends_with(".h") {
            Some(SourceKind::C)
        } else {
            None
        }
    }
}

/// One named source inside a [`Corpus`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusFile {
    kind: SourceKind,
    name: String,
    src: String,
}

impl CorpusFile {
    /// How this file is parsed.
    pub fn kind(&self) -> SourceKind {
        self.kind
    }

    /// The registered file name (spans resolve against it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source text.
    pub fn src(&self) -> &str {
        &self.src
    }
}

/// An immutable, content-addressed bundle of sources — the unit of
/// analysis work.
///
/// Built once via [`Corpus::builder`], fingerprinted once; after that it
/// can be cloned into any number of [`AnalysisRequest`]s, hashed into
/// cache keys, or sharded across services, and it will always mean the
/// same program. File order is preserved (it determines span resolution
/// and report order, exactly like CLI argument order).
#[derive(Clone, Debug)]
pub struct Corpus {
    files: Vec<CorpusFile>,
    fingerprint: Fingerprint,
    ml_loc: usize,
    c_loc: usize,
    rust_loc: usize,
}

impl Corpus {
    /// Starts building a corpus.
    pub fn builder() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// Loads every FFI source (`.ml`/`.mli`/`.rs`/`.c`/`.h`) under `dir`,
    /// recursively, in deterministic (sorted-path) order. Files of any
    /// other kind are skipped, never [`ApiError::UnknownFileKind`] — a
    /// library directory full of build scripts and READMEs loads cleanly.
    /// Both the sweep planner and the CLI's directory arguments go through
    /// this.
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<Corpus, ApiError> {
        Ok(CorpusBuilder::default().dir(dir)?.build())
    }

    /// The 128-bit content digest: every file's kind, name and text, in
    /// order. Two corpora with equal fingerprints analyze identically.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The files, in registration order.
    pub fn files(&self) -> impl Iterator<Item = &CorpusFile> {
        self.files.iter()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// `true` when the corpus holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total OCaml lines.
    pub fn ml_loc(&self) -> usize {
        self.ml_loc
    }

    /// Total C lines.
    pub fn c_loc(&self) -> usize {
        self.c_loc
    }

    /// Total Rust lines.
    pub fn rust_loc(&self) -> usize {
        self.rust_loc
    }
}

/// Accumulates files for a [`Corpus`]; consumed by
/// [`CorpusBuilder::build`], which fingerprints the bundle exactly once.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    files: Vec<CorpusFile>,
}

impl CorpusBuilder {
    /// Adds an OCaml source.
    pub fn ml_source(mut self, name: impl Into<String>, src: impl Into<String>) -> Self {
        self.files.push(CorpusFile { kind: SourceKind::Ml, name: name.into(), src: src.into() });
        self
    }

    /// Adds a C source.
    pub fn c_source(mut self, name: impl Into<String>, src: impl Into<String>) -> Self {
        self.files.push(CorpusFile { kind: SourceKind::C, name: name.into(), src: src.into() });
        self
    }

    /// Adds a Rust source.
    pub fn rust_source(mut self, name: impl Into<String>, src: impl Into<String>) -> Self {
        self.files.push(CorpusFile { kind: SourceKind::Rust, name: name.into(), src: src.into() });
        self
    }

    /// Adds a source whose kind is inferred from `name`'s extension.
    pub fn source(
        mut self,
        name: impl Into<String>,
        src: impl Into<String>,
    ) -> Result<Self, ApiError> {
        let name = name.into();
        let Some(kind) = SourceKind::from_name(&name) else {
            return Err(ApiError::UnknownFileKind { name });
        };
        self.files.push(CorpusFile { kind, name, src: src.into() });
        Ok(self)
    }

    /// Reads `path` from disk and adds it, inferring the kind from its
    /// extension.
    pub fn source_path(self, path: impl AsRef<Path>) -> Result<Self, ApiError> {
        let path = path.as_ref();
        let name = path.display().to_string();
        if SourceKind::from_name(&name).is_none() {
            return Err(ApiError::UnknownFileKind { name });
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| ApiError::Io { path: name.clone(), message: e.to_string() })?;
        self.source(name, src)
    }

    /// Adds every FFI source under `dir` (the builder form of
    /// [`Corpus::from_dir`]): recursive, deterministic sorted-path order,
    /// non-FFI files skipped.
    pub fn dir(mut self, dir: impl AsRef<Path>) -> Result<Self, ApiError> {
        for path in source_files_under(dir.as_ref())? {
            self = self.source_path(path)?;
        }
        Ok(self)
    }

    /// Freezes the bundle: counts lines and computes the content
    /// fingerprint.
    pub fn build(self) -> Corpus {
        let mut ml_loc = 0;
        let mut c_loc = 0;
        let mut rust_loc = 0;
        for f in &self.files {
            match f.kind {
                SourceKind::Ml => ml_loc += f.src.lines().count(),
                SourceKind::C => c_loc += f.src.lines().count(),
                SourceKind::Rust => rust_loc += f.src.lines().count(),
            }
        }
        let fingerprint = cache::corpus_content_digest(
            self.files.iter().map(|f| (f.kind.tag(), f.name.as_str(), f.src.as_str())),
        );
        Corpus { files: self.files, fingerprint, ml_loc, c_loc, rust_loc }
    }
}

/// Every FFI source file (`.ml`/`.mli`/`.rs`/`.c`/`.h`) under `root`,
/// recursively, sorted by path string — the one deterministic file order
/// [`Corpus::from_dir`], the CLI's directory arguments and the sweep
/// planner all share, so the same tree always produces the same corpus
/// fingerprint.
///
/// Directories that cannot be read surface as [`ApiError::Io`]; non-FFI
/// files are skipped silently.
pub fn source_files_under(root: &Path) -> Result<Vec<PathBuf>, ApiError> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), ApiError> {
        let read = std::fs::read_dir(dir).map_err(|e| ApiError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        for dirent in read {
            let dirent = dirent.map_err(|e| ApiError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            let path = dirent.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if SourceKind::from_name(&path.display().to_string()).is_some() {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort_by_key(|p| p.display().to_string());
    Ok(files)
}

// ---- requests -----------------------------------------------------------

/// Per-request cache policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Use the service's shared store, when it has one.
    #[default]
    Shared,
    /// Force a cold run even if the service has a store (the library
    /// equivalent of `--no-cache`).
    Bypass,
}

/// One unit of work for an [`AnalysisService`]: a corpus, the options to
/// analyze it under, and the cache policy.
#[derive(Clone, Debug)]
pub struct AnalysisRequest {
    corpus: Corpus,
    options: AnalysisOptions,
    cache_mode: CacheMode,
}

impl AnalysisRequest {
    /// A request with default options and the shared cache.
    pub fn new(corpus: Corpus) -> AnalysisRequest {
        AnalysisRequest {
            corpus,
            options: AnalysisOptions::default(),
            cache_mode: CacheMode::default(),
        }
    }

    /// Sets the analysis options (builder style).
    pub fn options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the cache policy (builder style).
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// The corpus under analysis.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The configured options.
    pub fn analysis_options(&self) -> &AnalysisOptions {
        &self.options
    }
}

// ---- service ------------------------------------------------------------

/// Configuration for a long-lived [`AnalysisService`].
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Root of the shared two-tier incremental-reanalysis store; `None`
    /// disables caching for every request (unless `cache_url` is set).
    pub cache_dir: Option<PathBuf>,
    /// URL of a remote `ffisafe cache-serve` daemon (`tcp://host:port`).
    /// Mutually exclusive with `cache_dir`: configuring both is an error,
    /// not a silent preference.
    pub cache_url: Option<String>,
    /// Concurrent requests [`AnalysisService::analyze_batch`] runs; `0`
    /// means "auto" (the machine's available parallelism). Each request
    /// additionally sizes its own inference pool from its
    /// [`AnalysisOptions::jobs`].
    pub batch_jobs: usize,
}

impl ServiceConfig {
    /// The cache location the `cache_dir`/`cache_url` pair names, or
    /// `None` when caching is disabled. `Err` when both are set.
    pub fn cache_location(&self) -> Result<Option<CacheLocation>, ApiError> {
        match (&self.cache_dir, &self.cache_url) {
            (Some(dir), Some(url)) => Err(ApiError::Cache {
                dir: format!("{} + {url}", dir.display()),
                message: "configure either a cache dir or a cache URL, not both".to_string(),
            }),
            (Some(dir), None) => Ok(Some(CacheLocation::Dir(dir.clone()))),
            (None, Some(url)) => Ok(Some(CacheLocation::parse(url))),
            (None, None) => Ok(None),
        }
    }
}

/// A long-lived analysis engine: accepts any number of immutable corpora,
/// shares one open cache store across them, and emits machine-readable
/// [`AnalysisReport`]s.
///
/// The service owns the three pieces of cross-request state:
///
/// * the **interner seed** — every known OCaml runtime entry point
///   ([`crate::registry::runtime_names`]) pre-interned once, cloned into
///   each request's session;
/// * the **batch pool width** — [`AnalysisService::analyze_batch`] fans
///   requests out over this many [`ffisafe_support::pool`] workers and
///   still returns results in submission order;
/// * **one open [`ffisafe_cache`] store** — concurrent requests interleave
///   tier-1/tier-2 traffic on the same store, so a batch over N corpora
///   warms one cache, not N.
///
/// Reports are byte-identical at any batch width, submission order or
/// `jobs` setting.
#[derive(Debug)]
pub struct AnalysisService {
    cache: Option<Arc<dyn CacheBackend>>,
    interner_seed: Interner,
    batch_jobs: usize,
}

impl Default for AnalysisService {
    fn default() -> Self {
        AnalysisService::new()
    }
}

impl AnalysisService {
    /// A service with no cache store and auto batch width.
    pub fn new() -> AnalysisService {
        AnalysisService::with_config(ServiceConfig::default())
            .expect("config without a cache dir cannot fail")
    }

    /// A service configured explicitly. Fails with [`ApiError::Cache`]
    /// when the cache directory cannot be opened or created, or when the
    /// remote cache daemon is unreachable or version-mismatched.
    pub fn with_config(config: ServiceConfig) -> Result<AnalysisService, ApiError> {
        let cache = match config.cache_location()? {
            Some(location) => {
                Some(open_backend(&location, &cache::analyzer_cache_version()).map_err(|e| {
                    ApiError::Cache { dir: location.to_string(), message: e.to_string() }
                })?)
            }
            None => None,
        };
        let mut interner_seed = Interner::new();
        for name in crate::registry::runtime_names() {
            interner_seed.intern(name);
        }
        Ok(AnalysisService { cache, interner_seed, batch_jobs: config.batch_jobs })
    }

    /// Convenience: a service whose requests share the store under `dir`.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Result<AnalysisService, ApiError> {
        AnalysisService::with_config(ServiceConfig {
            cache_dir: Some(dir.into()),
            ..Default::default()
        })
    }

    /// Hit/miss counters and current occupancy (entry count, live bytes,
    /// evictions) of the shared store; `None` without a cache. This is
    /// what `--cache-stats` and the sweep report's `cache_store` section
    /// read — through the backend trait, so a remote store reports the
    /// *daemon's* occupancy, not a local-dir guess.
    pub fn cache_stats(&self) -> Option<ffisafe_cache::CacheStats> {
        self.cache.as_ref().map(|store| store.stats())
    }

    /// Analyzes one request.
    ///
    /// An in-memory corpus cannot fail today — the `Result` is the
    /// boundary's contract, not a promise that it will stay infallible as
    /// richer request kinds (paths, remote shards, deadlines) land. Cache
    /// I/O problems mid-run degrade to cache misses, never to errors.
    pub fn analyze(&self, request: &AnalysisRequest) -> Result<AnalysisReport, ApiError> {
        self.analyze_as(request, *request.analysis_options())
    }

    /// [`AnalysisService::analyze`] with the effective options decided by
    /// the caller — the batch path substitutes a fair-share worker count
    /// for auto-jobs requests. Options never change *results* (reports
    /// are jobs-invariant), only resource usage.
    fn analyze_as(
        &self,
        request: &AnalysisRequest,
        options: AnalysisOptions,
    ) -> Result<AnalysisReport, ApiError> {
        // `stats.seconds` covers the whole call: it is set last, once every
        // stage's state has been dropped, since the caller waits for that too.
        let start = Instant::now();
        let timed = |mut report: AnalysisReport| {
            report.stats.seconds = start.elapsed().as_secs_f64();
            Ok(report)
        };
        let corpus = &request.corpus;
        let mut span = telemetry::span_with("service.analyze", || {
            let count = |kind| corpus.files().filter(|f| f.kind() == kind).count().to_string();
            vec![
                ("ml_files", count(SourceKind::Ml)),
                ("c_units", count(SourceKind::C)),
                ("rust_files", count(SourceKind::Rust)),
            ]
        });
        let cache = match (request.cache_mode, &self.cache) {
            (CacheMode::Shared, Some(store)) => Some(PipelineCache::from_shared(store.clone())),
            _ => None,
        };
        let report_fp = cache.as_ref().map(|_| cache::report_key(corpus.fingerprint(), &options));

        // Tier-2 probe before any parsing: the corpus is content-addressed,
        // so an already-analyzed (corpus, options) pair needs no frontend.
        if let (Some(pc), Some(fp)) = (cache.as_ref(), report_fp) {
            if let Some(cached) = pc.get(Tier::Report, fp).and_then(|b| cache::decode_report(&b)) {
                pc.flush();
                span.arg("report_hit", "true");
                return timed(cached_report(corpus, cached));
            }
        }

        let parsed = parse_sources(
            options,
            Some(&self.interner_seed),
            corpus.files().map(|f| (f.kind(), f.name(), f.src())),
        );
        timed(execute(parsed, corpus, report_fp, cache))
    }

    /// Analyzes every request, fanning out over up to the service's batch
    /// width of [`ffisafe_support::pool`] workers (a width of 1 analyzes
    /// on the calling thread).
    ///
    /// Results come back **in submission order** regardless of the pool
    /// width or which request finishes first: slot `i` of the returned
    /// vector is always request `i`'s result, and each report is
    /// byte-identical to what a sequential [`AnalysisService::analyze`]
    /// call would have produced.
    ///
    /// Requests that leave [`AnalysisOptions::jobs`] at `0` (auto) get a
    /// **fair share** of the machine instead of the whole machine: with
    /// `width` requests in flight the per-request inference pool is sized
    /// to `cores / width`, so a default-configured batch never runs
    /// `cores²` worker threads. An explicit `jobs` value is honored as
    /// given.
    pub fn analyze_batch(
        &self,
        requests: &[AnalysisRequest],
    ) -> Vec<Result<AnalysisReport, ApiError>> {
        let n = requests.len();
        let width = self.effective_batch_jobs().clamp(1, n.max(1));
        let mut span =
            telemetry::span_with("service.analyze_batch", || vec![("requests", n.to_string())]);
        span.arg("width", width.to_string());
        let cores = available_cores();
        let order: Vec<usize> = (0..n).collect();
        let analyze = |idx: usize| {
            let request = &requests[idx];
            let mut options = *request.analysis_options();
            if options.jobs == 0 {
                options.jobs = fair_share_jobs(cores, width);
            }
            self.analyze_as(request, options)
        };
        pool::run(width, &order, analyze).0
    }

    fn effective_batch_jobs(&self) -> usize {
        if self.batch_jobs > 0 {
            self.batch_jobs
        } else {
            available_cores()
        }
    }
}

/// The inference-pool width an auto-jobs request gets when `width`
/// requests share the machine: its fair share of the cores, at least 1.
///
/// [`AnalysisService::analyze_batch`] applies this per batch, and the
/// resident daemon applies it per admitted request, so a default-
/// configured client can never commandeer `cores²` worker threads no
/// matter how many peers are in flight. Explicit `jobs` values are never
/// rewritten — fairness only governs requests that left sizing to the
/// service.
pub fn fair_share_jobs(cores: usize, width: usize) -> usize {
    (cores / width.max(1)).max(1)
}

// ---- the engine ---------------------------------------------------------

/// A corpus parsed into one session: the input `execute` runs the staged
/// pipeline over.
pub(crate) struct ParsedSources {
    pub(crate) session: Session,
    pub(crate) ml_files: Vec<ocaml::ParsedFile>,
    pub(crate) c_units: Vec<cil::CUnit>,
    pub(crate) rust_files: Vec<ffisafe_rustffi::ParsedRustFile>,
}

/// Parses every source into a fresh session (optionally warm-started from
/// an interner seed), in corpus order, dispatching each file through the
/// [`frontend::Frontend`] registry by its [`SourceKind`].
pub(crate) fn parse_sources<'a>(
    options: AnalysisOptions,
    interner_seed: Option<&Interner>,
    files: impl Iterator<Item = (SourceKind, &'a str, &'a str)>,
) -> ParsedSources {
    let mut session = Session::with_options(options);
    if let Some(seed) = interner_seed {
        *session.interner_mut() = seed.clone();
    }
    let mut ml_files = Vec::new();
    let mut c_units = Vec::new();
    let mut rust_files = Vec::new();
    for (kind, name, src) in files {
        match frontend::frontend_for(kind).parse(&mut session, name, src) {
            frontend::ParsedUnit::Ml(file) => ml_files.push(file),
            frontend::ParsedUnit::C(unit) => c_units.push(unit),
            frontend::ParsedUnit::Rust(file) => rust_files.push(file),
        }
    }
    ParsedSources { session, ml_files, c_units, rust_files }
}

/// A tier-2 hit as a report, built without parsing. The frontends
/// register each file in corpus order before parsing it, so registering
/// them the same way here yields the file ids the cached spans name.
fn cached_report(corpus: &Corpus, cached: CachedReport) -> AnalysisReport {
    let mut source_map = SourceMap::new();
    for f in corpus.files() {
        source_map.add_file(f.name(), f.src());
    }
    let stats = AnalysisStats {
        ml_loc: corpus.ml_loc(),
        c_loc: corpus.c_loc(),
        rust_loc: corpus.rust_loc(),
        cache_report_hit: true,
        ..AnalysisStats::default()
    };
    AnalysisReport {
        diagnostics: cached.diagnostics,
        stats,
        timings: PhaseTimings::default(),
        source_map,
        cached_render: Some(cached.rendered),
    }
}

/// Runs the staged pipeline over `corpus`, parsed, and assembles the
/// report.
///
/// `report_fp` is the tier-2 key the caller already probed, present
/// exactly when `cache` is; the finished report is stored under it. This
/// is the single engine entry every report-tier miss goes through. The
/// caller sets `stats.seconds`.
pub(crate) fn execute(
    parsed: ParsedSources,
    corpus: &Corpus,
    report_fp: Option<Fingerprint>,
    cache: Option<PipelineCache>,
) -> AnalysisReport {
    let ParsedSources { mut session, ml_files, c_units, rust_files } = parsed;
    let mut pcache = cache;

    let mut table = TypeTable::new();
    let ml = session.time(Phase::FrontendMl, |s| frontend_ml::run(s, &ml_files, &mut table));
    let c = session.time(Phase::FrontendC, |s| frontend_c::run(s, &c_units));
    let rust = session.time(Phase::FrontendRust, |s| {
        frontend_rust::run(s, &rust_files, &c.program, pcache.as_ref())
    });
    let mut base = session.time(Phase::Infer, |s| infer::link(s, table, &ml, &c.program));
    if let Some(pc) = pcache.as_mut() {
        pc.base_digest = cache::base_state_digest(session.options(), &base, &ml.phase1);
    }
    let inferred = session
        .time(Phase::Infer, |s| infer::run(s, &base, &c.program, &ml.phase1, pcache.as_ref()));
    session.timings_mut().set_work(Phase::Infer, Duration::from_secs_f64(inferred.work_seconds));
    session.time(Phase::Discharge, |s| discharge::run(s, &mut base, &inferred, &ml.phase1));

    let mut diags = session.take_diagnostics();
    diags.dedup();
    let stats = AnalysisStats {
        ml_loc: corpus.ml_loc(),
        c_loc: corpus.c_loc(),
        rust_loc: corpus.rust_loc(),
        externals: ml.phase1.signatures.len(),
        c_functions: c.program.functions.len(),
        rust_externs: rust.program.imports.len() + rust.program.statics.len(),
        rust_exports: rust.program.exports.len(),
        rust_types: rust.program.types.len(),
        rust_check_cached: rust.check_cached,
        passes: inferred.passes,
        type_nodes: base.table.node_count() + inferred.new_nodes,
        gc_edges: base.constraints.gc_edge_count() + inferred.new_gc_edges,
        jobs: inferred.jobs,
        seconds: 0.0,
        infer_work_seconds: inferred.work_seconds,
        infer_setup_seconds: inferred.setup_seconds,
        infer_critical_path_seconds: inferred.critical_path_seconds,
        cache_fn_hits: inferred.cache_hits,
        cache_fn_misses: inferred.cache_misses,
        cache_fn_rejected: inferred.cache_rejected + usize::from(rust.check_rejected),
        workers_executed: inferred.workers_executed,
        cache_report_hit: false,
    };
    let report = AnalysisReport {
        diagnostics: diags,
        stats,
        timings: *session.timings(),
        source_map: session.source_map().clone(),
        cached_render: None,
    };
    if let (Some(pc), Some(fp)) = (pcache.as_ref(), report_fp) {
        let entry = CachedReport {
            rendered: report.render_stable(),
            errors: report.error_count(),
            warnings: report.warning_count(),
            imprecision: report.imprecision_count(),
            diagnostics: report.diagnostics.clone(),
        };
        pc.put(Tier::Report, fp, &cache::encode_report(&entry));
        pc.flush();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus(tag: &str) -> Corpus {
        Corpus::builder()
            .ml_source("lib.ml", format!(r#"external {tag} : int -> int = "ml_{tag}""#))
            .c_source(
                "glue.c",
                format!("value ml_{tag}(value n) {{ return Val_int(Int_val(n)); }}"),
            )
            .build()
    }

    #[test]
    fn corpus_fingerprint_is_content_addressed() {
        let a = tiny_corpus("f");
        let b = tiny_corpus("f");
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal content, equal fingerprint");
        assert_ne!(a.fingerprint(), tiny_corpus("g").fingerprint(), "content change");

        // name, kind and order all participate
        let renamed = Corpus::builder().ml_source("other.ml", "type t").build();
        let base = Corpus::builder().ml_source("lib.ml", "type t").build();
        assert_ne!(renamed.fingerprint(), base.fingerprint(), "file name");
        let as_c = Corpus::builder().c_source("lib.ml", "type t").build();
        assert_ne!(as_c.fingerprint(), base.fingerprint(), "kind tag");
        let ab = Corpus::builder().ml_source("a.ml", "").ml_source("b.ml", "").build();
        let ba = Corpus::builder().ml_source("b.ml", "").ml_source("a.ml", "").build();
        assert_ne!(ab.fingerprint(), ba.fingerprint(), "registration order");
    }

    #[test]
    fn corpus_counts_lines_per_kind() {
        let corpus = Corpus::builder()
            .ml_source("a.ml", "type t\nexternal f : t -> t = \"ml_f\"\n")
            .c_source("b.c", "value ml_f(value x) {\n  return x;\n}\n")
            .build();
        assert_eq!(corpus.ml_loc(), 2);
        assert_eq!(corpus.c_loc(), 3);
        assert_eq!(corpus.file_count(), 2);
        assert!(!corpus.is_empty());
        assert!(Corpus::builder().build().is_empty());
    }

    #[test]
    fn builder_source_detects_kind_by_extension() {
        let corpus = Corpus::builder()
            .source("a.ml", "")
            .unwrap()
            .source("b.mli", "")
            .unwrap()
            .source("c.c", "")
            .unwrap()
            .source("d.h", "")
            .unwrap()
            .source("e.rs", "")
            .unwrap()
            .build();
        let kinds: Vec<_> = corpus.files().map(|f| f.kind()).collect();
        assert_eq!(
            kinds,
            [SourceKind::Ml, SourceKind::Ml, SourceKind::C, SourceKind::C, SourceKind::Rust]
        );

        let err = Corpus::builder().source("notes.txt", "").unwrap_err();
        assert_eq!(err, ApiError::UnknownFileKind { name: "notes.txt".into() });
        assert!(err.to_string().contains("notes.txt"), "{err}");
    }

    #[test]
    fn source_path_reports_io_errors() {
        let err = Corpus::builder().source_path("/definitely/not/here.c").unwrap_err();
        match err {
            ApiError::Io { path, .. } => assert_eq!(path, "/definitely/not/here.c"),
            other => panic!("expected Io, got {other:?}"),
        }
        let err = Corpus::builder().source_path("/anything.xyz").unwrap_err();
        assert!(matches!(err, ApiError::UnknownFileKind { .. }), "{err:?}");
    }

    #[test]
    fn from_dir_loads_ffi_files_in_sorted_order_and_skips_the_rest() {
        let dir = std::env::temp_dir().join(format!("ffisafe-api-fromdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("zz.ml"), "external f : int -> int = \"ml_f\"\n").unwrap();
        std::fs::write(dir.join("sub/glue.c"), "value ml_f(value n) { return n; }\n").unwrap();
        std::fs::write(dir.join("README.txt"), "not a source\n").unwrap();
        std::fs::write(dir.join("build.sh"), "make\n").unwrap();

        let corpus = Corpus::from_dir(&dir).unwrap();
        let names: Vec<&str> = corpus.files().map(|f| f.name()).collect();
        assert_eq!(corpus.file_count(), 2, "non-FFI files are skipped: {names:?}");
        assert!(names[0].ends_with("glue.c") && names[1].ends_with("zz.ml"), "{names:?}");
        assert_eq!(corpus.fingerprint(), Corpus::from_dir(&dir).unwrap().fingerprint());

        let missing = Corpus::from_dir(dir.join("nope"));
        assert!(matches!(missing, Err(ApiError::Io { .. })), "{missing:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_analyzes_empty_and_tiny_corpora() {
        let service = AnalysisService::new();
        let empty = service.analyze(&AnalysisRequest::new(Corpus::builder().build())).unwrap();
        assert_eq!(empty.error_count(), 0);
        let report = service.analyze(&AnalysisRequest::new(tiny_corpus("f"))).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.render());
        assert_eq!(report.stats.c_functions, 1);
    }

    #[test]
    fn service_analyzes_rust_c_corpora() {
        let corpus = Corpus::builder()
            .rust_source(
                "lib.rs",
                "extern \"C\" {\n    fn add(a: i32, b: i32, c: i32) -> i32;\n}\n",
            )
            .c_source("add.c", "int add(int a, int b) { return a + b; }")
            .build();
        assert_eq!(corpus.rust_loc(), 3);
        let service = AnalysisService::new();
        let report = service.analyze(&AnalysisRequest::new(corpus)).unwrap();
        assert_eq!(report.error_count(), 1, "{}", report.render());
        assert!(report.render().contains("E011"), "{}", report.render());
        assert_eq!(report.stats.rust_externs, 1);
        assert_eq!(report.stats.rust_loc, 3);
    }

    #[test]
    fn fair_share_splits_cores_across_the_batch() {
        assert_eq!(fair_share_jobs(16, 4), 4);
        assert_eq!(fair_share_jobs(16, 16), 1);
        assert_eq!(fair_share_jobs(16, 32), 1, "never below one worker");
        assert_eq!(fair_share_jobs(1, 4), 1);
        assert_eq!(fair_share_jobs(8, 3), 2, "rounds down: width * share <= cores");
        assert_eq!(fair_share_jobs(8, 0), 8, "degenerate width treated as 1");
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        // distinct corpora with recognizable diagnostics counts
        let clean = tiny_corpus("ok");
        let buggy = Corpus::builder()
            .ml_source("lib.ml", r#"external f : int -> int = "ml_f""#)
            .c_source("glue.c", "value ml_f(value n) { return Val_int(n); }")
            .build();
        let service = AnalysisService::with_config(ServiceConfig {
            cache_dir: None,
            cache_url: None,
            batch_jobs: 4,
        })
        .unwrap();
        let requests: Vec<AnalysisRequest> = (0..8)
            .map(|i| AnalysisRequest::new(if i % 2 == 0 { clean.clone() } else { buggy.clone() }))
            .collect();
        let results = service.analyze_batch(&requests);
        assert_eq!(results.len(), 8);
        for (i, result) in results.iter().enumerate() {
            let report = result.as_ref().unwrap();
            let expect = if i % 2 == 0 { 0 } else { 1 };
            assert_eq!(report.error_count(), expect, "slot {i} out of order");
        }
    }

    #[test]
    fn bad_cache_dir_is_a_typed_error() {
        let err = AnalysisService::with_cache_dir("/proc/definitely-unwritable/x").unwrap_err();
        assert!(matches!(err, ApiError::Cache { .. }), "{err:?}");
    }

    #[test]
    fn cache_mode_bypass_forces_cold_runs() {
        let dir = std::env::temp_dir().join(format!("ffisafe-api-bypass-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = AnalysisService::with_cache_dir(&dir).unwrap();
        let corpus = tiny_corpus("f");
        let cold = service.analyze(&AnalysisRequest::new(corpus.clone())).unwrap();
        assert!(!cold.stats.cache_report_hit);
        let warm = service.analyze(&AnalysisRequest::new(corpus.clone())).unwrap();
        assert!(warm.stats.cache_report_hit, "second shared-mode run hits the report tier");
        let bypass =
            service.analyze(&AnalysisRequest::new(corpus).cache_mode(CacheMode::Bypass)).unwrap();
        assert!(!bypass.stats.cache_report_hit, "bypass must not consult the store");
        assert_eq!(bypass.render_stable(), warm.render_stable());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
