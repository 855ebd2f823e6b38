//! The staged analysis pipeline.
//!
//! The analysis runs both phases of the paper as explicit stages with a
//! typed artifact flowing between them, all sharing one
//! [`ffisafe_support::Session`]. Parsing dispatches through the pluggable
//! [`frontend::Frontend`] registry (one implementation per language);
//! lowering then runs in stage order:
//!
//! ```text
//! frontend_ml ─▶ MlArtifact ──┐
//!                             ├─▶ infer::link ─▶ BaseState
//! frontend_c ─▶ CArtifact ──┬─┘        │
//!                           │          ▼
//! frontend_rust ─▶ RustArtifact   infer::run (parallel worker pool)
//!     (checks the C program)           │ InferArtifact
//!           │                          ▼
//!           └──▶ diagnostics      discharge ─▶ diagnostics in the Session
//! ```
//!
//! * [`frontend`] — the [`frontend::Frontend`] trait and the
//!   [`frontend::FRONTENDS`] registry corpus parsing dispatches through.
//! * [`frontend_ml`] — registers parsed OCaml files in the type
//!   repository and translates `external` signatures (Φ/ρ, Figure 4).
//! * [`frontend_c`] — lowers parsed C units to the Figure 5 IR.
//! * [`frontend_rust`] — merges `.rs` boundary surfaces and checks their
//!   `extern "C"` signatures for layout agreement against the C program
//!   (the third language pair; OCaml/C checks representation through the
//!   `value` encoding, Rust/C checks `repr`-level layout).
//! * [`infer`] — seeds the function registry (`Γ_I`), binds externals to
//!   their C definitions, then runs per-function flow-sensitive inference
//!   on a worker pool ([`ffisafe_support::AnalysisOptions::jobs`]).
//! * [`discharge`] — merges the workers' effect graphs, solves GC
//!   reachability, checks `Ψ` bounds and the whole-program practice rules.
//!
//! # Parallelism and determinism
//!
//! Per-function inference mutates the type table (unification), so workers
//! cannot share one mutable table. [`infer::link`] therefore *freezes* the
//! post-link state into an immutable, `Arc`-shared arena
//! ([`ffisafe_types::FrozenTypeTable`] plus frozen constraint, registry
//! and interner stores), and [`infer::run`] hands every worker an O(1)
//! copy-on-write *overlay*: reads fall through to the frozen base, writes
//! and fresh allocations land in a thin private layer, and overlay ids are
//! numbered exactly as a deep clone's would be. Each worker's findings are
//! reduced to plain data ([`infer::FunctionOutcome`]) whose effect ids are
//! normalized against the base state ([`infer::EffectKey`]) by walking
//! only the overlay's *delta* — the handful of base classes it actually
//! touched — and [`discharge`] merges them in function order. The result
//! is byte-for-byte identical whatever the worker count — `jobs=1` and
//! `jobs=8` produce the same report, which
//! `crates/core/tests/parallel_determinism.rs` locks in and
//! `crates/core/tests/overlay_differential.rs` cross-checks against the
//! old clone semantics on randomized operation sequences.
//!
//! # Incremental reanalysis
//!
//! Overlay isolation is also what makes the pipeline cacheable: a worker
//! reads *only* the frozen base state plus its own function's IR, so
//! [`cache::base_state_digest`] — a digest of the frozen state itself —
//! extended per function keys its [`infer::FunctionOutcome`] exactly.
//! With a `--cache-dir`, [`infer::run`] replays memoized outcomes for
//! fingerprint hits (zero workers on a warm unchanged corpus) and the
//! driver short-circuits repeated corpora entirely via a report-level
//! tier. Replay feeds [`discharge`] the same plain data a live worker
//! would have produced, so warm reports are byte-identical to cold ones
//! at any `--jobs`.

pub mod cache;
pub mod discharge;
pub mod frontend;
pub mod frontend_c;
pub mod frontend_ml;
pub mod frontend_rust;
pub mod infer;

pub use cache::{CachedReport, PipelineCache, CACHE_SCHEMA_VERSION};
pub use frontend::{Frontend, ParsedUnit, FRONTENDS};
pub use frontend_c::CArtifact;
pub use frontend_ml::MlArtifact;
pub use frontend_rust::RustArtifact;
pub use infer::{BaseState, EffectKey, FunctionOutcome, InferArtifact};
