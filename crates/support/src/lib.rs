//! Shared infrastructure for the `ffisafe` workspace.
//!
//! This crate provides the plumbing every phase of the multi-lingual
//! type-inference pipeline relies on:
//!
//! * [`SourceMap`] / [`Span`] — byte-offset spans into registered source
//!   files, resolvable to `file:line:col` locations for diagnostics.
//! * [`Diagnostic`] — machine-classifiable findings with severity levels
//!   matching the columns of the paper's Figure 9 (errors, questionable
//!   practice warnings, imprecision warnings).
//! * [`Interner`] / [`Symbol`] — cheap interned identifiers shared by the
//!   OCaml and C frontends.
//! * [`Fingerprint`] / [`FingerprintHasher`] — platform-stable 128-bit
//!   content hashes keying the incremental-reanalysis cache.
//! * [`table`] — a small plain-text table renderer used by the Figure 9
//!   harness and the CLI.
//! * [`scan`] — the byte scanner, token type and token cursor the OCaml,
//!   C and Rust frontends' lexers and parsers share, including their one
//!   parse-error shape.
//! * [`pool`] — the one worker pool every fan-out runs on: scoped workers
//!   claim indices from a shared counter and results come back by index.
//! * [`wire`] — the daemon skeleton both TCP daemons are built on: frame
//!   codec, versioned HELLO, session loop and snapshot export.
//!
//! # Examples
//!
//! ```
//! use ffisafe_support::{SourceMap, Diagnostic, DiagnosticCode};
//!
//! let mut sm = SourceMap::new();
//! let file = sm.add_file("glue.c", "value f(value x) { return x; }");
//! let span = sm.span(file, 6, 7);
//! let diag = Diagnostic::error(DiagnosticCode::TypeMismatch, span, "bad use of value");
//! assert!(diag.severity().is_error());
//! ```

#![warn(missing_docs)]

pub mod diagnostics;
pub mod fingerprint;
pub mod intern;
pub mod json;
pub mod pool;
pub mod rng;
pub mod scan;
pub mod session;
pub mod source_map;
pub mod span;
pub mod table;
pub mod telemetry;
pub mod wire;

pub use diagnostics::{Diagnostic, DiagnosticBag, DiagnosticCode, Severity};
pub use fingerprint::{Fingerprint, FingerprintHasher};
pub use intern::{Interner, Symbol};
pub use session::{AnalysisOptions, Phase, PhaseTimings, Session};
pub use source_map::{FileId, Loc, SourceFile, SourceMap};
pub use span::Span;
pub use telemetry::{HistogramValue, LogLevel, MetricsRegistry, SpanEvent, TraceFileWriter};
