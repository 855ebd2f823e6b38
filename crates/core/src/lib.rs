//! Multi-lingual type inference for checking type safety of OCaml→C
//! foreign function calls — a reproduction of Furr & Foster, *Checking
//! Type Safety of Foreign Function Calls* (PLDI 2005).
//!
//! The analysis runs in two phases (§3):
//!
//! 1. **OCaml side.** `external` declarations are extracted and their
//!    types translated through `Φ`/`ρ` (Figure 4) into *representational
//!    types* that describe how OCaml data is physically laid out: `(Ψ, Σ)`
//!    bounds the unboxed constructors and lists one product per boxed
//!    constructor.
//! 2. **C side.** Glue code is lowered to a CIL-like IR and inferred
//!    against the rules of Figures 6/7: unification over the multi-lingual
//!    type language, a flow-sensitive dataflow analysis of boxedness,
//!    offsets and tags (`ct [B{I}]{T}`), and GC effects ensuring every
//!    live heap pointer is registered before a collection can happen.
//!
//! The entry point is the service API ([`api`]): an immutable
//! content-addressed [`Corpus`], submitted as an [`AnalysisRequest`] to a
//! long-lived [`AnalysisService`]:
//!
//! ```
//! use ffisafe_core::{AnalysisRequest, AnalysisService, Corpus};
//!
//! let corpus = Corpus::builder()
//!     .ml_source("lib.ml", r#"
//!         type t = A of int | B | C of int * int | D
//!         external examine : t -> int = "ml_examine"
//!     "#)
//!     .c_source("glue.c", r#"
//!         value ml_examine(value x) {
//!             if (Is_long(x)) {
//!                 switch (Int_val(x)) {
//!                 case 0: return Val_int(10); /* B */
//!                 case 1: return Val_int(11); /* D */
//!                 }
//!             } else {
//!                 switch (Tag_val(x)) {
//!                 case 0: return Field(x, 0);            /* A of int */
//!                 case 1: return Field(x, 1);            /* C of int * int */
//!                 }
//!             }
//!             return Val_int(0);
//!         }
//!     "#)
//!     .build();
//! let service = AnalysisService::new();
//! let report = service.analyze(&AnalysisRequest::new(corpus)).unwrap();
//! assert_eq!(report.error_count(), 0, "{}", report.render());
//! ```
//!
//! Misuse is caught:
//!
//! ```
//! use ffisafe_core::{AnalysisRequest, AnalysisService, Corpus};
//! use ffisafe_support::DiagnosticCode;
//!
//! let corpus = Corpus::builder()
//!     .ml_source("lib.ml", r#"external f : int -> int = "ml_f""#)
//!     // Bug: the C code applies Val_int to something that is already a value.
//!     .c_source("glue.c", r#"
//!         value ml_f(value n) { return Val_int(n); }
//!     "#)
//!     .build();
//! let report = AnalysisService::new().analyze(&AnalysisRequest::new(corpus)).unwrap();
//! assert!(report.diagnostics.with_code(DiagnosticCode::TypeMismatch).count() > 0);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod driver;
pub mod engine;
pub mod eta;
pub mod pipeline;
pub mod registry;

pub use api::{
    fair_share_jobs, source_files_under, AnalysisRequest, AnalysisService, ApiError, CacheMode,
    Corpus, CorpusBuilder, CorpusFile, ServiceConfig, SourceKind,
};
pub use driver::{
    AnalysisReport, AnalysisStats, ReportSummary, RuntimeCheckSuggestion, REPORT_SCHEMA_VERSION,
};
pub use engine::{AnalysisOptions, GcObligation};
pub use ffisafe_support::pool::available_cores;
pub use ffisafe_support::{Phase, PhaseTimings, Session};
pub use pipeline::{Frontend, ParsedUnit, FRONTENDS};
pub use registry::{FuncInfo, FuncOrigin, Registry};
