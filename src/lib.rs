//! # ffisafe — checking type safety of foreign function calls
//!
//! A production-quality Rust implementation of Furr & Foster, *Checking
//! Type Safety of Foreign Function Calls* (PLDI 2005): a multi-lingual
//! type inference system that prevents OCaml→C foreign function calls from
//! introducing type and memory-safety violations.
//!
//! ## What it checks
//!
//! C "glue" code manipulates OCaml data through macros (`Val_int`,
//! `Int_val`, `Field`, `Tag_val`, …) with no compiler checking. This
//! library infers multi-lingual types for that code and reports:
//!
//! * **type errors** — `Val_int`/`Int_val` confusion, wrong constructors,
//!   out-of-range tags and fields, arity mismatches with the OCaml
//!   `external` declaration;
//! * **GC errors** — heap pointers live across an allocating call without
//!   `CAMLparam`/`CAMLlocal` registration, `CAMLparam` without
//!   `CAMLreturn`;
//! * **questionable practice** — trailing `unit` parameters, polymorphic
//!   `'a` arguments pinned to one concrete type by the C code;
//! * **imprecision** — places the flow-sensitive analysis loses track
//!   (unknown offsets, `value` globals, function pointers).
//!
//! A corpus may also contain Rust sources: `extern "C"` blocks,
//! `#[no_mangle]` exports and `#[repr(C)]` type declarations are checked
//! for *layout* agreement against the same C definitions (arity and type
//! compatibility, missing `repr(C)`, FFI-unsafe payloads, nullability) —
//! see the [`core::Frontend`] trait for how the three language frontends
//! plug into one pipeline.
//!
//! ## Quickstart
//!
//! Build an immutable, content-addressed [`Corpus`] and submit it to an
//! [`AnalysisService`] — a long-lived engine that can hold one shared
//! incremental cache and run many corpora concurrently:
//!
//! ```
//! use ffisafe::{AnalysisRequest, AnalysisService, Corpus};
//!
//! let corpus = Corpus::builder()
//!     .ml_source("stack.ml", r#"
//!         type t = Empty | Node of int * t
//!         external depth : t -> int = "ml_depth"
//!     "#)
//!     .c_source("stack.c", r#"
//!         value ml_depth(value v) {
//!             int n = 0;
//!             while (Is_block(v)) {
//!                 n = n + 1;
//!                 v = Field(v, 1);
//!             }
//!             return Val_int(n);
//!         }
//!     "#)
//!     .build();
//!
//! let service = AnalysisService::new();
//! let report = service.analyze(&AnalysisRequest::new(corpus)).unwrap();
//! assert_eq!(report.error_count(), 0, "{}", report.render());
//!
//! // The versioned machine-readable form (schema_version 1):
//! let json = report.to_json();
//! assert!(json.contains("\"schema_version\": 1"));
//! ```
//!
//! Batches share the service's worker pool and cache store, and results
//! come back in submission order at any width:
//!
//! ```
//! use ffisafe::{AnalysisRequest, AnalysisService, Corpus};
//!
//! let service = AnalysisService::new();
//! let requests: Vec<AnalysisRequest> = (0..3)
//!     .map(|i| {
//!         let corpus = Corpus::builder()
//!             .ml_source("lib.ml", format!(r#"external f{i} : int -> int = "ml_f{i}""#))
//!             .c_source(
//!                 "glue.c",
//!                 format!("value ml_f{i}(value n) {{ return Val_int(Int_val(n) + {i}); }}"),
//!             )
//!             .build();
//!         AnalysisRequest::new(corpus)
//!     })
//!     .collect();
//! for result in service.analyze_batch(&requests) {
//!     assert_eq!(result.unwrap().error_count(), 0);
//! }
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`ffisafe_support`] | spans, diagnostics, interning, JSON |
//! | [`ffisafe_cache`] | content-addressed two-tier incremental store |
//! | [`ffisafe_types`] | the multi-lingual type language + unification |
//! | [`ffisafe_ocaml`] | OCaml frontend, type repository, `ρ`/`Φ` |
//! | [`ffisafe_cil`] | C frontend, Figure 5 IR, liveness |
//! | [`ffisafe_rustffi`] | Rust `extern "C"` boundary surface + layout check |
//! | [`ffisafe_core`] | the inference engine and [`AnalysisService`] |
//! | [`ffisafe_shard`] | map/reduce sweeps over library trees, largest library first |
//! | [`ffisafe_semantics`] | executable semantics + soundness harness |
//! | [`ffisafe_serve`] | resident analysis daemon + client (`ffisafe serve`) |
//! | [`ffisafe_bench`] | Figure 9 corpus and measurement harness |

#![warn(missing_docs)]

pub use ffisafe_bench as bench;
pub use ffisafe_cache as cache;
pub use ffisafe_cil as cil;
pub use ffisafe_core as core;
pub use ffisafe_ocaml as ocaml;
pub use ffisafe_rustffi as rustffi;
pub use ffisafe_semantics as semantics;
pub use ffisafe_serve as serve;
pub use ffisafe_support as support;
pub use ffisafe_types as types;

pub use ffisafe_cache::{
    CacheBackend, CacheLocation, CacheServer, RemoteBackend, WIRE_PROTOCOL_VERSION,
};
pub use ffisafe_core::{
    AnalysisOptions, AnalysisReport, AnalysisRequest, AnalysisService, AnalysisStats, ApiError,
    CacheMode, Corpus, CorpusBuilder, CorpusFile, ReportSummary, ServiceConfig, SourceKind,
    REPORT_SCHEMA_VERSION,
};
pub use ffisafe_serve::{AnalysisServer, ServeClient, ServeConfig, SERVE_PROTOCOL_VERSION};
pub use ffisafe_shard as shard;
pub use ffisafe_shard::{
    MapMode, SweepConfig, SweepOutput, SweepReport, MANIFEST_SCHEMA_VERSION, SWEEP_SCHEMA_VERSION,
};
pub use ffisafe_support::{Diagnostic, DiagnosticCode, Phase, PhaseTimings, Session, Severity};
