//! Benchmark corpus and Figure 9 reproduction harness for `ffisafe`.
//!
//! The paper evaluates on 11 real glue libraries (apm, camlzip, ocaml-mad,
//! ocaml-ssl, ocaml-glpk, gz, ocaml-vorbis, ftplib, lablgl, cryptokit,
//! lablgtk). Those tarballs are not available offline, so this crate
//! *synthesizes* a stand-in for each: a deterministic generator emits an
//! OCaml+C glue library of the same size with the same number of seeded
//! defects of the kinds §5.2 describes — and, crucially, records ground
//! truth so the harness can score every diagnostic as a true positive,
//! false positive or unexpected (see DESIGN.md, "Substitutions").
//!
//! * [`spec`] — the 11 benchmark rows and defect plans;
//! * [`corpus`] — the source generator with ground truth;
//! * [`figure9`] — run + score + render the paper-vs-measured table;
//! * [`runner`] — parametric scaling workloads;
//! * [`pipeline_bench`] — worker-pool scaling measurements
//!   (`BENCH_pipeline.json`).
//!
//! ```
//! use ffisafe_bench::{figure9, spec};
//! use ffisafe_core::AnalysisOptions;
//!
//! let spec = &spec::paper_benchmarks()[0]; // apm-1.00
//! let row = figure9::run_benchmark(spec, AnalysisOptions::default());
//! assert_eq!(row.errors, 0);
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod figure9;
pub mod pipeline_bench;
pub mod runner;
pub mod spec;

pub use corpus::{Benchmark, GenFunc, SeedKind};
pub use figure9::{render_table, run_all, run_benchmark, Figure9Row};
pub use spec::{paper_benchmarks, BenchSpec, PaperRow, SeedPlan};
