//! OCaml frontend for `ffisafe` — phase 1 of the paper's analysis (§3.1,
//! §5.1).
//!
//! The paper's first tool, "based on the camlp4 preprocessor, analyzes
//! OCaml source programs and extracts the type signatures of any foreign
//! functions", resolving aliases and opaque types to concrete physical
//! representations and maintaining a central type repository across files.
//!
//! This crate provides that tool:
//!
//! * [`parser::parse`] — parses the OCaml declaration sublanguage
//!   (`type` and `external` declarations; other items are skipped, since
//!   OCaml function bodies are never analyzed);
//! * [`TypeRepository`] — the central repository, updated incrementally
//!   per file;
//! * [`translate::translate_program`] — the `ρ`/`Φ` translation of
//!   Figure 4, producing an [`ExternalSignature`] per `external` ready to
//!   seed the initial environment `Γ_I` of phase 2.
//!
//! # Examples
//!
//! ```
//! use ffisafe_ocaml::{parser, TypeRepository, translate};
//! use ffisafe_support::{SourceMap};
//! use ffisafe_types::TypeTable;
//!
//! let mut sm = SourceMap::new();
//! let src = r#"
//!     type t = A of int | B | C of int * int | D
//!     external examine : t -> int = "ml_examine"
//! "#;
//! let file = sm.add_file("t.ml", src);
//! let parsed = parser::parse(file, src);
//! let mut repo = TypeRepository::new();
//! repo.register_file(&parsed);
//!
//! let externals: Vec<_> = parsed.items.iter().filter_map(|i| match i {
//!     ffisafe_ocaml::ast::Item::External(e) => Some(e.clone()),
//!     _ => None,
//! }).collect();
//!
//! let mut table = TypeTable::new();
//! let phase1 = translate::translate_program(&repo, &externals, &mut table);
//! let sig = phase1.signature_for_c("ml_examine").unwrap();
//! assert_eq!(table.render_mt(sig.params[0]), "(2, (⊤, ∅) + (⊤, ∅) × (⊤, ∅))");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod repository;
pub mod token;
pub mod translate;

pub use ast::{ExternalDecl, Field, Item, TypeDecl, TypeDeclKind, TypeExpr, Variant};
pub use parser::ParsedFile;
pub use repository::TypeRepository;
pub use translate::{ExternalSignature, Phase1, TranslateIssue, Translator};
