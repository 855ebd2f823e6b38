//! `ffisafe-cache`: the content-addressed incremental-reanalysis cache.
//!
//! The PLDI'05 analysis is whole-program and batch: a cold run re-infers
//! every C function even when nothing changed. This crate supplies the
//! storage layer that makes re-runs incremental, in two tiers:
//!
//! * **Tier 1 (function level).** Each C function is fingerprinted by a
//!   stable hash of its lowered IR plus the `.ml`/prototype surface the
//!   frozen post-link base state exposes to it. On a warm run the
//!   inference stage skips the worker for every fingerprint hit and
//!   replays the memoized per-function outcome, so reports stay
//!   byte-identical to a cold run at any `--jobs`.
//! * **Tier 2 (report level).** Rendered stable reports are keyed by
//!   (corpus digest, options digest); a hit skips analysis entirely —
//!   the repeated-CI-query fast path.
//!
//! The crate itself is deliberately analysis-agnostic: it stores validated
//! byte payloads addressed by [`ffisafe_support::Fingerprint`]. What the
//! bytes mean (the outcome/report codecs and the fingerprint recipes) lives
//! next to the pipeline in `ffisafe-core`, keeping the dependency graph
//! acyclic: `support ← cache ← core`.
//!
//! Where the bytes live is pluggable: the [`backend`] module defines the
//! [`CacheBackend`] trait with two implementations — the local
//! on-disk [`CacheStore`] and the [`remote`] TCP client/daemon pair
//! (`ffisafe cache-serve`) that lets many processes or machines share one
//! logical store.
//!
//! See [`store`] for the on-disk layout, validation and eviction rules,
//! [`remote`] for the wire protocol, and [`codec`] for the
//! dependency-free binary encoding.
//!
//! # Examples
//!
//! ```
//! use ffisafe_cache::{CacheStore, Tier};
//! use ffisafe_support::Fingerprint;
//!
//! let dir = std::env::temp_dir().join(format!("ffisafe-cache-doc-{}", std::process::id()));
//! let store = CacheStore::open(&dir, "ffisafe 0.2.0 schema 1").unwrap();
//! let key = Fingerprint::of_bytes(b"value ml_f(value n) { ... }");
//! assert_eq!(store.get(Tier::Function, key), None);
//! store.put(Tier::Function, key, b"memoized outcome").unwrap();
//! assert_eq!(store.get(Tier::Function, key).unwrap(), b"memoized outcome");
//! store.flush().unwrap();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod remote;
pub mod store;

pub use backend::{open_backend, CacheBackend, CacheLocation};
pub use codec::{DecodeError, Decoder, Encoder};
pub use remote::{CacheServer, RemoteBackend, WIRE_PROTOCOL_VERSION};
pub use store::{CacheStats, CacheStore, Tier};
