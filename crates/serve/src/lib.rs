//! `ffisafe-serve` — the resident analysis daemon and its client.
//!
//! Batch analysis (the CLI, sweeps) pays corpus load + service
//! construction + cold caches on every invocation. This crate keeps ONE
//! [`AnalysisService`](ffisafe_core::AnalysisService) resident behind a
//! TCP listener so that editors, CI fan-out, and repeated local runs
//! share its warm caches and its machine budget:
//!
//! - [`protocol`] — the JSON messages on `ffisafe_support::wire` frames:
//!   HELLO, analyze/metrics/watch ops, typed [`Request`]/[`Reply`] codec.
//! - [`admission`] — the bounded execution gate behind explicit BUSY
//!   backpressure.
//! - [`daemon`] — [`AnalysisServer`]: the wire handler for those ops,
//!   per-client fair scheduling and the daemon's metric families.
//! - `watch` — fingerprint-polling re-analysis of a source tree,
//!   streaming [`WatchEvent`]s to subscribers.
//! - [`client`] — [`ServeClient`], the blocking client the CLI's
//!   `--server-url` mode and the load harness use.
//!
//! Everything runs on `std` alone, like the rest of the workspace.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod daemon;
pub mod protocol;
pub(crate) mod watch;

pub use admission::{Admission, Busy, Permit};
pub use client::{ServeClient, WatchSubscription};
pub use daemon::{AnalysisServer, ServeConfig, ANALYZER_VERSION};
pub use protocol::{
    AnalyzeOutcome, Reply, Request, WatchEvent, MAX_FRAME_BYTES, SERVE_PROTOCOL_VERSION,
};
