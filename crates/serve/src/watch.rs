//! Watch mode: poll a source tree, re-analyze on change, stream
//! diagnostics to subscribers.
//!
//! The watcher is deliberately boring: every `interval` it re-reads the
//! tree into a [`Corpus`] and compares content fingerprints — the same
//! 128-bit digest the cache keys on, so "changed" means *the analysis
//! input changed*, not that an mtime wobbled or an editor wrote a
//! temp file. On change it takes a *blocking* admission slot (the
//! watcher must never be refused — a dropped change would silently
//! desynchronize subscribers), re-analyzes through the shared service
//! (warm functions replay from the cache), and broadcasts one
//! [`WatchEvent`] frame to every subscribed connection.

use crate::daemon::ServeHandler;
use crate::protocol::WatchEvent;
use ffisafe_core::{AnalysisOptions, CacheMode, Corpus};
use ffisafe_support::telemetry::{self, LogLevel};
use ffisafe_support::wire::Shared;
use ffisafe_support::Fingerprint;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Starts the watch loop on a background thread. The thread runs for the
/// rest of the process, like the session threads it feeds.
pub(crate) fn spawn_watcher(shared: Arc<Shared<ServeHandler>>, root: PathBuf, interval: Duration) {
    std::thread::spawn(move || {
        telemetry::log(
            LogLevel::Info,
            "serve",
            &format!("watching {} every {:?}", root.display(), interval),
        );
        let mut last: Option<Fingerprint> = None;
        let mut generation = 0u64;
        loop {
            let corpus = match Corpus::from_dir(&root) {
                Ok(corpus) => corpus,
                Err(e) => {
                    // A mid-edit tree (file vanished between listing and
                    // reading) heals on the next poll.
                    telemetry::log(
                        LogLevel::Warn,
                        "serve",
                        &format!("watch read of {} failed: {e}", root.display()),
                    );
                    std::thread::sleep(interval);
                    continue;
                }
            };
            let fingerprint = corpus.fingerprint();
            if last != Some(fingerprint) {
                last = Some(fingerprint);
                generation += 1;
                run_once(&shared, &root, corpus, generation);
            }
            std::thread::sleep(interval);
        }
    });
}

/// One watch re-analysis: admit (blocking), analyze, count, broadcast.
fn run_once(shared: &Shared<ServeHandler>, root: &Path, corpus: Corpus, generation: u64) {
    let started = Instant::now();
    let permit = shared.admission.admit();
    let options = AnalysisOptions::default();
    let result = shared.run_analysis(started, "server.watch", corpus, options, CacheMode::Shared);
    drop(permit);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            telemetry::log(
                LogLevel::Error,
                "serve",
                &format!("watch analysis of {} failed: {e}", root.display()),
            );
            return;
        }
    };
    shared.counters.watch_runs_total.fetch_add(1, Ordering::Relaxed);
    telemetry::log(
        LogLevel::Info,
        "serve",
        &format!(
            "watch generation {generation}: {} error(s), {} worker(s) executed",
            outcome.errors, outcome.workers_executed
        ),
    );
    shared.broadcast(&WatchEvent {
        root: root.display().to_string(),
        generation,
        errors: outcome.errors,
        warnings: outcome.warnings,
        workers_executed: outcome.workers_executed,
        rendered_stable: outcome.rendered_stable,
    });
    shared.export();
}
