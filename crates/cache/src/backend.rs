//! The pluggable storage layer behind the two-tier cache.
//!
//! [`CacheBackend`] is the narrow waist between the analysis pipeline and
//! wherever cache entries actually live. Two implementations exist:
//!
//! * [`CacheStore`] — the local on-disk store (`--cache-dir`), one file
//!   per entry and no in-memory index, so concurrent workers never
//!   serialize on lookups;
//! * [`RemoteBackend`](crate::remote::RemoteBackend) — a client for the
//!   `ffisafe cache-serve` daemon (`--cache-url tcp://host:port`), so N
//!   sweep processes or machines share one logical store.
//!
//! Every method takes `&self`: backends are internally synchronized and
//! meant to be shared as `Arc<dyn CacheBackend>` across worker threads.
//! Backends degrade, never fail analysis: a broken lookup is a miss, a
//! failed insert is reported as an `Err` the caller may ignore.

use crate::store::{CacheStats, CacheStore, Tier};
use ffisafe_support::Fingerprint;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// One logical two-tier content-addressed store, local or remote.
pub trait CacheBackend: Send + Sync + std::fmt::Debug {
    /// Looks up an entry; any failure (missing, corrupt, I/O, network)
    /// reads as a miss.
    fn get(&self, tier: Tier, fp: Fingerprint) -> Option<Vec<u8>>;

    /// Inserts (or replaces) an entry.
    fn put(&self, tier: Tier, fp: Fingerprint, payload: &[u8]) -> io::Result<()>;

    /// Enforces the size cap.
    fn flush(&self) -> io::Result<()>;

    /// Counters for this backend's lifetime plus current occupancy. For a
    /// remote backend the numbers are the *server's*, so occupancy covers
    /// entries written by every client sharing the store.
    fn stats(&self) -> CacheStats;

    /// Re-syncs with entries written by sibling processes since open
    /// (local: re-scan the directory; remote: ask the server to re-scan).
    fn adopt_orphans(&self);

    /// Human-readable location for diagnostics (`/path/to/dir` or
    /// `tcp://host:port`).
    fn location(&self) -> String;
}

impl CacheBackend for CacheStore {
    fn get(&self, tier: Tier, fp: Fingerprint) -> Option<Vec<u8>> {
        CacheStore::get(self, tier, fp)
    }

    fn put(&self, tier: Tier, fp: Fingerprint, payload: &[u8]) -> io::Result<()> {
        CacheStore::put(self, tier, fp, payload)
    }

    fn flush(&self) -> io::Result<()> {
        CacheStore::flush(self)
    }

    fn stats(&self) -> CacheStats {
        CacheStore::stats(self)
    }

    fn adopt_orphans(&self) {
        CacheStore::adopt_orphans(self)
    }

    fn location(&self) -> String {
        self.dir().display().to_string()
    }
}

/// Where a cache lives: a local directory (`--cache-dir`) or a
/// `cache-serve` daemon (`--cache-url`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheLocation {
    /// A local on-disk store rooted at this directory.
    Dir(PathBuf),
    /// A remote store, e.g. `tcp://127.0.0.1:7441`.
    Url(String),
}

impl CacheLocation {
    /// Classifies a CLI-style spec: anything with a `tcp://` scheme is a
    /// URL, everything else is a directory path.
    pub fn parse(spec: &str) -> CacheLocation {
        if spec.starts_with("tcp://") {
            CacheLocation::Url(spec.to_string())
        } else {
            CacheLocation::Dir(PathBuf::from(spec))
        }
    }
}

impl std::fmt::Display for CacheLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLocation::Dir(dir) => write!(f, "{}", dir.display()),
            CacheLocation::Url(url) => write!(f, "{url}"),
        }
    }
}

/// Opens the backend a location names, verifying the analyzer version
/// (local: wipe-on-mismatch at open; remote: handshake with the server).
pub fn open_backend(
    location: &CacheLocation,
    analyzer_version: &str,
) -> io::Result<Arc<dyn CacheBackend>> {
    match location {
        CacheLocation::Dir(dir) => Ok(Arc::new(CacheStore::open(dir, analyzer_version)?)),
        CacheLocation::Url(url) => {
            Ok(Arc::new(crate::remote::RemoteBackend::connect(url, analyzer_version)?))
        }
    }
}
