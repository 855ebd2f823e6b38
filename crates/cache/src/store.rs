//! The on-disk content-addressed store behind `--cache-dir`.
//!
//! Layout (all inside one cache directory):
//!
//! ```text
//! <cache-dir>/
//!   index.bin        header only: magic, format version, analyzer version
//!   fn-<hex32>.bin   tier-1: one base state's pack of function outcomes,
//!                    or one memoized Rust boundary check
//!   rp-<hex32>.bin   tier-2: one rendered whole-corpus report
//! ```
//!
//! The directory is the index: an entry exists exactly when its file
//! does, and the file's mtime is its last use. Every entry file carries
//! its own magic, format version, payload length and a trailing content
//! checksum; a truncated, bit-flipped or wrong-version entry fails
//! validation and is **treated as a miss** (and deleted), never an error.
//! `index.bin` pins the analyzer version — opening the store with a
//! different version wipes it wholesale, which is how analyzer upgrades
//! invalidate stale results. Entries whose options differ never collide
//! because the options digest is folded into every fingerprint by the
//! caller.
//!
//! Eviction is LRU by mtime: a hit stamps the entry's file with the
//! current time, and whenever [`CacheStore::flush`] finds the store over
//! its size cap, the oldest entries are deleted until it fits.
//!
//! One directory may be shared by several processes (sharded sweeps run
//! many `ffisafe` children over one `--cache-dir`). Entry writes are
//! atomic (a uniquely named temp file renamed into place) and
//! content-addressed, and there is no index to race: an entry a sibling
//! process wrote is visible to every other process as soon as its rename
//! lands.

use crate::codec::{Decoder, Encoder};
use ffisafe_support::{Fingerprint, MetricsRegistry};
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::SystemTime;

/// Magic prefix of entry files.
const ENTRY_MAGIC: [u8; 4] = *b"FFSE";
/// Magic prefix of the index file.
const INDEX_MAGIC: [u8; 4] = *b"FFSX";
/// Bump when the entry/index binary layout changes.
const FORMAT_VERSION: u32 = 2;
/// Default size cap: plenty for per-function outcomes of large corpora.
const DEFAULT_CAP_BYTES: u64 = 256 * 1024 * 1024;

/// Which cache tier an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Tier 1: memoized per-function inference outcomes.
    Function,
    /// Tier 2: rendered whole-corpus reports.
    Report,
}

impl Tier {
    fn prefix(self) -> &'static str {
        match self {
            Tier::Function => "fn",
            Tier::Report => "rp",
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Tier::Function => 0,
            Tier::Report => 1,
        }
    }
}

/// Hit/miss/eviction counters for one store lifetime, plus the store's
/// current occupancy (entry count and live bytes) at the moment
/// [`CacheStore::stats`] was called.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tier-1 lookups that replayed a memoized function outcome.
    pub fn_hits: usize,
    /// Tier-1 lookups that fell through to a live inference worker.
    pub fn_misses: usize,
    /// Tier-2 lookups that served a whole rendered report.
    pub report_hits: usize,
    /// Tier-2 lookups that fell through to a full analysis.
    pub report_misses: usize,
    /// Entries deleted by the LRU size-cap sweep.
    pub evictions: usize,
    /// Entries dropped because validation failed (corrupt/truncated).
    pub corrupt: usize,
    /// Entry files in the store (occupancy, not a counter).
    pub entries: usize,
    /// Total entry-file bytes (occupancy, not a counter).
    pub live_bytes: u64,
}

impl CacheStats {
    /// Feeds these counters into a [`MetricsRegistry`] under the
    /// `ffisafe_cache_store_*` family (see README "Observability").
    pub fn feed_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc_counter(
            "ffisafe_cache_store_fn_hits_total",
            "Store-level tier-1 lookups that replayed a memoized outcome",
            &[],
            self.fn_hits as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_fn_misses_total",
            "Store-level tier-1 lookups that fell through to a worker",
            &[],
            self.fn_misses as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_report_hits_total",
            "Store-level tier-2 lookups that served a whole report",
            &[],
            self.report_hits as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_report_misses_total",
            "Store-level tier-2 lookups that fell through to a full analysis",
            &[],
            self.report_misses as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_evictions_total",
            "Entries deleted by the LRU size-cap sweep",
            &[],
            self.evictions as u64,
        );
        reg.inc_counter(
            "ffisafe_cache_store_corrupt_total",
            "Entries dropped because validation failed",
            &[],
            self.corrupt as u64,
        );
        reg.set_gauge(
            "ffisafe_cache_store_entries",
            "Entries currently indexed",
            &[],
            self.entries as f64,
        );
        reg.set_gauge(
            "ffisafe_cache_store_live_bytes",
            "Total indexed payload-file bytes",
            &[],
            self.live_bytes as f64,
        );
    }
}

/// Run-lifetime hit/miss counters, updated lock-free.
#[derive(Debug, Default)]
struct Counters {
    fn_hits: AtomicUsize,
    fn_misses: AtomicUsize,
    report_hits: AtomicUsize,
    report_misses: AtomicUsize,
    evictions: AtomicUsize,
    corrupt: AtomicUsize,
}

/// A two-tier content-addressed cache rooted at one directory.
///
/// The store keeps no per-entry state in memory: every operation goes to
/// the directory, so a single `CacheStore` can be shared
/// (`Arc<CacheStore>`) across many worker threads without a lock, and
/// several processes can share one directory.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    analyzer_version: String,
    cap_bytes: AtomicU64,
    /// Entry bytes on disk as of the last directory scan, plus every byte
    /// put since. [`CacheStore::flush`] scans only once this exceeds the
    /// cap.
    estimated_bytes: AtomicU64,
    counters: Counters,
}

/// One entry file seen by a directory scan.
struct ScannedEntry {
    name: String,
    size: u64,
    last_used: SystemTime,
}

/// How a directory entry name reads: `None` when it is not entry-shaped
/// (the index, temp files, foreign files), `Some(false)` for an
/// entry-shaped name that addresses nothing, `Some(true)` for an entry.
fn classify(name: &str) -> Option<bool> {
    let rest = name.strip_prefix("fn-").or_else(|| name.strip_prefix("rp-"))?;
    let hex = rest.strip_suffix(".bin")?;
    Some(hex.len() == 32 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
}

impl CacheStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// `analyzer_version` identifies the producer; if the on-disk index was
    /// written by a different version — or is missing or unreadable — every
    /// existing entry is deleted and the store starts empty.
    pub fn open(dir: &Path, analyzer_version: &str) -> io::Result<CacheStore> {
        std::fs::create_dir_all(dir)?;
        let store = CacheStore {
            dir: dir.to_path_buf(),
            analyzer_version: analyzer_version.to_string(),
            cap_bytes: AtomicU64::new(DEFAULT_CAP_BYTES),
            estimated_bytes: AtomicU64::new(0),
            counters: Counters::default(),
        };
        let index = dir.join("index.bin");
        let pinned = match std::fs::read(&index) {
            Ok(bytes) => index_version(&bytes).as_deref() == Some(analyzer_version),
            // No index at all: fresh only if there are no entry files.
            Err(_) => !store.has_entry_files(),
        };
        if pinned {
            store.adopt_orphans();
        } else {
            store.wipe();
        }
        // Persist the index right away if it is not on disk. Entry files
        // next to a *missing* index read as an interrupted unversioned
        // store and trigger a wipe, so without this a second process
        // opening a fresh directory could destroy entries the first
        // process had already written.
        if !index.exists() {
            let mut e = Encoder::new();
            e.put_u32(u32::from_le_bytes(INDEX_MAGIC));
            e.put_u32(FORMAT_VERSION);
            e.put_str(analyzer_version);
            write_atomic(&index, &e.into_bytes())?;
        }
        Ok(store)
    }

    /// The directory this store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The analyzer version this store was opened with.
    pub fn analyzer_version(&self) -> &str {
        &self.analyzer_version
    }

    /// Overrides the size cap enforced by [`CacheStore::flush`].
    pub fn set_cap_bytes(&self, cap: u64) {
        self.cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// Counters accumulated since the store was opened, with the current
    /// occupancy (entry count, live bytes) read from the directory.
    pub fn stats(&self) -> CacheStats {
        let entries = self.scan(false);
        CacheStats {
            fn_hits: self.counters.fn_hits.load(Ordering::Relaxed),
            fn_misses: self.counters.fn_misses.load(Ordering::Relaxed),
            report_hits: self.counters.report_hits.load(Ordering::Relaxed),
            report_misses: self.counters.report_misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
            entries: entries.len(),
            live_bytes: entries.iter().map(|e| e.size).sum(),
        }
    }

    /// Number of entry files in the store.
    pub fn entry_count(&self) -> usize {
        self.scan(false).len()
    }

    /// Total entry-file bytes.
    pub fn total_bytes(&self) -> u64 {
        self.scan(false).iter().map(|e| e.size).sum()
    }

    /// Whether an entry's file exists (no validation, no LRU touch).
    pub fn contains(&self, tier: Tier, fp: Fingerprint) -> bool {
        self.entry_path(tier, fp).is_file()
    }

    fn entry_path(&self, tier: Tier, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}-{}.bin", tier.prefix(), fp.to_hex()))
    }

    fn count_get(&self, tier: Tier, hit: bool) {
        let counter = match (tier, hit) {
            (Tier::Function, true) => &self.counters.fn_hits,
            (Tier::Function, false) => &self.counters.fn_misses,
            (Tier::Report, true) => &self.counters.report_hits,
            (Tier::Report, false) => &self.counters.report_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up an entry. A hit returns the validated payload and stamps
    /// the file's mtime as its last use; any validation failure deletes
    /// the entry and reports a miss.
    pub fn get(&self, tier: Tier, fp: Fingerprint) -> Option<Vec<u8>> {
        let path = self.entry_path(tier, fp);
        let Ok(mut file) = File::open(&path) else {
            self.count_get(tier, false);
            return None;
        };
        let mut bytes = Vec::new();
        match file.read_to_end(&mut bytes).ok().and_then(|_| validate_entry(&bytes)) {
            Some(payload) => {
                // A failed touch only makes the entry look older.
                let _ = file.set_modified(SystemTime::now());
                self.count_get(tier, true);
                Some(payload)
            }
            None => {
                let _ = std::fs::remove_file(&path);
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.count_get(tier, false);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry. The write is atomic: a temp file is
    /// renamed into place, so readers never observe a half-written entry.
    pub fn put(&self, tier: Tier, fp: Fingerprint, payload: &[u8]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(payload.len() + 32);
        bytes.extend_from_slice(&ENTRY_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let sum = Fingerprint::of_bytes(payload);
        bytes.extend_from_slice(&sum.0.to_le_bytes());
        bytes.extend_from_slice(&sum.1.to_le_bytes());

        write_atomic(&self.entry_path(tier, fp), &bytes)?;
        self.estimated_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Enforces the size cap. Does no I/O while the byte estimate is
    /// within the cap; above it, scans the directory once and deletes the
    /// least recently used entries (oldest mtime first, ties by name)
    /// until the store fits.
    pub fn flush(&self) -> io::Result<()> {
        let cap = self.cap_bytes.load(Ordering::Relaxed);
        if self.estimated_bytes.load(Ordering::Relaxed) <= cap {
            return Ok(());
        }
        let mut entries = self.scan(false);
        entries.sort_by(|a, b| a.last_used.cmp(&b.last_used).then_with(|| a.name.cmp(&b.name)));
        let mut total: u64 = entries.iter().map(|e| e.size).sum();
        for victim in &entries {
            if total <= cap {
                break;
            }
            if std::fs::remove_file(self.dir.join(&victim.name)).is_ok() {
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
            total -= victim.size;
        }
        self.estimated_bytes.store(total, Ordering::Relaxed);
        Ok(())
    }

    /// Deletes the index and every entry file.
    pub fn wipe(&self) {
        if let Ok(read) = std::fs::read_dir(&self.dir) {
            for dirent in read.flatten() {
                let name = dirent.file_name();
                let name = name.to_string_lossy();
                if name == "index.bin" || classify(&name).is_some() {
                    let _ = std::fs::remove_file(dirent.path());
                }
            }
        }
        self.estimated_bytes.store(0, Ordering::Relaxed);
    }

    /// Rescans the directory: deletes entry-shaped files whose names
    /// address nothing (they could never be read, and would count against
    /// the cap forever) and resets the byte estimate to the exact total.
    ///
    /// Entries written by sibling processes need no adoption — the
    /// directory is the index, so they are served as soon as they land.
    /// Runs at [`CacheStore::open`]; long-lived stores (a sweep parent, a
    /// `cache-serve` daemon) may call it again to re-sync the estimate.
    pub fn adopt_orphans(&self) {
        let total = self.scan(true).iter().map(|e| e.size).sum();
        self.estimated_bytes.store(total, Ordering::Relaxed);
    }

    /// Every entry file in the directory, with its size and last use.
    /// Temp and foreign files are skipped; with `delete_unaddressable`,
    /// entry-shaped names that address nothing are deleted.
    fn scan(&self, delete_unaddressable: bool) -> Vec<ScannedEntry> {
        let Ok(read) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut entries = Vec::new();
        for dirent in read.flatten() {
            let name = dirent.file_name().to_string_lossy().into_owned();
            match classify(&name) {
                Some(true) => {
                    // Skip a file evicted since the listing.
                    let Ok(meta) = dirent.metadata() else { continue };
                    let last_used = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    entries.push(ScannedEntry { name, size: meta.len(), last_used });
                }
                Some(false) if delete_unaddressable => {
                    let _ = std::fs::remove_file(dirent.path());
                }
                _ => {}
            }
        }
        entries
    }

    fn has_entry_files(&self) -> bool {
        std::fs::read_dir(&self.dir)
            .map(|read| {
                read.flatten().any(|d| classify(&d.file_name().to_string_lossy()).is_some())
            })
            .unwrap_or(false)
    }
}

/// Validates one entry file, returning its payload.
fn validate_entry(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut d = Decoder::new(bytes);
    if d.get_u32().ok()? != u32::from_le_bytes(ENTRY_MAGIC) {
        return None;
    }
    if d.get_u32().ok()? != FORMAT_VERSION {
        return None;
    }
    let len = d.get_len().ok()?;
    if d.remaining() != len + 16 {
        return None;
    }
    let payload = bytes[bytes.len() - 16 - len..bytes.len() - 16].to_vec();
    let mut tail = Decoder::new(&bytes[bytes.len() - 16..]);
    let sum = Fingerprint(tail.get_u64().ok()?, tail.get_u64().ok()?);
    if Fingerprint::of_bytes(&payload) != sum {
        return None;
    }
    Some(payload)
}

/// The analyzer version an index header pins, or `None` when the header
/// is malformed or from another format version.
fn index_version(bytes: &[u8]) -> Option<String> {
    let mut d = Decoder::new(bytes);
    if d.get_u32().ok()? != u32::from_le_bytes(INDEX_MAGIC) {
        return None;
    }
    if d.get_u32().ok()? != FORMAT_VERSION {
        return None;
    }
    let version = d.get_str().ok()?;
    d.finish().ok()?;
    Some(version)
}

/// Sequence number that makes every temp file this process writes unique.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` through a uniquely named temp file in the same
/// directory and a rename, so concurrent writers of one path never share
/// a temp file. The mtime is stamped explicitly: the kernel's own write
/// timestamps are coarse, and entries written within one tick would tie
/// in LRU order.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let stem = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = parent.join(format!(".{stem}.tmp-{}-{seq}", std::process::id()));
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        let _ = file.set_modified(SystemTime::now());
        Ok(())
    });
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ffisafe-cache-store-{}-{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint(n, n.wrapping_mul(0x9e37_79b9))
    }

    #[test]
    fn put_get_roundtrip_and_persistence() {
        let dir = temp_store_dir("roundtrip");
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)), None);
        store.put(Tier::Function, fp(1), b"outcome-bytes").unwrap();
        store.put(Tier::Report, fp(1), b"report-bytes").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"outcome-bytes");
        // same fingerprint, different tier: distinct entries
        assert_eq!(store.get(Tier::Report, fp(1)).unwrap(), b"report-bytes");
        store.flush().unwrap();
        assert_eq!(store.stats().fn_hits, 1);
        assert_eq!(store.stats().fn_misses, 1);

        // reopen: index persisted both entries
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 2);
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"outcome-bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyzer_version_change_wipes_everything() {
        let dir = temp_store_dir("version");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"old").unwrap();
        store.flush().unwrap();
        drop(store);

        let store = CacheStore::open(&dir, "v2").unwrap();
        assert_eq!(store.entry_count(), 0);
        assert_eq!(store.get(Tier::Function, fp(1)), None);
        // the stale entry file itself is gone, not merely unindexed
        assert!(!dir.join(format!("fn-{}.bin", fp(1).to_hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_format_1_store_is_wiped_once_at_open() {
        let dir = temp_store_dir("format-1");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"old").unwrap();
        drop(store);
        // A format-1 index: header, LRU clock and an empty entry table.
        let mut e = Encoder::new();
        e.put_u32(u32::from_le_bytes(INDEX_MAGIC));
        e.put_u32(1);
        e.put_str("v1");
        e.put_u64(0);
        e.put_len(0);
        std::fs::write(dir.join("index.bin"), e.into_bytes()).unwrap();

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 0);
        assert!(!dir.join(format!("fn-{}.bin", fp(1).to_hex())).exists());
        store.put(Tier::Function, fp(2), b"new").unwrap();
        drop(store);
        // The rewritten header pins the current format: no second wipe.
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.get(Tier::Function, fp(2)).unwrap(), b"new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_entries_are_misses() {
        let dir = temp_store_dir("corrupt");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"payload-one").unwrap();
        store.put(Tier::Function, fp(2), b"payload-two").unwrap();
        store.flush().unwrap();

        // bit-flip one entry, truncate the other
        let p1 = dir.join(format!("fn-{}.bin", fp(1).to_hex()));
        let mut bytes = std::fs::read(&p1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p1, &bytes).unwrap();
        let p2 = dir.join(format!("fn-{}.bin", fp(2).to_hex()));
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)), None);
        assert_eq!(store.get(Tier::Function, fp(2)), None);
        assert_eq!(store.stats().corrupt, 2);
        assert_eq!(store.stats().fn_misses, 2);
        // the bad files were dropped; a re-put works again
        store.put(Tier::Function, fp(1), b"fresh").unwrap();
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn valid_orphans_next_to_a_valid_index_are_adopted_at_open() {
        let dir = temp_store_dir("orphan-next-to-index");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"indexed").unwrap();
        store.flush().unwrap();
        // A run that dies between put and flush leaves a valid entry that
        // no flush ever saw.
        store.put(Tier::Function, fp(2), b"orphan").unwrap();
        drop(store);

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 2, "valid orphans are adopted, not lost");
        assert_eq!(store.get(Tier::Function, fp(1)).unwrap(), b"indexed");
        assert_eq!(store.get(Tier::Function, fp(2)).unwrap(), b"orphan");
        // …and they count against the size cap.
        assert!(store.total_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_persists_an_index_immediately_so_siblings_cannot_wipe() {
        let dir = temp_store_dir("fresh-index");
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert!(dir.join("index.bin").exists(), "fresh open writes the (empty) index");
        // process A writes an entry but has not flushed yet…
        let a = store;
        a.put(Tier::Function, fp(7), b"in-flight").unwrap();
        // …when process B opens the same directory: the persisted index
        // keeps B from reading "entries without an index" as an
        // interrupted store, and A's entry is adopted, not destroyed.
        let b = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(b.get(Tier::Function, fp(7)).unwrap(), b"in-flight");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_with_orphan_entries_wipes() {
        // An index-less directory containing entry files can only come
        // from an unknown producer (open() persists an index up front),
        // so nothing in it can be trusted: wipe.
        let dir = temp_store_dir("orphans");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(7), b"orphan").unwrap();
        drop(store);
        std::fs::remove_file(dir.join("index.bin")).unwrap();

        let store = CacheStore::open(&dir, "v1").unwrap();
        assert_eq!(store.entry_count(), 0);
        assert!(!dir.join(format!("fn-{}.bin", fp(7).to_hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_shaped_files_with_unparseable_names_are_deleted_at_open() {
        let dir = temp_store_dir("badname");
        let store = CacheStore::open(&dir, "v1").unwrap();
        drop(store);
        let junk = dir.join("fn-not-hex-at-all.bin");
        std::fs::write(&junk, b"whatever").unwrap();
        let unrelated = dir.join("README");
        std::fs::write(&unrelated, b"keep me").unwrap();

        let _ = CacheStore::open(&dir, "v1").unwrap();
        assert!(!junk.exists(), "unaddressable entry-shaped files cannot be evicted; delete");
        assert!(unrelated.exists(), "non-entry files are left alone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let dir = temp_store_dir("lru");
        let store = CacheStore::open(&dir, "v1").unwrap();
        let payload = vec![0u8; 100];
        for i in 0..10u64 {
            store.put(Tier::Function, fp(i), &payload).unwrap();
        }
        // touch the two oldest so they become the most recent
        assert!(store.get(Tier::Function, fp(0)).is_some());
        assert!(store.get(Tier::Function, fp(1)).is_some());
        // cap to roughly 4 entries (each file = payload + 32B header/sum)
        store.set_cap_bytes(4 * 132);
        store.flush().unwrap();
        assert!(store.entry_count() <= 4);
        assert!(store.contains(Tier::Function, fp(0)), "recently used survives");
        assert!(store.contains(Tier::Function, fp(1)), "recently used survives");
        assert!(!store.contains(Tier::Function, fp(2)), "cold entry evicted");
        assert!(store.stats().evictions >= 6);
        // evicted files are really gone
        assert!(!dir.join(format!("fn-{}.bin", fp(2).to_hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hit_counts_as_use_without_a_flush() {
        let dir = temp_store_dir("touch");
        let store = CacheStore::open(&dir, "v1").unwrap();
        for i in 0..3u64 {
            store.put(Tier::Function, fp(i), &[0u8; 100]).unwrap();
        }
        store.flush().unwrap();
        drop(store);

        // Read the oldest entry, then drop the store without a flush.
        let store = CacheStore::open(&dir, "v1").unwrap();
        assert!(store.get(Tier::Function, fp(0)).is_some());
        drop(store);

        // Room for two entries (payload + 32 B each): the least recently
        // used entry is now the second-oldest one.
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.set_cap_bytes(2 * 132);
        store.flush().unwrap();
        assert!(store.contains(Tier::Function, fp(0)), "the entry read last survives");
        assert!(!store.contains(Tier::Function, fp(1)), "the second-oldest entry is evicted");
        assert!(store.contains(Tier::Function, fp(2)));
        assert_eq!(store.stats().evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn flush_below_the_cap_leaves_the_directory_untouched() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_store_dir("quiet-flush");
        let store = CacheStore::open(&dir, "v1").unwrap();
        store.put(Tier::Function, fp(1), b"one").unwrap();
        store.put(Tier::Report, fp(2), b"two").unwrap();
        let snapshot = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .map(|d| {
                    let meta = d.metadata().unwrap();
                    let bytes = std::fs::read(d.path()).unwrap();
                    (d.file_name(), meta.ino(), meta.modified().unwrap(), bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = snapshot();
        assert_eq!(before.len(), 3, "index.bin and two entries");
        store.flush().unwrap();
        assert_eq!(snapshot(), before, "same files, inodes, mtimes and bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
