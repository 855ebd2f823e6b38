//! Backend conformance: the local [`CacheStore`] and the remote
//! daemon/client pair must be observationally identical through the
//! [`CacheBackend`] trait — same ops, same results, same occupancy — so a
//! sweep pointed at `tcp://…` instead of a directory produces
//! byte-identical reports.

use ffisafe_cache::{
    open_backend, CacheBackend, CacheLocation, CacheServer, CacheStore, RemoteBackend, Tier,
};
use ffisafe_support::Fingerprint;
use std::path::PathBuf;
use std::sync::Arc;

const VERSION: &str = "ffisafe-test schema 999";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffisafe-conf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(i: usize) -> Fingerprint {
    Fingerprint::of_bytes(format!("conformance key {i}").as_bytes())
}

/// Spins up a daemon over a fresh directory and returns a connected
/// remote backend (plus the directory, for on-disk tampering).
fn remote_backend(tag: &str) -> (Arc<dyn CacheBackend>, PathBuf) {
    let dir = temp_dir(tag);
    let store = CacheStore::open(&dir, VERSION).unwrap();
    let addr = CacheServer::bind("127.0.0.1:0", store).unwrap().spawn().unwrap();
    let backend = open_backend(&CacheLocation::parse(&format!("tcp://{addr}")), VERSION).unwrap();
    (backend, dir)
}

fn local_backend(tag: &str) -> (Arc<dyn CacheBackend>, PathBuf) {
    let dir = temp_dir(tag);
    let backend = open_backend(&CacheLocation::parse(&dir.display().to_string()), VERSION).unwrap();
    (backend, dir)
}

/// Runs one op script against a backend and returns every observable.
fn run_script(backend: &dyn CacheBackend) -> (Vec<Option<Vec<u8>>>, u64, u64) {
    let mut observed = Vec::new();
    observed.push(backend.get(Tier::Function, key(0))); // cold miss
    for i in 0..8 {
        let tier = if i % 2 == 0 { Tier::Function } else { Tier::Report };
        backend.put(tier, key(i), format!("payload {i}").as_bytes()).unwrap();
    }
    backend.put(Tier::Function, key(0), b"replaced").unwrap(); // overwrite
    for i in 0..8 {
        let tier = if i % 2 == 0 { Tier::Function } else { Tier::Report };
        observed.push(backend.get(tier, key(i)));
    }
    observed.push(backend.get(Tier::Report, key(0))); // same fp, other tier: miss
    backend.flush().unwrap();
    let stats = backend.stats();
    (observed, stats.entries as u64, stats.live_bytes)
}

#[test]
fn both_backends_observe_identical_results_for_the_same_ops() {
    let (local, local_dir) = local_backend("script-local");
    let (remote, remote_dir) = remote_backend("script-remote");
    let local_out = run_script(local.as_ref());
    let remote_out = run_script(remote.as_ref());
    assert_eq!(local_out, remote_out);
    assert_eq!(local_out.0[1].as_deref(), Some(b"replaced" as &[u8]));
    assert_eq!(local_out.1, 8, "8 distinct (tier, fp) keys");
    let _ = std::fs::remove_dir_all(&local_dir);
    let _ = std::fs::remove_dir_all(&remote_dir);
}

/// Craft an orphan: a valid entry file copied in behind the backend's
/// back. Either backend serves it, and counts it after `adopt_orphans`.
fn orphan_is_adopted(backend: &dyn CacheBackend, dir: &std::path::Path) {
    let donor_dir = temp_dir("orphan-donor");
    let donor = CacheStore::open(&donor_dir, VERSION).unwrap();
    let fp = Fingerprint::of_bytes(b"orphaned payload key");
    donor.put(Tier::Function, fp, b"orphaned payload").unwrap();
    let name = format!("fn-{}.bin", fp.to_hex());
    std::fs::copy(donor_dir.join(&name), dir.join(&name)).unwrap();
    let _ = std::fs::remove_dir_all(&donor_dir);

    backend.adopt_orphans();
    assert_eq!(backend.stats().entries, 1, "the adopted entry is counted");
    assert_eq!(
        backend.get(Tier::Function, fp).as_deref(),
        Some(b"orphaned payload" as &[u8]),
        "adopted orphan must be served"
    );
}

#[test]
fn orphaned_entries_are_adopted_by_both_backends() {
    let (local, local_dir) = local_backend("orphan-local");
    orphan_is_adopted(local.as_ref(), &local_dir);
    let (remote, remote_dir) = remote_backend("orphan-remote");
    orphan_is_adopted(remote.as_ref(), &remote_dir);
    let _ = std::fs::remove_dir_all(&local_dir);
    let _ = std::fs::remove_dir_all(&remote_dir);
}

/// Corrupt the entry file on disk; both backends must degrade to a miss —
/// never an error — and stay consistent afterwards.
fn corruption_is_a_miss(backend: &dyn CacheBackend, dir: &std::path::Path) {
    let fp = Fingerprint::of_bytes(b"soon to be corrupted");
    backend.put(Tier::Report, fp, b"pristine payload").unwrap();
    assert!(backend.get(Tier::Report, fp).is_some());
    let path = dir.join(format!("rp-{}.bin", fp.to_hex()));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(backend.get(Tier::Report, fp), None, "corrupt entry reads as a miss");
    assert_eq!(backend.get(Tier::Report, fp), None, "and stays a miss");
    backend.put(Tier::Report, fp, b"rewritten").unwrap();
    assert_eq!(backend.get(Tier::Report, fp).as_deref(), Some(b"rewritten" as &[u8]));
}

#[test]
fn corrupted_entries_are_a_miss_never_an_error_on_both_backends() {
    let (local, local_dir) = local_backend("corrupt-local");
    corruption_is_a_miss(local.as_ref(), &local_dir);
    let (remote, remote_dir) = remote_backend("corrupt-remote");
    corruption_is_a_miss(remote.as_ref(), &remote_dir);
    let _ = std::fs::remove_dir_all(&local_dir);
    let _ = std::fs::remove_dir_all(&remote_dir);
}

#[test]
fn analyzer_version_mismatch_refuses_the_remote_session() {
    let dir = temp_dir("version-refusal");
    let store = CacheStore::open(&dir, "ffisafe-old schema 1").unwrap();
    store.put(Tier::Function, key(1), b"other clients still need this").unwrap();
    let addr = CacheServer::bind("127.0.0.1:0", store).unwrap().spawn().unwrap();

    let err = match RemoteBackend::connect(&format!("tcp://{addr}"), "ffisafe-new schema 2") {
        Err(err) => err,
        Ok(_) => panic!("mismatched analyzer version must refuse the session"),
    };
    assert!(err.to_string().contains("schema"), "{err}");

    // The refusal must not wipe the store out from under matching clients.
    let survivor =
        RemoteBackend::connect(&format!("tcp://{addr}"), "ffisafe-old schema 1").unwrap();
    assert!(survivor.get(Tier::Function, key(1)).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_distinguishes_urls_from_directories() {
    assert!(matches!(CacheLocation::parse("tcp://127.0.0.1:7070"), CacheLocation::Url(_)));
    assert!(matches!(CacheLocation::parse("/var/cache/ffisafe"), CacheLocation::Dir(_)));
    assert!(matches!(CacheLocation::parse("relative/dir"), CacheLocation::Dir(_)));
}

#[test]
fn sharded_index_survives_concurrent_get_put_hammering() {
    let dir = temp_dir("stress-local");
    let store = Arc::new(CacheStore::open(&dir, VERSION).unwrap());
    let threads = 8;
    let per_thread = 200;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let fp = Fingerprint::of_bytes(format!("stress {t} {i}").as_bytes());
                    let payload = format!("value {t} {i}");
                    store.put(Tier::Function, fp, payload.as_bytes()).unwrap();
                    // read back own write plus a neighbor's key (may or
                    // may not exist yet — must never error or corrupt)
                    assert_eq!(store.get(Tier::Function, fp).as_deref(), Some(payload.as_bytes()));
                    let other = Fingerprint::of_bytes(
                        format!("stress {} {i}", (t + 1) % threads).as_bytes(),
                    );
                    if let Some(seen) = store.get(Tier::Function, other) {
                        assert_eq!(seen, format!("value {} {i}", (t + 1) % threads).into_bytes());
                    }
                    if i % 64 == 0 {
                        store.flush().unwrap();
                    }
                }
            });
        }
    });
    store.flush().unwrap();
    let stats = store.stats();
    assert_eq!(stats.entries, threads * per_thread, "every write indexed exactly once");
    for t in 0..threads {
        for i in 0..per_thread {
            let fp = Fingerprint::of_bytes(format!("stress {t} {i}").as_bytes());
            assert_eq!(
                store.get(Tier::Function, fp).as_deref(),
                Some(format!("value {t} {i}").as_bytes())
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_puts_of_one_key_all_succeed() {
    // Two clients solving the same function at once put the same entry;
    // neither write may fail because the other renamed its file away.
    let dir = temp_dir("same-key");
    let store = CacheStore::open(&dir, VERSION).unwrap();
    let payload = vec![0x5a_u8; 64 * 1024];
    for round in 0..100 {
        let fp = key(round);
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<std::io::Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.put(Tier::Function, fp, &payload)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in results {
            assert!(result.is_ok(), "round {round}: {result:?}");
        }
        assert_eq!(store.get(Tier::Function, fp).as_deref(), Some(&payload[..]), "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_backend_is_shareable_across_threads() {
    let (remote, dir) = remote_backend("stress-remote");
    let threads = 4;
    let per_thread = 50;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let remote = Arc::clone(&remote);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let fp = Fingerprint::of_bytes(format!("remote stress {t} {i}").as_bytes());
                    let payload = format!("remote value {t} {i}");
                    remote.put(Tier::Function, fp, payload.as_bytes()).unwrap();
                    assert_eq!(remote.get(Tier::Function, fp).as_deref(), Some(payload.as_bytes()));
                }
            });
        }
    });
    assert_eq!(remote.stats().entries, threads * per_thread);
    let _ = std::fs::remove_dir_all(&dir);
}
