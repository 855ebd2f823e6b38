//! `cache-serve` session edges: a bad connection must cost that session
//! only, and the daemon's snapshot files must never be seen half-written.

use ffisafe_cache::{CacheBackend, CacheServer, CacheStore, Encoder, RemoteBackend, Tier};
use ffisafe_cache::{Decoder, WIRE_PROTOCOL_VERSION};
use ffisafe_support::wire::{read_frame, write_frame};
use ffisafe_support::Fingerprint;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const VERSION: &str = "ffisafe-test schema 999";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffisafe-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(tag: &str) -> (SocketAddr, PathBuf) {
    let dir = temp_dir(tag);
    let store = CacheStore::open(&dir.join("store"), VERSION).unwrap();
    (CacheServer::bind("127.0.0.1:0", store).unwrap().spawn().unwrap(), dir)
}

/// A raw connection past the HELLO round trip.
fn handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut hello = Encoder::new();
    hello.put_u8(0);
    hello.put_u32(WIRE_PROTOCOL_VERSION);
    hello.put_str(VERSION);
    write_frame(&mut stream, &hello.into_bytes()).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap(), [0], "handshake accepted");
    stream
}

fn assert_round_trip(backend: &RemoteBackend, tag: &str) {
    let fp = Fingerprint::of_bytes(tag.as_bytes());
    backend.put(Tier::Function, fp, tag.as_bytes()).unwrap();
    assert_eq!(backend.get(Tier::Function, fp).as_deref(), Some(tag.as_bytes()));
}

#[test]
fn oversized_frame_gets_an_error_reply_and_ends_only_that_session() {
    let (addr, dir) = spawn_daemon("oversize");
    let bystander = RemoteBackend::connect(&format!("tcp://{addr}"), VERSION).unwrap();
    let mut stream = handshake(addr);
    // A length prefix far over the cap; no body follows.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).unwrap();
    let mut d = Decoder::new(&reply);
    assert_eq!(d.get_u8().unwrap(), 1, "error status");
    let message = d.get_str().unwrap();
    assert!(message.contains("exceeds"), "{message}");
    // The stream cannot be resynchronized, so that session is over...
    assert!(read_frame(&mut stream).is_err(), "session must end after an oversized frame");
    // ...but connected and new clients are still served.
    assert_round_trip(&bystander, "bystander after oversize");
    let fresh = RemoteBackend::connect(&format!("tcp://{addr}"), VERSION).unwrap();
    assert_round_trip(&fresh, "fresh after oversize");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_disconnect_leaves_other_clients_served() {
    let (addr, dir) = spawn_daemon("disconnect");
    let bystander = RemoteBackend::connect(&format!("tcp://{addr}"), VERSION).unwrap();
    {
        let mut stream = handshake(addr);
        // Promise 1000 bytes, send 3, hang up.
        stream.write_all(&1000u32.to_le_bytes()).unwrap();
        stream.write_all(b"abc").unwrap();
        stream.flush().unwrap();
    }
    assert_round_trip(&bystander, "bystander after disconnect");
    let fresh = RemoteBackend::connect(&format!("tcp://{addr}"), VERSION).unwrap();
    assert_round_trip(&fresh, "fresh after disconnect");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls `path` until it holds `line`, returning its inode.
#[cfg(unix)]
fn wait_for_line(path: &std::path::Path, line: &str) -> u64 {
    use std::os::unix::fs::MetadataExt as _;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if text.lines().any(|l| l == line) {
                return std::fs::metadata(path).unwrap().ino();
            }
        }
        assert!(Instant::now() < deadline, "{} never showed {line:?}", path.display());
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Snapshots are renamed into place, never rewritten in place: a reader
/// holding the old file keeps a complete snapshot, and a new reader sees
/// a complete new one.
#[cfg(unix)]
#[test]
fn metrics_snapshots_replace_the_file_instead_of_rewriting_it() {
    let dir = temp_dir("snapshot");
    let store = CacheStore::open(&dir.join("store"), VERSION).unwrap();
    let metrics = dir.join("metrics.prom");
    let mut server = CacheServer::bind("127.0.0.1:0", store).unwrap();
    server.set_metrics_out(metrics.clone());
    let addr = server.spawn().unwrap();

    drop(handshake(addr));
    let first = wait_for_line(&metrics, "ffisafe_server_sessions_opened_total 1");
    drop(handshake(addr));
    let second = wait_for_line(&metrics, "ffisafe_server_sessions_opened_total 2");
    assert_ne!(first, second, "the second snapshot must be a new file renamed over the first");
    assert!(!dir.join("metrics.prom.tmp").exists(), "tmp file renamed away");
    let _ = std::fs::remove_dir_all(&dir);
}
