//! Protocol edge cases (satellite 3): the daemon must degrade per
//! session, never per process.
//!
//! - An oversized frame gets an error reply, not a panic, and the
//!   listener keeps accepting.
//! - A mid-frame disconnect ends that session only; other clients keep
//!   being served.
//! - A HELLO version mismatch refuses the session without tearing down
//!   the listener.
//! - A saturated admission queue answers BUSY with a load snapshot.
//! - The request-latency histogram counts the wait for an admission slot.

use ffisafe_core::{AnalysisOptions, CacheMode, Corpus};
use ffisafe_serve::protocol::{read_frame, write_frame, Reply, Request};
use ffisafe_serve::{
    AnalysisServer, ServeClient, ServeConfig, ANALYZER_VERSION, SERVE_PROTOCOL_VERSION,
};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn corpus(tag: &str) -> Corpus {
    Corpus::builder()
        .ml_source(format!("{tag}.ml"), format!("external f : int -> int = \"{tag}_f\"\n"))
        .c_source(
            format!("{tag}_stubs.c"),
            format!("value {tag}_f(value n) {{ return Val_int(Int_val(n) + 1); }}\n"),
        )
        .build()
}

/// A daemon with no cache store (every request analyzes cold).
fn spawn_daemon(config: ServeConfig) -> (SocketAddr, ()) {
    let server = AnalysisServer::bind("127.0.0.1:0", config).unwrap();
    (server.spawn().unwrap(), ())
}

fn handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello =
        Request::Hello { protocol: SERVE_PROTOCOL_VERSION, analyzer: ANALYZER_VERSION.to_string() };
    write_frame(&mut stream, hello.to_json().as_bytes()).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    assert!(matches!(Reply::parse(&reply).unwrap(), Reply::HelloOk { .. }));
    stream
}

fn assert_still_serving(addr: SocketAddr, tag: &str) {
    let mut client = ServeClient::connect(&format!("tcp://{addr}")).unwrap();
    match client.analyze(&corpus(tag), AnalysisOptions::default(), CacheMode::Shared).unwrap() {
        Reply::Analyze(outcome) => assert_eq!(outcome.errors, 0, "{}", outcome.rendered),
        other => panic!("daemon no longer serving: {other:?}"),
    }
}

#[test]
fn oversized_frame_gets_an_error_reply_not_a_panic() {
    let (addr, ()) = spawn_daemon(ServeConfig::default());
    let mut stream = handshake(addr);
    // A length prefix far over MAX_FRAME_BYTES; no body follows.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Reply::parse(&reply).unwrap() {
        Reply::Error { message } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // That session is over, but the daemon still serves new clients.
    assert_still_serving(addr, "after-oversize");
}

#[test]
fn mid_frame_disconnect_leaves_the_daemon_serving_others() {
    let (addr, ()) = spawn_daemon(ServeConfig::default());
    {
        let mut stream = handshake(addr);
        // Promise 1000 bytes, send 3, hang up.
        stream.write_all(&1000u32.to_le_bytes()).unwrap();
        stream.write_all(b"abc").unwrap();
        stream.flush().unwrap();
    }
    assert_still_serving(addr, "after-disconnect");
}

#[test]
fn hello_version_mismatch_refuses_the_session_only() {
    let (addr, ()) = spawn_daemon(ServeConfig::default());

    // Wrong protocol version.
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello =
        Request::Hello { protocol: SERVE_PROTOCOL_VERSION + 1, analyzer: ANALYZER_VERSION.into() };
    write_frame(&mut stream, hello.to_json().as_bytes()).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Reply::parse(&reply).unwrap() {
        Reply::Error { message } => {
            assert!(message.contains("protocol version mismatch"), "{message}")
        }
        other => panic!("expected refusal, got {other:?}"),
    }

    // Wrong analyzer version.
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Request::Hello { protocol: SERVE_PROTOCOL_VERSION, analyzer: "0.0.0-other".into() };
    write_frame(&mut stream, hello.to_json().as_bytes()).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Reply::parse(&reply).unwrap() {
        Reply::Error { message } => {
            assert!(message.contains("analyzer version mismatch"), "{message}")
        }
        other => panic!("expected refusal, got {other:?}"),
    }

    // The listener survived both refusals.
    assert_still_serving(addr, "after-mismatch");
}

#[test]
fn saturated_admission_queue_answers_busy() {
    // One slot, no queue; hold the slot directly so the BUSY path is
    // deterministic rather than a race against a slow analysis.
    let server = AnalysisServer::bind(
        "127.0.0.1:0",
        ServeConfig { max_inflight: 1, queue_depth: 0, ..Default::default() },
    )
    .unwrap();
    // Leak the permit's referent: the server moves into its accept
    // thread, so hold the gate through a leaked borrow instead.
    let server: &'static AnalysisServer = Box::leak(Box::new(server));
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    let permit = server.admission().try_admit().unwrap();

    let mut client = ServeClient::connect(&format!("tcp://{addr}")).unwrap();
    match client.analyze(&corpus("busy"), AnalysisOptions::default(), CacheMode::Shared).unwrap() {
        Reply::Busy { running, queued } => {
            assert_eq!(running, 1);
            assert_eq!(queued, 0);
        }
        other => panic!("expected BUSY, got {other:?}"),
    }

    // Freeing the slot lets the same connection through.
    drop(permit);
    match client.analyze(&corpus("busy"), AnalysisOptions::default(), CacheMode::Shared).unwrap() {
        Reply::Analyze(outcome) => assert_eq!(outcome.errors, 0, "{}", outcome.rendered),
        other => panic!("expected analyze reply after the slot freed, got {other:?}"),
    }
}

#[test]
fn request_latency_histogram_includes_the_admission_wait() {
    let server = AnalysisServer::bind(
        "127.0.0.1:0",
        ServeConfig { max_inflight: 1, queue_depth: 1, ..Default::default() },
    )
    .unwrap();
    let server: &'static AnalysisServer = Box::leak(Box::new(server));
    let url = format!("tcp://{}", server.local_addr().unwrap());
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    let permit = server.admission().try_admit().unwrap();

    let queued = {
        let url = url.clone();
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(&url).unwrap();
            client.analyze(&corpus("queued"), AnalysisOptions::default(), CacheMode::Shared)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.admission().queued() != 1 {
        assert!(Instant::now() < deadline, "the request never queued");
        std::thread::sleep(Duration::from_millis(2));
    }
    let held = Instant::now();
    std::thread::sleep(Duration::from_millis(300));
    let waited = held.elapsed().as_secs_f64();
    drop(permit);
    match queued.join().unwrap().unwrap() {
        Reply::Analyze(outcome) => assert_eq!(outcome.errors, 0, "{}", outcome.rendered),
        other => panic!("expected an analyze reply, got {other:?}"),
    }

    let metrics = ServeClient::connect(&url).unwrap().metrics().unwrap();
    let sum: f64 = metrics
        .lines()
        .find_map(|line| line.strip_prefix("ffisafe_server_request_seconds_sum "))
        .unwrap_or_else(|| panic!("no request latency sum in:\n{metrics}"))
        .parse()
        .unwrap();
    assert!(sum >= waited, "latency sum {sum}s misses the {waited}s admission wait");
}
