//! The remote cache backend: `ffisafe cache-serve` and its client.
//!
//! A [`CacheServer`] wraps one local [`CacheStore`] and serves it to any
//! number of clients over plain `std::net::TcpStream` — no TLS, no HTTP,
//! no dependencies — so N sweep processes (or machines) share one logical
//! store. A [`RemoteBackend`] is the client side, implementing
//! [`CacheBackend`] by forwarding every operation to the daemon.
//!
//! ## Wire protocol (version [`WIRE_PROTOCOL_VERSION`])
//!
//! The daemon is a [`Handler`] on [`ffisafe_support::wire`], which owns
//! the framing (a little-endian `u32` length, then the body, capped at
//! [`ffisafe_support::wire::MAX_FRAME_BYTES`]), the version check, the
//! session loop and the snapshot export. Bodies here are encoded with the
//! same [`Encoder`]/[`Decoder`] codec the on-disk formats use.
//!
//! A connection starts with one handshake round-trip, then carries any
//! number of requests, one reply per request, strictly in order:
//!
//! ```text
//! client → HELLO    u8 op, u32 protocol version, str analyzer version
//! server → reply    u8 status (0 ok; else str error follows)
//!
//! client → GET      u8 op, u8 tier, u64 fp.0, u64 fp.1
//! server → reply    u8 1 + len + payload bytes (hit) | u8 0 (miss)
//!
//! client → PUT      u8 op, u8 tier, u64 fp.0, u64 fp.1, len + payload
//! server → reply    u8 status
//!
//! client → FLUSH | STATS | ADOPT      u8 op
//! server → reply    u8 status [, STATS: 8 × u64 counter/occupancy]
//!
//! client → METRICS  u8 op
//! server → reply    u8 status, str Prometheus text exposition
//! ```
//!
//! The handshake pins both the protocol version and the analyzer version:
//! a server for a different analyzer refuses the session, mirroring the
//! wipe-on-version-mismatch rule of the local store — except a shared
//! daemon must *refuse* rather than wipe, because other clients of the
//! matching version may still be using the entries.
//!
//! The client degrades instead of failing: a dead connection is redialed
//! once per operation, and an operation that still cannot complete reads
//! as a miss (`get`) or surfaces an `io::Error` the pipeline ignores
//! (`put`). Requests are sharded across `CLIENT_CONNS` connections by
//! fingerprint prefix, so parallel workers do not serialize on one
//! socket.

use crate::backend::CacheBackend;
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::store::{CacheStats, CacheStore, Tier};
use ffisafe_support::telemetry::{self, LogLevel, MetricsRegistry};
use ffisafe_support::wire::{
    bad_data, dial, read_frame, write_frame, Daemon, Handled, Handler, Shared,
};
use ffisafe_support::Fingerprint;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bump when the frame layout or operation set changes. A mismatch ends
/// the session at the handshake. Version 2 added the METRICS op.
pub const WIRE_PROTOCOL_VERSION: u32 = 2;

/// Connections a client holds, addressed by fingerprint prefix.
const CLIENT_CONNS: usize = 4;

const OP_HELLO: u8 = 0;
const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_FLUSH: u8 = 3;
const OP_STATS: u8 = 4;
const OP_ADOPT: u8 = 5;
const OP_METRICS: u8 = 6;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Per op code: the metric label, the client span and the server span.
/// Unknown ops share the last row.
const OP_NAMES: [[&str; 3]; 8] = [
    ["hello", "cache.rpc.hello", "cache.serve.hello"],
    ["get", "cache.rpc.get", "cache.serve.get"],
    ["put", "cache.rpc.put", "cache.serve.put"],
    ["flush", "cache.rpc.flush", "cache.serve.flush"],
    ["stats", "cache.rpc.stats", "cache.serve.stats"],
    ["adopt", "cache.rpc.adopt", "cache.serve.adopt"],
    ["metrics", "cache.rpc.metrics", "cache.serve.metrics"],
    ["unknown", "cache.rpc.unknown", "cache.serve.unknown"],
];

/// The row of [`OP_NAMES`] (and the counter slot) for a frame's op byte.
fn op_index(body: &[u8]) -> usize {
    body.first().map_or(OP_NAMES.len() - 1, |&op| (op as usize).min(OP_NAMES.len() - 1))
}

fn decode_error(e: DecodeError) -> io::Error {
    bad_data(e.to_string())
}

/// Splits a frame whose tail is a length-prefixed payload: decodes the
/// length with `d`, checks it spans exactly the rest of `body`, and
/// returns the payload bytes.
fn tail_payload(d: &mut Decoder<'_>, body: &[u8]) -> io::Result<Vec<u8>> {
    let len = d.get_len().map_err(decode_error)?;
    if d.remaining() != len {
        return Err(bad_data("payload length does not match the frame"));
    }
    Ok(body[body.len() - len..].to_vec())
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A daemon serving one [`CacheStore`] to many TCP clients:
/// `CacheServer::bind(addr, store)`.
///
/// Each accepted connection gets its own thread; the store takes no lock,
/// so concurrent clients contend only in the filesystem, exactly as
/// in-process workers do. Snapshots are rewritten as each session ends.
pub type CacheServer = Daemon<StoreHandler>;

/// The `cache-serve` protocol over one store, plus its per-op counters.
pub struct StoreHandler {
    store: CacheStore,
    /// Requests served, by [`op_index`].
    ops: [AtomicU64; OP_NAMES.len()],
}

/// What `CacheServer::bind` builds its handler from; this cannot fail.
impl TryFrom<CacheStore> for StoreHandler {
    type Error = io::Error;

    fn try_from(store: CacheStore) -> io::Result<StoreHandler> {
        Ok(StoreHandler { store, ops: Default::default() })
    }
}

impl Handler for StoreHandler {
    const NAME: &'static str = "cache-serve";
    const HELLO_SPAN: &'static str = "cache.serve.hello";
    const PROTOCOL: u32 = WIRE_PROTOCOL_VERSION;

    fn analyzer_version(&self) -> &str {
        self.store.analyzer_version()
    }

    fn decode_hello(&self, body: &[u8]) -> Result<(u32, String), String> {
        // Every HELLO counts as a `hello` op, accepted or refused.
        self.ops[OP_HELLO as usize].fetch_add(1, Ordering::Relaxed);
        let malformed = |e: DecodeError| format!("malformed HELLO: {e}");
        let mut d = Decoder::new(body);
        if d.get_u8().map_err(malformed)? != OP_HELLO {
            return Err("expected HELLO".to_string());
        }
        let protocol = d.get_u32().map_err(malformed)?;
        // Another protocol version may lay out the rest differently; its
        // refusal names the version only.
        let analyzer = match protocol {
            WIRE_PROTOCOL_VERSION => d.get_str().map_err(malformed)?,
            _ => String::new(),
        };
        Ok((protocol, analyzer))
    }

    fn hello_ok(&self) -> Vec<u8> {
        vec![STATUS_OK]
    }

    fn error_reply(&self, message: &str) -> Vec<u8> {
        let mut r = Encoder::new();
        r.put_u8(STATUS_ERR);
        r.put_str(message);
        r.into_bytes()
    }

    fn request_span(body: &[u8]) -> Option<&'static str> {
        Some(OP_NAMES[op_index(body)][2])
    }

    fn handle(shared: &Shared<Self>, body: &[u8]) -> Handled {
        let result = serve_op(shared, body);
        shared.ops[op_index(body)].fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(reply) => Handled::Reply(reply),
            Err(e) => Handled::Error(e.to_string()),
        }
    }

    /// Store counters and occupancy, plus requests served by op.
    fn feed_metrics(&self, reg: &mut MetricsRegistry) {
        self.store.stats().feed_metrics(reg);
        for (names, slot) in OP_NAMES.iter().zip(&self.ops) {
            let count = slot.load(Ordering::Relaxed);
            if count > 0 {
                let help = "Requests served, by wire op";
                reg.inc_counter("ffisafe_server_ops_total", help, &[("op", names[0])], count);
            }
        }
    }
}

fn serve_op(shared: &Shared<StoreHandler>, body: &[u8]) -> io::Result<Vec<u8>> {
    let store = &shared.store;
    let mut d = Decoder::new(body);
    let op = d.get_u8().map_err(decode_error)?;
    let mut r = Encoder::new();
    match op {
        OP_GET => {
            let (tier, fp) = decode_key(&mut d)?;
            match store.get(tier, fp) {
                Some(payload) => {
                    r.put_u8(1);
                    r.put_len(payload.len());
                    let mut bytes = r.into_bytes();
                    bytes.extend_from_slice(&payload);
                    return Ok(bytes);
                }
                None => r.put_u8(0),
            }
        }
        OP_PUT => {
            let (tier, fp) = decode_key(&mut d)?;
            let payload = tail_payload(&mut d, body)?;
            store.put(tier, fp, &payload)?;
            r.put_u8(STATUS_OK);
        }
        OP_FLUSH => {
            store.flush()?;
            r.put_u8(STATUS_OK);
        }
        OP_STATS => {
            let s = store.stats();
            r.put_u8(STATUS_OK);
            r.put_u64(s.fn_hits as u64);
            r.put_u64(s.fn_misses as u64);
            r.put_u64(s.report_hits as u64);
            r.put_u64(s.report_misses as u64);
            r.put_u64(s.evictions as u64);
            r.put_u64(s.corrupt as u64);
            r.put_u64(s.entries as u64);
            r.put_u64(s.live_bytes);
        }
        OP_ADOPT => {
            store.adopt_orphans();
            r.put_u8(STATUS_OK);
        }
        OP_METRICS => {
            r.put_u8(STATUS_OK);
            r.put_str(&shared.metrics().to_prometheus());
        }
        other => return Err(bad_data(format!("unknown op {other}"))),
    }
    Ok(r.into_bytes())
}

fn decode_key(d: &mut Decoder<'_>) -> io::Result<(Tier, Fingerprint)> {
    let tier = match d.get_u8().map_err(decode_error)? {
        0 => Tier::Function,
        1 => Tier::Report,
        other => return Err(bad_data(format!("unknown tier {other}"))),
    };
    let fp = Fingerprint(d.get_u64().map_err(decode_error)?, d.get_u64().map_err(decode_error)?);
    Ok((tier, fp))
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A [`CacheBackend`] forwarding every operation to a `cache-serve`
/// daemon over TCP.
pub struct RemoteBackend {
    url: String,
    /// The encoded HELLO, sent again on every redial.
    hello: Vec<u8>,
    conns: Vec<Mutex<Option<TcpStream>>>,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend").field("url", &self.url).finish()
    }
}

impl RemoteBackend {
    /// Connects to `url` (`tcp://host:port`) and performs the version
    /// handshake. Fails eagerly if the daemon is unreachable or serves a
    /// different analyzer/protocol version — a silently absent cache
    /// would turn every sweep into a cold one.
    pub fn connect(url: &str, analyzer_version: &str) -> io::Result<RemoteBackend> {
        let mut hello = Encoder::new();
        hello.put_u8(OP_HELLO);
        hello.put_u32(WIRE_PROTOCOL_VERSION);
        hello.put_str(analyzer_version);
        let backend = RemoteBackend {
            url: url.to_string(),
            hello: hello.into_bytes(),
            conns: (0..CLIENT_CONNS).map(|_| Mutex::new(None)).collect(),
        };
        // Probe connection: surfaces bad address / refused handshake now.
        let probe = backend.dial()?;
        *backend.conns[0].lock().unwrap_or_else(|p| p.into_inner()) = Some(probe);
        Ok(backend)
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let (stream, reply) = dial(&self.url, "cache.rpc.hello", &self.hello)?;
        self.status_ok(reply, "handshake refused").map(|_| stream)
    }

    /// Passes a reply whose status byte is OK; turns any other into an
    /// error carrying the daemon's message (or `fallback`).
    fn status_ok(&self, reply: Vec<u8>, fallback: &str) -> io::Result<Vec<u8>> {
        let mut d = Decoder::new(&reply);
        match d.get_u8().map_err(decode_error)? {
            STATUS_OK => Ok(reply),
            _ => {
                let msg = d.get_str().unwrap_or_else(|_| fallback.to_string());
                let addr = self.url.trim_start_matches("tcp://");
                Err(bad_data(format!("cache server {addr}: {msg}")))
            }
        }
    }

    /// Runs one request/reply round-trip on the connection slot for `fp`,
    /// dialing (or redialing a dead connection) as needed. One retry on a
    /// fresh connection covers a daemon restart; a second failure is
    /// returned to the caller.
    fn round_trip(&self, fp: Fingerprint, request: &[u8]) -> io::Result<Vec<u8>> {
        let mut span = telemetry::span_with(OP_NAMES[op_index(request)][1], || {
            vec![("bytes_out", request.len().to_string())]
        });
        let reply = self.round_trip_inner(fp, request);
        match &reply {
            Ok(body) => span.arg("bytes_in", body.len().to_string()),
            Err(_) => span.arg("error", "true"),
        }
        reply
    }

    fn round_trip_inner(&self, fp: Fingerprint, request: &[u8]) -> io::Result<Vec<u8>> {
        let slot = (fp.0 >> 60) as usize % self.conns.len();
        let mut conn = self.conns[slot].lock().unwrap_or_else(|p| p.into_inner());
        for fresh in [false, true] {
            if conn.is_none() {
                match self.dial() {
                    Ok(stream) => *conn = Some(stream),
                    Err(e) if fresh => return Err(e),
                    Err(_) => continue,
                }
            }
            let stream = conn.as_mut().expect("dialed above");
            match write_frame(stream, request).and_then(|()| read_frame(stream)) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Drop the broken connection; retry once on a new one.
                    *conn = None;
                    if fresh {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("second pass either returns a reply or an error")
    }

    fn expect_ok(&self, fp: Fingerprint, request: &[u8]) -> io::Result<Vec<u8>> {
        self.status_ok(self.round_trip(fp, request)?, "request failed")
    }
}

impl CacheBackend for RemoteBackend {
    fn get(&self, tier: Tier, fp: Fingerprint) -> Option<Vec<u8>> {
        let mut r = Encoder::new();
        r.put_u8(OP_GET);
        r.put_u8(tier.as_u8());
        r.put_u64(fp.0);
        r.put_u64(fp.1);
        let reply = match self.round_trip(fp, &r.into_bytes()) {
            Ok(reply) => reply,
            Err(e) => {
                telemetry::log(
                    LogLevel::Warn,
                    "cache-client",
                    &format!("get from {} degraded to miss: {e}", self.url),
                );
                return None;
            }
        };
        let mut d = Decoder::new(&reply);
        match d.get_u8().ok()? {
            1 => tail_payload(&mut d, &reply).ok(),
            _ => None,
        }
    }

    fn put(&self, tier: Tier, fp: Fingerprint, payload: &[u8]) -> io::Result<()> {
        let mut r = Encoder::new();
        r.put_u8(OP_PUT);
        r.put_u8(tier.as_u8());
        r.put_u64(fp.0);
        r.put_u64(fp.1);
        r.put_len(payload.len());
        let mut request = r.into_bytes();
        request.extend_from_slice(payload);
        self.expect_ok(fp, &request).map(|_| ())
    }

    fn flush(&self) -> io::Result<()> {
        self.expect_ok(Fingerprint(0, 0), &[OP_FLUSH]).map(|_| ())
    }

    fn stats(&self) -> CacheStats {
        let reply = match self.expect_ok(Fingerprint(0, 0), &[OP_STATS]) {
            Ok(reply) => reply,
            Err(e) => {
                telemetry::log(
                    LogLevel::Warn,
                    "cache-client",
                    &format!("stats from {} degraded to defaults: {e}", self.url),
                );
                return CacheStats::default();
            }
        };
        let mut d = Decoder::new(&reply);
        let _ = d.get_u8();
        let mut next = || d.get_u64().unwrap_or(0);
        CacheStats {
            fn_hits: next() as usize,
            fn_misses: next() as usize,
            report_hits: next() as usize,
            report_misses: next() as usize,
            evictions: next() as usize,
            corrupt: next() as usize,
            entries: next() as usize,
            live_bytes: next(),
        }
    }

    fn adopt_orphans(&self) {
        let _ = self.expect_ok(Fingerprint(0, 0), &[OP_ADOPT]);
    }

    fn location(&self) -> String {
        self.url.clone()
    }
}
