//! The one daemon skeleton behind `ffisafe cache-serve` and `ffisafe serve`.
//!
//! Both daemons speak length-prefixed frames over plain `std::net`, open
//! every session with a versioned HELLO, serve one thread per connection,
//! and export the same `ffisafe_server_*` session counters and
//! `--trace-out`/`--metrics-out` snapshots. This module is the single copy
//! of all of that. A daemon is a [`Handler`]: it keeps only its message
//! encoding, its ops, its own metric families and its span names.
//!
//! ## Frames
//!
//! A frame is a little-endian `u32` byte length followed by that many body
//! bytes. A length over [`MAX_FRAME_BYTES`] is corruption (or abuse): the
//! daemon answers with an error reply and ends that session, because the
//! stream cannot be resynchronized, and keeps serving every other client.
//! The body buffer grows as bytes arrive, so a length prefix alone
//! allocates nothing close to what it announces.
//!
//! ## Sessions
//!
//! ```text
//! client → HELLO    (handler encoding: protocol version, analyzer version)
//! server → ok | error reply carrying the refusal
//! client → request  server → reply      (repeated until disconnect)
//! ```
//!
//! A HELLO with another protocol or analyzer version *refuses* that
//! session. It never tears down the listener, and it never touches shared
//! state, because matching clients may be mid-flight.

use crate::telemetry::{self, LogLevel, MetricsRegistry, TraceFileWriter};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on one frame body, for requests and replies alike.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Buffer reserved before a frame body starts arriving; larger bodies
/// grow the buffer as their bytes come in.
const INITIAL_FRAME_CAPACITY: usize = 64 * 1024;

/// An [`io::ErrorKind::InvalidData`] error carrying `msg`.
pub fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn frame_too_large(len: usize) -> io::Error {
    bad_data(format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} cap"))
}

/// Writes one frame: length prefix, body, flush. A body over
/// [`MAX_FRAME_BYTES`] is refused here, since the peer would reject it.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(frame_too_large(body.len()));
    }
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one frame. `UnexpectedEof` is a disconnect, before or inside the
/// frame; a prefix over [`MAX_FRAME_BYTES`] is `InvalidData`, after which
/// the stream cannot be resynchronized.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(frame_too_large(len));
    }
    let mut body = Vec::with_capacity(len.min(INITIAL_FRAME_CAPACITY));
    stream.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "disconnected mid-frame"));
    }
    Ok(body)
}

/// Connects to `url` (`tcp://host:port`), sets `TCP_NODELAY` and runs the
/// HELLO round trip under a `span` carrying the frame sizes. Returns the
/// connection and the daemon's reply, which the caller decodes.
pub fn dial(url: &str, span: &'static str, hello: &[u8]) -> io::Result<(TcpStream, Vec<u8>)> {
    let addr = url
        .strip_prefix("tcp://")
        .ok_or_else(|| bad_data(format!("daemon URL {url:?} must start with tcp://")))?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut span = telemetry::span_with(span, || vec![("bytes_out", hello.len().to_string())]);
    write_frame(&mut stream, hello)?;
    let reply = read_frame(&mut stream)?;
    span.arg("bytes_in", reply.len().to_string());
    Ok((stream, reply))
}

/// What the session loop does with one handled request.
#[derive(Debug)]
pub enum Handled {
    /// Send this reply and read the next request.
    Reply(Vec<u8>),
    /// The request failed: count and log it, and send
    /// [`Handler::error_reply`] carrying this message.
    Error(String),
    /// Send this reply, then give the connection to
    /// [`Handler::take_over`] for the rest of the session.
    TakeOver(Vec<u8>),
}

/// One daemon's protocol: its encoding, ops, metrics and span names. The
/// session loop, handshake and snapshot export are the [`Daemon`]'s.
pub trait Handler: Sized + Send + Sync + 'static {
    /// Component name in log lines.
    const NAME: &'static str;
    /// Span covering each handshake.
    const HELLO_SPAN: &'static str;
    /// The wire protocol version a client must speak.
    const PROTOCOL: u32;
    /// Rewrite the snapshot files after every reply as well as at session
    /// end. Only for daemons whose trace stays small: the trace snapshot is
    /// rewritten whole, so doing it per op grows quadratically.
    const EXPORT_EVERY_REPLY: bool = false;

    /// The analyzer version a client must match.
    fn analyzer_version(&self) -> &str;

    /// Decodes a HELLO frame into the client's protocol and analyzer
    /// versions, or the refusal message for anything else.
    fn decode_hello(&self, body: &[u8]) -> Result<(u32, String), String>;

    /// The reply accepting a handshake.
    fn hello_ok(&self) -> Vec<u8>;

    /// An error reply carrying `message`; also refuses handshakes.
    fn error_reply(&self, message: &str) -> Vec<u8>;

    /// Serves one request frame.
    fn handle(shared: &Shared<Self>, body: &[u8]) -> Handled;

    /// The span to record around a request, if the daemon times each op
    /// at the session level; it carries `bytes_in` and `bytes_out`.
    fn request_span(_body: &[u8]) -> Option<&'static str> {
        None
    }

    /// Starts work that runs beside the sessions (a watcher, say) when
    /// the daemon starts serving.
    fn start(_shared: &Arc<Shared<Self>>) {}

    /// Owns the connection after a [`Handled::TakeOver`] reply; the
    /// session ends when this returns.
    fn take_over(&self, _stream: TcpStream, _peer: &str) -> io::Result<()> {
        Ok(())
    }

    /// Adds the daemon's own metric families to a scrape.
    fn feed_metrics(&self, reg: &mut MetricsRegistry);
}

/// Lifetime session counters every daemon exports.
#[derive(Debug, Default)]
struct SessionCounters {
    opened: AtomicU64,
    refused: AtomicU64,
    errors: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// State shared by every session thread of one daemon: the handler (which
/// it dereferences to), the session counters and the snapshot outputs.
pub struct Shared<H> {
    handler: H,
    sessions: SessionCounters,
    trace: Option<TraceFileWriter>,
    metrics_out: Option<PathBuf>,
    /// Serializes metrics snapshots, which share one `.tmp` path.
    metrics_lock: Mutex<()>,
}

impl<H> Deref for Shared<H> {
    type Target = H;

    fn deref(&self) -> &H {
        &self.handler
    }
}

impl<H: Handler> Shared<H> {
    /// The daemon's metrics: session counters plus the handler's families.
    /// The METRICS op and `--metrics-out` both render this.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = &self.sessions;
        for (name, help, counter) in [
            (
                "ffisafe_server_sessions_opened_total",
                "Client sessions accepted after a successful handshake",
                &c.opened,
            ),
            (
                "ffisafe_server_sessions_refused_total",
                "Client sessions refused at the handshake (version mismatch)",
                &c.refused,
            ),
            ("ffisafe_server_op_errors_total", "Requests that returned an error status", &c.errors),
            (
                "ffisafe_server_bytes_read_total",
                "Request frame bytes read from clients",
                &c.bytes_read,
            ),
            (
                "ffisafe_server_bytes_written_total",
                "Reply frame bytes written to clients",
                &c.bytes_written,
            ),
        ] {
            reg.inc_counter(name, help, &[], counter.load(Ordering::Relaxed));
        }
        self.handler.feed_metrics(&mut reg);
        reg
    }

    /// Rewrites the `--metrics-out` / `--trace-out` snapshots, each
    /// atomically, so the files always cover the daemon so far.
    pub fn export(&self) {
        // Spans still buffered on this thread belong in the snapshot.
        telemetry::flush_thread();
        if let Some(path) = &self.metrics_out {
            let _guard = self.metrics_lock.lock().unwrap_or_else(|p| p.into_inner());
            if let Err(e) = telemetry::write_snapshot(path, &self.metrics().to_prometheus()) {
                self.log_write_error(path, e);
            }
        }
        if let Some(writer) = &self.trace {
            if let Err(e) = writer.flush() {
                self.log_write_error(writer.path(), e);
            }
        }
    }

    fn log_write_error(&self, path: &std::path::Path, e: io::Error) {
        telemetry::log(
            LogLevel::Error,
            H::NAME,
            &format!("failed to write {}: {e}", path.display()),
        );
    }

    /// One client session: handshake, then request/reply until disconnect
    /// or a take-over. Every error ends this session only.
    fn serve_session(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true).ok();
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_string());
        self.handshake(&mut stream, &peer)?;
        let c = &self.sessions;
        let (mut requests, mut bytes_in, mut bytes_out) = (0, 0, 0);
        let result = loop {
            let body = match read_frame(&mut stream) {
                Ok(body) => body,
                // Disconnect is the normal end of a session.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break Ok(()),
                Err(e) => {
                    if e.kind() == io::ErrorKind::InvalidData {
                        c.errors.fetch_add(1, Ordering::Relaxed);
                        let _ = write_frame(&mut stream, &self.error_reply(&e.to_string()));
                    }
                    break Err(e);
                }
            };
            let mut span = H::request_span(&body).map(|name| {
                telemetry::span_with(name, || vec![("bytes_in", body.len().to_string())])
            });
            c.bytes_read.fetch_add(body.len() as u64, Ordering::Relaxed);
            let (reply, take_over) = match H::handle(self, &body) {
                Handled::Reply(reply) => (reply, false),
                Handled::TakeOver(reply) => (reply, true),
                Handled::Error(message) => {
                    c.errors.fetch_add(1, Ordering::Relaxed);
                    let failed = format!("request from {peer} failed: {message}");
                    telemetry::log(LogLevel::Warn, H::NAME, &failed);
                    (self.error_reply(&message), false)
                }
            };
            if let Some(span) = &mut span {
                span.arg("bytes_out", reply.len().to_string());
            }
            drop(span);
            if telemetry::log_enabled(LogLevel::Debug) {
                let sizes = format!("{peer}: {} B in, {} B out", body.len(), reply.len());
                telemetry::log(LogLevel::Debug, H::NAME, &sizes);
            }
            c.bytes_written.fetch_add(reply.len() as u64, Ordering::Relaxed);
            (requests, bytes_in, bytes_out) =
                (requests + 1, bytes_in + body.len(), bytes_out + reply.len());
            if let Err(e) = write_frame(&mut stream, &reply) {
                break Err(e);
            }
            if H::EXPORT_EVERY_REPLY {
                self.export();
            }
            if take_over {
                break self.take_over(stream, &peer);
            }
        };
        telemetry::log(
            LogLevel::Info,
            H::NAME,
            &format!(
                "session closed ({peer}): {requests} request(s), {bytes_in} B in, {bytes_out} B out"
            ),
        );
        result
    }

    /// Reads the HELLO and accepts or refuses the session.
    fn handshake(&self, stream: &mut TcpStream, peer: &str) -> io::Result<()> {
        let body = read_frame(stream)?;
        let _span =
            telemetry::span_with(H::HELLO_SPAN, || vec![("bytes_in", body.len().to_string())]);
        let refusal = match self.decode_hello(&body) {
            Ok((protocol, _)) if protocol != H::PROTOCOL => Some(format!(
                "protocol version mismatch: client {protocol}, server {}",
                H::PROTOCOL
            )),
            Ok((_, analyzer)) if analyzer != self.analyzer_version() => Some(format!(
                "analyzer version mismatch: client {analyzer:?}, server {:?}",
                self.analyzer_version()
            )),
            Ok(_) => None,
            Err(message) => Some(message),
        };
        let Some(message) = refusal else {
            self.sessions.opened.fetch_add(1, Ordering::Relaxed);
            telemetry::log(LogLevel::Info, H::NAME, &format!("session open ({peer})"));
            return write_frame(stream, &self.hello_ok());
        };
        self.sessions.refused.fetch_add(1, Ordering::Relaxed);
        telemetry::log(LogLevel::Warn, H::NAME, &format!("session refused ({peer}): {message}"));
        write_frame(stream, &self.error_reply(&message))?;
        Err(bad_data(message))
    }
}

/// A listener serving one [`Handler`] to many TCP clients, one thread per
/// connection. Per-connection errors end that session only. It
/// dereferences to the state its sessions share.
pub struct Daemon<H> {
    listener: TcpListener,
    shared: Arc<Shared<H>>,
}

impl<H> Deref for Daemon<H> {
    type Target = Shared<H>;

    fn deref(&self) -> &Shared<H> {
        &self.shared
    }
}

impl<H: Handler> Daemon<H> {
    /// Builds the handler from `config` and binds `addr` (port 0 for an
    /// ephemeral port) to serve it.
    pub fn bind<C>(addr: impl ToSocketAddrs, config: C) -> io::Result<Daemon<H>>
    where
        C: TryInto<H, Error = io::Error>,
    {
        let handler = config.try_into()?;
        Ok(Daemon {
            listener: TcpListener::bind(addr)?,
            shared: Arc::new(Shared {
                handler,
                sessions: SessionCounters::default(),
                trace: None,
                metrics_out: None,
                metrics_lock: Mutex::new(()),
            }),
        })
    }

    /// Rewrite a Chrome trace-event JSON snapshot of the daemon's spans to
    /// `path` as sessions end. Must be called before serving.
    pub fn set_trace_out(&mut self, path: PathBuf) {
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.trace = Some(TraceFileWriter::new(path));
        }
    }

    /// Rewrite a Prometheus text snapshot of the daemon's metrics to
    /// `path` as sessions end. Must be called before serving.
    pub fn set_metrics_out(&mut self, path: PathBuf) {
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.metrics_out = Some(path);
        }
    }

    /// The bound address — useful when binding port 0.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs [`Handler::start`], then accepts clients forever, one thread
    /// per connection, and exports the snapshots as each session ends.
    /// Returns only if the listener fails.
    pub fn serve(&self) -> io::Result<()> {
        if let Ok(addr) = self.local_addr() {
            telemetry::log(LogLevel::Info, H::NAME, &format!("listening on {addr}"));
        }
        H::start(&self.shared);
        loop {
            let (stream, _) = self.listener.accept()?;
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                let _ = shared.serve_session(stream);
                shared.export();
            });
        }
    }

    /// Runs [`Daemon::serve`] on a background thread for the rest of the
    /// process and returns the bound address.
    pub fn spawn(self) -> io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        std::thread::spawn(move || {
            let _ = self.serve();
        });
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_oversized_or_truncated_bodies() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut reader = &wire[..];
        assert_eq!(read_frame(&mut reader).unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);

        let oversized = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let err = read_frame(&mut &oversized[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &vec![0; MAX_FRAME_BYTES + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing of an oversized frame is sent");

        // A prefix announcing the cap with three bytes behind it: a
        // disconnect, not a 64 MiB allocation.
        let mut truncated = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        truncated.extend_from_slice(b"abc");
        let err = read_frame(&mut &truncated[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn dial_rejects_urls_without_the_tcp_scheme() {
        let err = dial("127.0.0.1:1", "probe.hello", b"").unwrap_err();
        assert!(err.to_string().contains("tcp://"), "{err}");
    }
}
