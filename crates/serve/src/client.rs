//! The client side of the serve wire protocol.
//!
//! [`ServeClient`] is a thin, blocking, one-connection client: connect +
//! handshake, then strict request/reply. The CLI's `--server-url` path
//! and the load-test harness both sit on it. Unlike the remote *cache*
//! client there is no degrade-to-miss: an analysis either completes on
//! the daemon or the caller sees the error — silently analyzing nothing
//! would be indistinguishable from a clean report.

use crate::daemon::ANALYZER_VERSION;
use crate::protocol::{
    read_frame, write_frame, Reply, Request, WatchEvent, SERVE_PROTOCOL_VERSION,
};
use ffisafe_core::{AnalysisOptions, CacheMode, Corpus};
use ffisafe_support::telemetry;
use ffisafe_support::wire::{bad_data, dial};
use std::io;
use std::net::TcpStream;

/// A connection to an `ffisafe serve` daemon.
pub struct ServeClient {
    stream: TcpStream,
    addr: String,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient").field("addr", &self.addr).finish()
    }
}

impl ServeClient {
    /// Connects to `url` (`tcp://host:port`) and performs the version
    /// handshake. Fails eagerly on an unreachable daemon or a refused
    /// handshake, surfacing the daemon's reason.
    pub fn connect(url: &str) -> io::Result<ServeClient> {
        let hello = Request::Hello {
            protocol: SERVE_PROTOCOL_VERSION,
            analyzer: ANALYZER_VERSION.to_string(),
        };
        let (stream, reply) = dial(url, "serve.rpc.hello", hello.to_json().as_bytes())?;
        let addr = url.trim_start_matches("tcp://").to_string();
        match Reply::parse(&reply).map_err(bad_data)? {
            Reply::HelloOk { .. } => Ok(ServeClient { stream, addr }),
            Reply::Error { message } => Err(bad_data(format!("server {addr}: {message}"))),
            other => Err(bad_data(format!("server {addr}: unexpected handshake reply {other:?}"))),
        }
    }

    /// The daemon address this client dialed.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn round_trip(&mut self, request: &Request) -> io::Result<Reply> {
        write_frame(&mut self.stream, request.to_json().as_bytes())?;
        let reply = read_frame(&mut self.stream)?;
        Reply::parse(&reply).map_err(bad_data)
    }

    /// Submits `corpus` for analysis. The reply is [`Reply::Analyze`] on
    /// success, [`Reply::Busy`] under backpressure (the caller decides
    /// whether to retry), or [`Reply::Error`].
    pub fn analyze(
        &mut self,
        corpus: &Corpus,
        options: AnalysisOptions,
        mode: CacheMode,
    ) -> io::Result<Reply> {
        let _span = telemetry::span("serve.rpc.analyze");
        self.round_trip(&Request::analyze(corpus, options, mode))
    }

    /// Scrapes the daemon's metrics: the same Prometheus text it writes
    /// to its `--metrics-out` file.
    pub fn metrics(&mut self) -> io::Result<String> {
        let _span = telemetry::span("serve.rpc.metrics");
        match self.round_trip(&Request::Metrics)? {
            Reply::Metrics { prometheus } => Ok(prometheus),
            Reply::Error { message } => Err(bad_data(format!("server {}: {message}", self.addr))),
            other => Err(bad_data(format!("unexpected metrics reply {other:?}"))),
        }
    }

    /// Subscribes to watch events, consuming the client (the connection
    /// becomes a one-way event stream). `Ok` carries the subscription
    /// and whether the daemon is actually watching a tree.
    pub fn subscribe(mut self) -> io::Result<(WatchSubscription, bool)> {
        match self.round_trip(&Request::Watch)? {
            Reply::WatchOk { watching } => {
                Ok((WatchSubscription { stream: self.stream }, watching))
            }
            Reply::Error { message } => Err(bad_data(format!("server {}: {message}", self.addr))),
            other => Err(bad_data(format!("unexpected watch reply {other:?}"))),
        }
    }
}

/// A subscribed connection: yields one [`WatchEvent`] per daemon
/// re-analysis until the daemon goes away.
#[derive(Debug)]
pub struct WatchSubscription {
    stream: TcpStream,
}

impl WatchSubscription {
    /// Blocks until the next change event. `UnexpectedEof` means the
    /// daemon shut down.
    pub fn next_event(&mut self) -> io::Result<WatchEvent> {
        let body = read_frame(&mut self.stream)?;
        WatchEvent::parse(&body).map_err(bad_data)
    }
}
