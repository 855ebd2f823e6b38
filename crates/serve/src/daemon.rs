//! The resident analysis daemon: `ffisafe serve`.
//!
//! An [`AnalysisServer`] wraps ONE shared [`AnalysisService`] and serves
//! it to any number of clients. It is a [`ServeHandler`] on the daemon
//! skeleton `ffisafe cache-serve` uses too ([`ffisafe_support::wire`]):
//! one thread per connection, per-connection failures ending that
//! session only.
//!
//! What makes it more than a socket wrapper:
//!
//! - **Admission control.** Every analyze request passes the
//!   [`Admission`] gate: at most `max_inflight` analyses execute, at most
//!   `queue_depth` wait, and anything beyond that is refused with an
//!   explicit BUSY reply carrying the load snapshot. Backpressure is a
//!   protocol feature, not an accident of TCP buffers.
//! - **Per-client fairness.** An admitted request that left `jobs` at 0
//!   gets `fair_share_jobs(cores, running)` inference workers — the same
//!   fair-share rule the batch executor applies, driven by the *live*
//!   number of concurrent requests. Two simultaneous clients each get
//!   half the machine instead of each spinning up `cores` threads.
//! - **Telemetry from day one.** Every request runs under a
//!   `server.request` span, feeds `ffisafe_server_*` counters and a
//!   request-latency histogram, and the METRICS wire op plus
//!   `--trace-out`/`--metrics-out` snapshots expose all of it live.

use crate::admission::Admission;
use crate::protocol::{
    write_frame, AnalyzeOutcome, Reply, Request, WatchEvent, SERVE_PROTOCOL_VERSION,
};
use ffisafe_core::{
    available_cores, fair_share_jobs, AnalysisRequest, AnalysisService, CacheMode, Corpus,
    ServiceConfig,
};
use ffisafe_support::telemetry::{
    self, HistogramValue, LogLevel, MetricsRegistry, LATENCY_BUCKETS,
};
use ffisafe_support::wire::{Daemon, Handled, Handler, Shared};
use std::io::{self, Read as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The analyzer version pinned by the handshake; a daemon and client
/// from different releases refuse to talk rather than disagree subtly.
pub const ANALYZER_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Configuration for one [`AnalysisServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The wrapped service's configuration (cache store, batch width).
    pub service: ServiceConfig,
    /// Concurrent analyses admitted; `0` means "auto" (one per core, so
    /// a saturated daemon still runs every admitted analysis with at
    /// least one fair-share worker).
    pub max_inflight: usize,
    /// Analyses allowed to wait for a slot before BUSY is returned.
    pub queue_depth: usize,
    /// Directory tree to watch and re-analyze on change; `None` disables
    /// watch mode.
    pub watch_root: Option<PathBuf>,
    /// Poll interval for the watcher.
    pub watch_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            service: ServiceConfig::default(),
            max_inflight: 0,
            queue_depth: 16,
            watch_root: None,
            watch_interval: Duration::from_millis(500),
        }
    }
}

/// Lock-free lifetime counters for the analysis ops; the session
/// counters live in the wire layer. Feeds the METRICS wire op and the
/// `--metrics-out` file.
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    pub(crate) requests_total: AtomicU64,
    pub(crate) busy_total: AtomicU64,
    pub(crate) metrics_requests: AtomicU64,
    pub(crate) workers_executed_total: AtomicU64,
    pub(crate) report_hits_total: AtomicU64,
    pub(crate) watch_runs_total: AtomicU64,
    pub(crate) watch_events_sent: AtomicU64,
}

/// The `serve` protocol over one shared service: admission, fair share,
/// watch subscribers, and the daemon's own metric families. Session
/// threads and the watcher share it through the wire layer's `Shared`.
pub struct ServeHandler {
    service: AnalysisService,
    pub(crate) admission: Admission,
    pub(crate) counters: ServeCounters,
    /// Request latency observations, drained into the registry per scrape.
    latency: Mutex<HistogramValue>,
    /// Connections subscribed to watch events. Their session threads stop
    /// writing after the subscription, so the broadcaster is the only
    /// writer on these streams.
    subscribers: Mutex<Vec<TcpStream>>,
    /// The tree to watch and its poll interval (`--watch`).
    watch: Option<(PathBuf, Duration)>,
}

impl ServeHandler {
    /// The admission gate, exposed so tests can saturate it
    /// deterministically before exercising the BUSY path.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Runs one admitted analysis and folds the outcome into counters,
    /// latency, and spans. Shared by the wire path and the watcher.
    /// `started` is when the request arrived, before decoding and
    /// admission, so the latency histogram covers the wait for a slot.
    pub(crate) fn run_analysis(
        &self,
        started: Instant,
        span_name: &'static str,
        corpus: Corpus,
        mut options: ffisafe_core::AnalysisOptions,
        mode: CacheMode,
    ) -> Result<AnalyzeOutcome, String> {
        let mut span = telemetry::span_with(span_name, || {
            vec![
                ("files", corpus.files().count().to_string()),
                ("running", self.admission.running().to_string()),
            ]
        });
        if options.jobs == 0 {
            // Live fair share: this request holds one of `running` slots.
            options.jobs = fair_share_jobs(available_cores(), self.admission.running());
        }
        span.arg("jobs", options.jobs.to_string());
        let request = AnalysisRequest::new(corpus).options(options).cache_mode(mode);
        let report = self.service.analyze(&request).map_err(|e| e.to_string())?;
        let outcome = AnalyzeOutcome {
            errors: report.error_count() as u64,
            warnings: report.warning_count() as u64,
            workers_executed: report.stats.workers_executed as u64,
            report_hit: report.stats.cache_report_hit,
            jobs: options.jobs as u64,
            rendered: report.render(),
            rendered_stable: report.render_stable(),
            report_json: report.to_json(),
        };
        span.arg("errors", outcome.errors.to_string());
        span.arg("workers_executed", outcome.workers_executed.to_string());
        span.arg("report_hit", outcome.report_hit.to_string());
        drop(span);
        self.latency
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .observe(started.elapsed().as_secs_f64());
        let c = &self.counters;
        c.requests_total.fetch_add(1, Ordering::Relaxed);
        c.workers_executed_total.fetch_add(outcome.workers_executed, Ordering::Relaxed);
        c.report_hits_total.fetch_add(u64::from(outcome.report_hit), Ordering::Relaxed);
        Ok(outcome)
    }

    /// Delivers one watch event to every subscriber, dropping the ones
    /// whose connection is dead.
    pub(crate) fn broadcast(&self, event: &WatchEvent) {
        let body = event.to_json();
        let mut subs = self.subscribers.lock().unwrap_or_else(|p| p.into_inner());
        subs.retain_mut(|stream| match write_frame(stream, body.as_bytes()) {
            Ok(()) => {
                self.counters.watch_events_sent.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        });
    }

    /// One ANALYZE request: admission, corpus, analysis.
    fn analyze(
        &self,
        started: Instant,
        bypass: bool,
        options: ffisafe_core::AnalysisOptions,
        files: Vec<(String, String)>,
    ) -> Handled {
        let permit = match self.admission.try_admit() {
            Ok(permit) => permit,
            Err(busy) => {
                self.counters.busy_total.fetch_add(1, Ordering::Relaxed);
                return reply(Reply::Busy {
                    running: busy.running as u64,
                    queued: busy.queued as u64,
                });
            }
        };
        let mut builder = Corpus::builder();
        for (name, src) in files {
            builder = match builder.source(name, src) {
                Ok(builder) => builder,
                Err(e) => return Handled::Error(e.to_string()),
            };
        }
        let mode = if bypass { CacheMode::Bypass } else { CacheMode::Shared };
        let result = self.run_analysis(started, "server.request", builder.build(), options, mode);
        drop(permit);
        match result {
            Ok(outcome) => reply(Reply::Analyze(Box::new(outcome))),
            Err(message) => Handled::Error(message),
        }
    }
}

fn reply(reply: Reply) -> Handled {
    Handled::Reply(reply.to_json().into_bytes())
}

impl Handler for ServeHandler {
    const NAME: &'static str = "serve";
    const HELLO_SPAN: &'static str = "server.hello";
    const PROTOCOL: u32 = SERVE_PROTOCOL_VERSION;
    // Each reply is one whole analysis, so the trace stays small enough to
    // rewrite after every reply (and every watch run).
    const EXPORT_EVERY_REPLY: bool = true;

    fn analyzer_version(&self) -> &str {
        ANALYZER_VERSION
    }

    fn decode_hello(&self, body: &[u8]) -> Result<(u32, String), String> {
        match Request::parse(body) {
            Ok(Request::Hello { protocol, analyzer }) => Ok((protocol, analyzer)),
            Ok(_) => Err("expected HELLO".to_string()),
            Err(msg) => Err(format!("malformed HELLO: {msg}")),
        }
    }

    fn hello_ok(&self) -> Vec<u8> {
        let ok = Reply::HelloOk {
            protocol: SERVE_PROTOCOL_VERSION,
            analyzer: ANALYZER_VERSION.to_string(),
        };
        ok.to_json().into_bytes()
    }

    fn error_reply(&self, message: &str) -> Vec<u8> {
        Reply::Error { message: message.to_string() }.to_json().into_bytes()
    }

    fn handle(shared: &Shared<Self>, body: &[u8]) -> Handled {
        let started = Instant::now();
        match Request::parse(body) {
            Ok(Request::Analyze { bypass, options, files }) => {
                shared.analyze(started, bypass, options, files)
            }
            Ok(Request::Metrics) => {
                shared.counters.metrics_requests.fetch_add(1, Ordering::Relaxed);
                reply(Reply::Metrics { prometheus: shared.metrics().to_prometheus() })
            }
            Ok(Request::Watch) => {
                let watching = shared.watch.is_some();
                let ok = Reply::WatchOk { watching }.to_json().into_bytes();
                if watching {
                    Handled::TakeOver(ok)
                } else {
                    Handled::Reply(ok)
                }
            }
            Ok(Request::Hello { .. }) => {
                Handled::Error("unexpected HELLO after the handshake".to_string())
            }
            Err(msg) => Handled::Error(msg),
        }
    }

    fn start(shared: &Arc<Shared<Self>>) {
        if let Some((root, interval)) = &shared.watch {
            crate::watch::spawn_watcher(Arc::clone(shared), root.clone(), *interval);
        }
    }

    /// A WATCH subscription: the broadcaster owns writes from here, and
    /// this thread keeps the read half only to notice the disconnect.
    fn take_over(&self, mut stream: TcpStream, peer: &str) -> io::Result<()> {
        self.subscribers.lock().unwrap_or_else(|p| p.into_inner()).push(stream.try_clone()?);
        telemetry::log(LogLevel::Info, Self::NAME, &format!("watch subscriber ({peer})"));
        let mut probe = [0u8; 1];
        // Subscribers shouldn't send; tolerate it.
        while let Ok(1..) = stream.read(&mut probe) {}
        Ok(())
    }

    /// Request and watch counters, admission gauges and the request
    /// latency histogram.
    fn feed_metrics(&self, reg: &mut MetricsRegistry) {
        let c = &self.counters;
        for (name, help, counter) in [
            ("ffisafe_server_requests_total", "Analyze requests completed", &c.requests_total),
            (
                "ffisafe_server_busy_total",
                "Analyze requests refused by admission control",
                &c.busy_total,
            ),
            (
                "ffisafe_server_metrics_requests_total",
                "METRICS wire ops served",
                &c.metrics_requests,
            ),
            (
                "ffisafe_server_workers_executed_total",
                "Inference workers executed across all requests",
                &c.workers_executed_total,
            ),
            (
                "ffisafe_server_report_hits_total",
                "Requests answered whole from the tier-2 report cache",
                &c.report_hits_total,
            ),
            (
                "ffisafe_server_watch_runs_total",
                "Watch-mode re-analyses triggered by tree changes",
                &c.watch_runs_total,
            ),
            (
                "ffisafe_server_watch_events_sent_total",
                "Watch change events delivered to subscribers",
                &c.watch_events_sent,
            ),
        ] {
            reg.inc_counter(name, help, &[], counter.load(Ordering::Relaxed));
        }
        reg.set_gauge(
            "ffisafe_server_inflight",
            "Analyses currently executing",
            &[],
            self.admission.running() as f64,
        );
        reg.set_gauge(
            "ffisafe_server_queued",
            "Analyses currently waiting for an execution slot",
            &[],
            self.admission.queued() as f64,
        );
        reg.set_gauge(
            "ffisafe_server_watch_subscribers",
            "Connections subscribed to watch events",
            &[],
            self.subscribers.lock().unwrap_or_else(|p| p.into_inner()).len() as f64,
        );
        reg.record_histogram(
            "ffisafe_server_request_seconds",
            "End-to-end analyze request latency (admission wait included)",
            &[],
            self.latency.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        );
    }
}

/// A resident daemon serving one [`AnalysisService`] to many TCP clients:
/// `AnalysisServer::bind(addr, config)`. Snapshots are rewritten after
/// every reply and every watch run.
pub type AnalysisServer = Daemon<ServeHandler>;

/// What `AnalysisServer::bind` builds its handler from. Fails when the
/// service's cache cannot open.
impl TryFrom<ServeConfig> for ServeHandler {
    type Error = io::Error;

    fn try_from(config: ServeConfig) -> io::Result<ServeHandler> {
        let service = AnalysisService::with_config(config.service)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let max_inflight =
            if config.max_inflight == 0 { available_cores() } else { config.max_inflight };
        Ok(ServeHandler {
            service,
            admission: Admission::new(max_inflight, config.queue_depth),
            counters: ServeCounters::default(),
            latency: Mutex::new(HistogramValue::new(LATENCY_BUCKETS)),
            subscribers: Mutex::new(Vec::new()),
            watch: config.watch_root.map(|root| (root, config.watch_interval)),
        })
    }
}
