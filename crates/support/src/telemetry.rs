//! Dependency-free telemetry: tracing spans, a metrics registry, and
//! leveled logging.
//!
//! The module has three faces that share one monotonic clock:
//!
//! - **Tracing** — [`span`] / [`span_with`] return a guard that records a
//!   complete span (name, start, duration, thread, key/value args) into a
//!   per-thread buffer when tracing is enabled, and cost one relaxed atomic
//!   load when it is not. Buffers flush into a global sink on overflow, on
//!   thread exit, and on [`flush_thread`]; [`drain_spans`] collects
//!   everything recorded so far and [`chrome_trace_json`] serializes spans
//!   as Chrome trace-event JSON (loadable in `chrome://tracing` and
//!   Perfetto).
//! - **Metrics** — [`MetricsRegistry`] holds named counters, gauges, and
//!   fixed-boundary histograms with optional labels, and renders them as
//!   Prometheus text exposition ([`MetricsRegistry::to_prometheus`]) or as
//!   a human-readable table ([`MetricsRegistry::render_text`]).
//! - **Logging** — [`log`] writes leveled, elapsed-stamped lines to
//!   stderr, filtered by a global level set with [`set_log_level`].
//!
//! Telemetry is inert by design: nothing here ever writes to stdout, and
//! a disabled span allocates nothing, so analysis and sweep reports are
//! byte-identical whether tracing is on or off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// A double-quoted, JSON-escaped rendering of `s`.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json::escape_into(&mut out, s);
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process-wide telemetry epoch (the first
/// time any telemetry clock was read). Monotonic; shared by spans and logs.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

/// Flush a thread's span buffer into the global sink when it reaches this
/// many events, bounding per-thread memory during long runs.
const FLUSH_THRESHOLD: usize = 256;

/// One completed span: a named interval on one thread, with optional
/// string key/value arguments (attempt numbers, byte counts, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name from the documented schema (e.g. `infer.solve`).
    pub name: &'static str,
    /// Start offset in microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Stable per-thread id (small integers assigned in spawn order).
    pub tid: u64,
    /// Key/value annotations attached to the span.
    pub args: Vec<(&'static str, String)>,
}

impl SpanEvent {
    /// End offset in microseconds since the telemetry epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Look up an annotation by key.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }
}

struct ThreadBuffer {
    tid: u64,
    events: Vec<SpanEvent>,
}

impl ThreadBuffer {
    fn new() -> Self {
        ThreadBuffer { tid: NEXT_TID.fetch_add(1, Ordering::Relaxed), events: Vec::new() }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(&mut self.events);
    }
}

// Backstop only: thread-local destructors run during thread *teardown*,
// which `std::thread::scope` does not wait for (the scope unblocks as soon
// as every closure has returned). A joiner that drains immediately after a
// scope can therefore race this flush and miss the thread's spans — worker
// closures that record spans must call [`flush_thread`] before returning.
impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
}

/// Enable or disable span recording globally. Disabled is the default;
/// a disabled [`span`] call is a single relaxed atomic load.
pub fn set_tracing(enabled: bool) {
    if enabled {
        // Anchor the clock before the first span so timestamps are small.
        epoch();
    }
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Guard for an in-flight span. Records the completed span into the
/// current thread's buffer when dropped (if tracing was enabled when the
/// span was opened). When tracing is off the guard is empty and `Drop`
/// does nothing.
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    start_us: u64,
    args: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// Attach a key/value annotation. No-op on a non-recording guard, so
    /// values already computed (byte counts, hit flags) can be attached
    /// unconditionally.
    pub fn arg(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(open) = &mut self.open {
            open.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = now_us();
        let event = SpanEvent {
            name: open.name,
            start_us: open.start_us,
            dur_us: end.saturating_sub(open.start_us),
            tid: 0, // filled in below from the thread buffer
            args: open.args,
        };
        let _ = BUFFER.try_with(|buf| {
            let mut buf = buf.borrow_mut();
            let mut event = event;
            event.tid = buf.tid;
            buf.events.push(event);
            if buf.events.len() >= FLUSH_THRESHOLD {
                buf.flush();
            }
        });
    }
}

/// Open a span with the given name. Returns a guard that records the
/// completed span when dropped. Inert (no allocation) when tracing is off.
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { open: None };
    }
    SpanGuard { open: Some(OpenSpan { name, start_us: now_us(), args: Vec::new() }) }
}

/// Open a span with annotations computed lazily — the closure only runs
/// when tracing is enabled, so argument formatting costs nothing when off.
pub fn span_with(
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { open: None };
    }
    SpanGuard { open: Some(OpenSpan { name, start_us: now_us(), args: args() }) }
}

/// Flush the current thread's span buffer into the global sink.
///
/// Every worker closure that records spans must call this before
/// returning, as [`crate::pool::run`] does for its workers: thread-exit
/// flushing via the buffer's destructor is only a backstop, because
/// scoped-thread joins do not wait for thread-local teardown and a drain
/// right after the scope would race it.
pub fn flush_thread() {
    let _ = BUFFER.try_with(|buf| buf.borrow_mut().flush());
}

/// Collect every span recorded so far (flushing the current thread first)
/// and clear the sink. Spans are ordered by start time, with longer spans
/// first on ties so parents precede children.
pub fn drain_spans() -> Vec<SpanEvent> {
    flush_thread();
    let mut events = {
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *sink)
    };
    events.sort_by(|a, b| {
        a.start_us.cmp(&b.start_us).then(b.dur_us.cmp(&a.dur_us)).then(a.tid.cmp(&b.tid))
    });
    events
}

/// Serialize spans as Chrome trace-event JSON: a top-level array of
/// complete (`"ph":"X"`) events with microsecond timestamps. The output
/// loads directly in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
/// and parses with [`crate::json::parse`].
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let pid = std::process::id();
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push_str("[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"ffisafe\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}",
            quote(ev.name),
            pid,
            ev.tid,
            ev.start_us,
            ev.dur_us
        );
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", quote(k), quote(v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Count nesting violations: spans on the same thread must be either
/// disjoint or properly contained (a child's interval inside its
/// parent's). Returns 0 for a well-formed trace.
pub fn nesting_violations(events: &[SpanEvent]) -> usize {
    let mut by_tid: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for ev in events {
        by_tid.entry(ev.tid).or_default().push((ev.start_us, ev.end_us()));
    }
    let mut violations = 0;
    for intervals in by_tid.values_mut() {
        // Sort by start ascending, then end descending so parents come first.
        intervals.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for &(start, end) in intervals.iter() {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, top_end)) = stack.last() {
                if end > top_end {
                    violations += 1;
                    continue;
                }
            }
            stack.push((start, end));
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Trace files
// ---------------------------------------------------------------------------

/// The trace-flush policy shared by every resident daemon (`cache-serve`,
/// `ffisafe serve`): spans drained from the global sink accumulate across
/// flushes, and each [`TraceFileWriter::flush`] rewrites the `--trace-out`
/// file as one *complete* Chrome trace-event snapshot of the daemon so
/// far.
///
/// Two properties the ad-hoc per-daemon code used to get wrong:
///
/// * **no clobbering** — a flush never discards earlier sessions' spans;
///   the accumulator grows monotonically, so the Nth snapshot is a
///   superset of the (N-1)th;
/// * **no torn reads** — the snapshot is written to a sibling `.tmp` file
///   and renamed into place, so a trace viewer (or `trace_check`) opening
///   the file mid-flush never sees a half-written JSON document.
#[derive(Debug)]
pub struct TraceFileWriter {
    path: PathBuf,
    /// Spans accumulated across flushes; every snapshot renders all of
    /// them, so the file is always the daemon's complete history.
    accumulated: Mutex<Vec<SpanEvent>>,
}

impl TraceFileWriter {
    /// A writer that will snapshot to `path`. Nothing is written until the
    /// first [`TraceFileWriter::flush`].
    pub fn new(path: PathBuf) -> TraceFileWriter {
        TraceFileWriter { path, accumulated: Mutex::new(Vec::new()) }
    }

    /// The snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Drains the global span sink (flushing the calling thread's buffer
    /// first) into the accumulator and atomically rewrites the snapshot
    /// file. Concurrent flushes serialize on the accumulator.
    pub fn flush(&self) -> std::io::Result<()> {
        flush_thread();
        let mut accumulated = self.accumulated.lock().unwrap_or_else(|p| p.into_inner());
        accumulated.extend(drain_spans());
        write_snapshot(&self.path, &chrome_trace_json(&accumulated))
    }

    /// Number of spans accumulated so far (observability for tests).
    pub fn span_count(&self) -> usize {
        self.accumulated.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// Replaces `path` with `contents` atomically: the bytes go to a sibling
/// `.tmp` file that is then renamed over `path`, so a reader sees the
/// previous snapshot or the new one, never an empty or half-written file.
/// Callers writing the same path from several threads must serialize.
pub fn write_snapshot(path: &Path, contents: &str) -> std::io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot");
    let tmp = path.with_file_name(format!("{name}.tmp"));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Fixed histogram boundaries (seconds) for latency metrics, chosen to
/// resolve both tier-2 cache hits (~0.1ms) and multi-second cold sweeps.
pub const LATENCY_BUCKETS: &[f64] =
    &[0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Fixed-boundary distribution with sum and count.
    Histogram,
}

impl MetricKind {
    fn prometheus_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramValue),
}

/// Observed distribution: cumulative bucket counts over fixed boundaries
/// plus total sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramValue {
    /// Upper bounds of the buckets, ascending; an implicit `+Inf` bucket
    /// follows the last bound.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (not cumulative; one per bound plus
    /// one for `+Inf`).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramValue {
    /// An empty histogram over `bounds`. Public so daemons can accumulate
    /// observations outside a registry (behind their own lock) and
    /// materialize a registry on demand via
    /// [`MetricsRegistry::record_histogram`].
    pub fn new(bounds: &[f64]) -> Self {
        HistogramValue {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Debug)]
struct MetricFamily {
    help: &'static str,
    kind: MetricKind,
    /// Samples keyed by their rendered label set (`""` for unlabeled).
    samples: BTreeMap<String, MetricValue>,
}

/// A registry of named counters, gauges, and histograms with optional
/// labels. Families are created implicitly on first touch; names and
/// label sets render in sorted order so output is deterministic.
///
/// This is a plain value (no global state): each CLI invocation or daemon
/// builds a registry from its domain stats (`AnalysisStats`, `MapStats`,
/// `CacheStats`) and renders it, so the human `--timings` output and the
/// Prometheus `--metrics-out` file cannot drift apart.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<&'static str, MetricFamily>,
}

fn label_key(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}={}", k, quote(v));
    }
    out
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn family(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
    ) -> &mut MetricFamily {
        let fam = self.families.entry(name).or_insert_with(|| MetricFamily {
            help,
            kind,
            samples: BTreeMap::new(),
        });
        debug_assert!(fam.kind == kind, "metric {name} redeclared with a different kind");
        fam
    }

    /// Add `delta` to a counter, creating it at zero on first touch.
    pub fn inc_counter(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        delta: u64,
    ) {
        let fam = self.family(name, help, MetricKind::Counter);
        let slot = fam.samples.entry(label_key(labels)).or_insert(MetricValue::Counter(0));
        if let MetricValue::Counter(v) = slot {
            *v += delta;
        }
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let fam = self.family(name, help, MetricKind::Gauge);
        fam.samples.insert(label_key(labels), MetricValue::Gauge(value));
    }

    /// Record one observation into a fixed-boundary histogram.
    pub fn observe(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        value: f64,
    ) {
        let fam = self.family(name, help, MetricKind::Histogram);
        let slot = fam
            .samples
            .entry(label_key(labels))
            .or_insert_with(|| MetricValue::Histogram(HistogramValue::new(bounds)));
        if let MetricValue::Histogram(h) = slot {
            h.observe(value);
        }
    }

    /// Insert (or replace) a fully-accumulated histogram sample — the
    /// bulk form of [`MetricsRegistry::observe`] for daemons that count
    /// observations in their own state and build a registry per scrape.
    pub fn record_histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: HistogramValue,
    ) {
        let fam = self.family(name, help, MetricKind::Histogram);
        fam.samples.insert(label_key(labels), MetricValue::Histogram(value));
    }

    /// Read a counter back, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.samples.get(&label_key(labels))? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Read a gauge back, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.families.get(name)?.samples.get(&label_key(labels))? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Render the registry in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, histogram `_bucket`/`_sum`/`_count`
    /// expansion with cumulative `le` buckets).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# HELP {} {}", name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", name, fam.kind.prometheus_name());
            for (labels, value) in &fam.samples {
                match value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{}{} {}", name, brace(labels), v);
                    }
                    MetricValue::Gauge(v) => {
                        let _ = writeln!(out, "{}{} {}", name, brace(labels), fmt_f64(*v));
                    }
                    MetricValue::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, bound) in h.bounds.iter().enumerate() {
                            cumulative += h.counts[i];
                            let le = label_key(&[("le", &fmt_f64(*bound))]);
                            let all = join_labels(labels, &le);
                            let _ = writeln!(out, "{}_bucket{{{}}} {}", name, all, cumulative);
                        }
                        cumulative += h.counts[h.bounds.len()];
                        let le = join_labels(labels, "le=\"+Inf\"");
                        let _ = writeln!(out, "{}_bucket{{{}}} {}", name, le, cumulative);
                        let _ = writeln!(out, "{}_sum{} {}", name, brace(labels), fmt_f64(h.sum));
                        let _ = writeln!(out, "{}_count{} {}", name, brace(labels), h.count);
                    }
                }
            }
        }
        out
    }

    /// Render the registry as a human-readable table (one `name{labels}
    /// value` line per sample, aligned) — the single source for the CLI's
    /// `--timings` stderr output.
    pub fn render_text(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (name, fam) in &self.families {
            for (labels, value) in &fam.samples {
                let key = format!("{}{}", name, brace(labels));
                let val = match value {
                    MetricValue::Counter(v) => v.to_string(),
                    MetricValue::Gauge(v) => {
                        if v.fract() == 0.0 && v.abs() < 1e9 {
                            format!("{}", *v as i64)
                        } else {
                            format!("{v:.3}")
                        }
                    }
                    MetricValue::Histogram(h) => {
                        format!("count={} sum={}", h.count, fmt_f64(h.sum))
                    }
                };
                rows.push((key, val));
            }
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (key, val) in rows {
            let _ = writeln!(out, "  {key:<width$}  {val}");
        }
        out
    }
}

fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

/// Severity levels for [`log`], ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Unrecoverable or dropped work.
    Error = 0,
    /// Degraded behavior the operator should know about (e.g. a network
    /// error degraded a cache get to a miss).
    Warn = 1,
    /// Lifecycle events: session open/close, listener bound.
    Info = 2,
    /// Per-operation detail.
    Debug = 3,
}

impl LogLevel {
    /// Parse a level name as accepted by `--log-level`.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    /// The lowercase level name.
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

static LOG_LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Warn as u8);

/// Set the global maximum level: messages above it are discarded.
/// Defaults to `warn`.
pub fn set_log_level(level: LogLevel) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether a message at `level` would currently be emitted.
pub fn log_enabled(level: LogLevel) -> bool {
    (level as u8) <= LOG_LEVEL.load(Ordering::Relaxed)
}

/// Emit one leveled line to stderr, stamped with seconds elapsed on the
/// shared telemetry clock: `[    1.234s] info  component: message`.
pub fn log(level: LogLevel, component: &str, message: &str) {
    if !log_enabled(level) {
        return;
    }
    let elapsed = epoch().elapsed().as_secs_f64();
    eprintln!("[{elapsed:>9.3}s] {:<5} {component}: {message}", level.name());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Held by every test in this crate that switches tracing on or drains
    /// the sink, so that one test's drain cannot take another's spans.
    pub(crate) static TRACING_LOCK: Mutex<()> = Mutex::new(());

    fn ev(name: &'static str, tid: u64, start: u64, end: u64) -> SpanEvent {
        SpanEvent { name, start_us: start, dur_us: end - start, tid, args: Vec::new() }
    }

    #[test]
    fn nesting_checker_accepts_proper_trees_and_disjoint_spans() {
        let events = vec![
            ev("root", 1, 0, 100),
            ev("child", 1, 10, 40),
            ev("grandchild", 1, 12, 38),
            ev("sibling", 1, 50, 90),
            ev("other-thread", 2, 5, 500),
            ev("later", 1, 100, 120), // shares a boundary with root: disjoint
        ];
        assert_eq!(nesting_violations(&events), 0);
    }

    #[test]
    fn nesting_checker_flags_partial_overlap() {
        let events = vec![ev("a", 1, 0, 50), ev("b", 1, 25, 75)];
        assert_eq!(nesting_violations(&events), 1);
    }

    #[test]
    fn chrome_trace_json_is_parseable_and_complete() {
        let mut event = ev("sweep.library", 3, 7, 19);
        event.args = vec![("library", "gsl\"x".to_string()), ("attempt", "0".to_string())];
        let text = chrome_trace_json(&[event, ev("phase.infer", 3, 8, 18)]);
        let doc = json::parse(&text).expect("trace must parse");
        let arr = doc.as_array().expect("top-level array");
        assert_eq!(arr.len(), 2);
        let first = &arr[0];
        assert_eq!(first.get("name").and_then(|j| j.as_str()), Some("sweep.library"));
        assert_eq!(first.get("ph").and_then(|j| j.as_str()), Some("X"));
        assert_eq!(first.get("ts").and_then(|j| j.as_u64()), Some(7));
        assert_eq!(first.get("dur").and_then(|j| j.as_u64()), Some(12));
        assert_eq!(
            first.get("args").and_then(|a| a.get("library")).and_then(|j| j.as_str()),
            Some("gsl\"x")
        );
    }

    #[test]
    fn registry_prometheus_output_is_sorted_and_typed() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("z_total", "last family", &[], 3);
        reg.set_gauge("a_seconds", "first family", &[("phase", "infer")], 0.25);
        reg.inc_counter("z_total", "last family", &[], 4);
        let text = reg.to_prometheus();
        let expected = "# HELP a_seconds first family\n\
                        # TYPE a_seconds gauge\n\
                        a_seconds{phase=\"infer\"} 0.25\n\
                        # HELP z_total last family\n\
                        # TYPE z_total counter\n\
                        z_total 7\n";
        assert_eq!(text, expected);
        assert_eq!(reg.counter("z_total", &[]), Some(7));
        assert_eq!(reg.gauge("a_seconds", &[("phase", "infer")]), Some(0.25));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut reg = MetricsRegistry::new();
        for v in [0.0005, 0.003, 0.003, 0.2, 99.0] {
            reg.observe("lat_seconds", "latency", &[], &[0.001, 0.01, 1.0], v);
        }
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.01\"} 3\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 4\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("lat_seconds_count 5\n"));
    }

    #[test]
    fn render_text_aligns_and_preserves_labels() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("wall_seconds", "w", &[("phase", "infer")], 0.125);
        reg.inc_counter("hits_total", "h", &[], 12);
        let text = reg.render_text();
        assert!(text.contains("wall_seconds{phase=\"infer\"}"));
        assert!(text.contains("0.125"));
        assert!(text.contains("hits_total"));
        assert!(text.contains("12"));
    }

    #[test]
    fn record_histogram_installs_the_accumulated_sample() {
        let mut h = HistogramValue::new(&[0.01, 1.0]);
        h.observe(0.005);
        h.observe(0.5);
        h.observe(5.0);
        let mut reg = MetricsRegistry::new();
        reg.record_histogram("req_seconds", "request latency", &[], h);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE req_seconds histogram\n"), "{text}");
        assert!(text.contains("req_seconds_bucket{le=\"0.01\"} 1\n"), "{text}");
        assert!(text.contains("req_seconds_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("req_seconds_count 3\n"), "{text}");
    }

    #[test]
    fn trace_file_writer_accumulates_across_flushes_atomically() {
        let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("ffisafe-tracewriter-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let writer = TraceFileWriter::new(dir.join("trace.json"));

        // First flush: whatever the sink holds right now (other tests may
        // share the process-global sink, so only count relative growth).
        writer.flush().unwrap();
        let after_first = writer.span_count();

        // Record one span with tracing forced on, then flush again: the
        // accumulator must grow, earlier spans must survive, and the file
        // must parse as a complete snapshot of everything so far.
        set_tracing(true);
        drop(span("probe.trace-writer"));
        set_tracing(false);
        writer.flush().unwrap();
        // Another test may share the process-global sink, so assert growth
        // rather than an exact count.
        assert!(writer.span_count() > after_first, "flush must append, not clobber");

        let text = std::fs::read_to_string(writer.path()).unwrap();
        let doc = json::parse(&text).expect("snapshot parses");
        let events = doc.as_array().expect("top-level array");
        assert_eq!(events.len(), writer.span_count(), "snapshot renders the full accumulator");
        assert!(!dir.join("trace.json.tmp").exists(), "tmp file renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_level_parse_round_trips() {
        for name in ["error", "warn", "info", "debug"] {
            assert_eq!(LogLevel::parse(name).unwrap().name(), name);
        }
        assert_eq!(LogLevel::parse("verbose"), None);
        assert!(LogLevel::Error < LogLevel::Debug);
    }
}

#[cfg(test)]
mod live_tracing {
    use super::*;

    /// A drain right after a scope must see the worker's spans when the
    /// worker follows the documented discipline of flushing before its
    /// closure returns (thread-exit flushing alone races the scope join).
    #[test]
    fn flushed_worker_spans_survive_an_immediate_drain() {
        let _guard = tests::TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = span("probe.child");
                drop(_g);
                flush_thread();
            });
        });
        let g = span("probe.main");
        drop(g);
        let events = drain_spans();
        set_tracing(false);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"probe.child"), "{names:?}");
        assert!(names.contains(&"probe.main"), "{names:?}");
    }
}
