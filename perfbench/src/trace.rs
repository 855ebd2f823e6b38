//! The benchmark's own in-memory span recorder, the timing cache backend,
//! and the per-layer metrics and tables computed from them.
//!
//! Spans are recorded around calls into each layer's public functions on
//! the benchmark's driving thread; the program's own tracing stays off.
//! Every span carries its parent span and a request id (one daemon
//! request, or one library or one sweep of `cold-sweep`). Cache-backend
//! calls are too many to keep as spans (the trace must stay small enough
//! for `trace_check`), so [`TimedBackend`] tallies them per request and
//! charges their time to the innermost open span: a span's *self time*
//! is its duration minus its child spans and minus the cache calls made
//! directly inside it.

use crate::stats::median;
use ffisafe_cache::{CacheBackend, CacheStats, Tier};
use ffisafe_support::telemetry::{chrome_trace_json, nesting_violations, SpanEvent};
use ffisafe_support::Fingerprint;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`core.infer`, `serve.request_decode`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
    /// Time spent in cache-backend calls made directly inside this span.
    pub cache_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    enabled: bool,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Per-request tallies: (request, counter) → value.
    counters: BTreeMap<(u64, &'static str), f64>,
}

/// Records spans and per-request counters from the thread that created
/// it. Starts disabled; calls made while disabled run untimed.
pub struct Recorder {
    epoch: Instant,
    owner: ThreadId,
    state: Mutex<State>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("spans", &self.lock().spans.len()).finish()
    }
}

impl Recorder {
    /// A disabled recorder owned by the calling thread.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            owner: std::thread::current().id(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("no recorder user panics while holding the lock")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn active(&self) -> bool {
        std::thread::current().id() == self.owner && self.lock().enabled
    }

    /// Starts (or stops) recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.lock().enabled = enabled;
    }

    /// Attributes the spans and counters that follow to `request`.
    pub fn set_request(&self, request: u64) {
        self.lock().request = request;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.active() {
            return f();
        }
        {
            let start_ns = self.now_ns();
            let mut st = self.lock();
            let index = st.spans.len();
            let (parent, request) = (st.open.last().copied(), st.request);
            st.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request, cache_ns: 0 });
            st.open.push(index);
        }
        let out = f();
        let end_ns = self.now_ns();
        let mut st = self.lock();
        let index = st.open.pop().expect("spans close in LIFO order");
        st.spans[index].end_ns = end_ns;
        out
    }

    /// Adds `value` to the current request's `counter`.
    pub fn add(&self, counter: &'static str, value: f64) {
        let mut st = self.lock();
        if st.enabled {
            let key = (st.request, counter);
            *st.counters.entry(key).or_insert(0.0) += value;
        }
    }

    /// Times one cache-backend call: counts it under `{op}` (`cache.get`,
    /// …), adds its nanoseconds to `{op}_ns`, and charges them to the
    /// innermost open span when called from the recording thread.
    fn cache_op<T>(&self, op: CacheOp, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let on_owner = std::thread::current().id() == self.owner;
        let mut st = self.lock();
        if st.enabled {
            let request = st.request;
            *st.counters.entry((request, op.count())).or_insert(0.0) += 1.0;
            *st.counters.entry((request, op.ns())).or_insert(0.0) += ns as f64;
            if let (true, Some(&open)) = (on_owner, st.open.last()) {
                st.spans[open].cache_ns += ns;
            }
        }
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Per-request totals of `counter`, over the requests that recorded it.
    pub fn counter(&self, counter: &str) -> Vec<f64> {
        self.lock().counters.iter().filter(|((_, c), _)| *c == counter).map(|(_, v)| *v).collect()
    }

    /// `counter` by request, over the requests that recorded it.
    fn counter_by_request(&self, counter: &str) -> BTreeMap<u64, f64> {
        self.lock()
            .counters
            .iter()
            .filter(|((_, c), _)| *c == counter)
            .map(|((r, _), v)| (*r, *v))
            .collect()
    }
}

#[derive(Clone, Copy)]
enum CacheOp {
    Get,
    Put,
    Flush,
}

impl CacheOp {
    fn count(self) -> &'static str {
        match self {
            CacheOp::Get => "cache.get",
            CacheOp::Put => "cache.put",
            CacheOp::Flush => "cache.flush",
        }
    }

    fn ns(self) -> &'static str {
        match self {
            CacheOp::Get => "cache.get_ns",
            CacheOp::Put => "cache.put_ns",
            CacheOp::Flush => "cache.flush_ns",
        }
    }
}

/// A [`CacheBackend`] that forwards to another and times every call into
/// a [`Recorder`]; the stage replay hands it to
/// `PipelineCache::from_shared`.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn CacheBackend>,
    rec: Arc<Recorder>,
}

impl TimedBackend {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn CacheBackend>, rec: Arc<Recorder>) -> TimedBackend {
        TimedBackend { inner, rec }
    }
}

impl CacheBackend for TimedBackend {
    fn get(&self, tier: Tier, fp: Fingerprint) -> Option<Vec<u8>> {
        let found = self.rec.cache_op(CacheOp::Get, || self.inner.get(tier, fp));
        if found.is_some() {
            self.rec.add("cache.get_hits", 1.0);
        }
        found
    }

    fn put(&self, tier: Tier, fp: Fingerprint, payload: &[u8]) -> io::Result<()> {
        self.rec.add("cache.put_bytes", payload.len() as f64);
        self.rec.cache_op(CacheOp::Put, || self.inner.put(tier, fp, payload))
    }

    fn flush(&self) -> io::Result<()> {
        self.rec.cache_op(CacheOp::Flush, || self.inner.flush())
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn adopt_orphans(&self) {
        self.inner.adopt_orphans()
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

/// Per-request aggregates over a finished recording.
pub struct Layers {
    spans: Vec<Span>,
    /// Per span: duration minus child spans minus direct cache calls.
    self_ns: Vec<u64>,
}

impl Layers {
    /// Computes self times for every span `rec` holds.
    pub fn of(rec: &Recorder) -> Layers {
        let spans = rec.spans();
        let mut self_ns: Vec<u64> =
            spans.iter().map(|s| s.dur_ns().saturating_sub(s.cache_ns)).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
            }
        }
        Layers { spans, self_ns }
    }

    fn per_request(&self, name: &str, self_time: bool) -> Vec<f64> {
        let mut by_request: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            let ns = if self_time { self.self_ns[i] } else { s.dur_ns() };
            *by_request.entry(s.request).or_insert(0) += ns;
        }
        by_request.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Median per request of the summed duration of `name` spans, in ms,
    /// over the requests where the layer ran (0 if it never ran).
    pub fn ms(&self, name: &str) -> f64 {
        median(&self.per_request(name, false))
    }

    /// Like [`Layers::ms`], for self time.
    pub fn self_ms(&self, name: &str) -> f64 {
        median(&self.per_request(name, true))
    }

    /// Span names in order of first appearance.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// Writes the spans as Chrome trace-event JSON (the format
    /// `trace_check` accepts). Fails if any two spans partially overlap,
    /// which `trace_check`'s nesting check would reject.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<usize> {
        let events: Vec<SpanEvent> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let start_us = s.start_ns / 1000;
                let mut args = vec![("id", i.to_string()), ("request", s.request.to_string())];
                if let Some(p) = s.parent {
                    args.push(("parent", p.to_string()));
                }
                SpanEvent {
                    name: s.name,
                    start_us,
                    dur_us: s.end_ns / 1000 - start_us,
                    tid: 1,
                    args,
                }
            })
            .collect();
        let violations = nesting_violations(&events);
        if violations > 0 {
            return Err(io::Error::other(format!("{violations} span(s) overlap a sibling")));
        }
        std::fs::write(path, chrome_trace_json(&events))?;
        Ok(events.len())
    }
}

/// The per-layer metrics every traced run reports, in `BENCHMARK.json`
/// order. Layers a workload does not exercise read 0.
pub fn layer_metrics(
    rec: &Recorder,
    layers: &Layers,
    busy: u64,
    gap_ms: f64,
    failed_frac: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let kb = |counter: &str| median(&rec.counter(counter)) / 1024.0;
    let count = |counter: &str| median(&rec.counter(counter));
    let ns_ms = |counter: &str| median(&rec.counter(counter)) / 1e6;
    // Ratios are taken per request over the requests where the
    // denominator is nonzero.
    let ratio = |num: &str, den: &str| {
        let num = rec.counter_by_request(num);
        let values: Vec<f64> = rec
            .counter_by_request(den)
            .into_iter()
            .filter(|(_, d)| *d > 0.0)
            .map(|(r, d)| num.get(&r).copied().unwrap_or(0.0) / d)
            .collect();
        median(&values)
    };
    let hits = rec.counter("core.report_hit");
    let report_hit_ratio =
        if hits.is_empty() { 0.0 } else { hits.iter().sum::<f64>() / hits.len() as f64 };
    vec![
        ("serve.request_kb", kb("serve.request_bytes"), "KiB"),
        ("serve.request_encode_ms", layers.ms("serve.request_encode"), "ms"),
        ("serve.request_decode_ms", layers.ms("serve.request_decode"), "ms"),
        ("serve.reply_kb", kb("serve.reply_bytes"), "KiB"),
        ("serve.reply_encode_ms", layers.ms("serve.reply_encode"), "ms"),
        ("serve.reply_decode_ms", layers.ms("serve.reply_decode"), "ms"),
        ("serve.busy_count", busy as f64, "count"),
        ("trace.gap_ms", gap_ms, "ms"),
        ("core.corpus_build_ms", layers.ms("core.corpus_build"), "ms"),
        ("core.analyze_ms", layers.ms("core.analyze"), "ms"),
        ("core.render_ms", layers.ms("core.render"), "ms"),
        ("core.report_probe_ms", layers.ms("core.report_probe"), "ms"),
        ("core.report_hit_ratio", report_hit_ratio, "ratio"),
        ("ocaml.parse_ms", layers.ms("ocaml.parse"), "ms"),
        ("cil.parse_ms", layers.ms("cil.parse"), "ms"),
        ("rustffi.parse_ms", layers.ms("rustffi.parse"), "ms"),
        ("frontend.parse_kb", kb("frontend.parse_bytes"), "KiB"),
        ("core.frontend_ml_ms", layers.ms("core.frontend_ml"), "ms"),
        ("core.frontend_c_ms", layers.ms("core.frontend_c"), "ms"),
        ("core.frontend_rust_ms", layers.ms("core.frontend_rust"), "ms"),
        ("core.link_ms", layers.ms("core.link"), "ms"),
        ("core.base_digest_ms", layers.ms("core.base_digest"), "ms"),
        ("core.fn_fingerprint_ms", layers.ms("core.fn_fingerprint"), "ms"),
        ("core.infer_ms", layers.ms("core.infer"), "ms"),
        ("core.solve_ms", layers.self_ms("core.infer"), "ms"),
        ("core.functions", count("core.functions"), "count"),
        ("core.workers_executed", count("core.workers_executed"), "count"),
        ("core.tier1_hit_ratio", ratio("core.fn_hits", "core.functions"), "ratio"),
        ("core.passes", count("core.passes"), "count"),
        ("cache.get_count", count("cache.get"), "count"),
        ("cache.get_ms", ns_ms("cache.get_ns"), "ms"),
        ("cache.get_hit_ratio", ratio("cache.get_hits", "cache.get"), "ratio"),
        ("cache.put_count", count("cache.put"), "count"),
        ("cache.put_kb", kb("cache.put_bytes"), "KiB"),
        ("cache.put_ms", ns_ms("cache.put_ns"), "ms"),
        ("cache.flush_count", count("cache.flush"), "count"),
        ("cache.flush_ms", ns_ms("cache.flush_ns"), "ms"),
        ("core.discharge_ms", layers.ms("core.discharge"), "ms"),
        ("shard.plan_ms", layers.ms("shard.plan"), "ms"),
        ("shard.map_ms", layers.ms("shard.map"), "ms"),
        ("shard.reduce_ms", layers.ms("shard.reduce"), "ms"),
        ("failed_frac", failed_frac, "ratio"),
    ]
}

/// The per-layer self-time table: for each span name and each cache
/// operation, the median per request (over the requests where it ran),
/// how many requests ran it, and its share of all recorded self time.
pub fn self_time_table(workload: &str, rec: &Recorder, layers: &Layers, gap_ms: f64) -> String {
    let mut rows: Vec<(String, f64, usize, f64)> = Vec::new();
    for name in layers.names() {
        let per = layers.per_request(name, true);
        rows.push((name.to_string(), median(&per), per.len(), per.iter().sum()));
    }
    for op in ["cache.get", "cache.put", "cache.flush"] {
        let per: Vec<f64> = rec.counter(&format!("{op}_ns")).iter().map(|ns| ns / 1e6).collect();
        if !per.is_empty() {
            rows.push((op.to_string(), median(&per), per.len(), per.iter().sum()));
        }
    }
    let total: f64 = rows.iter().map(|r| r.3).sum::<f64>().max(f64::MIN_POSITIVE);
    let mut out = format!(
        "per-layer self time, {workload} (median per request over the requests that ran the layer)\n{:<24} {:>12} {:>9} {:>8}\n",
        "layer", "self ms p50", "requests", "share"
    );
    for (name, p50, n, sum) in rows {
        out.push_str(&format!("{name:<24} {p50:>12.3} {n:>9} {:>7.1}%\n", 100.0 * sum / total));
    }
    out.push_str(&format!("trace.gap_ms {gap_ms:.3}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_cache_calls() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.set_request(7);
        rec.span("outer", || {
            rec.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            rec.cache_op(CacheOp::Get, || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let layers = Layers::of(&rec);
        assert!(layers.ms("outer") >= 10.0);
        assert!(layers.self_ms("outer") < 5.0, "{}", layers.self_ms("outer"));
        assert_eq!(rec.counter("cache.get"), vec![1.0]);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
    }

    #[test]
    fn disabled_recorders_record_nothing() {
        let rec = Recorder::new();
        assert_eq!(rec.span("x", || 3), 3);
        rec.add("c", 1.0);
        assert!(rec.spans().is_empty());
        assert!(rec.counter("c").is_empty());
    }
}
