//! Locks the telemetry subsystem's two core contracts:
//!
//! * **useful** — a traced sweep records the documented span schema
//!   (planner, map, per-library attempts, per-function solves), the
//!   spans nest properly per thread even with concurrent workers, the
//!   Chrome export parses, a warm sweep records zero `infer.solve`
//!   spans, and the first library attempt is the largest library's;
//! * **inert** — the reduced sweep report is byte-identical with
//!   tracing on and off, and the metrics registry agrees with the
//!   numbers the sweep JSON itself reports.
//!
//! The same contracts hold for the resident daemon: every wire request
//! runs under a `server.*` span, and the daemon's `ffisafe_server_*`
//! metrics must agree with the sums of the per-request outcomes it
//! returned.
//!
//! Tracing is process-global state, so every test that toggles it runs
//! under one mutex and drains the sink before releasing it.

use ffisafe::bench::corpus::generate;
use ffisafe::bench::figure9::benchmark_corpus;
use ffisafe::bench::spec::paper_benchmarks;
use ffisafe::cache::{CacheStore, Tier};
use ffisafe::core::pipeline::cache::{self, analyzer_cache_version};
use ffisafe::shard::{sweep, SweepConfig, SweepOutput};
use ffisafe::support::json::{self, Json};
use ffisafe::support::telemetry::{
    self, chrome_trace_json, drain_spans, nesting_violations, set_tracing, MetricsRegistry,
    SpanEvent,
};
use ffisafe::support::Fingerprint;
use ffisafe::{AnalysisRequest, AnalysisService, Corpus, SourceKind};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes the tests that toggle the process-global tracing flag.
static TRACING_LOCK: Mutex<()> = Mutex::new(());

/// A temp tree that is removed when the test that built it ends.
struct TempTree(PathBuf);

impl std::ops::Deref for TempTree {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a small multi-library tree (clean, erroring, imprecise) so the
/// sweep has real per-library work and nonzero diagnostics.
fn build_tree(tag: &str) -> TempTree {
    let root =
        std::env::temp_dir().join(format!("ffisafe-telemetry-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let libs: &[(&str, &str, &str)] = &[
        (
            "alpha",
            "external add : int -> int -> int = \"ml_add\"\n",
            "value ml_add(value a, value b) { return Val_int(Int_val(a) + Int_val(b)); }\n",
        ),
        (
            "bravo",
            "external wrap : int -> int = \"ml_wrap\"\n",
            "value ml_wrap(value n) { return Val_int(n); }\n",
        ),
        (
            "charlie",
            "external id : int -> int = \"ml_id\"\n",
            "value ml_id(value n) { return Val_int(Int_val(n)); }\n",
        ),
    ];
    for (name, ml, c) in libs {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lib.ml"), ml).unwrap();
        std::fs::write(dir.join("glue.c"), c).unwrap();
    }
    TempTree(root)
}

fn run_sweep(root: &Path, config: &SweepConfig) -> SweepOutput {
    sweep(root, config).expect("sweep completes")
}

fn traced_sweep(root: &Path, config: &SweepConfig) -> (SweepOutput, Vec<SpanEvent>) {
    set_tracing(true);
    let output = run_sweep(root, config);
    set_tracing(false);
    (output, drain_spans())
}

fn count(events: &[SpanEvent], name: &str) -> usize {
    events.iter().filter(|e| e.name == name).count()
}

#[test]
fn traced_sweep_records_the_span_schema_and_nests_per_thread() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = build_tree("schema");
    // Several shards and workers so spans interleave across threads —
    // the nesting check must hold under concurrency.
    let config = SweepConfig { shards: 2, jobs: 4, ..SweepConfig::default() };
    let (output, events) = traced_sweep(&root, &config);
    assert_eq!(output.stats.libraries_failed, 0);

    assert_eq!(count(&events, "sweep.plan"), 1);
    assert_eq!(count(&events, "sweep.map"), 1);
    assert_eq!(count(&events, "sweep.reduce"), 1);
    assert_eq!(count(&events, "sweep.library"), 3, "one span per library attempt");
    assert_eq!(count(&events, "service.analyze"), 3);
    assert!(count(&events, "infer.solve") >= 3, "cold run solves every function");
    assert!(count(&events, "phase.infer") > 0);
    assert!(
        count(&events, "phase.frontend_rust") > 0,
        "the Rust frontend stage is timed even for OCaml-only corpora"
    );

    assert_eq!(nesting_violations(&events), 0, "spans must nest within each thread");

    // A library attempt span carries its schema-documented args.
    let lib_span = events.iter().find(|e| e.name == "sweep.library").unwrap();
    assert!(lib_span.arg("library").is_some());
    assert_eq!(lib_span.arg("attempt"), Some("0"));

    // The Chrome export is a parseable top-level array of complete events.
    let exported = chrome_trace_json(&events);
    let doc = json::parse(&exported).expect("trace JSON parses");
    let array = doc.as_array().expect("trace is a top-level array");
    assert_eq!(array.len(), events.len());
    for event in array {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("ts").and_then(Json::as_u64).is_some());
        assert!(event.get("dur").and_then(Json::as_u64).is_some());
        assert!(event.get("tid").and_then(Json::as_u64).is_some());
    }
}

#[test]
fn warm_sweep_emits_zero_infer_solve_spans() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = build_tree("warm");
    let config = SweepConfig {
        shards: 2,
        jobs: 2,
        cache_dir: Some(root.join(".cache")),
        ..SweepConfig::default()
    };
    let cold = run_sweep(&root, &config);
    assert!(cold.stats.workers_executed > 0, "cold run must execute workers");

    let (warm, events) = traced_sweep(&root, &config);
    assert_eq!(warm.stats.workers_executed, 0, "warm run must replay from the cache");
    assert_eq!(
        count(&events, "infer.solve"),
        0,
        "solver spans wrap executed workers only, so a warm run records none"
    );
    // The sweep skeleton is still visible: the cache saves the solving,
    // not the orchestration.
    assert_eq!(count(&events, "sweep.library"), 3);
}

#[test]
fn a_one_worker_sweep_starts_the_largest_library_first() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = build_tree("largest");
    // `zulu` sorts last by name but has the most lines; the three
    // two-line libraries tie and keep name order.
    let dir = root.join("zulu");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut ml, mut c) = (String::new(), String::new());
    for i in 0..8 {
        ml.push_str(&format!("external z{i} : int -> int = \"ml_z{i}\"\n"));
        c.push_str(&format!("value ml_z{i}(value n) {{ return Val_int(Int_val(n) + {i}); }}\n"));
    }
    std::fs::write(dir.join("lib.ml"), ml).unwrap();
    std::fs::write(dir.join("glue.c"), c).unwrap();

    let (output, mut events) =
        traced_sweep(&root, &SweepConfig { jobs: 1, ..SweepConfig::default() });
    assert_eq!(output.stats.libraries_failed, 0);
    events.retain(|e| e.name == "sweep.library");
    events.sort_by_key(|e| e.start_us);
    let order: Vec<&str> = events.iter().filter_map(|e| e.arg("library")).collect();
    assert_eq!(order, ["zulu", "alpha", "bravo", "charlie"], "largest first, ties by name");
}

/// `stats.seconds` is what a caller of `analyze` waits: it starts before
/// parsing and ends after the last stage, so the request's own span may
/// exceed it by no more than a millisecond of span bookkeeping.
#[test]
fn analysis_seconds_cover_the_whole_analyze_span() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = benchmark_corpus(&ffisafe::bench::runner::scaling_benchmark(6000));
    let service = AnalysisService::new();
    drain_spans();
    set_tracing(true);
    let report = {
        // Other tests may analyze concurrently: this thread's marker
        // picks out its own `service.analyze` span.
        let _marker = telemetry::span("test.caller");
        service.analyze(&AnalysisRequest::new(corpus)).unwrap()
    };
    set_tracing(false);
    let events = drain_spans();
    let marker = events.iter().find(|e| e.name == "test.caller").expect("marker span");
    let span = events
        .iter()
        .find(|e| e.name == "service.analyze" && e.tid == marker.tid)
        .expect("the request's span");
    let seconds_us = report.stats.seconds * 1e6;
    assert!(
        span.dur_us as f64 <= seconds_us + 1_000.0,
        "service.analyze took {} µs, stats.seconds reads {seconds_us:.0} µs",
        span.dur_us
    );
}

#[test]
fn sweep_report_bytes_are_identical_with_tracing_on_and_off() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = build_tree("inert");
    let config = SweepConfig { shards: 2, jobs: 2, ..SweepConfig::default() };
    let untraced = run_sweep(&root, &config);
    let (traced, events) = traced_sweep(&root, &config);
    assert!(!events.is_empty(), "traced run must record spans");
    assert_eq!(
        untraced.report.to_json(),
        traced.report.to_json(),
        "tracing changed the sweep JSON"
    );
    assert_eq!(
        untraced.report.render(),
        traced.report.render(),
        "tracing changed the sweep text report"
    );
}

#[test]
fn metrics_registry_agrees_with_the_sweep_json_cache_numbers() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = build_tree("metrics");
    let config = SweepConfig {
        shards: 2,
        jobs: 2,
        cache_dir: Some(root.join(".cache")),
        ..SweepConfig::default()
    };
    let output = run_sweep(&root, &config);
    let mut registry = MetricsRegistry::new();
    output.feed_metrics(&mut registry);

    // The registry's sweep counters are fed from the same MapStats the
    // sweep reports, so they must agree exactly.
    assert_eq!(
        registry.counter("ffisafe_sweep_cache_fn_hits_total", &[]),
        Some(output.stats.cache_fn_hits as u64)
    );
    assert_eq!(
        registry.counter("ffisafe_sweep_cache_fn_misses_total", &[]),
        Some(output.stats.cache_fn_misses as u64)
    );

    // And the store-occupancy gauges must equal what the sweep JSON
    // itself publishes under `cache_store`.
    let doc = json::parse(&output.report.to_json()).expect("sweep JSON parses");
    let store = doc.get("cache_store").expect("sweep used a cache dir");
    assert_eq!(
        registry.gauge("ffisafe_cache_store_entries", &[]),
        store.get("entries").and_then(Json::as_u64).map(|v| v as f64)
    );
    assert_eq!(
        registry.gauge("ffisafe_cache_store_live_bytes", &[]),
        store.get("live_bytes").and_then(Json::as_u64).map(|v| v as f64)
    );

    // The Prometheus rendering carries the same counters.
    let prom = registry.to_prometheus();
    assert!(prom.contains(&format!(
        "ffisafe_sweep_cache_fn_misses_total {}",
        output.stats.cache_fn_misses
    )));
    assert!(prom.contains("# TYPE ffisafe_sweep_cache_fn_misses_total counter"));

    // Leave the global sink clean for whichever test runs next.
    let _ = telemetry::drain_spans();
}

// ---- the resident daemon ------------------------------------------------

/// Spawns an in-process daemon over a fresh cache dir and runs `requests`
/// wire analyses against it; returns the per-request outcomes and the
/// daemon's final metrics text.
fn serve_requests(
    tag: &str,
    requests: &[(&str, bool)],
) -> (Vec<ffisafe::serve::AnalyzeOutcome>, String) {
    use ffisafe::{AnalysisOptions, CacheMode, Corpus};
    let cache =
        std::env::temp_dir().join(format!("ffisafe-telemetry-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let config = ffisafe::ServeConfig {
        service: ffisafe::ServiceConfig { cache_dir: Some(cache.clone()), ..Default::default() },
        ..Default::default()
    };
    let addr = ffisafe::AnalysisServer::bind("127.0.0.1:0", config).unwrap().spawn().unwrap();
    let mut client = ffisafe::ServeClient::connect(&format!("tcp://{addr}")).unwrap();
    let mut outcomes = Vec::new();
    for (name, bypass) in requests {
        let corpus = Corpus::builder()
            .ml_source("lib.ml", format!("external f : int -> int = \"{name}\"\n"))
            .c_source(
                "glue.c",
                format!("value {name}(value n) {{ return Val_int(Int_val(n) + 1); }}\n"),
            )
            .build();
        let mode = if *bypass { CacheMode::Bypass } else { CacheMode::Shared };
        match client.analyze(&corpus, AnalysisOptions::default(), mode).unwrap() {
            ffisafe::serve::Reply::Analyze(outcome) => outcomes.push(*outcome),
            other => panic!("daemon replied {other:?}"),
        }
    }
    let metrics = client.metrics().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
    (outcomes, metrics)
}

#[test]
fn daemon_requests_record_the_server_span_family() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = drain_spans(); // start from a clean sink
    set_tracing(true);
    let (outcomes, _) = serve_requests(
        "spans",
        &[("ml_span_a", false), ("ml_span_a", false), ("ml_span_b", false)],
    );
    set_tracing(false);
    let events = drain_spans();
    assert_eq!(outcomes.len(), 3);

    assert_eq!(count(&events, "server.hello"), 1, "one handshake span per session");
    assert_eq!(count(&events, "server.request"), 3, "one span per analyze request");
    assert_eq!(nesting_violations(&events), 0, "daemon spans must nest within each thread");

    // The request span carries the schema-documented outcome args, which
    // must agree with the wire reply for the same request.
    let warm_spans: Vec<_> = events
        .iter()
        .filter(|e| e.name == "server.request" && e.arg("report_hit") == Some("true"))
        .collect();
    assert_eq!(warm_spans.len(), 1, "exactly the resubmission replays from the report tier");
    assert_eq!(warm_spans[0].arg("workers_executed"), Some("0"));

    // The Chrome export stays parseable with the server family included.
    let doc = json::parse(&chrome_trace_json(&events)).expect("trace JSON parses");
    assert_eq!(doc.as_array().map(<[_]>::len), Some(events.len()));
}

#[test]
fn daemon_metrics_agree_with_the_per_request_outcomes() {
    let _guard = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (outcomes, metrics) = serve_requests(
        "agree",
        &[("ml_m_a", false), ("ml_m_b", false), ("ml_m_a", false), ("ml_m_c", true)],
    );
    assert_eq!(outcomes.len(), 4);

    // Scrape one counter value out of the Prometheus text.
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from:\n{metrics}"))
            .trim()
            .parse()
            .expect("counter value parses")
    };

    let workers: u64 = outcomes.iter().map(|o| o.workers_executed).sum();
    let hits: u64 = outcomes.iter().filter(|o| o.report_hit).count() as u64;
    assert!(workers > 0, "cold requests must execute workers");
    assert_eq!(hits, 1, "exactly the ml_m_a resubmission hits the report tier");

    assert_eq!(counter("ffisafe_server_requests_total"), outcomes.len() as u64);
    assert_eq!(counter("ffisafe_server_workers_executed_total"), workers);
    assert_eq!(counter("ffisafe_server_report_hits_total"), hits);
    assert_eq!(counter("ffisafe_server_sessions_opened_total"), 1);
    assert_eq!(counter("ffisafe_server_busy_total"), 0);
    assert_eq!(counter("ffisafe_server_request_seconds_count"), outcomes.len() as u64);

    // Leave the global sink clean for whichever test runs next.
    let _ = telemetry::drain_spans();
}

// ---- tier-1 replay accounting ---------------------------------------------

/// What [`tier1_metrics`] overwrites between its two runs.
#[derive(Clone, Copy, PartialEq)]
enum Sabotage {
    /// Nothing.
    None,
    /// Every record's payload in the pack, and the Rust check's entry.
    Records,
    /// Every tier-1 entry whole, so the pack does not parse either.
    Entries,
}

/// Analyzes `before` into a fresh store, optionally makes its tier-1
/// payloads undecodable, then analyzes `after` through a new service on
/// that store. Returns the second run's metrics: the store's own counters
/// next to the report's.
fn tier1_metrics(
    tag: &str,
    before: &Corpus,
    after: &Corpus,
    sabotage: Sabotage,
) -> MetricsRegistry {
    let dir = std::env::temp_dir().join(format!("ffisafe-tier1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let analyze = |corpus: &Corpus| {
        let service = AnalysisService::with_cache_dir(&dir).expect("temp cache dir opens");
        let report = service.analyze(&AnalysisRequest::new(corpus.clone())).unwrap();
        (service, report)
    };
    drop(analyze(before));
    if sabotage != Sabotage::None {
        const GARBAGE: &[u8] = b"not an outcome";
        let store = CacheStore::open(&dir, &analyzer_cache_version()).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let hex = name.strip_prefix("fn-").and_then(|n| n.strip_suffix(".bin"));
            let Some(fp) = hex.and_then(Fingerprint::parse_hex) else { continue };
            let bytes = store.get(Tier::Function, fp).expect("entry written by the first run");
            let payload = match cache::decode_pack(&bytes) {
                Some(records) if sabotage == Sabotage::Records => {
                    cache::encode_pack(records.iter().map(|&(fp, _)| (fp, GARBAGE)))
                }
                _ => GARBAGE.to_vec(),
            };
            store.put(Tier::Function, fp, &payload).unwrap();
        }
    }
    let (service, report) = analyze(after);
    let mut registry = MetricsRegistry::new();
    service.cache_stats().expect("cached service").feed_metrics(&mut registry);
    report.feed_metrics(&mut registry);
    let _ = std::fs::remove_dir_all(&dir);
    registry
}

/// Every tier-1 record a run finds is either replayed — a function
/// outcome from the pack, or the Rust boundary check — or counted as a
/// rejected decode. A rejection must never again be invisible.
#[test]
fn every_tier1_store_hit_is_replayed_or_counted_as_rejected() {
    let counter = |reg: &MetricsRegistry, name: &str| {
        reg.counter(name, &[]).unwrap_or_else(|| panic!("{name} missing"))
    };
    // After an edit that moves no span, the store holds one pack with a
    // record per function, plus the Rust check's entry when there is
    // one: each function and the check are replayed or rejected.
    let conforms = |reg: &MetricsRegistry, rust_checks: u64| {
        let functions = reg.gauge("ffisafe_c_functions", &[]).expect("function gauge") as u64;
        assert_eq!(counter(reg, "ffisafe_cache_store_fn_hits_total"), 1 + rust_checks);
        assert_eq!(
            functions + rust_checks,
            counter(reg, "ffisafe_cache_fn_hits_total")
                + counter(reg, "ffisafe_frontend_rust_check_cache_hits_total")
                + counter(reg, "ffisafe_cache_fn_rejected_total")
        );
        functions
    };
    let trailing = |corpus: &Corpus| {
        let mut b = Corpus::builder();
        for f in corpus.files() {
            b = match f.kind() {
                SourceKind::Ml => b.ml_source(f.name(), f.src()),
                SourceKind::C => b.c_source(f.name(), format!("{}/* trailing */\n", f.src())),
                SourceKind::Rust => b.rust_source(f.name(), f.src()),
            };
        }
        b.build()
    };

    // A trailing comment on cryptokit's glue moves no span: one store hit
    // (the pack) replays all 269 functions, and none is rejected.
    let specs = paper_benchmarks();
    let spec = specs.iter().find(|s| s.name == "cryptokit-1.2").unwrap();
    let cryptokit = benchmark_corpus(&generate(spec));
    let reg = tier1_metrics("cryptokit", &cryptokit, &trailing(&cryptokit), Sabotage::None);
    assert_eq!(conforms(&reg, 0), 269);
    assert_eq!(counter(&reg, "ffisafe_cache_fn_hits_total"), 269);
    assert_eq!(counter(&reg, "ffisafe_cache_fn_rejected_total"), 0);
    assert_eq!(counter(&reg, "ffisafe_workers_executed_total"), 0);

    // With a `.rs` file the boundary check is one more tier-1 get.
    let meshgrid = Corpus::from_dir(Path::new("examples/corpora/meshgrid")).unwrap();
    let reg = tier1_metrics("meshgrid", &meshgrid, &trailing(&meshgrid), Sabotage::None);
    conforms(&reg, 1);
    assert_eq!(counter(&reg, "ffisafe_frontend_rust_check_cache_hits_total"), 1);
    assert_eq!(counter(&reg, "ffisafe_cache_fn_rejected_total"), 0);

    // Payloads no decoder accepts are found and all count as rejected:
    // every function's record in the pack, and the Rust check.
    let reg = tier1_metrics("records", &meshgrid, &trailing(&meshgrid), Sabotage::Records);
    let functions = conforms(&reg, 1);
    assert!(functions > 0);
    assert_eq!(counter(&reg, "ffisafe_cache_fn_hits_total"), 0);
    assert_eq!(counter(&reg, "ffisafe_frontend_rust_check_cache_hits_total"), 0);
    assert_eq!(counter(&reg, "ffisafe_cache_fn_rejected_total"), functions + 1);
    assert_eq!(counter(&reg, "ffisafe_workers_executed_total"), functions);

    // A pack that does not parse is one rejection, and every function
    // runs.
    let reg = tier1_metrics("entries", &meshgrid, &trailing(&meshgrid), Sabotage::Entries);
    assert_eq!(counter(&reg, "ffisafe_cache_store_fn_hits_total"), 2);
    assert_eq!(counter(&reg, "ffisafe_cache_fn_hits_total"), 0);
    assert_eq!(counter(&reg, "ffisafe_cache_fn_rejected_total"), 2, "the pack and the check");
    assert_eq!(counter(&reg, "ffisafe_workers_executed_total"), functions);
}
