//! End-to-end: a daemon serving concurrent clients must be
//! indistinguishable from local analysis, a warm resubmission must
//! execute zero inference workers, and a watching daemon must stream an
//! edit and its revert to subscribers.

use ffisafe_core::{
    AnalysisOptions, AnalysisRequest, AnalysisService, CacheMode, Corpus, ServiceConfig,
};
use ffisafe_serve::{AnalysisServer, Reply, ServeClient, ServeConfig, WatchEvent};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ffisafe-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus(tag: &str, buggy: bool) -> Corpus {
    let ret = if buggy { "Val_int(n)" } else { "Val_int(Int_val(n) + 1)" };
    Corpus::builder()
        .ml_source(format!("{tag}.ml"), format!("external f : int -> int = \"{tag}_f\"\n"))
        .c_source(format!("{tag}_stubs.c"), format!("value {tag}_f(value n) {{ return {ret}; }}\n"))
        .build()
}

fn spawn_daemon(cache_dir: &std::path::Path) -> SocketAddr {
    let config = ServeConfig {
        service: ServiceConfig { cache_dir: Some(cache_dir.to_path_buf()), ..Default::default() },
        ..Default::default()
    };
    AnalysisServer::bind("127.0.0.1:0", config).unwrap().spawn().unwrap()
}

fn analyze_ok(client: &mut ServeClient, corpus: &Corpus) -> ffisafe_serve::AnalyzeOutcome {
    match client.analyze(corpus, AnalysisOptions::default(), CacheMode::Shared).unwrap() {
        Reply::Analyze(outcome) => *outcome,
        other => panic!("expected analyze reply, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_match_local_analysis_byte_for_byte() {
    let cache = temp_dir("shared");
    let addr = spawn_daemon(&cache);
    let url = format!("tcp://{addr}");

    // Two clients, two different corpora, concurrently.
    let handles: Vec<_> = [("alpha", false), ("beta", true)]
        .into_iter()
        .map(|(tag, buggy)| {
            let url = url.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&url).unwrap();
                (tag, buggy, analyze_ok(&mut client, &corpus(tag, buggy)))
            })
        })
        .collect();

    // Local reference runs use their own cold cache so the cache counters
    // inside the JSON report agree with the daemon's first sight of each
    // corpus.
    let local_cache = temp_dir("local");
    let local = AnalysisService::with_config(ServiceConfig {
        cache_dir: Some(local_cache.clone()),
        ..Default::default()
    })
    .unwrap();
    for handle in handles {
        let (tag, buggy, outcome) = handle.join().unwrap();
        let report = local.analyze(&AnalysisRequest::new(corpus(tag, buggy))).unwrap();
        assert_eq!(
            outcome.rendered_stable,
            report.render_stable(),
            "daemon and local reports must be byte-identical for {tag}"
        );
        assert_eq!(outcome.errors, report.error_count() as u64);
        assert_eq!(buggy, outcome.errors > 0, "{tag} report:\n{}", outcome.rendered);
    }
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&local_cache);
}

#[test]
fn warm_resubmission_executes_zero_workers() {
    let cache = temp_dir("warm");
    let addr = spawn_daemon(&cache);
    let mut client = ServeClient::connect(&format!("tcp://{addr}")).unwrap();
    let corpus = corpus("gamma", false);

    let cold = analyze_ok(&mut client, &corpus);
    assert!(!cold.report_hit, "first submission must be a cache miss");
    assert!(cold.workers_executed > 0, "cold run must execute workers");

    // Same corpus again — even from a brand-new connection.
    let mut second = ServeClient::connect(&format!("tcp://{addr}")).unwrap();
    let warm = analyze_ok(&mut second, &corpus);
    assert!(warm.report_hit, "resubmission must replay the tier-2 report");
    assert_eq!(warm.workers_executed, 0, "warm resubmission must execute zero workers");
    assert_eq!(warm.rendered_stable, cold.rendered_stable, "warm replay must be byte-identical");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn bypass_requests_skip_the_cache() {
    let cache = temp_dir("bypass");
    let addr = spawn_daemon(&cache);
    let mut client = ServeClient::connect(&format!("tcp://{addr}")).unwrap();
    let corpus = corpus("delta", false);

    let first = analyze_ok(&mut client, &corpus);
    assert!(first.workers_executed > 0);
    let again = match client.analyze(&corpus, AnalysisOptions::default(), CacheMode::Bypass) {
        Ok(Reply::Analyze(outcome)) => *outcome,
        other => panic!("expected analyze reply, got {other:?}"),
    };
    assert!(!again.report_hit, "bypass must not read the report cache");
    assert!(again.workers_executed > 0, "bypass must re-execute workers");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn metrics_op_reports_request_counters() {
    let cache = temp_dir("metrics");
    let addr = spawn_daemon(&cache);
    let mut client = ServeClient::connect(&format!("tcp://{addr}")).unwrap();
    let _ = analyze_ok(&mut client, &corpus("epsilon", false));
    let text = client.metrics().unwrap();
    assert!(text.contains("ffisafe_server_requests_total 1"), "metrics:\n{text}");
    assert!(text.contains("ffisafe_server_sessions_opened_total 1"), "metrics:\n{text}");
    assert!(text.contains("ffisafe_server_request_seconds_count 1"), "metrics:\n{text}");
    let _ = std::fs::remove_dir_all(&cache);
}

/// How long a watch test waits for the daemon before it fails.
const WATCH_DEADLINE: Duration = Duration::from_secs(30);

/// The value of an unlabeled metric in a Prometheus scrape.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in the scrape:\n{text}"))
}

/// Receives events until one satisfies `want`; panics at the deadline.
fn await_event(
    events: &mpsc::Receiver<WatchEvent>,
    what: &str,
    want: impl Fn(&WatchEvent) -> bool,
) {
    let deadline = Instant::now() + WATCH_DEADLINE;
    loop {
        match events.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(event) if want(&event) => return,
            Ok(_) => {}
            Err(e) => panic!("no watch event with {what}: {e}"),
        }
    }
}

/// Replaces `path` in one rename, so the watcher never reads half a file.
fn write_atomically(path: &std::path::Path, text: &str) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

#[test]
fn watch_mode_streams_an_edit_and_its_revert() {
    let cache = temp_dir("watch-cache");
    let tree = temp_dir("watch-tree");
    let glue = tree.join("glue.c");
    let clean = "value ml_f(value n) { return Val_int(Int_val(n) + 1); }\n";
    std::fs::write(tree.join("lib.ml"), "external f : int -> int = \"ml_f\"\n").unwrap();
    std::fs::write(&glue, clean).unwrap();
    let config = ServeConfig {
        service: ServiceConfig { cache_dir: Some(cache.clone()), ..Default::default() },
        watch_root: Some(tree.clone()),
        watch_interval: Duration::from_millis(20),
        ..Default::default()
    };
    let url =
        format!("tcp://{}", AnalysisServer::bind("127.0.0.1:0", config).unwrap().spawn().unwrap());

    let (mut subscription, watching) = ServeClient::connect(&url).unwrap().subscribe().unwrap();
    assert!(watching, "a daemon with a watch root must say it is watching");
    let (sender, events) = mpsc::channel();
    std::thread::spawn(move || {
        while let Ok(event) = subscription.next_event() {
            if sender.send(event).is_err() {
                break;
            }
        }
    });

    // Edit only once the clean tree is analyzed (so the revert finds it
    // cached) and the subscriber is registered (so no event is missed).
    let mut scraper = ServeClient::connect(&url).unwrap();
    let deadline = Instant::now() + WATCH_DEADLINE;
    loop {
        let text = scraper.metrics().unwrap();
        if metric(&text, "ffisafe_server_watch_runs_total") >= 1.0
            && metric(&text, "ffisafe_server_watch_subscribers") >= 1.0
        {
            break;
        }
        assert!(Instant::now() < deadline, "no first watch run and subscriber:\n{text}");
        std::thread::sleep(Duration::from_millis(10));
    }

    write_atomically(&glue, "value ml_f(value n) { return Val_int(n); }\n");
    await_event(&events, "errors == 1 after the edit", |e| e.errors == 1 && e.workers_executed > 0);
    write_atomically(&glue, clean);
    await_event(&events, "a cached clean report after the revert", |e| {
        e.errors == 0 && e.workers_executed == 0
    });

    // Without a watch root the daemon answers, but does not watch.
    let plain_cache = temp_dir("watch-none");
    let plain = spawn_daemon(&plain_cache);
    let (_, watching) =
        ServeClient::connect(&format!("tcp://{plain}")).unwrap().subscribe().unwrap();
    assert!(!watching, "a daemon without a watch root must say it is not watching");
    for dir in [cache, tree, plain_cache] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
