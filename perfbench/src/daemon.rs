//! The daemon workloads, `edit-loop` and `warm-burst`: closed-loop clients
//! driving an in-process `ffisafe serve` daemon over the serve protocol.
//!
//! Each client sends its next request only after the previous reply is
//! decoded. A request's latency runs from the first request byte written
//! to the reply decoded; encoding the request happens before the clock
//! starts, scoring the verdict after it stops.

use crate::inputs::{editable_lines, figure9_job, mix, permutation, spec, variant_job, Job};
use crate::replay::{check_parity, interner_seed, replay, PathTaken};
use crate::score::{check, parse_rendered, self_test};
use crate::stats::{latency_ms, median, peak_rss_mb, reset_peak_rss, CpuTicks};
use crate::trace::{layer_metrics, self_time_table, Layers, Recorder, TimedBackend};
use crate::{report_failures, Outcome, Workload};
use ffisafe_bench::corpus::{generate, Benchmark};
use ffisafe_bench::spec::BenchSpec;
use ffisafe_cache::{CacheBackend, CacheStore};
use ffisafe_core::pipeline::cache::analyzer_cache_version;
use ffisafe_core::{
    available_cores, fair_share_jobs, AnalysisOptions, AnalysisRequest, AnalysisService, CacheMode,
    Corpus, ServiceConfig,
};
use ffisafe_serve::protocol::{read_frame, write_frame};
use ffisafe_serve::{
    AnalysisServer, AnalyzeOutcome, Reply, Request, ServeConfig, ANALYZER_VERSION,
    SERVE_PROTOCOL_VERSION,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The nine Figure 9 libraries `warm-burst` draws from. lablgtk is left
/// out because its 737 KB request takes ≈15 s to decode today, past any run
/// budget. ocaml-mad, the smallest, is left out so that `verdict_p50_ms`
/// does not sit on a gap between two libraries' latencies: with ten
/// libraries drawn uniformly the median fell between gz's hits (≈19 ms)
/// and camlzip's (≈34 ms) and jumped between them from run to run.
const BURST_LIBRARIES: [&str; 9] = [
    "apm-1.00",
    "camlzip-1.01",
    "ocaml-ssl-0.1.0",
    "ocaml-glpk-0.1.1",
    "gz-0.5.5",
    "ocaml-vorbis-0.1.1",
    "ftplib-0.12",
    "lablgl-1.00",
    "cryptokit-1.2",
];

/// Where a workload's requests come from.
enum Source {
    /// ftplib with one seeded statement edit per request.
    Edit { bench: Benchmark, lines: Vec<usize> },
    /// A uniform draw over the warmed libraries; one in five is a fresh
    /// variant that misses the report tier.
    Burst { specs: Vec<BenchSpec>, paper: Vec<Job> },
}

struct Plan {
    clients: usize,
    warmup: Vec<Job>,
    source: Source,
}

impl Plan {
    fn new(workload: Workload) -> Plan {
        match workload {
            Workload::EditLoop => {
                let spec = spec("ftplib-0.12");
                let bench = generate(&spec);
                let lines = editable_lines(&bench);
                Plan {
                    clients: 1,
                    warmup: vec![figure9_job(&spec)],
                    source: Source::Edit { bench, lines },
                }
            }
            Workload::WarmBurst => {
                let specs: Vec<BenchSpec> = BURST_LIBRARIES.iter().map(|n| spec(n)).collect();
                let paper: Vec<Job> = specs.iter().map(figure9_job).collect();
                Plan { clients: 2, warmup: paper.clone(), source: Source::Burst { specs, paper } }
            }
            Workload::ColdSweep => unreachable!("cold-sweep has no daemon"),
        }
    }

    /// Request `index` of `client`: a pure function of the seed.
    fn job(&self, seed: u64, client: usize, index: u64) -> Job {
        match &self.source {
            Source::Edit { bench, lines } => crate::inputs::edit_job(bench, lines, seed, index),
            Source::Burst { specs, paper } => {
                // Stratified draws: within each block of nine requests every
                // library comes once, in shuffled order, and one or two of
                // them are variants; over a cycle of five blocks every
                // library is a variant once. Each run's mix is thus exactly
                // the stated one (uniform, four in five unchanged), so runs
                // differ by the system's behaviour, not the dice's.
                let n = specs.len() as u64;
                let (cycle, block, pos) = (index / (5 * n), (index / n) % 5, index % n);
                let cycle_seed = mix(seed, 2 + client as u64, cycle);
                let variants = permutation(specs.len(), cycle_seed);
                let order = permutation(specs.len(), mix(cycle_seed, 1, block));
                let pick = order[pos as usize];
                let block = block as usize;
                let (lo, hi) = (specs.len() * block / 5, specs.len() * (block + 1) / 5);
                if variants[lo..hi].contains(&pick) {
                    variant_job(&specs[pick], mix(cycle_seed, 2, index))
                } else {
                    paper[pick].clone()
                }
            }
        }
    }
}

fn encode(job: &Job) -> String {
    Request::analyze(&job.corpus, AnalysisOptions::default(), CacheMode::Shared).to_json()
}

/// One protocol connection, handshake done.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let hello = Request::Hello {
            protocol: SERVE_PROTOCOL_VERSION,
            analyzer: ANALYZER_VERSION.to_string(),
        };
        write_frame(&mut stream, hello.to_json().as_bytes())?;
        match Reply::parse(&read_frame(&mut stream)?) {
            Ok(Reply::HelloOk { .. }) => Ok(Conn { stream }),
            other => Err(io::Error::other(format!("handshake refused: {other:?}"))),
        }
    }

    /// Sends one encoded request and decodes the reply; the returned time
    /// covers exactly that.
    fn round_trip(&mut self, body: &[u8]) -> (io::Result<Reply>, Duration) {
        let start = Instant::now();
        let reply = write_frame(&mut self.stream, body)
            .and_then(|()| read_frame(&mut self.stream))
            .and_then(|bytes| Reply::parse(&bytes).map_err(io::Error::other));
        (reply, start.elapsed())
    }
}

/// Scores a daemon reply against the job's known answer from its
/// `rendered_stable` lines.
fn judge(reply: &io::Result<Reply>, job: &Job) -> Result<(), String> {
    match reply {
        Ok(Reply::Analyze(outcome)) => {
            check(&job.expect, &parse_rendered(&outcome.rendered_stable)?)
        }
        Ok(Reply::Busy { running, queued }) => {
            Err(format!("BUSY (running {running}, queued {queued})"))
        }
        Ok(Reply::Error { message }) => Err(format!("error reply: {message}")),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(format!("transport: {e}")),
    }
}

fn start_daemon(store: &Path) -> io::Result<SocketAddr> {
    let config = ServeConfig {
        service: ServiceConfig { cache_dir: Some(store.to_path_buf()), ..ServiceConfig::default() },
        ..ServeConfig::default()
    };
    AnalysisServer::bind("127.0.0.1:0", config)?.spawn()
}

/// A daemon with its clients connected and the warm-up submitted.
struct Setup {
    conns: Vec<Conn>,
    addr: SocketAddr,
    seconds: f64,
}

/// Binds and spawns a daemon over a fresh store, connects every client
/// (HELLO) and submits the warm-up corpora through the first. Every
/// warm-up verdict is scored; the first also runs the scorer self-test.
fn set_up(plan: &Plan, store: &Path, problems: &mut Vec<String>) -> io::Result<Setup> {
    let start = Instant::now();
    let addr = start_daemon(store)?;
    let mut conns = (0..plan.clients).map(|_| Conn::open(addr)).collect::<io::Result<Vec<_>>>()?;
    let mut replies = Vec::new();
    for job in &plan.warmup {
        let (reply, _) = conns[0].round_trip(encode(job).as_bytes());
        replies.push(reply);
    }
    let seconds = start.elapsed().as_secs_f64();
    for (job, reply) in plan.warmup.iter().zip(&replies) {
        if let Err(e) = judge(reply, job) {
            problems.push(format!("warm-up {}: {e}", job.label));
        }
    }
    if let Some(Ok(Reply::Analyze(outcome))) = replies.first() {
        let findings = parse_rendered(&outcome.rendered_stable).unwrap_or_default();
        if let Err(e) = self_test(&plan.warmup[0].expect, &findings) {
            problems.push(format!("scorer self-test: {e}"));
        }
    }
    Ok(Setup { conns, addr, seconds })
}

/// What the clients of one closed-loop phase saw.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    busy: u64,
    lines_ok: u64,
    /// Per request, in ms; a failed request counts as infinitely late.
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    wall_seconds: f64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.lines_ok += other.lines_ok;
        self.latencies_ms.extend(other.latencies_ms);
        self.failures.extend(other.failures);
    }

    fn latency_ms(&self, q: f64) -> f64 {
        latency_ms(&self.latencies_ms, q, self.wall_seconds)
    }
}

/// Runs every client's closed loop until `seconds` have passed.
fn closed_loop(plan: &Plan, seed: u64, setup: Setup, seconds: f64) -> Tally {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = setup.addr;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .conns
            .into_iter()
            .enumerate()
            .map(|(client, mut conn)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut index = 0u64;
                    while Instant::now() < deadline {
                        let job = plan.job(seed, client, index);
                        let body = encode(&job);
                        let (reply, elapsed) = conn.round_trip(body.as_bytes());
                        tally.attempted += 1;
                        match judge(&reply, &job) {
                            Ok(()) => {
                                tally.lines_ok += job.lines() as u64;
                                tally.latencies_ms.push(elapsed.as_secs_f64() * 1000.0);
                            }
                            Err(e) => {
                                tally.failed += 1;
                                tally.busy += u64::from(matches!(reply, Ok(Reply::Busy { .. })));
                                tally.latencies_ms.push(f64::INFINITY);
                                tally.failures.push(format!(
                                    "seed {seed} client {client} request {index} ({}): {e}",
                                    job.label
                                ));
                                if reply.is_err() {
                                    // The stream may be torn mid-frame: dial again.
                                    match Conn::open(addr) {
                                        Ok(fresh) => conn = fresh,
                                        Err(_) => break,
                                    }
                                }
                            }
                        }
                        index += 1;
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let mut total = Tally { wall_seconds: start.elapsed().as_secs_f64(), ..Tally::default() };
    for t in tallies {
        total.merge(t);
    }
    total
}

/// The untraced run: end-to-end metrics. `peak_rss_mb` covers the first
/// set-up and the measured phase; the other set-ups come after it.
pub fn run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let plan = Plan::new(workload);
    let mut problems = Vec::new();
    reset_peak_rss();
    let setup = set_up(&plan, &work.join("store-0"), &mut problems)?;
    let mut setup_seconds = vec![setup.seconds];
    let ticks = CpuTicks::now();
    let tally = closed_loop(&plan, seed, setup, seconds);
    let steal = CpuTicks::now().steal_share_since(ticks);
    let rss_mb = peak_rss_mb();
    for k in 1..workload.setup_repeats() {
        let again = set_up(&plan, &work.join(format!("store-{k}")), &mut problems)?;
        setup_seconds.push(again.seconds);
    }
    report_failures(&tally.failures);
    eprintln!(
        "{}: {} request(s), {} failed, p50 {:.1} ms / p90 {:.1} ms over {} sample(s); \
         set-ups {:.3?} s; host steal {:.1} %",
        workload.name(),
        tally.attempted,
        tally.failed,
        tally.latency_ms(0.5),
        tally.latency_ms(0.9),
        tally.latencies_ms.len(),
        setup_seconds,
        steal * 100.0
    );
    Ok(Outcome {
        correct: problems.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        metrics: vec![
            ("setup_s", median(&setup_seconds), "s"),
            ("verdict_p50_ms", tally.latency_ms(0.5), "ms"),
            ("verdict_p90_ms", tally.latency_ms(0.9), "ms"),
            ("kloc_per_s", tally.lines_ok as f64 / 1000.0 / tally.wall_seconds, "kLoC/s"),
            ("peak_rss_mb", rss_mb, "MiB"),
        ],
    })
}

/// The in-process rebuild of the daemon's request path, plus the stage
/// replay against a twin store.
struct Rebuild {
    rec: Arc<Recorder>,
    service: AnalysisService,
    twin: Arc<dyn CacheBackend>,
    seed: ffisafe_support::Interner,
}

impl Rebuild {
    fn new(work: &Path) -> io::Result<Rebuild> {
        let rec = Arc::new(Recorder::new());
        let service = AnalysisService::with_cache_dir(work.join("rebuild-service"))
            .map_err(|e| io::Error::other(e.to_string()))?;
        let store = CacheStore::open(&work.join("rebuild-twin"), &analyzer_cache_version())?;
        let twin: Arc<dyn CacheBackend> = Arc::new(TimedBackend::new(Arc::new(store), rec.clone()));
        Ok(Rebuild { rec, service, twin, seed: interner_seed() })
    }

    /// One request through the public calls the client and the daemon
    /// make, then the stage replay. `Err` is a verdict or parity failure.
    fn request(&self, id: u64, job: &Job) -> Result<(), String> {
        let rec = &self.rec;
        rec.set_request(id);
        let body = rec.span("serve.request_encode", || encode(job));
        rec.add("serve.request_bytes", body.len() as f64);
        let (reply, request, report) = rec.span("verdict", || {
            let Ok(Request::Analyze { bypass, mut options, files }) =
                rec.span("serve.request_decode", || Request::parse(body.as_bytes()))
            else {
                return Err("the request did not decode as ANALYZE".to_string());
            };
            let corpus = rec.span("core.corpus_build", || {
                let mut builder = Corpus::builder();
                for (name, src) in files {
                    builder = builder.source(name, src).map_err(|e| e.to_string())?;
                }
                Ok::<_, String>(builder.build())
            })?;
            // The daemon's fair share for one request in flight.
            options.jobs = fair_share_jobs(available_cores(), 1);
            let mode = if bypass { CacheMode::Bypass } else { CacheMode::Shared };
            let request = AnalysisRequest::new(corpus).options(options).cache_mode(mode);
            let report = rec
                .span("core.analyze", || self.service.analyze(&request))
                .map_err(|e| e.to_string())?;
            let outcome = rec.span("core.render", || AnalyzeOutcome {
                errors: report.error_count() as u64,
                warnings: report.warning_count() as u64,
                workers_executed: report.stats.workers_executed as u64,
                report_hit: report.stats.cache_report_hit,
                jobs: options.jobs as u64,
                rendered: report.render(),
                rendered_stable: report.render_stable(),
                report_json: report.to_json(),
            });
            let wire =
                rec.span("serve.reply_encode", || Reply::Analyze(Box::new(outcome)).to_json());
            rec.add("serve.reply_bytes", wire.len() as f64);
            let reply = rec
                .span("serve.reply_decode", || Reply::parse(wire.as_bytes()))
                .map_err(|e| format!("reply did not decode: {e}"))?;
            Ok((reply, request, report))
        })?;
        let replayed = rec.span("replay", || {
            replay(
                rec,
                &self.seed,
                self.twin.clone(),
                request.corpus(),
                *request.analysis_options(),
                Some(&report),
            )
        });
        check_parity(&PathTaken::of_report(&report), &replayed)?;
        judge(&Ok(reply), job)
    }
}

/// The traced run: per-layer metrics. The first half of the time runs the
/// untraced closed loop (for `trace.gap_ms` and `serve.busy_count`); the
/// second half replays the same request sequence through the in-process
/// rebuild with spans on.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let plan = Plan::new(workload);
    let mut problems = Vec::new();
    let setup = set_up(&plan, &work.join("store"), &mut problems)?;
    let rebuild = Rebuild::new(work)?;
    for (i, job) in plan.warmup.iter().enumerate() {
        if let Err(e) = rebuild.request(u64::MAX - i as u64, job) {
            problems.push(format!("rebuild warm-up {}: {e}", job.label));
        }
    }

    let untraced = closed_loop(&plan, seed, setup, seconds / 2.0);
    report_failures(&untraced.failures);

    rebuild.rec.set_enabled(true);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut index = 0u64;
    'outer: loop {
        for client in 0..plan.clients {
            if Instant::now() >= deadline {
                break 'outer;
            }
            let id = index * plan.clients as u64 + client as u64;
            let job = plan.job(seed, client, index);
            attempted += 1;
            if let Err(e) = rebuild.request(id, &job) {
                failed += 1;
                problems.push(format!(
                    "seed {seed} client {client} request {index} ({}) traced: {e}",
                    job.label
                ));
            }
        }
        index += 1;
    }
    rebuild.rec.set_enabled(false);

    let layers = Layers::of(&rebuild.rec);
    let gap_ms = untraced.latency_ms(0.5) - layers.ms("verdict");
    let table = self_time_table(workload.name(), &rebuild.rec, &layers, gap_ms);
    crate::write_trace_outputs(workload, seed, &layers, &table, &mut problems);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        problems,
        metrics: layer_metrics(&rebuild.rec, &layers, untraced.busy, gap_ms, failed_frac),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_draws_are_uniform_with_one_variant_per_library_per_cycle() {
        let plan = Plan::new(Workload::WarmBurst);
        let n = BURST_LIBRARIES.len();
        for client in 0..2 {
            let mut seen: std::collections::BTreeMap<String, (usize, usize)> = Default::default();
            for index in 0..(5 * n) as u64 {
                let job = plan.job(7, client, index);
                let name = job.label.split(' ').next().expect("labels start with the library");
                let counts = seen.entry(name.to_string()).or_default();
                counts.0 += 1;
                counts.1 += usize::from(job.label.contains(" variant "));
            }
            assert_eq!(seen.len(), n, "{seen:?}");
            assert!(
                seen.values().all(|&(draws, variants)| draws == 5 && variants == 1),
                "{seen:?}"
            );
        }
    }
}
