//! The pipeline benchmark: wall-clock comparison of the inference stage
//! across worker counts **and across cache temperatures**, emitted as
//! machine-readable `BENCH_pipeline.json` so successive PRs accumulate a
//! perf trajectory.
//!
//! Workloads: every Figure 9 benchmark (the paper's corpus, synthesized)
//! plus a large parametric scaling corpus, each analyzed at `jobs = 1` and
//! `jobs = available parallelism` with caching off, then once *cold*
//! (populating a fresh `--cache-dir`) and once *warm* (replaying it) — the
//! cold/warm delta is the incremental-reanalysis subsystem's headline
//! number.

use crate::corpus::generate;
use crate::runner::scaling_benchmark;
use crate::spec::paper_benchmarks;
use ffisafe_core::{
    AnalysisOptions, AnalysisRequest, AnalysisService, CacheMode, Corpus, ServiceConfig,
};
use ffisafe_shard::{sweep, SweepConfig};
use ffisafe_support::telemetry;
use std::path::Path;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct PipelineMeasurement {
    /// Workload name.
    pub name: String,
    /// Lines of C analyzed.
    pub c_loc: usize,
    /// C functions analyzed.
    pub functions: usize,
    /// Total fixpoint passes.
    pub passes: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Cache temperature: `"off"`, `"cold"` (populating), `"warm"`
    /// (replaying the run before it) or `"mixed"` (the serve-load
    /// harness's interleaved cold/warm client mix).
    pub cache: &'static str,
    /// Wall-clock seconds for the whole analysis.
    pub seconds: f64,
    /// Median per-request latency over a round of the serve-load harness;
    /// 0 for single-run workloads, which have no request distribution.
    pub p50_seconds: f64,
    /// 95th-percentile per-request latency of the serve-load harness;
    /// 0 for single-run workloads.
    pub p95_seconds: f64,
    /// Wall-clock seconds of the inference stage alone.
    pub infer_seconds: f64,
    /// Sum of per-function inference work (jobs-independent; replayed
    /// cache hits contribute zero).
    pub work_seconds: f64,
    /// Portion of `work_seconds` spent building per-worker overlay views
    /// — the former snapshot-clone tax the frozen arena eliminates.
    pub setup_seconds: f64,
    /// Slowest single function — the parallel lower bound (0 where not
    /// measured).
    pub critical_path_seconds: f64,
    /// Functions replayed from the tier-1 cache. Note an unchanged warm
    /// run short-circuits at the report tier *before* tier 1 is
    /// consulted, so this is nonzero only for partially-invalidated runs.
    pub cache_fn_hits: usize,
    /// Whether the whole report came from the tier-2 report cache.
    pub report_hit: bool,
    /// Findings (errors + warnings + imprecision — context notes excluded,
    /// so the trajectory is comparable across note-emission changes;
    /// sanity: must match across jobs and cache temperatures).
    pub diagnostics: usize,
}

/// The full benchmark result.
#[derive(Clone, Debug, Default)]
pub struct PipelineBench {
    /// All measurements, serial and parallel, in workload order.
    pub rows: Vec<PipelineMeasurement>,
}

fn measure(
    name: &str,
    ml: &str,
    c: &str,
    jobs: usize,
    cache: Option<(&Path, &'static str)>,
) -> PipelineMeasurement {
    measure_with_report(name, ml, c, jobs, cache).0
}

/// Like [`measure`], but also returns the rendered report so callers can
/// assert result invariance (the telemetry pair diffs the bytes).
fn measure_with_report(
    name: &str,
    ml: &str,
    c: &str,
    jobs: usize,
    cache: Option<(&Path, &'static str)>,
) -> (PipelineMeasurement, String) {
    let service = AnalysisService::with_config(ServiceConfig {
        cache_dir: cache.map(|(dir, _)| dir.to_path_buf()),
        cache_url: None,
        batch_jobs: 0,
    })
    .expect("bench cache dir under temp_dir must open");
    let corpus = Corpus::builder().ml_source("lib.ml", ml).c_source("glue.c", c).build();
    let request = AnalysisRequest::new(corpus).options(AnalysisOptions::default().with_jobs(jobs));
    let report = service.analyze(&request).expect("in-memory corpus analysis cannot fail");
    // `render_stable` drops the wall-clock suffix, so byte-comparing two
    // runs' reports checks the analysis, not the timer.
    let rendered = report.render_stable();
    let row = PipelineMeasurement {
        name: name.to_string(),
        c_loc: report.stats.c_loc,
        functions: report.stats.c_functions,
        passes: report.stats.passes,
        // A report-tier hit never starts the pool, so stats.jobs is 0;
        // record the width the row was *requested* at for grouping.
        jobs: if report.stats.cache_report_hit { jobs } else { report.stats.jobs },
        cache: cache.map(|(_, mode)| mode).unwrap_or("off"),
        seconds: report.stats.seconds,
        p50_seconds: 0.0,
        p95_seconds: 0.0,
        infer_seconds: report.timings.get(ffisafe_core::Phase::Infer).as_secs_f64(),
        work_seconds: report.stats.infer_work_seconds,
        setup_seconds: report.stats.infer_setup_seconds,
        critical_path_seconds: report.stats.infer_critical_path_seconds,
        cache_fn_hits: report.stats.cache_fn_hits,
        report_hit: report.stats.cache_report_hit,
        diagnostics: report.error_count() + report.warning_count() + report.imprecision_count(),
    };
    (row, rendered)
}

/// Measures one workload: uncached at every width in `jobs_list`, then a
/// cold/warm cache pair at `jobs = 1`.
fn measure_workload(
    rows: &mut Vec<PipelineMeasurement>,
    name: &str,
    ml: &str,
    c: &str,
    jobs_list: &[usize],
) {
    for &jobs in jobs_list {
        rows.push(measure(name, ml, c, jobs, None));
    }
    let dir = std::env::temp_dir().join(format!(
        "ffisafe-bench-cache-{}-{}",
        name.replace('/', "_"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = measure(name, ml, c, 1, Some((&dir, "cold")));
    let mut warm = measure(name, ml, c, 1, Some((&dir, "warm")));
    // A warm report-tier hit skips analysis, so it cannot re-measure the
    // workload's shape; backfill it from the cold row so trajectory
    // tooling sees matching functions/passes across temperatures.
    if warm.report_hit {
        warm.functions = cold.functions;
        warm.passes = cold.passes;
    }
    rows.push(cold);
    rows.push(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One sweep run over a multi-library tree, folded into the same row
/// shape as the single-corpus workloads. The work/hit numbers come from
/// the map executor's accounting; the critical path is not tracked at
/// sweep granularity and reports zero.
fn measure_sweep_once(
    root: &Path,
    config: &SweepConfig,
    cache: &'static str,
) -> PipelineMeasurement {
    let output = sweep(root, config).expect("bench sweep over a temp tree cannot fail");
    assert_eq!(output.stats.libraries_failed, 0, "bench sweep libraries must analyze");
    let total = output.report.summary();
    let s = &output.stats;
    PipelineMeasurement {
        name: "sweep-4lib".to_string(),
        c_loc: s.c_loc,
        functions: s.functions,
        passes: s.passes,
        jobs: 1,
        cache,
        seconds: s.wall_seconds,
        p50_seconds: 0.0,
        p95_seconds: 0.0,
        infer_seconds: s.work_seconds,
        work_seconds: s.work_seconds,
        setup_seconds: 0.0,
        critical_path_seconds: 0.0,
        cache_fn_hits: s.cache_fn_hits,
        report_hit: s.report_hits == output.library_count,
        diagnostics: total.errors + total.warnings + total.imprecision,
    }
}

/// The sweep workload: the four smallest Figure 9 libraries written to a
/// temp tree (one subdirectory each), swept at `--shards 2` cold then
/// warm over one shared store — the map/reduce subsystem's cold/warm
/// pair in the trajectory.
fn measure_sweep(rows: &mut Vec<PipelineMeasurement>) {
    let root = std::env::temp_dir().join(format!("ffisafe-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for spec in paper_benchmarks().iter().take(4) {
        let bench = generate(spec);
        let dir = root.join(spec.name);
        std::fs::create_dir_all(&dir).expect("bench temp tree");
        std::fs::write(dir.join("lib.ml"), &bench.ml_source).expect("bench temp tree");
        std::fs::write(dir.join("glue.c"), &bench.c_source).expect("bench temp tree");
    }
    let config = SweepConfig {
        shards: 2,
        jobs: 1,
        cache_dir: Some(root.join(".cache")),
        options: AnalysisOptions::default().with_jobs(1),
        ..SweepConfig::default()
    };
    let cold = measure_sweep_once(&root, &config, "cold");
    let mut warm = measure_sweep_once(&root, &config, "warm");
    // Warm report-tier hits skip the pipeline, so backfill the workload
    // shape from the cold sibling (same convention as measure_workload).
    if warm.report_hit {
        warm.functions = cold.functions;
        warm.passes = cold.passes;
    }
    rows.push(cold);
    rows.push(warm);
    let _ = std::fs::remove_dir_all(&root);
}

/// The telemetry-overhead pair: one mid-size workload analyzed with
/// tracing off (`telemetry-off`) and then with tracing on
/// (`telemetry-on`), both uncached at `jobs = 1`. `bench_diff` gates the
/// on/off wall-clock ratio, and the pair doubles as a result-invariance
/// check — the traced run's rendered report must be byte-identical to the
/// untraced one.
fn measure_telemetry_overhead(rows: &mut Vec<PipelineMeasurement>) {
    let scale = scaling_benchmark(4_000);
    let (off_row, off_report) =
        measure_with_report("telemetry-off", &scale.ml_source, &scale.c_source, 1, None);
    telemetry::set_tracing(true);
    let (on_row, on_report) =
        measure_with_report("telemetry-on", &scale.ml_source, &scale.c_source, 1, None);
    telemetry::set_tracing(false);
    let spans = telemetry::drain_spans();
    assert!(
        spans.iter().any(|s| s.name == "infer.solve"),
        "traced bench run must record solver spans"
    );
    assert_eq!(off_report, on_report, "telemetry changed the report bytes");
    rows.push(off_row);
    rows.push(on_row);
}

/// Nearest-rank percentile over unsorted latencies (`q` in 0..=100).
fn percentile(latencies: &[f64], q: usize) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[(sorted.len() - 1) * q / 100]
}

/// One round of the serve-load harness: `SERVE_CLIENTS` concurrent
/// connections each submitting `requests` corpora produced by
/// `corpus_for(client, request)`, against the daemon at `url`. Returns
/// the round's wall clock, every per-request latency, and the per-request
/// outcomes.
fn serve_round(
    url: &str,
    requests: usize,
    corpus_for: impl Fn(usize, usize) -> Corpus + Send + Sync,
) -> (f64, Vec<f64>, Vec<ffisafe_serve::AnalyzeOutcome>) {
    let started = std::time::Instant::now();
    let mut latencies = Vec::new();
    let mut outcomes = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let corpus_for = &corpus_for;
                scope.spawn(move || {
                    let mut conn = ffisafe_serve::ServeClient::connect(url)
                        .expect("bench daemon must accept clients");
                    let mut lats = Vec::new();
                    let mut outs = Vec::new();
                    for request in 0..requests {
                        let corpus = corpus_for(client, request);
                        let t = std::time::Instant::now();
                        let reply = conn
                            .analyze(&corpus, AnalysisOptions::default(), CacheMode::Shared)
                            .expect("bench daemon request must round-trip");
                        lats.push(t.elapsed().as_secs_f64());
                        match reply {
                            ffisafe_serve::Reply::Analyze(outcome) => outs.push(*outcome),
                            other => panic!("bench daemon replied {other:?}"),
                        }
                    }
                    (lats, outs)
                })
            })
            .collect();
        for handle in handles {
            let (lats, outs) = handle.join().expect("bench client thread");
            latencies.extend(lats);
            outcomes.extend(outs);
        }
    });
    (started.elapsed().as_secs_f64(), latencies, outcomes)
}

/// Concurrent connections the serve-load harness opens.
const SERVE_CLIENTS: usize = 4;
/// Requests each serve-load connection submits per round.
const SERVE_REQUESTS: usize = 6;
/// Requests each connection submits per `serve-large` round.
const SERVE_LARGE_REQUESTS: usize = 2;

/// Inserts `tag` before the first `close` of `src`'s first-line comment,
/// so the corpus is new to the cache while every line number stays put.
fn tag_first_comment(src: &str, close: &str, tag: &str) -> String {
    let at = src.find(close).expect("generated sources open with a comment");
    format!("{}{tag} {}", &src[..at], &src[at..])
}

/// The serve workloads (the daemon's headline numbers): an in-process
/// `ffisafe serve` daemon over a fresh cache, hit by [`SERVE_CLIENTS`]
/// concurrent clients.
///
/// `serve-load` sends 24-line corpora in three rounds: *cold* (every
/// request a distinct corpus — all misses), *warm* (the same corpora
/// resubmitted — all tier-2 report hits, zero inference workers) and
/// *mixed* (alternating fresh and repeated corpora). `serve-large` runs a
/// cold and a warm round over the Figure 9 cryptokit library (about
/// 156 KB on the wire), tagged per request, so the warm round prices a
/// hit on a large request. Each round's p50/p95 per-request latency lands
/// in its row; `bench_diff` gates warm p50 < cold p50 on `serve-load` and
/// warm p50 < 0.1× cold p50 on `serve-large`.
fn measure_serve_load(rows: &mut Vec<PipelineMeasurement>) {
    let cache =
        std::env::temp_dir().join(format!("ffisafe-bench-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let config = ffisafe_serve::ServeConfig {
        service: ServiceConfig { cache_dir: Some(cache.clone()), ..Default::default() },
        ..Default::default()
    };
    let addr = ffisafe_serve::AnalysisServer::bind("127.0.0.1:0", config)
        .expect("bench daemon must bind an ephemeral port")
        .spawn()
        .expect("bench daemon must spawn");
    let url = format!("tcp://{addr}");

    // Each corpus is unique per (round-tag, client, request) so cold
    // rounds cannot race each other into accidental cache hits.
    let corpus = |tag: &str, client: usize, request: usize| {
        let f = format!("load_{tag}_{client}_{request}");
        Corpus::builder()
            .ml_source("lib.ml", format!("external f : int -> int = \"{f}\"\n"))
            .c_source(
                "glue.c",
                format!("value {f}(value n) {{ return Val_int(Int_val(n) + {client}); }}\n"),
            )
            .build()
    };

    let warm_replays = |outs: &[ffisafe_serve::AnalyzeOutcome]| {
        assert!(
            outs.iter().all(|o| o.report_hit && o.workers_executed == 0),
            "warm resubmission must replay every report with zero inference workers"
        );
    };
    let (cold_wall, cold_lats, cold_outs) =
        serve_round(&url, SERVE_REQUESTS, |c, r| corpus("cold", c, r));
    assert!(cold_outs.iter().all(|o| !o.report_hit), "cold round must miss the report cache");
    let (warm_wall, warm_lats, warm_outs) =
        serve_round(&url, SERVE_REQUESTS, |c, r| corpus("cold", c, r));
    warm_replays(&warm_outs);
    let (mixed_wall, mixed_lats, _) = serve_round(&url, SERVE_REQUESTS, |c, r| {
        if r % 2 == 0 {
            corpus("cold", c, r) // already cached: the warm half
        } else {
            corpus("mixed", c, r) // first sight: the cold half
        }
    });

    let cryptokit = paper_benchmarks()
        .into_iter()
        .find(|spec| spec.name == "cryptokit-1.2")
        .expect("Figure 9 lists cryptokit");
    let bench = generate(&cryptokit);
    let large = |client: usize, request: usize| {
        let tag = format!(" request {client}-{request}");
        Corpus::builder()
            .ml_source("lib.ml", tag_first_comment(&bench.ml_source, "*)", &tag))
            .c_source("glue.c", tag_first_comment(&bench.c_source, "*/", &tag))
            .build()
    };
    let (large_cold_wall, large_cold_lats, large_outs) =
        serve_round(&url, SERVE_LARGE_REQUESTS, large);
    assert!(large_outs.iter().all(|o| !o.report_hit), "cold round must miss the report cache");
    let (large_warm_wall, large_warm_lats, large_warm_outs) =
        serve_round(&url, SERVE_LARGE_REQUESTS, large);
    warm_replays(&large_warm_outs);
    let _ = std::fs::remove_dir_all(&cache);

    let diagnostics: usize =
        cold_outs.iter().map(|o| (o.errors + o.warnings) as usize).sum::<usize>();
    let c_loc = SERVE_CLIENTS * SERVE_REQUESTS; // one C line per request corpus
    let row = |name: &str, cache: &'static str, wall: f64, lats: &[f64], report_hit: bool| {
        PipelineMeasurement {
            name: name.to_string(),
            c_loc,
            functions: SERVE_CLIENTS * SERVE_REQUESTS,
            passes: 0,
            jobs: SERVE_CLIENTS,
            cache,
            seconds: wall,
            p50_seconds: percentile(lats, 50),
            p95_seconds: percentile(lats, 95),
            infer_seconds: 0.0,
            work_seconds: 0.0,
            setup_seconds: 0.0,
            critical_path_seconds: 0.0,
            cache_fn_hits: 0,
            report_hit,
            diagnostics,
        }
    };
    rows.push(row("serve-load", "cold", cold_wall, &cold_lats, false));
    rows.push(row("serve-load", "warm", warm_wall, &warm_lats, true));
    rows.push(row("serve-load-mixed", "mixed", mixed_wall, &mixed_lats, false));

    let large_requests = SERVE_CLIENTS * SERVE_LARGE_REQUESTS;
    let large_row = |cache, wall, lats: &[f64], report_hit| PipelineMeasurement {
        c_loc: large_requests * bench.c_source.lines().count(),
        functions: large_requests * bench.funcs.len(),
        diagnostics: large_outs.iter().map(|o| (o.errors + o.warnings) as usize).sum(),
        ..row("serve-large", cache, wall, lats, report_hit)
    };
    rows.push(large_row("cold", large_cold_wall, &large_cold_lats, false));
    rows.push(large_row("warm", large_warm_wall, &large_warm_lats, true));
}

/// Runs every workload at each worker count in `jobs_list`, plus the
/// cold/warm cache pair per workload, the sharded-sweep cold/warm
/// pair, the telemetry-overhead pair and the serve-load rounds.
pub fn run(jobs_list: &[usize]) -> PipelineBench {
    let mut rows = Vec::new();
    for spec in paper_benchmarks() {
        let bench = generate(&spec);
        measure_workload(&mut rows, spec.name, &bench.ml_source, &bench.c_source, jobs_list);
    }
    let scale = scaling_benchmark(12_000);
    measure_workload(&mut rows, "scale-12k", &scale.ml_source, &scale.c_source, jobs_list);
    measure_sweep(&mut rows);
    measure_telemetry_overhead(&mut rows);
    measure_serve_load(&mut rows);
    PipelineBench { rows }
}

impl PipelineBench {
    /// Wall-clock speedup of the widest configuration over `jobs = 1`,
    /// summed over every workload (cache-off rows only). Meaningful only
    /// when the host has more than one core; see
    /// [`PipelineBench::work_speedup_bound`] for the
    /// hardware-independent number.
    pub fn overall_speedup(&self) -> f64 {
        let off = || self.rows.iter().filter(|r| r.cache == "off");
        let serial: f64 = off().filter(|r| r.jobs == 1).map(|r| r.seconds).sum();
        let max_jobs = off().map(|r| r.jobs).max().unwrap_or(1);
        let parallel: f64 = off().filter(|r| r.jobs == max_jobs).map(|r| r.seconds).sum();
        if parallel > 0.0 {
            serial / parallel
        } else {
            1.0
        }
    }

    /// The measured work/critical-path ratio of the inference stage over
    /// the uncached `jobs = 1` runs: the wall-clock speedup an unbounded
    /// worker pool achieves on this corpus, independent of the host's
    /// core count.
    pub fn work_speedup_bound(&self) -> f64 {
        let serial = || self.rows.iter().filter(|r| r.cache == "off").filter(|r| r.jobs == 1);
        let work: f64 = serial().map(|r| r.work_seconds).sum();
        let critical: f64 = serial().map(|r| r.critical_path_seconds).sum();
        if critical > 0.0 {
            work / critical
        } else {
            1.0
        }
    }

    /// Wall-clock speedup of warm (cached) runs over cold (populating)
    /// runs, summed over every workload — the incremental-reanalysis win.
    pub fn warm_speedup(&self) -> f64 {
        let cold: f64 = self.rows.iter().filter(|r| r.cache == "cold").map(|r| r.seconds).sum();
        let warm: f64 = self.rows.iter().filter(|r| r.cache == "warm").map(|r| r.seconds).sum();
        if warm > 0.0 {
            cold / warm
        } else {
            1.0
        }
    }

    /// Workloads whose warm run was *not* strictly faster than its cold
    /// run — the regression signal CI watches for (empty when healthy).
    pub fn warm_regressions(&self) -> Vec<String> {
        let cold: Vec<&PipelineMeasurement> =
            self.rows.iter().filter(|r| r.cache == "cold").collect();
        let warm: Vec<&PipelineMeasurement> =
            self.rows.iter().filter(|r| r.cache == "warm").collect();
        cold.iter()
            .zip(&warm)
            .filter(|(c, w)| w.seconds >= c.seconds)
            .map(|(c, _)| c.name.clone())
            .collect()
    }

    /// Serializes to the `BENCH_pipeline.json` format (no external JSON
    /// dependency; every field is a number or a plain string).
    pub fn to_json(&self) -> String {
        let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut out = String::from("{\n  \"benchmark\": \"pipeline\",\n");
        out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
        out.push_str(&format!(
            "  \"overall_speedup\": {:.3},\n  \"work_speedup_bound\": {:.3},\n  \"warm_speedup\": {:.3},\n  \"rows\": [\n",
            self.overall_speedup(),
            self.work_speedup_bound(),
            self.warm_speedup()
        ));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"c_loc\": {}, \"functions\": {}, \"passes\": {}, \"jobs\": {}, \"cache\": \"{}\", \"seconds\": {:.4}, \"p50_seconds\": {:.4}, \"p95_seconds\": {:.4}, \"infer_seconds\": {:.4}, \"work_seconds\": {:.4}, \"setup_seconds\": {:.4}, \"critical_path_seconds\": {:.4}, \"cache_fn_hits\": {}, \"report_hit\": {}, \"diagnostics\": {}}}{}\n",
                json_escape(&r.name),
                r.c_loc,
                r.functions,
                r.passes,
                r.jobs,
                r.cache,
                r.seconds,
                r.p50_seconds,
                r.p95_seconds,
                r.infer_seconds,
                r.work_seconds,
                r.setup_seconds,
                r.critical_path_seconds,
                r.cache_fn_hits,
                r.report_hit,
                r.diagnostics,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_valid_shape() {
        // one tiny workload at two widths, via the internal measure()
        let spec = &paper_benchmarks()[0];
        let bench = generate(spec);
        let serial = measure(spec.name, &bench.ml_source, &bench.c_source, 1, None);
        let parallel = measure(spec.name, &bench.ml_source, &bench.c_source, 4, None);
        assert_eq!(serial.diagnostics, parallel.diagnostics, "jobs changed results");
        assert_eq!(serial.passes, parallel.passes);
        assert_eq!(serial.jobs, 1);
        assert_eq!(serial.cache, "off");
        assert!(parallel.jobs >= 1);
        let pb = PipelineBench { rows: vec![serial, parallel] };
        let json = pb.to_json();
        assert!(json.contains("\"benchmark\": \"pipeline\""));
        assert!(json.contains("\"overall_speedup\""));
        assert!(json.contains("\"warm_speedup\""));
        assert!(json.contains("\"cache\": \"off\""));
        assert!(json.contains(&format!("\"name\": \"{}\"", spec.name)));
    }

    #[test]
    fn cold_warm_pair_replays_and_matches() {
        let spec = &paper_benchmarks()[0];
        let bench = generate(spec);
        let dir =
            std::env::temp_dir().join(format!("ffisafe-bench-unit-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = measure(spec.name, &bench.ml_source, &bench.c_source, 1, Some((&dir, "cold")));
        let warm = measure(spec.name, &bench.ml_source, &bench.c_source, 1, Some((&dir, "warm")));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cold.cache, "cold");
        assert_eq!(warm.cache, "warm");
        assert!(!cold.report_hit);
        assert!(warm.report_hit, "unchanged corpus must hit the report tier");
        assert_eq!(cold.diagnostics, warm.diagnostics, "cache changed results");
        let pb = PipelineBench { rows: vec![cold, warm] };
        assert_eq!(pb.warm_regressions(), Vec::<String>::new(), "warm must beat cold");
        assert!(pb.warm_speedup() > 1.0);
    }

    #[test]
    fn json_escape_handles_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn serve_load_rounds_measure_latency_distributions() {
        let mut rows = Vec::new();
        measure_serve_load(&mut rows);
        assert_eq!(rows.len(), 5);
        let (large_cold, large_warm) = (&rows[3], &rows[4]);
        assert_eq!((large_cold.name.as_str(), large_cold.cache), ("serve-large", "cold"));
        assert_eq!((large_warm.name.as_str(), large_warm.cache), ("serve-large", "warm"));
        assert!(large_warm.report_hit && !large_cold.report_hit);
        assert!(large_warm.p50_seconds > 0.0 && large_warm.p50_seconds < large_cold.p50_seconds);
        rows.truncate(3);
        let (cold, warm, mixed) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!((cold.cache, warm.cache, mixed.cache), ("cold", "warm", "mixed"));
        assert_eq!(cold.name, "serve-load");
        assert_eq!(warm.name, "serve-load");
        assert_eq!(mixed.name, "serve-load-mixed");
        assert!(cold.p50_seconds > 0.0 && cold.p95_seconds >= cold.p50_seconds);
        assert!(warm.p50_seconds > 0.0 && warm.p95_seconds >= warm.p50_seconds);
        assert!(
            warm.p50_seconds < cold.p50_seconds,
            "warm p50 {:.4}s must beat cold p50 {:.4}s",
            warm.p50_seconds,
            cold.p50_seconds
        );
        assert!(warm.report_hit && !cold.report_hit);
        let pb = PipelineBench { rows };
        let json = pb.to_json();
        assert!(json.contains("\"name\": \"serve-load\""));
        assert!(json.contains("\"p50_seconds\""));
        assert!(json.contains("\"cache\": \"mixed\""));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let lats = [0.4, 0.1, 0.3, 0.2];
        assert_eq!(percentile(&lats, 50), 0.2);
        assert_eq!(percentile(&lats, 95), 0.3);
        assert_eq!(percentile(&lats, 100), 0.4);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn sweep_pair_replays_warm_and_matches() {
        let mut rows = Vec::new();
        measure_sweep(&mut rows);
        assert_eq!(rows.len(), 2);
        let (cold, warm) = (&rows[0], &rows[1]);
        assert_eq!((cold.cache, warm.cache), ("cold", "warm"));
        assert_eq!(cold.name, "sweep-4lib");
        assert!(cold.functions > 0 && cold.c_loc > 0);
        assert!(!cold.report_hit);
        assert!(warm.report_hit, "unchanged tree must be served from the report tier");
        assert_eq!(cold.diagnostics, warm.diagnostics, "cache changed sweep results");
        assert_eq!(cold.functions, warm.functions, "warm row backfilled from cold");
        let pb = PipelineBench { rows };
        assert_eq!(pb.warm_regressions(), Vec::<String>::new(), "warm must beat cold");
    }
}
