//! The `cold-sweep` workload: in-process `ffisafe_shard::sweep` runs over
//! a tree of every Figure 9 library plus the example corpora, two shards
//! on two workers, each sweep over a fresh cache store.

use crate::inputs::{write_sweep_tree, Expect};
use crate::replay::{check_parity, interner_seed, replay, PathTaken};
use crate::score::{check, self_test, Finding};
use crate::stats::{latency_ms, median, peak_rss_mb, reset_peak_rss, trim_heap, CpuTicks};
use crate::trace::{layer_metrics, self_time_table, Layers, Recorder, TimedBackend};
use crate::{report_failures, Outcome, Workload};
use ffisafe_cache::{CacheBackend, CacheStore};
use ffisafe_core::pipeline::cache::analyzer_cache_version;
use ffisafe_core::AnalysisOptions;
use ffisafe_shard::{executor, planner, sweep, MapConfig, MapMode, SweepConfig, SweepReport};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards and concurrent workers: the host's two cores, no more.
const WIDTH: usize = 2;

struct Tree {
    root: PathBuf,
    answers: Vec<(String, Expect)>,
    lines: usize,
}

/// Scores every library of a sweep report; returns the failures, one line
/// each, and the OCaml + C + Rust lines of the libraries that passed.
fn judge(tree: &Tree, report: &SweepReport, label: &str) -> (Vec<String>, usize) {
    let mut failures: Vec<String> =
        report.failures.iter().map(|f| format!("{label} {}: {}", f.library, f.error)).collect();
    let mut lines = 0;
    for (name, expect) in &tree.answers {
        let Some(lib) = report.libraries.iter().find(|l| &l.library == name) else {
            if !report.failures.iter().any(|f| &f.library == name) {
                failures.push(format!("{label} {name}: missing from the sweep report"));
            }
            continue;
        };
        match check(expect, &findings(lib)) {
            Ok(()) => lines += lib.exec.ml_loc + lib.exec.c_loc + lib.exec.rust_loc,
            Err(e) => failures.push(format!("{label} {name}: {e}")),
        }
    }
    (failures, lines)
}

fn findings(lib: &ffisafe_shard::LibraryReport) -> Vec<Finding> {
    lib.rows
        .iter()
        .map(|r| Finding {
            file: r.file.clone(),
            line: r.line as u32,
            severity: r.severity.clone(),
            code: r.code.clone(),
        })
        .collect()
}

/// Hands out fresh store directories.
struct Stores {
    dir: PathBuf,
    next: usize,
}

impl Stores {
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("store-{}", self.next))
    }
}

fn config(store: PathBuf) -> SweepConfig {
    SweepConfig {
        shards: WIDTH,
        jobs: WIDTH,
        cache_dir: Some(store),
        mode: MapMode::InProcess,
        ..SweepConfig::default()
    }
}

fn prepare(work: &Path) -> io::Result<(Tree, Stores)> {
    let root = work.join("tree");
    let (answers, lines) = write_sweep_tree(&root, Path::new("examples/corpora"))?;
    Ok((Tree { root, answers, lines }, Stores { dir: work.join("stores"), next: 0 }))
}

/// One warm-up sweep (opening its fresh store included), scored; the
/// first also runs the scorer self-test on its strutil verdict.
fn set_up(
    tree: &Tree,
    stores: &mut Stores,
    problems: &mut Vec<String>,
    first: bool,
) -> io::Result<f64> {
    let store = stores.fresh();
    let start = Instant::now();
    let out =
        sweep(&tree.root, &config(store.clone())).map_err(|e| io::Error::other(e.to_string()))?;
    let seconds = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&store)?;
    problems.extend(judge(tree, &out.report, "warm-up sweep").0);
    if first {
        let (name, expect) = tree.answers.last().expect("the tree has libraries");
        if let Some(lib) = out.report.libraries.iter().find(|l| &l.library == name) {
            if let Err(e) = self_test(expect, &findings(lib)) {
                problems.push(format!("scorer self-test: {e}"));
            }
        }
    }
    drop(out);
    trim_heap();
    Ok(seconds)
}

#[derive(Default)]
struct Tally {
    sweeps_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    lines_ok: usize,
    wall_seconds: f64,
    /// Each sweep's resident-set peak, MiB.
    peaks_mb: Vec<f64>,
}

/// Untraced sweeps, back to back, until `seconds` have passed. Each
/// sweep's store is deleted after it, outside the timed window; the
/// measured wall time is the time spent inside sweeps. Every sweep starts
/// from a trimmed heap with the resident-set peak reset, so each records
/// its own peak.
fn sweep_loop(tree: &Tree, stores: &mut Stores, seed: u64, seconds: f64) -> io::Result<Tally> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut n = 0;
    while Instant::now() < deadline {
        let store = stores.fresh();
        reset_peak_rss();
        let t = Instant::now();
        let out = sweep(&tree.root, &config(store.clone()))
            .map_err(|e| io::Error::other(e.to_string()))?;
        let elapsed = t.elapsed().as_secs_f64();
        tally.peaks_mb.push(peak_rss_mb());
        tally.wall_seconds += elapsed;
        std::fs::remove_dir_all(&store)?;
        let (failures, lines) = judge(tree, &out.report, &format!("seed {seed} sweep {n}"));
        tally.attempted += tree.answers.len() as u64;
        tally.failed += failures.len() as u64;
        tally.lines_ok += lines;
        report_failures(&failures);
        tally.sweeps_ms.push(if failures.is_empty() { elapsed * 1000.0 } else { f64::INFINITY });
        drop(out);
        trim_heap();
        n += 1;
    }
    Ok(tally)
}

impl Tally {
    fn latency_ms(&self, q: f64) -> f64 {
        latency_ms(&self.sweeps_ms, q, self.wall_seconds)
    }
}

/// The untraced run: end-to-end metrics. A "verdict" here is a whole
/// sweep: the call a user waits on for the tree's report. `peak_rss_mb`
/// is the lowest of the measured sweeps' own peaks: above that floor a
/// sweep's peak falls in one of several groups, and which groups a run
/// meets changes from run to run (see NOTES.md).
pub fn run(seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let (tree, mut stores) = prepare(work)?;
    let mut problems = Vec::new();
    let mut setup_seconds = vec![set_up(&tree, &mut stores, &mut problems, true)?];
    let ticks = CpuTicks::now();
    let tally = sweep_loop(&tree, &mut stores, seed, seconds)?;
    let steal = CpuTicks::now().steal_share_since(ticks);
    for _ in 1..Workload::ColdSweep.setup_repeats() {
        setup_seconds.push(set_up(&tree, &mut stores, &mut problems, false)?);
    }
    let lowest_peak_mb = tally.peaks_mb.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "cold-sweep: {} sweep(s) of {} libraries ({} lines), {} failed verdict(s), p50 {:.1} ms; \
         peak RSS per sweep {:.1}–{:.1} MiB; set-ups {:.3?} s; host steal {:.1} %",
        tally.sweeps_ms.len(),
        tree.answers.len(),
        tree.lines,
        tally.failed,
        tally.latency_ms(0.5),
        lowest_peak_mb,
        tally.peaks_mb.iter().copied().fold(0.0, f64::max),
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
            ("peak_rss_mb", lowest_peak_mb, "MiB"),
        ],
    })
}

/// The traced run: the first half of the time runs untraced sweeps (for
/// `trace.gap_ms`); the second rebuilds each sweep from its public stages
/// (plan, map, reduce) with spans on, then replays every library stage by
/// stage against a fresh twin store.
pub fn run_traced(seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let (tree, mut stores) = prepare(work)?;
    let mut problems = Vec::new();
    set_up(&tree, &mut stores, &mut problems, true)?;
    let untraced = sweep_loop(&tree, &mut stores, seed, seconds / 2.0)?;

    let rec = Arc::new(Recorder::new());
    let seed_interner = interner_seed();
    let options = AnalysisOptions::default();
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    rec.set_enabled(true);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let mut n = 0u64;
    while Instant::now() < deadline {
        let label = format!("seed {seed} traced sweep {n}");
        rec.set_request(n * 1000);
        let store = stores.fresh();
        let map_config = MapConfig {
            mode: MapMode::InProcess,
            jobs: WIDTH,
            cache_dir: Some(store.clone()),
            options,
            ..MapConfig::default()
        };
        let (plan, report) = rec
            .span("sweep", || {
                let plan = rec.span("shard.plan", || planner::plan(&tree.root, WIDTH))?;
                let out = rec.span("shard.map", || executor::execute(&plan, &map_config))?;
                let mut libraries = Vec::new();
                let mut failures = plan.failures.clone();
                for result in out.results {
                    match result {
                        Ok(lib) => libraries.push(lib),
                        Err(f) => failures.push(f),
                    }
                }
                let report = rec.span("shard.reduce", || {
                    SweepReport::reduce(libraries, failures, out.cache_store)
                });
                Ok::<_, ffisafe_core::ApiError>((plan, report))
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        let (failures, _) = judge(&tree, &report, &label);
        attempted += tree.answers.len() as u64;
        failed += failures.len() as u64;
        problems.extend(failures);

        let twin_dir = stores.fresh();
        let twin_store = CacheStore::open(&twin_dir, &analyzer_cache_version())?;
        let twin: Arc<dyn CacheBackend> =
            Arc::new(TimedBackend::new(Arc::new(twin_store), rec.clone()));
        for (j, library) in plan.libraries.iter().enumerate() {
            let Some(corpus) = &library.corpus else { continue };
            rec.set_request(n * 1000 + j as u64 + 1);
            let replayed = rec.span("replay", || {
                replay(&rec, &seed_interner, twin.clone(), corpus, options, None)
            });
            let parity = match report.libraries.iter().find(|l| l.library == library.name) {
                Some(lib) => check_parity(&PathTaken::of_library(lib), &replayed),
                None => Err("library missing from the sweep report".to_string()),
            };
            if let Err(e) = parity {
                problems.push(format!("{label} {}: {e}", library.name));
            }
        }
        drop(twin);
        std::fs::remove_dir_all(&store)?;
        std::fs::remove_dir_all(&twin_dir)?;
        n += 1;
    }
    rec.set_enabled(false);

    let layers = Layers::of(&rec);
    let gap_ms = untraced.latency_ms(0.5) - layers.ms("sweep");
    let table = self_time_table(Workload::ColdSweep.name(), &rec, &layers, gap_ms);
    crate::write_trace_outputs(Workload::ColdSweep, seed, &layers, &table, &mut problems);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        problems,
        metrics: layer_metrics(&rec, &layers, 0, gap_ms, failed_frac),
    })
}
