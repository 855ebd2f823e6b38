//! The map executor: runs a [`SweepPlan`]'s libraries with bounded
//! parallelism, in one of two modes.
//!
//! * **In-process** ([`MapMode::InProcess`]): one long-lived
//!   [`AnalysisService`] owns the shared cache store; workers submit
//!   each library as an [`AnalysisRequest`] and normalize the
//!   structured [`ffisafe_core::AnalysisReport`] directly — no JSON
//!   round-trip.
//! * **Child-process** ([`MapMode::ChildProcess`]): each library is
//!   analyzed by a spawned `ffisafe --format json` over the same shared
//!   `--cache-dir`; the executor parses the versioned JSON from stdout.
//!   Exit codes 0 (clean) and 1 (errors found) are both successful
//!   analyses; anything else — or unparseable output — is a failed
//!   attempt.
//!
//! Either way, a shard whose libraries are unchanged since a previous
//! sweep is **warm**: every member short-circuits at the tier-2 report
//! cache (or replays tier-1 outcomes), so no inference worker runs.
//! [`MapStats::shards_warm`] counts those.
//!
//! Failed attempts are retried per library ([`MapConfig::retries`] extra
//! attempts); a library that fails every attempt becomes a
//! [`SweepFailure`] in the reduced report rather than sinking the sweep.
//!
//! Scheduling is **one queue, largest first**: the `jobs` workers claim
//! libraries from one shared index over the libraries sorted by
//! [`LibraryPlan::lines`](crate::LibraryPlan::lines) (descending, ties by
//! name), so the long pole starts at once instead of queueing behind
//! cheap libraries. Results land in per-library slots, so the reduced
//! output never depends on who ran what.

use crate::planner::SweepPlan;
use crate::reducer::{LibraryReport, SweepFailure};
use ffisafe_cache::{open_backend, CacheStats};
use ffisafe_core::pipeline::cache::analyzer_cache_version;
use ffisafe_core::{
    available_cores, fair_share_jobs, AnalysisOptions, AnalysisRequest, AnalysisService, ApiError,
    ServiceConfig,
};
use ffisafe_support::telemetry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How libraries are mapped onto compute.
#[derive(Clone, Debug)]
pub enum MapMode {
    /// Run every library inside this process via one shared
    /// [`AnalysisService`].
    InProcess,
    /// Spawn one `ffisafe --format json` child per library, all sharing
    /// the sweep's `--cache-dir`.
    ChildProcess {
        /// Path to the `ffisafe` binary to spawn.
        program: PathBuf,
    },
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct MapConfig {
    /// Map mode (in-process or child processes).
    pub mode: MapMode,
    /// Libraries analyzed at once; `0` means the machine's available
    /// parallelism.
    pub jobs: usize,
    /// The shared two-tier cache store; `None` sweeps uncached.
    pub cache_dir: Option<PathBuf>,
    /// A remote cache daemon (`tcp://host:port`, see
    /// [`ffisafe_cache::remote`]) instead of a local directory. Mutually
    /// exclusive with `cache_dir`.
    pub cache_url: Option<String>,
    /// Semantic analysis options applied to every library.
    /// [`AnalysisOptions::jobs`] of `0` gets a fair share of the cores
    /// per concurrent library.
    pub options: AnalysisOptions,
    /// Extra attempts per library after a failed one.
    pub retries: usize,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            mode: MapMode::InProcess,
            jobs: 0,
            cache_dir: None,
            cache_url: None,
            options: AnalysisOptions::default(),
            retries: 2,
        }
    }
}

/// Execution accounting for one sweep — everything allowed to vary run to
/// run (and therefore kept out of the stable [`crate::SweepReport`]
/// document).
#[derive(Clone, Copy, Debug, Default)]
pub struct MapStats {
    /// Shards the executor processed.
    pub shards_executed: usize,
    /// Shards whose every library was served from the cache with zero
    /// inference workers.
    pub shards_warm: usize,
    /// Libraries that failed after every retry.
    pub libraries_failed: usize,
    /// Retry attempts consumed across all libraries.
    pub retries_used: usize,
    /// Inference workers that actually ran (0 on a fully warm sweep).
    pub workers_executed: usize,
    /// Tier-1 cache hits summed over libraries.
    pub cache_fn_hits: usize,
    /// Tier-1 cache misses summed over libraries.
    pub cache_fn_misses: usize,
    /// Libraries served whole from the tier-2 report cache.
    pub report_hits: usize,
    /// C functions analyzed (summed).
    pub functions: usize,
    /// Fixpoint passes (summed).
    pub passes: usize,
    /// C lines analyzed (summed).
    pub c_loc: usize,
    /// OCaml lines analyzed (summed).
    pub ml_loc: usize,
    /// Rust lines analyzed (summed).
    pub rust_loc: usize,
    /// Summed per-function inference work in seconds (≈0 when warm).
    pub work_seconds: f64,
    /// The map's critical path: the largest per-worker sum of
    /// library `work_seconds`. This is what the map phase's wall clock
    /// converges to on an unloaded many-core host, so it exposes
    /// scheduling quality (one straggler worker = long critical path)
    /// even when the measuring host is itself short on cores.
    pub critical_path_seconds: f64,
    /// Wall-clock seconds for the whole map phase.
    pub wall_seconds: f64,
}

/// What the map phase hands the reducer.
#[derive(Debug)]
pub struct MapOutput {
    /// Per-library outcomes, in plan order.
    pub results: Vec<Result<LibraryReport, SweepFailure>>,
    /// Execution accounting.
    pub stats: MapStats,
    /// Occupancy of the shared store after the map phase (`None` when
    /// uncached).
    pub cache_store: Option<CacheStats>,
}

/// Runs every library of `plan` under `config`.
///
/// `jobs` workers claim libraries from one shared index over the
/// largest-first order (each library's own inference-stage parallelism is
/// governed by [`AnalysisOptions::jobs`]). Results land in per-library
/// slots, so *which worker finishes first never changes the output* — the
/// reducer sees plan order regardless of arrival order.
pub fn execute(plan: &SweepPlan, config: &MapConfig) -> Result<MapOutput, ApiError> {
    let _span = telemetry::span_with("sweep.map", || {
        vec![
            ("shards", plan.shards.len().to_string()),
            ("libraries", plan.libraries.len().to_string()),
        ]
    });
    let start = Instant::now();
    let location = ServiceConfig {
        cache_dir: config.cache_dir.clone(),
        cache_url: config.cache_url.clone(),
        batch_jobs: 0,
    }
    .cache_location()?;
    // Open the backend up front in both modes: the service needs it, and
    // in child mode this validates the directory or daemon once instead
    // of letting every child fail on it.
    let service = match &config.mode {
        MapMode::InProcess => Some(AnalysisService::with_config(ServiceConfig {
            cache_dir: config.cache_dir.clone(),
            cache_url: config.cache_url.clone(),
            batch_jobs: 0,
        })?),
        MapMode::ChildProcess { .. } => {
            if let Some(location) = &location {
                // Opening a local store also persists the index, so
                // children racing on a fresh store can never mistake each
                // other's entries for an interrupted unversioned store.
                open_backend(location, &analyzer_cache_version()).map_err(|e| ApiError::Cache {
                    dir: location.to_string(),
                    message: e.to_string(),
                })?;
            }
            None
        }
    };

    let n_libraries = plan.libraries.len();
    let cores = available_cores();
    let width = if config.jobs > 0 { config.jobs } else { cores }.clamp(1, n_libraries.max(1));
    let infer_jobs =
        if config.options.jobs == 0 { fair_share_jobs(cores, width) } else { config.options.jobs };

    // Largest first, ties by name: the stable sort keeps plan (name) order.
    let mut order: Vec<usize> = (0..n_libraries).collect();
    order.sort_by_key(|&member| std::cmp::Reverse(plan.libraries[member].lines));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<LibraryReport, SweepFailure>>>> =
        (0..n_libraries).map(|_| Mutex::new(None)).collect();
    let retries_used = AtomicUsize::new(0);

    let critical_path_seconds = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    let mut path = 0.0f64;
                    while let Some(&member) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let result = run_with_retries(
                            plan,
                            member,
                            service.as_ref(),
                            config,
                            infer_jobs,
                            &retries_used,
                        );
                        if let Ok(report) = &result {
                            path += report.exec.work_seconds;
                        }
                        *slots[member].lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(result);
                    }
                    // Scoped joins don't wait for thread-local teardown, so
                    // the spans must be handed off before the closure ends.
                    telemetry::flush_thread();
                    path
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .fold(0.0, f64::max)
    });

    let results: Vec<Result<LibraryReport, SweepFailure>> = slots
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every planned library completed")
        })
        .collect();

    // A shard is warm when the *cache* served every member: a tier-2
    // report hit, or every function replayed from tier 1. `workers_executed
    // == 0` alone is not enough — a library with no C functions runs zero
    // workers even cold. Uncached sweeps are never warm.
    let warm = |member: &usize| match &results[*member] {
        Ok(r) => r.exec.report_hit || (r.exec.workers_executed == 0 && r.exec.cache_fn_hits > 0),
        Err(_) => false,
    };
    let shards_warm = plan
        .shards
        .iter()
        .filter(|s| location.is_some() && !s.members.is_empty() && s.members.iter().all(warm))
        .count();

    let mut stats = MapStats {
        shards_executed: plan.shards.len(),
        shards_warm,
        retries_used: retries_used.into_inner(),
        critical_path_seconds,
        wall_seconds: start.elapsed().as_secs_f64(),
        ..MapStats::default()
    };
    for result in &results {
        match result {
            Ok(report) => {
                let e = &report.exec;
                stats.workers_executed += e.workers_executed;
                stats.cache_fn_hits += e.cache_fn_hits;
                stats.cache_fn_misses += e.cache_fn_misses;
                stats.report_hits += usize::from(e.report_hit);
                stats.functions += e.functions;
                stats.passes += e.passes;
                stats.c_loc += e.c_loc;
                stats.ml_loc += e.ml_loc;
                stats.rust_loc += e.rust_loc;
                stats.work_seconds += e.work_seconds;
            }
            Err(_) => stats.libraries_failed += 1,
        }
    }

    // Occupancy after the map phase. In-process the live backend is
    // authoritative; in child mode a fresh open scans what the children
    // wrote. Either way it is a directory scan, so the numbers are
    // content-determined, not schedule-determined.
    let cache_store = match (&service, &location) {
        (Some(service), _) => service.cache_stats(),
        (None, Some(location)) => {
            open_backend(location, &analyzer_cache_version()).ok().map(|store| {
                store.adopt_orphans();
                let _ = store.flush();
                store.stats()
            })
        }
        (None, None) => None,
    };

    Ok(MapOutput { results, stats, cache_store })
}

/// Runs one library with up to [`MapConfig::retries`] extra attempts,
/// one `sweep.library` span per attempt so retries are visible in the
/// trace; counts the extra attempts in `retries_used`.
fn run_with_retries(
    plan: &SweepPlan,
    member: usize,
    service: Option<&AnalysisService>,
    config: &MapConfig,
    infer_jobs: usize,
    retries_used: &AtomicUsize,
) -> Result<LibraryReport, SweepFailure> {
    let library = &plan.libraries[member];
    let mut error = String::new();
    for attempt in 0..=config.retries {
        if attempt > 0 {
            retries_used.fetch_add(1, Ordering::Relaxed);
        }
        let _span = telemetry::span_with("sweep.library", || {
            vec![("library", library.name.clone()), ("attempt", attempt.to_string())]
        });
        match run_library(plan, member, service, config, infer_jobs) {
            Ok(report) => return Ok(report),
            Err(e) => error = e,
        }
    }
    Err(SweepFailure { library: library.name.clone(), error })
}

fn run_library(
    plan: &SweepPlan,
    member: usize,
    service: Option<&AnalysisService>,
    config: &MapConfig,
    infer_jobs: usize,
) -> Result<LibraryReport, String> {
    let library = &plan.libraries[member];
    match (service, &config.mode) {
        (Some(service), _) => {
            let Some(corpus) = &library.corpus else {
                return Err("library sources were dropped from the plan".to_string());
            };
            let mut options = config.options;
            options.jobs = infer_jobs;
            let request = AnalysisRequest::new(corpus.clone()).options(options);
            let report = service.analyze(&request).map_err(|e| e.to_string())?;
            Ok(LibraryReport::from_report(library.name.clone(), library.files.len(), &report))
        }
        (None, MapMode::ChildProcess { program }) => {
            let mut cmd = std::process::Command::new(program);
            for file in &library.files {
                cmd.arg(file);
            }
            cmd.args(["--format", "json", "--jobs", &infer_jobs.to_string()]);
            if !config.options.flow_sensitive {
                cmd.arg("--no-flow");
            }
            if !config.options.gc_effects {
                cmd.arg("--no-gc");
            }
            if let Some(dir) = &config.cache_dir {
                cmd.arg("--cache-dir").arg(dir);
            }
            if let Some(url) = &config.cache_url {
                cmd.arg("--cache-url").arg(url);
            }
            let output = cmd.output().map_err(|e| format!("cannot spawn {program:?}: {e}"))?;
            let code = output.status.code();
            if !matches!(code, Some(0 | 1)) {
                let stderr = String::from_utf8_lossy(&output.stderr);
                return Err(format!(
                    "child exited with {code:?}: {}",
                    stderr.lines().next().unwrap_or("(no stderr)")
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            LibraryReport::from_json(library.name.clone(), library.files.len(), &stdout)
        }
        (None, MapMode::InProcess) => unreachable!("in-process mode always has a service"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner;
    use std::path::Path;

    fn tree(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("ffisafe-executor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (lib, ext, c_body) in [
            ("aa", "f", "return Val_int(Int_val(n));"),
            ("bb", "g", "return Val_int(n);"), // type error
            ("cc", "h", "return Val_int(Int_val(n) + 1);"),
        ] {
            let dir = root.join(lib);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join("lib.ml"),
                format!("external {ext} : int -> int = \"ml_{ext}\"\n"),
            )
            .unwrap();
            std::fs::write(dir.join("glue.c"), format!("value ml_{ext}(value n) {{ {c_body} }}\n"))
                .unwrap();
        }
        root
    }

    #[test]
    fn in_process_map_fills_every_slot_in_plan_order() {
        let root = tree("slots");
        let plan = planner::plan(&root, 2).unwrap();
        let out = execute(&plan, &MapConfig::default()).unwrap();
        assert_eq!(out.results.len(), 3);
        let names: Vec<&str> =
            out.results.iter().map(|r| r.as_ref().unwrap().library.as_str()).collect();
        assert_eq!(names, ["aa", "bb", "cc"], "slot order == plan order");
        assert_eq!(out.results[1].as_ref().unwrap().summary.errors, 1, "bb is buggy");
        assert_eq!(out.stats.shards_executed, 2);
        assert_eq!(out.stats.shards_warm, 0, "uncached runs are never warm");
        assert_eq!(out.stats.libraries_failed, 0);
        assert!(out.stats.functions >= 3);
        assert!(out.cache_store.is_none(), "no cache dir, no occupancy");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_functionless_library_does_not_fake_shard_warmth() {
        let root = tree("mlonly");
        // an .ml-only library runs zero workers even on a cold run
        let dir = root.join("zz-mlonly");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lib.ml"), "external z : int -> int = \"ml_z\"\n").unwrap();
        let plan = planner::plan(&root, 1).unwrap();
        let config = MapConfig { cache_dir: Some(root.join(".cache")), ..MapConfig::default() };
        let cold = execute(&plan, &config).unwrap();
        assert_eq!(cold.stats.shards_warm, 0, "cold runs are never warm");
        let warm = execute(&plan, &config).unwrap();
        assert_eq!(warm.stats.shards_warm, 1, "tier-2 hits make the shard warm");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_shards_are_counted_and_run_zero_workers() {
        let root = tree("warm");
        let cache = root.join(".cache");
        let plan = planner::plan(&root, 2).unwrap();
        let config = MapConfig { cache_dir: Some(cache), ..MapConfig::default() };
        let cold = execute(&plan, &config).unwrap();
        assert_eq!(cold.stats.shards_warm, 0);
        assert!(cold.stats.workers_executed >= 3);
        let occupancy = cold.cache_store.expect("cached sweep reports occupancy");
        assert!(occupancy.entries > 0);

        let warm = execute(&plan, &config).unwrap();
        assert_eq!(warm.stats.shards_warm, 2, "every shard warm on an unchanged tree");
        assert_eq!(warm.stats.workers_executed, 0, "warm sweep runs zero workers");
        assert_eq!(warm.stats.report_hits, 3);
        let warm_occ = warm.cache_store.unwrap();
        assert_eq!(warm_occ.entries, occupancy.entries, "occupancy is content-determined");
        assert_eq!(warm_occ.live_bytes, occupancy.live_bytes);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn child_mode_spawn_failures_become_sweep_failures_after_retries() {
        let root = tree("spawnfail");
        let plan = planner::plan(&root, 1).unwrap();
        let config = MapConfig {
            mode: MapMode::ChildProcess { program: Path::new("/definitely/not/ffisafe").into() },
            retries: 1,
            cache_dir: Some(root.join(".cache")),
            ..MapConfig::default()
        };
        let out = execute(&plan, &config).unwrap();
        assert!(
            root.join(".cache/index.bin").exists(),
            "the up-front open must persist the index before children race on the store"
        );
        assert_eq!(out.stats.libraries_failed, 3);
        assert_eq!(out.stats.retries_used, 3, "one retry per library");
        for result in &out.results {
            let failure = result.as_ref().unwrap_err();
            assert!(failure.error.contains("cannot spawn"), "{failure:?}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unopenable_cache_dir_is_a_typed_error_in_both_modes() {
        let root = tree("badcache");
        let plan = planner::plan(&root, 1).unwrap();
        for mode in
            [MapMode::InProcess, MapMode::ChildProcess { program: Path::new("/bin/false").into() }]
        {
            let config = MapConfig {
                mode,
                cache_dir: Some(Path::new("/proc/definitely-unwritable/x").into()),
                ..MapConfig::default()
            };
            let err = execute(&plan, &config).unwrap_err();
            assert!(matches!(err, ApiError::Cache { .. }), "{err:?}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
