//! `ffisafe-shard`: map/reduce sharded sweeps over multi-library FFI
//! corpora.
//!
//! The PLDI'05 tool checks one OCaml/C program; ecosystem studies
//! (McCormack et al.'s sweep over thousands of FFI-using Rust libraries
//! is the model) need the same check run **continuously over a whole
//! directory tree of libraries**. This crate supplies that subsystem in
//! three layers:
//!
//! 1. **Planner** ([`planner`]) — walks a corpus root (one subdirectory
//!    per library), loads, content-fingerprints and sizes every library,
//!    groups them into contiguous name-sorted [`ShardPlan`]s and writes
//!    the versioned `sweep-manifest.json`.
//! 2. **Map executor** ([`executor`]) — runs libraries largest first from
//!    one shared queue on `jobs` workers, either in-process through one
//!    shared [`ffisafe_core::AnalysisService`] or as child `ffisafe
//!    --format json` processes, all over one shared `--cache-dir`.
//!    Unchanged (warm) libraries are served straight from the
//!    tier-1/tier-2 cache entries — zero inference workers run. Failed
//!    libraries are retried, then reported as failures instead of sinking
//!    the sweep.
//! 3. **Reducer** ([`reducer`]) — merges per-library results into one
//!    [`SweepReport`] whose rendered and JSON forms are **byte-identical**
//!    for any shard count, arrival order, worker count or map mode — and
//!    for a warm re-sweep of an unchanged tree.
//!
//! [`sweep`] composes the three; the `ffisafe sweep` CLI subcommand is a
//! thin wrapper around it.
//!
//! # Examples
//!
//! ```
//! use ffisafe_shard::{sweep, SweepConfig};
//!
//! let root = std::env::temp_dir().join(format!("ffisafe-doc-sweep-{}", std::process::id()));
//! std::fs::create_dir_all(root.join("mylib")).unwrap();
//! std::fs::write(root.join("mylib/lib.ml"), "external f : int -> int = \"ml_f\"\n").unwrap();
//! std::fs::write(
//!     root.join("mylib/glue.c"),
//!     "value ml_f(value n) { return Val_int(Int_val(n)); }\n",
//! )
//! .unwrap();
//!
//! let output = sweep(&root, &SweepConfig::default()).unwrap();
//! assert_eq!(output.report.libraries.len(), 1);
//! assert_eq!(output.report.error_count(), 0, "{}", output.report.render());
//! std::fs::remove_dir_all(&root).ok();
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod planner;
pub mod reducer;

pub use executor::{MapConfig, MapMode, MapOutput, MapStats};
pub use planner::{LibraryPlan, ShardPlan, SweepPlan, MANIFEST_SCHEMA_VERSION};
pub use reducer::{
    DiagNote, DiagRow, LibraryExec, LibraryReport, SweepFailure, SweepReport, SWEEP_SCHEMA_VERSION,
};

use ffisafe_core::{AnalysisOptions, ApiError};
use ffisafe_support::telemetry::{self, MetricsRegistry};
use std::path::{Path, PathBuf};

/// Configuration for one whole sweep (plan → map → reduce).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Shard count; `0` means one shard per library. Shards group the
    /// manifest and the warm-shard count; they do not decide what runs
    /// where.
    pub shards: usize,
    /// Libraries analyzed at once; `0` means the machine's available
    /// parallelism.
    pub jobs: usize,
    /// Shared two-tier cache store; `None` sweeps uncached.
    pub cache_dir: Option<PathBuf>,
    /// A remote cache daemon (`tcp://host:port`) instead of a local
    /// directory. Mutually exclusive with `cache_dir`.
    pub cache_url: Option<String>,
    /// In-process or child-process mapping.
    pub mode: MapMode,
    /// Semantic analysis options applied to every library.
    pub options: AnalysisOptions,
    /// Extra attempts per library after a failure.
    pub retries: usize,
    /// Where to write `sweep-manifest.json`. `None` writes it into the
    /// cache directory when one is configured, and skips it otherwise.
    pub manifest_path: Option<PathBuf>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shards: 0,
            jobs: 0,
            cache_dir: None,
            cache_url: None,
            mode: MapMode::InProcess,
            options: AnalysisOptions::default(),
            retries: 2,
            manifest_path: None,
        }
    }
}

/// The result of one sweep.
#[derive(Debug)]
pub struct SweepOutput {
    /// The deterministic reduced report.
    pub report: SweepReport,
    /// Execution accounting (varies run to run; kept out of the report).
    pub stats: MapStats,
    /// Shards planned.
    pub shard_count: usize,
    /// Libraries planned.
    pub library_count: usize,
}

impl SweepOutput {
    /// Feeds the sweep's execution stats, diagnostic totals, and shared
    /// cache occupancy into a [`MetricsRegistry`] — the single source the
    /// CLI's `--timings` renderer and the Prometheus `--metrics-out`
    /// export both draw from.
    pub fn feed_metrics(&self, reg: &mut MetricsRegistry) {
        let s = &self.stats;
        reg.set_gauge("ffisafe_sweep_shards", "Shards planned", &[], self.shard_count as f64);
        reg.set_gauge(
            "ffisafe_sweep_libraries",
            "Libraries planned",
            &[],
            self.library_count as f64,
        );
        reg.inc_counter(
            "ffisafe_sweep_shards_warm_total",
            "Shards served entirely from the shared cache",
            &[],
            s.shards_warm as u64,
        );
        reg.inc_counter(
            "ffisafe_sweep_libraries_failed_total",
            "Libraries that failed after every retry",
            &[],
            s.libraries_failed as u64,
        );
        reg.inc_counter(
            "ffisafe_sweep_retries_total",
            "Extra library attempts after a failure",
            &[],
            s.retries_used as u64,
        );
        reg.inc_counter(
            "ffisafe_sweep_workers_executed_total",
            "Functions analyzed by a live inference worker across the sweep",
            &[],
            s.workers_executed as u64,
        );
        reg.inc_counter(
            "ffisafe_sweep_cache_fn_hits_total",
            "Tier-1 function replays across the sweep",
            &[],
            s.cache_fn_hits as u64,
        );
        reg.inc_counter(
            "ffisafe_sweep_cache_fn_misses_total",
            "Tier-1 function misses across the sweep",
            &[],
            s.cache_fn_misses as u64,
        );
        reg.inc_counter(
            "ffisafe_sweep_report_hits_total",
            "Libraries served whole from the tier-2 report cache",
            &[],
            s.report_hits as u64,
        );
        reg.set_gauge(
            "ffisafe_sweep_functions",
            "C function definitions analyzed across the sweep",
            &[],
            s.functions as f64,
        );
        reg.inc_counter(
            "ffisafe_sweep_passes_total",
            "Fixpoint passes across the sweep",
            &[],
            s.passes as u64,
        );
        reg.set_gauge("ffisafe_sweep_ml_loc", "Lines of OCaml swept", &[], s.ml_loc as f64);
        reg.set_gauge("ffisafe_sweep_c_loc", "Lines of C swept", &[], s.c_loc as f64);
        reg.set_gauge("ffisafe_sweep_rust_loc", "Lines of Rust swept", &[], s.rust_loc as f64);
        reg.set_gauge(
            "ffisafe_sweep_wall_seconds",
            "Wall-clock seconds for the whole sweep",
            &[],
            s.wall_seconds,
        );
        reg.set_gauge(
            "ffisafe_sweep_work_seconds",
            "Total inference work across the sweep",
            &[],
            s.work_seconds,
        );
        reg.set_gauge(
            "ffisafe_sweep_critical_path_seconds",
            "Largest per-worker work sum (live critical path)",
            &[],
            s.critical_path_seconds,
        );
        reg.observe(
            "ffisafe_sweep_duration_seconds",
            "Distribution of whole-sweep wall-clock seconds",
            &[],
            telemetry::LATENCY_BUCKETS,
            s.wall_seconds,
        );
        let summary = self.report.summary();
        for (severity, count) in [
            ("error", summary.errors),
            ("warning", summary.warnings),
            ("imprecision", summary.imprecision),
            ("note", summary.notes),
        ] {
            reg.inc_counter(
                "ffisafe_diagnostics_total",
                "Findings by severity",
                &[("severity", severity)],
                count as u64,
            );
        }
        if let Some(cache_store) = &self.report.cache_store {
            cache_store.feed_metrics(reg);
        }
    }
}

/// Plans, maps and reduces one sweep over the corpus rooted at `root`.
///
/// Fails only on whole-sweep setup problems (unreadable root, unopenable
/// cache backend, unwritable manifest); per-library problems — an
/// unloadable subtree at plan time, analysis failures after every retry —
/// are *reported* in [`SweepReport::failures`] so one broken library
/// cannot sink a thousand-library sweep.
pub fn sweep(root: &Path, config: &SweepConfig) -> Result<SweepOutput, ApiError> {
    let mut plan = planner::plan(root, config.shards)?;
    let manifest_path = config
        .manifest_path
        .clone()
        .or_else(|| config.cache_dir.as_ref().map(|dir| dir.join("sweep-manifest.json")));
    if let Some(path) = &manifest_path {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| ApiError::Io {
                path: parent.display().to_string(),
                message: e.to_string(),
            })?;
        }
        std::fs::write(path, plan.manifest_json()).map_err(|e| ApiError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
    }

    if matches!(config.mode, MapMode::ChildProcess { .. }) {
        // Children re-read sources from disk; keeping the whole corpus
        // text resident would scale memory with the ecosystem size.
        plan.drop_sources();
    }

    let map_config = MapConfig {
        mode: config.mode.clone(),
        jobs: config.jobs,
        cache_dir: config.cache_dir.clone(),
        cache_url: config.cache_url.clone(),
        options: config.options,
        retries: config.retries,
    };
    let output = executor::execute(&plan, &map_config)?;

    let mut libraries = Vec::new();
    let mut failures = plan.failures.clone();
    for result in output.results {
        match result {
            Ok(report) => libraries.push(report),
            Err(failure) => failures.push(failure),
        }
    }

    Ok(SweepOutput {
        report: SweepReport::reduce(libraries, failures, output.cache_store),
        stats: output.stats,
        shard_count: plan.shards.len(),
        library_count: plan.libraries.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(tag: &str, libs: usize) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("ffisafe-sweep-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for i in 0..libs {
            let dir = root.join(format!("lib{i:02}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join("lib.ml"),
                format!("external f{i} : int -> int = \"ml_f{i}\"\n"),
            )
            .unwrap();
            // odd libraries carry a Val_int confusion (one error each)
            let body = if i % 2 == 1 {
                format!("value ml_f{i}(value n) {{ return Val_int(n); }}\n")
            } else {
                format!("value ml_f{i}(value n) {{ return Val_int(Int_val(n)); }}\n")
            };
            std::fs::write(dir.join("glue.c"), body).unwrap();
        }
        root
    }

    #[test]
    fn sweep_reduces_identically_across_shard_counts_and_jobs() {
        let root = tree("shardcounts", 5);
        let baseline =
            sweep(&root, &SweepConfig { shards: 1, jobs: 1, ..SweepConfig::default() }).unwrap();
        assert_eq!(baseline.library_count, 5);
        assert_eq!(baseline.report.error_count(), 2, "{}", baseline.report.render());
        for (shards, jobs) in [(2, 1), (2, 4), (8, 3), (0, 2)] {
            let other =
                sweep(&root, &SweepConfig { shards, jobs, ..SweepConfig::default() }).unwrap();
            assert_eq!(
                baseline.report.to_json(),
                other.report.to_json(),
                "shards={shards} jobs={jobs}"
            );
            assert_eq!(baseline.report.render(), other.report.render());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_lands_in_the_cache_dir_by_default() {
        let root = tree("manifest", 2);
        let cache = root.join(".cache");
        let config = SweepConfig { cache_dir: Some(cache.clone()), ..SweepConfig::default() };
        let output = sweep(&root, &config).unwrap();
        assert_eq!(output.library_count, 2);
        let manifest = std::fs::read_to_string(cache.join("sweep-manifest.json")).unwrap();
        assert!(manifest.contains("\"manifest_schema_version\": 3"));
        assert!(output.report.cache_store.is_some());
        let _ = std::fs::remove_dir_all(&root);
    }
}
