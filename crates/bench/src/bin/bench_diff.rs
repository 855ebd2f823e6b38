//! `bench_diff` — the perf-trajectory regression gate.
//!
//! ```text
//! bench_diff <baseline.json> <current.json>
//! ```
//!
//! Compares two `BENCH_pipeline.json` artifacts (the committed baseline
//! vs the one the bench just wrote) and fails when the trajectory
//! regresses:
//!
//! * **warm ≥ cold** — any workload in the *current* artifact whose warm
//!   (cached) run was not strictly faster than its cold run: the
//!   incremental-reanalysis subsystem stopped paying for itself;
//! * **total-work blow-up** — the current artifact's total inference work
//!   (`work_seconds` summed over the uncached `jobs = 1` rows — the sum of
//!   per-function analysis time, independent of worker count) exceeds the
//!   baseline's by more than 25%;
//! * **parallel work inflation** — on any workload in the *current*
//!   artifact with uncached rows at several worker counts, the widest
//!   row's `work_seconds` exceeds the `jobs = 1` row's by more than 1.5×:
//!   adding workers should not multiply the work itself, and a blow-up
//!   here means per-worker setup (the old snapshot-clone tax) or
//!   contention is scaling with the worker count;
//! * **telemetry overhead** — the `telemetry-on` row of the current
//!   artifact (same workload as `telemetry-off`, but with span recording
//!   enabled) must come in at ≤ 1.05× the untraced wall clock, with a
//!   small absolute excess floor so sub-second workloads don't trip the
//!   ratio on scheduler noise: tracing must stay cheap enough to leave on
//!   in production daemons;
//! * **serve warm latency** — on the `serve-load` rows (concurrent
//!   clients against a resident `ffisafe serve` daemon), the warm round's
//!   median per-request latency (`p50_seconds`) must be strictly below
//!   the cold round's: a resubmitted corpus must be answered from the
//!   report cache faster than it was first analyzed, or the daemon's
//!   reason to stay resident is gone;
//! * **large warm hits** — on the `serve-large` rows (the same daemon,
//!   sent the ~156 KB Figure 9 cryptokit corpus), the warm p50 must stay
//!   below 0.1× the cold p50: a report hit must cost time in proportion
//!   to its request bytes, not a share of an analysis;
//! * **cold-cache overhead** — on every workload of the current artifact
//!   with an uncached and a cold row at `jobs = 1` (the Figure 9
//!   libraries and `scale-12k`), the cold run, which fills a fresh store,
//!   must come in at ≤ 1.05× the uncached wall clock, with a small
//!   absolute excess floor as for telemetry: writing the cache back must
//!   cost almost nothing over not caching at all.
//!
//! `work_seconds` is jobs-independent but still wall-clock-derived, so
//! runs on different hardware (or a noisy shared runner) drift even with
//! identical code; the 25% budget is deliberately wide to absorb that.
//! CI diffs against the previous run's artifact from the same runner
//! class (carried in the actions cache), not a cross-machine baseline. A
//! red gate on an innocuous change means the runner was an outlier —
//! re-run the job before hunting a regression.
//!
//! Workloads **added or removed** between the two artifacts are
//! *informational*, never fatal: the total-work budget is computed over
//! the workload names the artifacts share, so landing a new workload row
//! (or retiring one) cannot trip the gate on its first run. A new
//! workload's warm-beats-cold invariant is still enforced immediately —
//! that check needs only the current artifact.
//!
//! Exit status: `0` healthy, `1` regression detected, `2` usage/IO/parse
//! problem.

use ffisafe_support::json::{self, Json};
use std::collections::BTreeSet;
use std::process::ExitCode;

/// Total-work budget: current may cost at most this factor of baseline.
const MAX_WORK_RATIO: f64 = 1.25;

/// Parallel inflation budget: the widest uncached run of one workload may
/// do at most this factor of its serial run's work.
const MAX_JOBS_INFLATION: f64 = 1.5;

/// Absolute floor (seconds) for the jobs-inflation gate: work totals come
/// from per-thread CPU counters whose boundary reads are accurate to a
/// scheduler event, so sub-millisecond workloads can show large *ratios*
/// from sub-tick noise. A real inflation regression must also exceed this
/// many seconds of extra work.
const MIN_JOBS_INFLATION_EXCESS: f64 = 0.010;

/// Telemetry budget: the traced run may cost at most this factor of the
/// untraced run of the same workload.
const MAX_TELEMETRY_RATIO: f64 = 1.05;

/// Absolute floor (seconds) for the telemetry gate: on a sub-second
/// workload a single scheduler quantum can exceed 5% of the wall clock,
/// so a real overhead regression must also cost this much extra time.
const MIN_TELEMETRY_EXCESS: f64 = 0.020;

/// Cold-cache budget: a run that fills a fresh store may cost at most
/// this factor of the uncached run of the same workload.
const MAX_COLD_CACHE_RATIO: f64 = 1.05;

/// Absolute floor (seconds) for the cold-cache gate: a cold run digests
/// the base state and every function and writes the store's index, one
/// pack and one report, which on a workload of a few tens of milliseconds
/// is more than 5%, so a real write-back regression must also cost this
/// much extra time. Writing one file per function instead of one pack
/// cost ftplib 33 ms.
const MIN_COLD_CACHE_EXCESS: f64 = 0.020;

/// The daemon's warm-vs-cold gates: per serve workload, the warm p50 must
/// stay below this fraction of the cold p50, or the message applies.
const SERVE_GATES: [(&str, f64, &str); 2] = [
    ("serve-load", 1.0, "warm daemon requests are no longer faster than cold ones"),
    ("serve-large", 0.1, "a warm hit on a large request costs over a tenth of a cold one"),
];

struct Row {
    name: String,
    jobs: u64,
    cache: String,
    seconds: f64,
    /// Median per-request latency of a serve-load round; 0 on single-run
    /// workloads and on artifacts written before the field existed.
    p50_seconds: f64,
    work_seconds: f64,
}

fn rows(doc: &Json, which: &str) -> Result<Vec<Row>, String> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{which}: no `rows` array"))?;
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            let field =
                |key: &str| r.get(key).ok_or_else(|| format!("{which}: rows[{i}] missing `{key}`"));
            Ok(Row {
                name: field("name")?
                    .as_str()
                    .ok_or_else(|| format!("{which}: rows[{i}].name not a string"))?
                    .to_string(),
                jobs: field("jobs")?
                    .as_u64()
                    .ok_or_else(|| format!("{which}: rows[{i}].jobs not an integer"))?,
                cache: field("cache")?
                    .as_str()
                    .ok_or_else(|| format!("{which}: rows[{i}].cache not a string"))?
                    .to_string(),
                seconds: field("seconds")?
                    .as_f64()
                    .ok_or_else(|| format!("{which}: rows[{i}].seconds not a number"))?,
                p50_seconds: r.get("p50_seconds").and_then(Json::as_f64).unwrap_or(0.0),
                work_seconds: field("work_seconds")?
                    .as_f64()
                    .ok_or_else(|| format!("{which}: rows[{i}].work_seconds not a number"))?,
            })
        })
        .collect()
}

/// Sum of `work_seconds` over the uncached serial rows of workloads in
/// `names` — the hardware-independent total-compute number the gate
/// budgets. Restricting to the shared name set keeps added/removed
/// workloads from masquerading as work regressions.
fn total_work(rows: &[Row], names: &BTreeSet<&str>) -> f64 {
    rows.iter()
        .filter(|r| names.contains(r.name.as_str()) && r.cache == "off" && r.jobs == 1)
        .map(|r| r.work_seconds)
        .sum()
}

/// Workloads whose warm run was not strictly faster than its cold run.
fn warm_regressions(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| r.cache == "cold")
        .filter_map(|cold| {
            let warm = rows.iter().find(|r| r.cache == "warm" && r.name == cold.name)?;
            (warm.seconds >= cold.seconds).then(|| {
                format!("{}: warm {:.4}s >= cold {:.4}s", cold.name, warm.seconds, cold.seconds)
            })
        })
        .collect()
}

/// Workloads whose widest uncached run does over [`MAX_JOBS_INFLATION`]×
/// the work of their serial uncached run, by more than
/// [`MIN_JOBS_INFLATION_EXCESS`] seconds. Needs only the current
/// artifact; workloads without both a `jobs = 1` and a wider uncached row
/// are skipped.
fn jobs_inflations(rows: &[Row]) -> Vec<String> {
    let names: BTreeSet<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    names
        .iter()
        .filter_map(|name| {
            let uncached = |r: &&Row| r.name == *name && r.cache == "off" && r.work_seconds > 0.0;
            let serial = rows.iter().filter(uncached).find(|r| r.jobs == 1)?;
            let widest = rows.iter().filter(uncached).max_by_key(|r| r.jobs)?;
            if widest.jobs == 1 {
                return None;
            }
            let ratio = widest.work_seconds / serial.work_seconds;
            let excess = widest.work_seconds - serial.work_seconds;
            (ratio > MAX_JOBS_INFLATION && excess > MIN_JOBS_INFLATION_EXCESS).then(|| {
                format!(
                    "{name}: jobs={} work {:.4}s is {ratio:.3}x the jobs=1 work {:.4}s",
                    widest.jobs, widest.work_seconds, serial.work_seconds
                )
            })
        })
        .collect()
}

/// Workloads whose cold `jobs = 1` run cost over [`MAX_COLD_CACHE_RATIO`]×
/// their uncached `jobs = 1` run, by more than [`MIN_COLD_CACHE_EXCESS`]
/// seconds. Needs only the current artifact; workloads without both rows
/// are skipped.
fn cold_cache_overheads(rows: &[Row]) -> Vec<String> {
    let serial = |cache: &'static str| rows.iter().filter(move |r| r.cache == cache && r.jobs == 1);
    serial("cold")
        .filter_map(|cold| {
            let off = serial("off").find(|r| r.name == cold.name && r.seconds > 0.0)?;
            let ratio = cold.seconds / off.seconds;
            let excess = cold.seconds - off.seconds;
            (ratio > MAX_COLD_CACHE_RATIO && excess > MIN_COLD_CACHE_EXCESS).then(|| {
                format!(
                    "{}: cold {:.4}s is {ratio:.3}x the uncached {:.4}s",
                    cold.name, cold.seconds, off.seconds
                )
            })
        })
        .collect()
}

/// The telemetry-overhead verdict over the current artifact, or `None`
/// when it carries no telemetry pair (older artifacts). Returns
/// `(message, failed)`.
fn telemetry_verdict(rows: &[Row]) -> Option<(String, bool)> {
    let find = |name: &str| rows.iter().find(|r| r.name == name && r.cache == "off");
    let off = find("telemetry-off")?;
    let on = find("telemetry-on")?;
    if off.seconds <= 0.0 {
        return None;
    }
    let ratio = on.seconds / off.seconds;
    let excess = on.seconds - off.seconds;
    let message = format!(
        "telemetry overhead: untraced {:.4}s -> traced {:.4}s ({ratio:.3}x, budget {MAX_TELEMETRY_RATIO:.2}x or +{MIN_TELEMETRY_EXCESS:.3}s)",
        off.seconds, on.seconds
    );
    Some((message, ratio > MAX_TELEMETRY_RATIO && excess > MIN_TELEMETRY_EXCESS))
}

/// The warm-latency verdict on serve workload `name` over the current
/// artifact, or `None` when it carries no such rows (older artifacts) or
/// the cold p50 is zero. Fails when warm p50 is not below `budget` × cold
/// p50. Returns `(message, failed)`.
fn serve_verdict(rows: &[Row], name: &str, budget: f64) -> Option<(String, bool)> {
    let find = |cache: &str| rows.iter().find(|r| r.name == name && r.cache == cache);
    let cold = find("cold")?;
    let warm = find("warm")?;
    if cold.p50_seconds <= 0.0 {
        return None;
    }
    let ratio = warm.p50_seconds / cold.p50_seconds;
    let message = format!(
        "{name} warm latency: cold p50 {:.4}s -> warm p50 {:.4}s ({ratio:.3}x, must be < {budget}x)",
        cold.p50_seconds, warm.p50_seconds
    );
    Some((message, warm.p50_seconds >= budget * cold.p50_seconds))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let (baseline_rows, current_rows) =
        match (rows(&baseline, "baseline"), rows(&current, "current")) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_diff: {e}");
                return ExitCode::from(2);
            }
        };

    let mut failed = false;

    let regressions = warm_regressions(&current_rows);
    if regressions.is_empty() {
        println!("warm < cold on every workload ({} cold/warm pairs)", {
            current_rows.iter().filter(|r| r.cache == "cold").count()
        });
    } else {
        failed = true;
        println!("REGRESSION: warm run not strictly faster than cold:");
        for r in &regressions {
            println!("  {r}");
        }
    }

    let inflations = jobs_inflations(&current_rows);
    if inflations.is_empty() {
        println!(
            "parallel work within {MAX_JOBS_INFLATION:.1}x of serial on every multi-jobs workload"
        );
    } else {
        failed = true;
        println!("REGRESSION: parallel runs inflate total work (budget {MAX_JOBS_INFLATION:.1}x):");
        for r in &inflations {
            println!("  {r}");
        }
    }

    let overheads = cold_cache_overheads(&current_rows);
    if overheads.is_empty() {
        println!(
            "cold cache within {MAX_COLD_CACHE_RATIO:.2}x (or +{MIN_COLD_CACHE_EXCESS:.3}s) of no cache on every workload"
        );
    } else {
        failed = true;
        println!("REGRESSION: filling a cold cache costs more than not caching:");
        for r in &overheads {
            println!("  {r}");
        }
    }

    match telemetry_verdict(&current_rows) {
        Some((message, telemetry_failed)) => {
            println!("{message}");
            if telemetry_failed {
                failed = true;
                println!(
                    "REGRESSION: span recording is no longer cheap enough to leave on in production"
                );
            }
        }
        None => println!("no telemetry-overhead rows in the current artifact; skipping that gate"),
    }

    for (name, budget, regression) in SERVE_GATES {
        match serve_verdict(&current_rows, name, budget) {
            Some((message, serve_failed)) => {
                println!("{message}");
                if serve_failed {
                    failed = true;
                    println!("REGRESSION: {regression}");
                }
            }
            None => println!("no {name} rows in the current artifact; skipping that gate"),
        }
    }

    let baseline_names: BTreeSet<&str> = baseline_rows.iter().map(|r| r.name.as_str()).collect();
    let current_names: BTreeSet<&str> = current_rows.iter().map(|r| r.name.as_str()).collect();
    let added: Vec<&&str> = current_names.difference(&baseline_names).collect();
    if !added.is_empty() {
        println!("workloads added since baseline (informational): {added:?}");
    }
    let removed: Vec<&&str> = baseline_names.difference(&current_names).collect();
    if !removed.is_empty() {
        println!("workloads removed since baseline (informational): {removed:?}");
    }
    let shared: BTreeSet<&str> = baseline_names.intersection(&current_names).copied().collect();

    let old_work = total_work(&baseline_rows, &shared);
    let new_work = total_work(&current_rows, &shared);
    if old_work <= 0.0 {
        println!("no shared uncached jobs=1 work rows with the baseline; skipping the work budget");
    } else {
        let ratio = new_work / old_work;
        println!(
            "total work: baseline {old_work:.4}s -> current {new_work:.4}s ({ratio:.3}x, budget {MAX_WORK_RATIO:.2}x)"
        );
        if ratio > MAX_WORK_RATIO {
            failed = true;
            println!(
                "REGRESSION: total inference work blew up by {:.1}% (> {:.0}% allowed)",
                (ratio - 1.0) * 100.0,
                (MAX_WORK_RATIO - 1.0) * 100.0
            );
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("bench trajectory healthy");
        ExitCode::SUCCESS
    }
}
