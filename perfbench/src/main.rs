//! `perfbench` — the ffisafe benchmark: verdict latency and throughput on
//! three seeded workloads, and a traced run that times every layer.
//!
//! ```text
//! perfbench --workload edit-loop|warm-burst|cold-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root (it reads `examples/corpora` and works
//! under `.bench_work/`). Progress, failures and the per-layer table go to
//! stderr; the last line of stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones and writes a Chrome
//! trace under `.bench_work/traces/`. `perfbench/NOTES.md` explains the
//! workloads, the metrics and the baseline findings.

mod daemon;
mod inputs;
mod replay;
mod score;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client resubmitting ftplib with one C body edited per request.
    EditLoop,
    /// Two clients drawing warmed libraries (4 in 5) and fresh variants.
    WarmBurst,
    /// Whole-tree sharded sweeps over fresh cache stores.
    ColdSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "edit-loop" => Some(Workload::EditLoop),
            "warm-burst" => Some(Workload::WarmBurst),
            "cold-sweep" => Some(Workload::ColdSweep),
            _ => None,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. The first
    /// set-up is the one the measured phase runs on; the others follow the
    /// measured phase, so they sample the host at another moment than the
    /// first and their daemons stay out of `peak_rss_mb`. An `edit-loop`
    /// set-up is one ≈0.15 s analysis; the others take about two seconds.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::EditLoop => 11,
            Workload::WarmBurst | Workload::ColdSweep => 3,
        }
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EditLoop => "edit-loop",
            Workload::WarmBurst => "warm-burst",
            Workload::ColdSweep => "cold-sweep",
        }
    }
}

/// One run's result.
pub struct Outcome {
    /// Every verdict matched its known answer and every check held.
    pub correct: bool,
    /// Requests (libraries, for `cold-sweep`) attempted while measuring.
    pub attempted: u64,
    /// Of those, failed: error or BUSY reply, transport failure, or a
    /// verdict that differs from the known answer.
    pub failed: u64,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
    /// `(name, value, unit)`, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Prints each failed request (or library) on stderr, seed included.
pub fn report_failures(failures: &[String]) {
    for f in failures {
        eprintln!("FAILED {f}");
    }
}

/// Writes the Chrome trace and the per-layer table of a traced run under
/// `.bench_work/traces/`, and prints the table to stderr. A trace that
/// would fail `trace_check`'s nesting check is a problem of the run.
pub fn write_trace_outputs(
    workload: Workload,
    seed: u64,
    layers: &trace::Layers,
    table: &str,
    problems: &mut Vec<String>,
) {
    eprint!("{table}");
    let dir = Path::new(".bench_work/traces");
    let stem = format!("{}-seed{seed}", workload.name());
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), table))
        .and_then(|()| layers.write_chrome_trace(&dir.join(format!("{stem}.trace.json"))));
    match written {
        Ok(events) => eprintln!(
            "trace: {} ({events} spans)",
            dir.join(format!("{stem}.trace.json")).display()
        ),
        Err(e) => problems.push(format!("trace output: {e}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload edit-loop|warm-burst|cold-sweep --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work: PathBuf = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = std::fs::create_dir_all(&work).and_then(|()| match (args.workload, args.trace) {
        (Workload::ColdSweep, false) => sweep::run(args.seed, args.seconds, &work),
        (Workload::ColdSweep, true) => sweep::run_traced(args.seed, args.seconds, &work),
        (w, false) => daemon::run(w, args.seed, args.seconds, &work),
        (w, true) => daemon::run_traced(w, args.seed, args.seconds, &work),
    });
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("PROBLEM {p}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_junk() {
        let argv: Vec<String> =
            ["--workload", "cold-sweep", "--seed", "3", "--seconds", "10", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload, Workload::ColdSweep);
        assert!(args.trace);
        assert!(parse_args(&argv[..4]).is_err(), "seconds missing");
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
    }

    #[test]
    fn outcome_json_has_exactly_the_contract_keys() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            problems: vec![],
            metrics: vec![("setup_s", 0.25, "s")],
        };
        assert_eq!(
            out.to_json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
