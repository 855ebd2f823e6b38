//! The `ffisafe` command-line tool: analyze OCaml + C glue sources, or
//! sweep a whole directory tree of libraries.
//!
//! ```text
//! ffisafe [--no-flow] [--no-gc] [--jobs N] [--cache-dir DIR|--cache-url URL]
//!         [--no-cache] [--cache-stats] [--format text|json] [--timings]
//!         [--trace-out FILE] [--metrics-out FILE] <file.ml|file.rs|file.c|dir>...
//! ffisafe sweep [--shards N] [--jobs N] [--cache-dir DIR|--cache-url URL]
//!         [--no-cache] [--mode in-process|child]
//!         [--manifest FILE] [--retries N] [--no-flow] [--no-gc]
//!         [--format text|json] [--timings] [--trace-out FILE]
//!         [--metrics-out FILE] <root>
//! ffisafe cache-serve --cache-dir DIR [--listen ADDR]
//!         [--log-level error|warn|info|debug] [--trace-out FILE]
//!         [--metrics-out FILE]
//! ffisafe serve [--listen ADDR] [--cache-dir DIR|--cache-url URL]
//!         [--max-inflight N] [--queue N] [--watch ROOT]
//!         [--watch-interval-ms N] [--log-level error|warn|info|debug]
//!         [--trace-out FILE] [--metrics-out FILE]
//! ffisafe client --server-url tcp://HOST:PORT [--no-flow] [--no-gc]
//!         [--jobs N] [--no-cache] [--format text|json] <file|dir>...
//! ```
//!
//! Exit-code policy (also documented in `--help` and the README):
//!
//! * `0` — analysis ran and found no errors;
//! * `1` — analysis ran and found errors (for `sweep`: in any library);
//! * `2` — usage or I/O problem (bad flag, unreadable input, unknown file
//!   kind, unopenable cache directory), or — for `sweep` — a library that
//!   still failed after every retry; the analysis did not fully complete.
//!
//! stdout carries the report and nothing else — with `--format json` it is
//! exactly one parseable JSON document (`schema_version` for single runs,
//! `sweep_schema_version` for sweeps), byte-identical for a sweep at any
//! `--shards`, `--jobs` or `--mode`. All progress, timing and diagnostic
//! chatter goes to stderr.

use ffisafe::shard::{sweep, MapMode, SweepConfig};
use ffisafe::support::telemetry::{self, LogLevel, MetricsRegistry};
use ffisafe::support::wire::{Daemon, Handler};
use ffisafe::{
    AnalysisOptions, AnalysisRequest, AnalysisService, CacheMode, Corpus, ServiceConfig,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: ffisafe [options] <file.ml|file.rs|file.c|dir>...
       ffisafe sweep [options] <root>
       ffisafe cache-serve --cache-dir DIR [--listen ADDR]
       ffisafe serve [--listen ADDR] [--cache-dir DIR] [--watch ROOT]
       ffisafe client --server-url tcp://HOST:PORT <file|dir>...

Checks type and GC safety of OCaml-to-C foreign function calls
(Furr & Foster, PLDI 2005) and layout safety of Rust extern \"C\"
boundaries against the same C sources. A directory argument loads
every .ml/.rs/.c file under it; `ffisafe sweep` analyzes a directory *of libraries*
(one subdirectory each) with sharded map/reduce execution;
`ffisafe cache-serve` exports a cache directory over TCP so
multiple processes or machines share one logical store;
`ffisafe serve` keeps a resident analysis daemon warm and
`ffisafe client` (or `--server-url` on a plain run) submits to it.

options:
  --no-flow     disable the flow-sensitive dataflow analysis
  --no-gc       disable GC effect tracking and registration checks
  --jobs N, -j N
                inference worker threads (default: all cores); for sweep:
                libraries analyzed at once, largest first
  --cache-dir DIR
                two-tier incremental-reanalysis cache: unchanged corpora
                replay their report, unchanged functions skip inference;
                sweeps share it across every shard and child process
  --cache-url tcp://HOST:PORT
                use a remote cache daemon (see `ffisafe cache-serve`)
                instead of a local directory
  --no-cache    ignore --cache-dir/--cache-url (force a cold run)
  --cache-stats print cache store occupancy (entries, live bytes,
                evictions) and hit/miss counters to stderr
  --format text|json
                report format on stdout (default: text); json emits the
                versioned structured report (schema_version 1 / sweep
                schema 1) and nothing else on stdout
  --timings     print the run's metrics registry (per-phase wall/work
                timings, cache hit/miss counters, ...) to stderr
  --trace-out FILE
                record tracing spans and write them as Chrome
                trace-event JSON (chrome://tracing, Perfetto) on exit
  --metrics-out FILE
                write the run's metrics registry in Prometheus text
                exposition format on exit
  --version     print version and exit
  --help, -h    print this help

sweep options:
  --shards N    shard count (default 0 = one shard per library); shards
                group sweep-manifest.json and the warm-shard count
  --mode in-process|child
                run libraries in this process (default) or as child
                ffisafe processes over the shared --cache-dir
  --manifest FILE
                where to write sweep-manifest.json (default:
                <cache-dir>/sweep-manifest.json when --cache-dir is set)
  --retries N   extra attempts per failed library (default 2)

cache-serve options:
  --cache-dir DIR
                the cache directory to export (required)
  --listen ADDR TCP address to bind (default 127.0.0.1:0); the chosen
                tcp:// URL is printed to stdout
  --log-level error|warn|info|debug
                stderr log verbosity (default info): session open/
                refuse, per-op detail at debug, degraded operations
  --trace-out FILE
                rewrite a Chrome trace-event snapshot of the daemon's
                spans after each client session
  --metrics-out FILE
                rewrite a Prometheus metrics snapshot after each client
                session (same text the METRICS wire op serves)

serve options:
  --listen ADDR TCP address to bind (default 127.0.0.1:0); the chosen
                tcp:// URL is printed to stdout
  --cache-dir DIR | --cache-url tcp://HOST:PORT
                shared analysis cache behind the daemon (warm
                resubmissions replay their report without inference)
  --max-inflight N
                concurrent analyses admitted (default 0 = one per core);
                admitted auto-jobs requests split the cores fairly
  --queue N     analyses allowed to wait for a slot before the daemon
                answers BUSY (default 16)
  --watch ROOT  poll ROOT for content changes, re-analyze on change, and
                stream diagnostics to subscribed clients
  --watch-interval-ms N
                watch poll interval (default 500)
  --log-level, --trace-out, --metrics-out
                as for cache-serve

client options (also usable on a plain `ffisafe` run):
  --server-url tcp://HOST:PORT
                submit the corpus to a resident `ffisafe serve` daemon
                instead of analyzing in-process; output and exit codes
                are identical to a local run. BUSY daemons are retried
                briefly, then reported as exit 2. Mutually exclusive
                with --cache-dir/--cache-url (the daemon owns the cache).

exit status:
  0  analysis completed, no errors found
  1  analysis completed, errors found
  2  usage or I/O problem, or a library failed after every retry";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// How a subcommand ends: `Ok` carries the status of a completed run,
/// `Err` an early exit (a usage or I/O error, `--help`, `--version`).
type Exit = Result<ExitCode, ExitCode>;

fn usage_error(message: &str) -> ExitCode {
    eprintln!("ffisafe: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// An I/O or setup failure: the message alone, exit 2.
fn io_error(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("ffisafe: {message}");
    ExitCode::from(2)
}

/// The common flags `ffisafe <files>`, `client` and `sweep` accept.
const RUN_FLAGS: &[&str] = &[
    "--no-flow",
    "--no-gc",
    "--jobs",
    "-j",
    "--cache-dir",
    "--cache-url",
    "--no-cache",
    "--cache-stats",
    "--format",
    "--timings",
    "--trace-out",
    "--metrics-out",
];

/// The common flags `cache-serve` accepts.
const CACHE_SERVE_FLAGS: &[&str] =
    &["--cache-dir", "--listen", "--log-level", "--trace-out", "--metrics-out"];

/// The common flags `serve` accepts.
const SERVE_FLAGS: &[&str] =
    &["--cache-dir", "--cache-url", "--listen", "--log-level", "--trace-out", "--metrics-out"];

type Args<'a> = dyn Iterator<Item = String> + 'a;

/// The next argument as a flag's value, or a usage error saying what the
/// flag needs.
fn value(args: &mut Args<'_>, missing: &str) -> Result<String, ExitCode> {
    args.next().ok_or_else(|| usage_error(missing))
}

/// The next argument parsed as a number, or a usage error.
fn number<T: std::str::FromStr>(args: &mut Args<'_>, missing: &str) -> Result<T, ExitCode> {
    args.next().and_then(|v| v.parse().ok()).ok_or_else(|| usage_error(missing))
}

/// An argument no flag claimed: an input path, or a usage error when it
/// looks like an option.
fn positional(arg: &str, paths: &mut Vec<String>) -> Result<(), ExitCode> {
    if arg.starts_with('-') && arg.len() > 1 {
        return Err(usage_error(&format!("unknown option `{arg}`")));
    }
    paths.push(arg.to_string());
    Ok(())
}

/// The flags several subcommands share, parsed in one place. Each
/// subcommand names the ones it accepts; `--help` and `--version` work
/// everywhere.
struct CommonFlags {
    /// `--no-flow`, `--no-gc` and `--jobs`/`-j`.
    options: AnalysisOptions,
    cache_dir: Option<PathBuf>,
    cache_url: Option<String>,
    no_cache: bool,
    cache_stats: bool,
    format: Format,
    timings: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    log_level: LogLevel,
    listen: String,
}

impl CommonFlags {
    /// Parses `args` left to right: the common flags in `accepted` land
    /// here, and every other argument goes to `own` with the remaining
    /// arguments, so it can take a value.
    fn parse(
        args: &[String],
        accepted: &[&str],
        mut own: impl FnMut(&str, &mut Args<'_>) -> Result<(), ExitCode>,
    ) -> Result<CommonFlags, ExitCode> {
        let mut flags = CommonFlags {
            options: AnalysisOptions::default(),
            cache_dir: None,
            cache_url: None,
            no_cache: false,
            cache_stats: false,
            format: Format::Text,
            timings: false,
            trace_out: None,
            metrics_out: None,
            log_level: LogLevel::Info,
            listen: "127.0.0.1:0".to_string(),
        };
        let mut args = args.iter().cloned();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--version" | "-V" => {
                    println!("ffisafe {}", env!("CARGO_PKG_VERSION"));
                    return Err(ExitCode::SUCCESS);
                }
                "--help" | "-h" => {
                    println!("{USAGE}");
                    return Err(ExitCode::SUCCESS);
                }
                flag if !accepted.contains(&flag) => own(flag, &mut args)?,
                "--no-flow" => flags.options.flow_sensitive = false,
                "--no-gc" => flags.options.gc_effects = false,
                "--no-cache" => flags.no_cache = true,
                "--cache-stats" => flags.cache_stats = true,
                "--timings" => flags.timings = true,
                "--jobs" | "-j" => {
                    flags.options.jobs = number(&mut args, "--jobs requires a positive integer")?;
                    if flags.options.jobs == 0 {
                        return Err(io_error("--jobs requires a positive integer"));
                    }
                }
                "--cache-dir" => {
                    flags.cache_dir =
                        Some(value(&mut args, "--cache-dir requires a directory")?.into())
                }
                "--cache-url" => {
                    flags.cache_url =
                        Some(value(&mut args, "--cache-url requires a tcp://host:port URL")?)
                }
                "--format" => flags.format = parse_format(args.next().as_deref())?,
                "--trace-out" => {
                    flags.trace_out =
                        Some(value(&mut args, "--trace-out requires a file path")?.into())
                }
                "--metrics-out" => {
                    flags.metrics_out =
                        Some(value(&mut args, "--metrics-out requires a file path")?.into())
                }
                "--log-level" => {
                    flags.log_level =
                        args.next().as_deref().and_then(LogLevel::parse).ok_or_else(|| {
                            usage_error("--log-level expects `error`, `warn`, `info`, or `debug`")
                        })?
                }
                "--listen" => {
                    flags.listen = value(&mut args, "--listen requires a host:port address")?
                }
                other => own(other, &mut args)?,
            }
        }
        Ok(flags)
    }

    /// Turns span recording on when a trace was asked for.
    fn start_tracing(&self) {
        if self.trace_out.is_some() {
            telemetry::set_tracing(true);
        }
    }
}

fn parse_format(value: Option<&str>) -> Result<Format, ExitCode> {
    match value {
        Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some(other) => {
            Err(usage_error(&format!("--format expects `text` or `json`, got `{other}`")))
        }
        None => Err(usage_error("--format requires `text` or `json`")),
    }
}

fn print_cache_stats(stats: Option<ffisafe::cache::CacheStats>) {
    match stats {
        Some(s) => {
            eprintln!(
                "{:>12}: {} entry(ies), {} live byte(s), {} eviction(s)",
                "cache store", s.entries, s.live_bytes, s.evictions
            );
            eprintln!(
                "{:>12}: fn {}/{} hit/miss, report {}/{} hit/miss, {} corrupt",
                "cache ops", s.fn_hits, s.fn_misses, s.report_hits, s.report_misses, s.corrupt
            );
        }
        None => eprintln!("{:>12}: disabled (no --cache-dir)", "cache store"),
    }
}

/// Writes the side-channel telemetry files requested via `--trace-out` /
/// `--metrics-out`. These never touch stdout, so the report bytes stay
/// identical whether or not telemetry is enabled; a write failure is an
/// I/O error (exit 2) like any other unusable output path.
fn write_telemetry_outputs(
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
    registry: &MetricsRegistry,
) -> Result<(), ExitCode> {
    if let Some(path) = trace_out {
        telemetry::flush_thread();
        let spans = telemetry::drain_spans();
        std::fs::write(path, telemetry::chrome_trace_json(&spans))
            .map_err(|e| io_error(format!("cannot write trace to {}: {e}", path.display())))?;
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, registry.to_prometheus())
            .map_err(|e| io_error(format!("cannot write metrics to {}: {e}", path.display())))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exit = match args.first().map(String::as_str) {
        Some("sweep") => sweep_main(&args[1..]),
        Some("cache-serve") => cache_serve_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        // `client` is analyze with a mandatory daemon; same flags, same
        // output, same exit codes.
        Some("client") => analyze_main(&args[1..], true),
        _ => analyze_main(&args, false),
    };
    exit.unwrap_or_else(|code| code)
}

// ---- the daemons: `ffisafe serve` and `ffisafe cache-serve` ---------------

/// The start-up both daemons share: log level, bind, tracing, snapshot
/// paths, the chosen `tcp://` URL on stdout, then serve until the
/// listener fails.
fn run_daemon<H: Handler>(
    flags: CommonFlags,
    bind: impl FnOnce(&str) -> std::io::Result<Daemon<H>>,
) -> Exit {
    telemetry::set_log_level(flags.log_level);
    let mut daemon = bind(&flags.listen)
        .map_err(|e| io_error(format!("cannot start daemon on {}: {e}", flags.listen)))?;
    flags.start_tracing();
    if let Some(path) = flags.trace_out {
        daemon.set_trace_out(path);
    }
    if let Some(path) = flags.metrics_out {
        daemon.set_metrics_out(path);
    }
    let addr = daemon
        .local_addr()
        .map_err(|e| io_error(format!("cannot resolve listening address: {e}")))?;
    // The chosen URL goes to *stdout* (and is flushed by println) so
    // scripts binding port 0 can capture it; chatter stays on stderr.
    println!("tcp://{addr}");
    daemon.serve().map_err(|e| io_error(format!("{}: {e}", H::NAME)))?;
    Ok(ExitCode::SUCCESS)
}

fn serve_main(args: &[String]) -> Exit {
    let mut config = ffisafe::ServeConfig::default();
    let flags = CommonFlags::parse(args, SERVE_FLAGS, |arg, args| {
        match arg {
            "--max-inflight" => {
                config.max_inflight = number(args, "--max-inflight requires an integer")?
            }
            "--queue" => config.queue_depth = number(args, "--queue requires an integer")?,
            "--watch" => {
                config.watch_root = Some(value(args, "--watch requires a directory")?.into())
            }
            "--watch-interval-ms" => {
                let ms = number(args, "--watch-interval-ms requires an integer")?;
                config.watch_interval = std::time::Duration::from_millis(ms);
            }
            other => return Err(usage_error(&format!("unknown serve argument `{other}`"))),
        }
        Ok(())
    })?;
    if let Some(root) = config.watch_root.as_deref().filter(|root| !root.is_dir()) {
        return Err(io_error(format!("--watch root {} is not a directory", root.display())));
    }
    config.service.cache_dir = flags.cache_dir.clone();
    config.service.cache_url = flags.cache_url.clone();
    run_daemon(flags, |listen| ffisafe::AnalysisServer::bind(listen, config))
}

fn cache_serve_main(args: &[String]) -> Exit {
    let flags = CommonFlags::parse(args, CACHE_SERVE_FLAGS, |arg, _| {
        Err(usage_error(&format!("unknown cache-serve argument `{arg}`")))
    })?;
    let Some(dir) = flags.cache_dir.clone() else {
        return Err(usage_error("cache-serve requires --cache-dir"));
    };
    let version = ffisafe::core::pipeline::cache::analyzer_cache_version();
    let store = ffisafe::cache::CacheStore::open(&dir, &version)
        .map_err(|e| io_error(format!("cannot open cache at {}: {e}", dir.display())))?;
    run_daemon(flags, |listen| {
        let server = ffisafe::cache::CacheServer::bind(listen, store)?;
        let exporting = format!("exporting {} (Ctrl-C to stop)", dir.display());
        telemetry::log(LogLevel::Info, "cache-serve", &exporting);
        Ok(server)
    })
}

// ---- `ffisafe <files-or-dirs>` / `ffisafe client` -----------------------

fn analyze_main(args: &[String], require_server: bool) -> Exit {
    let mut server_url: Option<String> = None;
    let mut files = Vec::new();
    let flags = CommonFlags::parse(args, RUN_FLAGS, |arg, args| match arg {
        "--server-url" => {
            server_url = Some(value(args, "--server-url requires a tcp://host:port URL")?);
            Ok(())
        }
        other => positional(other, &mut files),
    })?;
    if files.is_empty() {
        return Err(io_error("no input files (try --help)"));
    }
    if require_server && server_url.is_none() {
        return Err(usage_error("client requires --server-url tcp://HOST:PORT"));
    }
    if server_url.is_some() {
        // The daemon owns the cache; a client-side cache location would
        // silently diverge from what the daemon actually used.
        if flags.cache_dir.is_some() || flags.cache_url.is_some() {
            return Err(usage_error(
                "--server-url is mutually exclusive with --cache-dir/--cache-url",
            ));
        }
        if flags.timings || flags.cache_stats {
            return Err(usage_error("--timings/--cache-stats are not available with --server-url"));
        }
    }
    flags.start_tracing();

    let mut builder = Corpus::builder();
    for path in &files {
        // A directory loads every FFI source under it (sorted); a file is
        // added as-is. A directory with *no* FFI sources is almost always
        // a typo'd path — reporting "no errors found" for it would be a
        // lie, so it is a usage error like an unknown file kind.
        let result = if Path::new(path).is_dir() {
            match ffisafe::core::source_files_under(Path::new(path)) {
                Ok(dir_files) if dir_files.is_empty() => {
                    return Err(io_error(format!(
                        "{path}: no .ml/.mli/.rs/.c/.h files under directory"
                    )));
                }
                Ok(dir_files) => {
                    dir_files.into_iter().try_fold(builder, |b, file| b.source_path(file))
                }
                Err(e) => Err(e),
            }
        } else {
            builder.source_path(path)
        };
        builder = result.map_err(io_error)?;
    }
    let corpus = builder.build();

    if let Some(url) = server_url {
        return analyze_remote(&url, &corpus, &flags);
    }

    let service = AnalysisService::with_config(ServiceConfig {
        cache_dir: if flags.no_cache { None } else { flags.cache_dir.clone() },
        cache_url: if flags.no_cache { None } else { flags.cache_url.clone() },
        batch_jobs: 0,
    })
    .map_err(io_error)?;

    let request = AnalysisRequest::new(corpus)
        .options(flags.options)
        .cache_mode(if flags.no_cache { CacheMode::Bypass } else { CacheMode::Shared });
    let report = service.analyze(&request).map_err(io_error)?;

    match flags.format {
        Format::Text => print!("{}", report.render()),
        Format::Json => print!("{}", report.to_json()),
    }
    // The --timings table and the --metrics-out file are two renderers over
    // the same registry, so they can never disagree.
    let mut registry = MetricsRegistry::new();
    if flags.timings || flags.metrics_out.is_some() {
        report.feed_metrics(&mut registry);
        if let Some(stats) = service.cache_stats() {
            stats.feed_metrics(&mut registry);
        }
    }
    if flags.timings {
        eprint!("{}", registry.render_text());
        if registry.counter("ffisafe_cache_report_hits_total", &[]).unwrap_or(0) > 0 {
            eprintln!("  cache: report tier hit (analysis skipped)");
        }
    }
    write_telemetry_outputs(flags.trace_out.as_deref(), flags.metrics_out.as_deref(), &registry)?;
    if flags.cache_stats {
        print_cache_stats(service.cache_stats());
    }
    Ok(if report.error_count() > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Submits `corpus` to a resident `ffisafe serve` daemon and renders the
/// daemon's report exactly as a local run would. BUSY replies are retried
/// briefly (the daemon advertises backpressure; a short wait usually
/// clears it), then reported as exit 2.
fn analyze_remote(url: &str, corpus: &Corpus, flags: &CommonFlags) -> Exit {
    let mut client = ffisafe::ServeClient::connect(url).map_err(io_error)?;
    let mode = if flags.no_cache { CacheMode::Bypass } else { CacheMode::Shared };
    let mut outcome = None;
    for attempt in 0..20 {
        match client.analyze(corpus, flags.options, mode).map_err(io_error)? {
            ffisafe::serve::Reply::Analyze(o) => {
                outcome = Some(*o);
                break;
            }
            ffisafe::serve::Reply::Busy { running, queued } => {
                if attempt == 0 {
                    eprintln!(
                        "ffisafe: server busy ({running} running, {queued} queued), retrying"
                    );
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            ffisafe::serve::Reply::Error { message } => {
                return Err(io_error(format!("server: {message}")));
            }
            other => return Err(io_error(format!("server sent an unexpected reply: {other:?}"))),
        }
    }
    let outcome =
        outcome.ok_or_else(|| io_error("server still busy after 20 attempts; giving up"))?;
    match flags.format {
        Format::Text => print!("{}", outcome.rendered),
        Format::Json => print!("{}", outcome.report_json),
    }
    write_telemetry_outputs(flags.trace_out.as_deref(), None, &MetricsRegistry::new())?;
    Ok(if outcome.errors > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

// ---- `ffisafe sweep <root>` ---------------------------------------------

fn sweep_main(args: &[String]) -> Exit {
    let mut config = SweepConfig::default();
    let mut child_mode = false;
    let mut roots = Vec::new();
    let flags = CommonFlags::parse(args, RUN_FLAGS, |arg, args| {
        match arg {
            "--shards" => config.shards = number(args, "--shards requires an integer")?,
            "--retries" => config.retries = number(args, "--retries requires an integer")?,
            "--manifest" => {
                config.manifest_path = Some(value(args, "--manifest requires a file path")?.into())
            }
            "--mode" => {
                child_mode = match args.next().as_deref() {
                    Some("in-process") => false,
                    Some("child") => true,
                    Some(other) => {
                        return Err(usage_error(&format!(
                            "--mode expects `in-process` or `child`, got `{other}`"
                        )));
                    }
                    None => return Err(usage_error("--mode requires `in-process` or `child`")),
                }
            }
            other => positional(other, &mut roots)?,
        }
        Ok(())
    })?;
    let [root] = roots.as_slice() else {
        return Err(usage_error("sweep expects exactly one corpus root directory"));
    };
    config.jobs = flags.options.jobs;
    config.options = AnalysisOptions { jobs: 0, ..flags.options };
    if !flags.no_cache {
        config.cache_dir = flags.cache_dir.clone();
        config.cache_url = flags.cache_url.clone();
    }
    if child_mode {
        let program = std::env::current_exe().unwrap_or_else(|_| "ffisafe".into());
        config.mode = MapMode::ChildProcess { program };
    }
    flags.start_tracing();

    let output = sweep(Path::new(root), &config).map_err(io_error)?;

    match flags.format {
        Format::Text => print!("{}", output.report.render()),
        Format::Json => print!("{}", output.report.to_json()),
    }
    // The --timings table and the --metrics-out file are two renderers over
    // the same registry, so they can never disagree.
    let mut registry = MetricsRegistry::new();
    if flags.timings || flags.metrics_out.is_some() {
        output.feed_metrics(&mut registry);
    }
    if flags.timings {
        eprint!("{}", registry.render_text());
    }
    write_telemetry_outputs(flags.trace_out.as_deref(), flags.metrics_out.as_deref(), &registry)?;
    if flags.cache_stats {
        print_cache_stats(output.report.cache_store);
    }
    for failure in &output.report.failures {
        eprintln!("ffisafe: {}: {}", failure.library, failure.error);
    }
    Ok(if !output.report.failures.is_empty() {
        ExitCode::from(2)
    } else if output.report.error_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
