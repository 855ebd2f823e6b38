//! The stage replay: one corpus pushed through the pipeline's public stage
//! functions, in the order `AnalysisService::analyze` runs them, with a
//! span around each stage.
//!
//! The replay runs against a *twin* store that has seen the same requests
//! as the service under measurement, wrapped in [`TimedBackend`], so it
//! takes the same cache path (report hit, tier-1 hits and misses) as the
//! service did. [`check_parity`] fails the run when it did not.

use crate::trace::Recorder;
use ffisafe_cache::{CacheBackend, Tier};
use ffisafe_core::pipeline::frontend::frontend_for;
use ffisafe_core::pipeline::{
    cache, discharge, frontend_c, frontend_ml, frontend_rust, infer, CachedReport, ParsedUnit,
    PipelineCache,
};
use ffisafe_core::{AnalysisOptions, AnalysisReport, Corpus, SourceKind};
use ffisafe_shard::LibraryReport;
use ffisafe_support::{DiagnosticBag, Interner, Session, SourceMap};
use ffisafe_types::TypeTable;
use std::sync::Arc;

/// What a replay (or the service it mirrors) did, in comparable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathTaken {
    /// Served whole from the tier-2 report cache.
    pub report_hit: bool,
    /// Tier-1 hits.
    pub fn_hits: usize,
    /// Tier-1 misses.
    pub fn_misses: usize,
    /// Inference workers that ran.
    pub workers_executed: usize,
    /// Every diagnostic with its resolved location and notes, in order.
    pub diagnostics: Vec<String>,
}

impl PathTaken {
    /// The path the service took for `report`.
    pub fn of_report(report: &AnalysisReport) -> PathTaken {
        let s = &report.stats;
        PathTaken {
            report_hit: s.cache_report_hit,
            fn_hits: s.cache_fn_hits,
            fn_misses: s.cache_fn_misses,
            workers_executed: s.workers_executed,
            diagnostics: resolve(&report.diagnostics, report.source_map()),
        }
    }

    /// The path a sweep's in-process service took for one library.
    pub fn of_library(lib: &LibraryReport) -> PathTaken {
        let e = &lib.exec;
        PathTaken {
            report_hit: e.report_hit,
            fn_hits: e.cache_fn_hits,
            fn_misses: e.cache_fn_misses,
            workers_executed: e.workers_executed,
            diagnostics: lib
                .rows
                .iter()
                .map(|r| {
                    let mut key = format!(
                        "{}:{}:{}: {} [{}]: {}",
                        r.file, r.line, r.column, r.severity, r.code, r.message
                    );
                    for n in &r.notes {
                        key.push_str(&format!(
                            "\n  {}:{}:{}: {}",
                            n.file, n.line, n.column, n.message
                        ));
                    }
                    key
                })
                .collect(),
        }
    }
}

fn resolve(bag: &DiagnosticBag, map: &SourceMap) -> Vec<String> {
    bag.iter()
        .map(|d| {
            let loc = map.resolve(d.span());
            let mut key = format!(
                "{}:{}:{}: {} [{}]: {}",
                loc.file,
                loc.line,
                loc.col,
                d.severity(),
                d.code(),
                d.message()
            );
            for (span, note) in d.notes() {
                let n = map.resolve(*span);
                key.push_str(&format!("\n  {}:{}:{}: {note}", n.file, n.line, n.col));
            }
            key
        })
        .collect()
}

/// Fails unless the replay took exactly the service's path.
pub fn check_parity(service: &PathTaken, replay: &PathTaken) -> Result<(), String> {
    if service == replay {
        return Ok(());
    }
    let mut diffs = Vec::new();
    if service.report_hit != replay.report_hit {
        diffs.push(format!("report_hit {} vs {}", service.report_hit, replay.report_hit));
    }
    if (service.fn_hits, service.fn_misses) != (replay.fn_hits, replay.fn_misses) {
        diffs.push(format!(
            "tier-1 hits/misses {}/{} vs {}/{}",
            service.fn_hits, service.fn_misses, replay.fn_hits, replay.fn_misses
        ));
    }
    if service.workers_executed != replay.workers_executed {
        diffs.push(format!(
            "workers_executed {} vs {}",
            service.workers_executed, replay.workers_executed
        ));
    }
    if service.diagnostics != replay.diagnostics {
        diffs.push(format!(
            "diagnostics differ ({} vs {})",
            service.diagnostics.len(),
            replay.diagnostics.len()
        ));
    }
    Err(format!("stage replay diverged from the service: {}", diffs.join(", ")))
}

/// The interner every service request starts from: the OCaml runtime's
/// entry points, pre-interned in registry order, exactly as
/// `AnalysisService` seeds its sessions. Without it the replay's symbols
/// (and so its base-state digest and every tier-1 key) would differ from
/// the service's.
pub fn interner_seed() -> Interner {
    let mut seed = Interner::new();
    for name in ffisafe_core::registry::runtime_names() {
        seed.intern(name);
    }
    seed
}

/// Replays `corpus` stage by stage against `store`, recording one span per
/// stage into `rec`, and writes the tier-2 entry the service wrote.
/// `service_report` is the service's report for the same request when
/// there is one; its stable text goes into that entry unchanged.
pub fn replay(
    rec: &Recorder,
    seed: &Interner,
    store: Arc<dyn CacheBackend>,
    corpus: &Corpus,
    options: AnalysisOptions,
    service_report: Option<&AnalysisReport>,
) -> PathTaken {
    let mut session = Session::with_options(options);
    *session.interner_mut() = seed.clone();
    let (mut ml_files, mut c_units, mut rust_files) = (Vec::new(), Vec::new(), Vec::new());
    for file in corpus.files() {
        rec.add("frontend.parse_bytes", file.src().len() as f64);
        let layer = match file.kind() {
            SourceKind::Ml => "ocaml.parse",
            SourceKind::C => "cil.parse",
            SourceKind::Rust => "rustffi.parse",
        };
        match rec
            .span(layer, || frontend_for(file.kind()).parse(&mut session, file.name(), file.src()))
        {
            ParsedUnit::Ml(f) => ml_files.push(f),
            ParsedUnit::C(u) => c_units.push(u),
            ParsedUnit::Rust(f) => rust_files.push(f),
        }
    }

    let mut pc = PipelineCache::from_shared(store);
    let (key, cached) = rec.span("core.report_probe", || {
        let key = cache::report_key(corpus.fingerprint(), session.options());
        (key, pc.get(Tier::Report, key).and_then(|bytes| cache::decode_report(&bytes)))
    });
    rec.add("core.report_hit", f64::from(u8::from(cached.is_some())));
    if let Some(cached) = cached {
        pc.flush();
        return PathTaken {
            report_hit: true,
            fn_hits: 0,
            fn_misses: 0,
            workers_executed: 0,
            diagnostics: resolve(&cached.diagnostics, session.source_map()),
        };
    }

    let mut table = TypeTable::new();
    let ml = rec.span("core.frontend_ml", || frontend_ml::run(&mut session, &ml_files, &mut table));
    let c = rec.span("core.frontend_c", || frontend_c::run(&mut session, &c_units));
    rec.span("core.frontend_rust", || {
        frontend_rust::run(&mut session, &rust_files, &c.program, Some(&pc))
    });
    let mut base = rec.span("core.link", || infer::link(&mut session, table, &ml, &c.program));
    pc.base_digest = rec.span("core.base_digest", || {
        cache::base_state_digest(session.options(), &base, &ml.phase1)
    });
    // The fingerprints `infer::run` computes internally, timed on their own.
    rec.span("core.fn_fingerprint", || {
        for f in &c.program.functions {
            std::hint::black_box(cache::function_fingerprint(pc.base_digest, f));
        }
    });
    let inferred =
        rec.span("core.infer", || infer::run(&session, &base, &c.program, &ml.phase1, Some(&pc)));
    rec.add("core.functions", c.program.functions.len() as f64);
    rec.add("core.fn_hits", inferred.cache_hits as f64);
    rec.add("core.workers_executed", inferred.workers_executed as f64);
    rec.add("core.passes", inferred.passes as f64);
    rec.span("core.discharge", || discharge::run(&mut session, &mut base, &inferred, &ml.phase1));
    let mut diagnostics = session.take_diagnostics();
    diagnostics.dedup();

    rec.span("core.report_write", || {
        let rendered = match service_report {
            Some(report) => report.render_stable(),
            None => stable_text(&diagnostics, session.source_map(), corpus),
        };
        let entry = CachedReport {
            rendered,
            errors: diagnostics.count_errors(),
            warnings: diagnostics.count_warnings(),
            imprecision: diagnostics.count_imprecision(),
            diagnostics: diagnostics.clone(),
        };
        pc.put(Tier::Report, key, &cache::encode_report(&entry));
        pc.flush();
    });
    PathTaken {
        report_hit: false,
        fn_hits: inferred.cache_hits,
        fn_misses: inferred.cache_misses,
        workers_executed: inferred.workers_executed,
        diagnostics: resolve(&diagnostics, session.source_map()),
    }
}

/// The stable text report's layout, for the tier-2 entry of a replay that
/// has no service report to copy it from (a sweep keeps only rows).
fn stable_text(diagnostics: &DiagnosticBag, map: &SourceMap, corpus: &Corpus) -> String {
    let mut out = String::new();
    for d in diagnostics.iter() {
        let loc = map.resolve(d.span());
        out.push_str(&format!("{loc}: {} [{}]: {}\n", d.severity(), d.code(), d.message()));
        for (span, note) in d.notes() {
            out.push_str(&format!("  {}: note: {note}\n", map.resolve(*span)));
        }
    }
    let rust = if corpus.rust_loc() > 0 {
        format!(", {} lines Rust", corpus.rust_loc())
    } else {
        String::new()
    };
    out.push_str(&format!(
        "{} error(s), {} warning(s), {} imprecision report(s) — {} lines C, {} lines OCaml{rust}\n",
        diagnostics.count_errors(),
        diagnostics.count_warnings(),
        diagnostics.count_imprecision(),
        corpus.c_loc(),
        corpus.ml_loc(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{edit_job, editable_lines, figure9_job, spec};
    use crate::trace::TimedBackend;
    use ffisafe_bench::corpus::generate;
    use ffisafe_cache::CacheStore;
    use ffisafe_core::pipeline::cache::analyzer_cache_version;
    use ffisafe_core::{AnalysisRequest, AnalysisService};

    /// Parity on one library in three cache states: cold, warm (a report
    /// hit) and edited (a length-changing body edit, all tier-1 misses).
    #[test]
    fn replay_takes_the_service_path_cold_warm_and_edited() {
        let dir = std::env::temp_dir().join(format!("perfbench-parity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = AnalysisService::with_cache_dir(dir.join("service")).unwrap();
        let rec = Arc::new(Recorder::new());
        let twin: Arc<dyn CacheBackend> = Arc::new(TimedBackend::new(
            Arc::new(CacheStore::open(&dir.join("twin"), &analyzer_cache_version()).unwrap()),
            rec.clone(),
        ));
        let seed = interner_seed();
        let spec = spec("ocaml-vorbis-0.1.1");
        let bench = generate(&spec);
        let paper = figure9_job(&spec);
        let edited = edit_job(&bench, &editable_lines(&bench), 3, 1);
        let options = AnalysisOptions::default();
        let mut taken = Vec::new();
        for job in [&paper, &paper, &edited] {
            let request = AnalysisRequest::new((*job.corpus).clone()).options(options);
            let report = service.analyze(&request).unwrap();
            let service_path = PathTaken::of_report(&report);
            let replay_path =
                replay(&rec, &seed, twin.clone(), &job.corpus, options, Some(&report));
            check_parity(&service_path, &replay_path).unwrap();
            taken.push(replay_path);
        }
        assert!(!taken[0].report_hit && taken[0].fn_misses > 0 && taken[0].fn_hits == 0);
        assert!(taken[1].report_hit);
        assert!(!taken[2].report_hit && taken[2].workers_executed > 0);
        assert!(!taken[0].diagnostics.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unseeded_interner_breaks_parity() {
        let dir = std::env::temp_dir().join(format!("perfbench-unseeded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = AnalysisService::with_cache_dir(dir.join("service")).unwrap();
        let rec = Recorder::new();
        let twin: Arc<dyn CacheBackend> =
            Arc::new(CacheStore::open(&dir.join("twin"), &analyzer_cache_version()).unwrap());
        let job = figure9_job(&spec("ocaml-mad-0.1.0"));
        let options = AnalysisOptions::default();
        let request = AnalysisRequest::new((*job.corpus).clone()).options(options);
        // Warm the service and (through a seeded replay) the twin, then
        // edit so only tier-1 can hit.
        let report = service.analyze(&request).unwrap();
        replay(&rec, &interner_seed(), twin.clone(), &job.corpus, options, Some(&report));
        let bench = generate(&spec("ocaml-mad-0.1.0"));
        let mut same_length = bench.c_source.clone();
        let at = same_length.find("lib_").unwrap();
        same_length.replace_range(at..at + 4, "LIB_");
        let corpus = Corpus::builder()
            .ml_source("lib.ml", &bench.ml_source)
            .c_source("glue.c", same_length)
            .build();
        let report =
            service.analyze(&AnalysisRequest::new(corpus.clone()).options(options)).unwrap();
        assert!(report.stats.cache_fn_hits > 0, "a same-length edit replays siblings");
        let unseeded = replay(&rec, &Interner::new(), twin, &corpus, options, Some(&report));
        assert!(check_parity(&PathTaken::of_report(&report), &unseeded).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
