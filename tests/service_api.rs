//! Acceptance tests for the service API:
//!
//! * `analyze_batch` results are independent of submission order and
//!   `--jobs`, and `render()` is the stable render plus only the
//!   wall-clock suffix;
//! * the versioned JSON schema round-trips: serialize → parse →
//!   counts/diagnostics match the in-memory report;
//! * a report-tier hit, answered without parsing, matches the cold run
//!   on every example library, resolved locations included.

use ffisafe::support::json::{self, Json};
use ffisafe::{
    AnalysisOptions, AnalysisReport, AnalysisRequest, AnalysisService, Corpus, ServiceConfig,
    REPORT_SCHEMA_VERSION,
};
use ffisafe_bench::corpus::generate;
use ffisafe_bench::figure9::benchmark_corpus;
use ffisafe_bench::spec::paper_benchmarks;

#[test]
fn figure9_batch_is_order_and_jobs_invariant() {
    let specs = paper_benchmarks();
    let corpora: Vec<Corpus> = specs.iter().map(|spec| benchmark_corpus(&generate(spec))).collect();

    // Reference renders: sequential, jobs = 1.
    let service = AnalysisService::new();
    let reference: Vec<String> = corpora
        .iter()
        .map(|c| {
            let report = service
                .analyze(
                    &AnalysisRequest::new(c.clone())
                        .options(AnalysisOptions::default().with_jobs(1)),
                )
                .unwrap();
            assert_eq!(report.render(), {
                // render() differs only in the wall-clock suffix
                let mut r = report.render_stable();
                r.pop();
                r.push_str(&format!(", {:.3}s\n", report.stats.seconds));
                r
            });
            report.render_stable()
        })
        .collect();

    // Reversed submission order, jobs = 8, wide batch pool: every slot
    // must still match its corpus's reference render.
    let wide = AnalysisService::with_config(ServiceConfig {
        cache_dir: None,
        cache_url: None,
        batch_jobs: 4,
    })
    .unwrap();
    let reversed: Vec<AnalysisRequest> = corpora
        .iter()
        .rev()
        .map(|c| AnalysisRequest::new(c.clone()).options(AnalysisOptions::default().with_jobs(8)))
        .collect();
    let results = wide.analyze_batch(&reversed);
    assert_eq!(results.len(), corpora.len());
    for (slot, result) in results.iter().enumerate() {
        let original = corpora.len() - 1 - slot;
        assert_eq!(
            result.as_ref().unwrap().render_stable(),
            reference[original],
            "{}: batch at jobs=8 (reversed) diverged from sequential jobs=1",
            specs[original].name
        );
    }
}

/// Pulls `summary.<key>` out of a parsed report document.
fn summary_count(doc: &Json, key: &str) -> u64 {
    doc.get("summary")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("summary.{key} missing or not an integer"))
}

#[test]
fn json_report_round_trips() {
    // A corpus with every severity bucket: an error, an imprecision
    // (global value) and a note-carrying diagnostic set.
    let corpus = Corpus::builder()
        .ml_source(
            "lib.ml",
            r#"
type handle
external f : int -> int = "ml_f"
external g : 'a -> int = "ml_g"
"#,
        )
        .c_source(
            "glue.c",
            r#"
value stash;
value ml_f(value n) { return Val_int(n); }
value ml_g(value x) { return Val_int(Int_val(x)); }
"#,
        )
        .build();
    let report = AnalysisService::new().analyze(&AnalysisRequest::new(corpus)).unwrap();
    assert!(report.error_count() > 0, "corpus must produce findings:\n{}", report.render());

    let text = report.to_json();
    let doc = json::parse(&text).expect("to_json output must parse");

    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(REPORT_SCHEMA_VERSION as u64)
    );
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("ffisafe"));

    // Counts match the in-memory report.
    assert_eq!(summary_count(&doc, "errors"), report.error_count() as u64);
    assert_eq!(summary_count(&doc, "warnings"), report.warning_count() as u64);
    assert_eq!(summary_count(&doc, "imprecision"), report.imprecision_count() as u64);
    assert_eq!(summary_count(&doc, "diagnostics"), report.diagnostics.len() as u64);

    // Every diagnostic matches field by field, in order.
    let parsed = doc.get("diagnostics").and_then(Json::as_array).expect("diagnostics array");
    assert_eq!(parsed.len(), report.diagnostics.len());
    for (entry, diag) in parsed.iter().zip(report.diagnostics.iter()) {
        let loc = report.source_map().resolve(diag.span());
        assert_eq!(entry.get("file").and_then(Json::as_str), Some(loc.file.as_str()));
        assert_eq!(entry.get("line").and_then(Json::as_u64), Some(loc.line as u64));
        assert_eq!(entry.get("column").and_then(Json::as_u64), Some(loc.col as u64));
        assert_eq!(
            entry.get("severity").and_then(Json::as_str),
            Some(diag.severity().to_string().as_str())
        );
        assert_eq!(
            entry.get("code").and_then(Json::as_str),
            Some(diag.code().to_string().as_str())
        );
        assert_eq!(entry.get("message").and_then(Json::as_str), Some(diag.message()));
        let notes = entry.get("notes").and_then(Json::as_array).expect("notes array");
        assert_eq!(notes.len(), diag.notes().len());
        for (note_entry, (nspan, ntext)) in notes.iter().zip(diag.notes()) {
            let nloc = report.source_map().resolve(*nspan);
            assert_eq!(note_entry.get("file").and_then(Json::as_str), Some(nloc.file.as_str()));
            assert_eq!(note_entry.get("line").and_then(Json::as_u64), Some(nloc.line as u64));
            assert_eq!(note_entry.get("message").and_then(Json::as_str), Some(ntext.as_str()));
        }
    }

    // Stats and cache counters are present and coherent.
    let stats = doc.get("stats").expect("stats object");
    assert_eq!(stats.get("c_functions").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("externals").and_then(Json::as_u64), Some(2));
    let cache = stats.get("cache").expect("cache counters");
    assert_eq!(cache.get("report_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(cache.get("fn_hits").and_then(Json::as_u64), Some(0));

    // Timings list every phase in pipeline order (the Rust frontend is
    // timed even when the corpus has no .rs files).
    let timings = doc.get("timings").and_then(Json::as_array).expect("timings array");
    let phases: Vec<&str> =
        timings.iter().filter_map(|t| t.get("phase").and_then(Json::as_str)).collect();
    assert_eq!(phases, ["frontend_ml", "frontend_c", "frontend_rust", "infer", "discharge"]);
}

#[test]
fn json_report_is_stable_and_escapes_messages() {
    // One figure9 workload: the JSON body (modulo timing fields) must be
    // identical across jobs settings, and every message must survive the
    // escape → parse round trip.
    let spec = &paper_benchmarks()[0];
    let corpus = benchmark_corpus(&generate(spec));
    let service = AnalysisService::new();
    let strip_timings = |text: &str| -> String {
        text.lines().filter(|l| !l.contains("seconds")).collect::<Vec<_>>().join("\n")
    };
    let a = service
        .analyze(
            &AnalysisRequest::new(corpus.clone()).options(AnalysisOptions::default().with_jobs(1)),
        )
        .unwrap();
    let b = service
        .analyze(&AnalysisRequest::new(corpus).options(AnalysisOptions::default().with_jobs(8)))
        .unwrap();
    assert_eq!(
        strip_timings(&a.to_json()),
        strip_timings(&b.to_json()),
        "JSON body must be jobs-invariant"
    );
    let doc = json::parse(&a.to_json()).expect("parses");
    let diags = doc.get("diagnostics").and_then(Json::as_array).unwrap();
    for (entry, diag) in diags.iter().zip(a.diagnostics.iter()) {
        assert_eq!(entry.get("message").and_then(Json::as_str), Some(diag.message()));
    }
}

#[test]
fn report_hits_match_cold_runs_on_every_example_library() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/corpora");
    let mut libraries: Vec<_> =
        std::fs::read_dir(&root).unwrap().flatten().map(|d| d.path()).collect();
    libraries.sort();
    assert_eq!(libraries.len(), 6, "{libraries:?}");
    let dir = std::env::temp_dir().join(format!("ffisafe-service-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = AnalysisService::with_cache_dir(&dir).unwrap();

    // Everything a caller reads off a report except timings and the
    // work counters a hit does not have.
    let before_stats = |r: &AnalysisReport| {
        let json = r.to_json();
        json[..json.find("\"stats\"").expect("to_json has stats")].to_string()
    };
    let file_names = |r: &AnalysisReport| -> Vec<String> {
        r.source_map().files().map(|(_, f)| f.name().to_string()).collect()
    };
    let mut rust_libraries = 0;
    for library in &libraries {
        let request = AnalysisRequest::new(Corpus::from_dir(library).unwrap());
        let cold = service.analyze(&request).unwrap();
        let hit = service.analyze(&request).unwrap();
        let name = library.display();
        assert!(!cold.stats.cache_report_hit && hit.stats.cache_report_hit, "{name}");
        assert_eq!(hit.render_stable(), cold.render_stable(), "{name}");
        assert_eq!(hit.summary(), cold.summary(), "{name}");
        assert_eq!(before_stats(&hit), before_stats(&cold), "{name}");
        let loc = |r: &AnalysisReport| (r.stats.ml_loc, r.stats.c_loc, r.stats.rust_loc);
        assert_eq!(loc(&hit), loc(&cold), "{name}");
        assert_eq!(file_names(&hit), file_names(&cold), "{name}");
        rust_libraries += usize::from(cold.stats.rust_loc > 0);
    }
    assert_eq!(rust_libraries, 3, "three of the six libraries are Rust+C");
    let _ = std::fs::remove_dir_all(&dir);
}
