//! Integration tests for the two-tier incremental-reanalysis cache:
//!
//! * a warm run on an unchanged corpus executes **zero** inference workers
//!   and renders a byte-identical report, at `--jobs 1` and `--jobs 8`;
//! * editing one C function invalidates exactly that function's tier-1
//!   entry — its siblings replay;
//! * editing a `.rs` file invalidates only the Rust boundary-check entry
//!   — every per-function OCaml/C outcome replays — and the mixed-language
//!   fingerprints are jobs-invariant;
//! * changing `AnalysisOptions` (or the analyzer version) invalidates
//!   everything;
//! * a corrupted or truncated cache file is a miss, never a crash.

use ffisafe::{AnalysisOptions, AnalysisRequest, AnalysisService, Corpus};
use std::path::{Path, PathBuf};

const ML: &str = r#"
type handle
external a : int -> int = "ml_a"
external b : int -> int = "ml_b"
external c : int -> int = "ml_c"
"#;

/// The global `value` yields a P002 imprecision report with a runtime
/// check suggestion, so suggestion replay is exercised too.
const A_C: &str = r#"
value stashed;
value ml_a(value n) { return Val_int(Int_val(n) + 1); }
"#;

const B_C_CLEAN: &str = r#"
value ml_b(value n) { return Val_int(Int_val(n) * 2); }
"#;

/// `Val_int` applied to something that is already a `value`: E001.
const B_C_BUGGY: &str = r#"
value ml_b(value n) { return Val_int(n); }
"#;

/// Buggy from the start, so the corpus always has at least one finding.
const C_C: &str = r#"
value ml_c(value n) { return Val_int(n); }
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffisafe-cache-it-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn analyze(
    corpus: &[(&str, &str)],
    options: AnalysisOptions,
    cache: Option<&Path>,
) -> ffisafe::AnalysisReport {
    let mut builder = Corpus::builder();
    for (name, src) in corpus {
        builder = if name.ends_with(".ml") {
            builder.ml_source(*name, *src)
        } else if name.ends_with(".rs") {
            builder.rust_source(*name, *src)
        } else {
            builder.c_source(*name, *src)
        };
    }
    let service = match cache {
        Some(dir) => AnalysisService::with_cache_dir(dir).expect("temp cache dir opens"),
        None => AnalysisService::new(),
    };
    service.analyze(&AnalysisRequest::new(builder.build()).options(options)).unwrap()
}

fn corpus(b_src: &str) -> Vec<(&'static str, String)> {
    vec![
        ("lib.ml", ML.to_string()),
        ("a.c", A_C.to_string()),
        ("b.c", b_src.to_string()),
        ("c.c", C_C.to_string()),
    ]
}

fn as_refs<'a>(v: &'a [(&'static str, String)]) -> Vec<(&'a str, &'a str)> {
    v.iter().map(|(n, s)| (*n, s.as_str())).collect()
}

#[test]
fn warm_unchanged_corpus_runs_zero_workers_and_is_byte_identical() {
    let dir = temp_dir("warm");
    let files = corpus(B_C_CLEAN);

    let cold = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(!cold.stats.cache_report_hit);
    assert_eq!(cold.stats.cache_fn_hits, 0);
    assert_eq!(cold.stats.workers_executed, 3, "cold run analyzes every function");
    let reference = cold.render_stable();
    assert!(reference.contains("E001"), "corpus must produce findings:\n{reference}");

    for jobs in [1, 8] {
        let warm =
            analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(jobs), Some(&dir));
        assert!(warm.stats.cache_report_hit, "unchanged corpus is a report-tier hit");
        assert_eq!(warm.stats.workers_executed, 0, "warm run must execute zero workers");
        assert_eq!(warm.render_stable(), reference, "jobs={jobs} must be byte-identical");
        assert_eq!(warm.error_count(), cold.error_count());
        assert_eq!(warm.warning_count(), cold.warning_count());
        assert_eq!(warm.imprecision_count(), cold.imprecision_count());
        // Structured diagnostics are replayed too, so downstream APIs
        // behave identically at any cache temperature.
        assert_eq!(warm.diagnostics.len(), cold.diagnostics.len());
        let cold_suggestions = cold.suggest_runtime_checks();
        assert!(!cold_suggestions.is_empty(), "global value must yield a suggestion");
        assert_eq!(warm.suggest_runtime_checks().len(), cold_suggestions.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_function_invalidates_exactly_that_entry() {
    let before = corpus(B_C_CLEAN);
    let after = corpus(B_C_BUGGY);

    // One fresh cache per worker width: prime with the clean corpus, then
    // edit `ml_b`'s body only — siblings must replay, `ml_b` must re-run.
    for jobs in [1, 8] {
        let dir = temp_dir(&format!("edit-j{jobs}"));
        let cold = analyze(&as_refs(&before), AnalysisOptions::default().with_jobs(1), Some(&dir));
        let errors_before = cold.error_count();

        let warm =
            analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(jobs), Some(&dir));
        assert!(!warm.stats.cache_report_hit, "changed corpus must miss the report tier");
        assert_eq!(warm.stats.cache_fn_hits, 2, "ml_a and ml_c replay (jobs={jobs})");
        assert_eq!(warm.stats.cache_fn_misses, 1, "only ml_b re-runs (jobs={jobs})");
        assert_eq!(warm.stats.workers_executed, 1);
        assert_eq!(warm.error_count(), errors_before + 1, "the new bug is found");

        // byte-identical to an uncached run of the edited corpus
        let fresh = analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(1), None);
        assert_eq!(warm.render_stable(), fresh.render_stable());

        // Reverting the edit replays everything again (entries for the
        // clean body were written by the cold run, so the report tier
        // hits and the output matches the original run exactly).
        let reverted =
            analyze(&as_refs(&before), AnalysisOptions::default().with_jobs(1), Some(&dir));
        assert!(reverted.stats.cache_report_hit);
        assert_eq!(reverted.render_stable(), cold.render_stable());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The tier-1 base digest is a digest of the *frozen post-link base
/// state*, not of the input file surface. Two properties ride on that:
/// the digest is identical whatever `--jobs` width computed it (prime the
/// cache wide, edit narrow — siblings must still replay), and identical
/// across cold and warm runs (a revert at yet another width must hit the
/// report tier, which requires bit-for-bit digest agreement).
#[test]
fn overlay_digest_is_jobs_invariant_and_matches_across_cold_and_warm() {
    let before = corpus(B_C_CLEAN);
    let after = corpus(B_C_BUGGY);
    let dir = temp_dir("overlay-digest");

    // Prime at jobs = 8.
    let cold = analyze(&as_refs(&before), AnalysisOptions::default().with_jobs(8), Some(&dir));
    assert!(!cold.stats.cache_report_hit);
    assert_eq!(cold.stats.cache_fn_misses, 3);

    // Edit one function body and replay at jobs = 1: the narrow run's
    // frozen-state digest must equal the wide run's, or the untouched
    // siblings would miss.
    let edited = analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(!edited.stats.cache_report_hit);
    assert_eq!(edited.stats.cache_fn_hits, 2, "ml_a and ml_c replay across widths");
    assert_eq!(edited.stats.cache_fn_misses, 1, "a single-body edit invalidates one entry");
    assert_eq!(edited.stats.workers_executed, 1);
    let fresh = analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(1), None);
    assert_eq!(edited.render_stable(), fresh.render_stable(), "mixed replay is byte-identical");

    // Revert at a third width: everything replays from the entries the
    // jobs=8 cold run wrote, so the report tier hits outright.
    let reverted = analyze(&as_refs(&before), AnalysisOptions::default().with_jobs(2), Some(&dir));
    assert!(reverted.stats.cache_report_hit, "cold and warm digests must agree");
    assert_eq!(reverted.stats.workers_executed, 0);
    assert_eq!(reverted.render_stable(), cold.render_stable());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Rust boundary declaration that agrees with `ml_a`'s C definition
/// (`value` parameters are opaque to the layout check).
const RS_CLEAN: &str = r#"extern "C" { fn ml_a(n: i32) -> i32; }"#;

/// The same import with a phantom second parameter: E011.
const RS_BUGGY: &str = r#"extern "C" { fn ml_a(n: i32, extra: i32) -> i32; }"#;

fn mixed_corpus(rs_src: &str) -> Vec<(&'static str, String)> {
    let mut files = corpus(B_C_CLEAN);
    files.push(("lib.rs", rs_src.to_string()));
    files
}

/// The Rust surface never reaches the frozen base-state digest, so a
/// `.rs`-only edit invalidates exactly the memoized boundary check: every
/// per-function OCaml/C outcome replays (zero workers) while the Rust
/// check re-runs — at any worker width, cold-primed or warm.
#[test]
fn rust_edit_invalidates_only_rust_entries() {
    let before = mixed_corpus(RS_CLEAN);
    let after = mixed_corpus(RS_BUGGY);

    for jobs in [1, 8] {
        let dir = temp_dir(&format!("rust-edit-j{jobs}"));
        let cold = analyze(&as_refs(&before), AnalysisOptions::default().with_jobs(1), Some(&dir));
        assert!(!cold.stats.rust_check_cached, "cold run computes the boundary check");
        assert_eq!(cold.stats.rust_externs, 1);
        let errors_before = cold.error_count();

        // Unchanged mixed corpus: report-tier hit, zero workers.
        let warm =
            analyze(&as_refs(&before), AnalysisOptions::default().with_jobs(jobs), Some(&dir));
        assert!(warm.stats.cache_report_hit, "unchanged mixed corpus hits the report tier");
        assert_eq!(warm.stats.workers_executed, 0);
        assert_eq!(warm.render_stable(), cold.render_stable());

        // Edit only the .rs file: the report tier misses, every OCaml/C
        // function entry replays, and only the Rust check recomputes.
        let edited =
            analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(jobs), Some(&dir));
        assert!(!edited.stats.cache_report_hit);
        assert_eq!(edited.stats.cache_fn_hits, 3, "all C functions replay (jobs={jobs})");
        assert_eq!(edited.stats.workers_executed, 0, "a .rs edit runs zero inference workers");
        assert!(!edited.stats.rust_check_cached, "the boundary check must recompute");
        assert_eq!(edited.error_count(), errors_before + 1, "the new E011 is found");

        // Byte-identical to an uncached run of the edited corpus.
        let fresh = analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(1), None);
        assert_eq!(edited.render_stable(), fresh.render_stable());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The Rust-check fingerprint covers the C *signature* surface, never C
/// bodies: a body-only C edit re-runs that function's inference but
/// replays the memoized Rust boundary verdict.
#[test]
fn c_body_edit_keeps_the_rust_check_memoized() {
    let dir = temp_dir("rust-c-body");
    let before = mixed_corpus(RS_CLEAN);
    let mut after = mixed_corpus(RS_CLEAN);
    for (name, src) in &mut after {
        if *name == "b.c" {
            *src = B_C_BUGGY.to_string();
        }
    }

    let cold = analyze(&as_refs(&before), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(!cold.stats.rust_check_cached);

    let edited = analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(!edited.stats.cache_report_hit);
    assert_eq!(edited.stats.cache_fn_misses, 1, "only ml_b re-runs");
    assert!(edited.stats.rust_check_cached, "a C body edit must not invalidate the Rust check");
    let fresh = analyze(&as_refs(&after), AnalysisOptions::default().with_jobs(1), None);
    assert_eq!(edited.render_stable(), fresh.render_stable());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn options_change_invalidates_everything() {
    let dir = temp_dir("options");
    let files = corpus(B_C_CLEAN);

    let cold = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert_eq!(cold.stats.cache_fn_misses, 3);

    // Different semantic options: nothing may be reused.
    let mut no_flow = AnalysisOptions::default().with_jobs(1);
    no_flow.flow_sensitive = false;
    let other = analyze(&as_refs(&files), no_flow, Some(&dir));
    assert!(!other.stats.cache_report_hit, "options are part of the report key");
    assert_eq!(other.stats.cache_fn_hits, 0, "options are part of every fingerprint");
    assert_eq!(other.stats.workers_executed, 3);

    // The original options still hit: the two keyspaces coexist.
    let warm = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(warm.stats.cache_report_hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyzer_version_change_invalidates_everything() {
    let dir = temp_dir("version");
    let files = corpus(B_C_CLEAN);
    analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));

    // Reopening the same directory as a different analyzer build wipes it.
    let store = ffisafe_cache::CacheStore::open(&dir, "ffisafe 99.0.0 schema 999").unwrap();
    assert_eq!(store.entry_count(), 0, "version mismatch wipes the store");
    drop(store);

    // The real analyzer then treats everything as a miss and recovers.
    let warm = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(!warm.stats.cache_report_hit);
    assert_eq!(warm.stats.cache_fn_hits, 0);
    assert_eq!(warm.stats.workers_executed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_files_are_misses_not_crashes() {
    let dir = temp_dir("corrupt");
    let files = corpus(B_C_CLEAN);
    let cold = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    let reference = cold.render_stable();

    // Damage every entry: truncate the tier-1 pack (one entry holds all
    // three functions), bit-flip the report entry, and scribble over the
    // index for good measure.
    let (mut packs, mut reports) = (0, 0);
    for dirent in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = dirent.path();
        let name = dirent.file_name().to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).unwrap();
        if name.starts_with("fn-") {
            std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
            packs += 1;
        } else if name.starts_with("rp-") {
            let mut b = bytes.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0xff;
            std::fs::write(&path, &b).unwrap();
            reports += 1;
        }
    }
    assert_eq!((packs, reports), (1, 1), "expected one pack entry and one report entry");

    let warm = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(!warm.stats.cache_report_hit, "corrupt report entry must miss");
    assert_eq!(warm.stats.cache_fn_hits, 0, "corrupt function entries must miss");
    assert_eq!(warm.stats.workers_executed, 3);
    assert_eq!(warm.render_stable(), reference, "recovered run is still correct");

    // The recovery run rewrote good entries: the next run hits again.
    let again = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(again.stats.cache_report_hit);
    assert_eq!(again.render_stable(), reference);

    // A trashed index alone must also degrade gracefully.
    std::fs::write(dir.join("index.bin"), b"not an index at all").unwrap();
    let rebuilt = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(1), Some(&dir));
    assert!(!rebuilt.stats.cache_report_hit, "wiped store starts cold");
    assert_eq!(rebuilt.render_stable(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `B_C_BUGGY` padded to `B_C_CLEAN`'s length: no span outside the body
/// moves, so both versions have one base digest and share one pack, but
/// their `ml_b` outcomes differ.
const B_C_BUGGY_PADDED: &str = r#"
value ml_b(value n) { return Val_int(n);              }
"#;

/// Two writers that race on one pack lose only records to misses, never
/// answers: each run replaces the pack with its own records first, so the
/// loser of a race only misses its `ml_b` next time.
#[test]
fn two_writers_of_one_pack_lose_records_not_answers() {
    let dir = temp_dir("two-writers");
    let options = AnalysisOptions::default().with_jobs(1);
    // A new trailing comment each round misses the report tier but moves
    // no span, so every round reads the pack and rewrites it when it had
    // to solve `ml_b`.
    let tagged = |b_src: &str, tag: &str| {
        let mut files = corpus(b_src);
        files[1].1.push_str(&format!("/* {tag} */\n"));
        files
    };
    let bodies = [B_C_CLEAN, B_C_BUGGY_PADDED];
    assert_eq!(B_C_CLEAN.len(), B_C_BUGGY_PADDED.len());
    let expected: Vec<String> = bodies
        .iter()
        .map(|b| analyze(&as_refs(&tagged(b, "cold")), options, None).render_stable())
        .collect();
    assert_ne!(expected[0], expected[1], "test premise: the two `ml_b` verdicts differ");
    drop(AnalysisService::with_cache_dir(&dir).expect("temp cache dir opens"));

    // The threads only collect; a failed assertion inside one would leave
    // the other waiting at the barrier.
    let barrier = std::sync::Barrier::new(bodies.len());
    let runs: Vec<Vec<(bool, usize, String)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = bodies
            .iter()
            .map(|b_src| {
                let (dir, barrier) = (&dir, &barrier);
                scope.spawn(move || {
                    (0..25)
                        .map(|round| {
                            let files = tagged(b_src, &format!("round {round}"));
                            barrier.wait();
                            let report = analyze(&as_refs(&files), options, Some(dir));
                            let stats = &report.stats;
                            (
                                stats.cache_report_hit,
                                stats.cache_fn_rejected,
                                report.render_stable(),
                            )
                        })
                        .collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("writer thread")).collect()
    });
    for (rounds, expected) in runs.iter().zip(&expected) {
        for (round, (report_hit, rejected, rendered)) in rounds.iter().enumerate() {
            assert!(!report_hit, "round {round}");
            assert_eq!(*rejected, 0, "round {round}");
            assert_eq!(rendered, expected, "round {round}");
        }
    }
    let packs = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("fn-"))
        .count();
    assert_eq!(packs, 1, "test premise: both corpora write one pack");

    for (b_src, expected) in bodies.iter().zip(&expected) {
        let warm = analyze(&as_refs(&tagged(b_src, "warm")), options, Some(&dir));
        assert!(!warm.stats.cache_report_hit);
        assert_eq!(warm.stats.cache_fn_rejected, 0);
        assert!(warm.stats.cache_fn_hits >= 2, "every pack holds ml_a and ml_c");
        assert_eq!(&warm.render_stable(), expected, "warm run equals the cold run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_disabled_runs_are_unaffected() {
    let files = corpus(B_C_CLEAN);
    let report = analyze(&as_refs(&files), AnalysisOptions::default().with_jobs(2), None);
    assert!(!report.stats.cache_report_hit);
    assert_eq!(report.stats.cache_fn_hits, 0);
    assert_eq!(report.stats.cache_fn_misses, 0, "no cache, no misses counted");
    assert_eq!(report.stats.workers_executed, 3, "every function analyzed live");
}

/// A trailing comment moves no span, so every function keeps its tier-1
/// key, and every entry must also decode. In a large program a small
/// function's signature index exceeds its payload size, which the decoder
/// once mistook for corruption: cryptokit re-solved 5 of its functions
/// after this edit and lablgtk 174.
#[test]
fn trailing_comment_edit_replays_every_function() {
    let specs = ffisafe::bench::spec::paper_benchmarks();
    let mut inputs: Vec<_> = ["cryptokit-1.2", "lablgtk-2.2.0"]
        .into_iter()
        .map(|name| {
            let spec = specs.iter().find(|s| s.name == name).expect("Figure 9 library");
            (name, ffisafe::bench::corpus::generate(spec))
        })
        .collect();
    inputs.push(("scale-12k", ffisafe::bench::runner::scaling_benchmark(12000)));
    for (name, bench) in inputs {
        let dir = temp_dir(&format!("trailing-{name}"));
        let options = AnalysisOptions::default().with_jobs(2);
        let before = [("lib.ml", bench.ml_source.clone()), ("glue.c", bench.c_source.clone())];
        let cold = analyze(&as_refs(&before), options, Some(&dir));
        assert_eq!(cold.stats.workers_executed, cold.stats.c_functions);

        let after =
            [("lib.ml", bench.ml_source.clone()), ("glue.c", bench.c_source + "/* trailing */\n")];
        let warm = analyze(&as_refs(&after), options, Some(&dir));
        assert!(!warm.stats.cache_report_hit, "{name}: the edit changes the corpus");
        assert_eq!(warm.stats.cache_fn_rejected, 0, "{name}: every store hit decodes");
        assert_eq!(warm.stats.cache_fn_hits, warm.stats.c_functions, "{name}");
        assert_eq!(warm.stats.workers_executed, 0, "{name}: every function replays");
        let reference = analyze(&as_refs(&after), options, None);
        assert_eq!(warm.render_stable(), reference.render_stable(), "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two unregistered parameters live across one allocating call: two
/// `E006` reports that share a span.
const PAIR_ML: &str = "external pair : string -> string -> string list = \"ml_pair\"\n";
const PAIR_C: &str = "value ml_pair(value a, value b) {
    value r = caml_alloc(2, 0);
    Store_field(r, 0, a);
    Store_field(r, 1, b);
    return r;
}
";

/// `json` with the value of every `…seconds` field replaced by `0`.
fn zero_timings(json: &str) -> String {
    const KEY_END: &str = "seconds\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(KEY_END) {
        out.push_str(&rest[..at + KEY_END.len()]);
        out.push('0');
        rest = rest[at + KEY_END.len()..]
            .trim_start_matches(|c: char| c.is_ascii_digit() || ".eE+-".contains(c));
    }
    out.push_str(rest);
    out
}

#[test]
fn reports_that_share_a_span_keep_one_order() {
    let before = [("lib.ml", PAIR_ML.to_string()), ("glue.c", PAIR_C.to_string())];
    let after = [("lib.ml", PAIR_ML.to_string()), ("glue.c", format!("{PAIR_C}/* trailing */\n"))];
    let options = AnalysisOptions::default();
    let reference = analyze(&as_refs(&before), options, None);
    let unrooted = reference.diagnostics.with_code(ffisafe::DiagnosticCode::UnrootedValue);
    assert_eq!(unrooted.count(), 2, "test premise: two E006 reports at one call");

    let bytes = |r: &ffisafe::AnalysisReport| (r.render_stable(), zero_timings(&r.to_json()));
    let mut expected = None;
    for run in 0..50 {
        let dir = temp_dir("pair-order");
        let cold = analyze(&as_refs(&before), options, Some(&dir));
        // The edit moves no span: every outcome replays from the store,
        // with the live names in whatever order its worker listed them.
        let warm = analyze(&as_refs(&after), options, Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(warm.stats.workers_executed, 0, "warm run {run} replays");
        let got = (bytes(&cold), bytes(&warm));
        assert_eq!(&got, expected.get_or_insert_with(|| got.clone()), "run {run}");
    }
}
