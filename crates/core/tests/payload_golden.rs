//! Golden digests of the cache payload bytes.
//!
//! The tier-1 and tier-2 payloads live in stores that outlast the binary
//! that wrote them: a store filled by one build must replay under the
//! next as long as `CACHE_SCHEMA_VERSION` is unchanged. This test pins the
//! exact bytes. For each of the 11 Figure 9 libraries and the 6
//! `examples/corpora` libraries it digests
//!
//! * every encoded tier-1 outcome of an uncached `infer::run`, in program
//!   order (an outcome that refuses to encode counts as one marker byte),
//! * the report's encoded diagnostic bag, and
//! * the encoded tier-2 entry of the report,
//!
//! and compares the digest with a recorded one. Example files are named
//! relative to `examples/corpora`, so the digests hold in any checkout.
//! Every payload must also decode, and re-encode to the same bytes. A changed digest means a changed format: bump the schema version
//! and record the new digests, never the other way round.

use ffisafe_bench::corpus::generate;
use ffisafe_bench::figure9::benchmark_corpus;
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_core::pipeline::frontend::{frontend_for, ParsedUnit};
use ffisafe_core::pipeline::{cache, frontend_c, frontend_ml, infer, CachedReport};
use ffisafe_core::{source_files_under, AnalysisOptions, AnalysisRequest, AnalysisService, Corpus};
use ffisafe_support::{FingerprintHasher, Session};
use ffisafe_types::TypeTable;
use std::path::Path;

/// `(library, digest)` in Figure 9 order, then the example corpora.
const GOLDEN: &[(&str, &str)] = &[
    ("apm-1.00", "a8cbd9ab662933959b19ceb713086a54"),
    ("camlzip-1.01", "cfb2e38621658a8b23182d44082cca90"),
    ("ocaml-mad-0.1.0", "6cc8c32e6599acf066d4c0d285903f07"),
    ("ocaml-ssl-0.1.0", "e4fffdbff7c9a7f73984822541f461b1"),
    ("ocaml-glpk-0.1.1", "6d4da4fc054c7a9a7a4df073f927fd33"),
    ("gz-0.5.5", "c5af94be7b88e283ae5c4642042f3dd2"),
    ("ocaml-vorbis-0.1.1", "83608d89fece37758ef2bd2ee5e2b3d6"),
    ("ftplib-0.12", "85758becb71043039c50578b90596c2b"),
    ("lablgl-1.00", "1fc2256d5b76f2678c5818e0c55338ae"),
    ("cryptokit-1.2", "093e19fe67a917e6878d462e3c9d9e9d"),
    ("lablgtk-2.2.0", "ad6242f75df0faebc5a4d24c19ffd965"),
    ("gadgets", "1f71b6fd9782d9b25a1ddabbee1274d3"),
    ("imgcodec", "601d5cf85fea72680575a6defac736af"),
    ("intcalc", "87f5e96970b1e5328c281a75ff9dbc4e"),
    ("meshgrid", "901418d1708f037a41bd4b66572d4fd0"),
    ("ringbuf", "f54a58d99ed22b45527eabbeb1294c96"),
    ("strutil", "e541f022b04b802724f4d3185ea9c9b1"),
];

/// Every encoded tier-1 outcome of an uncached `infer::run`, in program
/// order (`None` for an outcome that refuses to encode). Each payload must
/// decode and re-encode to the same bytes.
fn tier1_payloads(corpus: &Corpus) -> Vec<Option<Vec<u8>>> {
    let mut session = Session::with_options(AnalysisOptions::default());
    let (mut ml_files, mut c_units) = (Vec::new(), Vec::new());
    for f in corpus.files() {
        match frontend_for(f.kind()).parse(&mut session, f.name(), f.src()) {
            ParsedUnit::Ml(file) => ml_files.push(file),
            ParsedUnit::C(unit) => c_units.push(unit),
            ParsedUnit::Rust(_) => {}
        }
    }
    let mut table = TypeTable::new();
    let ml = frontend_ml::run(&mut session, &ml_files, &mut table);
    let c = frontend_c::run(&mut session, &c_units);
    let base = infer::link(&mut session, table, &ml, &c.program);
    let inferred = infer::run(&session, &base, &c.program, &ml.phase1, None);
    let n_sigs = ml.phase1.signatures.len();
    let mut out = Vec::new();
    for (idx, outcome) in inferred.outcomes.iter().enumerate() {
        let bytes = cache::encode_outcome(outcome, idx as u32);
        if let Some(bytes) = &bytes {
            let back = cache::decode_outcome(bytes, idx as u32, &outcome.name, n_sigs)
                .unwrap_or_else(|| panic!("{}: its own payload decodes", outcome.name));
            assert_eq!(cache::encode_outcome(&back, idx as u32).as_ref(), Some(bytes), "re-encode");
        }
        out.push(bytes);
    }
    out
}

fn payload_digest(corpus: &Corpus) -> String {
    let mut h = FingerprintHasher::new();

    // Tier 1: the outcomes an uncached inference stage produces.
    for bytes in tier1_payloads(corpus) {
        match bytes {
            Some(bytes) => {
                h.write_u8(1);
                h.write_bytes(&bytes);
            }
            None => h.write_u8(0),
        }
    }

    // The report's diagnostic bag and its tier-2 entry.
    let report = AnalysisService::new().analyze(&AnalysisRequest::new(corpus.clone())).unwrap();
    let bag = cache::encode_diagnostics(&report.diagnostics);
    let back = cache::decode_diagnostics(&bag).expect("the bag decodes");
    assert_eq!(cache::encode_diagnostics(&back), bag, "re-encode");
    h.write_bytes(&bag);
    let entry = cache::encode_report(&CachedReport {
        rendered: report.render_stable(),
        errors: report.error_count(),
        warnings: report.warning_count(),
        imprecision: report.imprecision_count(),
        diagnostics: report.diagnostics.clone(),
    });
    let back = cache::decode_report(&entry).expect("the entry decodes");
    assert_eq!(cache::encode_report(&back), entry, "re-encode");
    h.write_bytes(&entry);
    h.finish().to_hex()
}

fn corpora() -> Vec<(String, Corpus)> {
    let mut out: Vec<(String, Corpus)> = paper_benchmarks()
        .iter()
        .map(|spec| (spec.name.to_string(), benchmark_corpus(&generate(spec))))
        .collect();
    // File names are relative to `examples/corpora` (`strutil/strutil_stubs.c`),
    // so the rendered report, and with it the digest, does not depend on
    // where the checkout lives.
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/corpora");
    for name in ["gadgets", "imgcodec", "intcalc", "meshgrid", "ringbuf", "strutil"] {
        let mut builder = Corpus::builder();
        for path in source_files_under(&examples.join(name)).expect("example corpus lists") {
            let rel = path.strip_prefix(&examples).expect("under the corpora root");
            let src = std::fs::read_to_string(&path).expect("example source reads");
            builder = builder.source(rel.display().to_string(), src).expect("FFI source");
        }
        out.push((name.to_string(), builder.build()));
    }
    out
}

#[test]
fn payload_bytes_match_the_golden_digests() {
    assert_eq!(cache::CACHE_SCHEMA_VERSION, 5, "new digests come with a new schema version");
    let actual: Vec<(String, String)> =
        corpora().iter().map(|(name, corpus)| (name.clone(), payload_digest(corpus))).collect();
    for (name, digest) in &actual {
        println!("    (\"{name}\", \"{digest}\"),");
    }
    let expected: Vec<(String, String)> =
        GOLDEN.iter().map(|(n, d)| (n.to_string(), d.to_string())).collect();
    assert_eq!(actual, expected);
}

/// Two unregistered parameters live across one allocating call (the CI
/// determinism smoke's corpus). The tier-1 outcome lists both names, and
/// every analysis must list them in one order, so that two writers of one
/// key store the same bytes.
#[test]
fn live_names_encode_in_one_order() {
    let corpus = Corpus::builder()
        .ml_source("lib.ml", "external pair : string -> string -> string list = \"ml_pair\"\n")
        .c_source(
            "glue.c",
            "value ml_pair(value a, value b) {\n    value r = caml_alloc(2, 0);\n    \
             Store_field(r, 0, a);\n    Store_field(r, 1, b);\n    return r;\n}\n",
        )
        .build();
    let first = tier1_payloads(&corpus);
    assert!(first.iter().any(Option::is_some), "test premise: the outcome encodes");
    for run in 1..50 {
        assert_eq!(tier1_payloads(&corpus), first, "analysis {run}");
    }
}
