//! End-to-end tests for the Rust `extern "C"` boundary checker: each
//! diagnostic code fires on its seeded defect (positive) and stays silent
//! once the defect is fixed (negative), with the code strings locked —
//! they are part of the stable report format and the cache codec.

use ffisafe::{AnalysisRequest, AnalysisService, Corpus};

fn analyze(rust_src: &str, c_src: &str) -> ffisafe::AnalysisReport {
    let corpus =
        Corpus::builder().rust_source("lib.rs", rust_src).c_source("glue.c", c_src).build();
    AnalysisService::new().analyze(&AnalysisRequest::new(corpus)).unwrap()
}

fn codes(report: &ffisafe::AnalysisReport) -> Vec<String> {
    report.diagnostics.iter().map(|d| d.code().to_string()).collect()
}

#[test]
fn e011_arity_mismatch_fires_and_clears() {
    let buggy = analyze(
        r#"extern "C" { fn mix(a: i32, b: i32, c: i32) -> i32; }"#,
        "int mix(int a, int b) { return a + b; }",
    );
    assert_eq!(codes(&buggy), ["E011"]);
    assert_eq!(buggy.error_count(), 1, "arity mismatches are errors");

    let fixed = analyze(
        r#"extern "C" { fn mix(a: i32, b: i32) -> i32; }"#,
        "int mix(int a, int b) { return a + b; }",
    );
    assert!(fixed.diagnostics.is_empty(), "{}", fixed.render());
}

#[test]
fn e012_type_mismatch_fires_and_clears() {
    let buggy = analyze(
        r#"extern "C" { fn scale(x: i64) -> f64; }"#,
        "double scale(double x) { return x; }",
    );
    assert_eq!(codes(&buggy), ["E012"]);

    let fixed = analyze(
        r#"extern "C" { fn scale(x: f64) -> f64; }"#,
        "double scale(double x) { return x; }",
    );
    assert!(fixed.diagnostics.is_empty(), "{}", fixed.render());
}

#[test]
fn e013_missing_repr_c_fires_and_clears() {
    let buggy = analyze(
        r#"
        pub struct Handle { fd: i32 }
        extern "C" { fn h_close(h: *mut Handle) -> i32; }
        "#,
        "typedef struct handle handle_t;\nint h_close(handle_t *h) { return 0; }",
    );
    assert_eq!(codes(&buggy), ["E013"]);

    let fixed = analyze(
        r#"
        #[repr(C)]
        pub struct Handle { fd: i32 }
        extern "C" { fn h_close(h: *mut Handle) -> i32; }
        "#,
        "typedef struct handle handle_t;\nint h_close(handle_t *h) { return 0; }",
    );
    assert!(fixed.diagnostics.is_empty(), "{}", fixed.render());
}

#[test]
fn e014_ffi_unsafe_payload_fires_and_clears() {
    let buggy = analyze(
        r#"
        #[repr(C)]
        pub struct Meta { name: String }
        extern "C" { fn put(m: *const Meta) -> i32; }
        "#,
        "typedef struct meta meta_t;\nint put(meta_t *m) { return 0; }",
    );
    assert_eq!(codes(&buggy), ["E014"]);

    let fixed = analyze(
        r#"
        #[repr(C)]
        pub struct Meta { name: *const c_char }
        extern "C" { fn put(m: *const Meta) -> i32; }
        "#,
        "typedef struct meta meta_t;\nint put(meta_t *m) { return 0; }",
    );
    assert!(fixed.diagnostics.is_empty(), "{}", fixed.render());
}

#[test]
fn w004_nullability_fires_as_warning_and_clears() {
    let buggy = analyze(
        r#"
        #[no_mangle]
        pub extern "C" fn consume(buf: &u8) -> i32 { 0 }
        "#,
        "int consume(char *buf);",
    );
    assert_eq!(codes(&buggy), ["W004"]);
    assert_eq!(buggy.error_count(), 0, "nullability findings are warnings");
    assert_eq!(buggy.warning_count(), 1);

    let fixed = analyze(
        r#"
        #[no_mangle]
        pub extern "C" fn consume(buf: Option<&u8>) -> i32 { 0 }
        "#,
        "int consume(char *buf);",
    );
    assert!(fixed.diagnostics.is_empty(), "{}", fixed.render());
}

/// The Rust findings ride the same severity/JSON machinery as the
/// OCaml/C codes: stable code strings in the JSON document, additive
/// stats fields, and the conditional Rust line-count suffix.
#[test]
fn rust_findings_flow_through_the_versioned_report() {
    let report = analyze(
        r#"extern "C" { fn mix(a: i32, b: i32, c: i32) -> i32; }"#,
        "int mix(int a, int b) { return a + b; }",
    );
    let json = report.to_json();
    let doc = ffisafe::support::json::parse(&json).expect("valid JSON");
    let diags = doc.get("diagnostics").and_then(ffisafe::support::json::Json::as_array).unwrap();
    assert_eq!(diags[0].get("code").and_then(ffisafe::support::json::Json::as_str), Some("E011"));
    let stats = doc.get("stats").expect("stats present");
    assert_eq!(stats.get("rust_loc").and_then(ffisafe::support::json::Json::as_u64), Some(1));
    assert_eq!(stats.get("rust_externs").and_then(ffisafe::support::json::Json::as_u64), Some(1));
    assert!(report.render_stable().contains("lines Rust"), "{}", report.render_stable());
}

#[test]
fn cyclic_type_aliases_are_analyzed_instead_of_overflowing_the_stack() {
    for rust_src in [
        "type A = *mut A;\nextern \"C\" { fn f(x: A); }\n",
        "type A = B;\ntype B = A;\nextern \"C\" { fn f(x: A); }\n",
    ] {
        let report = analyze(rust_src, "void f(void *x) { }\n");
        assert!(report.diagnostics.is_empty(), "{rust_src}: {}", report.render());
    }
}
