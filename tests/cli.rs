//! End-to-end test of the `ffisafe` command-line binary.

use std::path::PathBuf;
use std::process::Command;

/// One test's input directory, removed when the test ends.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ffisafe-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn write(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cli_reports_errors_and_exits_nonzero() {
    let tmp = TempDir::new("reports_errors_and_exits_nonzero");
    let ml = tmp.write("lib.ml", r#"external f : int -> int = "ml_f""#);
    let c = tmp.write("glue.c", r#"value ml_f(value n) { return Val_int(n); }"#);
    let out =
        Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg(&ml).arg(&c).output().expect("binary runs");
    assert!(!out.status.success(), "buggy input must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E001"), "{stdout}");
    assert!(stdout.contains("glue.c"), "{stdout}");
}

#[test]
fn cli_accepts_clean_input() {
    let tmp = TempDir::new("accepts_clean_input");
    let ml = tmp.write("ok.ml", r#"external add : int -> int -> int = "ml_add""#);
    let c = tmp.write(
        "ok.c",
        r#"value ml_add(value a, value b) { return Val_int(Int_val(a) + Int_val(b)); }"#,
    );
    let out =
        Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg(&ml).arg(&c).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn cli_no_gc_flag_suppresses_gc_errors() {
    let tmp = TempDir::new("no_gc_flag_suppresses_gc_errors");
    let ml = tmp.write("gc.ml", r#"external wrap : string -> string ref = "ml_wrap""#);
    let c = tmp.write(
        "gc.c",
        r#"
value ml_wrap(value s) {
    value cell = caml_alloc(1, 0);
    Store_field(cell, 0, s);
    return cell;
}
"#,
    );
    let strict = Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg(&ml).arg(&c).output().unwrap();
    assert!(!strict.status.success());
    let relaxed = Command::new(env!("CARGO_BIN_EXE_ffisafe"))
        .arg("--no-gc")
        .arg(&ml)
        .arg(&c)
        .output()
        .unwrap();
    assert!(relaxed.status.success(), "{}", String::from_utf8_lossy(&relaxed.stdout));
}

#[test]
fn cli_help_and_missing_files() {
    let help = Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg("--help").output().unwrap();
    assert!(help.status.success());
    let help_out = String::from_utf8_lossy(&help.stdout);
    assert!(help_out.contains("exit status"), "--help documents the exit-code policy: {help_out}");
    assert!(help_out.contains("--format"), "{help_out}");
    let none = Command::new(env!("CARGO_BIN_EXE_ffisafe")).output().unwrap();
    assert_eq!(none.status.code(), Some(2));
    let missing =
        Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg("/definitely/not/here.c").output().unwrap();
    assert_eq!(missing.status.code(), Some(2));
}

#[test]
fn cli_unknown_extension_is_usage_error() {
    let tmp = TempDir::new("unknown_extension_is_usage_error");
    // Exit-code policy: an input the tool cannot classify is a usage
    // error (2), not a silent skip.
    let txt = tmp.write("notes.txt", "not glue code");
    let out = Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg(&txt).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown file kind"), "{stderr}");
}

#[test]
fn cli_format_json_stdout_is_pure_json() {
    let tmp = TempDir::new("format_json_stdout_is_pure_json");
    let ml = tmp.write("fmt.ml", r#"external f : int -> int = "ml_f""#);
    let c = tmp.write("fmt.c", r#"value ml_f(value n) { return Val_int(n); }"#);
    let out = Command::new(env!("CARGO_BIN_EXE_ffisafe"))
        .args(["--format", "json", "--timings"])
        .arg(&ml)
        .arg(&c)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "errors found still drive the exit code");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let doc = ffisafe_support::json::parse(&stdout)
        .expect("stdout must be exactly one parseable JSON document");
    assert_eq!(doc.get("schema_version").and_then(ffisafe_support::json::Json::as_u64), Some(1));
    let summary = doc.get("summary").expect("summary present");
    assert_eq!(summary.get("errors").and_then(ffisafe_support::json::Json::as_u64), Some(1));
    let diags = doc.get("diagnostics").and_then(ffisafe_support::json::Json::as_array).unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].get("code").and_then(ffisafe_support::json::Json::as_str), Some("E001"));
    // --timings chatter went to stderr, not into the JSON
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("infer"), "{stderr}");
}

#[test]
fn cli_format_rejects_garbage() {
    for bad in [&["--format"][..], &["--format", "xml"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ffisafe")).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
    }
}

#[test]
fn cli_unwritable_cache_dir_is_io_error() {
    let tmp = TempDir::new("unwritable_cache_dir_is_io_error");
    let ml = tmp.write("cd.ml", r#"external f : int -> int = "ml_f""#);
    let out = Command::new(env!("CARGO_BIN_EXE_ffisafe"))
        .args(["--cache-dir", "/proc/definitely-unwritable/x"])
        .arg(&ml)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unopenable cache dir is an I/O error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache"), "{stderr}");
}

#[test]
fn cli_version_prints_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg("--version").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("ffisafe "), "{stdout}");
    assert!(stdout.trim().len() > "ffisafe ".len(), "{stdout}");
}

#[test]
fn cli_unknown_flag_is_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// Each subcommand accepts only its own share of the common flags: one
/// that belongs to another subcommand is a usage error (exit 2) before
/// anything starts, never silently ignored.
#[test]
fn cli_subcommands_reject_flags_of_other_subcommands() {
    let tmp = TempDir::new("subcommands_reject_flags_of_other_subcommands");
    let corpus = tmp.write("sub.ml", r#"external f : int -> int = "ml_f""#);
    let corpus = corpus.to_str().unwrap();
    for args in [
        &["cache-serve", "--jobs", "2"][..],
        &["serve", "--format", "json"],
        &["sweep", "--listen", "x"],
        &["client", "--shards", "2", "--server-url", "tcp://127.0.0.1:1", corpus],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ffisafe")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} must be a usage error: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} must not start: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn cli_jobs_flag_parses_and_rejects_garbage() {
    let tmp = TempDir::new("jobs_flag_parses_and_rejects_garbage");
    let ml = tmp.write("j.ml", r#"external add : int -> int = "ml_add""#);
    let c = tmp.write("j.c", r#"value ml_add(value a) { return Val_int(Int_val(a)); }"#);
    let ok = Command::new(env!("CARGO_BIN_EXE_ffisafe"))
        .args(["--jobs", "2"])
        .arg(&ml)
        .arg(&c)
        .output()
        .unwrap();
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let short = Command::new(env!("CARGO_BIN_EXE_ffisafe"))
        .args(["-j", "1"])
        .arg(&ml)
        .arg(&c)
        .output()
        .unwrap();
    assert!(short.status.success());
    for bad in [&["--jobs", "zero"][..], &["--jobs", "0"][..], &["--jobs"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ffisafe")).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
    }
}

#[test]
fn cli_timings_flag_reports_phases() {
    let tmp = TempDir::new("timings_flag_reports_phases");
    let ml = tmp.write("t.ml", r#"external id : int -> int = "ml_id""#);
    let c = tmp.write("t.c", r#"value ml_id(value a) { return a; }"#);
    let out = Command::new(env!("CARGO_BIN_EXE_ffisafe"))
        .arg("--timings")
        .arg(&ml)
        .arg(&c)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for phase in ["frontend_ml", "frontend_c", "infer", "discharge", "jobs", "work", "cache"] {
        assert!(stderr.contains(phase), "missing {phase} in: {stderr}");
    }
}

#[test]
fn cli_cache_dir_warm_run_is_identical_and_observable() {
    let tmp = TempDir::new("cache_dir_warm_run_is_identical_and_observable");
    let ml = tmp.write("cache.ml", r#"external f : int -> int = "ml_f""#);
    let c = tmp.write("cache.c", r#"value ml_f(value n) { return Val_int(n); }"#);
    let cache = std::env::temp_dir().join(format!("ffisafe-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    let run = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ffisafe"));
        cmd.args(["--cache-dir", cache.to_str().unwrap(), "--timings"]);
        cmd.args(extra);
        cmd.arg(&ml).arg(&c);
        cmd.output().unwrap()
    };

    let cold = run(&[]);
    assert_eq!(cold.status.code(), Some(1), "buggy input exits 1");
    let warm = run(&[]);
    assert_eq!(warm.status.code(), Some(1), "cached error count drives the exit status");
    // Identical findings modulo the timing suffix on the summary line.
    let strip = |out: &std::process::Output| {
        let s = String::from_utf8_lossy(&out.stdout).into_owned();
        s.rsplit_once(", ").map(|(head, _)| head.to_string()).unwrap_or(s)
    };
    assert_eq!(strip(&cold), strip(&warm));
    let warm_err = String::from_utf8_lossy(&warm.stderr).into_owned();
    assert!(warm_err.contains("report tier hit"), "{warm_err}");

    // --no-cache forces a cold run even with --cache-dir present.
    let forced = run(&["--no-cache"]);
    assert_eq!(forced.status.code(), Some(1));
    let forced_err = String::from_utf8_lossy(&forced.stderr).into_owned();
    assert!(!forced_err.contains("report tier hit"), "{forced_err}");
    assert_eq!(strip(&cold), strip(&forced));

    // --cache-dir without a directory is a usage error.
    let bad = Command::new(env!("CARGO_BIN_EXE_ffisafe")).arg("--cache-dir").output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&cache);
}
