//! Locks the sharded-sweep subsystem's determinism contract:
//!
//! * the reduced `SweepReport` (JSON and text) is **byte-identical**
//!   across shard counts {1, 2, 8}, worker widths (shard arrival
//!   orders), and in-process vs child-process map modes;
//! * a warm sweep over an unchanged tree executes **zero inference
//!   workers** and reproduces the identical report;
//! * the CLI subcommand honors the documented exit-code policy and
//!   writes the versioned manifest.

use ffisafe::shard::{sweep, MapMode, SweepConfig, SweepOutput};
use ffisafe::support::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn ffisafe_bin() -> &'static str {
    env!("CARGO_BIN_EXE_ffisafe")
}

/// Builds a 5-library tree: two clean, one type error, one GC error, one
/// imprecision — enough shape for partitioning to matter.
fn build_tree(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ffisafe-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let libs: &[(&str, &str, &str)] = &[
        (
            "alpha",
            "external add : int -> int -> int = \"ml_add\"\n",
            "value ml_add(value a, value b) { return Val_int(Int_val(a) + Int_val(b)); }\n",
        ),
        (
            "bravo",
            "external wrap : int -> int = \"ml_wrap\"\n",
            // type error: Val_int on an already-wrapped value
            "value ml_wrap(value n) { return Val_int(n); }\n",
        ),
        (
            "charlie",
            "external cell : string -> string ref = \"ml_cell\"\n",
            // GC error: `s` live across caml_alloc, never registered
            "value ml_cell(value s) {\n    value cell = caml_alloc(1, 0);\n    Store_field(cell, 0, s);\n    return cell;\n}\n",
        ),
        (
            "delta",
            "external sum : int array -> int -> int = \"ml_sum\"\n",
            // imprecision: statically-unknown offset
            "value ml_sum(value arr, value n) {\n    int t = 0;\n    int i;\n    for (i = 0; i < Int_val(n); i++) t += Int_val(Field(arr, i));\n    return Val_int(t);\n}\n",
        ),
        (
            "echo",
            "external id : int -> int = \"ml_id\"\n",
            "value ml_id(value n) { return Val_int(Int_val(n)); }\n",
        ),
    ];
    for (name, ml, c) in libs {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lib.ml"), ml).unwrap();
        std::fs::write(dir.join("glue.c"), c).unwrap();
    }
    root
}

fn run_sweep(root: &Path, config: &SweepConfig) -> SweepOutput {
    sweep(root, config).expect("sweep completes")
}

#[test]
fn sweep_is_byte_identical_across_shard_counts_and_widths() {
    let root = build_tree("shards");
    let baseline = run_sweep(&root, &SweepConfig { shards: 1, jobs: 1, ..SweepConfig::default() });
    assert_eq!(baseline.library_count, 5);
    assert_eq!(baseline.report.error_count(), 2, "{}", baseline.report.render());
    let json = baseline.report.to_json();
    let text = baseline.report.render();
    for shards in [2, 8] {
        for jobs in [1, 4] {
            let other = run_sweep(&root, &SweepConfig { shards, jobs, ..SweepConfig::default() });
            assert_eq!(json, other.report.to_json(), "shards={shards} jobs={jobs}");
            assert_eq!(text, other.report.render(), "shards={shards} jobs={jobs}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sweep_is_byte_identical_across_map_modes_over_one_shared_store() {
    let root = build_tree("modes");
    let cache_in = root.join(".cache-in");
    let cache_child = root.join(".cache-child");
    let in_process = run_sweep(
        &root,
        &SweepConfig { shards: 2, cache_dir: Some(cache_in), ..SweepConfig::default() },
    );
    let child = run_sweep(
        &root,
        &SweepConfig {
            shards: 2,
            jobs: 4,
            cache_dir: Some(cache_child),
            mode: MapMode::ChildProcess { program: ffisafe_bin().into() },
            ..SweepConfig::default()
        },
    );
    assert_eq!(child.stats.libraries_failed, 0, "{:?}", child.report.failures);
    assert_eq!(
        in_process.report.to_json(),
        child.report.to_json(),
        "map mode must not leak into the reduced report"
    );
    assert_eq!(in_process.report.render(), child.report.render());
    // occupancy is content-determined, so it matched inside to_json too —
    // but assert it explicitly: both stores hold the same entries/bytes.
    let occ_in = in_process.report.cache_store.unwrap();
    let occ_child = child.report.cache_store.unwrap();
    assert_eq!(occ_in.entries, occ_child.entries);
    assert_eq!(occ_in.live_bytes, occ_child.live_bytes);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn warm_sweep_executes_zero_workers_and_reproduces_the_report() {
    let root = build_tree("warm");
    let cache = root.join(".cache");
    for mode in [MapMode::InProcess, MapMode::ChildProcess { program: ffisafe_bin().into() }] {
        let tag = match &mode {
            MapMode::InProcess => "in-process",
            MapMode::ChildProcess { .. } => "child",
        };
        let _ = std::fs::remove_dir_all(&cache);
        let config = SweepConfig {
            shards: 2,
            cache_dir: Some(cache.clone()),
            mode,
            ..SweepConfig::default()
        };
        let cold = run_sweep(&root, &config);
        assert!(cold.stats.workers_executed >= 5, "{tag}: cold sweep runs workers");
        assert_eq!(cold.stats.shards_warm, 0, "{tag}");

        let warm = run_sweep(&root, &config);
        assert_eq!(warm.stats.workers_executed, 0, "{tag}: warm sweep runs zero workers");
        assert_eq!(warm.stats.report_hits, 5, "{tag}: every library served from tier 2");
        assert_eq!(warm.stats.shards_warm, 2, "{tag}: both shards warm");
        assert_eq!(
            cold.report.to_json(),
            warm.report.to_json(),
            "{tag}: warm report byte-identical"
        );
        assert_eq!(cold.report.render(), warm.report.render(), "{tag}");

        // a re-sweep at a different partitioning is *also* warm: shards
        // are sets of cache entries, not cache keys themselves
        let repartitioned = run_sweep(&root, &SweepConfig { shards: 8, ..config.clone() });
        assert_eq!(repartitioned.stats.workers_executed, 0, "{tag}: repartitioned warm");
        assert_eq!(cold.report.to_json(), repartitioned.report.to_json(), "{tag}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn editing_one_library_reanalyzes_only_that_library() {
    let root = build_tree("edit");
    let cache = root.join(".cache");
    let config = SweepConfig { shards: 2, cache_dir: Some(cache), ..SweepConfig::default() };
    let cold = run_sweep(&root, &config);
    assert_eq!(cold.report.error_count(), 2);

    // fix bravo's bug; everything else must replay from the cache
    std::fs::write(
        root.join("bravo/glue.c"),
        "value ml_wrap(value n) { return Val_int(Int_val(n)); }\n",
    )
    .unwrap();
    let edited = run_sweep(&root, &config);
    assert_eq!(edited.report.error_count(), 1, "bravo fixed, charlie still broken");
    assert_eq!(edited.stats.report_hits, 4, "four unchanged libraries replay");
    assert_eq!(edited.stats.workers_executed, 1, "only bravo's one function runs a worker");
    let _ = std::fs::remove_dir_all(&root);
}

// ---- the CLI subcommand -------------------------------------------------

#[test]
fn sweep_cli_exit_codes_and_json_follow_the_policy() {
    let root = build_tree("cli");
    // errors found => exit 1, stdout is one parseable sweep document
    let out = Command::new(ffisafe_bin())
        .args(["sweep", "--shards", "2", "--format", "json"])
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "errors found => exit 1");
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("stdout is pure JSON");
    assert_eq!(doc.get("sweep_schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("libraries").and_then(Json::as_u64), Some(5));
    assert_eq!(doc.get("summary").and_then(|s| s.get("errors")).and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("cache_store"), Some(&Json::Null), "uncached sweep says so");

    // a clean subtree => exit 0
    let clean = root.join("alpha-only");
    std::fs::create_dir_all(clean.join("alpha")).unwrap();
    std::fs::copy(root.join("alpha/lib.ml"), clean.join("alpha/lib.ml")).unwrap();
    std::fs::copy(root.join("alpha/glue.c"), clean.join("alpha/glue.c")).unwrap();
    let out = Command::new(ffisafe_bin()).arg("sweep").arg(&clean).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // usage problems => exit 2
    for bad in [&["sweep"][..], &["sweep", "--shards", "x", "r"][..]] {
        let out = Command::new(ffisafe_bin()).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
    let out =
        Command::new(ffisafe_bin()).args(["sweep", "/definitely/not/a/root"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unreadable root => exit 2");

    // shared flags advertised by --help work under the subcommand too
    let out = Command::new(ffisafe_bin()).args(["sweep", "--version"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("ffisafe "));
    let out =
        Command::new(ffisafe_bin()).args(["sweep", "--cache-stats"]).arg(&clean).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cache store"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_broken_library_is_reported_not_fatal_to_the_sweep() {
    let root = build_tree("broken");
    // a dangling symlink named like an FFI source makes foxtrot unloadable
    std::fs::create_dir_all(root.join("foxtrot")).unwrap();
    std::os::unix::fs::symlink("/definitely/not/here.ml", root.join("foxtrot/gone.ml")).unwrap();

    let output = run_sweep(&root, &SweepConfig::default());
    assert_eq!(output.library_count, 5, "the healthy libraries still sweep");
    assert_eq!(output.report.failures.len(), 1);
    assert_eq!(output.report.failures[0].library, "foxtrot");
    assert!(output.report.to_json().contains("\"failures\": [\n    {\"library\": \"foxtrot\""));

    // the CLI surfaces it as exit 2 with the failure on stderr
    let out = Command::new(ffisafe_bin()).arg("sweep").arg(&root).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "failed library => exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("foxtrot"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sweep_cli_writes_the_manifest_and_child_mode_matches_in_process() {
    let root = build_tree("cli-modes");
    let cache_a = root.join(".cache-a");
    let cache_b = root.join(".cache-b");
    let run = |extra: &[&str], cache: &Path| {
        let out = Command::new(ffisafe_bin())
            .args(["sweep", "--format", "json", "--cache-dir"])
            .arg(cache)
            .args(extra)
            .arg(&root)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let in_process = run(&["--shards", "2"], &cache_a);
    let child = run(&["--shards", "3", "--mode", "child", "--jobs", "2"], &cache_b);
    assert_eq!(in_process, child, "CLI sweep byte-identical across modes and shard counts");

    // the manifest landed in the cache dir, versioned and parseable
    let manifest = std::fs::read_to_string(cache_a.join("sweep-manifest.json")).unwrap();
    let doc = json::parse(&manifest).expect("manifest is valid JSON");
    assert_eq!(doc.get("manifest_schema_version").and_then(Json::as_u64), Some(3));
    assert_eq!(doc.get("libraries").and_then(Json::as_u64), Some(5));
    assert_eq!(
        doc.get("shards").and_then(Json::as_array).map(|s| s.len()),
        Some(2),
        "manifest records the requested partitioning"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn remote_backend_sweeps_match_local_and_warm_runs_zero_workers() {
    let root = build_tree("remote");
    let store = ffisafe::cache::CacheStore::open(
        &root.join(".remote-store"),
        &ffisafe::core::pipeline::cache::analyzer_cache_version(),
    )
    .expect("store opens");
    let addr = ffisafe::cache::CacheServer::bind("127.0.0.1:0", store)
        .expect("daemon binds")
        .spawn()
        .expect("daemon spawns");
    let config = SweepConfig {
        shards: 2,
        cache_url: Some(format!("tcp://{addr}")),
        ..SweepConfig::default()
    };
    let cold = run_sweep(&root, &config);
    assert!(cold.stats.workers_executed >= 5, "cold remote sweep runs workers");
    let warm = run_sweep(&root, &config);
    assert_eq!(warm.stats.workers_executed, 0, "warm remote sweep served by the daemon");
    assert_eq!(cold.report.to_json(), warm.report.to_json());

    // child mode reaches the daemon through the CLI's --cache-url flag —
    // a second *process* sharing the same logical store
    let child = run_sweep(
        &root,
        &SweepConfig {
            mode: MapMode::ChildProcess { program: ffisafe_bin().into() },
            ..config.clone()
        },
    );
    assert_eq!(child.stats.libraries_failed, 0, "{:?}", child.report.failures);
    assert_eq!(child.stats.workers_executed, 0, "children warm off the shared daemon");
    assert_eq!(cold.report.to_json(), child.report.to_json());

    // and the whole thing is byte-identical to a local-directory backend
    let local = run_sweep(
        &root,
        &SweepConfig {
            shards: 2,
            cache_dir: Some(root.join(".local-store")),
            ..SweepConfig::default()
        },
    );
    assert_eq!(cold.report.to_json(), local.report.to_json(), "backend leaked into the report");
    assert_eq!(cold.report.render(), local.report.render());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn examples_corpora_sweep_matches_the_documented_findings() {
    // the tree CI smokes over: OCaml/C pairs (strutil seeded with a type
    // error, gadgets with an imprecision, intcalc clean) plus Rust/C
    // pairs (imgcodec seeded with an E011 arity bug, meshgrid with an
    // E013 missing-repr(C) struct, ringbuf clean)
    let out = Command::new(ffisafe_bin())
        .args(["sweep", "--format", "json", "examples/corpora"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(&stdout).unwrap();
    let summary = doc.get("summary").unwrap();
    assert_eq!(summary.get("errors").and_then(Json::as_u64), Some(3));
    assert_eq!(summary.get("imprecision").and_then(Json::as_u64), Some(1));
    let libs = doc.get("library_reports").and_then(Json::as_array).unwrap();
    let names: Vec<&str> =
        libs.iter().filter_map(|l| l.get("library").and_then(Json::as_str)).collect();
    assert_eq!(
        names,
        ["gadgets", "imgcodec", "intcalc", "meshgrid", "ringbuf", "strutil"],
        "sorted by library name"
    );
    assert!(stdout.contains("\"code\": \"E011\""), "imgcodec's arity bug: {stdout}");
    assert!(stdout.contains("\"code\": \"E013\""), "meshgrid's repr bug: {stdout}");
}

#[test]
fn plain_cli_rejects_a_directory_with_no_ffi_sources() {
    let dir = std::env::temp_dir().join(format!("ffisafe-emptydir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("README.md"), "nothing to analyze\n").unwrap();
    let out = Command::new(ffisafe_bin()).arg(&dir).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "empty dir must not report 'no errors found'");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no .ml"), "explains why");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plain_cli_accepts_directory_inputs_and_cache_stats() {
    // a directory argument analyzes every FFI file under it
    let out = Command::new(ffisafe_bin())
        .args(["examples/corpora/intcalc", "--cache-stats"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache store"), "--cache-stats reports to stderr: {stderr}");
    assert!(stderr.contains("disabled"), "no --cache-dir => disabled: {stderr}");

    let dir = std::env::temp_dir().join(format!("ffisafe-clistats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(ffisafe_bin())
        .args(["examples/corpora/intcalc", "--cache-stats", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("entry(ies)"), "occupancy printed: {stderr}");
    assert!(stderr.contains("hit/miss"), "counters printed: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
