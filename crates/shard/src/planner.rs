//! The sweep planner: walks a corpus root, fingerprints every library,
//! groups them into shards and writes the versioned
//! `sweep-manifest.json`.
//!
//! A **corpus root** is a directory of libraries: every immediate
//! subdirectory containing at least one FFI source (`.ml`/`.mli`/`.rs`/`.c`/
//! `.h`, found recursively) is one library, and FFI files sitting directly
//! in the root form a library named `.`. Within a library, files load in
//! the same deterministic sorted-path order as [`Corpus::from_dir`], so a
//! library's [`Corpus::fingerprint`] is a pure function of the tree — the
//! key under which libraries hit the shared cache store.
//!
//! Shards are contiguous, size-balanced chunks of the name-sorted library
//! list. They group the manifest and the warm-shard count; they do not
//! decide which worker runs what — the executor starts libraries largest
//! first from one queue. Neither affects the reduced
//! [`crate::SweepReport`], which the reducer re-sorts by library name.

use ffisafe_core::{source_files_under, ApiError, Corpus};
use ffisafe_support::json::escape_into;
use ffisafe_support::telemetry;
use ffisafe_support::Fingerprint;
use std::path::{Path, PathBuf};

/// Version of `sweep-manifest.json`. Bumped whenever a field changes
/// meaning, moves or disappears; adding fields does not bump it.
///
/// v3: drops the top-level `schedule`, the per-shard `key` and the
/// per-library `cost` object of v2.
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// One library discovered under the corpus root: its name, its source
/// files (sorted), its content fingerprint, its size and (optionally) its
/// loaded corpus.
#[derive(Clone, Debug)]
pub struct LibraryPlan {
    /// Directory name relative to the root (`.` for root-level files).
    pub name: String,
    /// The FFI source files, in deterministic sorted-path order.
    pub files: Vec<PathBuf>,
    /// The library's content digest (see [`Corpus::fingerprint`]).
    pub fingerprint: Fingerprint,
    /// The loaded corpus. `None` after [`SweepPlan::drop_sources`] —
    /// child-process mapping re-reads sources from disk, so keeping a
    /// thousand libraries' text resident would be pure overhead.
    pub corpus: Option<Corpus>,
    /// OCaml + C + Rust lines: the size the executor orders libraries by.
    /// Kept apart from `corpus`, which child mode drops before the map.
    pub lines: usize,
}

/// One shard: a contiguous run of the name-sorted libraries.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Position in [`SweepPlan::shards`].
    pub index: usize,
    /// Indices into [`SweepPlan::libraries`].
    pub members: Vec<usize>,
}

/// The full plan for one sweep: every library and its shard assignment.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// The corpus root the plan was built from.
    pub root: PathBuf,
    /// Every discovered library, sorted by name.
    pub libraries: Vec<LibraryPlan>,
    /// The shard partitioning: contiguous name chunks.
    pub shards: Vec<ShardPlan>,
    /// Libraries that could not be *planned* (unreadable subtree, file
    /// deleted mid-walk, symlink loop, …). One broken library must not
    /// sink a thousand-library sweep, so these flow into
    /// [`crate::SweepReport::failures`] instead of aborting the plan;
    /// only a root that cannot be read at all is fatal.
    pub failures: Vec<crate::reducer::SweepFailure>,
}

impl SweepPlan {
    /// Total libraries planned.
    pub fn library_count(&self) -> usize {
        self.libraries.len()
    }

    /// Frees every library's loaded source text, keeping names, file
    /// lists, fingerprints and sizes. Called for child-process sweeps,
    /// where the children re-read sources from disk and the resident text
    /// would otherwise scale with the whole corpus instead of the
    /// in-flight libraries.
    pub fn drop_sources(&mut self) {
        for library in &mut self.libraries {
            library.corpus = None;
        }
    }

    /// The versioned machine-readable manifest: which libraries exist,
    /// their content fingerprints and file lists, and how they were
    /// grouped into shards.
    ///
    /// Schema (v3, see [`MANIFEST_SCHEMA_VERSION`]):
    ///
    /// ```text
    /// {
    ///   "manifest_schema_version": 3,
    ///   "tool": "ffisafe",
    ///   "tool_version": "<crate version>",
    ///   "root": "<corpus root>",
    ///   "libraries": N,
    ///   "shards": [ { "shard": i,
    ///                 "libraries": [ { "name", "fingerprint": "<hex128>",
    ///                                  "files": [ "<path>", ... ] } ] } ]
    /// }
    /// ```
    pub fn manifest_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"manifest_schema_version\": {MANIFEST_SCHEMA_VERSION},\n"));
        out.push_str("  \"tool\": \"ffisafe\",\n");
        out.push_str(&format!("  \"tool_version\": \"{}\",\n", env!("CARGO_PKG_VERSION")));
        out.push_str("  \"root\": \"");
        escape_into(&mut out, &self.root.display().to_string());
        out.push_str("\",\n");
        out.push_str(&format!("  \"libraries\": {},\n", self.libraries.len()));
        out.push_str("  \"shards\": [");
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"shard\": {}, \"libraries\": [", shard.index));
            for (j, &member) in shard.members.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let lib = &self.libraries[member];
                out.push_str("\n      {\"name\": \"");
                escape_into(&mut out, &lib.name);
                out.push_str(&format!(
                    "\", \"fingerprint\": \"{}\", \"files\": [",
                    lib.fingerprint.to_hex()
                ));
                for (k, file) in lib.files.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    escape_into(&mut out, &file.display().to_string());
                    out.push('"');
                }
                out.push_str("]}");
            }
            out.push_str(if shard.members.is_empty() { "]}" } else { "\n    ]}" });
        }
        out.push_str(if self.shards.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }
}

/// Builds the plan for `root`: discovers libraries, loads and fingerprints
/// each, and partitions them into `shard_count` contiguous name-sorted
/// shards (`0` means one shard per library). The count is clamped to
/// `[1, libraries]`, so any requested count is safe.
pub fn plan(root: &Path, shard_count: usize) -> Result<SweepPlan, ApiError> {
    let mut span =
        telemetry::span_with("sweep.plan", || vec![("shards_requested", shard_count.to_string())]);
    let (libraries, failures) = discover_libraries(root)?;
    span.arg("libraries", libraries.len().to_string());
    let n = libraries.len();
    let shards = if n == 0 {
        Vec::new()
    } else {
        partition(n, if shard_count == 0 { n } else { shard_count.clamp(1, n) })
    };
    Ok(SweepPlan { root: root.to_path_buf(), libraries, shards, failures })
}

/// Every immediate subdirectory of `root` with ≥ 1 FFI source (searched
/// recursively) becomes a library; root-level FFI files form a library
/// named `.`. Sorted by library name. A library whose subtree cannot be
/// walked or loaded becomes a planning failure, not an error — only an
/// unreadable root aborts.
fn discover_libraries(
    root: &Path,
) -> Result<(Vec<LibraryPlan>, Vec<crate::reducer::SweepFailure>), ApiError> {
    let read = std::fs::read_dir(root)
        .map_err(|e| ApiError::Io { path: root.display().to_string(), message: e.to_string() })?;
    let mut dirs = Vec::new();
    let mut root_files = Vec::new();
    for dirent in read {
        let dirent = dirent.map_err(|e| ApiError::Io {
            path: root.display().to_string(),
            message: e.to_string(),
        })?;
        let path = dirent.path();
        if path.is_dir() {
            dirs.push(path);
        } else if ffisafe_core::SourceKind::from_name(&path.display().to_string()).is_some() {
            root_files.push(path);
        }
    }
    dirs.sort_by_key(|p| p.display().to_string());
    root_files.sort_by_key(|p| p.display().to_string());

    let mut libraries = Vec::new();
    let mut failures = Vec::new();
    let mut admit = |name: String, result: Result<Option<LibraryPlan>, ApiError>| match result {
        Ok(Some(library)) => libraries.push(library),
        Ok(None) => {}
        Err(e) => {
            failures.push(crate::reducer::SweepFailure { library: name, error: e.to_string() })
        }
    };
    if !root_files.is_empty() {
        admit(".".to_string(), load_library(".".to_string(), root_files).map(Some));
    }
    for dir in dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        let loaded = source_files_under(&dir).and_then(|files| {
            if files.is_empty() {
                Ok(None)
            } else {
                load_library(name.clone(), files).map(Some)
            }
        });
        admit(name, loaded);
    }
    libraries.sort_by(|a, b| a.name.cmp(&b.name));
    Ok((libraries, failures))
}

fn load_library(name: String, files: Vec<PathBuf>) -> Result<LibraryPlan, ApiError> {
    let mut builder = Corpus::builder();
    for file in &files {
        builder = builder.source_path(file)?;
    }
    let corpus = builder.build();
    Ok(LibraryPlan {
        name,
        files,
        fingerprint: corpus.fingerprint(),
        lines: corpus.ml_loc() + corpus.c_loc() + corpus.rust_loc(),
        corpus: Some(corpus),
    })
}

/// Splits `n` name-sorted libraries into `count` contiguous chunks whose
/// sizes differ by at most one.
fn partition(n: usize, count: usize) -> Vec<ShardPlan> {
    let base = n / count;
    let extra = n % count;
    let mut shards = Vec::with_capacity(count);
    let mut next = 0usize;
    for index in 0..count {
        let take = base + usize::from(index < extra);
        shards.push(ShardPlan { index, members: (next..next + take).collect() });
        next += take;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_tree(tag: &str, libs: &[(&str, &[(&str, &str)])]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("ffisafe-planner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (lib, files) in libs {
            let dir = root.join(lib);
            std::fs::create_dir_all(&dir).unwrap();
            for (name, src) in *files {
                std::fs::write(dir.join(name), src).unwrap();
            }
        }
        root
    }

    fn three_lib_tree(tag: &str) -> PathBuf {
        temp_tree(
            tag,
            &[
                (
                    "liba",
                    &[
                        ("lib.ml", "external f : int -> int = \"ml_f\"\n"),
                        ("glue.c", "value ml_f(value n) { return Val_int(Int_val(n)); }\n"),
                    ],
                ),
                (
                    "libb",
                    &[
                        ("lib.ml", "external g : int -> int = \"ml_g\"\n"),
                        ("glue.c", "value ml_g(value n) { return Val_int(n); }\n"),
                        ("notes.txt", "not source\n"),
                    ],
                ),
                (
                    "libc",
                    &[
                        ("lib.ml", "external h : string -> int = \"ml_h\"\n"),
                        ("glue.c", "value ml_h(value s) { return Val_int(0); }\n"),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn plan_discovers_sorted_libraries_and_skips_non_ffi_dirs() {
        let root = three_lib_tree("discover");
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(root.join("docs/README.md"), "no sources here\n").unwrap();

        let plan = plan(&root, 0).unwrap();
        let names: Vec<&str> = plan.libraries.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["liba", "libb", "libc"]);
        assert_eq!(plan.libraries[1].files.len(), 2, "notes.txt skipped");
        assert_eq!(plan.shards.len(), 3, "0 = one shard per library");
        // plan is deterministic
        let again = super::plan(&root, 0).unwrap();
        assert_eq!(plan.manifest_json(), again.manifest_json());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn partition_is_contiguous_balanced_and_clamped() {
        let root = three_lib_tree("partition");
        let p2 = plan(&root, 2).unwrap();
        let sizes: Vec<usize> = p2.shards.iter().map(|s| s.members.len()).collect();
        assert_eq!(sizes, [2, 1]);
        let flat: Vec<usize> = p2.shards.iter().flat_map(|s| s.members.clone()).collect();
        assert_eq!(flat, [0, 1, 2], "contiguous, every library exactly once");
        let p8 = plan(&root, 8).unwrap();
        assert_eq!(p8.shards.len(), 3, "clamped to the library count");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_is_versioned_and_parseable() {
        let root = three_lib_tree("manifest");
        let plan = plan(&root, 2).unwrap();
        let doc = ffisafe_support::json::parse(&plan.manifest_json()).expect("valid JSON");
        use ffisafe_support::json::Json;
        assert_eq!(doc.get("manifest_schema_version").and_then(Json::as_u64), Some(3));
        assert!(doc.get("schedule").is_none(), "v3 has no schedule");
        assert_eq!(doc.get("libraries").and_then(Json::as_u64), Some(3));
        let shards = doc.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards.len(), 2);
        assert!(shards[0].get("key").is_none(), "v3 has no shard key");
        let lib0 = shards[0].get("libraries").and_then(Json::as_array).unwrap()[0].clone();
        assert_eq!(lib0.get("name").and_then(Json::as_str), Some("liba"));
        assert!(lib0.get("cost").is_none(), "v3 has no cost rows");
        assert_eq!(
            lib0.get("fingerprint").and_then(Json::as_str).map(str::len),
            Some(32),
            "128-bit hex fingerprint"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_root_plans_zero_shards() {
        let root = temp_tree("empty", &[]);
        std::fs::create_dir_all(&root).unwrap();
        let plan = plan(&root, 4).unwrap();
        assert_eq!(plan.library_count(), 0);
        assert!(plan.shards.is_empty());
        assert!(ffisafe_support::json::parse(&plan.manifest_json()).is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_is_a_typed_io_error() {
        let err = plan(Path::new("/definitely/not/here"), 1).unwrap_err();
        assert!(matches!(err, ApiError::Io { .. }), "{err:?}");
    }

    #[test]
    fn an_unloadable_library_is_a_planning_failure_not_an_abort() {
        let root = three_lib_tree("broken-lib");
        // a dangling symlink named like an FFI source: the walk finds it,
        // the load cannot read it
        std::fs::create_dir_all(root.join("libzz")).unwrap();
        std::os::unix::fs::symlink("/definitely/not/here.ml", root.join("libzz/broken.ml"))
            .unwrap();

        let plan = plan(&root, 2).unwrap();
        let names: Vec<&str> = plan.libraries.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["liba", "libb", "libc"], "healthy libraries still planned");
        assert_eq!(plan.failures.len(), 1);
        assert_eq!(plan.failures[0].library, "libzz");
        assert!(plan.failures[0].error.contains("cannot read"), "{:?}", plan.failures[0]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn drop_sources_keeps_fingerprints_and_files() {
        let root = three_lib_tree("dropsrc");
        let mut plan = plan(&root, 1).unwrap();
        let fps: Vec<_> = plan.libraries.iter().map(|l| l.fingerprint).collect();
        let manifest = plan.manifest_json();
        plan.drop_sources();
        assert!(plan.libraries.iter().all(|l| l.corpus.is_none()));
        assert_eq!(fps, plan.libraries.iter().map(|l| l.fingerprint).collect::<Vec<_>>());
        assert_eq!(manifest, plan.manifest_json(), "manifest needs no loaded sources");
        let _ = std::fs::remove_dir_all(&root);
    }
}
