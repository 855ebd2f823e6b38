//! Seeded workload inputs and their known answers.
//!
//! Every corpus the benchmark sends is derived from the `--seed` argument
//! and the Figure 9 generator of `ffisafe-bench` (or the in-repo
//! `examples/corpora`), so the same seed always yields the same requests
//! and every verdict can be checked against ground truth.

use ffisafe_bench::corpus::{generate, Benchmark};
use ffisafe_bench::figure9::benchmark_corpus;
use ffisafe_bench::spec::{paper_benchmarks, BenchSpec};
use ffisafe_core::Corpus;
use ffisafe_support::rng::Rng64;
use std::path::Path;
use std::sync::Arc;

/// What a correct verdict on a corpus looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A synthesized Figure 9 library, scored against the generator's
    /// ground truth by the rules of `ffisafe_bench::figure9::score`.
    Figure9(Arc<Benchmark>),
    /// An example corpus, whose header documents its defects: the exact
    /// `(severity, code)` multiset of its non-note diagnostics.
    Example(Vec<(&'static str, &'static str)>),
}

/// One corpus to analyze, with its known answer.
#[derive(Clone, Debug)]
pub struct Job {
    /// Library name plus how this request was derived (edit, variant).
    pub label: String,
    /// The sources, in submission order.
    pub corpus: Arc<Corpus>,
    /// The known answer.
    pub expect: Expect,
}

impl Job {
    /// OCaml + C + Rust lines in the corpus.
    pub fn lines(&self) -> usize {
        self.corpus.ml_loc() + self.corpus.c_loc() + self.corpus.rust_loc()
    }
}

/// Derives an independent stream seed from the workload seed and a
/// position (splitmix64 finalizer over the combined words).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED63);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded shuffle of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// The Figure 9 spec called `name`.
pub fn spec(name: &str) -> BenchSpec {
    paper_benchmarks()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no Figure 9 benchmark named {name}"))
}

/// A Figure 9 library exactly as the paper's spec generates it.
pub fn figure9_job(spec: &BenchSpec) -> Job {
    job_of(spec.name.to_string(), generate(spec))
}

fn job_of(label: String, bench: Benchmark) -> Job {
    Job {
        label,
        corpus: Arc::new(benchmark_corpus(&bench)),
        expect: Expect::Figure9(Arc::new(bench)),
    }
}

/// A library generated from `spec` with a fresh generator seed. The seed
/// is also written into the first-line comment of both files: that keeps
/// every line number (so the ground truth holds) and makes every variant
/// a corpus the daemon has not seen, so its report-tier probe misses.
/// Functions that an earlier variant of the same library already solved
/// can still hit tier 1.
pub fn variant_job(spec: &BenchSpec, variant_seed: u64) -> Job {
    let mut spec = spec.clone();
    spec.rng_seed = variant_seed;
    let mut bench = generate(&spec);
    let tag = format!(" variant {variant_seed:016x}");
    insert_before_first(&mut bench.ml_source, "*)", &tag);
    insert_before_first(&mut bench.c_source, "*/", &tag);
    job_of(format!("{} variant {variant_seed:016x}", spec.name), bench)
}

fn insert_before_first(src: &mut String, needle: &str, text: &str) {
    let at = src.find(needle).expect("generated sources open with a comment");
    debug_assert!(!src[..at].contains('\n'), "the tagged comment is on line 1");
    src.insert_str(at, &format!("{text} "));
}

/// Lines of `bench`'s C source that an edit may touch: statements inside
/// a generated function body (indented, ending in `;`).
pub fn editable_lines(bench: &Benchmark) -> Vec<usize> {
    bench
        .c_source
        .lines()
        .enumerate()
        .filter(|(i, line)| {
            line.starts_with("    ")
                && line.trim_end().ends_with(';')
                && bench.func_at_c_line(*i as u32 + 1).is_some()
        })
        .map(|(i, _)| i)
        .collect()
}

const EDIT_WORDS: [&str; 8] = [
    "tweak",
    "fast path",
    "keep in sync with lib.ml",
    "was 3",
    "see caller",
    "TODO: check bounds",
    "retry once",
    "hot",
];

/// `bench` with one C statement edited, as a developer's save would:
/// a trailing comment whose text the seed picks is appended to a statement
/// line the seed picks. The edit changes that line's length but keeps
/// every line number and the verdict, so the ground truth stays valid.
/// `index` is part of the text, so no two requests send the same corpus.
pub fn edit_job(bench: &Benchmark, lines: &[usize], seed: u64, index: u64) -> Job {
    let mut rng = Rng64::seed_from_u64(mix(seed, 1, index));
    let target = lines[rng.gen_range(0..lines.len())];
    let word = EDIT_WORDS[rng.gen_range(0..EDIT_WORDS.len())];
    let mut c_source = String::with_capacity(bench.c_source.len() + 48);
    for (i, line) in bench.c_source.lines().enumerate() {
        c_source.push_str(line);
        if i == target {
            c_source.push_str(&format!(" /* {word} #{index} */"));
        }
        c_source.push('\n');
    }
    let edited = Benchmark { c_source, ..bench.clone() };
    job_of(format!("{} edit #{index} at C line {}", bench.name, target + 1), edited)
}

/// The six example corpora and the defects their headers document.
pub const EXAMPLES: [(&str, &[(&str, &str)]); 6] = [
    ("gadgets", &[("imprecision", "P001")]),
    ("imgcodec", &[("error", "E011")]),
    ("intcalc", &[]),
    ("meshgrid", &[("error", "E013")]),
    ("ringbuf", &[]),
    ("strutil", &[("error", "E001")]),
];

/// Writes the `cold-sweep` tree under `root`: one directory per Figure 9
/// library (as the paper's spec generates it) plus a copy of each example
/// corpus read from `examples`. Returns every library's known answer by
/// directory name, and the tree's total OCaml + C + Rust lines.
pub fn write_sweep_tree(
    root: &Path,
    examples: &Path,
) -> std::io::Result<(Vec<(String, Expect)>, usize)> {
    let mut answers = Vec::new();
    let mut lines = 0;
    for spec in paper_benchmarks() {
        let bench = generate(&spec);
        let dir = root.join(spec.name);
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("lib.ml"), &bench.ml_source)?;
        std::fs::write(dir.join("glue.c"), &bench.c_source)?;
        lines += bench.ml_source.lines().count() + bench.c_source.lines().count();
        answers.push((spec.name.to_string(), Expect::Figure9(Arc::new(bench))));
    }
    for (name, expected) in EXAMPLES {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir)?;
        let mut found = 0;
        for entry in std::fs::read_dir(examples.join(name))? {
            let path = entry?.path();
            let text = std::fs::read_to_string(&path)?;
            lines += text.lines().count();
            std::fs::write(dir.join(path.file_name().expect("a file entry has a name")), text)?;
            found += 1;
        }
        if found == 0 {
            return Err(std::io::Error::other(format!("example corpus {name} is empty")));
        }
        answers.push((name.to_string(), Expect::Example(expected.to_vec())));
    }
    Ok((answers, lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_keep_line_numbers_and_change_one_line_length() {
        let bench = generate(&spec("ftplib-0.12"));
        let lines = editable_lines(&bench);
        assert!(lines.len() > 100, "{}", lines.len());
        let a = edit_job(&bench, &lines, 7, 3);
        let b = edit_job(&bench, &lines, 7, 3);
        assert_eq!(a.corpus.fingerprint(), b.corpus.fingerprint(), "same seed, same input");
        let c = edit_job(&bench, &lines, 8, 3);
        assert_ne!(a.corpus.fingerprint(), c.corpus.fingerprint(), "another seed, another edit");
        let Expect::Figure9(edited) = &a.expect else { panic!() };
        let before: Vec<&str> = bench.c_source.lines().collect();
        let after: Vec<&str> = edited.c_source.lines().collect();
        assert_eq!(before.len(), after.len());
        let changed: Vec<usize> = (0..before.len()).filter(|&i| before[i] != after[i]).collect();
        assert_eq!(changed.len(), 1);
        assert_ne!(before[changed[0]].len(), after[changed[0]].len());
    }

    #[test]
    fn variants_keep_line_numbers_and_differ_from_the_paper_library() {
        let spec = spec("gz-0.5.5");
        let paper = figure9_job(&spec);
        let variant = variant_job(&spec, 42);
        assert_ne!(paper.corpus.fingerprint(), variant.corpus.fingerprint());
        assert_eq!(paper.corpus.c_loc(), variant.corpus.c_loc());
        assert_eq!(paper.corpus.ml_loc(), variant.corpus.ml_loc());
    }
}
