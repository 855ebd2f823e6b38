//! Robustness: the OCaml frontend must never panic and must always skip
//! unrecognized items rather than derail.

use ffisafe_bench::corpus::generate;
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_ocaml::{lexer, parser, TypeRepository};
use ffisafe_support::rng::Rng64;
use ffisafe_support::{FileId, Fingerprint, FingerprintHasher};

fn pipeline(src: &str) {
    let parsed = parser::parse(FileId::from_raw(0), src);
    let mut repo = TypeRepository::new();
    repo.register_file(&parsed);
}

/// Arbitrary text.
fn arbitrary_inputs() -> Vec<String> {
    let mut rng = Rng64::seed_from_u64(0x0CA1);
    (0..512).map(|_| rng.arbitrary_text(200)).collect()
}

/// OCaml-shaped token soup.
fn ml_like_inputs() -> Vec<String> {
    const TOKS: &[&str] = &[
        "type", "external", "of", "and", "mutable", "let", "t", "A", "int", "'a", "->", "|", "*",
        "=", ":", ";", "(", ")", "{", "}", "[", "]", "`", "\"c_f\"",
    ];
    let mut rng = Rng64::seed_from_u64(0x0CA2);
    (0..512)
        .map(|_| {
            let n = rng.gen_range(0..60usize);
            let soup: Vec<&str> = (0..n).map(|_| TOKS[rng.gen_range(0..TOKS.len())]).collect();
            soup.join(" ")
        })
        .collect()
}

/// Arbitrary text: lex + parse + register must not panic.
#[test]
fn prop_parser_never_panics_on_arbitrary_input() {
    arbitrary_inputs().iter().for_each(|s| pipeline(s));
}

/// OCaml-shaped token soup.
#[test]
fn prop_parser_never_panics_on_ml_like_input() {
    ml_like_inputs().iter().for_each(|s| pipeline(s));
}

/// Bracket-free junk in front of one `type` and one `external`.
fn junk_inputs() -> Vec<String> {
    const JUNK_POOL: &[char] =
        &['a', 'b', 'c', 'x', 'y', 'z', '0', '1', '9', ' ', '\n', '=', '+', '*', ';', '.'];
    let mut rng = Rng64::seed_from_u64(0x0CA3);
    (0..512)
        .map(|_| {
            let n = rng.gen_range(0..80usize);
            let junk: String =
                (0..n).map(|_| JUNK_POOL[rng.gen_range(0..JUNK_POOL.len())]).collect();
            format!(
                "let junk = {junk}\ntype probe = P0 | P1 of int\nexternal pf : probe -> int = \"c_pf\"\n"
            )
        })
        .collect()
}

/// Declarations survive arbitrary surrounding junk (bracket-free —
/// an unbalanced opening bracket legitimately swallows what follows):
/// the declarations themselves must still be found.
#[test]
fn prop_declarations_survive_junk() {
    for src in junk_inputs() {
        let parsed = parser::parse(FileId::from_raw(0), &src);
        let types = parsed
            .items
            .iter()
            .filter(|i| matches!(i, ffisafe_ocaml::Item::Type(d) if d.name == "probe"))
            .count();
        let exts = parsed
            .items
            .iter()
            .filter(|i| matches!(i, ffisafe_ocaml::Item::External(e) if e.ml_name == "pf"))
            .count();
        assert_eq!(types, 1, "src: {src:?}");
        assert_eq!(exts, 1, "src: {src:?}");
    }
}

fn comment_bomb_input() -> String {
    format!("{}type t = int", "(* ".repeat(500))
}

fn deeply_nested_input() -> String {
    let mut ty = String::from("int");
    for _ in 0..300 {
        ty = format!("({ty}) list");
    }
    format!("type deep = {ty}")
}

#[test]
fn comment_bomb_terminates() {
    pipeline(&comment_bomb_input());
}

#[test]
fn deeply_nested_types_do_not_overflow() {
    pipeline(&deeply_nested_input());
}

/// Folds every token (kind, `lo`, `hi`), the parsed items and every parse
/// error (`lo`, `hi`, message) of `src` into `h`.
fn fold_parse(h: &mut FingerprintHasher, src: &str) {
    let file = FileId::from_raw(0);
    for t in lexer::lex(file, src) {
        h.write_str(&format!("{:?}", t.kind));
        h.write_u32(t.span.lo);
        h.write_u32(t.span.hi);
    }
    let parsed = parser::parse(file, src);
    h.write_str(&format!("{:?}", parsed.items));
    for (span, msg) in &parsed.errors {
        h.write_u32(span.lo);
        h.write_u32(span.hi);
        h.write_str(msg);
    }
}

/// Pins what the lexer and parser make of every input above, of every
/// Figure 9 `.ml` file and of every `examples/corpora` `.ml` file: tokens,
/// parsed items and error recovery alike, so a refactor of the frontend
/// cannot silently change what malformed input recovers to. An intended
/// change to the OCaml lexer or parser updates `ML_PARSE_DIGEST`.
#[test]
fn golden_parse_digest() {
    const ML_PARSE_DIGEST: &str = "3238ff4239676efb404d8848899a5ea1";
    let mut h = FingerprintHasher::new();
    for src in [arbitrary_inputs(), ml_like_inputs(), junk_inputs()].concat() {
        fold_parse(&mut h, &src);
    }
    fold_parse(&mut h, &comment_bomb_input());
    fold_parse(&mut h, &deeply_nested_input());
    for spec in paper_benchmarks() {
        fold_parse(&mut h, &generate(&spec).ml_source);
    }
    for src in corpora_sources("ml") {
        fold_parse(&mut h, &src);
    }
    let digest: Fingerprint = h.finish();
    assert_eq!(digest.to_hex(), ML_PARSE_DIGEST);
}

/// Every `examples/corpora/*/*.{ext}` source, in path order.
fn corpora_sources(ext: &str) -> Vec<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/corpora");
    let mut paths: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .flat_map(|lib| std::fs::read_dir(lib.unwrap().path()).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .{ext} sources under {}", root.display());
    paths.iter().map(|p| std::fs::read_to_string(p).unwrap()).collect()
}
