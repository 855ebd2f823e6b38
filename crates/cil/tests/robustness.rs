//! Robustness: the C frontend must never panic, whatever bytes it is fed —
//! the analysis runs on real-world code it does not control.

use ffisafe_bench::corpus::generate;
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_cil::{lexer, lower, parser};
use ffisafe_support::rng::Rng64;
use ffisafe_support::{FileId, Fingerprint, FingerprintHasher};

fn pipeline(src: &str) {
    let unit = parser::parse(FileId::from_raw(0), src);
    let _ = lower::lower_unit(&unit);
}

/// Arbitrary UTF-8 soup.
fn arbitrary_inputs() -> Vec<String> {
    let mut rng = Rng64::seed_from_u64(0xC111);
    (0..512).map(|_| rng.arbitrary_text(200)).collect()
}

/// C-shaped token soup: plausible glue fragments with random structure.
fn c_like_inputs() -> Vec<String> {
    const TOKS: &[&str] = &[
        "value",
        "int",
        "if",
        "while",
        "return",
        "switch",
        "case",
        "CAMLparam1",
        "CAMLreturn",
        "Val_int",
        "Int_val",
        "Field",
        "(",
        ")",
        "{",
        "}",
        ";",
        ",",
        "*",
        "=",
        "+",
        "x",
        "f",
        "0",
        "1",
    ];
    let mut rng = Rng64::seed_from_u64(0xC112);
    (0..512)
        .map(|_| {
            let n = rng.gen_range(0..80usize);
            let soup: Vec<&str> = (0..n).map(|_| TOKS[rng.gen_range(0..TOKS.len())]).collect();
            soup.join(" ")
        })
        .collect()
}

/// Every prefix (up to 400 bytes, cut at a char boundary) of a real glue
/// function.
fn truncated_inputs() -> Vec<String> {
    let full = r#"
        value ml_examine(value x, value opts) {
            CAMLparam2(x, opts);
            CAMLlocal1(res);
            if (Is_long(x)) {
                switch (Int_val(x)) {
                case 0: res = Val_int(10); break;
                default: res = Val_int(0); break;
                }
            } else {
                res = Field(x, 0);
            }
            CAMLreturn(res);
        }
    "#;
    (0..400usize)
        .map(|cut| {
            let mut end = cut.min(full.len());
            while !full.is_char_boundary(end) {
                end -= 1;
            }
            full[..end].to_string()
        })
        .collect()
}

fn deeply_nested_input() -> String {
    format!("int f(int x) {{ return {}x{}; }}", "(".repeat(200), ")".repeat(200))
}

const UNBALANCED: [&str; 2] =
    ["value f(value x) { { { { return x; ", "}}}}}} value g(value y) { return y; }"];

/// Arbitrary UTF-8 soup: lex + parse + lower must not panic.
#[test]
fn prop_parser_never_panics_on_arbitrary_input() {
    arbitrary_inputs().iter().for_each(|s| pipeline(s));
}

/// C-shaped token soup: plausible glue fragments with random structure.
#[test]
fn prop_parser_never_panics_on_c_like_input() {
    c_like_inputs().iter().for_each(|s| pipeline(s));
}

/// Truncations of a real glue function parse without panicking.
#[test]
fn prop_truncated_glue_never_panics() {
    truncated_inputs().iter().for_each(|s| pipeline(s));
}

#[test]
fn deeply_nested_expressions_do_not_overflow() {
    pipeline(&deeply_nested_input());
}

#[test]
fn unbalanced_braces_terminate() {
    UNBALANCED.iter().for_each(|s| pipeline(s));
}

/// Folds every token (kind, `lo`, `hi`), the parsed functions and globals,
/// and every parse error (`lo`, `hi`, message) of `src` into `h`.
fn fold_parse(h: &mut FingerprintHasher, src: &str) {
    let file = FileId::from_raw(0);
    for t in lexer::lex(file, src) {
        h.write_str(&format!("{:?}", t.kind));
        h.write_u32(t.span.lo);
        h.write_u32(t.span.hi);
    }
    let unit = parser::parse(file, src);
    h.write_str(&format!("{:?}", unit.functions));
    h.write_str(&format!("{:?}", unit.globals));
    for (span, msg) in &unit.errors {
        h.write_u32(span.lo);
        h.write_u32(span.hi);
        h.write_str(msg);
    }
}

/// Pins what the lexer and parser make of every input above, of every
/// Figure 9 glue file and of every `examples/corpora` `.c` file: tokens,
/// parsed items and error recovery alike, so a refactor of the frontend
/// cannot silently change what malformed input recovers to. An intended
/// change to the C lexer or parser updates `C_PARSE_DIGEST`.
#[test]
fn golden_parse_digest() {
    const C_PARSE_DIGEST: &str = "a68515a22520916fe001e8ab03701203";
    let mut h = FingerprintHasher::new();
    let seeded = [arbitrary_inputs(), c_like_inputs(), truncated_inputs()].concat();
    for src in &seeded {
        fold_parse(&mut h, src);
    }
    fold_parse(&mut h, &deeply_nested_input());
    UNBALANCED.iter().for_each(|s| fold_parse(&mut h, s));
    for spec in paper_benchmarks() {
        fold_parse(&mut h, &generate(&spec).c_source);
    }
    for src in corpora_sources("c") {
        fold_parse(&mut h, &src);
    }
    let digest: Fingerprint = h.finish();
    assert_eq!(digest.to_hex(), C_PARSE_DIGEST);
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
