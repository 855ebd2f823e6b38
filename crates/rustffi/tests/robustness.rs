//! Robustness: the Rust frontend must never panic, whatever bytes it is
//! fed — `.rs` surfaces come from crates the tool authors never saw.

use ffisafe_cil::IrProgram;
use ffisafe_rustffi::{check, lexer, parser, RustProgram};
use ffisafe_support::rng::Rng64;
use ffisafe_support::{FileId, Fingerprint, FingerprintHasher};

fn pipeline(src: &str) {
    let parsed = parser::parse(FileId::from_raw(0), "lib.rs", src);
    let program = RustProgram::merge(&[parsed]);
    let _ = check(&program, &IrProgram::default());
}

/// Arbitrary UTF-8 soup.
fn arbitrary_inputs() -> Vec<String> {
    let mut rng = Rng64::seed_from_u64(0x125F);
    (0..512).map(|_| rng.arbitrary_text(200)).collect()
}

/// Rust-shaped token soup: item keywords, attributes, generics and
/// delimiters in random order.
fn rust_like_inputs() -> Vec<String> {
    const TOKS: &[&str] = &[
        "extern",
        "\"C\"",
        "fn",
        "pub",
        "unsafe",
        "struct",
        "enum",
        "union",
        "type",
        "mod",
        "impl",
        "static",
        "mut",
        "#",
        "[",
        "]",
        "repr",
        "(",
        ")",
        "{",
        "}",
        "<",
        ">",
        ">>",
        "'a",
        "&",
        "*const",
        "*mut",
        "->",
        "::",
        ":",
        ";",
        ",",
        "=",
        "...",
        "i32",
        "u8",
        "x",
        "r#type",
        "r#\"s\"#",
        "b'x'",
        "no_mangle",
    ];
    let mut rng = Rng64::seed_from_u64(0x1260);
    (0..512)
        .map(|_| {
            let n = rng.gen_range(0..80usize);
            let soup: Vec<&str> = (0..n).map(|_| TOKS[rng.gen_range(0..TOKS.len())]).collect();
            soup.join(" ")
        })
        .collect()
}

/// Every prefix (cut at a char boundary) of a realistic boundary surface.
fn truncated_inputs() -> Vec<String> {
    let full = r###"
        #[repr(C)]
        pub struct Pair<'a> { pub len: u32, data: &'a [u8; 4], next: *mut Pair<'a> }
        #[repr(u8)]
        enum Mode { Read = 1, Write = (1 << 2) }
        extern "C" {
            #[link_name = "pair_new_impl"]
            pub fn pair_new(len: u32, cb: Option<extern "C" fn(*const u8) -> i32>) -> *mut Pair<'static>;
            static mut PAIR_ERRNO: i32;
        }
        #[no_mangle]
        pub unsafe extern "C" fn pair_len(p: *const Pair) -> u32 { let s = r#"}"#; (*p).len }
    "###;
    (0..full.len() + 1)
        .map(|cut| {
            let mut end = cut;
            while !full.is_char_boundary(end) {
                end -= 1;
            }
            full[..end].to_string()
        })
        .collect()
}

fn deeply_nested_input() -> String {
    format!("{}extern \"C\" {{ fn f(x: i32); }}{}", "mod m { ".repeat(200), "}".repeat(200))
}

const UNBALANCED: [&str; 3] = [
    "extern \"C\" { fn f(x: i32) -> i32; { { {",
    "}}}} #[no_mangle] pub extern \"C\" fn g(y: u8) {}",
    "struct S<'a, T: Iterator<Item = Vec<u8>>> { f: Option<Box<T>>>> }",
];

/// Arbitrary UTF-8 soup: lex + parse + check must not panic.
#[test]
fn prop_parser_never_panics_on_arbitrary_input() {
    arbitrary_inputs().iter().for_each(|s| pipeline(s));
}

/// Rust-shaped token soup: plausible boundary fragments with random
/// structure.
#[test]
fn prop_parser_never_panics_on_rust_like_input() {
    rust_like_inputs().iter().for_each(|s| pipeline(s));
}

/// Truncations of a real boundary surface parse without panicking.
#[test]
fn prop_truncated_surface_never_panics() {
    truncated_inputs().iter().for_each(|s| pipeline(s));
}

#[test]
fn nested_modules_do_not_overflow() {
    let parsed = parser::parse(FileId::from_raw(0), "lib.rs", &deeply_nested_input());
    assert_eq!(parsed.imports.len(), 1);
}

#[test]
fn unbalanced_delimiters_terminate() {
    UNBALANCED.iter().for_each(|s| pipeline(s));
}

/// A `br#` raw byte-string prefix that reaches end of input before its
/// opening quote must not slice past the end of the source.
#[test]
fn raw_byte_string_prefix_at_end_of_input() {
    for src in ["const X: &[u8] = br#", "br##", "br"] {
        pipeline(src);
    }
}

/// Folds every token (kind, `lo`, `hi`), the parsed surface and every
/// parse error (`lo`, `hi`, message) of `src` into `h`.
fn fold_parse(h: &mut FingerprintHasher, src: &str) {
    let file = FileId::from_raw(0);
    for t in lexer::lex(file, src) {
        h.write_str(&format!("{:?}", t.kind));
        h.write_u32(t.span.lo);
        h.write_u32(t.span.hi);
    }
    let f = parser::parse(file, "lib.rs", src);
    h.write_str(&format!("{:?}", (&f.imports, &f.statics, &f.exports, &f.types, &f.aliases)));
    for (span, msg) in &f.errors {
        h.write_u32(span.lo);
        h.write_u32(span.hi);
        h.write_str(msg);
    }
}

/// Pins what the lexer and parser make of every input above and of every
/// `examples/corpora` `.rs` file: tokens, parsed items and error recovery
/// alike, so a refactor of the frontend cannot silently change what
/// malformed input recovers to. An intended change to the Rust lexer or
/// parser updates `RS_PARSE_DIGEST`.
#[test]
fn golden_parse_digest() {
    const RS_PARSE_DIGEST: &str = "ff616c2bd4a1aa89c6270122e945a46b";
    let mut h = FingerprintHasher::new();
    for src in [arbitrary_inputs(), rust_like_inputs(), truncated_inputs()].concat() {
        fold_parse(&mut h, &src);
    }
    fold_parse(&mut h, &deeply_nested_input());
    UNBALANCED.iter().for_each(|s| fold_parse(&mut h, s));
    for src in corpora_sources("rs") {
        fold_parse(&mut h, &src);
    }
    let digest: Fingerprint = h.finish();
    assert_eq!(digest.to_hex(), RS_PARSE_DIGEST);
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
