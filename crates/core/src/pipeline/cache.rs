//! Fingerprint recipes and payload codecs for the incremental cache.
//!
//! The storage layer ([`ffisafe_cache`]) is analysis-agnostic; this module
//! defines what the cached bytes *mean* for the pipeline:
//!
//! * **Fingerprints.** [`base_state_digest`] hashes the frozen post-link
//!   [`super::infer::BaseState`] *itself* — the six immutable type-node
//!   arenas, the registry `Γ_I`, the post-link constraint set and the
//!   Φ-translated external signatures — plus the semantic analysis
//!   options and the analyzer version. [`function_fingerprint`] then
//!   folds in one function's complete lowered IR (spans included, since
//!   diagnostics carry them). A worker's overlay reads nothing else —
//!   sibling function *bodies* never reach the link stage and are
//!   invisible behind overlay isolation — so two runs agreeing on a
//!   function's fingerprint produce identical [`FunctionOutcome`]s by
//!   construction. Because the digest is taken over the frozen state
//!   rather than the input surface, it is by construction identical
//!   across `--jobs` widths and across cold/warm runs of one corpus.
//! * **Codecs.** [`encode_outcome`]/[`decode_outcome`] serialize the
//!   plain-data [`FunctionOutcome`] for tier 1;
//!   [`encode_report`]/[`decode_report`] serialize the rendered stable
//!   report for tier 2. Every payload type implements one private
//!   `Payload` trait whose `put` and `get` sit side by side, so each field
//!   order is written once. Decoding is total: any malformed payload
//!   yields `None` and the caller treats it as a miss.
//! * **Packs.** Every tier-1 key of one run shares the base digest, so the
//!   run's outcomes are stored together: one tier-1 entry under
//!   [`pack_key`] holds `(function fingerprint, outcome payload)`
//!   records ([`encode_pack`]/[`decode_pack`]), and a run reads and
//!   writes it once instead of one entry per function. The only other
//!   tier-1 entry is the Rust boundary check's.
//!
//! Clone-local [`EffectKey::Local`] ids are encoded *without* their
//! function index and re-bound to the replaying run's index on decode.
//! This is defense in depth rather than a reachable codepath today:
//! adding or removing *any* function changes [`base_state_digest`]
//! (every signature lands in the frozen registry workers observe), so
//! whenever a fingerprint matches, the function's index necessarily
//! matches too. Rebinding keeps the payload format honest —
//! an index is derivable context, not content — should the surface digest
//! ever become insensitive to unrelated signatures.

use super::infer::{
    DeferredPsiBound, EffectKey, FunctionOutcome, InterfacePin, ResolvedObligation,
};
use ffisafe_cache::{CacheBackend, CacheStore, Decoder, Encoder, Tier};
use ffisafe_cil as cil;
use ffisafe_ocaml as ocaml;
use ffisafe_rustffi as rustffi;
use ffisafe_support::{
    AnalysisOptions, Diagnostic, DiagnosticBag, DiagnosticCode, Fingerprint, FingerprintHasher,
    Severity, Span,
};
use ffisafe_types::{
    CtId, FlatInt, GcId, MtId, PiId, PsiBound, PsiId, PsiNode, PsiViolation, SigmaId,
};
use std::sync::Arc;

/// Bumped whenever the meaning or layout of cached payloads or the
/// fingerprint recipes change; folded into the store's analyzer version so
/// a bump wipes stale caches wholesale.
///
/// v2: the tier-2 key became `report_key(corpus content digest, options)` —
/// the corpus digest no longer folds the options in directly, so corpora
/// fingerprinted once (the [`crate::api::Corpus`] flow) can be probed under
/// any options.
///
/// v3: the tier-1 base digest is taken over the *frozen* post-link base
/// state ([`base_state_digest`]) instead of the pre-link input surface —
/// same invalidation behavior, but computed from what workers actually
/// read.
///
/// v4: the Rust frontend landed — corpus content digests now carry a third
/// [`crate::api::SourceKind`] tag, diagnostic payloads can carry the
/// `E011`–`E014`/`W004` boundary codes, and the Rust boundary check is
/// memoized under [`rust_check_fingerprint`]. Pre-Rust stores never saw
/// those tags, but the schema bump wipes them anyway so no v3 payload is
/// ever decoded by a decoder that assigns the new tags meaning.
///
/// v5: a run's function outcomes live in one pack per base state under
/// [`pack_key`] instead of one entry per [`function_fingerprint`]; the
/// outcome payloads inside a pack are unchanged.
pub const CACHE_SCHEMA_VERSION: u32 = 5;

/// The producer identity pinned in the cache index: crate version plus
/// payload schema version.
pub fn analyzer_cache_version() -> String {
    format!("ffisafe {} schema {}", env!("CARGO_PKG_VERSION"), CACHE_SCHEMA_VERSION)
}

/// One analysis run's view of the (possibly shared) two-tier store.
///
/// The store sits behind `Arc<dyn CacheBackend>` because an
/// [`AnalysisService`] opens it once and lends it to every request in a
/// batch. Backends are internally synchronized (the local store keeps
/// one file per entry, so its directory is its own index), so concurrent
/// pipelines hit the store directly instead of funneling through one
/// mutex. Each `PipelineCache` additionally carries the run's
/// base-surface digest, which is per-request state.
///
/// [`AnalysisService`]: crate::api::AnalysisService
#[derive(Debug)]
pub struct PipelineCache {
    /// The two-tier store (local dir or remote daemon), shareable across
    /// concurrent runs.
    store: Arc<dyn CacheBackend>,
    /// Digest of the base-state surface; [`function_fingerprint`] extends
    /// it per function. Set by the driver once linking inputs are known.
    pub base_digest: Fingerprint,
}

impl PipelineCache {
    /// Opens a store under `dir`, keyed to this analyzer build, private to
    /// one run.
    pub fn open(dir: &std::path::Path) -> std::io::Result<PipelineCache> {
        let store = CacheStore::open(dir, &analyzer_cache_version())?;
        Ok(PipelineCache::from_shared(Arc::new(store)))
    }

    /// Wraps an already-open backend shared with other runs.
    pub fn from_shared(store: Arc<dyn CacheBackend>) -> PipelineCache {
        PipelineCache { store, base_digest: Fingerprint(0, 0) }
    }

    /// Fetches one validated entry; `None` is a miss.
    pub fn get(&self, tier: Tier, fp: Fingerprint) -> Option<Vec<u8>> {
        self.store.get(tier, fp)
    }

    /// Stores one entry; failures only cost future hits.
    pub fn put(&self, tier: Tier, fp: Fingerprint, payload: &[u8]) {
        let _ = self.store.put(tier, fp, payload);
    }

    /// Persists the index (best-effort, like `put`).
    pub fn flush(&self) {
        let _ = self.store.flush();
    }
}

/// Digest of one registered source file for the tier-2 corpus key.
///
/// `kind` distinguishes how the driver parsed the file (OCaml vs C vs
/// Rust), since the file name alone need not determine it for library
/// users.
pub fn hash_source_file(h: &mut FingerprintHasher, kind: u8, name: &str, src: &str) {
    h.write_u8(kind);
    h.write_str(name);
    h.write_str(src);
}

/// Streams `v`'s `Debug` rendering into the hash without materializing a
/// `String`, then delimits the field with its streamed byte count (a
/// length *suffix* is as collision-proof as a prefix, and unlike a prefix
/// it does not require knowing the length up front).
fn hash_debug<T: std::fmt::Debug + ?Sized>(h: &mut FingerprintHasher, v: &T) {
    use std::fmt::Write as _;
    let before = h.bytes_written();
    let _ = write!(h, "{v:?}");
    let streamed = h.bytes_written() - before;
    h.write_u64(streamed);
}

/// Content digest of a whole corpus: every input file (kind, name,
/// content) in registration order, and nothing else. This is what
/// [`crate::api::Corpus`] is fingerprinted with once at build time;
/// combine it with the options via [`report_key`] to address the tier-2
/// report cache.
pub fn corpus_content_digest<'a>(
    files: impl Iterator<Item = (u8, &'a str, &'a str)>,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("ffisafe-corpus-content");
    for (kind, name, src) in files {
        hash_source_file(&mut h, kind, name, src);
    }
    h.finish()
}

/// The tier-2 report key: corpus content digest plus the semantic options.
/// The analyzer version is enforced store-wide by the index header, not
/// per key.
pub fn report_key(content: Fingerprint, options: &AnalysisOptions) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("ffisafe-report-key");
    h.write_fingerprint(content);
    h.write_fingerprint(options.semantic_digest());
    h.finish()
}

/// Digest of the frozen post-link base state: everything a worker's
/// overlay can observe besides its own function's lowered IR.
///
/// Hashes the six immutable type-node arenas in id order, the registry in
/// symbol order (a `HashMap` walk would be process-random), the post-link
/// constraint set, and the Φ-translated external signatures. Every
/// auxiliary field of [`super::infer::BaseState`] (canonical-id tables,
/// open variables, heap-slot candidates, …) is a pure function of those
/// four inputs, so this digest determines the whole state workers read.
///
/// Function *bodies* never reach the link stage, so a body edit leaves
/// this digest unchanged and sibling tier-1 entries survive; signature,
/// prototype and `.ml` declaration edits all reshape the frozen arenas or
/// the registry and invalidate everything. The digest is computed from
/// the frozen state — not the input files — so it is identical across
/// `--jobs` widths and across cold/warm runs by construction.
pub fn base_state_digest(
    options: &AnalysisOptions,
    base: &super::infer::BaseState,
    phase1: &ocaml::translate::Phase1,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("ffisafe-base-state");
    h.write_fingerprint(options.semantic_digest());

    // The frozen arena, sort by sort, id order. Node enums hold only
    // plain data (ids, strings, vectors), so `Debug` is stable.
    h.write_u64(base.frozen.node_count() as u64);
    hash_debug(&mut h, &base.frozen.nodes::<MtId>());
    hash_debug(&mut h, &base.frozen.nodes::<CtId>());
    hash_debug(&mut h, &base.frozen.nodes::<PsiId>());
    hash_debug(&mut h, &base.frozen.nodes::<SigmaId>());
    hash_debug(&mut h, &base.frozen.nodes::<PiId>());
    hash_debug(&mut h, &base.frozen.nodes::<GcId>());

    // Γ_I in symbol order, with the name↔symbol binding made explicit.
    let funcs = base.registry.iter_stable();
    h.write_u64(funcs.len() as u64);
    for (sym, info) in funcs {
        h.write_u32(sym.as_raw());
        hash_debug(&mut h, info);
    }

    // Post-link constraints: the base GC effect edges and Ψ bounds.
    h.write_u64(base.constraints.gc_edge_count() as u64);
    for (lo, hi) in base.constraints.gc_edges_from(0) {
        h.write_u32(lo.as_raw());
        h.write_u32(hi.as_raw());
    }
    h.write_u64(base.constraints.psi_bound_count() as u64);
    for b in base.constraints.psi_bounds_from(0) {
        hash_debug(&mut h, b);
    }

    // The Φ-translated signatures workers key interface pins and
    // polymorphic-abuse slots by (spans included: diagnostics carry them).
    hash_debug(&mut h, &phase1.signatures);
    h.finish()
}

/// The tier-1 key: the base-surface digest plus one function's complete
/// lowered IR. `address_taken` is a `HashSet`, whose iteration order is
/// process-random, so it is sorted before hashing — everything else goes
/// through the derived `Hash` of plain vectors and enums, which is
/// stable. Not a `Debug` rendering: every cached run fingerprints every
/// function, and rendering scale-12k's IR took 14.5 ms, 3% of an
/// uncached run at `jobs = 1`, against 4.4 ms through `Hash`.
pub fn function_fingerprint(base_digest: Fingerprint, func: &cil::ir::IrFunction) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("ffisafe-function");
    h.write_fingerprint(base_digest);
    h.write_str(&func.name);
    h.write_hash(&func.ret);
    h.write_hash(&func.locals);
    h.write_u64(func.n_params as u64);
    h.write_hash(&func.body);
    h.write_u64(func.n_labels as u64);
    let mut taken: Vec<u32> = func.address_taken.iter().map(|v| v.0).collect();
    taken.sort_unstable();
    h.write_u64(taken.len() as u64);
    for v in taken {
        h.write_u32(v);
    }
    h.write_bool(func.is_static);
    h.write_hash(&func.span);
    h.finish()
}

/// The Rust boundary-check key: the merged `.rs` surface plus everything
/// the checker can read of the C program — function signatures (return
/// type, the parameter prefix of the locals, spans), prototypes and
/// globals, but never function *bodies*. A C body edit or an `.ml` edit
/// therefore replays the memoized check, while any boundary-relevant
/// `.rs` edit or C signature edit invalidates exactly this one entry.
///
/// The [`rustffi::RustProgram`] is hashed via `Debug`: it holds only plain
/// data (strings, enums, spans) and its maps are `BTreeMap`s, so the
/// rendering is deterministic. Spans participate on both sides because the
/// cached diagnostics carry them.
pub fn rust_check_fingerprint(
    options: &AnalysisOptions,
    rust: &rustffi::RustProgram,
    c: &cil::IrProgram,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("ffisafe-rust-check");
    h.write_fingerprint(options.semantic_digest());
    hash_debug(&mut h, rust);
    h.write_u64(c.functions.len() as u64);
    for f in &c.functions {
        h.write_str(&f.name);
        hash_debug(&mut h, &f.ret);
        hash_debug(&mut h, &f.locals[..f.n_params]);
        h.write_u64(f.n_params as u64);
        hash_debug(&mut h, &f.span);
    }
    hash_debug(&mut h, &c.prototypes);
    hash_debug(&mut h, &c.globals);
    h.finish()
}

// ---- severity / code tags ----------------------------------------------

fn severity_tag(s: Severity) -> u8 {
    match s {
        Severity::Error => 0,
        Severity::Warning => 1,
        Severity::Imprecision => 2,
        Severity::Note => 3,
    }
}

fn severity_from_tag(t: u8) -> Option<Severity> {
    Some(match t {
        0 => Severity::Error,
        1 => Severity::Warning,
        2 => Severity::Imprecision,
        3 => Severity::Note,
        _ => return None,
    })
}

// ---- the payload codec --------------------------------------------------

/// One type's payload form: its writer and its reader side by side, so
/// each field order is written once. `get` is total: a malformed payload
/// yields `None`, never a panic.
trait Payload: Sized {
    fn put(&self, e: &mut Encoder);
    fn get(d: &mut Decoder) -> Option<Self>;
}

fn encode<T: Payload>(value: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    value.put(&mut e);
    e.into_bytes()
}

/// Decodes one whole payload; bytes left over make it malformed too.
fn decode<T: Payload>(bytes: &[u8]) -> Option<T> {
    let mut d = Decoder::new(bytes);
    let value = T::get(&mut d)?;
    d.finish().ok()?;
    Some(value)
}

impl Payload for u32 {
    fn put(&self, e: &mut Encoder) {
        e.put_u32(*self);
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        d.get_u32().ok()
    }
}

impl Payload for bool {
    fn put(&self, e: &mut Encoder) {
        e.put_bool(*self);
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        d.get_bool().ok()
    }
}

/// Counters, signature indices and slots: a plain `u64`. Unlike a
/// collection length, such a value is not bounded by the payload size (a
/// large clean function allocates far more nodes than its outcome has
/// bytes), so it skips `Decoder::get_len`'s guard; range checks are the
/// caller's.
impl Payload for usize {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(*self as u64);
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        usize::try_from(d.get_u64().ok()?).ok()
    }
}

impl Payload for String {
    fn put(&self, e: &mut Encoder) {
        e.put_str(self);
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        d.get_str().ok()
    }
}

impl Payload for Span {
    fn put(&self, e: &mut Encoder) {
        e.put_span(*self);
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        d.get_span().ok()
    }
}

impl Payload for PsiId {
    fn put(&self, e: &mut Encoder) {
        e.put_u32(self.as_raw());
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        Some(PsiId::from_raw(d.get_u32().ok()?))
    }
}

/// A collection: its length, read through `Decoder::get_len`'s guard, then
/// its elements.
impl<T: Payload> Payload for Vec<T> {
    fn put(&self, e: &mut Encoder) {
        put_slice(e, self);
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        let n = d.get_len().ok()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(d)?);
        }
        Some(items)
    }
}

fn put_slice<T: Payload>(e: &mut Encoder, items: &[T]) {
    e.put_len(items.len());
    for item in items {
        item.put(e);
    }
}

/// Implements [`Payload`] for a tuple: its fields in order.
macro_rules! tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Payload),*> Payload for ($($t,)*) {
            fn put(&self, e: &mut Encoder) {
                $(self.$i.put(e);)*
            }
            fn get(d: &mut Decoder) -> Option<Self> {
                Some(($($t::get(d)?,)*))
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);

/// Implements [`Payload`] for a struct from one list of its fields in
/// payload order. `get` builds the struct with a literal, so a field that
/// is neither listed nor named under `zero` (not carried, decoded as
/// `0.0`) does not compile.
macro_rules! record {
    ($ty:ident { $($field:ident),* } $(zero { $($zero:ident),* })?) => {
        impl Payload for $ty {
            fn put(&self, e: &mut Encoder) {
                $(self.$field.put(e);)*
            }
            fn get(d: &mut Decoder) -> Option<Self> {
                Some($ty { $($field: Payload::get(d)?,)* $($($zero: 0.0,)*)? })
            }
        }
    };
}

// A replayed outcome reports zero seconds: no work was performed.
record!(FunctionOutcome {
    name, diagnostics, passes, new_nodes, gc_edges, recorded_gc_edges, gc_roots, obligations,
    psi_violations, psi_pins, deferred_psi_bounds, pinned_polys, interface_pins, heap_slots
} zero { seconds, setup_seconds });
record!(ResolvedObligation {
    callee,
    effect,
    effect_is_gc,
    unprotected_heap_ptrs,
    deferred_ptrs,
    span
});
record!(PsiViolation { bound, reason });
record!(PsiBound { t, psi, span, context });
record!(DeferredPsiBound { mt_key, t, span, context });
record!(InterfacePin { sig_idx, slot, mt_key, rendered, func_span, func_name });
record!(CachedReport { errors, warnings, imprecision, rendered, diagnostics });

/// A local key is written without its function index and decodes bound to
/// function 0; [`decode_outcome`] re-binds it to the replaying index.
impl Payload for EffectKey {
    fn put(&self, e: &mut Encoder) {
        let (tag, raw) = match *self {
            EffectKey::Base(raw) => (0, raw),
            EffectKey::Local { raw, .. } => (1, raw),
        };
        e.put_u8(tag);
        e.put_u32(raw);
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        Some(match d.get_u8().ok()? {
            0 => EffectKey::Base(d.get_u32().ok()?),
            1 => EffectKey::Local { func: 0, raw: d.get_u32().ok()? },
            _ => return None,
        })
    }
}

impl Payload for FlatInt {
    fn put(&self, e: &mut Encoder) {
        match *self {
            FlatInt::Bot => e.put_u8(0),
            FlatInt::Known(n) => {
                e.put_u8(1);
                e.put_i64(n);
            }
            FlatInt::Top => e.put_u8(2),
        }
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        Some(match d.get_u8().ok()? {
            0 => FlatInt::Bot,
            1 => FlatInt::Known(d.get_i64().ok()?),
            2 => FlatInt::Top,
            _ => return None,
        })
    }
}

impl Payload for PsiNode {
    fn put(&self, e: &mut Encoder) {
        match *self {
            PsiNode::Count(k) => {
                e.put_u8(0);
                e.put_u32(k);
            }
            PsiNode::Top => e.put_u8(1),
            // refused by `encode_outcome` before any byte is written
            PsiNode::Var | PsiNode::Link(_) => unreachable!("unresolved pins are not cached"),
        }
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        Some(match d.get_u8().ok()? {
            0 => PsiNode::Count(d.get_u32().ok()?),
            1 => PsiNode::Top,
            _ => return None,
        })
    }
}

impl Payload for Diagnostic {
    fn put(&self, e: &mut Encoder) {
        e.put_u8(self.code().cache_tag());
        e.put_u8(severity_tag(self.severity()));
        e.put_span(self.span());
        e.put_str(self.message());
        put_slice(e, self.notes());
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        let code = DiagnosticCode::from_cache_tag(d.get_u8().ok()?)?;
        let severity = severity_from_tag(d.get_u8().ok()?)?;
        let (span, message) = <(Span, String)>::get(d)?;
        let diag = Diagnostic::new(code, span, message).with_severity(severity);
        let notes = Vec::<(Span, String)>::get(d)?;
        Some(notes.into_iter().fold(diag, |diag, (span, note)| diag.with_note(span, note)))
    }
}

impl Payload for DiagnosticBag {
    fn put(&self, e: &mut Encoder) {
        e.put_len(self.len());
        for diag in self.iter() {
            diag.put(e);
        }
    }
    fn get(d: &mut Decoder) -> Option<Self> {
        let mut bag = DiagnosticBag::new();
        for _ in 0..d.get_len().ok()? {
            bag.push(Diagnostic::get(d)?);
        }
        Some(bag)
    }
}

// ---- the public payloads -------------------------------------------------

/// Serializes a standalone diagnostic bag — the payload of the memoized
/// Rust boundary check, stored under [`rust_check_fingerprint`].
pub fn encode_diagnostics(bag: &DiagnosticBag) -> Vec<u8> {
    encode(bag)
}

/// Decodes a standalone diagnostic bag; `None` is a cache miss.
pub fn decode_diagnostics(bytes: &[u8]) -> Option<DiagnosticBag> {
    decode(bytes)
}

/// Serializes one function outcome, or `None` for an outcome that cannot
/// be replayed faithfully (an unresolved Ψ pin, which infer should never
/// export — skipping the put keeps warm runs byte-identical even if an
/// upstream bug ever produces one). `own_idx` is the function's index in
/// the producing run; the payload leaves it out of local effect keys.
pub fn encode_outcome(o: &FunctionOutcome, own_idx: u32) -> Option<Vec<u8>> {
    if o.psi_pins.iter().any(|(_, n)| matches!(n, PsiNode::Var | PsiNode::Link(_))) {
        return None;
    }
    let edges = o.gc_edges.iter().flat_map(|(lo, hi)| [lo, hi]);
    let mut keys = edges.chain(&o.gc_roots).chain(o.obligations.iter().map(|ob| &ob.effect));
    debug_assert!(
        keys.all(|k| !matches!(*k, EffectKey::Local { func, .. } if func != own_idx)),
        "a worker only mints local keys for its own clone"
    );
    Some(encode(o))
}

/// Decodes a tier-1 payload, re-binding local effect keys to `func_idx`.
///
/// Returns `None` on any structural problem, including a function-name or
/// signature-index mismatch — callers treat that as a cache miss. The
/// replayed outcome reports zero seconds: no work was performed.
pub fn decode_outcome(
    bytes: &[u8],
    func_idx: u32,
    expect_name: &str,
    n_sigs: usize,
) -> Option<FunctionOutcome> {
    let mut o: FunctionOutcome = decode(bytes)?;
    let mut sigs =
        o.pinned_polys.iter().map(|p| p.0).chain(o.interface_pins.iter().map(|p| p.sig_idx));
    if o.name != expect_name || sigs.any(|sig| sig >= n_sigs) {
        return None;
    }
    let edges = o.gc_edges.iter_mut().flat_map(|(lo, hi)| [lo, hi]);
    let keys =
        edges.chain(&mut o.gc_roots).chain(o.obligations.iter_mut().map(|ob| &mut ob.effect));
    for key in keys {
        if let EffectKey::Local { func, .. } = key {
            *func = func_idx;
        }
    }
    Some(o)
}

// ---- the tier-1 pack ------------------------------------------------------

/// The first bytes of every pack, so that no other tier-1 payload (the Rust
/// check's diagnostic bag) parses as one.
const PACK_MAGIC: [u8; 4] = *b"FFPK";

/// The tier-1 key of one base state's pack of function outcomes.
pub fn pack_key(base_digest: Fingerprint) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("ffisafe-outcome-pack");
    h.write_fingerprint(base_digest);
    h.finish()
}

/// Serializes `(function fingerprint, payload)` records, in the order
/// given, as one pack: the magic `FFPK`, then per record the fingerprint's
/// two words, the payload's length and its bytes, integers little-endian.
/// Each payload is stored as it is: [`encode_outcome`] bytes for the
/// pipeline.
pub fn encode_pack<P: AsRef<[u8]>>(records: impl IntoIterator<Item = (Fingerprint, P)>) -> Vec<u8> {
    let mut pack = PACK_MAGIC.to_vec();
    for (fp, payload) in records {
        let payload = payload.as_ref();
        for word in [fp.0, fp.1, payload.len() as u64] {
            pack.extend_from_slice(&word.to_le_bytes());
        }
        pack.extend_from_slice(payload);
    }
    pack
}

/// Parses a pack into its records in stored order, each payload borrowed
/// from `bytes`; `None` when `bytes` is not one whole pack. The payloads
/// are not decoded here: [`decode_outcome`] reads each on its own.
pub fn decode_pack(bytes: &[u8]) -> Option<Vec<(Fingerprint, &[u8])>> {
    let mut rest = bytes.strip_prefix(&PACK_MAGIC)?;
    let mut records = Vec::new();
    while !rest.is_empty() {
        let (head, tail) = rest.split_at_checked(24)?;
        let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        let (payload, tail) = tail.split_at_checked(usize::try_from(word(16)).ok()?)?;
        records.push((Fingerprint(word(0), word(8)), payload));
        rest = tail;
    }
    Some(records)
}

// ---- tier-2 payload -----------------------------------------------------

/// The tier-2 cached value: the stable rendering, the counts the report
/// API and the CLI exit status are derived from, and the full structured
/// diagnostics — so a served report keeps `AnalysisReport::diagnostics`
/// populated and APIs like `suggest_runtime_checks` behave identically at
/// any cache temperature.
#[derive(Clone, Debug)]
pub struct CachedReport {
    /// [`crate::AnalysisReport::render_stable`] output of the cold run.
    pub rendered: String,
    /// Error findings in the cold run.
    pub errors: usize,
    /// Questionable-practice warnings in the cold run.
    pub warnings: usize,
    /// Imprecision reports in the cold run.
    pub imprecision: usize,
    /// The cold run's full diagnostics (sorted/deduped).
    pub diagnostics: DiagnosticBag,
}

/// Serializes a tier-2 report entry.
pub fn encode_report(r: &CachedReport) -> Vec<u8> {
    encode(r)
}

/// Decodes a tier-2 report entry; `None` is a cache miss. Each count, like
/// a collection length, is at most the payload's byte length.
pub fn decode_report(bytes: &[u8]) -> Option<CachedReport> {
    let r: CachedReport = decode(bytes)?;
    [r.errors, r.warnings, r.imprecision].iter().all(|&n| n <= bytes.len()).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffisafe_cil::ir::{IrExpr, IrFunction, IrStmt, IrStmtKind, VarId};
    use ffisafe_cil::CTypeExpr;

    fn sample_function(name: &str, ret_const: i64) -> IrFunction {
        IrFunction {
            name: name.to_string(),
            ret: CTypeExpr::Value,
            locals: vec![],
            n_params: 0,
            body: vec![IrStmt::new(
                IrStmtKind::Return(Some(IrExpr::int(ret_const, Span::dummy()))),
                Span::dummy(),
            )],
            n_labels: 0,
            address_taken: [VarId(3), VarId(1), VarId(2)].into_iter().collect(),
            is_static: false,
            span: Span::dummy(),
        }
    }

    #[test]
    fn content_digest_ignores_options_report_key_does_not() {
        let files = [(0u8, "lib.ml", "external f : int -> int = \"ml_f\"")];
        let content = corpus_content_digest(files.iter().copied());
        assert_eq!(content, corpus_content_digest(files.iter().copied()), "stable");

        let defaults = AnalysisOptions::default();
        let mut no_flow = defaults;
        no_flow.flow_sensitive = false;
        // One corpus fingerprint serves every options configuration…
        let key_a = report_key(content, &defaults);
        let key_b = report_key(content, &no_flow);
        // …but the report keys still separate the keyspaces.
        assert_ne!(key_a, key_b, "options must split the report tier");
        assert_eq!(key_a, report_key(content, &defaults.with_jobs(8)), "jobs excluded");

        let other = corpus_content_digest([(1u8, "lib.ml", "x")].iter().copied());
        assert_ne!(report_key(other, &defaults), key_a, "content splits the report tier");
    }

    #[test]
    fn function_fingerprint_is_stable_and_body_sensitive() {
        let base = Fingerprint(11, 22);
        let a1 = function_fingerprint(base, &sample_function("f", 1));
        let a2 = function_fingerprint(base, &sample_function("f", 1));
        assert_eq!(a1, a2, "same IR, same fingerprint (HashSet order must not leak)");
        assert_ne!(a1, function_fingerprint(base, &sample_function("f", 2)), "body change");
        assert_ne!(a1, function_fingerprint(base, &sample_function("g", 1)), "name change");
        assert_ne!(a1, function_fingerprint(Fingerprint(11, 23), &sample_function("f", 1)));
    }

    /// Links `ml_src` + `program` through the real frontend/link stages
    /// and digests the resulting frozen base state.
    fn digest_of(options: &AnalysisOptions, ml_src: &str, program: cil::IrProgram) -> Fingerprint {
        use crate::pipeline::{frontend_ml, infer};
        let mut session = ffisafe_support::Session::new();
        let parsed = frontend_ml::parse(&mut session, "lib.ml", ml_src);
        let mut table = ffisafe_types::TypeTable::new();
        let ml = frontend_ml::run(&mut session, &[parsed], &mut table);
        let base = infer::link(&mut session, table, &ml, &program);
        base_state_digest(options, &base, &ml.phase1)
    }

    #[test]
    fn base_state_digest_ignores_function_bodies() {
        let options = AnalysisOptions::default();
        let ml = r#"external f : int -> int = "f""#;
        let mk = |ret_const| cil::IrProgram {
            functions: vec![sample_function("f", ret_const)],
            prototypes: vec![],
            globals: vec![],
            notes: vec![],
        };
        let a = digest_of(&options, ml, mk(1));
        assert_eq!(a, digest_of(&options, ml, mk(1)), "stable across separate links");
        assert_eq!(a, digest_of(&options, ml, mk(2)), "body edits must not invalidate siblings");
        assert_eq!(a, digest_of(&options.with_jobs(8), ml, mk(1)), "jobs width is not semantic");

        let mut other = mk(1);
        other.functions[0].name = "g".into();
        assert_ne!(a, digest_of(&options, ml, other), "signature change reshapes Γ_I");
        assert_ne!(
            a,
            digest_of(&options, r#"external f : unit -> int = "f""#, mk(1)),
            "ml declaration change reshapes the frozen arena"
        );
        let no_flow = AnalysisOptions { flow_sensitive: false, ..options };
        assert_ne!(a, digest_of(&no_flow, ml, mk(1)), "options change");
    }

    #[test]
    fn outcome_roundtrip_rebinds_local_keys() {
        let outcome = FunctionOutcome {
            name: "ml_f".into(),
            diagnostics: {
                let mut bag = DiagnosticBag::new();
                bag.push(
                    Diagnostic::new(DiagnosticCode::TypeMismatch, Span::dummy(), "boom")
                        .with_note(Span::dummy(), "declared here"),
                );
                bag.push(
                    Diagnostic::new(DiagnosticCode::UnknownOffset, Span::dummy(), "offset")
                        .with_severity(Severity::Note),
                );
                bag
            },
            passes: 3,
            new_nodes: 17,
            gc_edges: vec![
                (EffectKey::Base(4), EffectKey::Local { func: 9, raw: 80 }),
                (EffectKey::Local { func: 9, raw: 80 }, EffectKey::Base(5)),
            ],
            recorded_gc_edges: 2,
            gc_roots: vec![EffectKey::Base(4)],
            obligations: vec![ResolvedObligation {
                callee: "caml_alloc".into(),
                effect: EffectKey::Base(4),
                effect_is_gc: true,
                unprotected_heap_ptrs: vec!["tmp".into()],
                deferred_ptrs: vec![("x".into(), vec![("ml_f".into(), 0), ("helper".into(), 2)])],
                span: Span::dummy(),
            }],
            psi_violations: vec![PsiViolation {
                bound: PsiBound {
                    t: FlatInt::Known(5),
                    psi: PsiId::from_raw(7),
                    span: Span::dummy(),
                    context: "switch".into(),
                },
                reason: "too many".into(),
            }],
            psi_pins: vec![(3, PsiNode::Count(2)), (4, PsiNode::Top)],
            deferred_psi_bounds: vec![DeferredPsiBound {
                mt_key: 3,
                t: FlatInt::Top,
                span: Span::dummy(),
                context: "Val_int".into(),
            }],
            pinned_polys: vec![(0, 1, "int".into())],
            interface_pins: vec![InterfacePin {
                sig_idx: 0,
                slot: 2,
                mt_key: 44,
                rendered: "WindowT *".into(),
                func_span: Span::dummy(),
                func_name: "ml_f".into(),
            }],
            heap_slots: vec![("ml_f".into(), 1)],
            seconds: 1.25,
            setup_seconds: 0.0,
        };
        let bytes = encode_outcome(&outcome, 9).expect("resolved pins encode");
        let back = decode_outcome(&bytes, 13, "ml_f", 1).expect("decodes");
        assert_eq!(back.name, outcome.name);
        assert_eq!(back.diagnostics.len(), 2);
        assert_eq!(back.diagnostics.iter().next().unwrap().notes().len(), 1);
        assert_eq!(back.passes, 3);
        assert_eq!(
            back.gc_edges[0],
            (EffectKey::Base(4), EffectKey::Local { func: 13, raw: 80 }),
            "local keys re-bound to the replaying index"
        );
        assert_eq!(back.obligations[0].deferred_ptrs, outcome.obligations[0].deferred_ptrs);
        assert_eq!(back.psi_pins, outcome.psi_pins);
        assert_eq!(back.interface_pins[0].rendered, "WindowT *");
        assert_eq!(back.seconds, 0.0, "replayed outcomes report zero work");

        // wrong function name or too few signatures: miss, not garbage
        assert!(decode_outcome(&bytes, 13, "ml_g", 1).is_none());
        assert!(decode_outcome(&bytes, 13, "ml_f", 0).is_none());
        // bytes after the payload: miss
        assert!(decode_outcome(&[&bytes[..], &[0]].concat(), 13, "ml_f", 1).is_none());
        // truncation at every prefix: miss, never a panic
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut], 13, "ml_f", 1).is_none(), "cut {cut}");
        }
    }

    /// An outcome with no findings, for tests that set a few fields.
    fn empty_outcome(name: &str) -> FunctionOutcome {
        FunctionOutcome {
            name: name.into(),
            diagnostics: DiagnosticBag::new(),
            passes: 1,
            new_nodes: 0,
            gc_edges: vec![],
            recorded_gc_edges: 0,
            gc_roots: vec![],
            obligations: vec![],
            psi_violations: vec![],
            psi_pins: vec![],
            deferred_psi_bounds: vec![],
            pinned_polys: vec![],
            interface_pins: vec![],
            heap_slots: vec![],
            seconds: 0.0,
            setup_seconds: 0.0,
        }
    }

    #[test]
    fn counters_larger_than_payload_still_decode() {
        // Regression: `get_len`'s corruption guard caps values at the
        // payload byte length. A big clean function allocates far more
        // nodes than its tiny outcome payload has bytes; its counters
        // must not be read through that guard.
        let outcome = FunctionOutcome {
            passes: 5_000,
            new_nodes: 250_000,
            seconds: 0.5,
            ..empty_outcome("ml_big")
        };
        let bytes = encode_outcome(&outcome, 0).expect("encodes");
        assert!(outcome.new_nodes > bytes.len(), "test premise: counter exceeds payload");
        let back = decode_outcome(&bytes, 0, "ml_big", 0).expect("large counters decode");
        assert_eq!(back.passes, 5_000);
        assert_eq!(back.new_nodes, 250_000);
    }

    #[test]
    fn indices_larger_than_payload_still_decode() {
        // Regression: signature indices and slots were read through
        // `get_len`, so a small function of a large program whose index
        // exceeded its payload size missed the store on every run.
        let outcome = FunctionOutcome {
            obligations: vec![ResolvedObligation {
                callee: "caml_alloc".into(),
                effect: EffectKey::Base(4),
                effect_is_gc: true,
                unprotected_heap_ptrs: vec![],
                deferred_ptrs: vec![("x".into(), vec![("helper".into(), 6_000)])],
                span: Span::dummy(),
            }],
            pinned_polys: vec![(9_000, 7_000, "int".into())],
            interface_pins: vec![InterfacePin {
                sig_idx: 9_001,
                slot: 7_001,
                mt_key: 44,
                rendered: "int".into(),
                func_span: Span::dummy(),
                func_name: "ml_late".into(),
            }],
            heap_slots: vec![("ml_late".into(), 8_000)],
            ..empty_outcome("ml_late")
        };
        let bytes = encode_outcome(&outcome, 0).expect("encodes");
        assert!(bytes.len() < 6_000, "test premise: every index exceeds the payload");
        let back = decode_outcome(&bytes, 0, "ml_late", 9_002).expect("large indices decode");
        assert_eq!(back.pinned_polys, outcome.pinned_polys);
        assert_eq!((back.interface_pins[0].sig_idx, back.interface_pins[0].slot), (9_001, 7_001));
        assert_eq!(back.heap_slots, outcome.heap_slots);
        assert_eq!(back.obligations[0].deferred_ptrs, outcome.obligations[0].deferred_ptrs);
        // the signature range checks still hold
        assert!(decode_outcome(&bytes, 0, "ml_late", 9_001).is_none());
    }

    #[test]
    fn pinned_poly_signature_indices_are_range_checked() {
        let outcome = FunctionOutcome {
            pinned_polys: vec![(3, 0, "int".into())],
            ..empty_outcome("ml_poly")
        };
        let bytes = encode_outcome(&outcome, 0).expect("encodes");
        assert!(decode_outcome(&bytes, 0, "ml_poly", 4).is_some());
        assert!(decode_outcome(&bytes, 0, "ml_poly", 3).is_none(), "index 3 of 3 signatures");
    }

    #[test]
    fn unresolved_psi_pins_are_not_cached() {
        let outcome =
            FunctionOutcome { psi_pins: vec![(7, PsiNode::Var)], ..empty_outcome("ml_odd") };
        assert!(encode_outcome(&outcome, 0).is_none(), "unreplayable outcome must not cache");
    }

    #[test]
    fn collection_lengths_larger_than_the_payload_are_rejected() {
        // A length no payload could hold is refused before anything is
        // allocated for it.
        for len in [9, u64::MAX] {
            assert!(decode_diagnostics(&len.to_le_bytes()).is_none(), "bag of {len}");
        }
        // In a tier-1 payload the `gc_edges` length follows the name (an
        // 8-byte length and the 4 bytes of `ml_f`), the diagnostic count
        // and two counters (8 bytes each).
        let bytes = encode_outcome(&empty_outcome("ml_f"), 0).expect("encodes");
        assert!(decode_outcome(&bytes, 0, "ml_f", 0).is_some());
        for len in [bytes.len() as u64 + 1, u64::MAX] {
            let mut corrupt = bytes.clone();
            corrupt[36..44].copy_from_slice(&len.to_le_bytes());
            assert!(decode_outcome(&corrupt, 0, "ml_f", 0).is_none(), "{len} edges");
        }
    }

    #[test]
    fn packs_roundtrip_and_reject_what_is_not_one_whole_pack() {
        let payload = encode_outcome(&empty_outcome("ml_f"), 0).expect("encodes");
        let records = vec![(Fingerprint(1, 2), &payload[..]), (Fingerprint(3, 4), &b""[..])];
        let pack = encode_pack(records.iter().copied());
        assert_eq!(decode_pack(&pack), Some(records), "stored order, payloads as they were");
        assert_eq!(decode_pack(b"FFPK"), Some(vec![]), "an empty pack");
        // A cut parses only at a record boundary.
        let boundaries = [4, 4 + 24 + payload.len()];
        for cut in 0..pack.len() {
            assert_eq!(decode_pack(&pack[..cut]).is_some(), boundaries.contains(&cut), "cut {cut}");
        }
        // A payload length past the end, or another tier-1 payload.
        let mut long = pack.clone();
        long[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_pack(&long).is_none());
        assert!(decode_pack(&encode_diagnostics(&DiagnosticBag::new())).is_none());
        assert_ne!(pack_key(Fingerprint(1, 2)), Fingerprint(1, 2));
    }

    #[test]
    fn report_counts_larger_than_the_payload_are_rejected() {
        let report = CachedReport {
            rendered: String::new(),
            errors: 0,
            warnings: 0,
            imprecision: 0,
            diagnostics: DiagnosticBag::new(),
        };
        // Counts are fixed-width, so the payload length does not move.
        let len = encode_report(&report).len();
        for field in 0..3 {
            let with = |n| {
                let mut r = report.clone();
                *[&mut r.errors, &mut r.warnings, &mut r.imprecision][field] = n;
                decode_report(&encode_report(&r))
            };
            assert!(with(len).is_some(), "count {field} at the payload length");
            assert!(with(len + 1).is_none(), "count {field} past the payload length");
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        // Each tag is found next to a distinctive value; the variants used
        // are those a decoder that took an unknown tag for them would
        // otherwise accept.
        let (key, psi, pin) = (0xA1B2_C3D4_u32, 0x5EED_0001_u32, 0x0BAD_F00D_u32);
        let outcome = FunctionOutcome {
            gc_roots: vec![EffectKey::Base(key)],
            psi_violations: vec![PsiViolation {
                bound: PsiBound {
                    t: FlatInt::Top,
                    psi: PsiId::from_raw(psi),
                    span: Span::dummy(),
                    context: "switch".into(),
                },
                reason: "too many".into(),
            }],
            psi_pins: vec![(pin, PsiNode::Top)],
            ..empty_outcome("ml_f")
        };
        let bytes = encode_outcome(&outcome, 0).expect("encodes");
        assert!(decode_outcome(&bytes, 0, "ml_f", 0).is_some());
        let at = |v: u32| bytes.windows(4).position(|w| w == v.to_le_bytes()).expect("present");
        // the effect key's tag precedes its raw id, the flat int's tag
        // precedes the bound's Ψ, the pin's node tag follows its raw id
        for (i, tag) in [(at(key) - 1, 2), (at(psi) - 1, 3), (at(pin) + 4, 2)] {
            let mut corrupt = bytes.clone();
            corrupt[i] = tag;
            assert!(decode_outcome(&corrupt, 0, "ml_f", 0).is_none(), "tag {tag} at byte {i}");
        }

        // A bag of one diagnostic: its length, then the code and severity
        // tags.
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::new(DiagnosticCode::TypeMismatch, Span::dummy(), "boom"));
        let bytes = encode_diagnostics(&bag);
        assert!(decode_diagnostics(&bytes).is_some());
        for (i, tag) in [(8, 24), (9, 4)] {
            let mut corrupt = bytes.clone();
            corrupt[i] = tag;
            assert!(decode_diagnostics(&corrupt).is_none(), "tag {tag} at byte {i}");
        }
    }

    #[test]
    fn rust_check_fingerprint_ignores_c_bodies() {
        let options = AnalysisOptions::default();
        let import = rustffi::ast::ForeignFn {
            name: "f".into(),
            link_name: "f".into(),
            variadic: false,
            params: vec![rustffi::RustType::path("i32")],
            ret: rustffi::RustType::path("i32"),
            span: Span::dummy(),
        };
        let mut rust = rustffi::RustProgram::default();
        rust.imports.push(import);

        let mk = |ret_const| cil::IrProgram {
            functions: vec![sample_function("f", ret_const)],
            prototypes: vec![],
            globals: vec![],
            notes: vec![],
        };
        let a = rust_check_fingerprint(&options, &rust, &mk(1));
        assert_eq!(a, rust_check_fingerprint(&options, &rust, &mk(1)), "stable");
        assert_eq!(a, rust_check_fingerprint(&options, &rust, &mk(2)), "C body edits replay");

        let mut renamed = mk(1);
        renamed.functions[0].name = "g".into();
        assert_ne!(a, rust_check_fingerprint(&options, &rust, &renamed), "C signature edit");
        let mut edited = rust.clone();
        edited.imports[0].params.push(rustffi::RustType::path("i32"));
        assert_ne!(a, rust_check_fingerprint(&options, &edited, &mk(1)), "Rust surface edit");
        let no_flow = AnalysisOptions { flow_sensitive: false, ..options };
        assert_ne!(a, rust_check_fingerprint(&no_flow, &rust, &mk(1)), "options change");
    }

    #[test]
    fn standalone_diagnostics_roundtrip_with_rust_codes() {
        let mut bag = DiagnosticBag::new();
        bag.push(
            Diagnostic::new(DiagnosticCode::RustArityMismatch, Span::dummy(), "3 vs 2")
                .with_note(Span::dummy(), "declared here"),
        );
        bag.push(
            Diagnostic::new(DiagnosticCode::RustNullability, Span::dummy(), "plain pointer")
                .with_severity(Severity::Warning),
        );
        let bytes = encode_diagnostics(&bag);
        let back = decode_diagnostics(&bytes).expect("decodes");
        assert_eq!(back.len(), 2);
        let codes: Vec<_> = back.iter().map(|d| d.code()).collect();
        assert_eq!(codes, [DiagnosticCode::RustArityMismatch, DiagnosticCode::RustNullability]);
        for cut in 0..bytes.len() {
            assert!(decode_diagnostics(&bytes[..cut]).is_none(), "cut {cut}");
        }
        assert!(decode_diagnostics(&[&bytes[..], &[0]].concat()).is_none(), "trailing byte");
    }

    #[test]
    fn report_roundtrip() {
        let mut diagnostics = DiagnosticBag::new();
        diagnostics.push(Diagnostic::new(DiagnosticCode::TypeMismatch, Span::dummy(), "boom"));
        diagnostics.push(Diagnostic::new(DiagnosticCode::UnknownOffset, Span::dummy(), "offset"));
        let r = CachedReport {
            rendered: "glue.c:3:5: error [E001]: boom\n1 error(s)\n".into(),
            errors: 1,
            warnings: 0,
            imprecision: 2,
            diagnostics,
        };
        let bytes = encode_report(&r);
        let back = decode_report(&bytes).expect("decodes");
        assert_eq!(back.rendered, r.rendered);
        assert_eq!((back.errors, back.warnings, back.imprecision), (1, 0, 2));
        assert_eq!(back.diagnostics.len(), 2);
        assert_eq!(back.diagnostics.iter().next().unwrap().code(), DiagnosticCode::TypeMismatch);
        assert!(decode_report(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_report(b"").is_none());
        assert!(decode_report(&[&bytes[..], &[0]].concat()).is_none(), "trailing byte");
    }
}
