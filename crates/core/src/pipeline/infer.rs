//! Pipeline stage 3: linking and parallel per-function inference.
//!
//! [`link`] seeds the function registry (`Γ_I`) from the lowered program,
//! binds every Φ-translated `external` signature to its C definition
//! (checking arity and the trailing-`unit` practice), and freezes the
//! result as the [`BaseState`] snapshot: the type table becomes an
//! `Arc`-shared, fully path-compressed [`FrozenTypeTable`] arena, and the
//! constraints, registry and interner are frozen behind `Arc`s alongside
//! it.
//!
//! [`run`] then analyzes every function against that snapshot on a
//! `std::thread` worker pool. Unification mutates the type table, so
//! workers cannot share one mutable table; each function instead gets an
//! O(1) copy-on-write *overlay* of the frozen base. Reads fall through to
//! the shared arena; writes — re-bound base nodes, fresh allocations,
//! local constraint appends — stay private to the worker. An overlay
//! issues exactly the ids a deep clone would, so the stage stays
//! deterministic: every function sees exactly the post-link types, never
//! a sibling's in-flight unifications, and the outcome is independent of
//! scheduling and of [`AnalysisOptions::jobs`]. Cross-function facts
//! still flow — GC effect edges are exported as [`EffectKey`]s meaningful
//! across overlays and merged by the discharge stage into one
//! whole-program reachability solve.
//!
//! Each worker's post-pass normalizes what its overlay resolved. The
//! effect-class export walks the overlay's *delta* (the base GC ids the
//! worker actually re-bound) rather than rescanning every base class, so
//! per-function cost tracks what the function touched, not the size of
//! the whole base state.

use super::cache::PipelineCache;
use crate::engine::{analyze_function, AnalysisOptions};
use crate::registry::{FuncOrigin, Registry};
use ffisafe_cache::Tier;
use ffisafe_cil as cil;
use ffisafe_ocaml as ocaml;
use ffisafe_support::telemetry;
use ffisafe_support::{
    Diagnostic, DiagnosticBag, DiagnosticCode, Fingerprint, Interner, Session, Span,
};
use ffisafe_types::{
    ConstraintSet, CtId, CtNode, FlatInt, FrozenTypeTable, GcId, GcNode, MtId, MtNode, PsiNode,
    PsiViolation, TypeTable,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The frozen post-link state every inference worker overlays.
///
/// The table/constraints/registry/interner exist twice here: once as the
/// `Arc`-shared frozen bases workers build O(1) overlays from, and once as
/// this struct's own overlay views (`table`, `constraints`, …) that the
/// discharge stage reads and mutates after inference completes.
#[derive(Clone, Debug)]
pub struct BaseState {
    /// The shared immutable arena every worker's table view falls back to.
    pub frozen: FrozenTypeTable,
    /// Overlay view of [`BaseState::frozen`] for post-inference stages
    /// (pristine until discharge mutates it).
    pub table: TypeTable,
    /// Overlay view of the shared post-link constraints.
    pub constraints: ConstraintSet,
    /// Overlay view of the shared function environment `Γ_I`.
    pub registry: Registry,
    /// Overlay view of the shared post-link interner.
    pub interner: Interner,
    /// Shared post-link constraints (workers overlay these).
    shared_constraints: Arc<ConstraintSet>,
    /// Shared function environment (workers overlay this).
    shared_registry: Arc<Registry>,
    /// Shared post-link interner (workers overlay this).
    shared_interner: Arc<Interner>,
    /// GC node count at snapshot time — the `Base`/`Local` boundary.
    pub gc_len: usize,
    /// GC edge count at snapshot time (workers export edges past this).
    pub edge_len: usize,
    /// Total node count at snapshot time (for per-worker growth stats).
    pub node_count: usize,
    /// Per signature, per poly param: already pinned concrete by binding.
    pub poly_concrete_at_base: Vec<Vec<bool>>,
    /// Per signature, per slot (params then return): the base-canonical
    /// raw id of the slot's `mt` — the cross-clone identity the
    /// interface-consistency check groups by.
    pub slot_keys: Vec<Vec<u32>>,
    /// Per signature, per slot: already concrete at snapshot time (such
    /// slots are checked by plain unification inside each worker).
    pub slot_concrete_at_base: Vec<Vec<bool>>,
    /// Per base GC id, its base-table canonical raw id. Workers key every
    /// exported base effect by this canonical so that clone-local
    /// union-find merges still meet at one [`EffectKey`].
    pub base_gc_canon: Vec<u32>,
    /// Base `mt` ids that are unresolved variables at snapshot time
    /// (opaque types, `'a` params) — the shared identities behind
    /// cross-clone `Ψ` pins and deferred `Ψ` bounds.
    pub open_mt_vars: Vec<u32>,
    /// `Ψ` bound count at snapshot time (workers export bounds past this).
    pub psi_bound_len: usize,
    /// Registry parameter slots *not* resolved to heap-pointer values at
    /// snapshot time: the only slots a worker's unification can newly pin
    /// heap, so the only ones it needs to rescan.
    pub heap_slot_candidates: Vec<(String, usize, CtId)>,
}

/// One function's resolution of a shared interface type.
///
/// Opaque OCaml types translate to *shared* inference variables — every
/// external mentioning `type t` points at one `mt` — so that "two
/// different C types flowing into one opaque type is a unification
/// error". Snapshot isolation hides sibling functions' pinnings from the
/// engine, so each worker exports what *it* pinned shared slots to, and
/// the discharge stage compares the ground renders across functions.
#[derive(Clone, Debug)]
pub struct InterfacePin {
    /// Signature index in `phase1.signatures`.
    pub sig_idx: usize,
    /// Slot within the signature: `0..n` are params, `n` is the return.
    pub slot: usize,
    /// Base-canonical raw id of the slot's `mt` (the grouping key).
    pub mt_key: u32,
    /// The ground type this function resolved the slot to.
    pub rendered: String,
    /// The pinning function's definition site.
    pub func_span: Span,
    /// The pinning function's name.
    pub func_name: String,
}

/// A GC effect node identity that survives the snapshot boundary.
///
/// Effect ids allocated before the snapshot (function signatures, runtime
/// constants) have the same raw index in every clone, so they merge as
/// [`EffectKey::Base`]. Ids a worker allocates inside its clone are private
/// to that function and merge as [`EffectKey::Local`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EffectKey {
    /// An effect node shared by every clone (allocated pre-snapshot).
    Base(u32),
    /// An effect node allocated by one function's worker.
    Local {
        /// Index of the function whose clone allocated the node.
        func: u32,
        /// Raw id within that clone's table.
        raw: u32,
    },
}

/// A GC-registration obligation reduced to snapshot-portable data.
#[derive(Clone, Debug)]
pub struct ResolvedObligation {
    /// Callee name (for the message).
    pub callee: String,
    /// The callee's effect, normalized.
    pub effect: EffectKey,
    /// Whether the worker already resolved the effect to the `gc` constant.
    pub effect_is_gc: bool,
    /// Live, unprotected locals holding OCaml heap pointers at the call.
    pub unprotected_heap_ptrs: Vec<String>,
    /// Live, unprotected locals whose type is still an unresolved variable
    /// in this clone but unified with one or more shared signature slots
    /// (their own parameter, an alias of it, or a callee's slot). A
    /// sibling function may pin such a slot to a heap type — discharge
    /// re-checks these against every worker's
    /// [`FunctionOutcome::heap_slots`].
    pub deferred_ptrs: Vec<(String, Vec<SlotKey>)>,
    /// Call site.
    pub span: Span,
}

/// Identity of a registry signature slot: `(function name, slot index)`,
/// where indices `0..n` are the parameters and `n` is the return. Stable
/// across clones (unlike table canonicals after local unification).
pub type SlotKey = (String, usize);

/// A `T + 1 ≤ Ψ` bound whose `Ψ` is still an unresolved variable in the
/// recording worker's clone, keyed by the base `mt` variable behind it.
///
/// The bound's own `Ψ` id is clone-local (the engine mints a fresh
/// representational type when it first examines an opaque value), so the
/// portable identity is the shared base `mt` the rep was unified into. A
/// sibling function may pin that `mt`'s `Ψ` to a count — discharge
/// re-checks these bounds against every worker's
/// [`FunctionOutcome::psi_pins`].
#[derive(Clone, Debug)]
pub struct DeferredPsiBound {
    /// Raw id of the base `mt` variable whose `Ψ` the bound constrains.
    pub mt_key: u32,
    /// The flow-sensitive value `T` at constraint-generation time.
    pub t: FlatInt,
    /// Where the constraint arose.
    pub span: Span,
    /// Short description of the construct (for diagnostics).
    pub context: String,
}

/// Everything one function's analysis produced, as plain data valid
/// outside its worker's table clone.
#[derive(Clone, Debug)]
pub struct FunctionOutcome {
    /// Function name.
    pub name: String,
    /// Diagnostics from the engine's reporting pass.
    pub diagnostics: DiagnosticBag,
    /// Fixpoint passes executed.
    pub passes: usize,
    /// Nodes the clone allocated beyond the base table.
    pub new_nodes: usize,
    /// GC edges the clone recorded beyond the base set, normalized, plus
    /// the synthetic bidirectional pairs that re-export clone-local
    /// union-find merges of base classes.
    pub gc_edges: Vec<(EffectKey, EffectKey)>,
    /// Of [`FunctionOutcome::gc_edges`], how many the engine actually
    /// recorded (the call edges — the stat the bench trajectory tracks,
    /// excluding merge-export bookkeeping).
    pub recorded_gc_edges: usize,
    /// Keys the clone resolved to the `gc` constant (reachability roots).
    pub gc_roots: Vec<EffectKey>,
    /// Deferred (App)-rule checks, pre-filtered to unprotected heap ptrs.
    pub obligations: Vec<ResolvedObligation>,
    /// `Ψ` bound violations under this clone's resolution.
    pub psi_violations: Vec<PsiViolation>,
    /// Shared open `mt`s whose `Ψ` this clone resolved: `(base mt raw,
    /// resolved node)`. Input to sibling bound re-checks in discharge.
    pub psi_pins: Vec<(u32, PsiNode)>,
    /// Bounds on `Ψ`s unresolved in this clone, deferred to discharge.
    pub deferred_psi_bounds: Vec<DeferredPsiBound>,
    /// Poly params this function pinned: `(sig idx, param idx, rendered)`.
    pub pinned_polys: Vec<(usize, usize, String)>,
    /// Shared interface slots this function resolved to a ground type.
    pub interface_pins: Vec<InterfacePin>,
    /// Registry parameter slots this clone resolved to a heap-pointer
    /// `value` that the base table had not (input to deferred-obligation
    /// re-checks in discharge).
    pub heap_slots: Vec<SlotKey>,
    /// CPU seconds this function's analysis took (snapshot setup
    /// included); see `WorkTimer` for why this is not wall clock.
    /// Never affects diagnostics; feeds the perf trajectory.
    pub seconds: f64,
    /// Of [`FunctionOutcome::seconds`], the part spent constructing the
    /// worker's snapshot view (overlay setup; formerly the deep clone).
    /// Not cached — replayed outcomes report zero, like `seconds`.
    pub setup_seconds: f64,
}

/// Output of the inference stage: one outcome per function, program order.
#[derive(Clone, Debug, Default)]
pub struct InferArtifact {
    /// Per-function outcomes in program order.
    pub outcomes: Vec<FunctionOutcome>,
    /// Total fixpoint passes.
    pub passes: usize,
    /// Total nodes allocated by workers beyond the base table.
    pub new_nodes: usize,
    /// Total GC edges recorded by workers beyond the base set.
    pub new_gc_edges: usize,
    /// Worker threads actually used.
    pub jobs: usize,
    /// The stage's total CPU work: the sum of the worker threads'
    /// lifetime CPU counters, which is scheduling-invariant across `jobs`
    /// widths (see `WorkTimer` for why wall clocks cannot measure this).
    /// Falls back to summing per-function seconds where per-thread CPU
    /// time is unavailable. Replayed cache hits contribute zero.
    pub work_seconds: f64,
    /// Of [`InferArtifact::work_seconds`], the part spent on per-worker
    /// snapshot setup rather than solving.
    pub setup_seconds: f64,
    /// The slowest single function (the stage's critical path — a lower
    /// bound on parallel wall-clock whatever the worker count).
    pub critical_path_seconds: f64,
    /// Functions whose outcome was replayed from the tier-1 cache.
    pub cache_hits: usize,
    /// Functions whose fingerprint missed the tier-1 cache (0 when the
    /// cache is disabled).
    pub cache_misses: usize,
    /// Of [`InferArtifact::cache_misses`], the store hits whose payload
    /// failed to decode, so the function was analyzed anyway.
    pub cache_rejected: usize,
    /// Functions actually analyzed by a live worker this run.
    pub workers_executed: usize,
}

/// Builds `Γ_I` and binds externals: registers every defined function and
/// prototype, unifies `external` signatures with their C definitions, and
/// reports untracked `value` globals (§5.1). Consumes the frontend table
/// into the returned snapshot.
pub fn link(
    session: &mut Session,
    mut table: TypeTable,
    ml: &super::MlArtifact,
    program: &cil::IrProgram,
) -> BaseState {
    let mut registry = Registry::new();
    let constraints = ConstraintSet::new();
    for f in &program.functions {
        let params: Vec<cil::CTypeExpr> =
            f.locals[..f.n_params].iter().map(|l| l.ty.clone()).collect();
        registry.register(
            &mut table,
            session.interner_mut(),
            &f.name,
            &f.ret,
            &params,
            FuncOrigin::Defined,
            f.span,
        );
    }
    for p in &program.prototypes {
        registry.register(
            &mut table,
            session.interner_mut(),
            &p.name,
            &p.ret,
            &p.params,
            FuncOrigin::Declared,
            p.span,
        );
    }

    bind_externals(session, &mut table, &mut registry, &ml.phase1);

    // `value` globals: the analysis cannot track them (§5.1)
    for (name, ty, span) in &program.globals {
        if ty.contains_value() {
            session.emit(Diagnostic::new(
                DiagnosticCode::GlobalValue,
                *span,
                format!("global variable `{name}` holds an OCaml value; it is not tracked"),
            ));
        }
    }

    let poly_concrete_at_base = ml
        .phase1
        .signatures
        .iter()
        .map(|sig| sig.poly_params.iter().map(|(_, mt)| table.mt_is_concrete(*mt)).collect())
        .collect();

    let mut slot_keys = Vec::with_capacity(ml.phase1.signatures.len());
    let mut slot_concrete_at_base = Vec::with_capacity(ml.phase1.signatures.len());
    for sig in &ml.phase1.signatures {
        let slots: Vec<_> = sig.params.iter().chain(std::iter::once(&sig.ret)).collect();
        slot_keys.push(slots.iter().map(|&&mt| table.find(mt).as_raw()).collect());
        slot_concrete_at_base.push(slots.iter().map(|&&mt| table.mt_is_concrete(mt)).collect());
    }

    // Slots a worker's unification could newly pin to a heap-pointer
    // `value`: every param and return slot not already heap at the
    // snapshot. Workers rescan only these (and only functions registered
    // here can be deferred against — `resolve_call` additions inside a
    // clone never can).
    let mut heap_slot_candidates = Vec::new();
    let infos: Vec<(String, Vec<CtId>)> = registry
        .iter()
        .map(|i| (i.name.clone(), i.params.iter().copied().chain([i.ret]).collect()))
        .collect();
    for (name, slots) in infos {
        for (i, &ct) in slots.iter().enumerate() {
            let ct = table.resolve(ct);
            let already_heap = match table.node(ct).clone() {
                CtNode::Value(mt) => table.mt_is_heap_pointer(mt),
                _ => false,
            };
            if !already_heap {
                heap_slot_candidates.push((name.clone(), i, ct));
            }
        }
    }

    let gc_len = table.count::<GcId>();
    let base_gc_canon =
        (0..gc_len as u32).map(|raw| table.resolve(GcId::from_raw(raw)).as_raw()).collect();
    let open_mt_vars = (0..table.count::<MtId>() as u32)
        .filter(|&raw| {
            let id = MtId::from_raw(raw);
            table.find(id) == id && matches!(table.node(id), MtNode::Var)
        })
        .collect();

    // Freeze: the table becomes the shared immutable arena, and the other
    // three stores go behind `Arc`s. Everything after this point — every
    // worker and the discharge stage — works on O(1) overlay views.
    let frozen = table.freeze();
    let shared_constraints = Arc::new(constraints);
    let shared_registry = Arc::new(registry);
    let shared_interner = Arc::new(session.interner().clone());

    BaseState {
        gc_len,
        edge_len: shared_constraints.gc_edge_count(),
        node_count: frozen.node_count(),
        poly_concrete_at_base,
        slot_keys,
        slot_concrete_at_base,
        base_gc_canon,
        open_mt_vars,
        psi_bound_len: shared_constraints.psi_bound_count(),
        heap_slot_candidates,
        table: frozen.overlay(),
        constraints: ConstraintSet::overlay(shared_constraints.clone()),
        registry: Registry::overlay(shared_registry.clone()),
        interner: Interner::overlay(shared_interner.clone()),
        frozen,
        shared_constraints,
        shared_registry,
        shared_interner,
    }
}

/// Unifies each `Φ`-translated external signature with its C definition,
/// checking arity and the trailing-`unit` practice.
fn bind_externals(
    session: &mut Session,
    table: &mut TypeTable,
    registry: &mut Registry,
    phase1: &ocaml::translate::Phase1,
) {
    for (idx, sig) in phase1.signatures.iter().enumerate() {
        // bytecode stubs (value *argv, int argn) are not checked
        if let Some(byte) = &sig.byte_c_name {
            if let Some(info) = registry.get(session.interner(), byte) {
                let effect = info.effect;
                registry.set_external_index(session.interner(), byte, idx);
                table.unify_gc(effect, sig.effect);
            }
        }
        let Some(info) = registry.get(session.interner(), &sig.c_name).cloned() else {
            continue; // defined in a library we are not analyzing
        };
        registry.set_external_index(session.interner(), &sig.c_name, idx);
        table.unify_gc(info.effect, sig.effect);
        let n_ml = sig.params.len();
        let m = info.params.len();
        let span = sig.span;
        if m < n_ml && sig.unit_params[m..].iter().all(|&u| u) {
            session.emit(
                Diagnostic::new(
                    DiagnosticCode::TrailingUnitParameter,
                    span,
                    format!(
                        "external `{}` declares {} trailing unit parameter(s) that `{}` does not take; the unit is passed on the stack",
                        sig.ml_name,
                        n_ml - m,
                        sig.c_name
                    ),
                )
                .with_note(info.span, "C definition is here".to_string()),
            );
        } else if m != n_ml {
            session.emit(
                Diagnostic::new(
                    DiagnosticCode::ArityMismatch,
                    span,
                    format!(
                        "external `{}` has arity {} but `{}` takes {} parameter(s)",
                        sig.ml_name, n_ml, sig.c_name, m
                    ),
                )
                .with_note(info.span, "C definition is here".to_string()),
            );
        }
        let n_unify = m.min(n_ml);
        for i in 0..n_unify {
            let want = table.ct_value(sig.params[i]);
            if let Err(e) = table.unify_ct(info.params[i], want) {
                session.emit(
                    Diagnostic::new(
                        DiagnosticCode::TypeMismatch,
                        span,
                        format!(
                            "parameter {} of `{}` does not match its OCaml declaration: {}",
                            i + 1,
                            sig.c_name,
                            e
                        ),
                    )
                    .with_note(info.span, "C definition is here".to_string()),
                );
            }
        }
        let want_ret = table.ct_value(sig.ret);
        if let Err(e) = table.unify_ct(info.ret, want_ret) {
            session.emit(Diagnostic::new(
                DiagnosticCode::TypeMismatch,
                span,
                format!(
                    "return type of `{}` does not match its OCaml declaration: {}",
                    sig.c_name, e
                ),
            ));
        }
    }
}

/// Runs per-function inference over `program` on a worker pool sized by
/// [`AnalysisOptions::jobs`]. Outcomes are collected in program order, so
/// the artifact is identical for any worker count.
///
/// With a [`PipelineCache`], every function is first fingerprinted against
/// the cache's base-surface digest; hits replay the memoized
/// [`FunctionOutcome`] and **no worker runs for them**. Only misses reach
/// the pool, and their fresh outcomes are stored back. Because a replayed
/// outcome is byte-for-byte the plain data a worker would have produced,
/// warm runs stay report-identical to cold runs at any worker count.
pub fn run(
    session: &Session,
    base: &BaseState,
    program: &cil::IrProgram,
    phase1: &ocaml::translate::Phase1,
    cache: Option<&PipelineCache>,
) -> InferArtifact {
    let options = *session.options();
    let n = program.functions.len();
    if n == 0 {
        return InferArtifact { jobs: 0, ..InferArtifact::default() };
    }

    // Tier-1 probe: replay every hit, queue every miss. Fingerprinting
    // walks each function's whole IR, so it runs on the worker pool; only
    // the store lookups (small file reads) stay serial.
    let mut slots: Vec<Option<FunctionOutcome>> = (0..n).map(|_| None).collect();
    let mut fingerprints: Vec<Option<Fingerprint>> = vec![None; n];
    let mut cache_rejected = 0;
    if let Some(pc) = cache {
        let base_digest = pc.base_digest;
        let fp_jobs = options.effective_jobs().clamp(1, n);
        if fp_jobs > 1 {
            let next = AtomicUsize::new(0);
            let cells: Vec<Mutex<Option<Fingerprint>>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..fp_jobs {
                    scope.spawn(|| loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let fp = super::cache::function_fingerprint(
                            base_digest,
                            &program.functions[idx],
                        );
                        *cells[idx].lock().unwrap() = Some(fp);
                    });
                }
            });
            for (slot, cell) in fingerprints.iter_mut().zip(cells) {
                *slot = cell.into_inner().unwrap();
            }
        } else {
            for (slot, func) in fingerprints.iter_mut().zip(&program.functions) {
                *slot = Some(super::cache::function_fingerprint(base_digest, func));
            }
        }
        for (idx, func) in program.functions.iter().enumerate() {
            let fp = fingerprints[idx].expect("computed above");
            if let Some(bytes) = pc.get(Tier::Function, fp) {
                slots[idx] = super::cache::decode_outcome(
                    &bytes,
                    idx as u32,
                    &func.name,
                    phase1.signatures.len(),
                );
                cache_rejected += usize::from(slots[idx].is_none());
            }
        }
    }
    let cache_hits = slots.iter().filter(|s| s.is_some()).count();
    let todo: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    let cache_misses = if cache.is_some() { todo.len() } else { 0 };
    let workers_executed = todo.len();

    let jobs = options.effective_jobs().clamp(1, todo.len().max(1));
    // Per-thread lifetime CPU totals: the per-function timers are clipped
    // to scheduler quanta, so only these telescoping sums give the stage's
    // true total work. `None` entries mean the interface is unavailable
    // and the artifact falls back to summing per-function seconds.
    let mut thread_work: Vec<Option<f64>> = Vec::new();
    if !todo.is_empty() {
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<FunctionOutcome>>> =
            todo.iter().map(|_| Mutex::new(None)).collect();
        let worked: Vec<Mutex<Option<f64>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let (next, results, todo, options) = (&next, &results, &todo, &options);
            for w in 0..jobs {
                let worked = &worked[w];
                scope.spawn(move || {
                    let cpu_start = thread_work_seconds();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= todo.len() {
                            break;
                        }
                        let idx = todo[t];
                        // `infer.solve` spans only wrap actually-executed
                        // workers (cache misses), so a warm run emits none.
                        let _span = telemetry::span_with("infer.solve", || {
                            vec![
                                ("function", program.functions[idx].name.clone()),
                                ("index", idx.to_string()),
                            ]
                        });
                        let outcome =
                            analyze_one(base, &program.functions[idx], phase1, idx as u32, options);
                        *results[t].lock().unwrap() = Some(outcome);
                    }
                    let delta = cpu_start
                        .zip(thread_work_seconds())
                        .map(|(start, end)| (end - start).max(0.0));
                    *worked.lock().unwrap() = delta;
                    // Scoped joins don't wait for thread-local teardown, so
                    // the spans must be handed off before the closure ends.
                    telemetry::flush_thread();
                });
            }
        });
        thread_work = worked.into_iter().map(|cell| cell.into_inner().unwrap()).collect();
        for (t, cell) in results.into_iter().enumerate() {
            let outcome = cell.into_inner().unwrap().expect("worker completed every claimed index");
            let idx = todo[t];
            if let (Some(pc), Some(fp)) = (cache, fingerprints[idx]) {
                // An unencodable outcome or failed write only loses future
                // warm hits; never fail the analysis over it.
                if let Some(payload) = super::cache::encode_outcome(&outcome, idx as u32) {
                    pc.put(Tier::Function, fp, &payload);
                }
            }
            slots[idx] = Some(outcome);
        }
    }

    let outcomes: Vec<FunctionOutcome> =
        slots.into_iter().map(|s| s.expect("every function replayed or analyzed")).collect();
    // Prefer the telescoping per-thread CPU totals (exact whatever the
    // contention); the per-function sum is the portable fallback.
    let work_seconds = if !thread_work.is_empty() && thread_work.iter().all(Option::is_some) {
        thread_work.iter().map(|w| w.unwrap()).sum()
    } else {
        outcomes.iter().map(|o| o.seconds).sum()
    };
    InferArtifact {
        passes: outcomes.iter().map(|o| o.passes).sum(),
        new_nodes: outcomes.iter().map(|o| o.new_nodes).sum(),
        new_gc_edges: outcomes.iter().map(|o| o.recorded_gc_edges).sum(),
        jobs,
        work_seconds,
        setup_seconds: outcomes.iter().map(|o| o.setup_seconds).sum(),
        critical_path_seconds: outcomes.iter().map(|o| o.seconds).fold(0.0, f64::max),
        cache_hits,
        cache_misses,
        cache_rejected,
        workers_executed,
        outcomes,
    }
}

/// Measures the CPU time one worker thread spends on one function.
///
/// Work accounting feeds [`InferArtifact::work_seconds`], which the bench
/// suite compares across `--jobs` widths. With more workers than cores a
/// wall clock bills each worker for time it sat *descheduled* while a
/// sibling held the core, so "total work" would appear to inflate with
/// parallelism even though no extra computation happened. Per-thread CPU
/// time (Linux `schedstat`) is scheduling-invariant but coarse: the
/// counter only advances at scheduler events (ticks, context switches),
/// so a per-function delta is either zero or a whole multi-millisecond
/// quantum. Per-function `seconds` therefore reports the *smaller* of the
/// CPU delta and the wall clock — exact when the function ran
/// uninterrupted, and clipped to on-CPU time when it was preempted.
/// Stage-total work uses per-thread lifetime counters instead
/// ([`thread_work_seconds`]), which telescope to the true total. Where
/// `schedstat` does not exist, everything falls back to wall clock.
struct WorkTimer {
    wall: std::time::Instant,
    cpu_ns: Option<u64>,
}

impl WorkTimer {
    fn start() -> Self {
        Self { wall: std::time::Instant::now(), cpu_ns: thread_cpu_ns() }
    }

    /// Wall seconds since `start`. Used for the overlay-setup split: the
    /// setup is a handful of `Arc` clones, far below the CPU counter's
    /// quantum, and short enough that a mid-setup preemption is rare.
    fn wall_seconds(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    fn elapsed_seconds(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(start), Some(now)) => (now.saturating_sub(start) as f64 * 1e-9).min(wall),
            _ => wall,
        }
    }
}

/// Nanoseconds this thread has spent on-CPU (first field of the Linux
/// per-thread `schedstat`). `None` where the interface does not exist
/// (non-Linux); zero until the thread's first scheduler event.
fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// A worker thread's total on-CPU seconds so far, read at a forced
/// scheduler event so the counter is current to the nanosecond.
/// [`std::thread::yield_now`] drives the kernel through `update_curr`,
/// flushing the running slice into `schedstat` before the read; without
/// it the boundary reads would be stale by up to a tick. `None` where the
/// interface does not exist.
fn thread_work_seconds() -> Option<f64> {
    std::thread::yield_now();
    thread_cpu_ns().map(|ns| ns as f64 * 1e-9)
}

/// Analyzes one function on a fresh overlay of the frozen base state and
/// reduces the result to snapshot-portable data.
fn analyze_one(
    base: &BaseState,
    func: &cil::ir::IrFunction,
    phase1: &ocaml::translate::Phase1,
    func_idx: u32,
    options: &AnalysisOptions,
) -> FunctionOutcome {
    let timer = WorkTimer::start();
    let mut table = base.frozen.overlay();
    let mut constraints = ConstraintSet::overlay(base.shared_constraints.clone());
    let mut registry = Registry::overlay(base.shared_registry.clone());
    let mut interner = Interner::overlay(base.shared_interner.clone());
    let setup_seconds = timer.wall_seconds();

    let result =
        analyze_function(&mut table, &mut constraints, &mut registry, &mut interner, options, func);

    // Every exported base effect is keyed by its *base-table* canonical, so
    // keys agree across workers even when this clone's unification gave the
    // class a different (or clone-local) canonical.
    let keyed = |table: &mut TypeTable, id: GcId| -> (EffectKey, bool) {
        let canon = table.resolve(id);
        let is_gc = matches!(table.node(canon), GcNode::Gc);
        let key = if (canon.as_raw() as usize) < base.gc_len {
            EffectKey::Base(base.base_gc_canon[canon.as_raw() as usize])
        } else if (id.as_raw() as usize) < base.gc_len {
            EffectKey::Base(base.base_gc_canon[id.as_raw() as usize])
        } else {
            EffectKey::Local { func: func_idx, raw: canon.as_raw() }
        };
        (key, is_gc)
    };

    let mut gc_edges = Vec::new();
    let mut gc_roots = Vec::new();

    // Union-find merges over base effect ids (e.g. `unify_gc` under a
    // function-type unification) happen only in this overlay; siblings
    // still see the unmerged classes. Export each changed class as
    // bidirectional edges between its base representatives — and as roots
    // when the class resolved to the `gc` constant — so the discharge
    // reachability solve reunites them.
    //
    // The unifier writes GC nodes only as links onto resolved canonicals
    // and the frozen base is fully path-compressed, so every base class
    // whose canonical or constant changed has at least one member in the
    // overlay delta. Candidate representatives are therefore exactly: the
    // base canonical of each re-bound id, plus — when a re-bound id now
    // resolves to another *base* id — that id's base canonical (the
    // unchanged representative whose class gained members). Walking the
    // delta instead of all `0..gc_len` classes is what makes this export
    // O(touched), and the `BTreeSet` keeps member order identical to the
    // old ascending full scan.
    let overlay_keys = table.overlay_keys::<GcId>();
    let mut candidate_reps: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for &raw in &overlay_keys {
        candidate_reps.insert(base.base_gc_canon[raw as usize]);
        let canon = table.resolve(GcId::from_raw(raw));
        if (canon.as_raw() as usize) < base.gc_len {
            candidate_reps.insert(base.base_gc_canon[canon.as_raw() as usize]);
        }
    }
    let mut merged: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    for &raw in &candidate_reps {
        let clone_canon = table.resolve(GcId::from_raw(raw));
        merged.entry(clone_canon.as_raw()).or_default().push(raw);
    }
    for (canon_raw, members) in merged {
        let is_gc = matches!(table.node(GcId::from_raw(canon_raw)), GcNode::Gc);
        let base_is_gc = matches!(base.frozen.node(GcId::from_raw(members[0])), GcNode::Gc);
        if members.len() == 1 && canon_raw == members[0] && is_gc == base_is_gc {
            continue; // class unchanged from the snapshot
        }
        if is_gc {
            gc_roots.extend(members.iter().map(|&m| EffectKey::Base(m)));
        }
        for w in members.windows(2) {
            gc_edges.push((EffectKey::Base(w[0]), EffectKey::Base(w[1])));
            gc_edges.push((EffectKey::Base(w[1]), EffectKey::Base(w[0])));
        }
        if (canon_raw as usize) >= base.gc_len {
            // local edges name the clone-local canonical; tie it to the class
            let local = EffectKey::Local { func: func_idx, raw: canon_raw };
            gc_edges.push((local, EffectKey::Base(members[0])));
            gc_edges.push((EffectKey::Base(members[0]), local));
        }
    }
    let delta = base.edge_len.min(constraints.gc_edge_count());
    let edges: Vec<(GcId, GcId)> = constraints.gc_edges_from(delta).collect();
    let recorded_gc_edges = edges.len();
    for (lo, hi) in edges {
        let (kl, gl) = keyed(&mut table, lo);
        let (kh, gh) = keyed(&mut table, hi);
        if gl {
            gc_roots.push(kl);
        }
        if gh {
            gc_roots.push(kh);
        }
        gc_edges.push((kl, kh));
    }

    // Resolve every shared candidate slot once in this clone: the slots
    // that resolved to heap pointers are this function's heap pins; the
    // rest index the deferred liveness checks below.
    let resolved_candidates: Vec<(CtId, bool)> = base
        .heap_slot_candidates
        .iter()
        .map(|&(_, _, ct)| {
            let ct = table.resolve(ct);
            let heap = match table.node(ct).clone() {
                CtNode::Value(mt) => table.mt_is_heap_pointer(mt),
                _ => false,
            };
            (ct, heap)
        })
        .collect();
    let heap_slots: Vec<SlotKey> = base
        .heap_slot_candidates
        .iter()
        .zip(&resolved_candidates)
        .filter(|&(_, &(_, heap))| heap)
        .map(|((name, i, _), _)| (name.clone(), *i))
        .collect();
    let mut slots_by_ct: std::collections::HashMap<CtId, Vec<usize>> =
        std::collections::HashMap::new();
    for (idx, &(ct, heap)) in resolved_candidates.iter().enumerate() {
        if !heap {
            slots_by_ct.entry(ct).or_default().push(idx);
        }
    }

    // A live local whose type is still a variable here may be unified with
    // shared signature slots — its own parameter slot, an alias of one, or
    // a callee's param/return slot — that a sibling function pins to a
    // heap type this clone cannot see. Defer those liveness checks to
    // discharge under every matching slot's stable identity.
    let mut obligations = Vec::new();
    for ob in result.obligations {
        let mut unprotected = Vec::new();
        let mut deferred = Vec::new();
        for (name, ct) in &ob.live {
            if ob.protected.contains(name) {
                continue;
            }
            let ct = table.resolve(*ct);
            let unresolved = match table.node(ct).clone() {
                CtNode::Value(mt) => {
                    if table.mt_is_heap_pointer(mt) {
                        unprotected.push(name.clone());
                        false
                    } else {
                        !table.mt_is_ground(mt)
                    }
                }
                CtNode::Var => true,
                _ => false,
            };
            if unresolved {
                if let Some(idxs) = slots_by_ct.get(&ct) {
                    let keys: Vec<SlotKey> = idxs
                        .iter()
                        .map(|&i| {
                            let (name, slot, _) = &base.heap_slot_candidates[i];
                            (name.clone(), *slot)
                        })
                        .collect();
                    deferred.push((name.clone(), keys));
                }
            }
        }
        if unprotected.is_empty() && deferred.is_empty() {
            continue;
        }
        let (effect, effect_is_gc) = keyed(&mut table, ob.effect);
        obligations.push(ResolvedObligation {
            callee: ob.callee,
            effect,
            effect_is_gc,
            unprotected_heap_ptrs: unprotected,
            deferred_ptrs: deferred,
            span: ob.span,
        });
    }

    let psi_violations = constraints.check_psi_bounds(&table);

    // Ψ facts behind the shared open mts. A `Ψ` this clone resolved is a
    // pin siblings' deferred bounds are checked against; a `Ψ` still
    // unresolved here carries this clone's bounds to discharge.
    let mut psi_pins = Vec::new();
    let mut open_psis = Vec::new();
    for &raw in &base.open_mt_vars {
        let mt = table.resolve(MtId::from_raw(raw));
        if let MtNode::Rep(psi, _) = *table.node(mt) {
            let psi = table.resolve(psi);
            match *table.node(psi) {
                node @ (PsiNode::Count(_) | PsiNode::Top) => psi_pins.push((raw, node)),
                PsiNode::Var => open_psis.push((raw, psi)),
                PsiNode::Link(_) => unreachable!("resolved"),
            }
        }
    }
    let deferred_psi_bounds: Vec<DeferredPsiBound> = constraints
        .psi_bounds_from(base.psi_bound_len.min(constraints.psi_bound_count()))
        .filter_map(|b| {
            let canon = table.find(b.psi);
            if !matches!(table.node(canon), PsiNode::Var) {
                return None; // resolved here: already checked in-clone
            }
            let mt_key = open_psis.iter().find(|&&(_, p)| p == canon)?.0;
            Some(DeferredPsiBound { mt_key, t: b.t, span: b.span, context: b.context.clone() })
        })
        .collect();

    let mut pinned_polys = Vec::new();
    for (sig_idx, sig) in phase1.signatures.iter().enumerate() {
        for (param_idx, (_, mt)) in sig.poly_params.iter().enumerate() {
            if base.poly_concrete_at_base[sig_idx][param_idx] {
                continue;
            }
            if table.mt_is_concrete(*mt) {
                pinned_polys.push((sig_idx, param_idx, table.render_mt(*mt)));
            }
        }
    }

    // Shared interface slots this function resolved to a ground type,
    // restricted to the function's *own* signature — the slots it pins by
    // construction rather than observes transitively. Ground renders carry
    // no variable indices, so discharge can compare them textually across
    // clones.
    let mut interface_pins = Vec::new();
    for (sig_idx, sig) in phase1.signatures.iter().enumerate() {
        let is_own =
            sig.c_name == func.name || sig.byte_c_name.as_deref() == Some(func.name.as_str());
        if !is_own {
            continue;
        }
        let slots: Vec<_> = sig.params.iter().chain(std::iter::once(&sig.ret)).collect();
        for (slot, &&mt) in slots.iter().enumerate() {
            if base.slot_concrete_at_base[sig_idx][slot] {
                continue;
            }
            if table.mt_is_ground(mt) {
                interface_pins.push(InterfacePin {
                    sig_idx,
                    slot,
                    mt_key: base.slot_keys[sig_idx][slot],
                    rendered: table.render_mt(mt),
                    func_span: func.span,
                    func_name: func.name.clone(),
                });
            }
        }
    }

    FunctionOutcome {
        name: func.name.clone(),
        diagnostics: result.diagnostics,
        passes: result.passes,
        new_nodes: table.node_count().saturating_sub(base.node_count),
        gc_edges,
        recorded_gc_edges,
        gc_roots,
        obligations,
        psi_violations,
        psi_pins,
        deferred_psi_bounds,
        pinned_polys,
        interface_pins,
        heap_slots,
        seconds: timer.elapsed_seconds(),
        setup_seconds,
    }
}
