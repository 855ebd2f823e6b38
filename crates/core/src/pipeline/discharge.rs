//! Pipeline stage 4: deferred constraint discharge.
//!
//! Merges the per-function outcomes of the inference stage — in program
//! order, so the result is scheduling-independent — and discharges the
//! checks the paper defers past unification (§3.3.3):
//!
//! * the whole-program GC effect solve: every worker's normalized effect
//!   edges are merged into one graph keyed by [`EffectKey`] and solved by
//!   reachability from the `gc` constants; obligations whose effect may
//!   collect become [`DiagnosticCode::UnrootedValue`] reports;
//! * `T + 1 ≤ Ψ` bound violations, as resolved by each worker's clone;
//! * the polymorphic-abuse practice check: a declared `'a` pinned to one
//!   concrete representational type by the C side.

use super::infer::{BaseState, EffectKey, InferArtifact};
use ffisafe_support::{Diagnostic, DiagnosticCode, Session};
use ffisafe_types::GcNode;
use std::collections::{HashMap, HashSet, VecDeque};

/// Runs the stage: merges outcomes into the session's diagnostic sink.
pub fn run(
    session: &mut Session,
    base: &mut BaseState,
    inferred: &InferArtifact,
    phase1: &ffisafe_ocaml::translate::Phase1,
) {
    // ---- merged GC effect solve ----------------------------------------
    let mut adj: HashMap<EffectKey, Vec<EffectKey>> = HashMap::new();
    let mut roots: HashSet<EffectKey> = HashSet::new();
    let base_edges: Vec<_> = base.constraints.gc_edges_from(0).collect();
    for (lo, hi) in base_edges {
        let kl = base_key(base, lo);
        let kh = base_key(base, hi);
        if matches!(base.table.node(lo), GcNode::Gc) {
            roots.insert(kl);
        }
        if matches!(base.table.node(hi), GcNode::Gc) {
            roots.insert(kh);
        }
        adj.entry(kl).or_default().push(kh);
    }
    for outcome in &inferred.outcomes {
        for &(lo, hi) in &outcome.gc_edges {
            adj.entry(lo).or_default().push(hi);
        }
        roots.extend(outcome.gc_roots.iter().copied());
    }
    let mut gc_set: HashSet<EffectKey> = roots.iter().copied().collect();
    let mut queue: VecDeque<EffectKey> = roots.into_iter().collect();
    while let Some(k) = queue.pop_front() {
        if let Some(succs) = adj.get(&k) {
            for &s in succs {
                if gc_set.insert(s) {
                    queue.push_back(s);
                }
            }
        }
    }

    // ---- per-function merges, in program order -------------------------
    let gc_enabled = session.options().gc_effects;
    // Signature slots any worker resolved to a heap-pointer value: inputs
    // to the deferred liveness checks below.
    let heap_slots: HashSet<&super::infer::SlotKey> =
        inferred.outcomes.iter().flat_map(|o| o.heap_slots.iter()).collect();
    let mut poly_pinned: HashMap<(usize, usize), String> = HashMap::new();
    for outcome in &inferred.outcomes {
        let mut diags = outcome.diagnostics.clone();
        session.emit_all(&mut diags);

        if gc_enabled {
            for ob in &outcome.obligations {
                if !(ob.effect_is_gc || gc_set.contains(&ob.effect)) {
                    continue;
                }
                let deferred_hits = ob
                    .deferred_ptrs
                    .iter()
                    .filter(|(_, keys)| keys.iter().any(|key| heap_slots.contains(key)))
                    .map(|(name, _)| name);
                // The names come from a hash set, so their order varies
                // between runs, and the reports of one call share a span:
                // only this sort fixes their order. Sorting here rather
                // than where a worker lists them also orders the lists
                // replayed from a store.
                let mut names: Vec<&String> =
                    ob.unprotected_heap_ptrs.iter().chain(deferred_hits).collect();
                names.sort_unstable();
                for name in names {
                    session.emit(Diagnostic::new(
                        DiagnosticCode::UnrootedValue,
                        ob.span,
                        format!(
                            "`{}` holds a pointer into the OCaml heap across a call to `{}` (which may trigger the GC) without registering it via CAMLparam/CAMLlocal",
                            name, ob.callee
                        ),
                    ));
                }
            }
        }

        for v in &outcome.psi_violations {
            session.emit(Diagnostic::new(
                DiagnosticCode::ConstructorRange,
                v.bound.span,
                format!("{} ({})", v.reason, v.bound.context),
            ));
        }

        for (sig_idx, param_idx, rendered) in &outcome.pinned_polys {
            poly_pinned.entry((*sig_idx, *param_idx)).or_insert_with(|| rendered.clone());
        }
    }

    // ---- interface consistency across functions -------------------------
    // Opaque OCaml types are shared inference variables: "two different C
    // types flowing into one opaque type is a unification error" (§2). A
    // shared-table run catches that when the second function's unification
    // fails; with snapshot isolation each function pins its own clone, so
    // compare the ground resolutions here. The first pinning function in
    // program order is the authority, exactly like a sequential run.
    let mut authority: HashMap<u32, (String, String)> = HashMap::new(); // key → (render, func)
    for outcome in &inferred.outcomes {
        for pin in &outcome.interface_pins {
            let (auth_render, auth_func) = authority
                .entry(pin.mt_key)
                .or_insert_with(|| (pin.rendered.clone(), pin.func_name.clone()));
            if *auth_render == pin.rendered || *auth_func == pin.func_name {
                continue;
            }
            let sig = &phase1.signatures[pin.sig_idx];
            let slot_desc = if pin.slot < sig.params.len() {
                format!("parameter {}", pin.slot + 1)
            } else {
                "the return".to_string()
            };
            session.emit(Diagnostic::new(
                DiagnosticCode::TypeMismatch,
                pin.func_span,
                format!(
                    "`{}` uses the opaque type behind {} of external `{}` at type `{}`, but `{}` uses it at `{}`",
                    pin.func_name, slot_desc, sig.ml_name, pin.rendered, auth_func, auth_render
                ),
            ));
        }
    }

    // ---- cross-clone Ψ discharge ----------------------------------------
    // A worker that pins a shared open mt's Ψ does so only in its own
    // clone; a sibling's bound on that Ψ was recorded against a still-
    // unresolved variable there. Meet them here: materialize the first
    // pin (program order — the authority a sequential run would have) in
    // the base table and re-check every deferred bound against it.
    let mut psi_pinned: HashMap<u32, ffisafe_types::PsiNode> = HashMap::new();
    for outcome in &inferred.outcomes {
        for &(raw, node) in &outcome.psi_pins {
            psi_pinned.entry(raw).or_insert(node);
        }
    }
    for outcome in &inferred.outcomes {
        for b in &outcome.deferred_psi_bounds {
            let Some(node) = psi_pinned.get(&b.mt_key) else { continue };
            let psi = match *node {
                ffisafe_types::PsiNode::Count(k) => base.table.psi_count(k),
                _ => continue, // ⊤ satisfies every bound
            };
            base.constraints.add_psi_bound(b.t, psi, b.span, b.context.clone());
        }
    }

    // bounds recorded before inference plus the deferred cross-clone
    // bounds above, resolved at the base state (also covers runs with no
    // C functions at all)
    for v in base.constraints.check_psi_bounds(&base.table) {
        session.emit(Diagnostic::new(
            DiagnosticCode::ConstructorRange,
            v.bound.span,
            format!("{} ({})", v.reason, v.bound.context),
        ));
    }

    // ---- polymorphic abuse (§5.2 practice check) ------------------------
    for (sig_idx, sig) in phase1.signatures.iter().enumerate() {
        for (param_idx, (var, mt)) in sig.poly_params.iter().enumerate() {
            let rendered = if base.poly_concrete_at_base[sig_idx][param_idx] {
                Some(base.table.render_mt(*mt))
            } else {
                poly_pinned.get(&(sig_idx, param_idx)).cloned()
            };
            let Some(rendered) = rendered else { continue };
            session.emit(Diagnostic::new(
                DiagnosticCode::PolymorphicAbuse,
                sig.span,
                format!(
                    "external `{}` declares polymorphic parameter '{} but its C implementation uses it at type `{}`; any OCaml value can be passed here",
                    sig.ml_name, var, rendered
                ),
            ));
        }
    }
}

/// Normalizes a base-table effect id. Base unification can only link
/// pre-snapshot nodes to each other, so the canonical id is always `Base`.
fn base_key(base: &mut BaseState, id: ffisafe_types::GcId) -> EffectKey {
    EffectKey::Base(base.table.resolve(id).as_raw())
}
