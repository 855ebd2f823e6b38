//! Property-based tests of the unification engine's invariants:
//! idempotence, symmetry of success, row-growth consistency, and
//! stability of failures (a failed unification must fail again — the
//! engine's reporting pass depends on it).

use ffisafe_support::rng::Rng64;
use ffisafe_types::{MtId, PsiNode, TypeTable};

/// A recipe for building a random ground-ish `mt` in a table.
#[derive(Clone, Debug)]
enum MtRecipe {
    Int,
    Unit,
    Enum(u32),
    Abstract(&'static str),
    Sum { nullary: u32, products: Vec<Vec<MtRecipe>> },
}

fn build(tt: &mut TypeTable, r: &MtRecipe) -> MtId {
    match r {
        MtRecipe::Int => {
            let p = tt.psi_top();
            let s = tt.sigma_nil();
            tt.mt_rep(p, s)
        }
        MtRecipe::Unit => {
            let p = tt.psi_count(1);
            let s = tt.sigma_nil();
            tt.mt_rep(p, s)
        }
        MtRecipe::Enum(k) => {
            let p = tt.psi_count(*k);
            let s = tt.sigma_nil();
            tt.mt_rep(p, s)
        }
        MtRecipe::Abstract(name) => tt.mt_abstract(name, true),
        MtRecipe::Sum { nullary, products } => {
            let pis: Vec<_> = products
                .iter()
                .map(|fields| {
                    let fs: Vec<_> = fields.iter().map(|f| build(tt, f)).collect();
                    tt.pi_closed(&fs)
                })
                .collect();
            let sigma = tt.sigma_closed(&pis);
            let psi = tt.psi_count(*nullary);
            tt.mt_rep(psi, sigma)
        }
    }
}

fn gen_leaf(rng: &mut Rng64) -> MtRecipe {
    match rng.gen_range(0..5u32) {
        0 => MtRecipe::Int,
        1 => MtRecipe::Unit,
        2 => MtRecipe::Enum(rng.gen_range(0u32..4)),
        3 => MtRecipe::Abstract("string"),
        _ => MtRecipe::Abstract("float"),
    }
}

/// Random recipe with nesting depth up to 3 (mirrors the old
/// `prop_recursive(3, 24, 4, …)` strategy).
fn gen_recipe(rng: &mut Rng64, depth: u32) -> MtRecipe {
    if depth == 0 || rng.gen_bool(0.4) {
        return gen_leaf(rng);
    }
    let nullary = rng.gen_range(0u32..3);
    let n_products = rng.gen_range(1..3usize);
    let products = (0..n_products)
        .map(|_| {
            let n_fields = rng.gen_range(1..3usize);
            (0..n_fields).map(|_| gen_recipe(rng, depth - 1)).collect()
        })
        .collect();
    MtRecipe::Sum { nullary, products }
}

const CASES: usize = 256;

/// A type unifies with a structurally-identical copy of itself, and
/// re-unification is idempotent.
#[test]
fn prop_unify_reflexive_and_idempotent() {
    let mut rng = Rng64::seed_from_u64(0x0511F1);
    for _ in 0..CASES {
        let r = gen_recipe(&mut rng, 3);
        let mut tt = TypeTable::new();
        let a = build(&mut tt, &r);
        let b = build(&mut tt, &r);
        assert!(tt.unify_mt(a, b).is_ok(), "{r:?}");
        assert_eq!(tt.find(a), tt.find(b));
        assert!(tt.unify_mt(a, b).is_ok());
        assert!(tt.unify_mt(b, a).is_ok());
    }
}

/// Success is direction-independent: if a ∪ b succeeds in one table,
/// b ∪ a succeeds in a fresh one.
#[test]
fn prop_unify_symmetric() {
    let mut rng = Rng64::seed_from_u64(0x0511F2);
    for _ in 0..CASES {
        let ra = gen_recipe(&mut rng, 3);
        let rb = gen_recipe(&mut rng, 3);
        let mut t1 = TypeTable::new();
        let a1 = build(&mut t1, &ra);
        let b1 = build(&mut t1, &rb);
        let fwd = t1.unify_mt(a1, b1).is_ok();
        let mut t2 = TypeTable::new();
        let a2 = build(&mut t2, &ra);
        let b2 = build(&mut t2, &rb);
        let bwd = t2.unify_mt(b2, a2).is_ok();
        assert_eq!(fwd, bwd, "{ra:?} vs {rb:?}");
    }
}

/// Failures are stable: if unification fails once, re-running it fails
/// again (no partial merge may mask the error — the analysis reports
/// diagnostics on a second pass).
#[test]
fn prop_failed_unification_stays_failed() {
    let mut rng = Rng64::seed_from_u64(0x0511F3);
    for _ in 0..CASES {
        let ra = gen_recipe(&mut rng, 3);
        let rb = gen_recipe(&mut rng, 3);
        let mut tt = TypeTable::new();
        let a = build(&mut tt, &ra);
        let b = build(&mut tt, &rb);
        if tt.unify_mt(a, b).is_err() {
            assert!(tt.unify_mt(a, b).is_err(), "retry must fail too");
            assert_ne!(tt.find(a), tt.find(b));
        }
    }
}

/// A fresh variable unifies with anything and resolves to it.
#[test]
fn prop_variable_absorbs_any_type() {
    let mut rng = Rng64::seed_from_u64(0x0511F4);
    for _ in 0..CASES {
        let r = gen_recipe(&mut rng, 3);
        let mut tt = TypeTable::new();
        let v = tt.fresh_mt();
        let t = build(&mut tt, &r);
        assert!(tt.unify_mt(v, t).is_ok(), "{r:?}");
        assert_eq!(tt.find(v), tt.find(t));
    }
}

/// Open rows grown to arbitrary depth still unify with a declared sum
/// of sufficient size, and Ψ resolves to the declared count.
#[test]
fn prop_row_growth_consistent() {
    let mut rng = Rng64::seed_from_u64(0x0511F5);
    for _ in 0..CASES {
        let n_tags = rng.gen_range(1..6usize);
        let tags: Vec<usize> = (0..n_tags).map(|_| rng.gen_range(0..4usize)).collect();
        let mut tt = TypeTable::new();
        let sigma = tt.fresh_sigma();
        let psi = tt.fresh_psi();
        let observed = tt.mt_rep(psi, sigma);
        let mut max_tag = 0;
        for &t in &tags {
            let _ = tt.sigma_at(sigma, t).unwrap();
            max_tag = max_tag.max(t);
        }
        // declared sum with exactly max_tag + 1 products of 1 int field
        let declared = {
            let pis: Vec<_> = (0..=max_tag)
                .map(|_| {
                    let p = tt.psi_top();
                    let s = tt.sigma_nil();
                    let f = tt.mt_rep(p, s);
                    tt.pi_closed(&[f])
                })
                .collect();
            let s = tt.sigma_closed(&pis);
            let p = tt.psi_count(2);
            tt.mt_rep(p, s)
        };
        assert!(tt.unify_mt(observed, declared).is_ok());
        assert!(matches!(tt.node(psi), PsiNode::Count(2)));
        assert_eq!(tt.sigma_len(sigma), Some(max_tag + 1));
    }
}

/// `pi_at` never hands out different field types for the same index.
#[test]
fn prop_pi_at_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x0511F6);
    for _ in 0..CASES {
        let n = rng.gen_range(1..10usize);
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..6usize)).collect();
        let mut tt = TypeTable::new();
        let pi = tt.fresh_pi();
        let mut firsts = std::collections::HashMap::new();
        for &i in &indices {
            let f = tt.pi_at(pi, i).unwrap();
            let canon = tt.find(f);
            let prev = firsts.entry(i).or_insert(canon);
            assert_eq!(*prev, canon, "index {i} changed field identity");
        }
    }
}

/// Unifying a type with a variable never changes what a *third*
/// structurally-distinct type does against it.
#[test]
fn prop_no_spooky_action() {
    let mut rng = Rng64::seed_from_u64(0x0511F7);
    for _ in 0..CASES {
        let ra = gen_recipe(&mut rng, 3);
        let rb = gen_recipe(&mut rng, 3);
        // expected outcome computed in a clean table
        let mut clean = TypeTable::new();
        let ca = build(&mut clean, &ra);
        let cb = build(&mut clean, &rb);
        let expected = clean.unify_mt(ca, cb).is_ok();
        // the same pair after unrelated variable churn in a shared table
        let mut tt = TypeTable::new();
        for _ in 0..5 {
            let v = tt.fresh_mt();
            let x = build(&mut tt, &MtRecipe::Int);
            tt.unify_mt(v, x).unwrap();
        }
        let a = build(&mut tt, &ra);
        let b = build(&mut tt, &rb);
        assert_eq!(tt.unify_mt(a, b).is_ok(), expected);
    }
}
