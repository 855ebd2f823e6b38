//! Differential oracle suite for the frozen-arena overlay.
//!
//! Old semantics: each inference worker deep-cloned the post-link
//! `TypeTable`. New semantics: workers get an O(1) copy-on-write overlay
//! over a frozen, `Arc`-shared arena. The two must be observationally
//! identical — same allocation ids, same unification verdicts, same
//! resolved state, same renders — and, end to end, reports must stay
//! byte-identical at any worker count and cache temperature.
//!
//! The property tests drive a deep clone and a frozen overlay of one
//! randomly built base table through the *same* `Rng64`-seeded
//! unify/bind/Ψ-pin sequence and compare everything observable. Every
//! assertion message carries the seed; replay a single failing seed with
//! `FFISAFE_OVERLAY_SEED=<n> cargo test -p ffisafe-core --test
//! overlay_differential`.

use ffisafe_support::rng::Rng64;
use ffisafe_support::Span;
use ffisafe_types::{ConstraintSet, FlatInt, GcId, MtId, PsiId, TypeTable};
use std::sync::Arc;

// ---- randomized op sequences --------------------------------------------

/// One table operation, pure data so the same sequence can be applied to
/// both implementations.
#[derive(Clone, Debug)]
enum Op {
    FreshMt,
    AbstractMt {
        name: String,
        heap: bool,
    },
    RepMt,
    CustomMt,
    UnifyMt(usize, usize),
    FreshPsi,
    /// `unify_psi(psis[var], psi_count(n))`, or against `psi_top()` when
    /// `count` is `None` — the Ψ-pin a worker performs when a shared open
    /// representation flows into a concrete context.
    PinPsi {
        var: usize,
        count: Option<u32>,
    },
    UnifyPsi(usize, usize),
    FreshGc,
    GcConst(bool),
    UnifyGc(usize, usize),
}

/// Per-table id pools. Both tables allocate in the same order, so the
/// pools must stay identical — `apply` asserts it.
#[derive(Default)]
struct Pools {
    mts: Vec<MtId>,
    psis: Vec<PsiId>,
    gcs: Vec<GcId>,
}

/// Tracks pool sizes during generation so ops only reference ids that
/// will exist when they run.
#[derive(Clone, Copy)]
struct Sim {
    mts: usize,
    psis: usize,
    gcs: usize,
}

fn gen_ops(rng: &mut Rng64, mut sim: Sim, n: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match rng.gen_range(0..11u32) {
            0 => {
                sim.mts += 1;
                Op::FreshMt
            }
            1 => {
                sim.mts += 1;
                Op::AbstractMt {
                    name: format!("t{}", rng.gen_range(0..4u32)),
                    heap: rng.gen_bool(0.5),
                }
            }
            2 => {
                sim.mts += 1;
                Op::RepMt
            }
            3 => {
                sim.mts += 1;
                Op::CustomMt
            }
            4 => Op::UnifyMt(rng.gen_range(0..sim.mts), rng.gen_range(0..sim.mts)),
            5 => {
                sim.psis += 1;
                Op::FreshPsi
            }
            6 => Op::PinPsi {
                var: rng.gen_range(0..sim.psis),
                count: rng.gen_bool(0.7).then(|| rng.gen_range(0..6u32)),
            },
            7 => Op::UnifyPsi(rng.gen_range(0..sim.psis), rng.gen_range(0..sim.psis)),
            8 => {
                sim.gcs += 1;
                Op::FreshGc
            }
            9 => {
                sim.gcs += 1;
                Op::GcConst(rng.gen_bool(0.5))
            }
            _ => Op::UnifyGc(rng.gen_range(0..sim.gcs), rng.gen_range(0..sim.gcs)),
        };
        ops.push(op);
    }
    ops
}

/// Applies one op and returns a string describing everything observable
/// about it (allocated raw ids, unification verdicts) for comparison.
fn apply(table: &mut TypeTable, pools: &mut Pools, op: &Op) -> String {
    match op {
        Op::FreshMt => {
            let id = table.fresh_mt();
            pools.mts.push(id);
            format!("mt {}", id.as_raw())
        }
        Op::AbstractMt { name, heap } => {
            let id = table.mt_abstract(name, *heap);
            pools.mts.push(id);
            format!("mt {}", id.as_raw())
        }
        Op::RepMt => {
            let id = table.mt_fresh_rep();
            pools.mts.push(id);
            format!("mt {}", id.as_raw())
        }
        Op::CustomMt => {
            let ct = table.ct_fresh_value();
            let id = table.mt_custom(ct);
            pools.mts.push(id);
            format!("mt {} (ct {})", id.as_raw(), ct.as_raw())
        }
        Op::UnifyMt(a, b) => {
            format!("unify_mt -> {:?}", table.unify_mt(pools.mts[*a], pools.mts[*b]))
        }
        Op::FreshPsi => {
            let id = table.fresh_psi();
            pools.psis.push(id);
            format!("psi {}", id.as_raw())
        }
        Op::PinPsi { var, count } => {
            let pin = match count {
                Some(n) => table.psi_count(*n),
                None => table.psi_top(),
            };
            format!("pin_psi -> {:?}", table.unify_psi(pools.psis[*var], pin))
        }
        Op::UnifyPsi(a, b) => {
            format!("unify_psi -> {:?}", table.unify_psi(pools.psis[*a], pools.psis[*b]))
        }
        Op::FreshGc => {
            let id = table.fresh_gc();
            pools.gcs.push(id);
            format!("gc {}", id.as_raw())
        }
        Op::GcConst(is_gc) => {
            let id = if *is_gc { table.gc_gc() } else { table.gc_nogc() };
            pools.gcs.push(id);
            format!("gc {}", id.as_raw())
        }
        Op::UnifyGc(a, b) => {
            table.unify_gc(pools.gcs[*a], pools.gcs[*b]);
            "unify_gc".to_string()
        }
    }
}

/// Builds a random base table the way linking would: a mix of variables,
/// abstract types, representation types and constants, pre-tangled by a
/// few base-side unifications.
fn build_base(rng: &mut Rng64) -> (TypeTable, Pools) {
    let mut table = TypeTable::new();
    let mut pools = Pools::default();
    // Seed at least one of each sort so op generation never draws from an
    // empty pool, then grow randomly.
    pools.mts.push(table.fresh_mt());
    pools.psis.push(table.fresh_psi());
    pools.gcs.push(table.fresh_gc());
    let sim = Sim { mts: 1, psis: 1, gcs: 1 };
    let n = rng.gen_range(20..60usize);
    let build_ops = gen_ops(rng, sim, n);
    for op in &build_ops {
        apply(&mut table, &mut pools, op);
    }
    (table, pools)
}

fn run_seed(seed: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let (base, base_pools) = build_base(&mut rng);

    // Old semantics: a deep clone of the (uncompressed) base.
    let mut cloned = base.clone();
    let mut clone_pools = Pools {
        mts: base_pools.mts.clone(),
        psis: base_pools.psis.clone(),
        gcs: base_pools.gcs.clone(),
    };

    // New semantics: freeze (fully path-compressing) and overlay.
    let frozen = base.freeze();
    let mut overlay = frozen.overlay();
    let mut overlay_pools = base_pools;

    assert_eq!(
        cloned.node_count(),
        overlay.node_count(),
        "seed {seed}: node counts diverge before any worker op"
    );

    let sim = Sim {
        mts: clone_pools.mts.len(),
        psis: clone_pools.psis.len(),
        gcs: clone_pools.gcs.len(),
    };
    let n = rng.gen_range(30..120usize);
    let ops = gen_ops(&mut rng, sim, n);
    for (i, op) in ops.iter().enumerate() {
        let old = apply(&mut cloned, &mut clone_pools, op);
        let new = apply(&mut overlay, &mut overlay_pools, op);
        assert_eq!(old, new, "seed {seed}: op {i} {op:?} observed differently");
    }

    // Full-state comparison: every id ever allocated must resolve to the
    // same canonical, the same node, the same render.
    assert_eq!(cloned.node_count(), overlay.node_count(), "seed {seed}: node counts");
    for (i, (&a, &b)) in clone_pools.mts.iter().zip(&overlay_pools.mts).enumerate() {
        assert_eq!(a, b, "seed {seed}: mt pool id {i}");
        assert_eq!(
            cloned.resolve(a).as_raw(),
            overlay.resolve(b).as_raw(),
            "seed {seed}: mt {i} canonical"
        );
        assert_eq!(cloned.render_mt(a), overlay.render_mt(b), "seed {seed}: mt {i} render");
    }
    for (i, (&a, &b)) in clone_pools.psis.iter().zip(&overlay_pools.psis).enumerate() {
        assert_eq!(
            cloned.resolve(a).as_raw(),
            overlay.resolve(b).as_raw(),
            "seed {seed}: psi {i} canonical"
        );
        let ca = cloned.resolve(a);
        let cb = overlay.resolve(b);
        assert_eq!(cloned.node(ca), overlay.node(cb), "seed {seed}: psi {i} node");
    }
    for (i, (&a, &b)) in clone_pools.gcs.iter().zip(&overlay_pools.gcs).enumerate() {
        assert_eq!(
            cloned.resolve(a).as_raw(),
            overlay.resolve(b).as_raw(),
            "seed {seed}: gc {i} canonical"
        );
        let ca = cloned.resolve(a);
        let cb = overlay.resolve(b);
        assert_eq!(cloned.node(ca), overlay.node(cb), "seed {seed}: gc {i} node");
    }

    // Constraint-store differential on top of the same two tables: the
    // clone gets a plain copy of the base store, the overlay a one-level
    // view; identical local appends must yield identical global indexing,
    // an identical GC solve and identical Ψ-bound verdicts.
    let mut base_cs = ConstraintSet::new();
    for _ in 0..rng.gen_range(0..8usize) {
        let a = clone_pools.gcs[rng.gen_range(0..clone_pools.gcs.len())];
        let b = clone_pools.gcs[rng.gen_range(0..clone_pools.gcs.len())];
        base_cs.add_gc_edge(a, b);
    }
    for _ in 0..rng.gen_range(0..5usize) {
        let t = match rng.gen_range(0..3u32) {
            0 => FlatInt::Bot,
            1 => FlatInt::Known(rng.gen_range(0..8u32) as i64 - 1),
            _ => FlatInt::Top,
        };
        let psi = clone_pools.psis[rng.gen_range(0..clone_pools.psis.len())];
        base_cs.add_psi_bound(t, psi, Span::dummy(), "base bound");
    }
    let mut clone_cs = base_cs.clone();
    let mut overlay_cs = ConstraintSet::overlay(Arc::new(base_cs));
    for _ in 0..rng.gen_range(0..10usize) {
        if rng.gen_bool(0.6) {
            let a = rng.gen_range(0..clone_pools.gcs.len());
            let b = rng.gen_range(0..clone_pools.gcs.len());
            clone_cs.add_gc_edge(clone_pools.gcs[a], clone_pools.gcs[b]);
            overlay_cs.add_gc_edge(overlay_pools.gcs[a], overlay_pools.gcs[b]);
        } else {
            let t = FlatInt::Known(rng.gen_range(0..6u32) as i64);
            let p = rng.gen_range(0..clone_pools.psis.len());
            clone_cs.add_psi_bound(t, clone_pools.psis[p], Span::dummy(), "local bound");
            overlay_cs.add_psi_bound(t, overlay_pools.psis[p], Span::dummy(), "local bound");
        }
    }
    assert_eq!(clone_cs.gc_edge_count(), overlay_cs.gc_edge_count(), "seed {seed}: edge count");
    assert_eq!(clone_cs.psi_bound_count(), overlay_cs.psi_bound_count(), "seed {seed}: bounds");
    let old_edges: Vec<_> = clone_cs.gc_edges_from(0).collect();
    let new_edges: Vec<_> = overlay_cs.gc_edges_from(0).collect();
    assert_eq!(old_edges, new_edges, "seed {seed}: global edge sequence");

    let old_solution = clone_cs.solve_gc(&mut cloned);
    let new_solution = overlay_cs.solve_gc(&mut overlay);
    for (i, (&a, &b)) in clone_pools.gcs.iter().zip(&overlay_pools.gcs).enumerate() {
        assert_eq!(
            old_solution.may_gc(&cloned, a),
            new_solution.may_gc(&overlay, b),
            "seed {seed}: gc {i} may-GC verdict"
        );
    }
    let old_violations = clone_cs.check_psi_bounds(&cloned);
    let new_violations = overlay_cs.check_psi_bounds(&overlay);
    assert_eq!(
        format!("{old_violations:?}"),
        format!("{new_violations:?}"),
        "seed {seed}: Ψ-bound verdicts"
    );
}

/// The property suite: many seeds, or exactly one when
/// `FFISAFE_OVERLAY_SEED` is set (replaying a reported failure).
#[test]
fn overlay_is_observationally_identical_to_clone() {
    if let Ok(seed) = std::env::var("FFISAFE_OVERLAY_SEED") {
        let seed: u64 = seed.parse().expect("FFISAFE_OVERLAY_SEED must be an integer");
        run_seed(seed);
        return;
    }
    for seed in 0..48 {
        run_seed(seed);
    }
}

// ---- end-to-end byte identity -------------------------------------------

use ffisafe_bench::corpus::generate;
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_core::{AnalysisOptions, AnalysisRequest, AnalysisService, Corpus, ServiceConfig};

fn render(ml: &str, c: &str, jobs: usize, cache_dir: Option<&std::path::Path>) -> String {
    let service = AnalysisService::with_config(ServiceConfig {
        cache_dir: cache_dir.map(|d| d.to_path_buf()),
        cache_url: None,
        batch_jobs: 0,
    })
    .expect("temp cache dir opens");
    let corpus = Corpus::builder().ml_source("lib.ml", ml).c_source("glue.c", c).build();
    let request = AnalysisRequest::new(corpus).options(AnalysisOptions::default().with_jobs(jobs));
    service.analyze(&request).expect("in-memory analysis succeeds").render_stable()
}

/// Every Figure 9 workload renders byte-identically at jobs ∈ {1, 2, 8},
/// cold and warm: the frozen-arena overlays leak no scheduling or cache
/// state into the report.
#[test]
fn figure9_reports_identical_across_jobs_and_cache_temperature() {
    for spec in paper_benchmarks() {
        let bench = generate(&spec);
        let baseline = render(&bench.ml_source, &bench.c_source, 1, None);
        for jobs in [1, 2, 8] {
            let dir = std::env::temp_dir().join(format!(
                "ffisafe-overlay-diff-{}-{}-{}",
                spec.name.replace('/', "_"),
                jobs,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cold = render(&bench.ml_source, &bench.c_source, jobs, Some(&dir));
            let warm = render(&bench.ml_source, &bench.c_source, jobs, Some(&dir));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(baseline, cold, "{} jobs={jobs}: cold diverges", spec.name);
            assert_eq!(baseline, warm, "{} jobs={jobs}: warm diverges", spec.name);
        }
    }
}
