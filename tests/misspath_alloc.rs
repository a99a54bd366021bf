//! Allocation regression pin for the solve *miss* path.
//!
//! Sibling of `hotpath_alloc.rs` (which pins the cache-hit path at zero):
//! this file pins the cold side. A full dependence-graph build over a
//! fixed nest — every pair a cache miss — is measured under a counting
//! global allocator and must stay under a pinned absolute budget, so an
//! accidental clone or per-pair `Vec` sneaking back into the pooled miss
//! path (pooled pair problems, recycled builder slabs, scratch-reusing
//! solvers) fails the build. One `#[test]` per file — the allocator
//! counter is global.

use delinearization::dep::exact::{ExactSolver, SolveOutcome};
use delinearization::dep::problem::DependenceProblem;
use delinearization::frontend::affine::infer_bound_assumptions;
use delinearization::frontend::parse_program;
use delinearization::numeric::Assumptions;
use delinearization::vic::cache::{CachedOutcome, VerdictCache};
use delinearization::vic::deps::{
    build_dependence_graph_with, pair_problem, DepGraph, EngineConfig, TestChoice,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation; frees are not interesting.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The Fig. 3 nest (Allen–Kennedy 1987): three loop levels, several
/// arrays, a healthy mix of dependence shapes — all concrete bounds, so
/// every pair rides the full miss path (parse, pair problem, fingerprint,
/// techniques, exact solver) with no symbolic special cases.
const FIG3: &str = "
    REAL X(200), Y(200), B(100)
    REAL A(100,100), C(100,100)
    DO 30 i = 1, 100
      X(i) = Y(i) + 10
      DO 20 j = 1, 99
        B(j) = A(j, 20)
        DO 10 k = 1, 100
          A(j+1, k) = B(j) + C(j, k)
    10  CONTINUE
        Y(i+j) = A(j+1, 20)
    20  CONTINUE
    30 CONTINUE
    END
    ";

/// The pinned ceiling for one cold graph build of [`FIG3`] (serial,
/// caching on, incremental on), which spends 621 solver nodes over 19
/// refinement queries. Measured at 769 on x86_64 Linux, rustc 1.95 (893
/// while access collection renormalized each statement's nest through
/// polynomial forms, 912 while every walk query cloned its witness), with
/// about 30% headroom; headroom absorbs allocator-library drift, not
/// design regressions — a per-pair allocation leak blows straight past it.
const ARENA_COLD_BUDGET: u64 = 1000;

/// Forty copies of one statement in one loop: 2,420 reference pairs in
/// three pair classes, which emit 2,380 edges (780 loop-independent
/// output edges and 1,600 carried true edges). Deciding them is cheap, so
/// the build's allocations are dominated by what stamping the edges costs.
fn stamped_source() -> String {
    let body = "  A(i + 1) = A(i) + 1\n".repeat(40);
    format!("REAL A(0:100)\nDO i = 0, 98\n{body}ENDDO\n")
}

/// The shape of perfbench's symbolic miss-cold units: a run-time
/// dimensioned nest whose row stride is the symbol `NX`, so every pair is
/// decided by symbolic delinearization (Section 4) and its Banerjee walk.
const MISS_COLD_SYMBOLIC: &str = "
    REAL W(0:9999999)
    DO 1 J = 0, 40
    DO 1 I = 0, NX - 4
    W(I + NX*J + 5) = W(I + NX*J + 17) + 1
    1 W(I + NX*J + 30) = W(I + NX*J + 2) + 1
    END
    ";

/// The pinned ceiling for one cold build of [`MISS_COLD_SYMBOLIC`] under
/// `NX ≥ 8` and the loop-bound assumptions. Measured at 755 with loops
/// normalized once per walk, inline monomials, one Banerjee table per walk
/// and running sums that reuse their buffers (822 with per-statement
/// normalization, 1,192 when every query built four vectors per level,
/// 3,148 with `BTreeMap` monomials and a fresh Banerjee test per query),
/// with about 30% headroom.
const SYMBOLIC_COLD_BUDGET: u64 = 980;

fn cold_build(source: &str) -> (DepGraph, u64) {
    cold_build_under(source, &Assumptions::new())
}

fn cold_build_under(source: &str, assumptions: &Assumptions) -> (DepGraph, u64) {
    let program = parse_program(source).expect("test program parses");
    let config = EngineConfig {
        choice: TestChoice::DelinearizationFirst,
        cache: true,
        ..EngineConfig::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let graph = build_dependence_graph_with(&program, assumptions, &config);
    let after = ALLOCS.load(Ordering::Relaxed);
    (graph, after - before)
}

#[test]
fn arena_miss_path_allocates_under_budget() {
    // Warm-up build: the first call touches lazy runtime state
    // (thread-locals, the pair-scratch pool) that should not be charged.
    let (warm, _) = cold_build(FIG3);
    assert!(!warm.edges.is_empty(), "the pinned nest has dependences");

    // Min over several measured cold builds: each build runs a private
    // cache, so every pair misses every time.
    let allocs = (0..3).map(|_| cold_build(FIG3).1).min().expect("three builds");
    assert!(
        allocs <= ARENA_COLD_BUDGET,
        "cold build allocated {allocs} times (budget {ARENA_COLD_BUDGET}); \
         a per-pair allocation crept back into the pooled miss path"
    );

    // Stamping a class's planned edges onto its member pairs copies
    // pointers only, so a build makes fewer allocations than it emits
    // edges; a per-edge clone of the array name or the vectors alone
    // would exceed that.
    let stamped = stamped_source();
    let (graph, _) = cold_build(&stamped);
    assert_eq!(graph.edges.len(), 2380, "the stamped nest's edge count moved");
    let allocs = (0..3).map(|_| cold_build(&stamped).1).min().expect("three builds");
    assert!(
        allocs < graph.edges.len() as u64,
        "a cold build emitting {} edges allocated {allocs} times; \
         stamping allocates per member pair again",
        graph.edges.len()
    );

    // Once warm, a solve reuses the thread's scratch: its domain buffers
    // and its sparse row tables. A problem without a solution hands back
    // no witness, so solving it again allocates nothing at all.
    let mut b = DependenceProblem::<i128>::builder();
    let (i1, j1) = (b.var("i1", 4), b.var("j1", 9));
    let (i2, j2) = (b.var("i2", 4), b.var("j2", 9));
    b.common_pair(i1, i2).common_pair(j1, j2);
    b.equation(-5, vec![1, 10, -1, -10]);
    let motivating = b.build().with_inequality(-1, vec![-1, 0, 1, 0]); // i1 < i2
    let solver = ExactSolver::default();
    assert_eq!(solver.solve(&motivating), SolveOutcome::NoSolution, "warm-up solve");
    let before = ALLOCS.load(Ordering::Relaxed);
    let again = solver.solve(&motivating);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(again, SolveOutcome::NoSolution);
    assert_eq!(allocs, 0, "a warm solve without a solution allocated {allocs} times");

    // A symbolic decision allocates about as little as a concrete one:
    // the polynomials behind every sign query stay inline, and each walk
    // computes a pair range once.
    let mut nx = Assumptions::new();
    nx.set_lower_bound("NX", 8);
    let program = parse_program(MISS_COLD_SYMBOLIC).expect("test program parses");
    let nx = infer_bound_assumptions(&program, &nx);
    let (graph, _) = cold_build_under(MISS_COLD_SYMBOLIC, &nx);
    assert!(!graph.edges.is_empty(), "the symbolic nest has dependences");
    let allocs =
        (0..3).map(|_| cold_build_under(MISS_COLD_SYMBOLIC, &nx).1).min().expect("three builds");
    assert!(
        allocs <= SYMBOLIC_COLD_BUDGET,
        "symbolic cold build allocated {allocs} times (budget {SYMBOLIC_COLD_BUDGET}); \
         a symbolic decision allocates per monomial or per walk query again"
    );

    // And the hit side of the same problems stays allocation-free: the
    // pools only own miss-path storage, never the hit path.
    let cache = VerdictCache::bounded(0);
    let env = Assumptions::new();
    let program = parse_program(FIG3).expect("test program parses");
    let sites = delinearization::frontend::collect_accesses(&program, &env);
    let problem = pair_problem(&sites[0], &sites[0]);
    let miss = cache.lookup(&env, &problem, |_| CachedOutcome {
        verdict: delinearization::dep::verdict::Verdict::Independent,
        tested_by: "pin",
        attempts: vec!["pin"],
        solver_nodes: 0,
        refine_queries: 0,
        subtree_reuses: 0,
        nodes_saved: 0,
        solver_state: None,
        degraded: None,
    });
    assert!(miss.computed, "first lookup must miss");
    let mut min_hit_allocs = u64::MAX;
    for _ in 0..10 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let hit = cache.lookup(&env, &problem, |_| unreachable!("must hit"));
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(!hit.computed, "steady-state lookup must hit");
        drop(hit);
        min_hit_allocs = min_hit_allocs.min(after - before);
    }
    assert_eq!(min_hit_allocs, 0, "a fingerprint-keyed concrete cache hit must not allocate");
}
