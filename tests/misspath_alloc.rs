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
/// caching on, incremental on). Measured at 1686 on x86_64 Linux, rustc
/// 1.95; headroom absorbs allocator-library drift, not design regressions
/// — a per-pair allocation leak blows straight past it.
const ARENA_COLD_BUDGET: u64 = 2200;

fn cold_build() -> (DepGraph, u64) {
    let program = parse_program(FIG3).expect("test program parses");
    let assumptions = Assumptions::new();
    let config = EngineConfig {
        choice: TestChoice::DelinearizationFirst,
        workers: 1,
        cache: true,
        ..EngineConfig::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let graph = build_dependence_graph_with(&program, &assumptions, &config);
    let after = ALLOCS.load(Ordering::Relaxed);
    (graph, after - before)
}

#[test]
fn arena_miss_path_allocates_under_budget() {
    // Warm-up build: the first call touches lazy runtime state
    // (thread-locals, the pair-scratch pool) that should not be charged.
    let (warm, _) = cold_build();
    assert!(!warm.edges.is_empty(), "the pinned nest has dependences");

    // Min over several measured cold builds: each build runs a private
    // cache, so every pair misses every time.
    let allocs = (0..3).map(|_| cold_build().1).min().expect("three builds");
    assert!(
        allocs <= ARENA_COLD_BUDGET,
        "cold build allocated {allocs} times (budget {ARENA_COLD_BUDGET}); \
         a per-pair allocation crept back into the pooled miss path"
    );

    // And the hit side of the same problems stays allocation-free: the
    // pools only own miss-path storage, never the hit path.
    let cache = VerdictCache::new(&Assumptions::new());
    let program = parse_program(FIG3).expect("test program parses");
    let sites = delinearization::frontend::collect_accesses(&program, &Assumptions::new());
    let problem = pair_problem(&sites[0], &sites[0]);
    let (_, hit) = cache.get_or_compute(&problem, |_| CachedOutcome {
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
    assert!(!hit, "first lookup must miss");
    let mut min_hit_allocs = u64::MAX;
    for _ in 0..10 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let (shared, hit) = cache.get_or_compute(&problem, |_| unreachable!("must hit"));
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(hit, "steady-state lookup must hit");
        drop(shared);
        min_hit_allocs = min_hit_allocs.min(after - before);
    }
    assert_eq!(min_hit_allocs, 0, "a fingerprint-keyed concrete cache hit must not allocate");
}
