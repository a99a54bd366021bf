//! Allocation regression pin for the verdict-cache hit path.
//!
//! The fingerprint-keyed cache promises that a *hit* on a concrete
//! problem performs no heap allocation: the structural fingerprint hashes
//! borrowed data (an empty symbol projection for concrete problems never
//! allocates its `Vec`), the shard probe is a read-locked integer-keyed
//! map lookup, and the shared outcome is returned by `Arc` refcount bump.
//! This file pins that with a counting global allocator — it contains a
//! single `#[test]` so no concurrent test can pollute the counter.

use delinearization::dep::problem::DependenceProblem;
use delinearization::dep::verdict::Verdict;
use delinearization::numeric::{Assumptions, SymPoly};
use delinearization::vic::cache::{CachedOutcome, VerdictCache};
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

fn c(n: i128) -> SymPoly {
    SymPoly::constant(n)
}

/// The motivating example's concrete delinearization problem.
fn concrete_problem() -> DependenceProblem<SymPoly> {
    let mut b = DependenceProblem::<SymPoly>::builder();
    b.var("i1", c(4));
    b.var("j1", c(9));
    b.var("i2", c(4));
    b.var("j2", c(9));
    b.equation(c(5), vec![c(1), c(10), c(-1), c(-10)]);
    b.common_pair(0, 2);
    b.common_pair(1, 3);
    b.build()
}

fn outcome() -> CachedOutcome {
    CachedOutcome {
        verdict: Verdict::Independent,
        tested_by: "pin",
        attempts: vec!["pin"],
        solver_nodes: 0,
        refine_queries: 0,
        subtree_reuses: 0,
        nodes_saved: 0,
        solver_state: None,
        degraded: None,
    }
}

#[test]
fn fp_mode_concrete_hit_allocates_nothing() {
    let cache = VerdictCache::bounded(0);
    let env = Assumptions::new();
    let problem = concrete_problem();
    assert!(cache.lookup(&env, &problem, |_| outcome()).computed, "first lookup must miss");

    // Min over several measured hits: the first may still touch lazy
    // runtime state (e.g. thread-locals); the steady state must be zero.
    let mut min_allocs = u64::MAX;
    for _ in 0..10 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let hit = cache.lookup(&env, &problem, |_| outcome());
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(!hit.computed, "steady-state lookup must hit");
        assert_eq!(hit.outcome.tested_by, "pin");
        drop(hit);
        min_allocs = min_allocs.min(after - before);
    }
    assert_eq!(
        min_allocs, 0,
        "a fingerprint-keyed concrete cache hit must not allocate; \
         something on the hit path regressed to cloning or rendering"
    );
}
