//! Allocation pins for the two per-statement layers around the engine:
//! access collection and vector code generation.
//!
//! Sibling of `misspath_alloc.rs` and `hotpath_alloc.rs`. Each layer runs
//! on a two-deep nest with one statement under a counting global
//! allocator and must stay under a pinned budget: a walk that renormalizes
//! the nest per statement through polynomial arithmetic, or a vectorizer
//! that clones statements and rewrites expression trees, blows past it.
//! One `#[test]` per file — the allocator counter is global.

use delinearization::frontend::{collect_accesses, parse_program};
use delinearization::numeric::Assumptions;
use delinearization::vic::codegen::vectorize;
use delinearization::vic::deps::{build_dependence_graph, TestChoice};
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

/// A two-deep nest with one statement.
const NEST: &str = "
    REAL A(0:99, 0:99)
    DO 1 I = 0, 98
    DO 1 J = 0, 99
  1 A(I + 1, J) = A(I, J) + 1
    END
    ";

/// The pinned ceiling for `collect_accesses` of [`NEST`]: measured at 14
/// (its two sites, their subscript vectors and term maps, the shared loop
/// list, the interned names), with about 30% headroom. Renormalizing the
/// nest for the statement through polynomial forms made 45.
const COLLECT_BUDGET: u64 = 18;

/// The pinned ceiling for `vectorize` of [`NEST`]: measured at 41 (the
/// flattened program, one section per loop, one text per statement, the
/// component search of each recursion level), with about 30% headroom.
/// Cloning the statement and its loop shells and rewriting expression
/// trees made 105.
const VECTORIZE_BUDGET: u64 = 53;

/// Allocations of the fewest of three calls of `f`.
fn min_allocs<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let out = f();
            let after = ALLOCS.load(Ordering::Relaxed);
            drop(out);
            after - before
        })
        .min()
        .expect("three calls")
}

#[test]
fn per_statement_layers_allocate_their_output() {
    let program = parse_program(NEST).expect("the nest parses");
    let assumptions = Assumptions::new();
    let sites = collect_accesses(&program, &assumptions);
    let graph = build_dependence_graph(&program, &assumptions, TestChoice::DelinearizationFirst);
    let code = vectorize(&program, &graph);
    assert_eq!(sites.len(), 2);
    assert_eq!(code.render(), "DO I = 0, 98\n  A(I + 1, 0:99) = A(I, 0:99) + 1\nENDDO\n");

    let allocs = min_allocs(|| collect_accesses(&program, &assumptions));
    assert!(
        allocs <= COLLECT_BUDGET,
        "collect_accesses allocated {allocs} times (budget {COLLECT_BUDGET}); \
         the walk builds polynomials or copies loop lists per site again"
    );
    let allocs = min_allocs(|| vectorize(&program, &graph));
    assert!(
        allocs <= VECTORIZE_BUDGET,
        "vectorize allocated {allocs} times (budget {VECTORIZE_BUDGET}); \
         it clones statements or formats per expression node again"
    );
}
