//! Incremental-vs-fresh equivalence matrix.
//!
//! Incremental exact solving (`SubtreeStore` replays under the verdict
//! cache) is a pure performance knob: for any worker count the dependence
//! edges, verdicts, and vectorization are identical with it on or off,
//! while the incremental run reuses subtrees and spends strictly fewer
//! exact-solver nodes. Under budget starvation the two runs may *diverge
//! in precision* (replays spend no nodes, so the incremental run degrades
//! later) — but both must degrade conservatively: relative to an exact
//! full-budget reference, no dependence and no direction vector may ever
//! be dropped. The chaos-gated module repeats the equivalence matrix with
//! deterministic fault injection (panics, zero-node budgets, expired
//! deadlines): injected faults never store or replay solver state, so they
//! cannot break the equivalence either.

use delinearization::corpus::stream::{generated_units, riceps_units};
use delinearization::dep::budget::BudgetSpec;
use delinearization::vic::batch::{BatchConfig, BatchRunner, BatchStats, BatchUnit};
use delinearization::vic::deps::DepGraph;
use delinearization::vic::pipeline::{run_pipeline, PipelineConfig};

/// A mixed corpus: the size-reduced RiCEPS programs plus generated nests.
fn corpus() -> Vec<BatchUnit> {
    riceps_units(Some(120)).chain(generated_units(6, 7)).collect()
}

fn batch(
    incremental: bool,
    workers: usize,
    chaos: Option<delinearization::vic::chaos::ChaosPlan>,
) -> BatchStats {
    let config = BatchConfig {
        workers,
        incremental,
        budget: BudgetSpec::nodes_only(1_000_000),
        chaos,
        ..BatchConfig::default()
    };
    BatchRunner::new(config).run(corpus())
}

/// Everything observable except the perf counters must match unit by unit.
fn assert_units_equivalent(on: &BatchStats, off: &BatchStats, label: &str) {
    assert_eq!(on.units.len(), off.units.len(), "{label}: unit counts differ");
    for (a, b) in on.units.iter().zip(&off.units) {
        assert_eq!(a.name, b.name, "{label}: unit order differs");
        assert_eq!(
            format!("{:?}", a.outcome),
            format!("{:?}", b.outcome),
            "{label}: outcome differs for {}",
            a.name
        );
        assert_eq!(a.edges, b.edges, "{label}: edge count differs for {}", a.name);
        assert_eq!(a.edges_fp, b.edges_fp, "{label}: edge list differs for {}", a.name);
        assert_eq!(
            a.vectorized_statements, b.vectorized_statements,
            "{label}: vectorization differs for {}",
            a.name
        );
        let va = a.stats.verdict_stats();
        let vb = b.stats.verdict_stats();
        assert_eq!(va.pairs_tested, vb.pairs_tested, "{label}: {}", a.name);
        assert_eq!(va.proven_independent, vb.proven_independent, "{label}: {}", a.name);
        assert_eq!(va.independent_by, vb.independent_by, "{label}: {}", a.name);
        assert_eq!(va.conservative_pairs, vb.conservative_pairs, "{label}: {}", a.name);
        assert_eq!(va.decided_by, vb.decided_by, "{label}: {}", a.name);
    }
}

/// Full budget, workers × {on, off}: identical units everywhere; the
/// incremental legs actually reuse subtrees and spend strictly fewer
/// solver nodes than their fresh counterparts.
#[test]
fn incremental_matches_fresh_for_any_worker_count() {
    for workers in [1usize, 4] {
        let on = batch(true, workers, None);
        let off = batch(false, workers, None);
        let label = format!("workers={workers}");
        assert_units_equivalent(&on, &off, &label);
        let on_t = on.totals.verdict_stats();
        let off_t = off.totals.verdict_stats();
        assert!(on_t.subtree_reuses > 0, "{label}: incremental run reused no subtrees");
        assert_eq!(off_t.subtree_reuses, 0, "{label}: fresh run cannot reuse subtrees");
        assert_eq!(off_t.nodes_saved, 0, "{label}: fresh run cannot save nodes");
        assert!(
            on_t.solver_nodes < off_t.solver_nodes,
            "{label}: incremental must spend strictly fewer nodes ({} vs {})",
            on_t.solver_nodes,
            off_t.solver_nodes
        );
    }
}

/// Concrete nests that exercise the refinement hierarchy.
const SOURCES: [&str; 3] = [
    "
        REAL C(0:99)
        DO 1 i = 0, 4
        DO 1 j = 0, 9
    1   C(i + 10*j) = C(i + 10*j + 5)
        END
    ",
    "
        REAL C(0:99)
        DO 1 i = 0, 4
        DO 1 j = 0, 9
    1   C(i + 10*j) = C(i + 10*j + 1)
        END
    ",
    "
        REAL A(0:20)
        DO 1 i = 0, 9
    1   A(i + 1) = A(i)
        END
    ",
];

fn graph(src: &str, incremental: bool, node_limit: u64) -> DepGraph {
    let config = PipelineConfig {
        workers: 1,
        incremental,
        budget: BudgetSpec::nodes_only(node_limit),
        ..PipelineConfig::default()
    };
    run_pipeline(src, &config).expect("pipeline").graph
}

/// Starvation is conservative, never wrong: against the exact full-budget
/// reference, a starved run (incremental or fresh, down to a zero-node
/// budget) keeps every dependence edge, and every reference direction
/// vector stays covered — degradation widens vectors, it never drops or
/// narrows one.
#[test]
fn starved_refinements_degrade_conservatively() {
    for src in SOURCES {
        let reference = graph(src, false, 1_000_000);
        assert_eq!(
            reference.stats.verdict_stats().conservative_pairs,
            0,
            "reference run must be exact for this check to be meaningful"
        );
        for node_limit in [0u64, 8, 64] {
            for incremental in [true, false] {
                let starved = graph(src, incremental, node_limit);
                let label = format!("limit={node_limit} incremental={incremental}");
                for re in &reference.edges {
                    let se = starved
                        .edges
                        .iter()
                        .find(|se| {
                            se.src == re.src
                                && se.dst == re.dst
                                && se.kind == re.kind
                                && se.array == re.array
                        })
                        .unwrap_or_else(|| {
                            panic!("{label}: starved run dropped dependence {re:?}")
                        });
                    for rv in re.dir_vecs.iter() {
                        for atom in rv.atomic_decompositions() {
                            assert!(
                                se.dir_vecs.iter().any(|sv| atom.subsumed_by(sv)),
                                "{label}: starved run narrowed {re:?} to a wrong \
                                 vector set {:?} (lost {atom})",
                                se.dir_vecs
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The equivalence matrix again, now with deterministic fault injection:
/// panics, zero-node budgets, and expired deadlines fire identically on
/// both legs (injections are pure functions of `(seed, site)`, and faulted
/// decisions never store or replay solver state), so the units still match
/// field for field.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use delinearization::vic::chaos::ChaosPlan;

    #[test]
    fn incremental_matches_fresh_under_fault_injection() {
        for workers in [1usize, 4] {
            for seed in [42u64, 7] {
                let on = batch(true, workers, Some(ChaosPlan::new(seed)));
                let off = batch(false, workers, Some(ChaosPlan::new(seed)));
                assert_units_equivalent(&on, &off, &format!("chaos seed={seed} workers={workers}"));
            }
        }
    }
}
