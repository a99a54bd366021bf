//! Budget-starvation soundness of incremental solving.
//!
//! Direction-refinement queries replay memoized solve subtrees (a
//! `SubtreeStore` per decision, dropped when the decision ends: a cache
//! hit returns the stored verdict without walking again). A replay spends
//! no nodes, so a starved run may degrade later
//! than a fresh solve would and keep more precision. It must still degrade
//! conservatively: relative to a full-budget reference, no dependence and
//! no direction vector may ever be dropped. The chaos-gated module checks
//! the same under deterministic fault injection (panics, zero-node
//! budgets, expired deadlines). The fresh-solve reference itself, a
//! disabled `SubtreeStore`, is compared with the store query for query in
//! `tests/oracle_differential.rs` and in `delin_dep::hierarchy`'s tests.

use delinearization::dep::budget::BudgetSpec;
use delinearization::vic::deps::{DepEdge, DepGraph, EngineConfig};
use delinearization::vic::pipeline::{run_pipeline, PipelineConfig};

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

fn graph(src: &str, node_limit: u64) -> DepGraph {
    let engine = EngineConfig { budget: BudgetSpec::nodes_only(node_limit), ..Default::default() };
    run_pipeline(src, &PipelineConfig { engine, ..PipelineConfig::default() })
        .expect("pipeline")
        .graph
}

/// Fails unless every atomic direction vector of every `reference` edge is
/// admitted by some `starved` edge with the same endpoints, kind and
/// array: degradation may widen vectors or add edges, never drop or
/// narrow one.
fn assert_covers(reference: &[DepEdge], starved: &[DepEdge], label: &str) {
    for re in reference {
        let same: Vec<&DepEdge> = starved
            .iter()
            .filter(|se| {
                se.src == re.src && se.dst == re.dst && se.kind == re.kind && se.array == re.array
            })
            .collect();
        assert!(!same.is_empty(), "{label}: starved run dropped dependence {re:?}");
        for atom in re.dir_vecs.iter().flat_map(|rv| rv.atomic_decompositions()) {
            assert!(
                same.iter().any(|se| se.dir_vecs.iter().any(|sv| atom.subsumed_by(sv))),
                "{label}: starved run narrowed {re:?} to a wrong vector set (lost {atom})"
            );
        }
    }
}

/// Starvation is conservative, never wrong: against the exact full-budget
/// reference, a starved run (down to a zero-node budget) keeps every
/// dependence edge, and every reference direction vector stays covered.
#[test]
fn starved_refinements_degrade_conservatively() {
    for src in SOURCES {
        let reference = graph(src, 1_000_000);
        assert_eq!(
            reference.stats.verdict_stats().conservative_pairs,
            0,
            "reference run must be exact for this check to be meaningful"
        );
        for node_limit in [0u64, 8, 64] {
            let starved = graph(src, node_limit);
            assert_covers(&reference.edges, &starved.edges, &format!("limit={node_limit}"));
        }
    }
}

/// The same check on a mixed corpus under fault injection: every unit a
/// faulted batch still analyzes keeps every dependence of the clean run,
/// for any worker count. Injected budget faults starve decisions that
/// never store or replay solver state.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use delinearization::corpus::stream::generated_units;
    use delinearization::vic::batch::{
        BatchConfig, BatchJob, BatchRunner, BatchUnit, RetryPolicy, UnitOutcome, UnitReport,
    };
    use delinearization::vic::chaos::ChaosPlan;

    /// Small units, so few of them draw a pair panic: the generated nests
    /// and [`SOURCES`], whose refinements reach the exact solver. Retries
    /// are off, so a faulted attempt's degradation is what the report
    /// shows.
    fn reports(workers: usize, chaos: Option<ChaosPlan>) -> Vec<UnitReport> {
        let config = BatchConfig {
            workers,
            budget: BudgetSpec::nodes_only(1_000_000),
            retry: RetryPolicy { max_retries: 0, escalation: 1 },
            chaos,
            ..BatchConfig::default()
        };
        let sources = (0..4).flat_map(|copy| {
            SOURCES
                .iter()
                .enumerate()
                .map(move |(k, src)| BatchUnit::new(format!("src/{k}-{copy}"), *src))
        });
        let jobs = generated_units(24, 7)
            .chain(sources)
            .map(|unit| BatchJob { want_edges: true, ..BatchJob::from(unit) });
        BatchRunner::new(config).run_jobs(jobs, true, |_, _| {}).units
    }

    #[test]
    fn faulted_batches_degrade_conservatively() {
        let clean = reports(1, None);
        let mut faulted_units = 0;
        for workers in [1usize, 4] {
            for seed in [42u64, 7] {
                let plan = ChaosPlan { pair_rate: 100, ..ChaosPlan::new(seed) };
                let faulted = reports(workers, Some(plan));
                assert_eq!(faulted.len(), clean.len(), "seed={seed}: report truncated");
                for (got, want) in faulted.iter().zip(&clean) {
                    assert_eq!(got.name, want.name);
                    if got.outcome != UnitOutcome::Analyzed {
                        continue;
                    }
                    faulted_units += usize::from(got.stats.degraded_pairs > 0);
                    let label = format!("seed={seed} workers={workers} unit={}", got.name);
                    assert_covers(&want.dep_edges, &got.dep_edges, &label);
                }
            }
        }
        assert!(faulted_units > 0, "no analyzed unit degraded; the faults never fired");
    }
}
