//! Scheduling-independence of the dependence-graph engine: any worker
//! count, and caching on or off, must produce the same graph.
//!
//! Edges are compared exactly; statistics through
//! [`delinearization::vic::deps::DepStats::verdict_stats`], the subset
//! defined to be deterministic (wall-clock fields are excluded).

use delinearization::frontend::parse_program;
use delinearization::numeric::Assumptions;
use delinearization::vic::deps::{
    build_dependence_graph, build_dependence_graph_with, DepGraph, EngineConfig, TestChoice,
};

/// The Fig. 3 program (Allen–Kennedy 1987 example): a nest with true,
/// anti, and output dependences at several levels.
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

fn graph_with(src: &str, workers: usize, cache: bool) -> DepGraph {
    let program = parse_program(src).expect("test program parses");
    let assumptions =
        delinearization::frontend::affine::infer_bound_assumptions(&program, &Assumptions::new());
    let config = EngineConfig {
        choice: TestChoice::DelinearizationFirst,
        workers,
        cache,
        ..EngineConfig::default()
    };
    build_dependence_graph_with(&program, &assumptions, &config)
}

fn assert_same_graph(a: &DepGraph, b: &DepGraph, what: &str) {
    assert_eq!(a.stmts, b.stmts, "{what}: statement lists differ");
    assert_eq!(a.edges, b.edges, "{what}: edges differ");
    assert_eq!(
        a.stats.verdict_stats(),
        b.stats.verdict_stats(),
        "{what}: deterministic stats differ"
    );
}

#[test]
fn fig3_parallel_matches_serial() {
    let serial = graph_with(FIG3, 1, true);
    for workers in [2, 4, 7] {
        let parallel = graph_with(FIG3, workers, true);
        assert_same_graph(&serial, &parallel, &format!("fig3 workers={workers}"));
    }
    assert!(!serial.edges.is_empty(), "fig3 must have dependences");
}

#[test]
fn fig3_cache_does_not_change_the_graph() {
    let cached = graph_with(FIG3, 1, true);
    let uncached = graph_with(FIG3, 1, false);
    assert_eq!(cached.edges, uncached.edges);
    assert_eq!(cached.stats.pairs_tested, uncached.stats.pairs_tested);
    assert_eq!(cached.stats.proven_independent, uncached.stats.proven_independent);
    assert_eq!(cached.stats.conservative_pairs, uncached.stats.conservative_pairs);
    // The uncached run reports no cache traffic at all.
    assert_eq!(uncached.stats.cache_hits, 0);
    assert_eq!(uncached.stats.cache_misses, 0);
    // The cached run accounts every pair as exactly one hit or miss.
    assert_eq!(cached.stats.cache_hits + cached.stats.cache_misses, cached.stats.pairs_tested);
}

#[test]
fn riceps_corpus_parallel_matches_serial() {
    use delinearization::corpus::riceps::{all_benchmarks, generate_scaled};
    for spec in all_benchmarks() {
        let src = generate_scaled(&spec, 150);
        let serial = graph_with(&src, 1, true);
        let parallel = graph_with(&src, 4, true);
        assert_same_graph(&serial, &parallel, spec.name);
        // Cache hit/miss counts are part of verdict_stats, so the above
        // already proves they are scheduling-independent; spot-check that
        // the corpus actually exercises the cache.
        assert!(serial.stats.pairs_tested > 0, "{}: empty worklist", spec.name);
    }
}

#[test]
fn default_entry_point_equals_explicit_default_config() {
    let program = parse_program(FIG3).expect("fig3 parses");
    let assumptions = Assumptions::new();
    let a = build_dependence_graph(&program, &assumptions, TestChoice::DelinearizationFirst);
    let b = build_dependence_graph_with(&program, &assumptions, &EngineConfig::default());
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.stats.verdict_stats(), b.stats.verdict_stats());
}

#[test]
fn pipeline_knobs_reach_the_engine() {
    use delinearization::vic::pipeline::{run_pipeline, PipelineConfig};
    let src = "
        REAL C(0:99)
        DO 1 i = 0, 4
        DO 1 j = 0, 9
    1   C(i + 10*j) = C(i + 10*j + 5)
        END
    ";
    let run = |workers, cache| {
        let engine = EngineConfig { workers, cache, ..EngineConfig::default() };
        run_pipeline(src, &PipelineConfig { engine, ..PipelineConfig::default() })
            .expect("pipeline")
    };
    let (cached, uncached) = (run(2, true), run(1, false));
    assert_eq!(
        cached.vectorization.vectorized_statements,
        uncached.vectorization.vectorized_statements
    );
    let (cached, uncached) = (&cached.graph.stats, &uncached.graph.stats);
    assert_eq!(cached.cache_hits + cached.cache_misses, cached.pairs_tested);
    assert_eq!(uncached.cache_hits + uncached.cache_misses, 0);
}
