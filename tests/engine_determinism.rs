//! Determinism of the dependence-graph engine: caching on or off, and the
//! default entry point against an explicit configuration, must produce the
//! same graph. The engine tests its pairs on the calling thread (units are
//! the only unit of parallelism), so its test time is part of the build's
//! wall time.
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

fn graph_with(src: &str, cache: bool) -> DepGraph {
    let program = parse_program(src).expect("test program parses");
    let assumptions =
        delinearization::frontend::affine::infer_bound_assumptions(&program, &Assumptions::new());
    let config =
        EngineConfig { choice: TestChoice::DelinearizationFirst, cache, ..EngineConfig::default() };
    build_dependence_graph_with(&program, &assumptions, &config)
}

#[test]
fn fig3_cache_does_not_change_the_graph() {
    let cached = graph_with(FIG3, true);
    let uncached = graph_with(FIG3, false);
    assert!(!cached.edges.is_empty(), "fig3 must have dependences");
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

/// Pairs are tested one after another on the building thread, so the test
/// time a build reports is a share of that build's wall time, never a sum
/// over threads that could exceed it.
#[test]
fn riceps_test_time_fits_in_the_build_wall_time() {
    use delinearization::corpus::riceps::{all_benchmarks, generate_scaled};
    for spec in all_benchmarks() {
        let program = parse_program(&generate_scaled(&spec, 150)).expect("corpus program parses");
        let assumptions = delinearization::frontend::affine::infer_bound_assumptions(
            &program,
            &Assumptions::new(),
        );
        let started = std::time::Instant::now();
        let graph = build_dependence_graph_with(&program, &assumptions, &EngineConfig::default());
        let wall = started.elapsed().as_nanos();
        assert!(graph.stats.pairs_tested > 0, "{}: empty worklist", spec.name);
        assert!(
            graph.stats.test_nanos <= wall,
            "{}: {} ns of test time in a {wall} ns build",
            spec.name,
            graph.stats.test_nanos
        );
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
    let run = |cache| {
        let engine = EngineConfig { cache, ..EngineConfig::default() };
        run_pipeline(src, &PipelineConfig { engine, ..PipelineConfig::default() })
            .expect("pipeline")
    };
    let (cached, uncached) = (run(true), run(false));
    assert_eq!(
        cached.vectorization.vectorized_statements,
        uncached.vectorization.vectorized_statements
    );
    let (cached, uncached) = (&cached.graph.stats, &uncached.graph.stats);
    assert_eq!(cached.cache_hits + cached.cache_misses, cached.pairs_tested);
    assert_eq!(uncached.cache_hits + uncached.cache_misses, 0);
}
