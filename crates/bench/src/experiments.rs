//! The experiment implementations (E1–E9 of `DESIGN.md`).

use delin_core::algorithm::{delinearize, DelinConfig};
use delin_core::trace::render_trace;
use delin_core::DelinearizationTest;
use delin_corpus::census::census;
use delin_corpus::riceps::{all_benchmarks, generate, generate_scaled};
use delin_corpus::workload::{linearized_problem, scaling_problem, LinearizedSpec};
use delin_dep::acyclic::AcyclicTest;
use delin_dep::banerjee::BanerjeeTest;
use delin_dep::exact::{ExactSolver, SolveOutcome};
use delin_dep::fourier::FourierMotzkin;
use delin_dep::gcd::GcdTest;
use delin_dep::hierarchy;
use delin_dep::lambda::LambdaTest;
use delin_dep::problem::DependenceProblem;
use delin_dep::residue::LoopResidueTest;
use delin_dep::shostak::ShostakTest;
use delin_dep::siv::SivTest;
use delin_dep::svpc::SvpcTest;
use delin_dep::verdict::{DependenceTest, Verdict};
use delin_frontend::parse_program;
use delin_numeric::{Assumptions, SymPoly};
use delin_vic::deps::{
    build_dependence_graph, build_dependence_graph_with, concretize, pair_problem, DepKind,
    DepStats, EngineConfig, TestChoice,
};
use delin_vic::pipeline::{run_pipeline, PipelineConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The paper's motivating dependence problem:
/// `i1 + 10 j1 − i2 − 10 j2 − 5 = 0`, `i ∈ [0,4]`, `j ∈ [0,9]`.
pub fn motivating_problem() -> DependenceProblem<i128> {
    let mut b = DependenceProblem::<i128>::builder();
    let i1 = b.var("i1", 4);
    let j1 = b.var("j1", 9);
    let i2 = b.var("i2", 4);
    let j2 = b.var("j2", 9);
    b.common_pair(i1, i2).common_pair(j1, j2);
    b.equation(-5, vec![1, 10, -1, -10]);
    b.build()
}

/// The Fig. 5 trace equation:
/// `100k1 − 100k2 + 10j1 − 10i2 + i1 − j2 − 110 = 0`.
pub fn fig5_problem() -> DependenceProblem<i128> {
    // Variable order (i1, j1, k1, i2, j2, k2); i,k ∈ [0,8], j ∈ [0,9].
    DependenceProblem::single_equation(
        -110,
        vec![1, 10, 100, -10, -1, -100],
        vec![8, 9, 8, 8, 9, 8],
    )
}

/// E1 / Fig. 1: the RiCEPS census. `full_size` = generate at the reported
/// line counts (slower) vs a reduced size with identical nest counts.
pub fn fig1_rows(full_size: bool) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "Program".to_string(),
        "Type".to_string(),
        "Lines".to_string(),
        "Fig.1 nests".to_string(),
        "Measured".to_string(),
        "Match".to_string(),
    ]];
    for spec in all_benchmarks() {
        let src = if full_size { generate(&spec) } else { generate_scaled(&spec, 400) };
        let program = parse_program(&src).expect("corpus program parses");
        let result = census(&program, &Assumptions::new());
        rows.push(vec![
            spec.name.to_string(),
            spec.domain.to_string(),
            src.lines().count().to_string(),
            spec.expected.to_string(),
            result.linearized_nests.to_string(),
            if spec.expected.matches(result.linearized_nests) { "yes" } else { "NO" }.to_string(),
        ]);
    }
    rows
}

/// The Fig. 3 program (Allen–Kennedy 1987 example).
pub fn fig3_source() -> &'static str {
    "
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
    "
}

/// E2 / Fig. 3: the dependence table of the example program: every edge
/// with direction vectors and (exact) distance-direction vectors.
pub fn fig3_rows() -> Vec<Vec<String>> {
    let program = parse_program(fig3_source()).expect("fig3 parses");
    let assumptions = Assumptions::new();
    let graph = build_dependence_graph(&program, &assumptions, TestChoice::DelinearizationFirst);
    let mut rows = vec![vec![
        "Pair".to_string(),
        "Kind".to_string(),
        "Direction".to_string(),
        "Level".to_string(),
        "Distance-direction".to_string(),
    ]];
    // Recompute exact distance-direction vectors per pair for the table.
    let sites = delin_frontend::access::collect_accesses(&program, &assumptions);
    for e in &graph.edges {
        let dirs = e.dir_vecs.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ");
        // Find the sites of this edge to compute distances.
        let dist = sites
            .iter()
            .find(|s| s.stmt == e.src && s.array == e.array)
            .zip(sites.iter().find(|s| s.stmt == e.dst && s.array == e.array))
            .and_then(|(sa, sb)| {
                let p = pair_problem(sa, sb);
                let c = concretize(&p)?;
                let dd = hierarchy::distance_direction_vectors(&c, &ExactSolver::default());
                Some(dd.iter().map(ToString::to_string).collect::<Vec<_>>().join(" "))
            })
            .unwrap_or_else(|| "-".to_string());
        let kind = match e.kind {
            DepKind::True => "true",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        };
        rows.push(vec![
            format!("S{}:{} -> S{}:{}", e.src.0 + 1, e.array, e.dst.0 + 1, e.array),
            kind.to_string(),
            dirs,
            e.level.map_or("-".to_string(), |l| l.to_string()),
            dist,
        ]);
    }
    rows
}

/// E3 / Fig. 5: the delinearization algorithm trace on the paper's
/// six-variable equation.
pub fn fig5_trace_text() -> String {
    let config = DelinConfig { collect_trace: true, ..DelinConfig::default() };
    let out = delinearize(&fig5_problem(), 0, &config);
    let mut text = render_trace(&out.separation().trace);
    text.push_str(&format!(
        "\nseparated dimensions: {}\n",
        out.separation()
            .dimensions
            .iter()
            .map(|d| d.render(&fig5_problem()))
            .collect::<Vec<_>>()
            .join(" | ")
    ));
    text
}

/// E4: every implemented technique's verdict on the motivating problem.
pub fn technique_rows() -> Vec<Vec<String>> {
    let p = motivating_problem();
    let mut rows = vec![vec![
        "Technique".to_string(),
        "Verdict".to_string(),
        "Proves independence".to_string(),
    ]];
    let verdicts: Vec<(&'static str, Verdict)> = vec![
        ("gcd", GcdTest.test(&p)),
        ("banerjee", BanerjeeTest.test(&p)),
        ("siv (exact <=2 var)", SivTest.test(&p)),
        ("svpc", SvpcTest.test(&p)),
        ("acyclic", AcyclicTest.test(&p)),
        ("simple loop residue", LoopResidueTest.test(&p)),
        ("shostak", ShostakTest::default().test(&p)),
        ("lambda", LambdaTest.test(&p)),
        ("fourier-motzkin (real)", FourierMotzkin::real().test(&p)),
        ("fourier-motzkin + tightening", FourierMotzkin::tightened().test(&p)),
        ("delinearization", DependenceTest::<i128>::test(&DelinearizationTest::default(), &p)),
        ("exact solver (ground truth)", ExactSolver::default().test(&p)),
    ];
    for (name, v) in verdicts {
        rows.push(vec![
            name.to_string(),
            v.to_string(),
            if v.is_independent() { "yes" } else { "no" }.to_string(),
        ]);
    }
    rows
}

/// E5: the MHL91 distance-vector example — `A(10i+j) = A(10(i+2)+j)+7`,
/// where the paper says only delinearization finds the distance `(2, 0)`.
pub fn distance_rows() -> Vec<Vec<String>> {
    let mut b = DependenceProblem::<i128>::builder();
    let i1 = b.var("i1", 7);
    let j1 = b.var("j1", 9);
    let i2 = b.var("i2", 7);
    let j2 = b.var("j2", 9);
    b.common_pair(i1, i2).common_pair(j1, j2);
    b.equation(20, vec![10, 1, -10, -1]);
    let p = b.build();
    let mut rows = vec![vec![
        "Method".to_string(),
        "Direction vectors".to_string(),
        "Distance-direction vectors".to_string(),
    ]];
    // Banerjee hierarchy (the MHL91-era approach): directions only.
    let real = hierarchy::banerjee_oracle_real();
    let dirs = hierarchy::direction_vectors(&p, &real);
    rows.push(vec![
        "banerjee hierarchy (real)".to_string(),
        dirs.iter().map(ToString::to_string).collect::<Vec<_>>().join(" "),
        "(no distances)".to_string(),
    ]);
    // Delinearization: per-dimension exact distances.
    let v = DelinearizationTest::default().test_with_distances(&p);
    let (d, dd) = match v.info() {
        Some(info) => (
            info.dir_vecs.iter().map(ToString::to_string).collect::<Vec<_>>().join(" "),
            info.dist_dirs.iter().map(ToString::to_string).collect::<Vec<_>>().join(" "),
        ),
        None => ("independent".to_string(), "-".to_string()),
    };
    rows.push(vec!["delinearization".to_string(), d, dd]);
    rows
}

/// The Section 4 symbolic problem
/// (`A(N*N*k + N*j + i)` vs `A(N*N*k + j + N*i + N*N + N)`).
pub fn symbolic_problem() -> DependenceProblem<SymPoly> {
    let n = SymPoly::symbol("N");
    let n2 = n.checked_mul(&n).expect("N²");
    let nm1 = n.checked_sub(&SymPoly::one()).expect("N-1");
    let nm2 = n.checked_sub(&SymPoly::constant(2)).expect("N-2");
    let c0 = n2.checked_add(&n).and_then(|p| p.checked_neg()).expect("-(N²+N)");
    let mut b = DependenceProblem::<SymPoly>::builder();
    let i1 = b.var("i1", nm2.clone());
    let j1 = b.var("j1", nm1.clone());
    let k1 = b.var("k1", nm2.clone());
    let i2 = b.var("i2", nm2.clone());
    let j2 = b.var("j2", nm1);
    let k2 = b.var("k2", nm2);
    b.common_pair(i1, i2).common_pair(j1, j2).common_pair(k1, k2);
    b.equation(
        c0,
        vec![
            SymPoly::one(),
            n.clone(),
            n2.clone(),
            n.checked_neg().expect("-N"),
            SymPoly::constant(-1),
            n2.checked_neg().expect("-N²"),
        ],
    );
    let mut a = Assumptions::new();
    a.set_lower_bound("N", 2);
    b.assumptions(a);
    b.build()
}

/// E6: the symbolic delinearization trace (Section 4 example).
pub fn symbolic_trace_text() -> String {
    let p = symbolic_problem();
    let config = DelinConfig { collect_trace: true, ..DelinConfig::default() };
    let out = delinearize(&p, 0, &config);
    let mut text = render_trace(&out.separation().trace);
    text.push_str(&format!(
        "\nseparated dimensions: {}\n",
        out.separation().dimensions.iter().map(|d| d.render(&p)).collect::<Vec<_>>().join(" | ")
    ));
    let v = DependenceTest::<SymPoly>::test(&DelinearizationTest::default(), &p);
    text.push_str(&format!("symbolic verdict: {v}\n"));
    if let Some(info) = v.info() {
        text.push_str(&format!(
            "direction vectors: {}\n",
            info.dir_vecs.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
        ));
    }
    text
}

fn time_best_of<F: FnMut() -> bool>(mut f: F, reps: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let keep = f();
        let dt = t0.elapsed();
        std::hint::black_box(keep); // prevent the call from being optimized out
        best = best.min(dt);
    }
    best
}

/// E7: scaling of each technique as the number of loop variables grows;
/// returns `(n, technique, nanoseconds, verdict)` rows. The workload is
/// the motivating example generalized to `n` dimensions — always
/// independent, so every technique does its full work.
pub fn scaling_rows(max_loops: usize, reps: usize) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "loops (n vars = 2·loops)".to_string(),
        "technique".to_string(),
        "time (ns, best)".to_string(),
        "verdict".to_string(),
    ]];
    for loops in 1..=max_loops {
        let p = scaling_problem(loops, 10);
        let mut push = |name: &str, verdict: Verdict, t: Duration| {
            rows.push(vec![
                loops.to_string(),
                name.to_string(),
                t.as_nanos().to_string(),
                verdict.to_string(),
            ]);
        };
        let delin = DelinearizationTest::default();
        let t = time_best_of(|| delin.test(&p).is_independent(), reps);
        push("delinearization", delin.test(&p), t);
        let t = time_best_of(|| GcdTest.test(&p).is_independent(), reps);
        push("gcd", GcdTest.test(&p), t);
        let t = time_best_of(|| BanerjeeTest.test(&p).is_independent(), reps);
        push("banerjee", BanerjeeTest.test(&p), t);
        let fmt = FourierMotzkin::tightened();
        let t = time_best_of(|| fmt.test(&p).is_independent(), reps);
        push("fourier-motzkin+tighten", fmt.test(&p), t);
        let fmr = FourierMotzkin::real();
        let t = time_best_of(|| fmr.test(&p).is_independent(), reps);
        push("fourier-motzkin (real)", fmr.test(&p), t);
        if loops <= 6 {
            let ex = ExactSolver::default();
            let t = time_best_of(|| ex.test(&p).is_independent(), reps);
            push("exact solver", ex.test(&p), t);
        }
    }
    rows
}

/// E8: precision on the random linearized family: per technique, how many
/// of the truly-independent problems it proves independent (plus a
/// soundness column that must stay at zero).
pub fn precision_rows(samples: usize, seed: u64) -> Vec<Vec<String>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = LinearizedSpec::default();
    let solver = ExactSolver::default();
    let problems: Vec<(DependenceProblem<i128>, bool)> = (0..samples)
        .map(|_| {
            let p = linearized_problem(&mut rng, &spec);
            let independent = matches!(solver.solve(&p), SolveOutcome::NoSolution);
            (p, independent)
        })
        .collect();
    let total_independent = problems.iter().filter(|(_, ind)| *ind).count();

    type Technique = (&'static str, Box<dyn Fn(&DependenceProblem<i128>) -> Verdict>);
    let techniques: Vec<Technique> = vec![
        ("gcd", Box::new(|p| GcdTest.test(p))),
        ("banerjee", Box::new(|p| BanerjeeTest.test(p))),
        ("lambda", Box::new(|p| LambdaTest.test(p))),
        ("fourier-motzkin (real)", Box::new(|p| FourierMotzkin::real().test(p))),
        ("fourier-motzkin + tightening", Box::new(|p| FourierMotzkin::tightened().test(p))),
        (
            "delinearization",
            Box::new(|p| DependenceTest::<i128>::test(&DelinearizationTest::default(), p)),
        ),
    ];
    let mut rows = vec![vec![
        "technique".to_string(),
        format!("independents proven (of {total_independent})"),
        "rate %".to_string(),
        "unsound claims".to_string(),
    ]];
    for (name, test) in &techniques {
        let mut proven = 0usize;
        let mut unsound = 0usize;
        for (p, independent) in &problems {
            let v = test(p);
            if v.is_independent() {
                if *independent {
                    proven += 1;
                } else {
                    unsound += 1;
                }
            }
        }
        let rate = if total_independent > 0 {
            100.0 * proven as f64 / total_independent as f64
        } else {
            0.0
        };
        rows.push(vec![
            name.to_string(),
            proven.to_string(),
            format!("{rate:.1}"),
            unsound.to_string(),
        ]);
    }
    rows
}

/// Aggregate dependence-engine statistics over the synthetic RiCEPS corpus
/// under one engine configuration: cache hit/miss counts, executed test
/// attempts, exact-solver nodes, and wall-clock testing time.
///
/// `lines` is the per-program scaling target; `None` generates at the
/// paper's reported line counts.
pub fn corpus_engine_stats(lines: Option<usize>, config: &EngineConfig) -> DepStats {
    let mut total = DepStats::default();
    for spec in all_benchmarks() {
        let src = match lines {
            Some(n) => generate_scaled(&spec, n),
            None => generate(&spec),
        };
        let program = parse_program(&src).expect("corpus program parses");
        let assumptions =
            delin_frontend::affine::infer_bound_assumptions(&program, &Assumptions::new());
        let graph = build_dependence_graph_with(&program, &assumptions, config);
        total.merge(&graph.stats);
    }
    total
}

/// E9: end-to-end vectorization of the (scaled) corpus with and without
/// delinearization.
pub fn vectorizer_rows(lines: usize) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "Program".to_string(),
        "stmts".to_string(),
        "vectorized (delin)".to_string(),
        "vector dims (delin)".to_string(),
        "vectorized (battery)".to_string(),
        "vector dims (battery)".to_string(),
    ]];
    let config = |choice| PipelineConfig {
        engine: EngineConfig { choice, ..EngineConfig::default() },
        ..PipelineConfig::default()
    };
    for spec in all_benchmarks() {
        let src = generate_scaled(&spec, lines);
        let with = run_pipeline(&src, &config(TestChoice::DelinearizationFirst)).expect("pipeline");
        let without = run_pipeline(&src, &config(TestChoice::BatteryOnly)).expect("pipeline");
        rows.push(vec![
            spec.name.to_string(),
            with.vectorization.total_statements.to_string(),
            with.vectorization.vectorized_statements.to_string(),
            with.vectorization.vector_dimensions.to_string(),
            without.vectorization.vectorized_statements.to_string(),
            without.vectorization.vector_dimensions.to_string(),
        ]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_census_matches_paper() {
        let rows = fig1_rows(false);
        assert_eq!(rows.len(), 9);
        for row in &rows[1..] {
            assert_eq!(row[5], "yes", "{row:?}");
        }
    }

    #[test]
    fn fig3_has_the_papers_dependences() {
        let rows = fig3_rows();
        let body: Vec<String> = rows[1..].iter().map(|r| r.join(" | ")).collect();
        let all = body.join("\n");
        // S3:A -> S2:A with direction (*, <) and distance (*, 1).
        assert!(all.contains("S3:A -> S2:A"), "{all}");
        // S4:Y -> S1:Y with direction (<).
        assert!(all.contains("S4:Y -> S1:Y"), "{all}");
        // B dependences between S2 and S3.
        assert!(all.contains("S2:B -> S3:B"), "{all}");
    }

    #[test]
    fn fig5_trace_matches_paper_shape() {
        let text = fig5_trace_text();
        assert!(text.contains("inf"), "{text}");
        // The three separated equations of Fig. 5 (variables are z1..z6 in
        // the order i1, j1, k1, i2, j2, k2).
        assert!(text.contains("-z5 + z1 = 0"), "{text}");
        assert!(text.contains("-10*z4 + 10*z2 - 10 = 0"), "{text}");
        assert!(text.contains("-100*z6 + 100*z3 - 100 = 0"), "{text}");
    }

    #[test]
    fn technique_table_matches_papers_claims() {
        let rows = technique_rows();
        let get = |name: &str| -> &str {
            rows.iter().find(|r| r[0] == name).map(|r| r[2].as_str()).unwrap()
        };
        // Only delinearization, FM+tightening, and the exact solver prove
        // independence; everything the paper lists as failing fails.
        assert_eq!(get("gcd"), "no");
        assert_eq!(get("banerjee"), "no");
        assert_eq!(get("shostak"), "no");
        assert_eq!(get("simple loop residue"), "no");
        assert_eq!(get("svpc"), "no");
        assert_eq!(get("acyclic"), "no");
        assert_eq!(get("lambda"), "no");
        assert_eq!(get("fourier-motzkin (real)"), "no");
        assert_eq!(get("fourier-motzkin + tightening"), "yes");
        assert_eq!(get("delinearization"), "yes");
        assert_eq!(get("exact solver (ground truth)"), "yes");
    }

    #[test]
    fn distance_table_shows_2_0() {
        let rows = distance_rows();
        let delin = rows.iter().find(|r| r[0] == "delinearization").unwrap();
        assert_eq!(delin[2], "(2, 0)");
    }

    #[test]
    fn symbolic_trace_has_three_dimensions() {
        let text = symbolic_trace_text();
        assert!(text.contains("N^2"), "{text}");
        assert!(text.contains("separated dimensions"), "{text}");
        assert!(text.matches(" = 0").count() >= 3, "{text}");
        assert!(text.contains("maybe dependent"), "{text}");
    }

    #[test]
    fn scaling_row_shape() {
        let rows = scaling_rows(2, 3);
        assert!(rows.len() > 6);
        // Delinearization proves independence at every size.
        for r in rows[1..].iter().filter(|r| r[1] == "delinearization") {
            assert_eq!(r[3], "independent");
        }
        // Banerjee never does beyond one loop (its single-dimension range
        // check is sharp for loops=1 but real-valued for the coupled case).
        for r in rows[1..].iter().filter(|r| r[1] == "banerjee" && r[0] != "1") {
            assert_eq!(r[3], "maybe dependent");
        }
    }

    #[test]
    fn precision_sound_and_delin_dominates() {
        let rows = precision_rows(120, 11);
        let find = |name: &str| -> (usize, usize) {
            let r = rows.iter().find(|r| r[0] == name).unwrap();
            (r[1].parse().unwrap(), r[3].parse().unwrap())
        };
        let (delin, delin_unsound) = find("delinearization");
        let (banerjee, b_unsound) = find("banerjee");
        let (gcd, g_unsound) = find("gcd");
        assert_eq!(delin_unsound, 0);
        assert_eq!(b_unsound, 0);
        assert_eq!(g_unsound, 0);
        assert!(delin >= banerjee, "delin {delin} < banerjee {banerjee}");
        assert!(delin >= gcd);
        assert!(delin > 0);
    }

    #[test]
    fn vectorizer_rows_favor_delinearization() {
        let rows = vectorizer_rows(120);
        assert_eq!(rows.len(), 9);
        // On the linearized-heavy programs, delinearization vectorizes at
        // least as much as the battery, and strictly more somewhere.
        let mut strictly_more = 0;
        for r in &rows[1..] {
            let with: usize = r[2].parse().unwrap();
            let without: usize = r[4].parse().unwrap();
            assert!(with >= without, "{r:?}");
            if with > without {
                strictly_more += 1;
            }
        }
        assert!(strictly_more >= 2, "expected delinearization to win somewhere");
    }
}
