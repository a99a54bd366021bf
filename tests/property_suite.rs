//! Cross-crate property tests: soundness and structural invariants that
//! must hold on randomized inputs, checked through the facade crate.

use delinearization::core::algorithm::{delinearize, DelinConfig, DelinOutcome};
use delinearization::core::DelinearizationTest;
use delinearization::dep::acyclic::AcyclicTest;
use delinearization::dep::banerjee::BanerjeeTest;
use delinearization::dep::dirvec::{summarize, Dir, DirVec};
use delinearization::dep::exact::{ExactSolver, SolveOutcome};
use delinearization::dep::fourier::FourierMotzkin;
use delinearization::dep::gcd::GcdTest;
use delinearization::dep::hierarchy;
use delinearization::dep::problem::DependenceProblem;
use delinearization::dep::residue::LoopResidueTest;
use delinearization::dep::shostak::ShostakTest;
use delinearization::dep::siv::SivTest;
use delinearization::dep::svpc::SvpcTest;
use delinearization::dep::verdict::{DependenceTest, Verdict};
use proptest::prelude::*;

/// A random two-loop linearized problem with mirrored strides.
fn arb_linearized() -> impl Strategy<Value = DependenceProblem<i128>> {
    (
        1i128..=6,    // inner extent-ish bound
        1i128..=8,    // outer bound
        2i128..=14,   // stride
        -40i128..=40, // offset
        -3i128..=3,   // inner coefficient scale
    )
        .prop_map(|(bi, bj, stride, off, ci)| {
            let ci = if ci == 0 { 1 } else { ci };
            DependenceProblem::single_equation(
                off,
                vec![ci, stride, -ci, -stride],
                vec![bi, bj, bi, bj],
            )
        })
}

proptest! {
    /// No test may contradict the exact solver.
    #[test]
    fn all_tests_sound(p in arb_linearized()) {
        type NamedTest<'a> = (&'a str, Box<dyn Fn() -> delinearization::dep::Verdict + 'a>);
        let truth = ExactSolver::default().solve(&p);
        let tests: Vec<NamedTest> = vec![
            ("delin", Box::new(|| DependenceTest::<i128>::test(&DelinearizationTest::default(), &p))),
            ("gcd", Box::new(|| GcdTest.test(&p))),
            ("banerjee", Box::new(|| BanerjeeTest.test(&p))),
            ("fm-real", Box::new(|| FourierMotzkin::real().test(&p))),
            ("fm-tight", Box::new(|| FourierMotzkin::tightened().test(&p))),
        ];
        for (name, t) in tests {
            let v = t();
            if let SolveOutcome::Solution(_) = truth {
                prop_assert!(!v.is_independent(), "{name} unsound on {p}");
            }
        }
    }

    /// Any two techniques that both *decide* a problem never contradict:
    /// no technique may prove independence while another proves an exact
    /// (witnessed) dependence on the same problem.
    #[test]
    fn deciding_techniques_never_contradict(p in arb_linearized()) {
        let verdicts: Vec<(&str, Verdict)> = vec![
            ("gcd", GcdTest.test(&p)),
            ("banerjee", BanerjeeTest.test(&p)),
            ("siv", SivTest.test(&p)),
            ("svpc", SvpcTest.test(&p)),
            ("acyclic", AcyclicTest.test(&p)),
            ("loop-residue", LoopResidueTest.test(&p)),
            ("shostak", ShostakTest::default().test(&p)),
            ("fm-real", FourierMotzkin::real().test(&p)),
            ("fm-tight", FourierMotzkin::tightened().test(&p)),
            ("exact", ExactSolver::default().test(&p)),
            ("delin", DependenceTest::<i128>::test(&DelinearizationTest::default(), &p)),
        ];
        for (indep_name, a) in &verdicts {
            if !a.is_independent() {
                continue;
            }
            for (dep_name, b) in &verdicts {
                prop_assert!(
                    !matches!(b, Verdict::Dependent { exact: true, .. }),
                    "{indep_name} proves independence but {dep_name} \
                     proves dependence on {p}"
                );
            }
        }
    }

    /// The direction-vector hierarchy is never weaker than its strongest
    /// constituent: if *any* technique proves independence, the
    /// exact-oracle refinement must find no direction vectors at all; and
    /// every direction the exact oracle confirms with a witness survives
    /// the conservative Banerjee-oracle refinement too.
    #[test]
    fn hierarchy_never_weaker_than_constituents(p in arb_linearized()) {
        let exact_atoms =
            hierarchy::atomic_direction_vectors(&p, &hierarchy::exact_oracle(ExactSolver::default()));
        let any_independent = [
            GcdTest.test(&p),
            BanerjeeTest.test(&p),
            SivTest.test(&p),
            SvpcTest.test(&p),
            AcyclicTest.test(&p),
            LoopResidueTest.test(&p),
            ShostakTest::default().test(&p),
            FourierMotzkin::real().test(&p),
            FourierMotzkin::tightened().test(&p),
            DependenceTest::<i128>::test(&DelinearizationTest::default(), &p),
        ]
        .iter()
        .any(Verdict::is_independent);
        if any_independent {
            prop_assert!(
                exact_atoms.is_empty(),
                "a constituent proves independence but the hierarchy keeps {exact_atoms:?} on {p}"
            );
        }
        let banerjee_atoms =
            hierarchy::atomic_direction_vectors(&p, &hierarchy::banerjee_oracle());
        let solver = ExactSolver::default();
        for atom in &exact_atoms {
            // Only atoms with a genuine integer witness must survive the
            // conservative oracle; budget-limited "maybe" atoms need not.
            let confirmed = p
                .with_directions(&atom.0)
                .map(|constrained| solver.solve(&constrained).is_solution())
                .unwrap_or(false);
            if confirmed {
                prop_assert!(
                    banerjee_atoms.contains(atom),
                    "witnessed direction {atom:?} missing from the Banerjee refinement on {p}"
                );
            }
        }
    }

    /// Delinearization's separation preserves feasibility in both
    /// directions: the problem is feasible iff every separated dimension is.
    #[test]
    fn separation_preserves_feasibility(p in arb_linearized()) {
        let solver = ExactSolver::default();
        let truth = solver.solve(&p).is_solution();
        match delinearize(&p, 0, &DelinConfig::default()) {
            DelinOutcome::Independent { .. } => prop_assert!(!truth),
            DelinOutcome::Separated { separation } => {
                let mut all_dims_feasible = true;
                for dim in &separation.dimensions {
                    let (sub, _) =
                        delinearization::core::algorithm::dimension_subproblem(&p, dim);
                    if !solver.solve(&sub).is_solution() {
                        all_dims_feasible = false;
                    }
                }
                prop_assert_eq!(all_dims_feasible, truth, "{}", p);
            }
        }
    }

    /// Summarization of direction vectors never changes the atomic set.
    #[test]
    fn summarize_is_lossless(
        atoms in prop::collection::vec(
            prop::collection::vec(0usize..3, 2),
            1..6,
        )
    ) {
        let vecs: Vec<DirVec> = atoms
            .iter()
            .map(|v| DirVec(v.iter().map(|&d| [Dir::Lt, Dir::Eq, Dir::Gt][d]).collect()))
            .collect();
        let mut before: Vec<DirVec> =
            vecs.iter().flat_map(|v| v.atomic_decompositions()).collect();
        before.sort();
        before.dedup();
        let out = summarize(vecs);
        let mut after: Vec<DirVec> =
            out.iter().flat_map(|v| v.atomic_decompositions()).collect();
        after.sort();
        after.dedup();
        prop_assert_eq!(before, after);
    }

    /// The exact solver agrees with brute force on small boxes.
    #[test]
    fn exact_matches_brute_force(
        c0 in -20i128..=20,
        a in -6i128..=6,
        b in -6i128..=6,
        c in -6i128..=6,
        ua in 0i128..=4,
        ub in 0i128..=4,
        uc in 0i128..=4,
    ) {
        let p = DependenceProblem::single_equation(
            c0,
            vec![a, b, c],
            vec![ua, ub, uc],
        );
        let got = ExactSolver::default().solve(&p).is_solution();
        let mut brute = false;
        for x in 0..=ua {
            for y in 0..=ub {
                for z in 0..=uc {
                    if c0 + a * x + b * y + c * z == 0 {
                        brute = true;
                    }
                }
            }
        }
        prop_assert_eq!(got, brute);
    }

    /// Parser/printer round-trip: printing a parsed program and re-parsing
    /// yields the same printed form (idempotence).
    #[test]
    fn pretty_print_roundtrip(seed in 0u64..500) {
        use delinearization::frontend::{parse_program, pretty::program_to_string};
        // Small deterministic program family.
        let stride = 2 + (seed % 17) as i128;
        let off = (seed % 7) as i128;
        let src = format!(
            "REAL A(0:199)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n1 A(i + {stride}*j) = A(i + {stride}*j + {off})\nEND\n"
        );
        let p1 = parse_program(&src).unwrap();
        let text1 = program_to_string(&p1);
        let p2 = parse_program(&text1).unwrap();
        let text2 = program_to_string(&p2);
        prop_assert_eq!(text1, text2);
    }
}

proptest! {
    /// The verdict cache is an optimization, never a semantics change:
    /// cache-enabled and cache-disabled engine runs agree on the emitted
    /// edges and the scheduling-independent verdict counts, on a random
    /// family of two-loop programs with repeated subscript shapes (the
    /// repetition makes the cache actually hit).
    #[test]
    fn verdict_cache_preserves_the_graph(
        stride in 2i128..=14,
        off in 0i128..=9,
        ci in 1i128..=3,
        reps in 1usize..=3,
    ) {
        use delinearization::frontend::parse_program;
        use delinearization::numeric::Assumptions;
        use delinearization::vic::deps::{
            build_dependence_graph_with, EngineConfig, TestChoice,
        };
        let stmt = format!("A({ci}*i + {stride}*j) = A({ci}*i + {stride}*j + {off}) + B(i)");
        let mut lines = vec![format!("  {stmt}"); reps - 1];
        lines.push(format!("1   {stmt}")); // the labeled loop-end statement
        let body = lines.join("\n");
        let src = format!(
            "REAL A(0:399), B(0:9)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n{body}\nEND\n"
        );
        let program = parse_program(&src).unwrap();
        let assumptions = Assumptions::new();
        let run = |cache: bool| {
            let config = EngineConfig {
                choice: TestChoice::DelinearizationFirst,
                cache,
                ..EngineConfig::default()
            };
            build_dependence_graph_with(&program, &assumptions, &config)
        };
        let with = run(true);
        let without = run(false);
        prop_assert_eq!(&with.edges, &without.edges);
        prop_assert_eq!(with.stats.pairs_tested, without.stats.pairs_tested);
        prop_assert_eq!(with.stats.proven_independent, without.stats.proven_independent);
        prop_assert_eq!(with.stats.conservative_pairs, without.stats.conservative_pairs);
        // Every pair goes through the cache when it is enabled.
        prop_assert_eq!(
            with.stats.cache_hits + with.stats.cache_misses,
            with.stats.pairs_tested
        );
    }
}

/// The delinearization theorem end-to-end: on the whole random family the
/// test agrees with ground truth whenever it answers definitely.
#[test]
fn delinearization_never_lies_on_corpus_workload() {
    use delinearization::corpus::workload::{linearized_problem, LinearizedSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(20260704);
    let spec = LinearizedSpec::default();
    let solver = ExactSolver::default();
    let t = DelinearizationTest::default();
    for _ in 0..500 {
        let p = linearized_problem(&mut rng, &spec);
        let truth = solver.solve(&p);
        let got = t.test(&p);
        match truth {
            SolveOutcome::Solution(_) => assert!(got.is_dependent(), "unsound on {p}"),
            SolveOutcome::NoSolution => {
                assert!(got.is_independent(), "missed independence on {p}")
            }
            SolveOutcome::Degraded(_) => {}
        }
    }
}
