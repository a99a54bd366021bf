//! Every dependence technique at the `i128` boundary.
//!
//! The sweep covers all 3,087 two-variable problems
//! `c0 + a1·z1 + a2·z2 = 0` with `c0, a1, a2` in {MIN, MIN+1, −1, 0, 1,
//! MAX−1, MAX} and `z1, z2 ∈ [0, u]` for `u` in {0, 1, MAX}. Each of the
//! eleven techniques must return on each one (a debug build checks every
//! arithmetic overflow, so a wrapping product panics here), and none may
//! claim independence where brute force finds a solution: the boxes with
//! both bounds at most 1 have at most four points. Overflow has to degrade
//! to a conservative answer, never a wrong one.
//!
//! The exact solver and delinearization run under a small node budget, so
//! a box of `MAX²` points costs a bounded search.

use delinearization::core::DelinearizationTest;
use delinearization::dep::acyclic::AcyclicTest;
use delinearization::dep::banerjee::BanerjeeTest;
use delinearization::dep::budget::ResourceBudget;
use delinearization::dep::exact::ExactSolver;
use delinearization::dep::fourier::FourierMotzkin;
use delinearization::dep::gcd::GcdTest;
use delinearization::dep::problem::DependenceProblem;
use delinearization::dep::residue::LoopResidueTest;
use delinearization::dep::shostak::ShostakTest;
use delinearization::dep::siv::SivTest;
use delinearization::dep::svpc::SvpcTest;
use delinearization::dep::verdict::{DependenceTest, Verdict};
use std::panic::{catch_unwind, AssertUnwindSafe};

const VALUES: [i128; 7] = [i128::MIN, i128::MIN + 1, -1, 0, 1, i128::MAX - 1, i128::MAX];
const BOUNDS: [i128; 3] = [0, 1, i128::MAX];

/// Node budget of the two searching techniques per problem.
const NODES: u64 = 2_000;

/// A point of the box solving the problem, when the box has at most four
/// points; `None` for larger boxes.
fn brute_force(p: &DependenceProblem<i128>) -> Option<Option<[i128; 2]>> {
    let (u1, u2) = (p.vars()[0].upper, p.vars()[1].upper);
    if u1 > 1 || u2 > 1 {
        return None;
    }
    for z1 in 0..=u1 {
        for z2 in 0..=u2 {
            if p.is_solution(&[z1, z2]).expect("two values for two variables") {
                return Some(Some([z1, z2]));
            }
        }
    }
    Some(None)
}

fn techniques() -> Vec<(&'static str, Box<dyn DependenceTest<i128>>)> {
    let budget = || ResourceBudget::with_node_limit(NODES);
    vec![
        ("gcd", Box::new(GcdTest)),
        ("banerjee", Box::new(BanerjeeTest)),
        ("siv", Box::new(SivTest)),
        ("svpc", Box::new(SvpcTest)),
        ("acyclic", Box::new(AcyclicTest)),
        ("loop-residue", Box::new(LoopResidueTest)),
        ("shostak", Box::new(ShostakTest::default())),
        ("fm-real", Box::new(FourierMotzkin::real())),
        ("fm-tight", Box::new(FourierMotzkin::tightened())),
        ("exact", Box::new(ExactSolver::with_budget(budget()))),
        ("delin", Box::new(DelinearizationTest::with_budget(budget()))),
    ]
}

#[test]
fn no_technique_panics_or_lies_at_the_i128_boundary() {
    let techniques = techniques();
    let mut problems = 0usize;
    let mut failures: Vec<String> = Vec::new();
    // Panics are collected below; keep the default hook's backtraces out of
    // the output.
    std::panic::set_hook(Box::new(|_| {}));
    for c0 in VALUES {
        for a1 in VALUES {
            for a2 in VALUES {
                for u1 in BOUNDS {
                    for u2 in BOUNDS {
                        let p = DependenceProblem::single_equation(c0, vec![a1, a2], vec![u1, u2]);
                        problems += 1;
                        let truth = brute_force(&p);
                        for (name, test) in &techniques {
                            let verdict = catch_unwind(AssertUnwindSafe(|| test.test(&p)));
                            match (verdict, truth) {
                                (Err(_), _) => failures.push(format!("{name} panics on {p}")),
                                (Ok(v), Some(Some(point))) if v.is_independent() => failures.push(
                                    format!("{name} claims independence but {point:?} solves {p}"),
                                ),
                                (Ok(Verdict::Dependent { exact: true, .. }), Some(None)) => {
                                    failures.push(format!(
                                        "{name} claims an exact dependence on the unsolvable {p}"
                                    ))
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
    let _ = std::panic::take_hook();
    assert_eq!(problems, 3087);
    let per_technique: Vec<String> = techniques
        .iter()
        .map(|(name, _)| (name, failures.iter().filter(|f| f.starts_with(name)).count()))
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| format!("{name}: {n}"))
        .collect();
    assert!(
        failures.is_empty(),
        "{} failures over {problems} problems ({}), first ones:\n{}",
        failures.len(),
        per_technique.join(", "),
        failures.iter().take(20).cloned().collect::<Vec<_>>().join("\n")
    );
}
