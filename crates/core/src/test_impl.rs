//! [`DelinearizationTest`]: the algorithm as a pluggable dependence test.
//!
//! Each equation of the dependence system is delinearized; independence
//! discovered on the fly (GCD / per-dimension Banerjee) or via an
//! unsatisfiable dimension ends the analysis immediately. Otherwise the
//! per-dimension direction-vector sets are combined with the paper's
//! `dv ⊓ nv` rule, intersected across equations, and summarized. For
//! concrete problems the per-dimension equations are solved *exactly*
//! (they are small — that is the point of delinearization).
//!
//! [`DependenceTest::test`] returns direction vectors only: no edge,
//! report or codegen step reads distances. The sharper distance-direction
//! vectors the paper advertises over MHL91 — constant distances extracted
//! per dimension — come from the explicit
//! [`DelinearizationTest::test_with_distances`].

use crate::algorithm::{
    combine_direction_vectors, delinearize, dimension_direction_vectors, dimension_subproblem,
    DelinConfig, DelinOutcome,
};
use delin_dep::banerjee::DirectionMode;
use delin_dep::budget::ResourceBudget;
use delin_dep::dirvec::{summarize, Dir, DirVec, DistDir, DistDirVec};
use delin_dep::exact::{ExactSolver, SubtreeStore};
use delin_dep::gcd::equation_divisible;
use delin_dep::hierarchy;
use delin_dep::problem::{CoeffRow, DependenceProblem, LinEq};
use delin_dep::verdict::{DependenceInfo, DependenceTest, Verdict};
use delin_numeric::{Coeff, SymPoly};

/// The delinearization dependence test.
#[derive(Debug, Clone, Default)]
pub struct DelinearizationTest {
    /// Algorithm configuration.
    pub config: DelinConfig,
}

impl DelinearizationTest {
    /// A test with the given per-dimension solver budget.
    pub fn with_node_limit(limit: u64) -> DelinearizationTest {
        DelinearizationTest {
            config: DelinConfig { dimension_node_limit: limit, ..DelinConfig::default() },
        }
    }

    /// A test whose per-dimension solvers run under `budget` (node limit,
    /// deadline, and cancellation; exhaustion degrades the verdict to a
    /// conservative, never-exact answer and records the reason in the
    /// budget's trip flag).
    pub fn with_budget(budget: ResourceBudget) -> DelinearizationTest {
        DelinearizationTest {
            config: DelinConfig {
                dimension_node_limit: budget.node_limit(),
                budget: Some(budget),
                ..DelinConfig::default()
            },
        }
    }
}

/// Generic core shared by the concrete and symbolic instantiations;
/// `walk` computes each dimension sub-problem's atomic direction vectors.
fn run<C: Coeff>(
    test: &DelinearizationTest,
    problem: &DependenceProblem<C>,
    walk: &hierarchy::AtomicWalk<'_, C>,
    oracle_is_exact: bool,
) -> Verdict {
    let num_levels = problem.common_loops().len();
    let mut acc: Vec<DirVec> = vec![DirVec::any(num_levels)];
    let mut any_inexact = false;
    for eq_index in 0..problem.equations().len() {
        match delinearize(problem, eq_index, &test.config) {
            DelinOutcome::Independent { .. } => return Verdict::Independent,
            DelinOutcome::Separated { separation } => {
                let mut per_dim = Vec::new();
                for dim in &separation.dimensions {
                    // Per-dimension GCD test (sharp for symbolic dims too).
                    let sub_eq = LinEq {
                        c0: dim.constant.clone(),
                        coeffs: {
                            let mut v: CoeffRow<C> = CoeffRow::zeroed(problem.num_vars());
                            for (var, c) in &dim.terms {
                                v[*var] = c.clone();
                            }
                            v
                        },
                    };
                    if equation_divisible(&sub_eq, problem.assumptions()).is_false() {
                        return Verdict::Independent;
                    }
                    match dimension_direction_vectors(problem, dim, walk) {
                        None => return Verdict::Independent,
                        Some(nv) => per_dim.push(nv),
                    }
                }
                match combine_direction_vectors(num_levels, &per_dim) {
                    None => return Verdict::Independent,
                    Some(dvs) => {
                        let mut next = Vec::new();
                        for a in &acc {
                            for d in &dvs {
                                if let Some(m) = a.meet(d) {
                                    next.push(m);
                                }
                            }
                        }
                        next.sort();
                        next.dedup();
                        if next.is_empty() {
                            return Verdict::Independent;
                        }
                        acc = next;
                    }
                }
            }
        }
        any_inexact = any_inexact || !problem.inequalities().is_empty();
    }
    // Exactness: a single equation whose dimensions were each verified
    // feasible by an *exact* oracle factors into a genuinely feasible
    // product (the theorem); multiple equations, extra constraints, or a
    // real-valued (symbolic) oracle are only conservative.
    let exact =
        oracle_is_exact && problem.equations().len() == 1 && problem.inequalities().is_empty();
    Verdict::Dependent {
        exact: exact && !any_inexact,
        info: DependenceInfo { dir_vecs: summarize(acc), dist_dirs: Vec::new(), witness: None },
    }
}

impl DependenceTest<i128> for DelinearizationTest {
    fn name(&self) -> &'static str {
        "delinearization"
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        self.decide_concrete(problem, false)
    }
}

impl DelinearizationTest {
    /// [`DependenceTest::test`] on a concrete problem, with a dependent
    /// verdict enriched by distance-direction vectors (`info.dist_dirs`):
    /// per-dimension constant distances, combined across dimensions and
    /// equations with the meet rule. The verdict and its direction vectors
    /// are those `test` returns. The distance phase spends the same solver
    /// budget, so a budget that trips only there still drops the `exact`
    /// flag.
    pub fn test_with_distances(&self, problem: &DependenceProblem<i128>) -> Verdict {
        self.decide_concrete(problem, true)
    }

    fn decide_concrete(&self, problem: &DependenceProblem<i128>, distances: bool) -> Verdict {
        let budget =
            self.config.budget.clone().unwrap_or_else(|| {
                ResourceBudget::with_node_limit(self.config.dimension_node_limit)
            });
        let solver = ExactSolver::with_budget(budget.clone());
        // One subtree store spans the whole decision: the distance
        // extraction queries the same per-dimension subproblems as the
        // hierarchy walk, so its witness solves replay the walk's leaf
        // proofs instead of re-enumerating. A caller (the verdict cache)
        // may hand in a longer-lived store instead, so repeated decisions
        // of one canonical problem share subtrees too.
        let owned;
        let store: &SubtreeStore = match &self.config.solve_store {
            Some(shared) if self.config.incremental => shared,
            _ => {
                owned = if self.config.incremental {
                    SubtreeStore::new()
                } else {
                    SubtreeStore::disabled()
                };
                &owned
            }
        };
        let oracle = hierarchy::exact_oracle_in(solver.clone(), store);
        let walk =
            |sub: &DependenceProblem<i128>| hierarchy::atomic_direction_vectors(sub, &oracle);
        let mut verdict = run(self, problem, &walk, true);
        if distances {
            if let Verdict::Dependent { info, .. } = &mut verdict {
                info.dist_dirs = distance_vectors(self, problem, &solver, store);
            }
        }
        // A budget-degraded run keeps only conservative claims: the
        // surviving direction vectors are a superset of the truth, but an
        // "exact" flag would be a proof claim the exhausted oracle cannot
        // back.
        if budget.tripped().is_some() {
            if let Verdict::Dependent { exact, .. } = &mut verdict {
                *exact = false;
            }
        }
        verdict
    }
}

impl DependenceTest<SymPoly> for DelinearizationTest {
    fn name(&self) -> &'static str {
        "delinearization-symbolic"
    }

    /// Each dimension's sub-problem is walked under the Banerjee bounds,
    /// one [`delin_dep::banerjee::BanerjeeWalk`] per sub-problem.
    fn test(&self, problem: &DependenceProblem<SymPoly>) -> Verdict {
        let walk = |sub: &DependenceProblem<SymPoly>| {
            hierarchy::banerjee_atomic_vectors(sub, DirectionMode::IntegerSharp)
        };
        run(self, problem, &walk, false)
    }
}

/// Distance-direction vectors via per-dimension exact analysis, combined
/// across dimensions and equations with the meet rule.
fn distance_vectors(
    test: &DelinearizationTest,
    problem: &DependenceProblem<i128>,
    solver: &ExactSolver,
    store: &SubtreeStore,
) -> Vec<DistDirVec> {
    let num_levels = problem.common_loops().len();
    if num_levels == 0 {
        return Vec::new();
    }
    let mut acc: Vec<DistDirVec> = vec![DistDirVec(vec![DistDir::Dir(Dir::Any); num_levels])];
    for eq_index in 0..problem.equations().len() {
        let DelinOutcome::Separated { separation } = delinearize(problem, eq_index, &test.config)
        else {
            return Vec::new();
        };
        for dim in &separation.dimensions {
            let (sub, levels) = dimension_subproblem(problem, dim);
            if levels.is_empty() {
                continue;
            }
            let sub_dists = hierarchy::distance_direction_vectors_in(&sub, solver, store);
            if sub_dists.is_empty() {
                return Vec::new();
            }
            // Expand each to full length.
            let expanded: Vec<DistDirVec> = sub_dists
                .into_iter()
                .map(|dv| {
                    let mut full = vec![DistDir::Dir(Dir::Any); num_levels];
                    for (sub_level, &orig) in levels.iter().enumerate() {
                        full[orig] = dv.0[sub_level];
                    }
                    DistDirVec(full)
                })
                .collect();
            let mut next = Vec::new();
            for a in &acc {
                for b in &expanded {
                    if let Some(m) = meet_dist_vec(a, b) {
                        next.push(m);
                    }
                }
            }
            next.dedup();
            if next.is_empty() {
                return Vec::new();
            }
            acc = next;
        }
    }
    hierarchy::summarize_dist_dirs(acc)
}

fn meet_dist_vec(a: &DistDirVec, b: &DistDirVec) -> Option<DistDirVec> {
    let mut out = Vec::with_capacity(a.0.len());
    for (x, y) in a.0.iter().zip(&b.0) {
        out.push(meet_dist(x, y)?);
    }
    Some(DistDirVec(out))
}

fn meet_dist(a: &DistDir, b: &DistDir) -> Option<DistDir> {
    match (a, b) {
        (DistDir::Dist(x), DistDir::Dist(y)) => (x == y).then_some(DistDir::Dist(*x)),
        (DistDir::Dist(x), DistDir::Dir(d)) | (DistDir::Dir(d), DistDir::Dist(x)) => {
            DistDir::Dist(*x).dir().meet(*d).map(|_| DistDir::Dist(*x))
        }
        (DistDir::Dir(d1), DistDir::Dir(d2)) => d1.meet(*d2).map(DistDir::Dir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_dep::banerjee::BanerjeeTest;
    use delin_dep::exact::SolveOutcome;
    use delin_dep::fourier::FourierMotzkin;
    use delin_dep::gcd::GcdTest;

    fn motivating() -> DependenceProblem<i128> {
        DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9])
    }

    /// `A(i + 5j) = A(i + 5j + 2)`, `j` in `0..=3`, `i` in `0..=7`: the rows
    /// overlap, so delinearization cannot separate them and the direction
    /// walk itself needs the exact solver.
    fn overlapping() -> DependenceProblem<i128> {
        let mut b = DependenceProblem::<i128>::builder();
        let j1 = b.var("j1", 3);
        let i1 = b.var("i1", 7);
        let j2 = b.var("j2", 3);
        let i2 = b.var("i2", 7);
        b.common_pair(j1, j2).common_pair(i1, i2);
        b.equation(-2, vec![5, 1, -5, -1]);
        b.build()
    }

    #[test]
    fn headline_comparison() {
        // The motivating example: delinearization proves independence where
        // GCD, Banerjee, and real FM cannot (the paper's Table-of-intent).
        let p = motivating();
        assert!(DelinearizationTest::default().test(&p).is_independent());
        assert!(GcdTest.test(&p).is_dependent());
        assert!(BanerjeeTest.test(&p).is_dependent());
        assert!(FourierMotzkin::real().test(&p).is_dependent());
        // And the exact solver confirms.
        assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::NoSolution);
    }

    #[test]
    fn direction_vectors_on_dependent_example() {
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 4);
        let j1 = b.var("j1", 9);
        let i2 = b.var("i2", 4);
        let j2 = b.var("j2", 9);
        b.common_pair(i1, i2).common_pair(j1, j2);
        b.equation(-3, vec![1, 10, -1, -10]);
        let p = b.build();
        let t = DelinearizationTest::default();
        let v = t.test_with_distances(&p);
        let Verdict::Dependent { exact, info } = &v else {
            panic!("expected dependent");
        };
        assert!(exact);
        assert_eq!(info.dir_vecs, vec![DirVec(vec![Dir::Gt, Dir::Eq])]);
        assert_eq!(info.dist_dirs, vec![DistDirVec(vec![DistDir::Dist(-3), DistDir::Dist(0)])]);
        // The engine entry point decides the same verdict and directions,
        // without distances.
        let Verdict::Dependent { exact: plain_exact, info: plain } = t.test(&p) else {
            panic!("expected dependent");
        };
        assert_eq!((plain_exact, &plain.dir_vecs), (*exact, &info.dir_vecs));
        assert!(plain.dist_dirs.is_empty());
    }

    #[test]
    fn mhl91_distance_claim() {
        // Paper: "Using delinearization we are able to prove that distance
        // vector is (2,0)" for A(10i+j) = A(10(i+2)+j) + 7.
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 7);
        let j1 = b.var("j1", 9);
        let i2 = b.var("i2", 7);
        let j2 = b.var("j2", 9);
        b.common_pair(i1, i2).common_pair(j1, j2);
        // source reads A(10(i+2)+j), sink writes A(10 i + j):
        // 10 i1 + 20 + j1 - 10 i2 - j2 = 0.
        b.equation(20, vec![10, 1, -10, -1]);
        let p = b.build();
        let v = DelinearizationTest::default().test_with_distances(&p);
        let info = v.info().expect("dependent");
        assert_eq!(info.dist_dirs, vec![DistDirVec(vec![DistDir::Dist(2), DistDir::Dist(0)])]);
    }

    #[test]
    fn multi_equation_meet() {
        // Two subscripts: A(i, i+10j) style coupling where the first
        // dimension forces '=' on i and the second is the linearized pair.
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 4);
        let j1 = b.var("j1", 9);
        let i2 = b.var("i2", 4);
        let j2 = b.var("j2", 9);
        b.common_pair(i1, i2).common_pair(j1, j2);
        b.equation(0, vec![1, 0, -1, 0]); // i1 = i2
        b.equation(-20, vec![1, 10, -1, -10]); // i1 + 10j1 = i2 + 10j2 + 20
        let p = b.build();
        let v = DelinearizationTest::default().test(&p);
        let Verdict::Dependent { info, .. } = v else {
            panic!("expected dependent");
        };
        // From eq2: i-dim gives i1 = i2 + 0 and j-dim j1 = j2 + 2.
        assert_eq!(info.dir_vecs, vec![DirVec(vec![Dir::Eq, Dir::Gt])]);
    }

    #[test]
    fn multi_equation_contradiction_is_independent() {
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 4);
        let i2 = b.var("i2", 4);
        b.common_pair(i1, i2);
        b.equation(-1, vec![1, -1]); // i1 = i2 + 1 => '>'
        b.equation(1, vec![1, -1]); // i1 = i2 - 1 => '<'
        let p = b.build();
        assert!(DelinearizationTest::default().test(&p).is_independent());
    }

    #[test]
    fn symbolic_instantiation() {
        use delin_numeric::Assumptions;
        // N²(k1 - k2) + N(j1 - i2) + (i1 - j2) = N² + N with the Section 4
        // bounds: dependent (e.g. k1 = k2 + 1, j1 = i2 + 1 would give
        // N² + N with i1 = j2) — the symbolic test must not claim
        // independence; and the symbolic gcd path must not crash.
        let n = SymPoly::symbol("N");
        let n2 = n.checked_mul(&n).unwrap();
        let nm1 = n.checked_sub(&SymPoly::one()).unwrap();
        let nm2 = n.checked_sub(&SymPoly::constant(2)).unwrap();
        let c0 = n2.checked_add(&n).unwrap().checked_neg().unwrap();
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("i1", nm2.clone());
        b.var("j1", nm1.clone());
        b.var("k1", nm2.clone());
        b.var("i2", nm2.clone());
        b.var("j2", nm1.clone());
        b.var("k2", nm2.clone());
        b.equation(
            c0,
            vec![
                SymPoly::one(),
                n.clone(),
                n2.clone(),
                n.checked_neg().unwrap(),
                SymPoly::constant(-1),
                n2.checked_neg().unwrap(),
            ],
        );
        let mut a = Assumptions::new();
        a.set_lower_bound("N", 2);
        b.assumptions(a);
        let p = b.build();
        let v = DependenceTest::<SymPoly>::test(&DelinearizationTest::default(), &p);
        assert!(v.is_dependent());
    }

    #[test]
    fn symbolic_independence() {
        use delin_numeric::Assumptions;
        // N²(k1 - k2) = N² + 3 under N >= 2: per-dimension GCD test fails
        // (3 is not divisible by N²).
        let n = SymPoly::symbol("N");
        let n2 = n.checked_mul(&n).unwrap();
        let nm2 = n.checked_sub(&SymPoly::constant(2)).unwrap();
        let c0 = n2.checked_add(&SymPoly::constant(3)).unwrap().checked_neg().unwrap();
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("k1", nm2.clone());
        b.var("k2", nm2);
        b.equation(c0, vec![n2.clone(), n2.checked_neg().unwrap()]);
        let mut a = Assumptions::new();
        a.set_lower_bound("N", 2);
        b.assumptions(a);
        let p = b.build();
        let v = DependenceTest::<SymPoly>::test(&DelinearizationTest::default(), &p);
        assert!(v.is_independent());
    }

    #[test]
    fn soundness_against_exact_on_random_family() {
        // Exhaustive small sweep: delinearization must never contradict the
        // exact solver.
        let solver = ExactSolver::default();
        let t = DelinearizationTest::default();
        for c0 in -30i128..=30 {
            for a in [1i128, 2, 3] {
                for s in [6i128, 10] {
                    let p = DependenceProblem::single_equation(
                        c0,
                        vec![a, s, -a, -s],
                        vec![3, 4, 3, 4],
                    );
                    let got = t.test(&p);
                    match solver.solve(&p) {
                        SolveOutcome::Solution(_) => {
                            assert!(got.is_dependent(), "c0={c0} a={a} s={s}")
                        }
                        SolveOutcome::NoSolution => {
                            // Delinearization may fail to prove it, but must
                            // not claim exact dependence.
                            if let Verdict::Dependent { exact, .. } = &got {
                                assert!(!exact, "c0={c0} a={a} s={s}");
                            }
                        }
                        SolveOutcome::Degraded(_) => unreachable!(),
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_config_changes_cost_but_not_verdicts() {
        use delin_dep::exact::{
            peek_thread_nodes, reset_thread_nodes, reset_thread_refine, take_thread_refine,
        };
        let incremental = DelinearizationTest::default();
        let fresh = DelinearizationTest {
            config: DelinConfig { incremental: false, ..DelinConfig::default() },
        };
        let problems = vec![motivating(), overlapping()];
        for p in &problems {
            reset_thread_nodes();
            reset_thread_refine();
            let v_fresh = fresh.test(p);
            let fresh_nodes = peek_thread_nodes();
            let c_fresh = take_thread_refine();
            assert_eq!(c_fresh.subtree_reuses, 0, "disabled store must never reuse");
            reset_thread_nodes();
            let v_incr = incremental.test(p);
            let incr_nodes = peek_thread_nodes();
            let c_incr = take_thread_refine();
            assert_eq!(format!("{v_fresh:?}"), format!("{v_incr:?}"));
            if v_incr.is_dependent() {
                assert!(c_incr.subtree_reuses > 0, "dependent pairs must share subtrees");
                assert!(incr_nodes < fresh_nodes, "{incr_nodes} vs {fresh_nodes}");
            }
            reset_thread_nodes();
        }
    }

    #[test]
    fn names() {
        let t = DelinearizationTest::default();
        assert_eq!(DependenceTest::<i128>::name(&t), "delinearization");
        assert_eq!(DependenceTest::<SymPoly>::name(&t), "delinearization-symbolic");
    }
}
