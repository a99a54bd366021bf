//! The Acyclic test (Maydan–Hennessy–Lam 1991).
//!
//! Applicable when every equation has at most two active variables, all
//! active coefficients are `±1`, and the variable-sharing graph (variables
//! as nodes, two-variable equations as edges) is acyclic. Interval
//! propagation to a fixpoint is then *exact*: unit-coefficient binary
//! equations are monotone bijections between intervals, and arc consistency
//! decides tree-structured constraint networks.

use crate::problem::DependenceProblem;
use crate::verdict::{DependenceInfo, DependenceTest, Verdict};
use delin_numeric::Interval;

/// The Acyclic dependence test.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcyclicTest;

/// Checks shape applicability: ≤ 2 active vars per equation, unit
/// coefficients, acyclic sharing graph, and no extra inequality
/// constraints.
fn applicable(problem: &DependenceProblem<i128>) -> bool {
    if !problem.inequalities().is_empty() {
        return false;
    }
    let n = problem.num_vars();
    // Union-find over variables; a two-variable equation joining two
    // already-connected variables closes a cycle.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for eq in problem.equations() {
        let active: Vec<usize> = eq.active_vars().collect();
        if active.len() > 2 {
            return false;
        }
        if active.iter().any(|&k| eq.coeffs[k].unsigned_abs() != 1) {
            return false;
        }
        if active.len() == 2 {
            let (a, b) = (find(&mut parent, active[0]), find(&mut parent, active[1]));
            if a == b {
                return false;
            }
            parent[a] = b;
        }
    }
    true
}

impl DependenceTest<i128> for AcyclicTest {
    fn name(&self) -> &'static str {
        "acyclic"
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        if problem.vars().iter().any(|v| v.upper < 0) {
            return Verdict::Independent;
        }
        if !applicable(problem) {
            return Verdict::Unknown;
        }
        let n = problem.num_vars();
        let mut dom: Vec<Interval> =
            problem.vars().iter().map(|v| Interval::new(0, v.upper)).collect();
        // Propagate to fixpoint. Each pass narrows; bounded by total domain
        // shrinkage, and each equation visit is O(1).
        loop {
            let mut changed = false;
            for eq in problem.equations() {
                let active: Vec<usize> = eq.active_vars().collect();
                if active.is_empty() {
                    if eq.c0 != 0 {
                        return Verdict::Independent;
                    }
                    continue;
                }
                // Every overflow below, `−MIN` first, leaves the problem
                // undecided.
                let Some(neg_c0) = eq.c0.checked_neg() else {
                    return Verdict::Unknown;
                };
                match active.len() {
                    1 => {
                        let k = active[0];
                        let v = neg_c0 * eq.coeffs[k]; // coeff is ±1
                        let narrowed = dom[k].intersect(&Interval::point(v));
                        if narrowed != dom[k] {
                            dom[k] = narrowed;
                            changed = true;
                        }
                    }
                    2 => {
                        let (x, y) = (active[0], active[1]);
                        let (sx, sy) = (eq.coeffs[x], eq.coeffs[y]);
                        // sx*x + sy*y + c0 = 0  =>  x = (-c0 - sy*y)/sx.
                        let from = |other: Interval, s_self: i128, s_other: i128| {
                            let t = other.checked_scale(-s_other).ok()?;
                            let t = t.checked_add(&Interval::point(neg_c0)).ok()?;
                            // Dividing by ±1 keeps integrality.
                            t.checked_scale(s_self).ok()
                        };
                        let Some(image) = from(dom[y], sx, sy) else {
                            return Verdict::Unknown;
                        };
                        let nx = dom[x].intersect(&image);
                        if nx != dom[x] {
                            dom[x] = nx;
                            changed = true;
                        }
                        let Some(image) = from(dom[x], sy, sx) else {
                            return Verdict::Unknown;
                        };
                        let ny = dom[y].intersect(&image);
                        if ny != dom[y] {
                            dom[y] = ny;
                            changed = true;
                        }
                    }
                    _ => unreachable!("applicability pre-checked"),
                }
            }
            if dom.iter().any(Interval::is_empty) {
                return Verdict::Independent;
            }
            if !changed {
                break;
            }
        }
        // Arc-consistent and acyclic: a solution exists. Build a witness by
        // assigning lower ends and re-propagating through each tree edge.
        let mut witness: Vec<Option<i128>> = vec![None; n];
        // Repeatedly: pick an unassigned variable, set to its interval's
        // low end, then propagate along equations until no forced moves.
        loop {
            let mut progressed = false;
            for eq in problem.equations() {
                let active: Vec<usize> = eq.active_vars().collect();
                // `-c0 - c_other·v_other` over the unit coefficient `c_self`;
                // `None` on overflow.
                let solve = |c_other: i128, v_other: i128, c_self: i128| {
                    eq.c0
                        .checked_neg()?
                        .checked_sub(c_other.checked_mul(v_other)?)?
                        .checked_mul(c_self)
                };
                let (k, value) = match active[..] {
                    [k] if witness[k].is_none() => (k, solve(0, 0, eq.coeffs[k])),
                    [x, y] => match (witness[x], witness[y]) {
                        (Some(vx), None) => (y, solve(eq.coeffs[x], vx, eq.coeffs[y])),
                        (None, Some(vy)) => (x, solve(eq.coeffs[y], vy, eq.coeffs[x])),
                        _ => continue,
                    },
                    _ => continue,
                };
                let Some(value) = value else {
                    return Verdict::Unknown;
                };
                witness[k] = Some(value);
                progressed = true;
            }
            if !progressed {
                match witness.iter().position(Option::is_none) {
                    Some(k) => {
                        witness[k] = Some(dom[k].lo);
                    }
                    None => break,
                }
            }
        }
        let w: Vec<i128> = witness.into_iter().map(|v| v.expect("assigned")).collect();
        match problem.is_solution(&w) {
            Ok(true) => Verdict::Dependent {
                exact: true,
                info: DependenceInfo { witness: Some(w), ..DependenceInfo::default() },
            },
            // Should not happen for applicable problems, but stay sound.
            _ => Verdict::Dependent { exact: false, info: DependenceInfo::default() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{ExactSolver, SolveOutcome};

    #[test]
    fn i128_min_is_unknown() {
        // |MIN| does not fit, so MIN is no unit coefficient; and the bound
        // −c0 = 2^127 of `z1 − 2^127 = 0` and `z1 − z2 − 2^127 = 0` is out
        // of range.
        for (c0, coeffs) in
            [(0, vec![i128::MIN, 1]), (i128::MIN, vec![1, 0]), (i128::MIN, vec![1, -1])]
        {
            let p = DependenceProblem::single_equation(c0, coeffs, vec![1, 1]);
            assert!(matches!(AcyclicTest.test(&p), Verdict::Unknown), "{p}");
        }
    }

    #[test]
    fn chain_system_feasible() {
        // x - y = 1, y - z = 2 over [0,10]^3.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.var("y", 10);
        b.var("z", 10);
        b.equation(-1, vec![1, -1, 0]);
        b.equation(-2, vec![0, 1, -1]);
        let p = b.build();
        match AcyclicTest.test(&p) {
            Verdict::Dependent { exact, info } => {
                assert!(exact);
                let w = info.witness.unwrap();
                assert!(p.is_solution(&w).unwrap());
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn chain_system_infeasible() {
        // x - y = 8, y - z = 8 over [0,10]: x would need z + 16 > 10.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.var("y", 10);
        b.var("z", 10);
        b.equation(-8, vec![1, -1, 0]);
        b.equation(-8, vec![0, 1, -1]);
        let p = b.build();
        assert!(AcyclicTest.test(&p).is_independent());
    }

    #[test]
    fn sum_equations_work_too() {
        // x + y = 3 over [0,1]^2 is infeasible (max 2).
        let p = DependenceProblem::single_equation(-3, vec![1, 1], vec![1, 1]);
        assert!(AcyclicTest.test(&p).is_independent());
        // x + y = 2 over [0,1]^2 is feasible at (1,1).
        let p = DependenceProblem::single_equation(-2, vec![1, 1], vec![1, 1]);
        assert!(AcyclicTest.test(&p).is_dependent());
    }

    #[test]
    fn rejects_cycles_and_nonunit() {
        // Cycle: x-y, y-z, z-x.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 5);
        b.var("y", 5);
        b.var("z", 5);
        b.equation(0, vec![1, -1, 0]);
        b.equation(0, vec![0, 1, -1]);
        b.equation(0, vec![-1, 0, 1]);
        let p = b.build();
        assert!(AcyclicTest.test(&p).is_unknown());
        // Non-unit coefficient.
        let p = DependenceProblem::single_equation(0, vec![2, -1], vec![5, 5]);
        assert!(AcyclicTest.test(&p).is_unknown());
        // Three active variables.
        let p = DependenceProblem::single_equation(0, vec![1, -1, 1], vec![5, 5, 5]);
        assert!(AcyclicTest.test(&p).is_unknown());
    }

    #[test]
    fn agrees_with_exact_on_random_trees() {
        // Chains x1 - x2 = d1, x2 - x3 = d2, ... with assorted constants.
        let solver = ExactSolver::default();
        for d1 in -6i128..=6 {
            for d2 in -6i128..=6 {
                let mut b = DependenceProblem::<i128>::builder();
                b.var("x", 5);
                b.var("y", 5);
                b.var("z", 5);
                b.equation(-d1, vec![1, -1, 0]);
                b.equation(-d2, vec![0, 1, -1]);
                let p = b.build();
                let got = AcyclicTest.test(&p);
                match solver.solve(&p) {
                    SolveOutcome::Solution(_) => assert!(got.is_dependent(), "d1={d1} d2={d2}"),
                    SolveOutcome::NoSolution => {
                        assert!(got.is_independent(), "d1={d1} d2={d2}")
                    }
                    SolveOutcome::Degraded(_) => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn zero_trip_loop() {
        let p = DependenceProblem::single_equation(0, vec![1, -1], vec![-1, 5]);
        assert!(AcyclicTest.test(&p).is_independent());
    }

    #[test]
    fn name() {
        assert_eq!(DependenceTest::<i128>::name(&AcyclicTest), "acyclic");
    }
}
