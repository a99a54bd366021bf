//! The Single Variable Per Constraint test (Maydan–Hennessy–Lam 1991).
//!
//! Applicable when every equation of the system constrains at most one
//! variable. Each such equation either fixes its variable to a rational
//! value (independent when the value is fractional or out of bounds) or is
//! a tautology/contradiction. Conflicting fixings across equations also
//! prove independence. Exact within its applicability domain.

use crate::problem::DependenceProblem;
use crate::verdict::{DependenceInfo, DependenceTest, Verdict};

/// The Single Variable Per Constraint dependence test.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvpcTest;

impl DependenceTest<i128> for SvpcTest {
    fn name(&self) -> &'static str {
        "svpc"
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        if problem.vars().iter().any(|v| v.upper < 0) {
            return Verdict::Independent;
        }
        let n = problem.num_vars();
        let mut fixed: Vec<Option<i128>> = vec![None; n];
        for eq in problem.equations() {
            let active: Vec<usize> = eq.active_vars().collect();
            match active.len() {
                0 => {
                    if eq.c0 != 0 {
                        return Verdict::Independent;
                    }
                }
                1 => {
                    let k = active[0];
                    let a = eq.coeffs[k];
                    // `i128::MIN / −1` overflows, and so does the negation
                    // of a quotient of `i128::MIN`: undecided, not a panic.
                    let Some(q) = eq.c0.checked_div(a) else {
                        return Verdict::Unknown;
                    };
                    if eq.c0 % a != 0 {
                        return Verdict::Independent;
                    }
                    let Some(v) = q.checked_neg() else {
                        return Verdict::Unknown;
                    };
                    if v < 0 || v > problem.vars()[k].upper {
                        return Verdict::Independent;
                    }
                    match fixed[k] {
                        None => fixed[k] = Some(v),
                        Some(prev) if prev != v => return Verdict::Independent,
                        Some(_) => {}
                    }
                }
                _ => return Verdict::Unknown,
            }
        }
        // All equations are satisfiable and consistent. Build a witness
        // (free variables at 0) and validate it against the remaining
        // constraints (inequalities); failure downgrades exactness.
        let witness: Vec<i128> = fixed.iter().map(|f| f.unwrap_or(0)).collect();
        match problem.is_solution(&witness) {
            Ok(true) => Verdict::Dependent {
                exact: true,
                info: DependenceInfo { witness: Some(witness), ..DependenceInfo::default() },
            },
            _ => Verdict::Dependent { exact: false, info: DependenceInfo::default() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `−z1 + MIN = 0` needs `MIN / −1`, and `z1 + MIN = 0` the negation of
    /// `MIN`: both are undecided, not a panic.
    #[test]
    fn overflow_at_i128_min_is_unknown() {
        for (coeff, upper) in [(-1, 0), (1, 5)] {
            let p = DependenceProblem::single_equation(i128::MIN, vec![coeff], vec![upper]);
            assert_eq!(SvpcTest.test(&p), Verdict::Unknown, "{p}");
        }
        let p = DependenceProblem::single_equation(i128::MIN, vec![2], vec![5]);
        assert_eq!(SvpcTest.test(&p), Verdict::Independent);
    }

    #[test]
    fn decides_single_var_systems() {
        // 2x = 6, y free: dependent with witness x=3.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.var("y", 10);
        b.equation(-6, vec![2, 0]);
        let p = b.build();
        match SvpcTest.test(&p) {
            Verdict::Dependent { exact, info } => {
                assert!(exact);
                assert_eq!(info.witness, Some(vec![3, 0]));
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn detects_fractional_and_out_of_bounds() {
        let p = DependenceProblem::single_equation(-7, vec![2], vec![10]);
        assert!(SvpcTest.test(&p).is_independent()); // x = 3.5
        let p = DependenceProblem::single_equation(-22, vec![2], vec![10]);
        assert!(SvpcTest.test(&p).is_independent()); // x = 11 > 10
        let p = DependenceProblem::single_equation(4, vec![2], vec![10]);
        assert!(SvpcTest.test(&p).is_independent()); // x = -2 < 0
    }

    #[test]
    fn detects_conflicts() {
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.equation(-3, vec![1]); // x = 3
        b.equation(-4, vec![1]); // x = 4
        let p = b.build();
        assert!(SvpcTest.test(&p).is_independent());
        // Agreement is fine.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.equation(-3, vec![1]);
        b.equation(-6, vec![2]);
        let p = b.build();
        assert!(SvpcTest.test(&p).is_dependent());
    }

    #[test]
    fn contradictory_constant_equation() {
        let p = DependenceProblem::single_equation(5, vec![0, 0], vec![3, 3]);
        assert!(SvpcTest.test(&p).is_independent());
    }

    #[test]
    fn inapplicable_on_multivar() {
        // The paper lists SVPC among the tests that cannot disprove the
        // motivating example; in our framework it is simply inapplicable.
        let p = DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9]);
        assert!(SvpcTest.test(&p).is_unknown());
    }

    #[test]
    fn zero_trip_loop() {
        let p = DependenceProblem::single_equation(0, vec![1], vec![-2]);
        assert!(SvpcTest.test(&p).is_independent());
    }

    #[test]
    fn name() {
        assert_eq!(DependenceTest::<i128>::name(&SvpcTest), "svpc");
    }
}
