//! The GCD test (Banerjee 1988; Allen–Kennedy 1987).
//!
//! A linear equation `c0 + Σ ck·zk = 0` has *unbounded* integer solutions
//! iff `gcd(c1, …, cn)` divides `c0`. The test ignores the loop bounds, so
//! it can prove independence but never dependence. It is one of the
//! techniques the paper lists as unable to disprove the motivating
//! linearized example (the gcd there is 1).
//!
//! The symbolic variant is sound: it reports independence only when the
//! remainder `c0 mod g` is provably strictly between `0` and `g` for every
//! admissible parameter value.

use crate::problem::{DependenceProblem, LinEq};
use crate::verdict::{DependenceTest, Verdict};
use delin_numeric::{Assumptions, Coeff, Trilean};

/// The classic GCD dependence test.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcdTest;

/// Is the single equation feasible over unbounded integers, as far as
/// divisibility can tell? `False` is a proof of infeasibility.
pub fn equation_divisible<C: Coeff>(eq: &LinEq<C>, a: &Assumptions) -> Trilean {
    let g = eq.coeffs.iter().fold(C::zero(), |acc, c| acc.gcd(c));
    if g.is_zero() {
        // No variables: the equation is c0 = 0.
        return if eq.c0.is_zero() {
            Trilean::True
        } else if eq.c0.sign(a).is_some() {
            Trilean::False
        } else {
            Trilean::Unknown
        };
    }
    let Ok((_, r)) = eq.c0.div_rem(&g) else {
        return Trilean::Unknown;
    };
    if r.is_zero() {
        return Trilean::True;
    }
    if let Some(rc) = r.as_i128() {
        if let Some(gc) = g.as_i128() {
            // Concrete: Euclidean remainder in [0, |g|) and nonzero.
            debug_assert!(rc != 0 && rc.abs() < gc.abs());
            let _ = (rc, gc);
            return Trilean::False;
        }
    }
    // Symbolic: prove 0 < r < g pointwise.
    let strictly_between = r.is_pos(a).and(match g.checked_sub(&r) {
        Ok(diff) => diff.is_pos(a),
        Err(_) => Trilean::Unknown,
    });
    match strictly_between {
        Trilean::True => Trilean::False,
        _ => Trilean::Unknown,
    }
}

impl<C: Coeff> DependenceTest<C> for GcdTest {
    fn name(&self) -> &'static str {
        "gcd"
    }

    fn test(&self, problem: &DependenceProblem<C>) -> Verdict {
        for eq in problem.equations() {
            if equation_divisible(eq, problem.assumptions()).is_false() {
                return Verdict::Independent;
            }
        }
        // Divisibility holds (or is unknown) everywhere: the GCD test
        // cannot prove dependence because it ignores the bounds.
        Verdict::maybe_dependent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_numeric::SymPoly;

    fn single(c0: i128, coeffs: Vec<i128>, uppers: Vec<i128>) -> DependenceProblem<i128> {
        DependenceProblem::single_equation(c0, coeffs, uppers)
    }

    #[test]
    fn proves_divisibility_failures() {
        // 2x - 4y = 1: gcd 2 does not divide 1.
        let p = single(1, vec![2, -4], vec![100, 100]);
        assert!(GcdTest.test(&p).is_independent());
        // 2x - 4y = 6 is divisible: maybe dependent.
        let p = single(-6, vec![2, -4], vec![100, 100]);
        assert!(GcdTest.test(&p).is_dependent());
    }

    #[test]
    fn fails_on_motivating_example() {
        // gcd(1,10,1,10) = 1 divides 5: the GCD test cannot disprove it
        // (this is the paper's point).
        let p = single(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9]);
        assert!(GcdTest.test(&p).is_dependent());
    }

    #[test]
    fn zero_variable_equations() {
        let p = single(3, vec![0, 0], vec![4, 4]);
        assert!(GcdTest.test(&p).is_independent());
        let p = single(0, vec![0, 0], vec![4, 4]);
        assert!(GcdTest.test(&p).is_dependent());
    }

    #[test]
    fn multi_equation_any_failure_suffices() {
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.var("y", 10);
        b.equation(0, vec![1, -1]); // feasible
        b.equation(1, vec![2, 2]); // 2(x+y) = -1: infeasible
        let p = b.build();
        assert!(GcdTest.test(&p).is_independent());
    }

    #[test]
    fn symbolic_divisible() {
        // N*x - N*y = N^2: gcd N divides N^2 -> maybe dependent.
        let n = SymPoly::symbol("N");
        let n2 = n.checked_mul(&n).unwrap();
        let p = DependenceProblem::single_equation(
            n2.clone(),
            vec![n.clone(), n.checked_neg().unwrap()],
            vec![n.clone(), n.clone()],
        );
        assert!(GcdTest.test(&p).is_dependent());
    }

    #[test]
    fn symbolic_provably_indivisible() {
        // N^2*x - N^2*y = N^2 + 3 under N >= 2: remainder 3 with 0 < 3 < N^2.
        let n = SymPoly::symbol("N");
        let n2 = n.checked_mul(&n).unwrap();
        let c0 = n2.checked_add(&SymPoly::constant(3)).unwrap();
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("x", n.clone());
        b.var("y", n.clone());
        b.equation(c0, vec![n2.clone(), n2.checked_neg().unwrap()]);
        let mut a = Assumptions::new();
        a.set_lower_bound("N", 2);
        b.assumptions(a);
        let p = b.build();
        assert!(GcdTest.test(&p).is_independent());
    }

    #[test]
    fn symbolic_unknown_divisibility_is_conservative() {
        // 2x - 2y = N: divisibility depends on N's parity -> maybe dependent.
        let n = SymPoly::symbol("N");
        let two = SymPoly::constant(2);
        let p = DependenceProblem::single_equation(
            n.clone(),
            vec![two.clone(), two.checked_neg().unwrap()],
            vec![n.clone(), n.clone()],
        );
        assert!(GcdTest.test(&p).is_dependent());
    }

    #[test]
    fn c0_mod_g_at_i128_min() {
        // (1 − 2^127)·(z1 + z2) − 2^127 = 0: g = 2^127 − 1 does not divide
        // −2^127. The remainder used to form q·g below i128::MIN.
        let p = single(i128::MIN, vec![i128::MIN + 1, i128::MIN + 1], vec![0, 0]);
        assert!(GcdTest.test(&p).is_independent());
    }

    #[test]
    fn name() {
        assert_eq!(DependenceTest::<i128>::name(&GcdTest), "gcd");
    }
}
