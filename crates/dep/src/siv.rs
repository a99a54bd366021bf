//! Exact single-index tests (Goff–Kennedy–Tseng 1991) and the bounded
//! two-variable Diophantine kernel.
//!
//! Dependence equations that involve at most two variables can be decided
//! exactly and in constant time: ZIV (no variables), strong SIV (equal
//! coefficients — yields a distance), weak-zero and weak-crossing SIV, and
//! the general two-variable case via extended gcd plus bounds intersection.
//! Delinearization leans on this: after separation, each dimension's
//! equation usually has one or two variables and is decided here exactly.

use crate::dirvec::{Dir, DirVec, DistDir, DistDirVec};
use crate::problem::{DependenceProblem, LinEq};
use crate::verdict::{DependenceInfo, DependenceTest, Verdict};
use delin_numeric::int::{ceil_div, ext_gcd, floor_div};
use delin_numeric::{gcd, Interval};

/// Exact ZIV/SIV/two-variable dependence test. Applicable when every
/// equation of the system has at most two active variables; exact for a
/// single equation, conservative for systems.
#[derive(Debug, Clone, Copy, Default)]
pub struct SivTest;

/// The decision for one equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoVarOutcome {
    /// No integer solution within bounds.
    Infeasible,
    /// Feasible; carries one witness `(value_of_first, value_of_second)`.
    Feasible {
        /// Witness for the first active variable (if any).
        x: i128,
        /// Witness for the second active variable (if any).
        y: i128,
    },
    /// Intermediate arithmetic overflowed `i128`; the equation is not
    /// decided (never happens for realistic loop bounds).
    Overflow,
}

/// Decides `a·x + b·y + c0 = 0` with `x ∈ [0, ux]`, `y ∈ [0, uy]` exactly.
///
/// Degenerate coefficient cases (`a = 0` and/or `b = 0`) are handled; when a
/// variable does not occur its witness is reported as `0`.
pub fn solve_two_var(a: i128, ux: i128, b: i128, uy: i128, c0: i128) -> TwoVarOutcome {
    if ux < 0 || uy < 0 {
        return TwoVarOutcome::Infeasible;
    }
    match (a == 0, b == 0) {
        (true, true) => {
            if c0 == 0 {
                TwoVarOutcome::Feasible { x: 0, y: 0 }
            } else {
                TwoVarOutcome::Infeasible
            }
        }
        (false, true) => solve_one_var(a, ux, c0),
        (true, false) => match solve_one_var(b, uy, c0) {
            TwoVarOutcome::Feasible { x: y, .. } => TwoVarOutcome::Feasible { x: 0, y },
            other => other,
        },
        (false, false) => {
            let g = gcd(a, b);
            if c0 % g != 0 {
                return TwoVarOutcome::Infeasible;
            }
            solve_two_var_general(a, ux, b, uy, c0, g).unwrap_or(TwoVarOutcome::Overflow)
        }
    }
}

/// General case of [`solve_two_var`]; `None` signals `i128` overflow.
fn solve_two_var_general(
    a: i128,
    ux: i128,
    b: i128,
    uy: i128,
    c0: i128,
    g: i128,
) -> Option<TwoVarOutcome> {
    // Particular solution of a·x + b·y = -c0.
    let (g0, u, v) = ext_gcd(a, b)?;
    debug_assert_eq!(g0, g);
    let scale = (c0 / g).checked_neg()?;
    let x0 = u.checked_mul(scale)?;
    let y0 = v.checked_mul(scale)?;
    // General solution: x = x0 + (b/g)t, y = y0 - (a/g)t.
    let (bs, as_) = (b / g, a / g);
    let t_for = |coef: i128, base: i128, upper: i128| -> Option<Interval> {
        // 0 <= base + coef*t <= upper
        let room = upper.checked_sub(base)?;
        let nbase = base.checked_neg()?;
        if coef > 0 {
            Some(Interval::new(ceil_div(nbase, coef).ok()?, floor_div(room, coef).ok()?))
        } else {
            Some(Interval::new(ceil_div(room, coef).ok()?, floor_div(nbase, coef).ok()?))
        }
    };
    let tx = t_for(bs, x0, ux)?;
    let ty = t_for(as_.checked_neg()?, y0, uy)?;
    let t = tx.intersect(&ty);
    if t.is_empty() {
        Some(TwoVarOutcome::Infeasible)
    } else {
        let x = x0.checked_add(bs.checked_mul(t.lo)?)?;
        let y = y0.checked_sub(as_.checked_mul(t.lo)?)?;
        Some(TwoVarOutcome::Feasible { x, y })
    }
}

/// Decides `a·x + c0 = 0` with `a ≠ 0` and `x ∈ [0, upper]`; a feasible
/// `x` comes back as the witness `x` (with `y = 0`).
fn solve_one_var(a: i128, upper: i128, c0: i128) -> TwoVarOutcome {
    // `i128::MIN / −1` is the one quotient that overflows, and `x = −(c0/a)`
    // has no negation when the quotient is `i128::MIN`.
    let Some(q) = c0.checked_div(a) else {
        return TwoVarOutcome::Overflow;
    };
    if c0 % a != 0 {
        return TwoVarOutcome::Infeasible;
    }
    match q.checked_neg() {
        Some(x) if (0..=upper).contains(&x) => TwoVarOutcome::Feasible { x, y: 0 },
        Some(_) => TwoVarOutcome::Infeasible,
        None => TwoVarOutcome::Overflow,
    }
}

/// Classification of a single equation for reporting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SivKind {
    /// No active variables.
    Ziv,
    /// One active variable (weak-zero SIV shape).
    WeakZero,
    /// Two active variables with `coeff_x == -coeff_y` (strong SIV: a
    /// constant distance exists).
    Strong,
    /// Two active variables with `coeff_x == coeff_y` (weak-crossing SIV).
    WeakCrossing,
    /// Any other two-variable equation.
    GeneralTwoVar,
    /// More than two active variables — not a SIV equation.
    Multi,
}

/// Classifies an equation by its active coefficients.
pub fn classify(eq: &LinEq<i128>) -> SivKind {
    let active: Vec<usize> = eq.active_vars().collect();
    match active.len() {
        0 => SivKind::Ziv,
        1 => SivKind::WeakZero,
        2 => {
            let (a, b) = (eq.coeffs[active[0]], eq.coeffs[active[1]]);
            if Some(a) == b.checked_neg() {
                SivKind::Strong
            } else if a == b {
                SivKind::WeakCrossing
            } else {
                SivKind::GeneralTwoVar
            }
        }
        _ => SivKind::Multi,
    }
}

/// Decides one equation exactly when it has ≤ 2 active variables.
/// Returns `None` for equations with more variables.
pub fn decide_equation(
    problem: &DependenceProblem<i128>,
    eq: &LinEq<i128>,
) -> Option<TwoVarOutcome> {
    let active: Vec<usize> = eq.active_vars().collect();
    match active.len() {
        0 => Some(if eq.c0 == 0 {
            TwoVarOutcome::Feasible { x: 0, y: 0 }
        } else {
            TwoVarOutcome::Infeasible
        }),
        1 => {
            let k = active[0];
            Some(solve_two_var(eq.coeffs[k], problem.vars()[k].upper, 0, 0, eq.c0))
        }
        2 => {
            let (kx, ky) = (active[0], active[1]);
            Some(solve_two_var(
                eq.coeffs[kx],
                problem.vars()[kx].upper,
                eq.coeffs[ky],
                problem.vars()[ky].upper,
                eq.c0,
            ))
        }
        _ => None,
    }
}

/// For a strong-SIV equation over a common pair, the constant dependence
/// distance `β − α`, when the dependence is feasible.
pub fn strong_siv_distance(
    problem: &DependenceProblem<i128>,
    eq: &LinEq<i128>,
    level: usize,
) -> Option<i128> {
    let (x, y) = *problem.common_loops().get(level)?;
    let a = eq.coeffs[x];
    if a == 0 || Some(eq.coeffs[y]) != a.checked_neg() {
        return None;
    }
    // Other variables must be absent for the distance to be forced.
    if eq.active_vars().any(|k| k != x && k != y) {
        return None;
    }
    // a(x - y) + c0 = 0  =>  y - x = c0/a.
    if eq.c0.checked_rem(a)? != 0 {
        return None;
    }
    let d = eq.c0 / a;
    let z = problem.vars()[x].upper;
    d.checked_abs().is_some_and(|m| m <= z).then_some(d)
}

impl DependenceTest<i128> for SivTest {
    fn name(&self) -> &'static str {
        "siv"
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        if problem.vars().iter().any(|v| v.upper < 0) {
            return Verdict::Independent;
        }
        let mut decided_all = true;
        for eq in problem.equations() {
            match decide_equation(problem, eq) {
                Some(TwoVarOutcome::Infeasible) => return Verdict::Independent,
                Some(TwoVarOutcome::Feasible { .. }) => {}
                Some(TwoVarOutcome::Overflow) | None => decided_all = false,
            }
        }
        if !decided_all {
            return Verdict::Unknown;
        }
        // Every equation is individually feasible. For a single-equation
        // problem without extra constraints this is exact; otherwise the
        // coupling between equations keeps it a "maybe".
        let exact = problem.equations().len() == 1 && problem.inequalities().is_empty();
        // Collect distance information from strong-SIV equations.
        let mut dist_dirs = Vec::new();
        if !problem.common_loops().is_empty() {
            let mut elems = Vec::with_capacity(problem.common_loops().len());
            let mut any_distance = false;
            for level in 0..problem.common_loops().len() {
                let d = problem
                    .equations()
                    .iter()
                    .find_map(|eq| strong_siv_distance(problem, eq, level));
                match d {
                    Some(d) => {
                        any_distance = true;
                        elems.push(DistDir::Dist(d));
                    }
                    None => elems.push(DistDir::Dir(Dir::Any)),
                }
            }
            if any_distance {
                dist_dirs.push(DistDirVec(elems));
            }
        }
        let dir_vecs: Vec<DirVec> = dist_dirs.iter().map(DistDirVec::to_dir_vec).collect();
        Verdict::Dependent { exact, info: DependenceInfo { dir_vecs, dist_dirs, witness: None } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{ExactSolver, SolveOutcome};
    use proptest::prelude::*;

    /// Equations at `i128::MIN` whose remainder, quotient or Bézout step
    /// overflows: `−z1 + MIN = 0` over `[0, 0]`, `MIN·z1 − z2 + MIN = 0` over
    /// `[0, 0]²` and `MIN·z1 + MIN·z2 = 0` over `[0, 1]²` are undecided, not
    /// a panic, and a root of `2^127` is not mistaken for a negative one.
    #[test]
    fn overflow_at_i128_min_is_undecided() {
        let min = i128::MIN;
        for (c0, coeffs, uppers) in [
            (min, vec![-1], vec![0]),
            (min, vec![min, -1], vec![0, 0]),
            (0, vec![min, min], vec![1, 1]),
        ] {
            let p = DependenceProblem::single_equation(c0, coeffs, uppers);
            assert_eq!(SivTest.test(&p), Verdict::Unknown, "{p}");
        }
        assert_eq!(solve_two_var(-1, 0, 0, 0, min), TwoVarOutcome::Overflow);
        assert_eq!(solve_two_var(0, 0, 1, 5, min), TwoVarOutcome::Overflow);
        assert_eq!(solve_two_var(min, 0, -1, 0, min), TwoVarOutcome::Overflow);
        assert_eq!(solve_two_var(min, 1, min, 1, 0), TwoVarOutcome::Overflow);
        // Away from the edge the kernel still decides.
        assert_eq!(solve_two_var(-1, 5, 0, 0, min + 1), TwoVarOutcome::Infeasible);
        assert_eq!(solve_two_var(2, 5, 0, 0, min), TwoVarOutcome::Infeasible);
    }

    #[test]
    fn two_var_kernel_basics() {
        // x - y = 5, x,y in [0,4]: infeasible.
        assert_eq!(solve_two_var(1, 4, -1, 4, -5), TwoVarOutcome::Infeasible);
        // x - y = 1, x,y in [0,8]: feasible.
        match solve_two_var(1, 8, -1, 8, -1) {
            TwoVarOutcome::Feasible { x, y } => assert_eq!(x - y - 1, 0),
            o => panic!("unexpected {o:?}"),
        }
        // 2x + 4y = 7: divisibility failure.
        assert_eq!(solve_two_var(2, 100, 4, 100, -7), TwoVarOutcome::Infeasible);
        // Degenerate cases.
        assert_eq!(solve_two_var(0, 4, 0, 4, 0), TwoVarOutcome::Feasible { x: 0, y: 0 });
        assert_eq!(solve_two_var(0, 4, 0, 4, 3), TwoVarOutcome::Infeasible);
        assert_eq!(solve_two_var(3, 4, 0, 0, -6), TwoVarOutcome::Feasible { x: 2, y: 0 });
        assert_eq!(solve_two_var(3, 1, 0, 0, -6), TwoVarOutcome::Infeasible);
        assert_eq!(solve_two_var(0, 0, 5, 4, -15), TwoVarOutcome::Feasible { x: 0, y: 3 });
        // Zero-trip loops.
        assert_eq!(solve_two_var(1, -1, 1, 4, 0), TwoVarOutcome::Infeasible);
    }

    proptest! {
        #[test]
        fn two_var_matches_brute_force(a in -8i128..8, b in -8i128..8, c0 in -40i128..40,
                                       ux in 0i128..12, uy in 0i128..12) {
            let got = solve_two_var(a, ux, b, uy, c0);
            let brute = (0..=ux).flat_map(|x| (0..=uy).map(move |y| (x, y)))
                .find(|&(x, y)| a * x + b * y + c0 == 0);
            match (got, brute) {
                (TwoVarOutcome::Infeasible, None) => {}
                (TwoVarOutcome::Feasible { x, y }, Some(_)) => {
                    prop_assert_eq!(a * x + b * y + c0, 0);
                    prop_assert!((0..=ux).contains(&x) || a == 0);
                    prop_assert!((0..=uy).contains(&y) || b == 0);
                }
                (got, brute) => prop_assert!(false, "kernel {:?} vs brute {:?}", got, brute),
            }
        }
    }

    #[test]
    fn classification() {
        let mk = |c0: i128, coeffs: Vec<i128>| LinEq { c0, coeffs: coeffs.into() };
        assert_eq!(classify(&mk(1, vec![0, 0])), SivKind::Ziv);
        assert_eq!(classify(&mk(1, vec![2, 0])), SivKind::WeakZero);
        assert_eq!(classify(&mk(1, vec![2, -2])), SivKind::Strong);
        assert_eq!(classify(&mk(1, vec![2, 2])), SivKind::WeakCrossing);
        assert_eq!(classify(&mk(1, vec![2, 3])), SivKind::GeneralTwoVar);
        assert_eq!(classify(&mk(1, vec![1, 1, 1])), SivKind::Multi);
    }

    #[test]
    fn strong_siv_distance_example() {
        // A(i+1) = A(i): i1 + 1 - i2 = 0 => distance 1.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 8);
        let y = b.var("i2", 8);
        b.equation(1, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build();
        let eq = &p.equations()[0];
        assert_eq!(strong_siv_distance(&p, eq, 0), Some(1));
        let v = SivTest.test(&p);
        let info = v.info().unwrap();
        assert_eq!(info.dist_dirs, vec![DistDirVec(vec![DistDir::Dist(1)])]);
        assert_eq!(info.dir_vecs, vec![DirVec(vec![Dir::Lt])]);
    }

    #[test]
    fn strong_siv_out_of_range_distance() {
        // i1 - i2 = 100 over [0,8]: |distance| > bound: infeasible.
        let p = DependenceProblem::single_equation(-100, vec![1, -1], vec![8, 8]);
        assert!(SivTest.test(&p).is_independent());
    }

    #[test]
    fn unknown_on_miv() {
        let p = DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9]);
        assert!(SivTest.test(&p).is_unknown());
    }

    #[test]
    fn exactness_flag() {
        let p = DependenceProblem::single_equation(0, vec![1, -1], vec![8, 8]);
        match SivTest.test(&p) {
            Verdict::Dependent { exact, .. } => assert!(exact),
            o => panic!("unexpected {o:?}"),
        }
        // Two coupled equations: individually feasible, jointly not.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.equation(0, vec![1]); // x = 0
        b.equation(-1, vec![1]); // x = 1
        let p = b.build();
        // Each is feasible alone, but x can't be both; SIV spot-checks each
        // equation and the second one (x = 1) is feasible; first (x = 0)
        // feasible; so it reports non-exact dependence, which is sound
        // (conservative) though imprecise.
        match SivTest.test(&p) {
            Verdict::Dependent { exact, .. } => assert!(!exact),
            Verdict::Independent => {}
            o => panic!("unexpected {o:?}"),
        }
        // And the exact solver confirms the truth:
        assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::NoSolution);
    }

    #[test]
    fn agrees_with_exact_on_single_two_var_equations() {
        let solver = ExactSolver::default();
        for a in [-5i128, -2, 1, 3] {
            for b in [-4i128, -1, 2, 6] {
                for c0 in -15i128..=15 {
                    let p = DependenceProblem::single_equation(c0, vec![a, b], vec![7, 9]);
                    let siv = SivTest.test(&p);
                    let exact = solver.solve(&p);
                    match exact {
                        SolveOutcome::Solution(_) => assert!(siv.is_dependent()),
                        SolveOutcome::NoSolution => assert!(siv.is_independent()),
                        SolveOutcome::Degraded(_) => unreachable!(),
                    }
                }
            }
        }
    }

    #[test]
    fn name() {
        assert_eq!(DependenceTest::<i128>::name(&SivTest), "siv");
    }
}
