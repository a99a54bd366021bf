//! Fourier–Motzkin elimination (Dantzig–Eaves 1973; Maydan–Hennessy–Lam
//! 1991), with optional Pugh-style normalization/tightening.
//!
//! Plain FM decides *real* feasibility of a conjunction of linear
//! inequalities; the paper lists it among the techniques that cannot
//! disprove the motivating linearized example. With Pugh's normalization —
//! dividing each constraint by the gcd of its coefficients and flooring the
//! constant — the eliminator reasons about integers and *does* disprove it,
//! exactly as the paper remarks (`[Pug91]` normalization "being applied to
//! this problem together with Fourier–Motzkin elimination returns
//! independent"). The cost is the classic constraint blow-up, which the
//! efficiency experiment (E7) measures against delinearization's `O(n)`.

use crate::problem::DependenceProblem;
use crate::verdict::{DependenceTest, Verdict};
use delin_numeric::gcd;
use delin_numeric::int::floor_div;

/// Fourier–Motzkin eliminator.
#[derive(Debug, Clone)]
pub struct FourierMotzkin {
    /// Apply integer normalization (divide by coefficient gcd, floor the
    /// bound). Off = pure real-valued FM.
    pub integer_tightening: bool,
    /// Abort (verdict `Unknown`) when more than this many constraints are
    /// alive at once.
    pub constraint_limit: usize,
}

impl Default for FourierMotzkin {
    fn default() -> Self {
        FourierMotzkin { integer_tightening: true, constraint_limit: 50_000 }
    }
}

impl FourierMotzkin {
    /// A real-valued (no tightening) eliminator.
    pub fn real() -> FourierMotzkin {
        FourierMotzkin { integer_tightening: false, ..FourierMotzkin::default() }
    }

    /// An integer-tightened eliminator (Pugh normalization).
    pub fn tightened() -> FourierMotzkin {
        FourierMotzkin::default()
    }
}

/// Cost counters for the efficiency experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Total constraints ever created (including the initial ones).
    pub constraints_generated: usize,
    /// Peak number of simultaneously alive constraints.
    pub peak_alive: usize,
    /// Number of variable eliminations performed.
    pub eliminations: usize,
}

/// `Σ coeffs[k]·z_k ≤ bound`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Row {
    coeffs: Vec<i128>,
    bound: i128,
}

impl Row {
    fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Pugh normalization: divide by the gcd of the coefficients and floor
    /// the bound (sound for integer solutions).
    fn tighten(&mut self) {
        let g = self.coeffs.iter().fold(0i128, |g, &c| gcd(g, c));
        if g > 1 {
            for c in &mut self.coeffs {
                *c /= g;
            }
            self.bound = floor_div(self.bound, g).expect("g > 1");
        }
    }
}

/// The outcome of running the eliminator, with cost counters.
#[derive(Debug, Clone)]
pub struct FmRun {
    /// The verdict.
    pub verdict: Verdict,
    /// Cost counters.
    pub stats: FmStats,
}

impl FourierMotzkin {
    /// Runs elimination to completion and returns the verdict plus stats.
    pub fn run(&self, problem: &DependenceProblem<i128>) -> FmRun {
        let mut stats = FmStats::default();
        if problem.vars().iter().any(|v| v.upper < 0) {
            return FmRun { verdict: Verdict::Independent, stats };
        }
        let n = problem.num_vars();
        let mut eqs: Vec<(Vec<i128>, i128)> =
            problem.equations().iter().map(|eq| (eq.coeffs.to_vec(), eq.c0)).collect();
        let mut rows: Vec<Row> = Vec::new();
        for iq in problem.inequalities() {
            let Some(coeffs) = negated(&iq.coeffs) else {
                return FmRun { verdict: Verdict::Unknown, stats };
            };
            rows.push(Row { coeffs, bound: iq.c0 });
        }
        for (k, v) in problem.vars().iter().enumerate() {
            let mut up = vec![0i128; n];
            up[k] = 1;
            rows.push(Row { coeffs: up.clone(), bound: v.upper });
            up[k] = -1;
            rows.push(Row { coeffs: up, bound: 0 });
        }
        let mut remaining: Vec<usize> = (0..n).collect();

        // Pugh normalization of equalities: divide by the coefficient gcd
        // (divisibility failure proves independence) and substitute away
        // unit-coefficient variables exactly.
        if self.integer_tightening {
            loop {
                // Normalize every equality.
                for (coeffs, c0) in &mut eqs {
                    let g = coeffs.iter().fold(0i128, |g, &c| gcd(g, c));
                    if g == 0 {
                        if *c0 != 0 {
                            return FmRun { verdict: Verdict::Independent, stats };
                        }
                        continue;
                    }
                    if *c0 % g != 0 {
                        return FmRun { verdict: Verdict::Independent, stats };
                    }
                    if g > 1 {
                        for c in coeffs.iter_mut() {
                            *c /= g;
                        }
                        *c0 /= g;
                    }
                }
                eqs.retain(|(coeffs, _)| coeffs.iter().any(|&c| c != 0));
                // Find an equality with a unit-coefficient variable.
                let Some((ei, var)) = eqs.iter().enumerate().find_map(|(ei, (coeffs, _))| {
                    coeffs.iter().position(|&c| c.unsigned_abs() == 1).map(|var| (ei, var))
                }) else {
                    break;
                };
                let (src_coeffs, src_c0) = eqs.swap_remove(ei);
                let s = src_coeffs[var]; // ±1
                stats.eliminations += 1;
                remaining.retain(|&k| k != var);
                // v = -s·(c0 + Σ_{k≠var} c_k z_k); substitute everywhere.
                let subst_eq = |coeffs: &mut Vec<i128>, c0: &mut i128| -> Option<()> {
                    let a_v = coeffs[var];
                    if a_v == 0 {
                        return Some(());
                    }
                    let f = a_v.checked_mul(s)?;
                    for (k, c) in coeffs.iter_mut().enumerate() {
                        *c = c.checked_sub(f.checked_mul(src_coeffs[k])?)?;
                    }
                    *c0 = c0.checked_sub(f.checked_mul(src_c0)?)?;
                    debug_assert_eq!(coeffs[var], 0);
                    Some(())
                };
                for (coeffs, c0) in &mut eqs {
                    if subst_eq(coeffs, c0).is_none() {
                        return FmRun { verdict: Verdict::Unknown, stats };
                    }
                }
                for row in &mut rows {
                    // Row: Σ a z ≤ b with a_v on v; substitution adds
                    // -a_v·s·(equation) to cancel v:
                    // new a_k = a_k - a_v·s·c_k, new b = b + a_v·s·c0.
                    let a_v = row.coeffs[var];
                    if a_v == 0 {
                        continue;
                    }
                    let Some(f) = a_v.checked_mul(s) else {
                        return FmRun { verdict: Verdict::Unknown, stats };
                    };
                    let mut ok = true;
                    for (k, c) in row.coeffs.iter_mut().enumerate() {
                        match f.checked_mul(src_coeffs[k]).and_then(|t| c.checked_sub(t)) {
                            Some(v) => *c = v,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    match f.checked_mul(src_c0).and_then(|t| row.bound.checked_add(t)) {
                        Some(b) if ok => row.bound = b,
                        _ => return FmRun { verdict: Verdict::Unknown, stats },
                    }
                    debug_assert_eq!(row.coeffs[var], 0);
                }
            }
        }

        // Remaining equalities become row pairs.
        for (coeffs, c0) in eqs {
            let (Some(negated), Some(neg_c0)) = (negated(&coeffs), c0.checked_neg()) else {
                return FmRun { verdict: Verdict::Unknown, stats };
            };
            rows.push(Row { coeffs, bound: neg_c0 });
            rows.push(Row { coeffs: negated, bound: c0 });
        }
        stats.constraints_generated += rows.len();
        stats.peak_alive = rows.len();
        loop {
            if self.integer_tightening {
                for r in &mut rows {
                    r.tighten();
                }
            }
            self.dedup(&mut rows);
            // Constant rows decide feasibility of this level.
            if rows.iter().any(|r| r.is_constant() && r.bound < 0) {
                return FmRun { verdict: Verdict::Independent, stats };
            }
            rows.retain(|r| !r.is_constant());
            if remaining.is_empty() {
                // All variables eliminated without contradiction.
                return FmRun { verdict: Verdict::maybe_dependent(), stats };
            }
            // Pick the variable minimizing the pos*neg product; break ties
            // towards the smallest maximum |coefficient| so that
            // unit-coefficient variables are eliminated first (no
            // multiplier inflation, which lets tightening bite).
            let (pick_idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    let pos = rows.iter().filter(|r| r.coeffs[k] > 0).count();
                    let neg = rows.iter().filter(|r| r.coeffs[k] < 0).count();
                    let max_abs =
                        rows.iter().map(|r| r.coeffs[k].unsigned_abs()).max().unwrap_or(0);
                    (i, (pos * neg, max_abs))
                })
                .min_by_key(|&(_, cost)| cost)
                .expect("remaining nonempty");
            let var = remaining.swap_remove(pick_idx);
            stats.eliminations += 1;

            let (pos, rest): (Vec<Row>, Vec<Row>) =
                rows.into_iter().partition(|r| r.coeffs[var] > 0);
            let (neg, keep): (Vec<Row>, Vec<Row>) =
                rest.into_iter().partition(|r| r.coeffs[var] < 0);
            let mut next = keep;
            for p in &pos {
                for q in &neg {
                    let a = p.coeffs[var];
                    let Some(row) = q.coeffs[var].checked_neg().and_then(|b| combine(p, q, b, a))
                    else {
                        return FmRun { verdict: Verdict::Unknown, stats };
                    };
                    next.push(row);
                    stats.constraints_generated += 1;
                    if next.len() > self.constraint_limit {
                        return FmRun { verdict: Verdict::Unknown, stats };
                    }
                }
            }
            stats.peak_alive = stats.peak_alive.max(next.len());
            rows = next;
        }
    }

    /// Removes duplicate rows, keeping the tightest bound per coefficient
    /// vector.
    fn dedup(&self, rows: &mut Vec<Row>) {
        use std::collections::HashMap;
        let mut best: HashMap<Vec<i128>, i128> = HashMap::new();
        for r in rows.drain(..) {
            best.entry(r.coeffs).and_modify(|b| *b = (*b).min(r.bound)).or_insert(r.bound);
        }
        rows.extend(best.into_iter().map(|(coeffs, bound)| Row { coeffs, bound }));
    }
}

/// Each coefficient negated; `None` when one is `i128::MIN`.
fn negated(coeffs: &[i128]) -> Option<Vec<i128>> {
    coeffs.iter().map(|c| c.checked_neg()).collect()
}

/// `m1·p + m2·q` with checked arithmetic (`None` on overflow).
fn combine(p: &Row, q: &Row, m1: i128, m2: i128) -> Option<Row> {
    let mut coeffs = Vec::with_capacity(p.coeffs.len());
    for (a, b) in p.coeffs.iter().zip(&q.coeffs) {
        coeffs.push(a.checked_mul(m1)?.checked_add(b.checked_mul(m2)?)?);
    }
    let bound = p.bound.checked_mul(m1)?.checked_add(q.bound.checked_mul(m2)?)?;
    Some(Row { coeffs, bound })
}

impl DependenceTest<i128> for FourierMotzkin {
    fn name(&self) -> &'static str {
        if self.integer_tightening {
            "fourier-motzkin+tighten"
        } else {
            "fourier-motzkin"
        }
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        self.run(problem).verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirvec::Dir;
    use crate::exact::{ExactSolver, SolveOutcome};

    #[test]
    fn negating_i128_min_is_unknown() {
        let min = i128::MIN;
        // An inequality row is negated, and an equation becomes two rows.
        let ineq = DependenceProblem::single_equation(0, vec![1, -1], vec![1, 1])
            .with_inequality(0, vec![min, 0]);
        let eq = DependenceProblem::single_equation(min, vec![min, min], vec![0, 0]);
        for p in [&ineq, &eq] {
            assert!(matches!(FourierMotzkin::real().test(p), Verdict::Unknown), "{p}");
        }
        // Tightening looked for a unit coefficient through `abs`.
        let p = DependenceProblem::single_equation(min, vec![min, min + 1], vec![0, 0]);
        assert!(matches!(FourierMotzkin::tightened().test(&p), Verdict::Unknown), "{p}");
    }

    fn motivating() -> DependenceProblem<i128> {
        DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9])
    }

    #[test]
    fn real_fm_cannot_disprove_motivating_example() {
        // Real solutions exist (e.g. j fractional), so pure FM says maybe.
        assert!(FourierMotzkin::real().test(&motivating()).is_dependent());
    }

    #[test]
    fn tightened_fm_disproves_motivating_example() {
        // The paper: Pugh's normalization + FM returns independent.
        assert!(FourierMotzkin::tightened().test(&motivating()).is_independent());
    }

    #[test]
    fn real_infeasibility_detected_by_both() {
        let p = DependenceProblem::single_equation(-100, vec![1, -1], vec![4, 4]);
        assert!(FourierMotzkin::real().test(&p).is_independent());
        assert!(FourierMotzkin::tightened().test(&p).is_independent());
    }

    #[test]
    fn feasible_system() {
        let p = DependenceProblem::single_equation(-1, vec![1, -1], vec![8, 8]);
        assert!(FourierMotzkin::real().test(&p).is_dependent());
        assert!(FourierMotzkin::tightened().test(&p).is_dependent());
    }

    #[test]
    fn respects_directions() {
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("x", 8);
        let y = b.var("y", 8);
        b.equation(0, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build();
        let lt = p.with_direction(0, Dir::Lt).unwrap();
        assert!(FourierMotzkin::real().test(&lt).is_independent());
        let eq = p.with_direction(0, Dir::Eq).unwrap();
        assert!(FourierMotzkin::real().test(&eq).is_dependent());
    }

    #[test]
    fn zero_trip_loop() {
        let p = DependenceProblem::single_equation(0, vec![1, -1], vec![-1, 4]);
        assert!(FourierMotzkin::real().test(&p).is_independent());
    }

    #[test]
    fn stats_are_populated() {
        let run = FourierMotzkin::tightened().run(&motivating());
        assert!(run.stats.constraints_generated >= 10);
        assert!(run.stats.eliminations > 0);
        assert!(run.stats.peak_alive > 0);
    }

    #[test]
    fn constraint_limit_aborts_to_unknown() {
        let fm = FourierMotzkin { integer_tightening: false, constraint_limit: 3 };
        // Needs more than 3 alive constraints.
        let v = fm.test(&motivating());
        assert!(v.is_unknown());
    }

    #[test]
    fn tightening_never_contradicts_exact_solver() {
        // Soundness: whenever tightened FM says independent, the exact
        // solver agrees there is no solution.
        let solver = ExactSolver::default();
        for c0 in -25i128..=25 {
            for a in [1i128, 2, 10] {
                for b in [-10i128, -3, 7] {
                    let p = DependenceProblem::single_equation(c0, vec![a, b, -1], vec![4, 5, 6]);
                    let v = FourierMotzkin::tightened().test(&p);
                    if v.is_independent() {
                        assert_eq!(
                            solver.solve(&p),
                            SolveOutcome::NoSolution,
                            "c0={c0} a={a} b={b}"
                        );
                    }
                    if let SolveOutcome::Solution(_) = solver.solve(&p) {
                        assert!(v.is_dependent(), "c0={c0} a={a} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(DependenceTest::<i128>::name(&FourierMotzkin::real()), "fourier-motzkin");
        assert_eq!(
            DependenceTest::<i128>::name(&FourierMotzkin::tightened()),
            "fourier-motzkin+tighten"
        );
    }
}
