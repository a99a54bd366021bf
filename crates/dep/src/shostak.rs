//! Shostak's loop residue method (Shostak 1981; Burke–Cytron 1986).
//!
//! Decides real feasibility of conjunctions of two-variable inequalities
//! `a·x + b·y ≤ c` by building a graph (one vertex per variable plus a
//! vertex for the constant zero) and combining constraints along *loops*:
//! chaining successive constraints with opposite-sign coefficients on the
//! shared variable eliminates it; a closed loop leaves a residue inequality
//! over a single variable (or over no variables), and contradictory
//! residues prove infeasibility. The method is real-valued, so — as the
//! paper notes — it cannot disprove the motivating linearized example, and
//! in our framework it is not even applicable to it (the equation has four
//! variables).
//!
//! Implementation notes: chains that return to the zero vertex are derived
//! single-variable bounds `a·x ≤ c`; after enumerating (budgeted) simple
//! paths we intersect, per variable, the strongest derived lower and upper
//! bounds as exact rationals, and report independence when they cross.
//! Loops that close directly at a variable with exact coefficient
//! cancellation contribute `0 ≤ c` residues; with partial cancellation they
//! contribute further derived bounds.

use crate::problem::DependenceProblem;
use crate::verdict::{DependenceTest, Verdict};
use delin_numeric::Rational;

/// Shostak's loop-residue dependence test.
#[derive(Debug, Clone)]
pub struct ShostakTest {
    /// Budget on explored path extensions, bounding the (worst-case
    /// exponential) simple-path enumeration.
    pub path_budget: usize,
}

impl Default for ShostakTest {
    fn default() -> Self {
        ShostakTest { path_budget: 200_000 }
    }
}

/// A two-variable inequality `a·x + b·y ≤ c`; `y` may be the zero vertex
/// (with `b == 0`).
#[derive(Debug, Clone, Copy)]
struct Constraint {
    x: usize,
    a: i128,
    y: usize,
    b: i128,
    c: i128,
}

/// Converts the problem into two-variable `≤` constraints; `None` when some
/// constraint involves three or more variables.
fn constraints(problem: &DependenceProblem<i128>) -> Option<(Vec<Constraint>, bool)> {
    let n = problem.num_vars();
    let zero = n;
    let mut out = Vec::new();
    let mut contradiction = false;
    for (k, v) in problem.vars().iter().enumerate() {
        out.push(Constraint { x: k, a: 1, y: zero, b: 0, c: v.upper });
        out.push(Constraint { x: k, a: -1, y: zero, b: 0, c: 0 });
    }
    let mut add = |c0: i128, coeffs: &[i128], is_eq: bool| -> Option<()> {
        let active: Vec<usize> =
            coeffs.iter().enumerate().filter(|(_, &c)| c != 0).map(|(k, _)| k).collect();
        // Equation e = 0 splits into Σ c·z ≤ −c0 and Σ −c·z ≤ c0;
        // inequality e ≥ 0 gives Σ −c·z ≤ c0.
        let (x, a, y, b) = match active.len() {
            0 => {
                if (is_eq && c0 != 0) || (!is_eq && c0 < 0) {
                    contradiction = true;
                }
                return Some(());
            }
            1 => (active[0], coeffs[active[0]], zero, 0),
            2 => (active[0], coeffs[active[0]], active[1], coeffs[active[1]]),
            _ => return None,
        };
        // Negating `i128::MIN` has no answer: the problem is undecided.
        let (na, nb) = (a.checked_neg()?, b.checked_neg()?);
        if is_eq {
            out.push(Constraint { x, a, y, b, c: c0.checked_neg()? });
            out.push(Constraint { x, a: na, y, b: nb, c: c0 });
        } else {
            out.push(Constraint { x, a: na, y, b: nb, c: c0 });
        }
        Some(())
    };
    for eq in problem.equations() {
        add(eq.c0, &eq.coeffs, true)?;
    }
    for iq in problem.inequalities() {
        add(iq.c0, &iq.coeffs, false)?;
    }
    Some((out, contradiction))
}

/// A chain along a path: accumulated inequality
/// `first_coeff·x_first + cur_coeff·x_cur ≤ c`.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first_vertex: usize,
    first_coeff: i128,
    cur_vertex: usize,
    cur_coeff: i128,
    c: i128,
}

struct Enumerator<'a> {
    adj: Vec<Vec<usize>>,
    cons: &'a [Constraint],
    zero: usize,
    budget: usize,
    contradiction: bool,
    /// Derived single-variable bounds `a·x ≤ c` (a ≠ 0).
    derived: Vec<(usize, i128, i128)>,
}

impl Enumerator<'_> {
    fn run(&mut self) {
        let num_vertices = self.adj.len();
        for start in 0..num_vertices {
            if start == self.zero {
                continue;
            }
            for ci in 0..self.adj[start].len() {
                let k = self.cons[self.adj[start][ci]];
                let (sc, ev, ec) = if k.x == start { (k.a, k.y, k.b) } else { (k.b, k.x, k.a) };
                if sc == 0 {
                    continue;
                }
                let chain = Chain {
                    first_vertex: start,
                    first_coeff: sc,
                    cur_vertex: ev,
                    cur_coeff: ec,
                    c: k.c,
                };
                let mut visited = vec![false; num_vertices];
                visited[start] = true;
                self.extend(chain, &mut visited);
                if self.contradiction || self.budget == 0 {
                    return;
                }
            }
        }
    }

    fn extend(&mut self, chain: Chain, visited: &mut [bool]) {
        if self.contradiction || self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // Reached the zero vertex: the chain is a derived bound
        // `first_coeff·x_first ≤ c` (the zero vertex contributes nothing).
        if chain.cur_vertex == self.zero {
            self.derived.push((chain.first_vertex, chain.first_coeff, chain.c));
            return;
        }
        // Closed loop at the start vertex.
        if chain.cur_vertex == chain.first_vertex {
            let total = chain.first_coeff.checked_add(chain.cur_coeff);
            match total {
                Some(0) if chain.c < 0 => self.contradiction = true,
                Some(0) | None => {}
                Some(t) => self.derived.push((chain.first_vertex, t, chain.c)),
            }
            return;
        }
        let v = chain.cur_vertex;
        if visited[v] || chain.cur_coeff == 0 {
            return;
        }
        visited[v] = true;
        for ci in 0..self.adj[v].len() {
            let k = self.cons[self.adj[v][ci]];
            let (a2, other, b2) = if k.x == v { (k.a, k.y, k.b) } else { (k.b, k.x, k.a) };
            // Chain only when the shared variable cancels (opposite signs).
            if a2 == 0 || (a2 > 0) == (chain.cur_coeff > 0) {
                continue;
            }
            let next = (|| {
                // |MIN| = 2^127 does not fit: no chain, like any overflow.
                let m1 = a2.checked_abs()?;
                let m2 = chain.cur_coeff.checked_abs()?;
                Some(Chain {
                    first_vertex: chain.first_vertex,
                    first_coeff: chain.first_coeff.checked_mul(m1)?,
                    cur_vertex: other,
                    cur_coeff: b2.checked_mul(m2)?,
                    c: chain.c.checked_mul(m1)?.checked_add(k.c.checked_mul(m2)?)?,
                })
            })();
            if let Some(next) = next {
                self.extend(next, visited);
            }
            if self.contradiction || self.budget == 0 {
                break;
            }
        }
        visited[v] = false;
    }

    /// Intersects the derived per-variable bounds; `true` on contradiction.
    fn bounds_contradict(&self) -> bool {
        let n = self.adj.len();
        let mut lower: Vec<Option<Rational>> = vec![None; n];
        let mut upper: Vec<Option<Rational>> = vec![None; n];
        for &(v, a, c) in &self.derived {
            let Ok(bound) = Rational::new(c, a) else { continue };
            if a > 0 {
                // x ≤ c/a
                upper[v] = Some(match upper[v] {
                    None => bound,
                    Some(u) => u.min(bound),
                });
            } else {
                // x ≥ c/a
                lower[v] = Some(match lower[v] {
                    None => bound,
                    Some(l) => l.max(bound),
                });
            }
        }
        (0..n).any(|v| matches!((lower[v], upper[v]), (Some(l), Some(u)) if l > u))
    }
}

impl DependenceTest<i128> for ShostakTest {
    fn name(&self) -> &'static str {
        "shostak"
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        if problem.vars().iter().any(|v| v.upper < 0) {
            return Verdict::Independent;
        }
        let Some((cons, direct_contradiction)) = constraints(problem) else {
            return Verdict::Unknown;
        };
        if direct_contradiction {
            return Verdict::Independent;
        }
        let zero = problem.num_vars();
        let mut adj = vec![Vec::new(); zero + 1];
        for (i, c) in cons.iter().enumerate() {
            adj[c.x].push(i);
            if c.y != c.x {
                adj[c.y].push(i);
            }
        }
        let mut e = Enumerator {
            adj,
            cons: &cons,
            zero,
            budget: self.path_budget,
            contradiction: false,
            derived: Vec::new(),
        };
        e.run();
        if e.contradiction || e.bounds_contradict() {
            Verdict::Independent
        } else {
            // Real-feasible (or budget exhausted): cannot disprove.
            Verdict::maybe_dependent()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirvec::Dir;

    #[test]
    fn no_independence_claim_on_overflow() {
        // z1 + (2^127 − 1)·z2 − 2^127 = 0 over [0, 1]², which (1, 1) solves:
        // −c0 = 2^127 wrapped to −2^127.
        let p = DependenceProblem::single_equation(i128::MIN, vec![1, i128::MAX], vec![1, 1]);
        assert!(p.is_solution(&[1, 1]).unwrap());
        assert!(matches!(ShostakTest::default().test(&p), Verdict::Unknown));
    }

    #[test]
    fn detects_real_infeasibility() {
        // x - y = 100 over [0,4]²: upper bounds give x - y ≤ 4 < 100.
        let p = DependenceProblem::single_equation(-100, vec![1, -1], vec![4, 4]);
        assert!(ShostakTest::default().test(&p).is_independent());
    }

    #[test]
    fn feasible_systems_stay_maybe() {
        let p = DependenceProblem::single_equation(-1, vec![1, -1], vec![8, 8]);
        assert!(ShostakTest::default().test(&p).is_dependent());
    }

    #[test]
    fn handles_scaled_two_var_constraints() {
        // 2x - 3y = 50 over [0,4]²: max of 2x-3y is 8 < 50: real-infeasible.
        let p = DependenceProblem::single_equation(-50, vec![2, -3], vec![4, 4]);
        assert!(ShostakTest::default().test(&p).is_independent());
        // 3x + 3y = -3 over [0,4]²: lhs >= 0 > -3: real-infeasible.
        let p = DependenceProblem::single_equation(3, vec![3, 3], vec![4, 4]);
        assert!(ShostakTest::default().test(&p).is_independent());
    }

    #[test]
    fn integer_gaps_are_invisible() {
        // 2x = 7 over [0,4]: real solution x = 3.5 exists, so Shostak
        // cannot disprove (it is a real-valued technique).
        let p = DependenceProblem::single_equation(-7, vec![2], vec![4]);
        assert!(ShostakTest::default().test(&p).is_dependent());
    }

    #[test]
    fn inapplicable_to_motivating_example() {
        let p = DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9]);
        assert!(ShostakTest::default().test(&p).is_unknown());
    }

    #[test]
    fn respects_direction_constraints() {
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("x", 8);
        let y = b.var("y", 8);
        b.equation(0, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build().with_direction(0, Dir::Lt).unwrap();
        assert!(ShostakTest::default().test(&p).is_independent());
    }

    #[test]
    fn constant_contradiction() {
        let p = DependenceProblem::single_equation(5, vec![0, 0], vec![3, 3]);
        assert!(ShostakTest::default().test(&p).is_independent());
    }

    #[test]
    fn agrees_with_real_feasibility_on_two_var_family() {
        // For a single equation a·x + b·y + c0 = 0 over a box, Shostak's
        // verdict must match real feasibility exactly (it is complete for
        // conjunctions of two-variable constraints).
        for a in [-3i128, -1, 2] {
            for b in [-2i128, 1, 4] {
                for c0 in -30i128..=30 {
                    let p = DependenceProblem::single_equation(c0, vec![a, b], vec![4, 5]);
                    // Real feasibility: min/max of a·x + b·y + c0 over the box.
                    let vals = [c0, c0 + a * 4, c0 + b * 5, c0 + a * 4 + b * 5];
                    let feasible =
                        *vals.iter().min().unwrap() <= 0 && *vals.iter().max().unwrap() >= 0;
                    let got = ShostakTest::default().test(&p);
                    if feasible {
                        assert!(got.is_dependent(), "a={a} b={b} c0={c0}");
                    } else {
                        assert!(got.is_independent(), "a={a} b={b} c0={c0}");
                    }
                }
            }
        }
    }

    #[test]
    fn name() {
        assert_eq!(DependenceTest::<i128>::name(&ShostakTest::default()), "shostak");
    }
}
