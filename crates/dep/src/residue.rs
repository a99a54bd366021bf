//! The Simple Loop Residue test (Maydan–Hennessy–Lam 1991).
//!
//! Applicable when every constraint is a *difference* constraint
//! `x − y = c`, `x = c`, or comes from the variable bounds. The constraints
//! are turned into a graph with one node per variable plus a zero node and
//! one weighted edge per inequality `x − y ≤ c`; a negative-weight cycle
//! (a "loop" with negative "residue") proves infeasibility. Because
//! difference-constraint systems are totally unimodular, the real
//! relaxation is exact over the integers, so both answers are exact within
//! the applicability domain.

use crate::problem::DependenceProblem;
use crate::verdict::{DependenceInfo, DependenceTest, Verdict};

/// The Simple Loop Residue dependence test.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopResidueTest;

/// A difference constraint `u − v ≤ w` encoded as edge `v → u` with
/// weight `w` (Bellman–Ford convention: `d[u] ≤ d[v] + w`).
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    weight: i128,
}

/// Extracts difference constraints; `None` when some constraint is not a
/// difference form.
fn difference_edges(problem: &DependenceProblem<i128>) -> Option<Vec<Edge>> {
    let n = problem.num_vars();
    let zero = n; // extra node representing the constant 0
    let mut edges = Vec::new();
    // Bounds: 0 ≤ x ≤ U  ⇒  x − 0 ≤ U and 0 − x ≤ 0.
    for (k, v) in problem.vars().iter().enumerate() {
        edges.push(Edge { from: zero, to: k, weight: v.upper });
        edges.push(Edge { from: k, to: zero, weight: 0 });
    }
    let push_le = |edges: &mut Vec<Edge>, x: usize, y: usize, c: i128| {
        // x − y ≤ c
        edges.push(Edge { from: y, to: x, weight: c });
    };
    let handle = |edges: &mut Vec<Edge>, c0: i128, coeffs: &[i128], is_eq: bool| -> bool {
        let active: Vec<usize> =
            coeffs.iter().enumerate().filter(|(_, &c)| c != 0).map(|(k, _)| k).collect();
        match active.len() {
            0 => {
                if is_eq && c0 != 0 {
                    // 0 = c0 ≠ 0: encode an immediate contradiction as a
                    // negative self-loop on the zero node.
                    edges.push(Edge { from: zero, to: zero, weight: -1 });
                }
                if !is_eq && c0 < 0 {
                    edges.push(Edge { from: zero, to: zero, weight: -1 });
                }
                true
            }
            1 => {
                let k = active[0];
                let a = coeffs[k];
                if a.unsigned_abs() != 1 {
                    return false;
                }
                // a·x + c0 = 0  ⇒  x = -c0/a; as two ≤ constraints vs zero.
                // a·x + c0 ≥ 0  ⇒  x ≥ -c0 (a=1) or x ≤ c0 (a=-1).
                if is_eq {
                    // `−MIN` has no edge weight: not applicable.
                    let Some((v, neg_v)) = c0.checked_neg().zip(c0.checked_mul(a)) else {
                        return false;
                    };
                    push_le(edges, k, zero, v * a);
                    push_le(edges, zero, k, neg_v);
                } else if a == 1 {
                    // x ≥ -c0 ⇔ 0 - x ≤ c0
                    push_le(edges, zero, k, c0);
                } else {
                    // -x + c0 ≥ 0 ⇔ x ≤ c0
                    push_le(edges, k, zero, c0);
                }
                true
            }
            2 => {
                let (x, y) = (active[0], active[1]);
                let (a, b) = (coeffs[x], coeffs[y]);
                // Must be x − y + c0 (= | ≥) 0 up to overall sign.
                let (x, y, c0) = if a == 1 && b == -1 {
                    (x, y, c0)
                } else if a == -1 && b == 1 {
                    (y, x, c0)
                } else {
                    return false;
                };
                // x − y + c0 = 0 ⇒ x − y ≤ -c0 and y − x ≤ c0.
                // x − y + c0 ≥ 0 ⇒ y − x ≤ c0.
                push_le(edges, y, x, c0);
                if is_eq {
                    let Some(neg_c0) = c0.checked_neg() else {
                        return false;
                    };
                    push_le(edges, x, y, neg_c0);
                }
                true
            }
            _ => false,
        }
    };
    for eq in problem.equations() {
        if !handle(&mut edges, eq.c0, &eq.coeffs, true) {
            return None;
        }
    }
    for iq in problem.inequalities() {
        if !handle(&mut edges, iq.c0, &iq.coeffs, false) {
            return None;
        }
    }
    Some(edges)
}

/// Bellman–Ford: `Some(potentials)` when no negative cycle exists.
fn feasible_potentials(num_nodes: usize, edges: &[Edge]) -> Option<Vec<i128>> {
    let mut dist = vec![0i128; num_nodes];
    for _ in 0..num_nodes {
        let mut changed = false;
        for e in edges {
            let cand = dist[e.from].saturating_add(e.weight);
            if cand < dist[e.to] {
                dist[e.to] = cand;
                changed = true;
            }
        }
        if !changed {
            return Some(dist);
        }
    }
    // One more pass: any further relaxation implies a negative cycle.
    for e in edges {
        if dist[e.from].saturating_add(e.weight) < dist[e.to] {
            return None;
        }
    }
    Some(dist)
}

impl DependenceTest<i128> for LoopResidueTest {
    fn name(&self) -> &'static str {
        "loop-residue"
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        if problem.vars().iter().any(|v| v.upper < 0) {
            return Verdict::Independent;
        }
        let Some(edges) = difference_edges(problem) else {
            return Verdict::Unknown;
        };
        let n = problem.num_vars();
        match feasible_potentials(n + 1, &edges) {
            None => Verdict::Independent,
            Some(dist) => {
                // Shift potentials so the zero node sits at 0; the result
                // solves every difference constraint.
                let base = dist[n];
                let witness: Vec<i128> = (0..n).map(|k| dist[k] - base).collect();
                match problem.is_solution(&witness) {
                    Ok(true) => Verdict::Dependent {
                        exact: true,
                        info: DependenceInfo {
                            witness: Some(witness),
                            ..DependenceInfo::default()
                        },
                    },
                    _ => Verdict::Dependent { exact: false, info: DependenceInfo::default() },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirvec::Dir;
    use crate::exact::{ExactSolver, SolveOutcome};

    #[test]
    fn i128_min_is_unknown() {
        // |MIN| does not fit, so MIN is no unit coefficient; and −c0 = 2^127
        // is no edge weight.
        for (c0, coeffs) in
            [(0, vec![i128::MIN, 0]), (i128::MIN, vec![1, 0]), (i128::MIN, vec![1, -1])]
        {
            let p = DependenceProblem::single_equation(c0, coeffs, vec![1, 1]);
            assert!(matches!(LoopResidueTest.test(&p), Verdict::Unknown), "{p}");
        }
    }

    #[test]
    fn difference_chain() {
        // x - y = 3, y - z = 4, bounds [0,5]: x = z + 7 > 5: infeasible.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 5);
        b.var("y", 5);
        b.var("z", 5);
        b.equation(-3, vec![1, -1, 0]);
        b.equation(-4, vec![0, 1, -1]);
        let p = b.build();
        assert!(LoopResidueTest.test(&p).is_independent());
        // x - y = 3, y - z = 2: feasible (x=5,y=2,z=0).
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 5);
        b.var("y", 5);
        b.var("z", 5);
        b.equation(-3, vec![1, -1, 0]);
        b.equation(-2, vec![0, 1, -1]);
        let p = b.build();
        match LoopResidueTest.test(&p) {
            Verdict::Dependent { exact, info } => {
                assert!(exact);
                assert!(p.is_solution(&info.witness.unwrap()).unwrap());
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn works_with_direction_inequalities() {
        // x - y = 0 with direction `<` (y - x - 1 >= 0) is infeasible.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("x", 8);
        let y = b.var("y", 8);
        b.equation(0, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build().with_direction(0, Dir::Lt).unwrap();
        assert!(LoopResidueTest.test(&p).is_independent());
    }

    #[test]
    fn inapplicable_shapes() {
        // Coefficient 10 is not a difference constraint.
        let p = DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9]);
        assert!(LoopResidueTest.test(&p).is_unknown());
        // Same-sign pair x + y = 2.
        let p = DependenceProblem::single_equation(-2, vec![1, 1], vec![5, 5]);
        assert!(LoopResidueTest.test(&p).is_unknown());
    }

    #[test]
    fn constant_contradictions() {
        let p = DependenceProblem::single_equation(7, vec![0, 0], vec![5, 5]);
        assert!(LoopResidueTest.test(&p).is_independent());
    }

    #[test]
    fn agrees_with_exact_on_difference_systems() {
        let solver = ExactSolver::default();
        for c1 in -7i128..=7 {
            for c2 in -7i128..=7 {
                let mut b = DependenceProblem::<i128>::builder();
                b.var("x", 4);
                b.var("y", 6);
                b.var("z", 3);
                b.equation(-c1, vec![1, -1, 0]);
                b.equation(-c2, vec![0, -1, 1]);
                let p = b.build();
                let got = LoopResidueTest.test(&p);
                match solver.solve(&p) {
                    SolveOutcome::Solution(_) => {
                        assert!(got.is_dependent(), "c1={c1} c2={c2}")
                    }
                    SolveOutcome::NoSolution => {
                        assert!(got.is_independent(), "c1={c1} c2={c2}")
                    }
                    SolveOutcome::Degraded(_) => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn single_var_equations() {
        // x = 3 within [0,5] plus x = 3 again: fine.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 5);
        b.equation(-3, vec![1]);
        b.equation(-3, vec![1]);
        let p = b.build();
        assert!(LoopResidueTest.test(&p).is_dependent());
        // x = 7 out of bounds: infeasible.
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 5);
        b.equation(-7, vec![1]);
        let p = b.build();
        assert!(LoopResidueTest.test(&p).is_independent());
    }

    #[test]
    fn name() {
        assert_eq!(DependenceTest::<i128>::name(&LoopResidueTest), "loop-residue");
    }
}
