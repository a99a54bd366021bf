//! Banerjee inequalities (Banerjee 1988; Wolfe–Banerjee 1987).
//!
//! For each equation the test computes the exact minimum and maximum of the
//! left-hand side over the *real* relaxation of the iteration box (optionally
//! restricted by a direction predicate per common loop) and reports
//! independence when `0` lies outside `[min, max]`. Because the relaxation
//! is real-valued, the test cannot disprove the paper's motivating
//! linearized example, whose equation has real but no integer solutions.
//!
//! Our implementation evaluates the linear form on the *vertices* of the
//! constrained box, which is exact for linear objectives over convex
//! polytopes; the direction-restricted regions (`x < y` etc.) are triangles
//! and trapezoids whose vertices are written in terms of the loop bound.

use crate::dirvec::Dir;
use crate::problem::{DependenceProblem, LinEq};
use crate::verdict::{DependenceTest, Verdict};
use delin_numeric::{Assumptions, Coeff, NumericError};
use std::cell::OnceCell;

/// The Banerjee-inequalities dependence test (all directions `*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct BanerjeeTest;

/// A *candidate set* representation of a range end: the true minimum
/// (resp. maximum) of the region is one of the candidates, but symbolic
/// comparisons may not determine which. Sign conclusions therefore
/// quantify over the whole set: `min > 0` holds when *every* candidate is
/// provably positive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateRange<C> {
    /// Candidates for the minimum.
    pub min: Vec<C>,
    /// Candidates for the maximum.
    pub max: Vec<C>,
}

/// Candidate-set growth cap; larger sets degrade to "unknown".
const MAX_CANDIDATES: usize = 8;

impl<C: Coeff> CandidateRange<C> {
    fn point(c: C) -> CandidateRange<C> {
        CandidateRange { min: vec![c.clone()], max: vec![c] }
    }

    /// Minkowski sum of two candidate ranges (pairwise sums, reduced).
    fn add(&self, other: &CandidateRange<C>, a: &Assumptions) -> Option<CandidateRange<C>> {
        let sum = |xs: &[C], ys: &[C], keep_min: bool| -> Option<Vec<C>> {
            let mut out = Vec::new();
            for x in xs {
                for y in ys {
                    out.push(x.checked_add(y).ok()?);
                }
            }
            Some(reduce_candidates(out, keep_min, a))
        };
        let min = sum(&self.min, &other.min, true)?;
        let max = sum(&self.max, &other.max, false)?;
        if min.len() > MAX_CANDIDATES || max.len() > MAX_CANDIDATES {
            return None;
        }
        Some(CandidateRange { min, max })
    }

    /// Every minimum candidate is provably `> 0`.
    pub fn min_positive(&self, a: &Assumptions) -> bool {
        self.min.iter().all(|c| c.is_pos(a).is_true())
    }

    /// Every maximum candidate is provably `< 0`.
    pub fn max_negative(&self, a: &Assumptions) -> bool {
        self.max.iter().all(|c| c.checked_neg().map(|n| n.is_pos(a).is_true()).unwrap_or(false))
    }

    /// Every candidate's sign is decidable (used to distinguish a definite
    /// "maybe dependent" from an honest "unknown").
    pub fn signs_known(&self, a: &Assumptions) -> bool {
        self.min.iter().chain(&self.max).all(|c| c.sign(a).is_some())
    }
}

/// Drops candidates dominated by another candidate (for MIN: any value
/// provably `≥` a kept one is redundant; for MAX: provably `≤`).
fn reduce_candidates<C: Coeff>(vals: Vec<C>, keep_min: bool, a: &Assumptions) -> Vec<C> {
    let mut kept: Vec<C> = Vec::new();
    'next: for v in vals {
        for u in &kept {
            let dominated = if keep_min { u.le(&v, a) } else { v.le(u, a) };
            if dominated.is_true() {
                continue 'next; // v is redundant
            }
        }
        // v survives; drop previously-kept values it dominates.
        kept.retain(|u| {
            let dominated = if keep_min { v.le(u, a) } else { u.le(&v, a) };
            !dominated.is_true()
        });
        kept.push(v);
    }
    kept
}

/// Outcome of a range computation for one equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquationRange<C> {
    /// Candidate `[min, max]` range of the LHS over the constrained region.
    Range(CandidateRange<C>),
    /// The constrained region itself is empty (e.g. direction `<` on a
    /// zero-trip loop): the equation is vacuously unsatisfiable.
    EmptyRegion,
}

/// A corner coordinate expressed in terms of a loop bound `Z`.
#[derive(Debug, Clone, Copy)]
enum Coord {
    Zero,
    One,
    Bound,
    BoundMinus1,
}

impl Coord {
    fn eval<C: Coeff>(self, z: &C) -> Result<C, NumericError> {
        match self {
            Coord::Zero => Ok(C::zero()),
            Coord::One => Ok(C::one()),
            Coord::Bound => Ok(z.clone()),
            Coord::BoundMinus1 => z.checked_sub(&C::one()),
        }
    }
}

/// How direction predicates are turned into regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionMode {
    /// Classical integer-sharpened bounds: `<` means `x ≤ y − 1`
    /// (Banerjee 1988). Sharper; exploits integrality of the iteration
    /// variables.
    IntegerSharp,
    /// Real relaxation: `<` is closed to `x ≤ y`. This is the behaviour
    /// the paper ascribes to the Banerjee inequalities — "return dependent
    /// if there are real solutions".
    Real,
    /// Classical practice (Goff–Kennedy–Tseng): integer-sharp regions for
    /// single-index (≤ 2 active variable) equations — where exact SIV
    /// tests apply — and the real relaxation for coupled multi-index
    /// equations. Used by the classical-battery baseline.
    Hybrid,
}

/// Vertices of `{0 ≤ x ≤ Z, 0 ≤ y ≤ Z} ∩ dir(x, y)`, or `None` for the
/// non-convex `≠` (handled by unioning `<` and `>`).
fn corners(dir: Dir, mode: DirectionMode) -> Option<&'static [(Coord, Coord)]> {
    use Coord::*;
    let dir = match (mode, dir) {
        (DirectionMode::Real, Dir::Lt) => Dir::Le,
        (DirectionMode::Real, Dir::Gt) => Dir::Ge,
        (DirectionMode::Real, Dir::Ne) => Dir::Any,
        (_, d) => d,
    };
    match dir {
        Dir::Any => Some(&[(Zero, Zero), (Zero, Bound), (Bound, Zero), (Bound, Bound)]),
        Dir::Lt => Some(&[(Zero, One), (Zero, Bound), (BoundMinus1, Bound)]),
        Dir::Gt => Some(&[(One, Zero), (Bound, Zero), (Bound, BoundMinus1)]),
        Dir::Eq => Some(&[(Zero, Zero), (Bound, Bound)]),
        Dir::Le => Some(&[(Zero, Zero), (Zero, Bound), (Bound, Bound)]),
        Dir::Ge => Some(&[(Zero, Zero), (Bound, Zero), (Bound, Bound)]),
        Dir::Ne => None,
    }
}

/// Computes `[min, max]` of `cx·x + cy·y` over the direction-constrained
/// square `[0,Z]²`, or detects an empty region. Returns `None` when a
/// symbolic comparison cannot be decided.
fn pair_range<C: Coeff>(
    cx: &C,
    cy: &C,
    z: &C,
    dir: Dir,
    mode: DirectionMode,
    problem: &DependenceProblem<C>,
) -> Option<EquationRange<C>> {
    let a = problem.assumptions();
    // Region emptiness: Lt/Gt need Z >= 1; everything else needs Z >= 0,
    // which normalization guarantees (a zero-trip loop is Z < 0 and is
    // caught by the caller). When positivity is undecidable the corner
    // range below remains valid *conditionally on non-emptiness*, and every
    // conclusion drawn from it (zero excluded ⇒ unsatisfiable under this
    // direction) is vacuously true for the empty case — so we proceed.
    if matches!(dir, Dir::Lt | Dir::Gt | Dir::Ne) {
        match z.is_pos(a) {
            delin_numeric::Trilean::False => return Some(EquationRange::EmptyRegion),
            delin_numeric::Trilean::Unknown | delin_numeric::Trilean::True => {}
        }
    }
    let (first, second) = match corners(dir, mode) {
        Some(cs) => (cs, &[][..]),
        None => (corners(Dir::Lt, mode).unwrap(), corners(Dir::Gt, mode).unwrap()),
    };
    let mut values: Vec<C> = Vec::with_capacity(first.len() + second.len());
    for &(xc, yc) in first.iter().chain(second) {
        let x = xc.eval(z).ok()?;
        let y = yc.eval(z).ok()?;
        let v = cx.checked_mul(&x).ok()?.checked_add(&cy.checked_mul(&y).ok()?).ok()?;
        values.push(v);
    }
    let min = reduce_candidates(values.clone(), true, a);
    let max = reduce_candidates(values, false, a);
    if min.is_empty() || max.is_empty() || min.len() > MAX_CANDIDATES || max.len() > MAX_CANDIDATES
    {
        return None;
    }
    Some(EquationRange::Range(CandidateRange { min, max }))
}

/// The contribution of a free variable's term `c·z`, `z ∈ [0, Z]`: the
/// interval between `0` and `c·Z`, only one end of which moves.
fn free_contribution<C: Coeff>(c: &C, z: &C, a: &Assumptions) -> Option<CandidateRange<C>> {
    let span = c.checked_mul(z).ok()?;
    Some(if span.is_nonneg(a).is_true() {
        CandidateRange { min: vec![C::zero()], max: vec![span] }
    } else if span.checked_neg().ok()?.is_nonneg(a).is_true() {
        CandidateRange { min: vec![span], max: vec![C::zero()] }
    } else {
        // Sign unknown: the contribution is between span and 0, in an
        // unknown order — exactly what candidate sets express.
        CandidateRange { min: vec![C::zero(), span.clone()], max: vec![C::zero(), span] }
    })
}

/// Computes the Banerjee `[min, max]` range of one equation's LHS under the
/// direction predicates `dirs` (indexed by common-loop level; missing
/// levels default to `*`). Returns `None` when a symbolic quantity cannot
/// be compared.
pub fn equation_range<C: Coeff>(
    problem: &DependenceProblem<C>,
    eq: &LinEq<C>,
    dirs: &[Dir],
) -> Option<EquationRange<C>> {
    equation_range_mode(problem, eq, dirs, DirectionMode::IntegerSharp)
}

/// [`equation_range`] with an explicit [`DirectionMode`].
pub fn equation_range_mode<C: Coeff>(
    problem: &DependenceProblem<C>,
    eq: &LinEq<C>,
    dirs: &[Dir],
    mode: DirectionMode,
) -> Option<EquationRange<C>> {
    BanerjeeWalk::once(problem, mode).equation_range(None, eq, dirs)
}

/// Applies the Banerjee inequalities to every equation under direction
/// predicates; `Verdict::Independent` when any equation excludes zero.
pub fn test_with_directions<C: Coeff>(problem: &DependenceProblem<C>, dirs: &[Dir]) -> Verdict {
    test_with_directions_mode(problem, dirs, DirectionMode::IntegerSharp)
}

/// [`test_with_directions`] with an explicit [`DirectionMode`].
pub fn test_with_directions_mode<C: Coeff>(
    problem: &DependenceProblem<C>,
    dirs: &[Dir],
    mode: DirectionMode,
) -> Verdict {
    BanerjeeWalk::once(problem, mode).test(dirs)
}

/// The directions a hierarchy walk asks about, in table-slot order.
const WALK_DIRS: [Dir; 4] = [Dir::Any, Dir::Lt, Dir::Eq, Dir::Gt];

/// The Banerjee test bound to one problem for the length of one direction
/// walk (`hierarchy::banerjee_atomic_vectors`).
///
/// A walk asks about many direction vectors, and each one differs from
/// the last in a level or two. The walk therefore computes each
/// `(equation, common level, direction)` pair range, and each free
/// variable's contribution, at most once, on first use. Every query still
/// sums its ranges in the order [`test_with_directions_mode`] does (the
/// point `c0`, then the levels ascending, then the free variables), so
/// every candidate range and verdict equals a fresh call's.
pub struct BanerjeeWalk<'p, C> {
    problem: &'p DependenceProblem<C>,
    mode: DirectionMode,
    /// Whether some loop runs zero times, emptying the iteration space.
    empty: OnceCell<bool>,
    /// Pair ranges at `(equation × levels + level) × 4 + slot`, the slot
    /// indexing [`WALK_DIRS`]; empty for a one-shot query.
    pairs: Vec<OnceCell<Option<EquationRange<C>>>>,
    /// Free-variable contributions at `equation × vars + var`; empty for a
    /// one-shot query.
    free: Vec<OnceCell<Option<CandidateRange<C>>>>,
}

impl<'p, C: Coeff> BanerjeeWalk<'p, C> {
    /// A walk over `problem` whose regions follow `mode`.
    pub fn new(problem: &'p DependenceProblem<C>, mode: DirectionMode) -> BanerjeeWalk<'p, C> {
        let eqs = problem.equations().len();
        let pairs = eqs * problem.common_loops().len() * WALK_DIRS.len();
        BanerjeeWalk {
            pairs: (0..pairs).map(|_| OnceCell::new()).collect(),
            free: (0..eqs * problem.num_vars()).map(|_| OnceCell::new()).collect(),
            ..BanerjeeWalk::once(problem, mode)
        }
    }

    /// A single query's walk: nothing is memoized.
    fn once(problem: &'p DependenceProblem<C>, mode: DirectionMode) -> BanerjeeWalk<'p, C> {
        BanerjeeWalk { problem, mode, empty: OnceCell::new(), pairs: Vec::new(), free: Vec::new() }
    }

    /// The number of pair ranges this walk has computed and kept.
    #[cfg(test)]
    pub(crate) fn pair_ranges_computed(&self) -> usize {
        self.pairs.iter().filter(|cell| cell.get().is_some()).count()
    }

    /// [`test_with_directions_mode`] on the walk's problem and mode.
    pub fn test(&self, dirs: &[Dir]) -> Verdict {
        let problem = self.problem;
        let a = problem.assumptions();
        // `≠` is not convex: split it into `<` and `>` and combine — the
        // equation is unsatisfiable under `≠` iff it is under both pieces.
        if let Some(l) = dirs.iter().position(|d| *d == Dir::Ne) {
            let mut lt = dirs.to_vec();
            lt[l] = Dir::Lt;
            let mut gt = dirs.to_vec();
            gt[l] = Dir::Gt;
            return match (self.test(&lt), self.test(&gt)) {
                (Verdict::Independent, Verdict::Independent) => Verdict::Independent,
                (v @ Verdict::Dependent { .. }, _) | (_, v @ Verdict::Dependent { .. }) => v,
                _ => Verdict::Unknown,
            };
        }
        // A zero-trip loop anywhere makes the whole iteration space empty.
        let empty = *self
            .empty
            .get_or_init(|| problem.vars().iter().any(|v| v.upper.is_nonneg(a).is_false()));
        if empty {
            return Verdict::Independent;
        }
        let mut all_ranges_known = true;
        for (e, eq) in problem.equations().iter().enumerate() {
            match self.equation_range(Some(e), eq, dirs) {
                Some(EquationRange::EmptyRegion) => return Verdict::Independent,
                Some(EquationRange::Range(r)) => {
                    if r.min_positive(a) || r.max_negative(a) {
                        return Verdict::Independent;
                    }
                    if !r.signs_known(a) {
                        all_ranges_known = false;
                    }
                }
                None => all_ranges_known = false,
            }
        }
        if all_ranges_known {
            Verdict::maybe_dependent()
        } else {
            Verdict::Unknown
        }
    }

    /// The range of `eq` under `dirs`, memoized under the problem's
    /// equation `row` when there is one.
    fn equation_range(
        &self,
        row: Option<usize>,
        eq: &LinEq<C>,
        dirs: &[Dir],
    ) -> Option<EquationRange<C>> {
        let problem = self.problem;
        let a = problem.assumptions();
        // Resolve the hybrid mode per equation.
        let mode = match self.mode {
            DirectionMode::Hybrid => {
                if eq.num_active_vars() <= 2 {
                    DirectionMode::IntegerSharp
                } else {
                    DirectionMode::Real
                }
            }
            m => m,
        };
        let common = problem.common_loops();
        let mut range = CandidateRange::point(eq.c0.clone());
        for (level, &(x, y)) in common.iter().enumerate() {
            let dir = dirs.get(level).copied().unwrap_or(Dir::Any);
            let cx = &eq.coeffs[x];
            let cy = &eq.coeffs[y];
            if cx.is_zero() && cy.is_zero() && dir == Dir::Any {
                continue;
            }
            let cell = row.zip(WALK_DIRS.iter().position(|d| *d == dir)).and_then(|(e, slot)| {
                self.pairs.get((e * common.len() + level) * WALK_DIRS.len() + slot)
            });
            let mut fresh = None;
            let pair = memo(cell, &mut fresh, || {
                pair_range(cx, cy, &problem.vars()[x].upper, dir, mode, problem)
            });
            match pair.as_ref()? {
                EquationRange::EmptyRegion => return Some(EquationRange::EmptyRegion),
                EquationRange::Range(r) => range = range.add(r, a)?,
            }
        }
        for (k, c) in eq.coeffs.iter().enumerate() {
            if c.is_zero() || common.iter().any(|&(x, y)| x == k || y == k) {
                continue;
            }
            let cell = row.and_then(|e| self.free.get(e * problem.num_vars() + k));
            let mut fresh = None;
            let contrib =
                memo(cell, &mut fresh, || free_contribution(c, &problem.vars()[k].upper, a));
            range = range.add(contrib.as_ref()?, a)?;
        }
        Some(EquationRange::Range(range))
    }
}

/// The value of a memo `cell`, computed on first use; without a cell the
/// value is computed into `fresh`.
fn memo<'a, T>(
    cell: Option<&'a OnceCell<T>>,
    fresh: &'a mut Option<T>,
    compute: impl FnOnce() -> T,
) -> &'a T {
    match cell {
        Some(cell) => cell.get_or_init(compute),
        None => fresh.insert(compute()),
    }
}

impl<C: Coeff> DependenceTest<C> for BanerjeeTest {
    fn name(&self) -> &'static str {
        "banerjee"
    }

    fn test(&self, problem: &DependenceProblem<C>) -> Verdict {
        test_with_directions(problem, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_numeric::{Assumptions, SymPoly};

    fn single(c0: i128, coeffs: Vec<i128>, uppers: Vec<i128>) -> DependenceProblem<i128> {
        DependenceProblem::single_equation(c0, coeffs, uppers)
    }

    #[test]
    fn proves_out_of_range() {
        // x - y = 100 with x,y in [0,4]: range of x-y-100 is [-104,-96].
        let p = single(-100, vec![1, -1], vec![4, 4]);
        assert!(BanerjeeTest.test(&p).is_independent());
    }

    #[test]
    fn fails_on_motivating_example() {
        // Real solutions exist, so Banerjee must answer "maybe dependent".
        let p = single(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9]);
        assert!(BanerjeeTest.test(&p).is_dependent());
    }

    #[test]
    fn direction_constrained_ranges() {
        // x - y = 0, x,y in [0,8], paired as one common loop.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("x", 8);
        let y = b.var("y", 8);
        b.equation(0, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build();
        // With '=': range of x-y is {0}: dependent.
        assert!(test_with_directions(&p, &[Dir::Eq]).is_dependent());
        // With '<': x - y <= -1 < 0: independent.
        assert!(test_with_directions(&p, &[Dir::Lt]).is_independent());
        // With '>': x - y >= 1 > 0: independent.
        assert!(test_with_directions(&p, &[Dir::Gt]).is_independent());
        // With '*': dependent.
        assert!(test_with_directions(&p, &[Dir::Any]).is_dependent());
        // Ne is the union of two empty-zero triangles here: independent.
        assert!(test_with_directions(&p, &[Dir::Ne]).is_independent());
    }

    #[test]
    fn direction_on_shifted_equation() {
        // x - y + 1 = 0 (i.e. y = x + 1): only `<` direction possible.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("x", 8);
        let y = b.var("y", 8);
        b.equation(1, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build();
        assert!(test_with_directions(&p, &[Dir::Lt]).is_dependent());
        assert!(test_with_directions(&p, &[Dir::Eq]).is_independent());
        assert!(test_with_directions(&p, &[Dir::Gt]).is_independent());
    }

    #[test]
    fn zero_trip_loop_direction() {
        // Bound 0: '<' region is empty.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        b.equation(0, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build();
        assert!(test_with_directions(&p, &[Dir::Lt]).is_independent());
        assert!(test_with_directions(&p, &[Dir::Eq]).is_dependent());
    }

    #[test]
    fn zero_trip_loop_whole_space() {
        let p = single(0, vec![1, -1], vec![-1, 5]);
        assert!(BanerjeeTest.test(&p).is_independent());
    }

    #[test]
    fn unpaired_variables_use_full_span() {
        // 3z = 7 with z in [0,1]: range [0,3] contains 0... equation is
        // 3z - 7: range [-7,-4]: independent.
        let p = single(-7, vec![3], vec![1]);
        assert!(BanerjeeTest.test(&p).is_independent());
        // 3z - 2: range [-2,1] contains 0: maybe dependent (Banerjee is
        // real-valued; the true answer is independent).
        let p = single(-2, vec![3], vec![1]);
        assert!(BanerjeeTest.test(&p).is_dependent());
    }

    #[test]
    fn symbolic_banerjee() {
        use delin_numeric::SymPoly;
        // x - y = N^2 with x,y in [0, N-1] under N >= 1: max of x - y - N^2
        // is (N-1) - 0 - N^2 = -N^2 + N - 1 < 0: independent.
        let n = SymPoly::symbol("N");
        let n2 = n.checked_mul(&n).unwrap();
        let nm1 = n.checked_sub(&SymPoly::one()).unwrap();
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("x", nm1.clone());
        b.var("y", nm1.clone());
        b.equation(n2.checked_neg().unwrap(), vec![SymPoly::one(), SymPoly::constant(-1)]);
        let mut a = Assumptions::new();
        a.set_lower_bound("N", 1);
        b.assumptions(a);
        let p = b.build();
        assert!(BanerjeeTest.test(&p).is_independent());
    }

    #[test]
    fn symbolic_undecidable_is_unknown() {
        use delin_numeric::SymPoly;
        // x - y = N - 3 with x,y in [0, N-1]: feasibility depends on N,
        // and with only N >= 1 the ranges cannot be compared.
        let n = SymPoly::symbol("N");
        let nm1 = n.checked_sub(&SymPoly::one()).unwrap();
        let c0 = SymPoly::constant(3).checked_sub(&n).unwrap();
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("x", nm1.clone());
        b.var("y", nm1);
        b.equation(c0, vec![SymPoly::one(), SymPoly::constant(-1)]);
        let mut a = Assumptions::new();
        a.set_lower_bound("N", 1);
        b.assumptions(a);
        let p = b.build();
        let v = BanerjeeTest.test(&p);
        assert!(v.is_unknown() || v.is_dependent());
    }

    #[test]
    fn name() {
        assert_eq!(DependenceTest::<i128>::name(&BanerjeeTest), "banerjee");
    }

    const MODES: [DirectionMode; 3] =
        [DirectionMode::IntegerSharp, DirectionMode::Real, DirectionMode::Hybrid];

    /// A problem with `levels` common loops, `free` unpaired variables and
    /// `eqs` equations, its numbers drawn from `raw` in turn. `coeff` and
    /// `bound` turn two drawn numbers into a coefficient and a loop bound.
    fn drawn_problem<C: Coeff>(
        (levels, free, eqs): (usize, usize, usize),
        raw: &[i128],
        coeff: impl Fn(i128, i128) -> C,
        bound: impl Fn(i128, i128) -> C,
        assumptions: Assumptions,
    ) -> DependenceProblem<C> {
        let mut draws = raw.iter().copied().cycle();
        let mut draw = || draws.next().expect("cycled");
        let mut b = DependenceProblem::<C>::builder();
        for l in 0..levels {
            let z = bound(draw(), draw());
            let x = b.var(format!("x{l}"), z.clone());
            let y = b.var(format!("y{l}"), z);
            b.common_pair(x, y);
        }
        for f in 0..free {
            b.var(format!("f{f}"), bound(draw(), draw()));
        }
        for _ in 0..eqs {
            let c0 = coeff(3 * draw(), draw());
            let coeffs: Vec<C> = (0..2 * levels + free).map(|_| coeff(draw(), draw())).collect();
            b.equation(c0, coeffs);
        }
        b.assumptions(assumptions);
        b.build()
    }

    /// Concrete: small coefficients, bounds from −1 (a zero-trip loop) up.
    fn concrete_problem(shape: (usize, usize, usize), raw: &[i128]) -> DependenceProblem<i128> {
        drawn_problem(shape, raw, |a, _| a, |a, b| a.abs() + b.abs() - 1, Assumptions::new())
    }

    /// Symbolic: coefficients `a + b·N`, `a·M + N` or `a + N·M`, bounds
    /// `N − k`, `N + k` or constants, under `N ≥ lb` and `M ≥ 1`.
    fn symbolic_problem(
        shape: (usize, usize, usize),
        raw: &[i128],
        lb: i128,
    ) -> DependenceProblem<SymPoly> {
        let (n, m) = (SymPoly::symbol("N"), SymPoly::symbol("M"));
        let coeff = |a: i128, b: i128| match b {
            4 => &(&SymPoly::constant(a) * &m) + &n,
            -4 => &SymPoly::constant(a) + &(&n * &m),
            _ => &SymPoly::constant(a) + &(&SymPoly::constant(b % 3) * &n),
        };
        let bound = |a: i128, b: i128| match b.rem_euclid(3) {
            0 => &n - &SymPoly::constant(a.abs() % 3),
            1 => SymPoly::constant(a.abs()),
            _ => &n + &SymPoly::constant(a.abs()),
        };
        let mut assumptions = Assumptions::new();
        assumptions.set_lower_bound("N", lb).set_lower_bound("M", 1);
        drawn_problem(shape, raw, coeff, bound, assumptions)
    }

    /// Every direction vector over `levels` loops whose entries a walk
    /// asks about.
    fn walk_queries(levels: usize) -> Vec<Vec<Dir>> {
        (0..WALK_DIRS.len().pow(levels as u32))
            .map(|mut k| {
                (0..levels)
                    .map(|_| {
                        let d = WALK_DIRS[k % WALK_DIRS.len()];
                        k /= WALK_DIRS.len();
                        d
                    })
                    .collect()
            })
            .collect()
    }

    /// The memoized walk against fresh queries: the same atomic vectors
    /// (queried in walk order), and the same range and verdict for every
    /// equation and every query (queried in another order).
    fn assert_walk_matches_fresh<C: Coeff>(p: &DependenceProblem<C>, mode: DirectionMode) {
        let fresh =
            |q: &DependenceProblem<C>, dirs: &[Dir]| test_with_directions_mode(q, dirs, mode);
        assert_eq!(
            crate::hierarchy::banerjee_atomic_vectors(p, mode),
            crate::hierarchy::atomic_direction_vectors(p, &fresh),
            "{p:?} {mode:?}"
        );
        let walk = BanerjeeWalk::new(p, mode);
        for dirs in walk_queries(p.common_loops().len()) {
            for (e, eq) in p.equations().iter().enumerate() {
                assert_eq!(
                    walk.equation_range(Some(e), eq, &dirs),
                    equation_range_mode(p, eq, &dirs, mode),
                    "{p:?} {mode:?} {dirs:?}"
                );
            }
            assert_eq!(walk.test(&dirs), test_with_directions_mode(p, &dirs, mode));
        }
    }

    proptest::proptest! {
        /// One table per walk changes no range and no vector, on concrete
        /// and symbolic problems with one to three common loops, in every
        /// direction mode.
        #[test]
        fn walk_table_matches_fresh_queries(
            levels in 1usize..4,
            free in 0usize..3,
            eqs in 1usize..3,
            symbolic in 0u8..2,
            mode in 0usize..3,
            lb in 1i128..4,
            raw in proptest::collection::vec(-4i128..5, 64..65),
        ) {
            let shape = (levels, free, eqs);
            if symbolic == 1 {
                assert_walk_matches_fresh(&symbolic_problem(shape, &raw, lb), MODES[mode]);
            } else {
                assert_walk_matches_fresh(&concrete_problem(shape, &raw), MODES[mode]);
            }
        }
    }
}
