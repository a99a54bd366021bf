//! The delinearization algorithm (paper Fig. 4).
//!
//! Input: one constrained dependence equation `c0 + Σ ck·zk = 0`,
//! `zk ∈ [0, Zk]`. The algorithm orders the coefficients by absolute
//! value, computes the suffix gcds `gk`, and scans from the smallest
//! coefficient to the largest, maintaining the range `[smin, smax]` of the
//! already-scanned prefix. Whenever `max(|smin + r|, |smax + r|) < gk`
//! (with `r ≡ c0 (mod gk)`), the separation theorem applies: the prefix
//! becomes an independently solvable *dimension* with constant `r`, and the
//! scan continues on the remainder with constant `c0 − r`.
//!
//! On the fly the algorithm proves independence with the combined
//! sharpness of the GCD test (first iteration) and the Banerjee
//! inequalities applied per dimension (`cmin > 0` or `cmax < 0`), exactly
//! as the paper's Section 3 establishes.
//!
//! The implementation is generic over the coefficient ring, so the same
//! code performs the *symbolic* delinearization of Section 4; undecidable
//! symbolic comparisons simply inhibit a separation (the conservative
//! reading of the paper's "keep and process predicates").

use crate::trace::TraceRow;
use delin_dep::dirvec::{Dir, DirVec};
use delin_dep::hierarchy;
use delin_dep::problem::DependenceProblem;
use delin_numeric::{Coeff, Trilean};

/// Configuration for [`delinearize`].
#[derive(Debug, Clone)]
pub struct DelinConfig {
    /// Record a [`TraceRow`] per iteration (the Fig. 5 table).
    pub collect_trace: bool,
    /// Optional full resource budget (node limit, deadline, cancellation)
    /// threaded into the per-dimension exact solvers. Any exhaustion is
    /// recorded in its shared trip flag so callers can tell that the
    /// verdict degraded. `None` runs them under the default node limit
    /// ([`delin_dep::budget::DEFAULT_NODE_LIMIT`]).
    pub budget: Option<delin_dep::budget::ResourceBudget>,
    /// Return early with [`DelinOutcome::Independent`] when the on-the-fly
    /// GCD/Banerjee check fires (the Fig. 4 behaviour). Source-level
    /// delinearization of a single *address expression* turns this off: it
    /// wants the full separation even when a "dimension" excludes zero.
    pub stop_on_independence: bool,
    /// No effect (refinements always replay through a
    /// [`delin_dep::exact::SubtreeStore`]); kept only because perfbench names it.
    pub incremental: bool,
    /// An externally owned [`delin_dep::exact::SubtreeStore`] to refine
    /// through instead of a per-call private one. Either way one store
    /// spans the call: each tighter direction query of the hierarchy walk
    /// replays the solves of the looser ones it refines (and
    /// `DelinearizationTest::test_with_distances` replays the walk's leaf
    /// proofs). `None` (what the engine uses) gives each call a fresh
    /// store, dropped with the call.
    pub solve_store: Option<std::sync::Arc<delin_dep::exact::SubtreeStore>>,
    /// No effect (solvers always reuse scratch); kept only because perfbench names it.
    pub arena: bool,
}

impl Default for DelinConfig {
    fn default() -> Self {
        DelinConfig {
            collect_trace: false,
            budget: None,
            stop_on_independence: true,
            incremental: true,
            solve_store: None,
            arena: true,
        }
    }
}

/// One separated dimension: the constrained equation
/// `constant + Σ terms.coeff·z_var = 0` over the original problem's
/// variables (still bounded by the problem's `[0, upper]` ranges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension<C> {
    /// The dimension's constant (`r` at separation time).
    pub constant: C,
    /// `(problem variable index, coefficient)` pairs, smallest-|coefficient|
    /// first.
    pub terms: Vec<(usize, C)>,
}

impl<C: Coeff> Dimension<C> {
    /// Renders the dimension as an equation using the problem's variable
    /// names.
    pub fn render(&self, problem: &DependenceProblem<C>) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let a = problem.assumptions();
        let mut first = true;
        for (var, c) in self.terms.iter().rev() {
            // A negative coefficient is rendered as a subtraction of its
            // magnitude — but only when that magnitude is representable
            // (`-i128::MIN` is not). Otherwise keep the raw value, whose
            // own sign makes the rendering unambiguous.
            let (neg, mag) = match (c.sign(a), c.checked_neg()) {
                (Some(delin_numeric::Sign::Negative), Ok(m)) => (true, m),
                _ => (false, c.clone()),
            };
            let name = &problem.vars()[*var].name;
            if first {
                if neg {
                    s.push('-');
                }
                first = false;
            } else if neg {
                s.push_str(" - ");
            } else {
                s.push_str(" + ");
            }
            if mag == C::one() {
                let _ = write!(s, "{name}");
            } else {
                let _ = write!(s, "{mag}*{name}");
            }
        }
        let c = &self.constant;
        if first {
            let _ = write!(s, "{c}");
        } else if !c.is_zero() {
            match (c.sign(a), c.checked_neg()) {
                (Some(delin_numeric::Sign::Negative), Ok(m)) => {
                    let _ = write!(s, " - {m}");
                }
                _ => {
                    let _ = write!(s, " + {c}");
                }
            }
        }
        s.push_str(" = 0");
        s
    }
}

/// The separation produced by one run of the algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Separation<C> {
    /// Separated dimensions, smallest coefficients first. A run that could
    /// not separate anything yields a single dimension equal to the whole
    /// equation.
    pub dimensions: Vec<Dimension<C>>,
    /// Per-iteration trace (empty unless requested).
    pub trace: Vec<TraceRow<C>>,
}

impl<C: Coeff> Separation<C> {
    /// Number of separated dimensions.
    pub fn num_dimensions(&self) -> usize {
        self.dimensions.len()
    }
}

/// Result of delinearizing one equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DelinOutcome<C> {
    /// Proven independent on the fly (GCD test or per-dimension Banerjee).
    Independent {
        /// The dimensions separated before the proof, for reporting.
        separation: Separation<C>,
    },
    /// Not disproved; the equation factored into `separation.dimensions`.
    Separated {
        /// The separation.
        separation: Separation<C>,
    },
}

impl<C: Coeff> DelinOutcome<C> {
    /// `true` when independence was proven.
    pub fn is_independent(&self) -> bool {
        matches!(self, DelinOutcome::Independent { .. })
    }

    /// The separation, whichever way the run ended.
    pub fn separation(&self) -> &Separation<C> {
        match self {
            DelinOutcome::Independent { separation } | DelinOutcome::Separated { separation } => {
                separation
            }
        }
    }
}

/// Runs the delinearization algorithm on equation `eq_index` of `problem`.
///
/// # Panics
///
/// Panics when `eq_index` is out of range.
pub fn delinearize<C: Coeff>(
    problem: &DependenceProblem<C>,
    eq_index: usize,
    config: &DelinConfig,
) -> DelinOutcome<C> {
    let eq = &problem.equations()[eq_index];
    let a = problem.assumptions();

    // Zero-trip loop: empty iteration space.
    for v in problem.vars() {
        if v.upper.is_nonneg(a).is_false() {
            return DelinOutcome::Independent {
                separation: Separation { dimensions: Vec::new(), trace: Vec::new() },
            };
        }
    }

    // Active terms, sorted ascending by |coefficient| (three-valued
    // comparisons; undecidable ones are treated as ties, which never
    // affects soundness — only which separations are discovered).
    let mut order: Vec<(usize, C)> = eq
        .coeffs
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_zero())
        .map(|(k, c)| (k, c.clone()))
        .collect();
    sort_by_abs(&mut order, a);
    let n = order.len();

    // Suffix gcds: g[k] = gcd(|c_Ik|, ..., |c_In|).
    let mut suffix_gcd: Vec<C> = vec![C::zero(); n];
    let mut acc = C::zero();
    for k in (0..n).rev() {
        acc = acc.gcd(&order[k].1);
        suffix_gcd[k] = acc.clone();
    }

    let mut smin: Option<C> = Some(C::zero());
    let mut smax: Option<C> = Some(C::zero());
    let mut kbeg = 0usize;
    let mut c0 = eq.c0.clone();
    let mut dimensions: Vec<Dimension<C>> = Vec::new();
    let mut trace: Vec<TraceRow<C>> = Vec::new();
    let mut independent = false;

    for k in 0..=n {
        let gk: Option<&C> = if k < n { Some(&suffix_gcd[k]) } else { None };
        // Candidate remainders r ≡ c0 (mod gk): the Euclidean one and its
        // negative companion (the paper's FORTRAN `mod` follows the
        // dividend's sign; trying both representatives subsumes it).
        let candidates: [Option<C>; 2] = match gk {
            Some(g) => match c0.div_rem(g) {
                Ok((_, r)) => {
                    let alt = if r.is_zero() { None } else { r.checked_sub(g).ok() };
                    [Some(r), alt]
                }
                Err(_) => [None, None],
            },
            None => [Some(c0.clone()), None],
        };

        // A committed separation hands constant `r` to the new dimension
        // and continues the scan on `c0 − r`; a candidate whose remainder
        // subtraction overflows therefore cannot be used at all — silently
        // keeping the old `c0` would change the solution set (unsound).
        // Rejecting it is conservative: at worst no separation happens here.
        let mut chosen: Option<(C, C)> = None; // (r, c0 − r)
        for r in candidates.into_iter().flatten() {
            let holds = match gk {
                Some(g) => separation_holds(&smin, &smax, &r, g, a),
                None => Trilean::True, // g_{n+1} = ∞
            };
            if holds.is_true() {
                if let Ok(next) = c0.checked_sub(&r) {
                    chosen = Some((r, next));
                    break;
                }
            }
        }

        // The Fig. 5 trace row, begun with the values at check time.
        let mut row = config.collect_trace.then(|| TraceRow {
            k: k + 1,
            coeff: if k < n { Some(order[k].1.clone()) } else { None },
            smin: smin.clone(),
            smax: smax.clone(),
            c0: c0.clone(),
            g: gk.cloned(),
            r: None,
            separated: None,
        });
        if let Some((r, next)) = chosen {
            // On-the-fly independence: cmin > 0 or cmax < 0.
            let cminmax = add_r(&smin, &smax, &r);
            if let Some((cmin, cmax)) = &cminmax {
                let pos = cmin.is_pos(a);
                let neg = match cmax.checked_neg() {
                    Ok(nc) => nc.is_pos(a),
                    Err(_) => Trilean::Unknown,
                };
                if pos.or(neg).is_true() && config.stop_on_independence {
                    independent = true;
                }
            }
            let dim = Dimension { constant: r, terms: order[kbeg..k].to_vec() };
            if let Some(row) = &mut row {
                row.r = Some(dim.constant.clone());
                row.separated = Some(dim.render(problem));
            }
            // The k = k0 trivial separation ("0 = 0") is the GCD test; it
            // carries no variables and is recorded only in the trace.
            if !dim.terms.is_empty() || !dim.constant.is_zero() {
                dimensions.push(dim);
            }
            smin = Some(C::zero());
            smax = Some(C::zero());
            kbeg = k;
            c0 = next;
        }
        trace.extend(row);

        if independent {
            return DelinOutcome::Independent { separation: Separation { dimensions, trace } };
        }

        // Accumulate coefficient k into the running prefix range:
        // smin += c⁻·Z, smax += c⁺·Z.
        if k < n {
            let (var, c) = &order[k];
            let z = &problem.vars()[*var].upper;
            smin = accumulate(&smin, c.neg_part(a), z);
            smax = accumulate(&smax, c.pos_part(a), z);
        }
    }

    if dimensions.is_empty() {
        // Nothing separated (can happen for the trivially-zero equation).
        dimensions.push(Dimension { constant: eq.c0.clone(), terms: order });
    }
    DelinOutcome::Separated { separation: Separation { dimensions, trace } }
}

fn add_r<C: Coeff>(smin: &Option<C>, smax: &Option<C>, r: &C) -> Option<(C, C)> {
    let lo = smin.as_ref()?.checked_add(r).ok()?;
    let hi = smax.as_ref()?.checked_add(r).ok()?;
    Some((lo, hi))
}

fn accumulate<C: Coeff>(acc: &Option<C>, part: Option<C>, z: &C) -> Option<C> {
    let acc = acc.as_ref()?;
    let part = part?;
    acc.checked_add(&part.checked_mul(z).ok()?).ok()
}

/// `max(|smin + r|, |smax + r|) < g` as the equivalent convex conditions
/// `g + (smin + r) > 0` and `g − (smax + r) > 0`.
fn separation_holds<C: Coeff>(
    smin: &Option<C>,
    smax: &Option<C>,
    r: &C,
    g: &C,
    a: &delin_numeric::Assumptions,
) -> Trilean {
    let Some((cmin, cmax)) = add_r(smin, smax, r) else {
        return Trilean::Unknown;
    };
    let Ok(lo_ok) = g.checked_add(&cmin) else {
        return Trilean::Unknown;
    };
    let Ok(hi_ok) = g.checked_sub(&cmax) else {
        return Trilean::Unknown;
    };
    lo_ok.is_pos(a).and(hi_ok.is_pos(a))
}

/// Ascending insertion sort by |coefficient| under three-valued
/// comparisons. An item moves earlier when its magnitude is *provably* no
/// larger than its neighbour's and the reverse is not provable — so `1`
/// sorts before `N` under `N ≥ 1` even though `N = 1` is possible.
/// Undecidable comparisons behave as ties (stable); the ordering is a
/// heuristic and never affects soundness, only which separations are
/// discovered.
fn sort_by_abs<C: Coeff>(items: &mut [(usize, C)], a: &delin_numeric::Assumptions) {
    for i in 1..items.len() {
        let mut j = i;
        while j > 0 {
            let earlier = items[j - 1].1.abs(a);
            let later = items[j].1.abs(a);
            let swap = match (earlier, later) {
                (Some(e), Some(l)) => {
                    l.lt(&e, a).is_true() || (l.le(&e, a).is_true() && !e.le(&l, a).is_true())
                }
                _ => false,
            };
            if swap {
                items.swap(j - 1, j);
                j -= 1;
            } else {
                break;
            }
        }
    }
}

/// Builds the sub-problem of `problem` restricted to one dimension: only
/// the dimension's variables (renumbered), its single equation, and the
/// common-loop pairs fully contained in the dimension. Returns the
/// sub-problem and, per sub-pair, the original loop level.
pub fn dimension_subproblem<C: Coeff>(
    problem: &DependenceProblem<C>,
    dim: &Dimension<C>,
) -> (DependenceProblem<C>, Vec<usize>) {
    let mut b = DependenceProblem::<C>::builder();
    let mut map: Vec<Option<usize>> = vec![None; problem.num_vars()];
    for (var, _) in &dim.terms {
        let info = &problem.vars()[*var];
        map[*var] = Some(b.var(info.name.clone(), info.upper.clone()));
    }
    let mut coeffs: Vec<C> = (0..dim.terms.len()).map(|_| C::zero()).collect();
    for (var, c) in &dim.terms {
        coeffs[map[*var].expect("just added")] = c.clone();
    }
    b.equation(dim.constant.clone(), coeffs);
    let mut levels = Vec::new();
    for (level, &(x, y)) in problem.common_loops().iter().enumerate() {
        if let (Some(sx), Some(sy)) = (map[x], map[y]) {
            b.common_pair(sx, sy);
            levels.push(level);
        }
    }
    b.assumptions(problem.assumptions().clone());
    (b.build(), levels)
}

/// Direction vectors contributed by one dimension, expanded to the full
/// common-loop length (levels outside the dimension are `*`). `walk`
/// computes the atomic vectors of the dimension's sub-problem. `None` means
/// the dimension rules out every direction — i.e. it is unsatisfiable and
/// the whole dependence is independent.
pub fn dimension_direction_vectors<C: Coeff>(
    problem: &DependenceProblem<C>,
    dim: &Dimension<C>,
    walk: &hierarchy::AtomicWalk<'_, C>,
) -> Option<Vec<DirVec>> {
    let total = problem.common_loops().len();
    // Strong-SIV shortcut (works symbolically): a dimension of the exact
    // shape `c·x − c·y + r = 0` over a common pair `(x, y)` forces
    // `y − x = r/c`, so the direction is the sign of `r/c`.
    if let Some(dv) = strong_siv_direction(problem, dim) {
        return match dv {
            StrongSiv::Independent => None,
            StrongSiv::Direction(level, dir) => {
                let mut full = vec![Dir::Any; total];
                full[level] = dir;
                Some(vec![DirVec(full)])
            }
        };
    }
    let (sub, levels) = dimension_subproblem(problem, dim);
    let atomic = walk(&sub);
    if atomic.is_empty() {
        return None;
    }
    Some(
        atomic
            .into_iter()
            .map(|dv| {
                let mut full = vec![Dir::Any; total];
                for (sub_level, &orig_level) in levels.iter().enumerate() {
                    full[orig_level] = dv.0[sub_level];
                }
                DirVec(full)
            })
            .collect(),
    )
}

enum StrongSiv {
    Independent,
    Direction(usize, Dir),
}

/// Detects the strong-SIV shape `c·x − c·y + r = 0` over a common pair and
/// resolves it symbolically. `None` when the shape or the required
/// symbolic facts are not available (callers fall back to the hierarchy).
fn strong_siv_direction<C: Coeff>(
    problem: &DependenceProblem<C>,
    dim: &Dimension<C>,
) -> Option<StrongSiv> {
    if dim.terms.len() != 2 {
        return None;
    }
    let a = problem.assumptions();
    let (va, ca) = &dim.terms[0];
    let (vb, cb) = &dim.terms[1];
    // Coefficients must be exact negations.
    if !ca.checked_add(cb).ok()?.is_zero() {
        return None;
    }
    // Orient as (source x, sink y) via the common-loop pairing.
    let (level, cx, x) = problem.common_loops().iter().enumerate().find_map(|(l, &(px, py))| {
        if (px, py) == (*va, *vb) {
            Some((l, ca.clone(), *va))
        } else if (px, py) == (*vb, *va) {
            Some((l, cb.clone(), *vb))
        } else {
            None
        }
    })?;
    let _ = x;
    // c·x − c·y + r = 0  ⇒  y − x = r / c.
    let d = dim.constant.try_div_exact(&cx)?;
    // The distance must be achievable: |d| ≤ Z. If provably not, the
    // dimension is unsatisfiable.
    let z = &problem.vars()[problem.common_loops()[level].0].upper;
    let sign = d.sign(a)?;
    let reachable = match sign {
        delin_numeric::Sign::Zero => Trilean::True,
        delin_numeric::Sign::Positive => d.le(z, a),
        delin_numeric::Sign::Negative => d.checked_neg().ok()?.le(z, a),
    };
    if reachable.is_false() {
        return Some(StrongSiv::Independent);
    }
    let dir = match sign {
        delin_numeric::Sign::Positive => Dir::Lt,
        delin_numeric::Sign::Zero => Dir::Eq,
        delin_numeric::Sign::Negative => Dir::Gt,
    };
    Some(StrongSiv::Direction(level, dir))
}

/// Folds per-dimension direction-vector sets with the paper's
/// `DirVecs = {dv ⊓ nv | dv ∈ DirVecs, nv ∈ NV, dv ⊓ nv ≠ ∅}` rule.
/// `None` means independent (some dimension contributed an empty set).
pub fn combine_direction_vectors(
    num_levels: usize,
    per_dimension: &[Vec<DirVec>],
) -> Option<Vec<DirVec>> {
    let mut acc = vec![DirVec::any(num_levels)];
    for nv in per_dimension {
        let mut next = Vec::new();
        for dv in &acc {
            for v in nv {
                if let Some(m) = dv.meet(v) {
                    next.push(m);
                }
            }
        }
        next.sort();
        next.dedup();
        if next.is_empty() {
            return None;
        }
        acc = next;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_dep::exact::ExactSolver;
    use delin_dep::hierarchy::exact_oracle;
    use proptest::prelude::*;

    fn cfg() -> DelinConfig {
        DelinConfig { collect_trace: true, ..DelinConfig::default() }
    }

    fn motivating() -> DependenceProblem<i128> {
        DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9])
    }

    #[test]
    fn motivating_example_proven_independent() {
        let out = delinearize(&motivating(), 0, &cfg());
        assert!(out.is_independent());
        // The i-dimension `i1 - i2 - 5 = 0` has cmin = -9, cmax = -1 < 0:
        // independence discovered when separating it.
    }

    #[test]
    fn dependent_example_separates_into_two_dimensions() {
        // i1 + 10 j1 - i2 - 10 j2 - 3 = 0: the i-dimension carries the -3.
        let p = DependenceProblem::single_equation(-3, vec![1, 10, -1, -10], vec![4, 9, 4, 9]);
        let out = delinearize(&p, 0, &cfg());
        assert!(!out.is_independent());
        let sep = out.separation();
        assert_eq!(sep.num_dimensions(), 2);
        // First dimension: i1 - i2 - 3 = 0 (vars 0 and 2).
        let d0 = &sep.dimensions[0];
        assert_eq!(d0.constant, -3);
        let vars0: Vec<usize> = d0.terms.iter().map(|t| t.0).collect();
        assert_eq!(vars0, vec![0, 2]);
        // Second dimension: 10 j1 - 10 j2 = 0.
        let d1 = &sep.dimensions[1];
        assert_eq!(d1.constant, 0);
        let vars1: Vec<usize> = d1.terms.iter().map(|t| t.0).collect();
        assert_eq!(vars1, vec![1, 3]);
    }

    #[test]
    fn gcd_failure_detected_on_first_iteration() {
        // 2x - 4y = 1: gcd 2 does not divide 1; both remainder candidates
        // (1 and -1) pass the condition and prove independence.
        let p = DependenceProblem::single_equation(1, vec![2, -4], vec![100, 100]);
        let out = delinearize(&p, 0, &cfg());
        assert!(out.is_independent());
    }

    #[test]
    fn fig5_paper_trace() {
        // 100k1 - 100k2 + 10j1 - 10i2 + i1 - j2 - 110 = 0,
        // i,k in [0,8], j in [0,9]. Variable order in the problem:
        // (i1, j1, k1, i2, j2, k2) with coefficients (1, 10, 100, -10, -1, -100).
        let p = DependenceProblem::single_equation(
            -110,
            vec![1, 10, 100, -10, -1, -100],
            vec![8, 9, 8, 8, 9, 8],
        );
        let out = delinearize(&p, 0, &cfg());
        assert!(!out.is_independent());
        let sep = out.separation();
        assert_eq!(sep.num_dimensions(), 3);
        // Dimension 1: i1 - j2 = 0 (r = 0).
        assert_eq!(sep.dimensions[0].constant, 0);
        // Dimension 2: 10 j1 - 10 i2 - 10 = 0 (r = -10).
        assert_eq!(sep.dimensions[1].constant, -10);
        // Dimension 3: 100 k1 - 100 k2 - 100 = 0 (r = -100).
        assert_eq!(sep.dimensions[2].constant, -100);
        // Trace matches Fig. 5's shape: 7 rows, separations at k = 1, 3, 5, 7.
        assert_eq!(sep.trace.len(), 7);
        let sep_rows: Vec<usize> =
            sep.trace.iter().filter(|r| r.separated.is_some()).map(|r| r.k).collect();
        assert_eq!(sep_rows, vec![1, 3, 5, 7]);
        // Row k=5 chose the negative remainder representative, like the
        // paper's FORTRAN mod.
        let row5 = &sep.trace[4];
        assert_eq!(row5.r, Some(-10));
        assert_eq!(row5.g, Some(100));
    }

    #[test]
    fn solution_sets_factor_exactly() {
        // Property (the theorem, through the algorithm): every separation
        // the algorithm makes preserves the solution set as a Cartesian
        // product. Cross-check against brute force.
        let cases: Vec<(i128, Vec<i128>, Vec<i128>)> = vec![
            (-3, vec![1, 10, -1, -10], vec![4, 9, 4, 9]),
            (0, vec![1, 10, -1, -10], vec![4, 9, 4, 9]),
            (-15, vec![1, 12, -1, -12], vec![5, 6, 5, 6]),
            (7, vec![2, 30, -2, -30], vec![4, 3, 4, 3]),
        ];
        for (c0, coeffs, uppers) in cases {
            let p = DependenceProblem::single_equation(c0, coeffs.clone(), uppers.clone());
            let out = delinearize(&p, 0, &cfg());
            let brute = brute_force_solutions(c0, &coeffs, &uppers);
            match out {
                DelinOutcome::Independent { .. } => {
                    assert!(brute.is_empty(), "c0={c0} coeffs={coeffs:?}");
                }
                DelinOutcome::Separated { separation } => {
                    let product = product_solutions(&p, &separation, &uppers);
                    let mut b = brute.clone();
                    b.sort();
                    assert_eq!(product, b, "c0={c0} coeffs={coeffs:?}");
                }
            }
        }
    }

    fn brute_force_solutions(c0: i128, coeffs: &[i128], uppers: &[i128]) -> Vec<Vec<i128>> {
        let mut out = Vec::new();
        let n = coeffs.len();
        let mut cur = vec![0i128; n];
        loop {
            let v: i128 = c0 + coeffs.iter().zip(&cur).map(|(c, x)| c * x).sum::<i128>();
            if v == 0 {
                out.push(cur.clone());
            }
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == n {
                    return out;
                }
                cur[k] += 1;
                if cur[k] <= uppers[k] {
                    break;
                }
                cur[k] = 0;
                k += 1;
            }
        }
    }

    fn product_solutions(
        p: &DependenceProblem<i128>,
        sep: &Separation<i128>,
        uppers: &[i128],
    ) -> Vec<Vec<i128>> {
        // Enumerate each dimension's solutions and take the product;
        // variables in no dimension are free.
        let n = uppers.len();
        let mut assigned = vec![false; n];
        let mut partials: Vec<Vec<Vec<(usize, i128)>>> = Vec::new();
        for dim in &sep.dimensions {
            let vars: Vec<usize> = dim.terms.iter().map(|t| t.0).collect();
            for &v in &vars {
                assigned[v] = true;
            }
            let mut sols = Vec::new();
            let (sub, _) = dimension_subproblem(p, dim);
            let mut cur = vec![0i128; vars.len()];
            'odo: loop {
                if sub.is_solution(&cur).unwrap() {
                    sols.push(vars.iter().copied().zip(cur.iter().copied()).collect());
                }
                let mut k = 0;
                loop {
                    if k == vars.len() {
                        break 'odo;
                    }
                    cur[k] += 1;
                    if cur[k] <= uppers[vars[k]] {
                        break;
                    }
                    cur[k] = 0;
                    k += 1;
                }
            }
            partials.push(sols);
        }
        // Cartesian product.
        let mut acc: Vec<Vec<(usize, i128)>> = vec![Vec::new()];
        for sols in &partials {
            let mut next = Vec::new();
            for base in &acc {
                for s in sols {
                    let mut v = base.clone();
                    v.extend_from_slice(s);
                    next.push(v);
                }
            }
            acc = next;
        }
        // Free variables range over their whole domain.
        let free: Vec<usize> = (0..n).filter(|&k| !assigned[k]).collect();
        let mut out = Vec::new();
        for base in &acc {
            let mut cur: Vec<i128> = vec![0; free.len()];
            'odo2: loop {
                let mut full = vec![0i128; n];
                for &(k, v) in base {
                    full[k] = v;
                }
                for (i, &k) in free.iter().enumerate() {
                    full[k] = cur[i];
                }
                out.push(full);
                let mut k = 0;
                loop {
                    if k == free.len() {
                        break 'odo2;
                    }
                    cur[k] += 1;
                    if cur[k] <= uppers[free[k]] {
                        break;
                    }
                    cur[k] = 0;
                    k += 1;
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    proptest! {
        /// Random linearized equations: delinearization must agree with the
        /// exact solver whenever it claims independence, and its separation
        /// must preserve the solution set.
        #[test]
        fn sound_and_product_preserving(
            a1 in -3i128..=3, a2 in -3i128..=3,
            b1 in -3i128..=3, b2 in -3i128..=3,
            c0 in -40i128..=40,
            stride in 8i128..=16,
            ux in 2i128..=5, uy in 2i128..=5,
        ) {
            prop_assume!(a1 != 0 || a2 != 0);
            prop_assume!(b1 != 0 || b2 != 0);
            let coeffs = vec![a1, b1 * stride, a2, b2 * stride];
            let uppers = vec![ux, uy, ux, uy];
            let p = DependenceProblem::single_equation(c0, coeffs.clone(), uppers.clone());
            let out = delinearize(&p, 0, &DelinConfig::default());
            let brute = brute_force_solutions(c0, &coeffs, &uppers);
            match out {
                DelinOutcome::Independent { .. } => prop_assert!(brute.is_empty()),
                DelinOutcome::Separated { separation } => {
                    let product = product_solutions(&p, &separation, &uppers);
                    let mut b = brute.clone();
                    b.sort();
                    b.dedup();
                    prop_assert_eq!(product, b);
                }
            }
        }
    }

    #[test]
    fn direction_vector_combination() {
        // A(i + 10 j) = A(i + 10 j + 3) style with common pairs: source
        // (i1, j1), sink (i2, j2), equation i1 + 10 j1 - i2 - 10 j2 - 3 = 0.
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 4);
        let j1 = b.var("j1", 9);
        let i2 = b.var("i2", 4);
        let j2 = b.var("j2", 9);
        b.common_pair(i1, i2).common_pair(j1, j2);
        b.equation(-3, vec![1, 10, -1, -10]);
        let p = b.build();
        let out = delinearize(&p, 0, &cfg());
        let DelinOutcome::Separated { separation } = out else {
            panic!("expected separation");
        };
        let solver = ExactSolver::default();
        let oracle = exact_oracle(solver);
        let walk =
            |sub: &DependenceProblem<i128>| hierarchy::atomic_direction_vectors(sub, &oracle);
        let per_dim: Vec<Vec<DirVec>> = separation
            .dimensions
            .iter()
            .map(|d| dimension_direction_vectors(&p, d, &walk).expect("feasible"))
            .collect();
        let combined = combine_direction_vectors(2, &per_dim).expect("dependent");
        // i1 = i2 + 3 forces '>' on loop i; j1 = j2 forces '=' on loop j.
        assert_eq!(combined, vec![DirVec(vec![Dir::Gt, Dir::Eq])]);
    }

    #[test]
    fn empty_dimension_direction_set_means_independent() {
        let per_dim = vec![vec![DirVec(vec![Dir::Lt])], vec![]];
        assert!(combine_direction_vectors(1, &per_dim).is_none());
        // Disjoint meets also collapse to independence.
        let per_dim = vec![vec![DirVec(vec![Dir::Lt])], vec![DirVec(vec![Dir::Gt])]];
        assert!(combine_direction_vectors(1, &per_dim).is_none());
    }

    #[test]
    fn zero_trip_loop() {
        let p = DependenceProblem::single_equation(0, vec![1, -1], vec![-1, 4]);
        assert!(delinearize(&p, 0, &cfg()).is_independent());
    }

    #[test]
    fn trivially_zero_equation() {
        let p = DependenceProblem::single_equation(0, vec![0, 0], vec![4, 4]);
        let out = delinearize(&p, 0, &cfg());
        assert!(!out.is_independent());
        assert_eq!(out.separation().num_dimensions(), 1);
    }

    #[test]
    fn contradictory_constant_equation() {
        let p = DependenceProblem::single_equation(7, vec![0, 0], vec![4, 4]);
        assert!(delinearize(&p, 0, &cfg()).is_independent());
    }

    #[test]
    fn overflowing_remainder_inhibits_separation() {
        // K = 2^126, c0 = i128::MAX − 2 = 2^127 − 3. At the prefix {z1, z2}
        // the suffix gcd is K and the negative remainder representative
        // r = −3 passes the separation condition — but committing to it
        // requires c0 − (−3) = 2^127, which overflows i128. The old code
        // silently kept c0, splitting off a {z1, z2} dimension with
        // constant −3 while the remainder kept the stale constant: that
        // factorization declares the (actually dependent) problem
        // independent. The candidate must instead be rejected, leaving the
        // whole equation as one conservative dimension.
        let k = 1i128 << 126;
        let c0 = i128::MAX - 2;
        let p = DependenceProblem::single_equation(c0, vec![1, -1, k, -k], vec![10, 10, 10, 10]);
        // Ground truth: z = (3, 0, 0, 2) solves 3 − 0 + 0 − 2K + c0 =
        // c0 + 3 − 2^127 = 0, so the problem is dependent.
        let out = delinearize(&p, 0, &cfg());
        assert!(!out.is_independent(), "overflow path must stay conservative");
        let sep = out.separation();
        // The telescoping invariant: dimension constants sum back to c0.
        // The unsound split (−3 kept alongside the stale remainder) breaks
        // it; the conservative whole-equation dimension satisfies it.
        let mut sum = 0i128;
        for d in &sep.dimensions {
            sum = sum.checked_add(d.constant).expect("constants telescope");
        }
        assert_eq!(sum, c0, "dimension constants must telescope to c0");
        // And the separation still covers every variable exactly once.
        let mut vars: Vec<usize> =
            sep.dimensions.iter().flat_map(|d| d.terms.iter().map(|t| t.0)).collect();
        vars.sort_unstable();
        assert_eq!(vars, vec![0, 1, 2, 3]);
    }

    #[test]
    fn render_survives_unnegatable_coefficients() {
        // −i128::MIN is unrepresentable; rendering must not fall back to
        // printing a minus sign in front of the still-negative raw value.
        let p = DependenceProblem::single_equation(i128::MIN, vec![i128::MIN, 1], vec![4, 4]);
        let dim = Dimension { constant: i128::MIN, terms: vec![(0, i128::MIN), (1, 1)] };
        let s = dim.render(&p);
        assert!(!s.contains("--"), "double negative in {s:?}");
        assert!(!s.contains("- -"), "double negative in {s:?}");
        // The ordinary negative path still renders as a subtraction.
        let dim = Dimension { constant: -3, terms: vec![(1, 1), (0, -2)] };
        let s = dim.render(&p);
        assert_eq!(s, "-2*z1 + z2 - 3 = 0");
    }

    #[test]
    fn symbolic_section4_example() {
        use delin_numeric::{Assumptions, SymPoly};
        // A(N*N*k1 + N*j1 + i1) vs A(N*N*k2 + j2 + N*i2 + N*N + N):
        // N²k1 + Nj1 + i1 - N²k2 - j2 - Ni2 - N² - N = 0,
        // i,k in [0, N-2], j in [0, N-1], N >= 2.
        let n = SymPoly::symbol("N");
        let n2 = n.checked_mul(&n).unwrap();
        let nm1 = n.checked_sub(&SymPoly::one()).unwrap();
        let nm2 = n.checked_sub(&SymPoly::constant(2)).unwrap();
        let c0 = n2.checked_add(&n).unwrap().checked_neg().unwrap();
        let coeffs = vec![
            SymPoly::one(),            // i1
            n.clone(),                 // j1
            n2.clone(),                // k1
            n.checked_neg().unwrap(),  // i2
            SymPoly::constant(-1),     // j2
            n2.checked_neg().unwrap(), // k2
        ];
        let uppers = [nm2.clone(), nm1.clone(), nm2.clone(), nm2.clone(), nm1.clone(), nm2.clone()];
        let mut builder = DependenceProblem::<SymPoly>::builder();
        for (idx, u) in uppers.iter().enumerate() {
            builder.var(format!("v{idx}"), u.clone());
        }
        builder.equation(c0, coeffs);
        let mut a = Assumptions::new();
        a.set_lower_bound("N", 2);
        builder.assumptions(a);
        let p = builder.build();
        let out = delinearize(&p, 0, &cfg());
        assert!(!out.is_independent());
        let sep = out.separation();
        // Three dimensions: {i1, j2}, {j1, i2}, {k1, k2}.
        assert_eq!(sep.num_dimensions(), 3);
        let dim_vars: Vec<Vec<usize>> = sep
            .dimensions
            .iter()
            .map(|d| {
                let mut v: Vec<usize> = d.terms.iter().map(|t| t.0).collect();
                v.sort_unstable();
                v
            })
            .collect();
        assert_eq!(dim_vars, vec![vec![0, 4], vec![1, 3], vec![2, 5]]);
    }
}
