//! The constrained-equation form of a dependence question.
//!
//! Following the paper's Section 2, a dependence between two references
//! `A(f1(x̄), …, fl(x̄))` and `A(g1(ȳ), …, gl(ȳ))` exists iff there are
//! integers `αi ∈ [0, Xi]`, `βj ∈ [0, Yj]` with `fi(ᾱ) = gi(β̄)` for every
//! dimension `i`. After moving everything to one side, each dimension
//! yields one *linear equation* `c0 + Σ ck·zk = 0` over the combined
//! variable list `z̄ = (x̄, ȳ)`, each variable normalized to `[0, Zk]`.
//!
//! [`DependenceProblem`] holds that system, the pairing between source and
//! sink variables of *common* loops (needed for direction vectors), and
//! optional inequality constraints used to impose direction predicates.

use crate::dirvec::Dir;
use delin_numeric::{Affine, Assumptions, Coeff, NumericError, VarId};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// The number of coefficients a row stores inline. Real loop nests are at
/// most ~6 deep, and a dependence problem doubles the variables (source and
/// sink copies), so 12 inline slots cover the corpus without a heap row.
const INLINE_COEFFS: usize = 12;

/// A dense coefficient row with inline storage for up to [`INLINE_COEFFS`]
/// entries and heap spill beyond. Rows deref to `[C]`, so indexing,
/// iteration and slice passing read exactly like the `Vec<C>` they replace;
/// only construction changes (`Vec<C>` converts via `From`/`collect`).
///
/// `clone_from` reuses the receiver's storage — inline rows copy in place,
/// spilled rows reuse the heap vector's capacity — which is what lets the
/// solver's refinement scratch rebuild constrained problems without
/// touching the allocator.
#[derive(Debug)]
pub struct CoeffRow<C> {
    store: RowStore<C>,
}

#[derive(Debug)]
enum RowStore<C> {
    Inline { len: u8, slots: [C; INLINE_COEFFS] },
    Heap(Vec<C>),
}

impl<C: Coeff> CoeffRow<C> {
    /// An empty row.
    pub fn new() -> CoeffRow<C> {
        CoeffRow { store: RowStore::Inline { len: 0, slots: std::array::from_fn(|_| C::zero()) } }
    }

    /// A row of `n` zeros.
    pub fn zeroed(n: usize) -> CoeffRow<C> {
        let mut row = CoeffRow::new();
        row.resize_with(n, C::zero);
        row
    }

    /// Appends one coefficient, spilling to the heap past the inline
    /// capacity.
    pub fn push(&mut self, c: C) {
        match &mut self.store {
            RowStore::Inline { len, slots } => {
                let n = *len as usize;
                if n < INLINE_COEFFS {
                    slots[n] = c;
                    *len += 1;
                } else {
                    let mut v: Vec<C> = Vec::with_capacity(INLINE_COEFFS * 2);
                    v.extend(slots.iter_mut().map(|s| std::mem::replace(s, C::zero())));
                    v.push(c);
                    self.store = RowStore::Heap(v);
                }
            }
            RowStore::Heap(v) => v.push(c),
        }
    }

    /// Resizes to `n` entries, filling new slots with `f()` — the same
    /// contract as `Vec::resize_with` (truncated inline slots reset to
    /// zero so they own no stray memory).
    pub fn resize_with(&mut self, n: usize, mut f: impl FnMut() -> C) {
        match &mut self.store {
            RowStore::Inline { len, slots } => {
                let cur = *len as usize;
                if n <= INLINE_COEFFS {
                    for slot in &mut slots[cur.min(n)..cur.max(n)] {
                        *slot = if n > cur { f() } else { C::zero() };
                    }
                    *len = n as u8;
                } else {
                    let mut v: Vec<C> = Vec::with_capacity(n);
                    v.extend(slots[..cur].iter_mut().map(|s| std::mem::replace(s, C::zero())));
                    v.resize_with(n, f);
                    self.store = RowStore::Heap(v);
                }
            }
            RowStore::Heap(v) => v.resize_with(n, f),
        }
    }

    /// Resets the row to `n` zero entries, reusing existing storage (a
    /// heap row keeps its buffer; an inline row is just overwritten).
    pub fn reset_zeroed(&mut self, n: usize) {
        self.resize_with(n, C::zero);
        for c in self.as_mut_slice() {
            *c = C::zero();
        }
    }

    /// The coefficients as a slice.
    pub fn as_slice(&self) -> &[C] {
        match &self.store {
            RowStore::Inline { len, slots } => &slots[..*len as usize],
            RowStore::Heap(v) => v,
        }
    }

    /// The coefficients as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [C] {
        match &mut self.store {
            RowStore::Inline { len, slots } => &mut slots[..*len as usize],
            RowStore::Heap(v) => v,
        }
    }
}

impl<C: Coeff> Default for CoeffRow<C> {
    fn default() -> Self {
        CoeffRow::new()
    }
}

impl<C> Deref for CoeffRow<C> {
    type Target = [C];
    fn deref(&self) -> &[C] {
        match &self.store {
            RowStore::Inline { len, slots } => &slots[..*len as usize],
            RowStore::Heap(v) => v,
        }
    }
}

impl<C> DerefMut for CoeffRow<C> {
    fn deref_mut(&mut self) -> &mut [C] {
        match &mut self.store {
            RowStore::Inline { len, slots } => &mut slots[..*len as usize],
            RowStore::Heap(v) => v,
        }
    }
}

impl<C: Coeff> Clone for CoeffRow<C> {
    fn clone(&self) -> Self {
        let mut out = CoeffRow::new();
        for c in self.as_slice() {
            out.push(c.clone());
        }
        out
    }

    fn clone_from(&mut self, source: &Self) {
        if let (RowStore::Heap(dst), RowStore::Heap(src)) = (&mut self.store, &source.store) {
            dst.clone_from(src);
            return;
        }
        self.resize_with(source.len(), C::zero);
        for (dst, src) in self.as_mut_slice().iter_mut().zip(source.as_slice()) {
            dst.clone_from(src);
        }
    }
}

impl<C: PartialEq> PartialEq for CoeffRow<C> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<C: Eq> Eq for CoeffRow<C> {}

impl<C: PartialEq> PartialEq<Vec<C>> for CoeffRow<C> {
    fn eq(&self, other: &Vec<C>) -> bool {
        **self == **other
    }
}

impl<C: Coeff> From<Vec<C>> for CoeffRow<C> {
    fn from(v: Vec<C>) -> CoeffRow<C> {
        if v.len() <= INLINE_COEFFS {
            let mut it = v.into_iter();
            CoeffRow {
                store: RowStore::Inline {
                    len: it.len() as u8,
                    slots: std::array::from_fn(|_| it.next().unwrap_or_else(C::zero)),
                },
            }
        } else {
            CoeffRow { store: RowStore::Heap(v) }
        }
    }
}

impl<C: Coeff> FromIterator<C> for CoeffRow<C> {
    fn from_iter<T: IntoIterator<Item = C>>(iter: T) -> CoeffRow<C> {
        let mut row = CoeffRow::new();
        for c in iter {
            row.push(c);
        }
        row
    }
}

impl<'a, C> IntoIterator for &'a CoeffRow<C> {
    type Item = &'a C;
    type IntoIter = std::slice::Iter<'a, C>;
    fn into_iter(self) -> Self::IntoIter {
        self.deref().iter()
    }
}

/// One variable of a dependence problem: a normalized loop variable ranging
/// over `[0, upper]`.
#[derive(Debug, PartialEq, Eq)]
pub struct VarInfo<C> {
    /// Human-readable name (e.g. `i1`, `j2`).
    pub name: String,
    /// Inclusive upper bound; the lower bound is always `0`.
    pub upper: C,
}

impl<C: Clone> Clone for VarInfo<C> {
    fn clone(&self) -> Self {
        VarInfo { name: self.name.clone(), upper: self.upper.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.upper.clone_from(&source.upper);
    }
}

/// Shared evaluation core: `c0 + Σ coeffs[k]·vals[k]`, all borrowed.
fn eval_linear<C: Coeff>(c0: &C, coeffs: &[C], vals: &[C]) -> Result<C, NumericError> {
    let mut acc = c0.clone();
    for (c, v) in coeffs.iter().zip(vals) {
        acc = acc.checked_add(&c.checked_mul(v)?)?;
    }
    Ok(acc)
}

/// Whether `c0 + Σ coeffs[k]·vals[k]` is zero (`equation`) or non-negative.
/// A concrete row whose checked sum overflows is summed again exactly
/// ([`delin_numeric::int::linear_sign`]), so a solution whose partial sums
/// pass `i128` still satisfies it; only a symbolic row can fail.
fn row_holds<C: Coeff>(
    c0: &C,
    coeffs: &[C],
    vals: &[C],
    equation: bool,
    a: &Assumptions,
) -> Result<bool, NumericError> {
    let sign = match eval_linear(c0, coeffs, vals) {
        Ok(v) if equation => return Ok(v.is_zero()),
        Ok(v) => return Ok(v.is_nonneg(a).is_true()),
        Err(e) => {
            let concrete = |x: &C| x.as_i128().ok_or_else(|| e.clone());
            let terms = coeffs
                .iter()
                .zip(vals)
                .map(|(c, v)| Ok((concrete(c)?, concrete(v)?)))
                .collect::<Result<Vec<_>, NumericError>>()?;
            delin_numeric::int::linear_sign(concrete(c0)?, terms)
        }
    };
    Ok(if equation { sign.is_eq() } else { sign.is_ge() })
}

/// A linear equation `c0 + Σ coeffs[k]·z_k = 0` over the problem variables.
#[derive(Debug, PartialEq, Eq)]
pub struct LinEq<C> {
    /// The constant term.
    pub c0: C,
    /// One coefficient per problem variable (dense; zeros allowed).
    pub coeffs: CoeffRow<C>,
}

impl<C: Coeff> LinEq<C> {
    /// Number of variables with a nonzero coefficient.
    pub fn num_active_vars(&self) -> usize {
        self.coeffs.iter().filter(|c| !c.is_zero()).count()
    }

    /// Indices of variables with a nonzero coefficient.
    pub fn active_vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.coeffs.iter().enumerate().filter(|(_, c)| !c.is_zero()).map(|(k, _)| k)
    }

    /// Evaluates `c0 + Σ coeffs[k]·vals[k]`.
    pub fn eval(&self, vals: &[C]) -> Result<C, NumericError> {
        eval_linear(&self.c0, &self.coeffs, vals)
    }
}

impl<C: Coeff> Clone for LinEq<C> {
    fn clone(&self) -> Self {
        LinEq { c0: self.c0.clone(), coeffs: self.coeffs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.c0.clone_from(&source.c0);
        self.coeffs.clone_from(&source.coeffs);
    }
}

/// A linear inequality `c0 + Σ coeffs[k]·z_k ≥ 0`.
#[derive(Debug, PartialEq, Eq)]
pub struct LinIneq<C> {
    /// The constant term.
    pub c0: C,
    /// One coefficient per problem variable (dense; zeros allowed).
    pub coeffs: CoeffRow<C>,
}

impl<C: Coeff> LinIneq<C> {
    /// Evaluates the left-hand side `c0 + Σ coeffs[k]·vals[k]` borrowed —
    /// no clone of the constant or the coefficient row.
    pub fn eval(&self, vals: &[C]) -> Result<C, NumericError> {
        eval_linear(&self.c0, &self.coeffs, vals)
    }
}

impl<C: Coeff> Clone for LinIneq<C> {
    fn clone(&self) -> Self {
        LinIneq { c0: self.c0.clone(), coeffs: self.coeffs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.c0.clone_from(&source.c0);
        self.coeffs.clone_from(&source.coeffs);
    }
}

/// A dependence question in constrained-equation form.
///
/// Construct through [`ProblemBuilder`] or the convenience constructors.
///
/// `clone_from` reuses the receiver's vectors, rows and strings, so a
/// scratch problem repeatedly rebuilt from the same base (the refinement
/// loop's pattern) stops allocating once it has seen the base's shape.
#[derive(Debug, PartialEq, Eq)]
pub struct DependenceProblem<C> {
    vars: Vec<VarInfo<C>>,
    equations: Vec<LinEq<C>>,
    inequalities: Vec<LinIneq<C>>,
    /// Per common loop, the (source-variable, sink-variable) index pair.
    common: Vec<(usize, usize)>,
    assumptions: Assumptions,
}

impl<C: Coeff> Clone for DependenceProblem<C> {
    fn clone(&self) -> Self {
        DependenceProblem {
            vars: self.vars.clone(),
            equations: self.equations.clone(),
            inequalities: self.inequalities.clone(),
            common: self.common.clone(),
            assumptions: self.assumptions.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.vars.clone_from(&source.vars);
        self.equations.clone_from(&source.equations);
        self.inequalities.clone_from(&source.inequalities);
        self.common.clone_from(&source.common);
        self.assumptions.clone_from(&source.assumptions);
    }
}

impl<C: Coeff> DependenceProblem<C> {
    /// Starts building a problem.
    pub fn builder() -> ProblemBuilder<C> {
        ProblemBuilder::new()
    }

    /// Convenience: a single-equation problem `c0 + Σ ck·zk = 0` with
    /// `zk ∈ [0, Zk]` and no common-loop pairing — the exact shape used
    /// throughout the paper's examples.
    ///
    /// # Panics
    ///
    /// Panics when `coeffs` and `uppers` have different lengths.
    pub fn single_equation(c0: C, coeffs: Vec<C>, uppers: Vec<C>) -> DependenceProblem<C> {
        assert_eq!(coeffs.len(), uppers.len(), "coefficient/bound length mismatch");
        let vars = uppers
            .into_iter()
            .enumerate()
            .map(|(k, u)| VarInfo { name: format!("z{}", k + 1), upper: u })
            .collect();
        DependenceProblem {
            vars,
            equations: vec![LinEq { c0, coeffs: coeffs.into() }],
            inequalities: Vec::new(),
            common: Vec::new(),
            assumptions: Assumptions::new(),
        }
    }

    /// The problem variables.
    pub fn vars(&self) -> &[VarInfo<C>] {
        &self.vars
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The equations of the system.
    pub fn equations(&self) -> &[LinEq<C>] {
        &self.equations
    }

    /// The inequality constraints (each `… ≥ 0`).
    pub fn inequalities(&self) -> &[LinIneq<C>] {
        &self.inequalities
    }

    /// The common-loop pairing: for loop level `l` (0-based), the indices of
    /// the source and sink variables.
    pub fn common_loops(&self) -> &[(usize, usize)] {
        &self.common
    }

    /// Symbolic assumptions in force for this problem.
    pub fn assumptions(&self) -> &Assumptions {
        &self.assumptions
    }

    /// Replaces the assumptions in force. This is how the engine installs
    /// a unit's environment on a canonical problem without rebuilding the
    /// variables and constraints through a fresh builder.
    pub fn set_assumptions(&mut self, a: Assumptions) {
        self.assumptions = a;
    }

    /// `true` when every coefficient, constant, and bound is a concrete
    /// integer.
    pub fn is_concrete(&self) -> bool {
        self.vars.iter().all(|v| v.upper.as_i128().is_some())
            && self
                .equations
                .iter()
                .all(|e| e.c0.as_i128().is_some() && e.coeffs.iter().all(|c| c.as_i128().is_some()))
            && self
                .inequalities
                .iter()
                .all(|e| e.c0.as_i128().is_some() && e.coeffs.iter().all(|c| c.as_i128().is_some()))
    }

    /// Returns a copy with a direction predicate imposed on common loop
    /// `level` as inequality/equation constraints:
    ///
    /// * `<` adds `y − x − 1 ≥ 0`;
    /// * `=` adds the equation `x − y = 0`;
    /// * `>` adds `x − y − 1 ≥ 0`;
    /// * `≤`, `≥`, `≠`, `*` likewise (`≠` is not convex and is rejected).
    ///
    /// # Errors
    ///
    /// Returns an error for `≠` (callers should split it into `<` and `>`)
    /// or when arithmetic overflows.
    pub fn with_direction(
        &self,
        level: usize,
        dir: Dir,
    ) -> Result<DependenceProblem<C>, NumericError> {
        let mut out = self.clone();
        out.impose_direction(level, dir)?;
        Ok(out)
    }

    /// The in-place core of [`DependenceProblem::with_direction`]: appends
    /// the predicate's constraint to this problem directly. The refinement
    /// loop applies a whole vector to one scratch clone instead of cloning
    /// the problem once per level.
    pub fn impose_direction(&mut self, level: usize, dir: Dir) -> Result<(), NumericError> {
        let (x, y) = self.common[level];
        let n = self.num_vars();
        let coeffs_xy = |cx: i128, cy: i128| {
            let mut v = CoeffRow::zeroed(n);
            v[x] = C::from_i128(cx);
            v[y] = C::from_i128(cy);
            v
        };
        match dir {
            Dir::Any => {}
            Dir::Lt => {
                self.inequalities.push(LinIneq { c0: C::from_i128(-1), coeffs: coeffs_xy(-1, 1) })
            }
            Dir::Le => self.inequalities.push(LinIneq { c0: C::zero(), coeffs: coeffs_xy(-1, 1) }),
            Dir::Eq => self.equations.push(LinEq { c0: C::zero(), coeffs: coeffs_xy(1, -1) }),
            Dir::Ge => self.inequalities.push(LinIneq { c0: C::zero(), coeffs: coeffs_xy(1, -1) }),
            Dir::Gt => {
                self.inequalities.push(LinIneq { c0: C::from_i128(-1), coeffs: coeffs_xy(1, -1) })
            }
            Dir::Ne => {
                return Err(NumericError::NotConcrete {
                    what: "direction `!=` cannot be imposed as a convex constraint".into(),
                })
            }
        }
        Ok(())
    }

    /// Returns a copy with all direction predicates of a vector imposed
    /// (element `l` applies to common loop `l`). One clone total, not one
    /// per level.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`DependenceProblem::with_direction`].
    pub fn with_directions(&self, dirs: &[Dir]) -> Result<DependenceProblem<C>, NumericError> {
        let mut p = self.clone();
        p.impose_directions(dirs)?;
        Ok(p)
    }

    /// In-place form of [`DependenceProblem::with_directions`].
    pub fn impose_directions(&mut self, dirs: &[Dir]) -> Result<(), NumericError> {
        for (l, &d) in dirs.iter().enumerate() {
            self.impose_direction(l, d)?;
        }
        Ok(())
    }

    /// Keeps the first `equations` equations and `inequalities`
    /// inequalities: undoes [`DependenceProblem::impose_directions`] on a
    /// problem that had that many rows before.
    pub(crate) fn truncate_constraints(&mut self, equations: usize, inequalities: usize) {
        self.equations.truncate(equations);
        self.inequalities.truncate(inequalities);
    }

    /// Returns a copy with one extra inequality `c0 + Σ coeffs[k]·z_k ≥ 0`
    /// (zero-extended to the variable count).
    pub fn with_inequality(&self, c0: C, coeffs: impl Into<CoeffRow<C>>) -> DependenceProblem<C> {
        let mut out = self.clone();
        let mut coeffs = coeffs.into();
        coeffs.resize_with(self.num_vars(), C::zero);
        out.inequalities.push(LinIneq { c0, coeffs });
        out
    }

    /// Checks a concrete assignment against all equations, inequalities and
    /// bounds; used by tests and the exact solver. Rows over integers are
    /// decided exactly, however large their partial sums.
    ///
    /// # Errors
    ///
    /// Returns an error when a symbolic row's evaluation overflows.
    pub fn is_solution(&self, vals: &[C]) -> Result<bool, NumericError> {
        let a = &self.assumptions;
        for (v, val) in self.vars.iter().zip(vals) {
            if !val.is_nonneg(a).is_true() {
                return Ok(false);
            }
            if !val.le(&v.upper, a).is_true() {
                return Ok(false);
            }
        }
        for eq in &self.equations {
            if !row_holds(&eq.c0, &eq.coeffs, vals, true, a)? {
                return Ok(false);
            }
        }
        for ineq in &self.inequalities {
            if !row_holds(&ineq.c0, &ineq.coeffs, vals, false, a)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Incremental builder for [`DependenceProblem`].
///
/// A builder can be fed retired problems through
/// [`ProblemBuilder::recycle`]; their vectors, coefficient rows and name
/// strings become spare storage that [`ProblemBuilder::var_suffixed`] and
/// [`ProblemBuilder::equation_from_subscripts`] overwrite in place, so an
/// engine worker that rebuilds a problem per reference pair stops
/// allocating once the builder has seen the workload's largest shape.
#[derive(Debug)]
pub struct ProblemBuilder<C> {
    vars: Vec<VarInfo<C>>,
    equations: Vec<LinEq<C>>,
    inequalities: Vec<LinIneq<C>>,
    common: Vec<(usize, usize)>,
    assumptions: Assumptions,
    /// Retired variable slots; `var_suffixed` pops and overwrites these.
    spare_vars: Vec<VarInfo<C>>,
    /// Retired equation slots; `equation_from_subscripts` pops and
    /// overwrites these.
    spare_eqs: Vec<LinEq<C>>,
}

/// Spare slots a builder retains across recycles — bounds the storage an
/// idle builder pins while covering the deepest nests the engine builds.
const BUILDER_SPARES: usize = 32;

impl<C: Coeff> Default for ProblemBuilder<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Coeff> ProblemBuilder<C> {
    /// An empty builder.
    pub fn new() -> ProblemBuilder<C> {
        ProblemBuilder {
            vars: Vec::new(),
            equations: Vec::new(),
            inequalities: Vec::new(),
            common: Vec::new(),
            assumptions: Assumptions::new(),
            spare_vars: Vec::new(),
            spare_eqs: Vec::new(),
        }
    }

    /// Reclaims a retired problem's storage: its vectors become the
    /// builder's working vectors (when the builder's own were consumed by
    /// a previous [`ProblemBuilder::build`]) and its variables and
    /// equations become spare slots for in-place overwriting. Purely an
    /// allocation-recycling hook — the built problems are identical with
    /// or without it.
    pub fn recycle(&mut self, mut slab: DependenceProblem<C>) {
        self.spare_vars.append(&mut slab.vars);
        self.spare_vars.truncate(BUILDER_SPARES);
        self.spare_eqs.append(&mut slab.equations);
        self.spare_eqs.truncate(BUILDER_SPARES);
        slab.inequalities.clear();
        slab.common.clear();
        if self.vars.capacity() == 0 {
            self.vars = slab.vars;
        }
        if self.equations.capacity() == 0 {
            self.equations = slab.equations;
        }
        if self.inequalities.capacity() == 0 {
            self.inequalities = slab.inequalities;
        }
        if self.common.capacity() == 0 {
            self.common = slab.common;
        }
    }

    /// Adds a variable with range `[0, upper]`; returns its index.
    pub fn var(&mut self, name: impl Into<String>, upper: C) -> usize {
        self.vars.push(VarInfo { name: name.into(), upper });
        self.vars.len() - 1
    }

    /// Like [`ProblemBuilder::var`] for the `{base}{suffix}` names the
    /// engine gives source/sink loop variables, written with the bound into
    /// a recycled slot when one is available (see
    /// [`ProblemBuilder::recycle`]), so a warm builder adds the variable
    /// without allocating.
    pub fn var_suffixed(&mut self, base: &str, suffix: char, upper: &C) -> usize {
        let mut slot = self.pop_spare_var();
        slot.name.push_str(base);
        slot.name.push(suffix);
        slot.upper.clone_from(upper);
        self.vars.push(slot);
        self.vars.len() - 1
    }

    /// A cleared variable slot: a recycled one when available, else fresh.
    fn pop_spare_var(&mut self) -> VarInfo<C> {
        match self.spare_vars.pop() {
            Some(mut s) => {
                s.name.clear();
                s
            }
            None => VarInfo { name: String::new(), upper: C::zero() },
        }
    }

    /// Adds the equation `c0 + Σ coeffs[k]·z_k = 0`. Shorter coefficient
    /// vectors are zero-extended to the final variable count at build time.
    pub fn equation(&mut self, c0: C, coeffs: impl Into<CoeffRow<C>>) -> &mut Self {
        self.equations.push(LinEq { c0, coeffs: coeffs.into() });
        self
    }

    /// Adds the inequality `c0 + Σ coeffs[k]·z_k ≥ 0` (zero-extended like
    /// equations).
    pub fn inequality(&mut self, c0: C, coeffs: impl Into<CoeffRow<C>>) -> &mut Self {
        self.inequalities.push(LinIneq { c0, coeffs: coeffs.into() });
        self
    }

    /// Declares that source variable `x` and sink variable `y` instantiate
    /// the same common loop (order of calls = loop nesting order).
    pub fn common_pair(&mut self, x: usize, y: usize) -> &mut Self {
        self.common.push((x, y));
        self
    }

    /// Installs symbolic assumptions.
    pub fn assumptions(&mut self, a: Assumptions) -> &mut Self {
        self.assumptions = a;
        self
    }

    /// Builds an equation from the difference of two affine subscripts,
    /// where `src` is expressed over variables `src_map[k] = problem var` and
    /// `snk` likewise: the equation is `src(x̄) − snk(ȳ) = 0`.
    ///
    /// # Errors
    ///
    /// Returns an error on arithmetic overflow.
    pub fn equation_from_subscripts(
        &mut self,
        src: &Affine<C>,
        src_map: &[usize],
        snk: &Affine<C>,
        snk_map: &[usize],
    ) -> Result<&mut Self, NumericError> {
        let n = self.vars.len();
        // Overwrite a recycled equation slot when one is available (see
        // `recycle`); the fresh-slot path is the historical behavior.
        let mut eq = match self.spare_eqs.pop() {
            Some(mut eq) => {
                eq.coeffs.reset_zeroed(n);
                eq
            }
            None => LinEq { c0: C::zero(), coeffs: CoeffRow::zeroed(n) },
        };
        eq.c0 = src.constant_part().checked_sub(snk.constant_part())?;
        let coeffs = &mut eq.coeffs;
        // Guard against maps that don't cover the subscript variables.
        for (v, c) in src.terms() {
            let VarId(idx) = v;
            let slot = *src_map.get(idx as usize).ok_or_else(|| NumericError::NotConcrete {
                what: format!("source subscript variable {v} has no problem mapping"),
            })?;
            coeffs[slot] = coeffs[slot].checked_add(c)?;
        }
        for (v, c) in snk.terms() {
            let VarId(idx) = v;
            let slot = *snk_map.get(idx as usize).ok_or_else(|| NumericError::NotConcrete {
                what: format!("sink subscript variable {v} has no problem mapping"),
            })?;
            coeffs[slot] = coeffs[slot].checked_sub(c)?;
        }
        self.equations.push(eq);
        Ok(self)
    }

    /// Finalizes the problem, zero-extending all coefficient vectors.
    pub fn build(&mut self) -> DependenceProblem<C> {
        let n = self.vars.len();
        for eq in &mut self.equations {
            eq.coeffs.resize_with(n, C::zero);
        }
        for ineq in &mut self.inequalities {
            ineq.coeffs.resize_with(n, C::zero);
        }
        DependenceProblem {
            vars: std::mem::take(&mut self.vars),
            equations: std::mem::take(&mut self.equations),
            inequalities: std::mem::take(&mut self.inequalities),
            common: std::mem::take(&mut self.common),
            assumptions: std::mem::take(&mut self.assumptions),
        }
    }
}

/// A recycling arena of [`DependenceProblem`]s for the miss path.
///
/// Each miss clones its canonical problem (to install the unit's
/// assumptions, to refine directions, …) and drops the clone moments later.
/// An arena intercepts that churn: [`ProblemArena::lease_clone`] overwrites
/// a previously-recycled problem in place via the capacity-reusing
/// `clone_from` chain (`Vec` → [`LinEq`]/[`LinIneq`] → [`CoeffRow`] →
/// `String`/`SymPoly`), so once warm a lease allocates only what genuinely
/// grew. Engine workers keep one arena per thread; slabs free in one drop
/// when the arena does.
#[derive(Debug, Default)]
pub struct ProblemArena<C> {
    free: Vec<DependenceProblem<C>>,
}

/// Slabs retained per arena; enough for the deepest lease nesting the
/// engine reaches (decision problem + refinement + probe), small enough
/// that an idle worker pins only a few problems' worth of memory.
const ARENA_SLABS: usize = 8;

impl<C: Coeff> ProblemArena<C> {
    /// An empty arena.
    pub fn new() -> ProblemArena<C> {
        ProblemArena { free: Vec::new() }
    }

    /// A copy of `template`, built into a recycled slab when one is
    /// available (a plain clone otherwise).
    pub fn lease_clone(&mut self, template: &DependenceProblem<C>) -> DependenceProblem<C> {
        match self.free.pop() {
            Some(mut slab) => {
                slab.clone_from(template);
                slab
            }
            None => template.clone(),
        }
    }

    /// Returns a problem to the arena for later reuse. Beyond
    /// [`ARENA_SLABS`] retained slabs the problem is simply dropped.
    pub fn recycle(&mut self, problem: DependenceProblem<C>) {
        if self.free.len() < ARENA_SLABS {
            self.free.push(problem);
        }
    }
}

impl<C: Coeff> fmt::Display for DependenceProblem<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for eq in &self.equations {
            write!(f, "0 = {}", eq.c0)?;
            for (k, c) in eq.coeffs.iter().enumerate() {
                if !c.is_zero() {
                    write!(f, " + {}*{}", c, self.vars[k].name)?;
                }
            }
            writeln!(f)?;
        }
        for ineq in &self.inequalities {
            write!(f, "0 <= {}", ineq.c0)?;
            for (k, c) in ineq.coeffs.iter().enumerate() {
                if !c.is_zero() {
                    write!(f, " + {}*{}", c, self.vars[k].name)?;
                }
            }
            writeln!(f)?;
        }
        for v in &self.vars {
            writeln!(f, "{} in [0, {}]", v.name, v.upper)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's motivating equation:
    /// `i1 + 10 j1 − i2 − 10 j2 − 5 = 0`, `i ∈ [0,4]`, `j ∈ [0,9]`.
    pub fn motivating() -> DependenceProblem<i128> {
        DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9])
    }

    #[test]
    fn single_equation_shape() {
        let p = motivating();
        assert_eq!(p.num_vars(), 4);
        assert_eq!(p.equations().len(), 1);
        assert_eq!(p.equations()[0].num_active_vars(), 4);
        assert!(p.is_concrete());
        assert!(p.inequalities().is_empty());
        assert_eq!(p.vars()[0].name, "z1");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn single_equation_validates() {
        let _ = DependenceProblem::single_equation(0i128, vec![1], vec![1, 2]);
    }

    #[test]
    fn builder_and_directions() {
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 8);
        let y = b.var("i2", 8);
        b.equation(-1, vec![1, -1]); // i1 - i2 = 1
        b.common_pair(x, y);
        let p = b.build();
        assert_eq!(p.common_loops(), &[(0, 1)]);

        // i1 > i2 is consistent with i1 - i2 = 1
        let gt = p.with_direction(0, Dir::Gt).unwrap();
        assert!(gt.is_solution(&[1, 0]).unwrap());
        // i1 < i2 is not
        let lt = p.with_direction(0, Dir::Lt).unwrap();
        assert!(!lt.is_solution(&[1, 0]).unwrap());
        // = adds an equation making it infeasible together with i1-i2=1
        let eq = p.with_direction(0, Dir::Eq).unwrap();
        assert_eq!(eq.equations().len(), 2);
        assert!(!eq.is_solution(&[1, 0]).unwrap());
        // Ne is rejected
        assert!(p.with_direction(0, Dir::Ne).is_err());
        // Any leaves the problem unchanged
        let any = p.with_direction(0, Dir::Any).unwrap();
        assert_eq!(any, p);
        // with_directions applies element-wise
        let le = p.with_directions(&[Dir::Le]).unwrap();
        assert_eq!(le.inequalities().len(), 1);
    }

    #[test]
    fn is_solution_checks_everything() {
        let p = motivating();
        // i1=0..4, j1, i2, j2: equation has no integer solutions at all,
        // but is_solution only checks a given point.
        assert!(!p.is_solution(&[0, 0, 0, 0]).unwrap());
        // out-of-bounds rejected even if the equation holds:
        // 5 + 0 - 0 - 0 - 5 = 0 but i1=5 > 4.
        assert!(!p.is_solution(&[5, 0, 0, 0]).unwrap());
        // negative rejected
        assert!(!p.is_solution(&[-5, 1, 0, 1]).unwrap());
    }

    #[test]
    fn equation_from_subscripts() {
        use delin_numeric::Affine;
        // src: i + 10*j ; snk: i + 10*j + 5 over separate variable spaces
        let i = VarId(0);
        let j = VarId(1);
        let src = Affine::<i128>::var(i).checked_add(&Affine::var_scaled(j, 10)).unwrap();
        let snk = src.checked_add(&Affine::constant(5)).unwrap();
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 4);
        let j1 = b.var("j1", 9);
        let i2 = b.var("i2", 4);
        let j2 = b.var("j2", 9);
        b.common_pair(i1, i2).common_pair(j1, j2);
        b.equation_from_subscripts(&src, &[i1, j1], &snk, &[i2, j2]).unwrap();
        let p = b.build();
        let eq = &p.equations()[0];
        assert_eq!(eq.c0, -5);
        assert_eq!(eq.coeffs, vec![1, 10, -1, -10]);
    }

    #[test]
    fn display_contains_structure() {
        let p = motivating();
        let s = p.to_string();
        assert!(s.contains("0 = -5"));
        assert!(s.contains("z1 in [0, 4]"));
    }

    #[test]
    fn lineq_eval_and_active() {
        let eq = LinEq { c0: -5i128, coeffs: vec![1, 10, -1, -10].into() };
        assert_eq!(eq.eval(&[5, 1, 0, 1]).unwrap(), 0);
        assert_eq!(eq.active_vars().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let ineq = LinIneq { c0: -1i128, coeffs: vec![1, 0, 0, 0].into() };
        assert_eq!(ineq.eval(&[3, 0, 0, 0]).unwrap(), 2);
    }
}
