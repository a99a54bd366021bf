//! Affine subscript extraction and loop normalization.
//!
//! Subscript functions are restricted to the paper's class: linear
//! functions of the loop variables whose coefficients are loop-invariant
//! integer expressions (Section 2 and Section 4). Everything else —
//! function calls like `IFUN(10)`, products of two loop variables — is
//! *opaque* and analyzed conservatively.
//!
//! Loops are normalized to run from `0` by step `1` (Section 2): the loop
//! `DO i = L, U, s` contributes the substitution `i := L + s·i'` with
//! `i' ∈ [0, (U − L)/s]`. Non-rectangular bounds (inner bounds referencing
//! outer variables) are widened to their rectangular extension, the
//! trade-off of the paper's footnote 1.
//!
//! Two evaluators share these rules. [`expr_to_affine`] builds
//! [`SymAffine`] forms, whose coefficients are polynomials. [`IntAffine`]
//! is its integer twin for the common case of an expression without
//! symbols: it performs the same checked `i128` operations, on the same
//! operands, as the polynomial path performs on constant polynomials, so
//! both overflow at exactly the same inputs. It stops with
//! [`Stop::Symbolic`] at the first symbol, and the caller then redoes the
//! whole expression on the polynomial path. [`normalize_loop`] normalizes
//! one loop given the loops around it, so a walk normalizes each loop once,
//! when it enters it.

use crate::ast::{BinOp, Expr, Loop};
use delin_numeric::{Affine, Assumptions, Sign, Sym, SymPoly, VarId};
use std::cell::OnceCell;
use std::sync::Arc;

/// An affine form over normalized loop variables with symbolic
/// coefficients.
pub type SymAffine = Affine<SymPoly>;

/// What a name inside a subscript, bound or step stands for.
#[derive(Debug, Clone)]
enum Name {
    /// The variable of the `k`-th enclosing loop, outermost first.
    Loop(usize),
    /// A symbolic parameter.
    Symbol(Sym),
}

/// Evaluates a loop-invariant expression to a polynomial over symbolic
/// parameters. `None` when the expression mentions a loop variable, an
/// array element / function call, or an inexact division.
pub fn expr_to_sympoly(e: &Expr, loop_vars: &[String]) -> Option<SymPoly> {
    sympoly_with(e, &mut |name| name_in(loop_vars, name))
}

/// [`expr_to_sympoly`] with the names resolved by `resolve`.
fn sympoly_with(e: &Expr, resolve: &mut impl FnMut(&str) -> Name) -> Option<SymPoly> {
    match e {
        Expr::Int(v) => Some(SymPoly::constant(*v)),
        Expr::Var(name) => match resolve(name) {
            Name::Loop(_) => None,
            Name::Symbol(sym) => Some(SymPoly::symbol(sym)),
        },
        Expr::Index(..) => None,
        Expr::Neg(a) => sympoly_with(a, resolve)?.checked_neg().ok(),
        Expr::Bin(op, a, b) => {
            let x = sympoly_with(a, resolve)?;
            let y = sympoly_with(b, resolve)?;
            match op {
                BinOp::Add => x.checked_add(&y).ok(),
                BinOp::Sub => x.checked_sub(&y).ok(),
                BinOp::Mul => x.checked_mul(&y).ok(),
                BinOp::Div => x.try_div_exact(&y),
            }
        }
    }
}

/// The first loop in `loop_vars` named `name`, else a fresh symbol.
fn name_in(loop_vars: &[String], name: &str) -> Name {
    match loop_vars.iter().position(|v| v == name) {
        Some(k) => Name::Loop(k),
        None => Name::Symbol(Sym::new(name)),
    }
}

/// Extracts an affine function of the loop variables (`loop_vars[k]` maps
/// to `VarId(k)`). `None` for non-affine expressions.
///
/// ```
/// use delin_frontend::ast::Expr;
/// use delin_frontend::affine::expr_to_affine;
/// use delin_numeric::VarId;
/// // i + 10*j + 5
/// let e = Expr::add(
///     Expr::add(Expr::var("I"), Expr::mul(Expr::int(10), Expr::var("J"))),
///     Expr::int(5),
/// );
/// let a = expr_to_affine(&e, &["I".into(), "J".into()]).unwrap();
/// assert_eq!(a.coeff(VarId(0)).as_constant(), Some(1));
/// assert_eq!(a.coeff(VarId(1)).as_constant(), Some(10));
/// ```
pub fn expr_to_affine(e: &Expr, loop_vars: &[String]) -> Option<SymAffine> {
    affine_with(e, &mut |name| name_in(loop_vars, name))
}

/// [`expr_to_affine`] with the names resolved by `resolve`.
fn affine_with(e: &Expr, resolve: &mut impl FnMut(&str) -> Name) -> Option<SymAffine> {
    match e {
        Expr::Int(v) => Some(Affine::constant(SymPoly::constant(*v))),
        Expr::Var(name) => match resolve(name) {
            Name::Loop(k) => Some(Affine::var(VarId(k as u32))),
            Name::Symbol(sym) => Some(Affine::constant(SymPoly::symbol(sym))),
        },
        Expr::Index(..) => None,
        Expr::Neg(a) => affine_with(a, resolve)?.checked_neg().ok(),
        Expr::Bin(op, a, b) => {
            let x = affine_with(a, resolve)?;
            let y = affine_with(b, resolve)?;
            match op {
                BinOp::Add => x.checked_add(&y).ok(),
                BinOp::Sub => x.checked_sub(&y).ok(),
                BinOp::Mul => {
                    // One side must be loop-invariant.
                    if x.is_constant() {
                        y.checked_scale(x.constant_part()).ok()
                    } else if y.is_constant() {
                        x.checked_scale(y.constant_part()).ok()
                    } else {
                        None
                    }
                }
                BinOp::Div => {
                    // Only loop-invariant exact division.
                    if x.is_constant() && y.is_constant() {
                        let q = x.constant_part().try_div_exact(y.constant_part())?;
                        Some(Affine::constant(q))
                    } else {
                        None
                    }
                }
            }
        }
    }
}

/// Most variable terms an [`IntAffine`] holds; a wider form takes the
/// polynomial path.
const INT_TERMS: usize = 6;

/// Why the integer path stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The polynomial path fails too: the expression is not affine, or an
    /// operation overflows.
    Fails,
    /// A symbol, or more terms than an [`IntAffine`] holds: redo the
    /// expression on the polynomial path.
    Symbolic,
}

/// An affine form with `i128` coefficients, held inline. Zero coefficients
/// are never stored, and terms are sorted by variable.
///
/// Each operation mirrors the [`Affine`] operation of the same name on
/// constant polynomials, check for check: a sum adds each coefficient
/// once, a difference negates the subtrahend's coefficients first, and a
/// scale by zero is zero without a multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IntAffine {
    constant: i128,
    len: usize,
    terms: [(u32, i128); INT_TERMS],
}

impl IntAffine {
    fn constant(c: i128) -> IntAffine {
        IntAffine { constant: c, len: 0, terms: [(0, 0); INT_TERMS] }
    }

    fn var_scaled(v: u32, c: i128) -> IntAffine {
        let mut out = IntAffine::constant(0);
        if c != 0 {
            out.terms[0] = (v, c);
            out.len = 1;
        }
        out
    }

    fn terms(&self) -> &[(u32, i128)] {
        &self.terms[..self.len]
    }

    fn is_constant(&self) -> bool {
        self.len == 0
    }

    /// Adds `c·v` (`c ≠ 0`), dropping the term if it cancels.
    fn add_term(&mut self, v: u32, c: i128) -> Result<(), Stop> {
        match self.terms().binary_search_by_key(&v, |t| t.0) {
            Ok(i) => {
                let sum = self.terms[i].1.checked_add(c).ok_or(Stop::Fails)?;
                if sum == 0 {
                    self.terms.copy_within(i + 1..self.len, i);
                    self.len -= 1;
                } else {
                    self.terms[i].1 = sum;
                }
            }
            Err(i) => {
                if self.len == INT_TERMS {
                    return Err(Stop::Symbolic);
                }
                self.terms.copy_within(i..self.len, i + 1);
                self.terms[i] = (v, c);
                self.len += 1;
            }
        }
        Ok(())
    }

    fn checked_add(mut self, other: &IntAffine) -> Result<IntAffine, Stop> {
        self.constant = self.constant.checked_add(other.constant).ok_or(Stop::Fails)?;
        for &(v, c) in other.terms() {
            self.add_term(v, c)?;
        }
        Ok(self)
    }

    fn checked_neg(mut self) -> Result<IntAffine, Stop> {
        self.constant = self.constant.checked_neg().ok_or(Stop::Fails)?;
        for t in &mut self.terms[..self.len] {
            t.1 = t.1.checked_neg().ok_or(Stop::Fails)?;
        }
        Ok(self)
    }

    fn checked_sub(self, other: IntAffine) -> Result<IntAffine, Stop> {
        self.checked_add(&other.checked_neg()?)
    }

    fn checked_scale(mut self, k: i128) -> Result<IntAffine, Stop> {
        if k == 0 {
            return Ok(IntAffine::constant(0));
        }
        self.constant = self.constant.checked_mul(k).ok_or(Stop::Fails)?;
        for t in &mut self.terms[..self.len] {
            t.1 = t.1.checked_mul(k).ok_or(Stop::Fails)?;
        }
        Ok(self)
    }

    /// The same form with polynomial coefficients.
    fn to_sym(self) -> SymAffine {
        Affine::from_terms(
            SymPoly::constant(self.constant),
            self.terms().iter().map(|&(v, c)| (VarId(v), SymPoly::constant(c))),
        )
    }

    /// The integer form of `a`, when every coefficient is an integer.
    fn from_sym(a: &SymAffine) -> Result<IntAffine, Stop> {
        let mut out = IntAffine::constant(a.constant_part().as_constant().ok_or(Stop::Symbolic)?);
        for (v, c) in a.terms() {
            out.add_term(v.0, c.as_constant().ok_or(Stop::Symbolic)?)?;
        }
        Ok(out)
    }
}

/// The integer twin of [`affine_with`]: names resolve through `resolve`,
/// whose `Err` ends the evaluation (a symbol is `Err(Stop::Symbolic)`).
fn int_affine(e: &Expr, resolve: &impl Fn(&str) -> Result<usize, Stop>) -> Result<IntAffine, Stop> {
    match e {
        Expr::Int(v) => Ok(IntAffine::constant(*v)),
        Expr::Var(name) => Ok(IntAffine::var_scaled(resolve(name)? as u32, 1)),
        Expr::Index(..) => Err(Stop::Fails),
        Expr::Neg(a) => int_affine(a, resolve)?.checked_neg(),
        Expr::Bin(op, a, b) => {
            let x = int_affine(a, resolve)?;
            let y = int_affine(b, resolve)?;
            match op {
                BinOp::Add => x.checked_add(&y),
                BinOp::Sub => x.checked_sub(y),
                BinOp::Mul => {
                    if x.is_constant() {
                        y.checked_scale(x.constant)
                    } else if y.is_constant() {
                        x.checked_scale(y.constant)
                    } else {
                        Err(Stop::Fails)
                    }
                }
                BinOp::Div => {
                    if x.is_constant() && y.is_constant() {
                        // Rare: let the polynomial division decide.
                        let q = SymPoly::constant(x.constant)
                            .try_div_exact(&SymPoly::constant(y.constant))
                            .ok_or(Stop::Fails)?;
                        Ok(IntAffine::constant(q.as_constant().ok_or(Stop::Fails)?))
                    } else {
                        Err(Stop::Fails)
                    }
                }
            }
        }
    }
}

/// One normalized loop of a nest: the variable runs over `[0, upper]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedLoop {
    /// Unique loop identity within the program walk (preorder index).
    pub uid: u32,
    /// Original loop-variable name, shared by every site and edge of the
    /// walk that names this loop.
    pub var: Arc<str>,
    /// Rectangularized inclusive upper bound of the normalized variable.
    pub upper: SymPoly,
}

/// A loop normalized against the loops around it: its rectangularized
/// trip upper bound, and the substitution `var := lower + step·var'` over
/// the normalized variables of it and its outer loops (`VarId(k)` = loop
/// `k`).
#[derive(Debug, Clone)]
pub(crate) struct Normalized {
    pub(crate) upper: SymPoly,
    /// The substitution with integer coefficients, when it has them.
    int: Option<IntAffine>,
    /// The substitution with polynomial coefficients, built on first use
    /// when `int` holds it.
    sym: OnceCell<SymAffine>,
}

impl Normalized {
    fn sym(&self) -> &SymAffine {
        self.sym.get_or_init(|| self.int.as_ref().expect("an unset form is integer").to_sym())
    }
}

/// A subscript as an affine form over the normalized variables of its
/// nest, `None` when it is opaque. `loops` is the nest, normalized; `None`
/// when the nest does not normalize, and then only a subscript free of
/// loop variables is affine. `find` and `symbol` resolve names as for
/// [`normalize_loop`].
pub(crate) fn normalize_subscript(
    e: &Expr,
    loops: Option<&[Normalized]>,
    find: &impl Fn(&str) -> Option<usize>,
    symbol: &mut impl FnMut(&str) -> Sym,
) -> Option<SymAffine> {
    let int = int_affine(e, &|name| find(name).ok_or(Stop::Symbolic)).and_then(|raw| match loops {
        Some(loops) => int_apply(&raw, loops, loops.len()),
        None if raw.is_constant() => Ok(raw),
        None => Err(Stop::Fails),
    });
    match int {
        Ok(a) => Some(a.to_sym()),
        Err(Stop::Fails) => None,
        Err(Stop::Symbolic) => {
            let raw = affine_with(e, &mut |name| match find(name) {
                Some(k) => Name::Loop(k),
                None => Name::Symbol(symbol(name)),
            })?;
            match loops {
                Some(loops) => apply(&raw, loops, loops.len()),
                None => raw.is_constant().then_some(raw),
            }
        }
    }
}

/// Rewrites `a`, a form over original loop variables `0..limit`, over the
/// normalized ones. `None` when a term names loop `limit` or a deeper one.
fn apply(a: &SymAffine, loops: &[Normalized], limit: usize) -> Option<SymAffine> {
    let mut out = Affine::constant(a.constant_part().clone());
    for (v, c) in a.terms() {
        let k = v.0 as usize;
        if k >= limit {
            return None;
        }
        out = out.checked_add(&loops[k].sym().checked_scale(c).ok()?).ok()?;
    }
    Some(out)
}

/// [`apply`] on the integer path; `Stop::Symbolic` when a substitution it
/// needs has polynomial coefficients.
fn int_apply(a: &IntAffine, loops: &[Normalized], limit: usize) -> Result<IntAffine, Stop> {
    let mut out = IntAffine::constant(a.constant);
    for &(v, c) in a.terms() {
        let k = v as usize;
        if k >= limit {
            return Err(Stop::Fails);
        }
        let repl = loops[k].int.ok_or(Stop::Symbolic)?;
        out = out.checked_add(&repl.checked_scale(c)?)?;
    }
    Ok(out)
}

/// Normalizes loop `k` of a nest whose loops `0..k` are normalized in
/// `outer`. `find` maps a name to the loop of the nest it names, and
/// `symbol` builds the symbol of any other name; a bound naming loop `k` or
/// a deeper one does not normalize. `None` when a bound or step is not
/// analyzable (non-affine, zero or symbolic step, an overflow, or an
/// undecidable sign during rectangularization).
pub(crate) fn normalize_loop(
    l: &Loop,
    k: usize,
    outer: &[Normalized],
    assumptions: &Assumptions,
    find: &impl Fn(&str) -> Option<usize>,
    symbol: &mut impl FnMut(&str) -> Sym,
) -> Option<Normalized> {
    match normalize_int(l, k, outer, find) {
        Ok((upper, subst)) => Some(Normalized {
            upper: SymPoly::constant(upper),
            int: Some(subst),
            sym: OnceCell::new(),
        }),
        Err(Stop::Fails) => None,
        Err(Stop::Symbolic) => {
            let mut resolve = |name: &str| match find(name) {
                Some(j) => Name::Loop(j),
                None => Name::Symbol(symbol(name)),
            };
            let (upper, subst) = normalize_sym(l, k, outer, assumptions, &mut resolve)?;
            Some(Normalized { upper, int: None, sym: OnceCell::from(subst) })
        }
    }
}

/// [`normalize_loop`] on the integer path.
fn normalize_int(
    l: &Loop,
    k: usize,
    outer: &[Normalized],
    find: &impl Fn(&str) -> Option<usize>,
) -> Result<(i128, IntAffine), Stop> {
    let resolve = |name: &str| find(name).ok_or(Stop::Symbolic);
    // A step names no loop.
    let step = |name: &str| Err(if find(name).is_some() { Stop::Fails } else { Stop::Symbolic });
    let lower_raw = int_affine(&l.lower, &resolve)?;
    let upper_raw = int_affine(&l.upper, &resolve)?;
    // Outer variables in the bounds are *original* variables; rewrite them
    // over normalized ones first.
    let lower = int_apply(&lower_raw, outer, k)?;
    let upper = int_apply(&upper_raw, outer, k)?;
    let step = match &l.step {
        None => 1,
        Some(e) => int_affine(e, &step)?.constant,
    };
    if step == 0 {
        return Err(Stop::Fails);
    }
    let span = if step > 0 { upper.checked_sub(lower)? } else { lower.checked_sub(upper)? };
    let s = step.checked_abs().ok_or(Stop::Fails)?;
    let span = if s == 1 {
        span
    } else {
        // Rare: divide on the polynomial path.
        IntAffine::from_sym(&exact_or_truncated_div(&span.to_sym(), s).ok_or(Stop::Fails)?)?
    };
    // Rectangularize: a positive coefficient takes its loop's upper bound.
    // The polynomial path proves no sign for `MIN`, whose negation
    // overflows; let it fail there.
    let mut trip = span.constant;
    for &(v, c) in span.terms() {
        if c == i128::MIN {
            return Err(Stop::Symbolic);
        }
        if c > 0 {
            let u = outer[v as usize].upper.as_constant().ok_or(Stop::Symbolic)?;
            trip = c.checked_mul(u).and_then(|t| trip.checked_add(t)).ok_or(Stop::Fails)?;
        }
    }
    Ok((trip, lower.checked_add(&IntAffine::var_scaled(k as u32, step))?))
}

/// [`normalize_loop`] on the polynomial path.
fn normalize_sym(
    l: &Loop,
    k: usize,
    outer: &[Normalized],
    assumptions: &Assumptions,
    resolve: &mut impl FnMut(&str) -> Name,
) -> Option<(SymPoly, SymAffine)> {
    let lower_raw = affine_with(&l.lower, resolve)?;
    let upper_raw = affine_with(&l.upper, resolve)?;
    let lower = apply(&lower_raw, outer, k)?;
    let upper = apply(&upper_raw, outer, k)?;
    let step = match &l.step {
        None => 1i128,
        Some(e) => sympoly_with(e, resolve)?.as_constant()?,
    };
    if step == 0 {
        return None;
    }
    // Trip count - 1: (upper - lower) / step, exact or rectangular.
    // Iteration always starts at the lower-bound expression (FORTRAN
    // `DO i = L, U, s` starts at L even for negative s).
    let span =
        if step > 0 { upper.checked_sub(&lower).ok()? } else { lower.checked_sub(&upper).ok()? };
    let s = step.checked_abs()?;
    let span = if s == 1 { span } else { exact_or_truncated_div(&span, s)? };
    let trip_upper = rectangular_max(&span, |j| outer.get(j).map(|o| &o.upper), assumptions)?;
    // original var = lower + step·normalized_var.
    let repl =
        lower.checked_add(&Affine::var_scaled(VarId(k as u32), SymPoly::constant(step))).ok()?;
    Some((trip_upper, repl))
}

/// `(span)/s` by exact polynomial division, or, for constants, floor
/// division (the rectangular trip count for constant bounds).
fn exact_or_truncated_div(span: &SymAffine, s: i128) -> Option<SymAffine> {
    let divisor = SymPoly::constant(s);
    let mut out = Affine::constant(match span.constant_part().try_div_exact(&divisor) {
        Some(q) => q,
        None => {
            let c = span.constant_part().as_constant()?;
            SymPoly::constant(delin_numeric::int::floor_div(c, s).ok()?)
        }
    });
    for (v, c) in span.terms() {
        let q = c.try_div_exact(&divisor)?;
        out = out.checked_add(&Affine::var_scaled(v, q)).ok()?;
    }
    Some(out)
}

/// Infers symbol lower bounds from the loop bounds of a program, under the
/// standard vectorizer premise that every loop executes at least once: a
/// loop `DO i = L, U` contributes `U − L ≥ 0`. When that difference has
/// the shape `s − k` for a single symbol `s`, the assumption `s ≥ k` is
/// recorded (this is the paper's "translator has to be able to keep and
/// process predicates" in its simplest useful form).
///
/// The inference is *safe for vectorization*: if a loop actually executes
/// zero times, the generated vector statement covers an empty section and
/// is a no-op.
pub fn infer_bound_assumptions(program: &crate::ast::Program, base: &Assumptions) -> Assumptions {
    let mut out = base.clone();
    fn walk(stmts: &[crate::ast::Stmt], out: &mut Assumptions) {
        for s in stmts {
            if let crate::ast::Stmt::Loop(l) = s {
                if let (Some(lo), Some(hi)) =
                    (expr_to_sympoly(&l.lower, &[]), expr_to_sympoly(&l.upper, &[]))
                {
                    if let Ok(span) = hi.checked_sub(&lo) {
                        // span = s - k  =>  s >= k.
                        let syms = span.symbols();
                        if syms.len() == 1 {
                            let sym = &syms[0];
                            let linear = span
                                .checked_sub(&SymPoly::symbol(sym.clone()))
                                .ok()
                                .and_then(|rest| rest.as_constant());
                            if let Some(neg_k) = linear {
                                out.set_lower_bound(sym.clone(), -neg_k);
                            }
                        }
                    }
                }
                walk(&l.body, out);
            }
        }
    }
    walk(&program.body, &mut out);
    out
}

/// The maximum of an affine form over the rectangle of the (normalized)
/// outer loops: substitute each variable by `0` or its upper bound
/// according to the sign of its coefficient.
fn rectangular_max<'u>(
    a: &SymAffine,
    upper_of: impl Fn(usize) -> Option<&'u SymPoly>,
    assumptions: &Assumptions,
) -> Option<SymPoly> {
    let mut acc = a.constant_part().clone();
    for (v, c) in a.terms() {
        let upper = upper_of(v.0 as usize)?;
        match c.sign(assumptions)? {
            Sign::Positive => acc = acc.checked_add(&c.checked_mul(upper).ok()?).ok()?,
            Sign::Zero | Sign::Negative => {} // max at variable = 0
        }
    }
    Some(acc)
}

/// The per-statement normalization this module had before loops were
/// normalized once per walk, kept as the reference the walk is tested
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// A raw (pre-normalization) description of one loop of a nest.
    #[derive(Debug, Clone)]
    pub struct RawLoop {
        /// Unique loop identity.
        pub uid: u32,
        /// Loop variable name.
        pub var: String,
        /// Lower bound expression.
        pub lower: Expr,
        /// Upper bound expression.
        pub upper: Expr,
        /// Step expression (`None` = 1).
        pub step: Option<Expr>,
    }

    /// The result of normalizing a nest: normalized loops plus the
    /// substitutions `original_var := lower + step·normalized_var` needed to
    /// renormalize subscript functions.
    #[derive(Debug, Clone)]
    pub struct NormalizedNest {
        /// Normalized loops, outermost first.
        pub loops: Vec<NormalizedLoop>,
        /// Per-loop substitution as an affine form over the *normalized*
        /// variables (`VarId(k)` = loop `k`).
        substitutions: Vec<SymAffine>,
    }

    impl NormalizedNest {
        /// Renormalizes a subscript expressed over the *original* loop
        /// variables into one over the normalized variables.
        pub fn apply(&self, subscript: &SymAffine) -> Option<SymAffine> {
            let mut out = Affine::constant(subscript.constant_part().clone());
            for (v, c) in subscript.terms() {
                let VarId(k) = v;
                let repl = self.substitutions.get(k as usize)?;
                out = out.checked_add(&repl.checked_scale(c).ok()?).ok()?;
            }
            Some(out)
        }
    }

    /// Normalizes a nest of loops (outermost first). Returns `None` when a
    /// bound or step is not analyzable (non-affine, zero or symbolic step,
    /// or an undecidable sign during rectangularization).
    pub fn normalize_nest(loops: &[RawLoop], assumptions: &Assumptions) -> Option<NormalizedNest> {
        let names: Vec<String> = loops.iter().map(|l| l.var.clone()).collect();
        let mut substitutions: Vec<SymAffine> = Vec::with_capacity(loops.len());
        let mut normalized: Vec<NormalizedLoop> = Vec::with_capacity(loops.len());
        for (k, l) in loops.iter().enumerate() {
            // Bounds may reference outer loop variables (triangular nests).
            let lower_raw = expr_to_affine(&l.lower, &names)?;
            let upper_raw = expr_to_affine(&l.upper, &names)?;
            // Outer variables appearing in the bounds refer to *original*
            // variables; rewrite them over normalized ones first.
            let lower = apply_prefix(&lower_raw, &substitutions, k)?;
            let upper = apply_prefix(&upper_raw, &substitutions, k)?;
            let step = match &l.step {
                None => 1i128,
                Some(e) => expr_to_sympoly(e, &names)?.as_constant()?,
            };
            if step == 0 {
                return None;
            }
            let base = lower.clone();
            let span = if step > 0 {
                upper.checked_sub(&lower).ok()?
            } else {
                lower.checked_sub(&upper).ok()?
            };
            // `step.abs()` overflowed at `i128::MIN` before; that step does
            // not normalize.
            let s = step.checked_abs()?;
            let span = if s == 1 { span } else { exact_or_truncated_div(&span, s)? };
            let trip_upper = rectangular_max(
                &span,
                |j| normalized.get(j).map(|n: &NormalizedLoop| &n.upper),
                assumptions,
            )?;
            let step_poly = SymPoly::constant(step);
            let repl = base.checked_add(&Affine::var_scaled(VarId(k as u32), step_poly)).ok()?;
            substitutions.push(repl);
            normalized.push(NormalizedLoop {
                uid: l.uid,
                var: l.var.as_str().into(),
                upper: trip_upper,
            });
        }
        Some(NormalizedNest { loops: normalized, substitutions })
    }

    /// Rewrites an affine form over original variables `0..k` using the
    /// already-computed substitutions.
    fn apply_prefix(a: &SymAffine, substitutions: &[SymAffine], k: usize) -> Option<SymAffine> {
        let mut out = Affine::constant(a.constant_part().clone());
        for (v, c) in a.terms() {
            let VarId(idx) = v;
            if idx as usize >= k {
                // A bound referencing the loop's own (or an inner) variable
                // is not analyzable.
                return None;
            }
            let repl = &substitutions[idx as usize];
            out = out.checked_add(&repl.checked_scale(c).ok()?).ok()?;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{normalize_nest, RawLoop};
    use super::*;
    use crate::ast::Expr;

    fn raw(uid: u32, var: &str, lower: Expr, upper: Expr) -> RawLoop {
        RawLoop { uid, var: var.into(), lower, upper, step: None }
    }

    /// Normalizes `loops` one at a time, as the access walk does.
    fn walk_nest(loops: &[Loop]) -> Option<Vec<Normalized>> {
        let names: Vec<String> = loops.iter().map(|l| l.var.clone()).collect();
        let mut out: Vec<Normalized> = Vec::new();
        for (k, l) in loops.iter().enumerate() {
            let find = |n: &str| names.iter().position(|v| v == n);
            let n = normalize_loop(l, k, &out, &Assumptions::new(), &find, &mut Sym::new)?;
            out.push(n);
        }
        Some(out)
    }

    fn lp(var: &str, lower: Expr, upper: Expr, step: Option<Expr>) -> Loop {
        Loop { var: var.into(), lower, upper, step, body: Vec::new() }
    }

    #[test]
    fn simple_normalization() {
        // DO i = 1, 100  =>  i' in [0, 99], i = 1 + i'.
        let nest =
            normalize_nest(&[raw(0, "I", Expr::int(1), Expr::int(100))], &Assumptions::new())
                .unwrap();
        assert_eq!(nest.loops[0].upper, SymPoly::constant(99));
        // subscript i + 1 over original vars becomes i' + 2.
        let sub =
            expr_to_affine(&Expr::add(Expr::var("I"), Expr::int(1)), &["I".to_string()]).unwrap();
        let norm = nest.apply(&sub).unwrap();
        assert_eq!(norm.constant_part().as_constant(), Some(2));
        assert_eq!(norm.coeff(VarId(0)).as_constant(), Some(1));
        let walked = walk_nest(&[lp("I", Expr::int(1), Expr::int(100), None)]).unwrap();
        assert_eq!(walked[0].upper, SymPoly::constant(99));
        assert_eq!(apply(&sub, &walked, 1), Some(norm));
    }

    #[test]
    fn symbolic_bounds() {
        // DO i = 0, N-2: upper N-2 symbolic.
        let n_minus_2 = Expr::sub(Expr::var("N"), Expr::int(2));
        let nest =
            normalize_nest(&[raw(0, "I", Expr::int(0), n_minus_2.clone())], &Assumptions::new())
                .unwrap();
        let n = SymPoly::symbol("N");
        assert_eq!(nest.loops[0].upper, n.checked_sub(&SymPoly::constant(2)).unwrap());
        let walked = walk_nest(&[lp("I", Expr::int(0), n_minus_2, None)]).unwrap();
        assert_eq!(walked[0].upper, nest.loops[0].upper);
    }

    #[test]
    fn triangular_nest_is_rectangularized() {
        // DO i = 0, 9 ; DO j = 0, i: j's bound widens to [0, 9].
        let nest = normalize_nest(
            &[raw(0, "I", Expr::int(0), Expr::int(9)), raw(1, "J", Expr::int(0), Expr::var("I"))],
            &Assumptions::new(),
        )
        .unwrap();
        assert_eq!(nest.loops[1].upper, SymPoly::constant(9));
        let walked = walk_nest(&[
            lp("I", Expr::int(0), Expr::int(9), None),
            lp("J", Expr::int(0), Expr::var("I"), None),
        ])
        .unwrap();
        assert_eq!(walked[1].upper, SymPoly::constant(9));
    }

    #[test]
    fn negative_step() {
        // DO i = 10, 1, -1: i = 10 - i', i' in [0, 9].
        let step = Some(Expr::Neg(Box::new(Expr::int(1))));
        let nest = normalize_nest(
            &[RawLoop {
                uid: 0,
                var: "I".into(),
                lower: Expr::int(10),
                upper: Expr::int(1),
                step: step.clone(),
            }],
            &Assumptions::new(),
        )
        .unwrap();
        assert_eq!(nest.loops[0].upper, SymPoly::constant(9));
        let sub = expr_to_affine(&Expr::var("I"), &["I".to_string()]).unwrap();
        let norm = nest.apply(&sub).unwrap();
        assert_eq!(norm.constant_part().as_constant(), Some(10));
        assert_eq!(norm.coeff(VarId(0)).as_constant(), Some(-1));
        let walked = walk_nest(&[lp("I", Expr::int(10), Expr::int(1), step)]).unwrap();
        assert_eq!(walked[0].upper, SymPoly::constant(9));
        assert_eq!(apply(&sub, &walked, 1), Some(norm));
    }

    #[test]
    fn step_two() {
        // DO i = 0, 9, 2: 5 iterations, i = 2 i', i' in [0, 4] (floor(9/2)).
        let nest = normalize_nest(
            &[RawLoop {
                uid: 0,
                var: "I".into(),
                lower: Expr::int(0),
                upper: Expr::int(9),
                step: Some(Expr::int(2)),
            }],
            &Assumptions::new(),
        )
        .unwrap();
        assert_eq!(nest.loops[0].upper, SymPoly::constant(4));
        let walked = walk_nest(&[lp("I", Expr::int(0), Expr::int(9), Some(Expr::int(2)))]);
        assert_eq!(walked.unwrap()[0].upper, SymPoly::constant(4));
    }

    #[test]
    fn rejects_non_affine() {
        assert!(expr_to_affine(&Expr::mul(Expr::var("I"), Expr::var("I")), &["I".to_string()])
            .is_none());
        assert!(expr_to_affine(&Expr::Index("IFUN".into(), vec![Expr::int(10)]), &[]).is_none());
        // zero step
        assert!(walk_nest(&[lp("I", Expr::int(0), Expr::int(9), Some(Expr::int(0)))]).is_none());
        // bound referencing own variable
        assert!(walk_nest(&[lp("I", Expr::int(0), Expr::var("I"), None)]).is_none());
        // a step of i128::MIN has no absolute value
        let min = Expr::sub(Expr::Neg(Box::new(Expr::int(i128::MAX))), Expr::int(1));
        // nor a span coefficient of i128::MIN a provable sign
        let outer = lp("I", Expr::int(0), Expr::int(9), None);
        let inner = lp("J", Expr::int(0), Expr::mul(min.clone(), Expr::var("I")), None);
        assert!(walk_nest(&[outer.clone(), inner.clone()]).is_none());
        let raw_loop = |l: &Loop| RawLoop {
            uid: 0,
            var: l.var.clone(),
            lower: l.lower.clone(),
            upper: l.upper.clone(),
            step: None,
        };
        assert!(
            normalize_nest(&[raw_loop(&outer), raw_loop(&inner)], &Assumptions::new()).is_none()
        );
        assert!(walk_nest(&[lp("I", Expr::int(0), Expr::int(9), Some(min.clone()))]).is_none());
        let raw_min = RawLoop {
            uid: 0,
            var: "I".into(),
            lower: Expr::int(0),
            upper: Expr::int(9),
            step: Some(min),
        };
        assert!(normalize_nest(&[raw_min], &Assumptions::new()).is_none());
    }

    #[test]
    fn integer_and_polynomial_paths_overflow_alike() {
        // MAX + 1 overflows on both paths; MAX - MIN overflows only because
        // the subtrahend is negated first, exactly as for polynomials.
        let names = ["I".to_string()];
        let max = Expr::int(i128::MAX);
        let min = Expr::sub(Expr::Neg(Box::new(max.clone())), Expr::int(1));
        let cases = [
            Expr::add(max.clone(), Expr::int(1)),
            Expr::sub(Expr::int(-1), min.clone()),
            Expr::mul(Expr::var("I"), Expr::mul(max.clone(), Expr::int(2))),
            Expr::mul(Expr::int(0), Expr::mul(max.clone(), Expr::int(2))),
            Expr::Bin(BinOp::Div, Box::new(min.clone()), Box::new(Expr::int(-1))),
            Expr::Bin(BinOp::Div, Box::new(min), Box::new(Expr::int(1))),
            Expr::sub(Expr::var("I"), Expr::var("I")),
        ];
        let resolve = |n: &str| names.iter().position(|v| v == n).ok_or(Stop::Symbolic);
        for e in &cases {
            let int = int_affine(e, &resolve).map(|a| a.to_sym()).ok();
            assert_eq!(int, expr_to_affine(e, &names), "{e:?}");
        }
    }

    #[test]
    fn symbolic_coefficients() {
        // N*N*k + N*j + i over loops (k, j, i).
        let e = Expr::add(
            Expr::add(
                Expr::mul(Expr::mul(Expr::var("N"), Expr::var("N")), Expr::var("K")),
                Expr::mul(Expr::var("N"), Expr::var("J")),
            ),
            Expr::var("I"),
        );
        let vars = vec!["K".to_string(), "J".to_string(), "I".to_string()];
        let a = expr_to_affine(&e, &vars).unwrap();
        let n = SymPoly::symbol("N");
        assert_eq!(a.coeff(VarId(0)), n.checked_mul(&n).unwrap());
        assert_eq!(a.coeff(VarId(1)), n);
        assert_eq!(a.coeff(VarId(2)).as_constant(), Some(1));
    }

    #[test]
    fn sympoly_eval_of_invariants() {
        let e = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::mul(Expr::var("N"), Expr::int(4))),
            Box::new(Expr::int(2)),
        );
        let p = expr_to_sympoly(&e, &[]).unwrap();
        assert_eq!(p, SymPoly::symbol("N").checked_scale(2).unwrap());
        // inexact division is rejected
        let e = Expr::Bin(BinOp::Div, Box::new(Expr::var("N")), Box::new(Expr::int(2)));
        assert!(expr_to_sympoly(&e, &[]).is_none());
    }
}
