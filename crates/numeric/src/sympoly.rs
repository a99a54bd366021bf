//! Multivariate integer polynomials over symbolic parameters.
//!
//! The paper's Section 4 extends delinearization to subscripts whose
//! coefficients are *loop-invariant symbolic expressions* (`N`, `N²`,
//! `KK*JJ`, …). [`SymPoly`] is the exact representation used for those
//! coefficients: a multivariate polynomial with `i128` coefficients over
//! [`Sym`] parameters.
//!
//! The operations mirror exactly what the delinearization algorithm needs:
//! ring arithmetic, a conservative symbolic [gcd](SymPoly::gcd), division
//! with remainder by a single-term divisor (`(N²+N) mod N = 0` in the
//! paper's worked example), and sign determination under lower-bound
//! [`Assumptions`] (`N−1 < N` holds "for any N", `N²−N < N²` likewise).
//!
//! The common path stays off the heap. A polynomial keeps up to four terms
//! inline, and a [`Monomial`] that is `1` or a power of one symbol (`N`,
//! `NX`, `N²`) keeps its factor inline. So building `N² + N`, taking a gcd
//! or a remainder, and forming the difference `other − self` behind every
//! [`Coeff::lt`](crate::Coeff::lt) and [`Coeff::le`](crate::Coeff::le)
//! comparison allocate nothing. Only a product of two or more symbols
//! (`KK*JJ`) or a polynomial of more than four terms uses a vector. The
//! [`SymPoly::hash_into`] stream, which persisted cache keys depend on, is
//! the one the `BTreeMap` monomials of earlier versions fed.

use crate::assume::Assumptions;
use crate::error::NumericError;
use crate::int;
use crate::sign::{Sign, Trilean};
use crate::sym::Sym;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;
use std::ops::{Add, Mul, Neg, Sub};

/// A power product of symbols, e.g. `N²·KK`. The empty monomial is `1`.
///
/// Factors are kept sorted by symbol, with positive exponents. The unit
/// monomial and a power of one symbol (`N`, `NX`, `N²`) are held inline;
/// only a product of two or more symbols (`KK*JJ`) keeps a heap vector.
/// Equality, hashing, ordering and display read the sorted factor slice,
/// so the representation is unobservable.
#[derive(Debug, Clone, Default)]
pub struct Monomial(Factors);

/// The factor store behind [`Monomial`]; `Power` and `Product` are never
/// built with fewer factors than their names say.
#[derive(Debug, Clone, Default)]
enum Factors {
    #[default]
    Unit,
    Power((Sym, u32)),
    Product(Vec<(Sym, u32)>),
}

impl Factors {
    #[inline]
    fn as_slice(&self) -> &[(Sym, u32)] {
        match self {
            Factors::Unit => &[],
            Factors::Power(f) => std::slice::from_ref(f),
            Factors::Product(v) => v,
        }
    }

    /// Appends a factor whose symbol sorts after every stored one.
    fn push(&mut self, factor: (Sym, u32)) {
        *self = match std::mem::take(self) {
            Factors::Unit => Factors::Power(factor),
            Factors::Power(first) => Factors::Product(vec![first, factor]),
            Factors::Product(mut v) => {
                v.push(factor);
                Factors::Product(v)
            }
        };
    }
}

impl Monomial {
    /// The unit monomial `1`.
    pub fn unit() -> Monomial {
        Monomial::default()
    }

    /// The monomial consisting of a single symbol.
    pub fn symbol(sym: impl Into<Sym>) -> Monomial {
        Monomial(Factors::Power((sym.into(), 1)))
    }

    #[inline]
    fn factors(&self) -> &[(Sym, u32)] {
        self.0.as_slice()
    }

    /// Total degree (sum of exponents).
    pub fn degree(&self) -> u32 {
        self.factors().iter().map(|(_, e)| e).sum()
    }

    /// `true` for the unit monomial.
    pub fn is_unit(&self) -> bool {
        self.factors().is_empty()
    }

    /// Product of two monomials: one merge pass over the sorted factors.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        use std::cmp::Ordering;
        let (a, b) = (self.factors(), other.factors());
        let mut out = Factors::Unit;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a[i].0.clone(), a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        for f in a[i..].iter().chain(&b[j..]) {
            out.push(f.clone());
        }
        Monomial(out)
    }

    /// Componentwise minimum: the gcd of two monomials.
    pub fn gcd(&self, other: &Monomial) -> Monomial {
        let mut out = Factors::Unit;
        for (s, e) in self.factors() {
            if let Some((_, e2)) = other.factors().iter().find(|(t, _)| t == s) {
                out.push((s.clone(), *e.min(e2)));
            }
        }
        Monomial(out)
    }

    /// `self / other` when `other` divides `self`.
    pub fn try_div(&self, other: &Monomial) -> Option<Monomial> {
        use std::cmp::Ordering;
        let mut rest = other.factors().iter().peekable();
        let mut out = Factors::Unit;
        for (s, e) in self.factors() {
            let mut e = *e;
            if let Some((t, d)) = rest.peek() {
                match t.cmp(s) {
                    Ordering::Less => return None, // `t` does not occur in `self`
                    Ordering::Equal => {
                        e = e.checked_sub(*d)?;
                        rest.next();
                    }
                    Ordering::Greater => {}
                }
            }
            if e > 0 {
                out.push((s.clone(), e));
            }
        }
        match rest.next() {
            Some(_) => None,
            None => Some(Monomial(out)),
        }
    }

    /// Iterates `(symbol, exponent)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Sym, u32)> {
        self.factors().iter().map(|(s, e)| (s, *e))
    }

    /// Feeds the monomial's structure into `state` without rendering it:
    /// the factor count, then every `(symbol name, exponent)` pair in
    /// sorted symbol order. Two monomials feed identical streams iff they
    /// are equal, and the stream is length-prefixed at every level so
    /// adjacent monomials in a larger feed cannot alias across boundaries.
    pub fn hash_into<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.factors().len());
        for (s, e) in self.factors() {
            let name = s.name().as_bytes();
            state.write_usize(name.len());
            state.write(name);
            state.write_u32(*e);
        }
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Monomial) -> bool {
        self.factors() == other.factors()
    }
}

impl Eq for Monomial {}

impl std::hash::Hash for Monomial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.factors().hash(state);
    }
}

/// Graded lexicographic order: compare total degree first, then the
/// symbol/exponent sequence. This gives a deterministic term order for
/// display and division.
impl Ord for Monomial {
    fn cmp(&self, other: &Monomial) -> std::cmp::Ordering {
        self.degree().cmp(&other.degree()).then_with(|| self.factors().cmp(other.factors()))
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Monomial) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unit() {
            return write!(f, "1");
        }
        for (i, (s, e)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "*")?;
            }
            if e == 1 {
                write!(f, "{s}")?;
            } else {
                write!(f, "{s}^{e}")?;
            }
        }
        Ok(())
    }
}

/// The number of terms a polynomial stores inline before spilling to the
/// heap. Corpus polynomials overwhelmingly have ≤4 terms (a delinearized
/// subscript contributes one term per loop plus a constant), so arithmetic
/// on them stays allocation-free.
const INLINE_TERMS: usize = 4;

/// The sorted term store behind [`SymPoly`]: up to [`INLINE_TERMS`] terms
/// live inline, larger polynomials spill to a heap vector. Terms are kept
/// in ascending graded-lex order with no zero coefficients — the same
/// invariant the historical `BTreeMap` store maintained — so iteration
/// order, display order and the structural hash feed are unchanged.
///
/// A spilled store never shrinks back inline; equality, ordering and
/// hashing all go through the live slice, so the representation is
/// unobservable.
#[derive(Debug, Clone)]
enum TermStore {
    Inline { len: u8, slots: [(Monomial, i128); INLINE_TERMS] },
    Heap(Vec<(Monomial, i128)>),
}

#[derive(Debug, Clone)]
struct TermVec(TermStore);

impl Default for TermVec {
    fn default() -> TermVec {
        TermVec(TermStore::Inline { len: 0, slots: Default::default() })
    }
}

impl TermVec {
    /// Capacity-reusing overwrite: a heap store keeps its spilled vector's
    /// allocation (the scratch-problem recycling in `dep`/`vic` leans on
    /// this through `SymPoly`'s `clone_from`).
    fn clone_from_vec(&mut self, source: &TermVec) {
        match (&mut self.0, &source.0) {
            (TermStore::Heap(dst), TermStore::Heap(src)) => dst.clone_from(src),
            (TermStore::Heap(dst), TermStore::Inline { len, slots }) => {
                dst.clear();
                dst.extend_from_slice(&slots[..*len as usize]);
            }
            _ => *self = source.clone(),
        }
    }
}

impl TermVec {
    #[inline]
    fn len(&self) -> usize {
        match &self.0 {
            TermStore::Inline { len, .. } => *len as usize,
            TermStore::Heap(v) => v.len(),
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn as_slice(&self) -> &[(Monomial, i128)] {
        match &self.0 {
            TermStore::Inline { len, slots } => &slots[..*len as usize],
            TermStore::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [(Monomial, i128)] {
        match &mut self.0 {
            TermStore::Inline { len, slots } => &mut slots[..*len as usize],
            TermStore::Heap(v) => v,
        }
    }

    /// Binary search by monomial in the sorted term order.
    #[inline]
    fn search(&self, m: &Monomial) -> Result<usize, usize> {
        self.as_slice().binary_search_by(|probe| probe.0.cmp(m))
    }

    /// Appends a term the caller guarantees sorts after every stored one.
    #[inline]
    fn push(&mut self, term: (Monomial, i128)) {
        let at = self.len();
        self.insert(at, term);
    }

    fn insert(&mut self, idx: usize, term: (Monomial, i128)) {
        match &mut self.0 {
            TermStore::Inline { len, slots } => {
                let n = *len as usize;
                if n < INLINE_TERMS {
                    slots[idx..=n].rotate_right(1);
                    slots[idx] = term;
                    *len += 1;
                } else {
                    // Spill: move the inline terms out (dead slots become
                    // empty monomials, which own no heap memory).
                    let mut v: Vec<(Monomial, i128)> = Vec::with_capacity(INLINE_TERMS * 2);
                    v.extend(slots.iter_mut().map(std::mem::take));
                    v.insert(idx, term);
                    self.0 = TermStore::Heap(v);
                }
            }
            TermStore::Heap(v) => v.insert(idx, term),
        }
    }

    fn remove(&mut self, idx: usize) {
        match &mut self.0 {
            TermStore::Inline { len, slots } => {
                let n = *len as usize;
                slots[idx..n].rotate_left(1);
                slots[n - 1] = Default::default();
                *len -= 1;
            }
            TermStore::Heap(v) => {
                v.remove(idx);
            }
        }
    }
}

/// Merges two sorted term slices into `out` (assumed empty), negating the
/// right side's coefficients when `negate_b` — the shared core of
/// [`SymPoly::checked_add`] and [`SymPoly::checked_sub`]. One linear pass,
/// no tree rebalancing, and no allocation while the result fits inline.
fn merge_terms(
    out: &mut TermVec,
    a: &[(Monomial, i128)],
    b: &[(Monomial, i128)],
    negate_b: bool,
) -> Result<(), NumericError> {
    use std::cmp::Ordering;
    let rhs = |c: i128| {
        if negate_b {
            c.checked_neg().ok_or_else(|| NumericError::overflow("neg"))
        } else {
            Ok(c)
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push((b[j].0.clone(), rhs(b[j].1)?));
                j += 1;
            }
            Ordering::Equal => {
                let c = int::add(a[i].1, rhs(b[j].1)?)?;
                if c != 0 {
                    out.push((a[i].0.clone(), c));
                }
                i += 1;
                j += 1;
            }
        }
    }
    for t in &a[i..] {
        out.push(t.clone());
    }
    for t in &b[j..] {
        out.push((t.0.clone(), rhs(t.1)?));
    }
    Ok(())
}

/// A multivariate polynomial with exact `i128` coefficients over symbolic
/// parameters.
///
/// Zero coefficients are never stored; the zero polynomial has no terms.
/// Terms live in a sorted inline small-vec ([`INLINE_TERMS`] inline slots,
/// heap spill beyond), so the ≤4-term polynomials the corpus produces are
/// built, added and multiplied without touching the allocator.
///
/// ```
/// use delin_numeric::SymPoly;
/// let n = SymPoly::symbol("N");
/// let p = (&n * &n) + &n;            // N² + N
/// assert_eq!(p.to_string(), "N^2 + N");
/// assert_eq!(p.div_rem_by(&n).unwrap(), (&n + &SymPoly::constant(1), SymPoly::zero()));
/// ```
#[derive(Debug, Default)]
pub struct SymPoly {
    terms: TermVec,
}

impl Clone for SymPoly {
    fn clone(&self) -> SymPoly {
        SymPoly { terms: self.terms.clone() }
    }

    /// Overwrites in place, reusing a spilled term store's allocation —
    /// scratch polynomials recycled across dependence pairs stop
    /// allocating once warm.
    fn clone_from(&mut self, source: &SymPoly) {
        self.terms.clone_from_vec(&source.terms);
    }
}

impl PartialEq for SymPoly {
    fn eq(&self, other: &SymPoly) -> bool {
        self.terms.as_slice() == other.terms.as_slice()
    }
}

impl Eq for SymPoly {}

impl std::hash::Hash for SymPoly {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.terms.as_slice().hash(state);
    }
}

impl SymPoly {
    /// The zero polynomial.
    pub fn zero() -> SymPoly {
        SymPoly::default()
    }

    /// The constant polynomial `1`.
    pub fn one() -> SymPoly {
        SymPoly::constant(1)
    }

    /// A constant polynomial.
    pub fn constant(c: i128) -> SymPoly {
        SymPoly::term(c, Monomial::unit())
    }

    /// The polynomial consisting of a single symbol.
    pub fn symbol(sym: impl Into<Sym>) -> SymPoly {
        SymPoly::term(1, Monomial::symbol(sym))
    }

    /// A single term `c·m`.
    pub fn term(c: i128, m: Monomial) -> SymPoly {
        let mut p = SymPoly::zero();
        if c != 0 {
            p.terms.push((m, c));
        }
        p
    }

    /// `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// `true` when the polynomial is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        match self.terms.as_slice() {
            [] => true,
            [(m, _)] => m.is_unit(),
            _ => false,
        }
    }

    /// The constant value, if the polynomial is constant.
    pub fn as_constant(&self) -> Option<i128> {
        match self.terms.as_slice() {
            [] => Some(0),
            [(m, c)] if m.is_unit() => Some(*c),
            _ => None,
        }
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total degree; `0` for constants (including zero).
    pub fn degree(&self) -> u32 {
        self.terms.as_slice().iter().map(|(m, _)| m.degree()).max().unwrap_or(0)
    }

    /// Iterates `(monomial, coefficient)` in ascending graded-lex order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, i128)> {
        self.terms.as_slice().iter().map(|(m, c)| (m, *c))
    }

    /// The coefficient of a monomial (zero if absent).
    pub fn coeff_of(&self, m: &Monomial) -> i128 {
        match self.terms.search(m) {
            Ok(i) => self.terms.as_slice()[i].1,
            Err(_) => 0,
        }
    }

    fn insert_term(&mut self, m: Monomial, c: i128) -> Result<(), NumericError> {
        match self.terms.search(&m) {
            Ok(i) => {
                let slot = &mut self.terms.as_mut_slice()[i].1;
                let new = int::add(*slot, c)?;
                if new == 0 {
                    self.terms.remove(i);
                } else {
                    *slot = new;
                }
            }
            Err(i) => {
                if c != 0 {
                    self.terms.insert(i, (m, c));
                }
            }
        }
        Ok(())
    }

    /// Checked addition: one merge pass over the two sorted term lists.
    pub fn checked_add(&self, other: &SymPoly) -> Result<SymPoly, NumericError> {
        let mut out = SymPoly::zero();
        merge_terms(&mut out.terms, self.terms.as_slice(), other.terms.as_slice(), false)?;
        Ok(out)
    }

    /// Checked subtraction: one merge pass over the two sorted term lists.
    pub fn checked_sub(&self, other: &SymPoly) -> Result<SymPoly, NumericError> {
        let mut out = SymPoly::zero();
        merge_terms(&mut out.terms, self.terms.as_slice(), other.terms.as_slice(), true)?;
        Ok(out)
    }

    /// In-place checked addition, merging into the receiver's existing
    /// storage (inline slots or already-spilled heap capacity) instead of
    /// building a fresh polynomial.
    pub fn checked_add_assign(&mut self, other: &SymPoly) -> Result<(), NumericError> {
        for (m, c) in other.terms.as_slice() {
            self.insert_term(m.clone(), *c)?;
        }
        Ok(())
    }

    /// Checked multiplication.
    pub fn checked_mul(&self, other: &SymPoly) -> Result<SymPoly, NumericError> {
        let mut out = SymPoly::zero();
        for (m1, c1) in self.terms.as_slice() {
            for (m2, c2) in other.terms.as_slice() {
                out.insert_term(m1.mul(m2), int::mul(*c1, *c2)?)?;
            }
        }
        Ok(out)
    }

    /// Checked negation.
    pub fn checked_neg(&self) -> Result<SymPoly, NumericError> {
        SymPoly::zero().checked_sub(self)
    }

    /// Multiplies by an integer scalar.
    pub fn checked_scale(&self, k: i128) -> Result<SymPoly, NumericError> {
        self.checked_mul(&SymPoly::constant(k))
    }

    /// The *content*: gcd of all integer coefficients (non-negative; zero
    /// only for the zero polynomial).
    pub fn content(&self) -> i128 {
        self.terms.as_slice().iter().fold(0, |g, (_, c)| int::gcd(g, *c))
    }

    /// The gcd of all monomials in the polynomial (componentwise min).
    pub fn monomial_gcd(&self) -> Monomial {
        let mut it = self.terms.as_slice().iter();
        let Some((first, _)) = it.next() else {
            return Monomial::unit();
        };
        it.fold(first.clone(), |acc, (m, _)| acc.gcd(m))
    }

    /// A conservative symbolic gcd: `gcd(contents) · gcd(monomials)`.
    ///
    /// This always divides both operands, which is the property the
    /// delinearization theorem needs; it may be smaller than the true
    /// polynomial gcd (which would only make the algorithm more
    /// conservative, never wrong). `gcd(0, p) = ±p` normalized to a
    /// representative with positive leading coefficient.
    pub fn gcd(&self, other: &SymPoly) -> SymPoly {
        if self.is_zero() {
            return other.normalize_sign();
        }
        if other.is_zero() {
            return self.normalize_sign();
        }
        let c = int::gcd(self.content(), other.content());
        let m = self.monomial_gcd().gcd(&other.monomial_gcd());
        SymPoly::term(c, m)
    }

    /// Flips the sign so the leading (graded-lex greatest) coefficient is
    /// positive. The zero polynomial is returned unchanged.
    pub fn normalize_sign(&self) -> SymPoly {
        match self.terms.as_slice().last() {
            Some((_, c)) if *c < 0 => self.checked_neg().expect("negation of in-range poly"),
            _ => self.clone(),
        }
    }

    /// Exact division: `Some(q)` with `self = q·d` when the division is
    /// exact, `None` otherwise. Supports arbitrary divisors via multivariate
    /// long division in graded-lex order.
    pub fn try_div_exact(&self, d: &SymPoly) -> Option<SymPoly> {
        if d.is_zero() {
            return None;
        }
        let (lead_m, lead_c) = d.terms.as_slice().last().map(|(m, c)| (m.clone(), *c))?;
        let mut rem = self.clone();
        let mut quot = SymPoly::zero();
        // Repeatedly eliminate the leading term of the remainder.
        while !rem.is_zero() {
            let (rm, rc) = rem.terms.as_slice().last().map(|(m, c)| (m.clone(), *c))?;
            let qm = rm.try_div(&lead_m)?;
            // `MIN % −1` overflows: the quotient 2^127 is out of range.
            if rc.checked_rem(lead_c)? != 0 {
                return None;
            }
            let qc = rc / lead_c;
            let qterm = SymPoly::term(qc, qm);
            quot = quot.checked_add(&qterm).ok()?;
            rem = rem.checked_sub(&qterm.checked_mul(d).ok()?).ok()?;
        }
        Some(quot)
    }

    /// Division with remainder by a *single-term* divisor `t·m`:
    /// each term of `self` contributes its divisible part to the quotient
    /// and the rest to the remainder, so `self = q·d + r` exactly, with every
    /// term of `r` "not divisible" by `d`.
    ///
    /// This is the `c0 mod gk` operation of the delinearization algorithm:
    /// `(N² + N) mod N = 0`, `(N² + 3) mod N = 3`, `110 mod 100 = 10`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DivisionByZero`] if `d` is zero, and
    /// [`NumericError::NotConcrete`] if `d` has more than one term (such a
    /// divisor never arises from [`SymPoly::gcd`]).
    pub fn div_rem_by(&self, d: &SymPoly) -> Result<(SymPoly, SymPoly), NumericError> {
        if d.is_zero() {
            return Err(NumericError::DivisionByZero);
        }
        if d.terms.len() != 1 {
            if let Some(q) = self.try_div_exact(d) {
                return Ok((q, SymPoly::zero()));
            }
            return Err(NumericError::NotConcrete { what: format!("multi-term divisor {d}") });
        }
        let (dm, dc) = {
            let (m, c) = &d.terms.as_slice()[0];
            (m, *c)
        };
        let mut q = SymPoly::zero();
        let mut r = SymPoly::zero();
        for (m, c) in self.iter() {
            match m.try_div(dm) {
                Some(qm) => {
                    let qc = int::floor_div(c, dc)?;
                    let rc = c - qc * dc; // rc in [0, |dc|)
                    q.insert_term(qm, qc)?;
                    r.insert_term(m.clone(), rc)?;
                }
                None => {
                    r.insert_term(m.clone(), c)?;
                }
            }
        }
        Ok((q, r))
    }

    /// Evaluates the polynomial with concrete symbol values.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::NotConcrete`] if a symbol has no value, or an
    /// overflow error if the result does not fit in `i128`.
    pub fn eval(&self, values: &BTreeMap<Sym, i128>) -> Result<i128, NumericError> {
        let mut total = 0i128;
        for (m, c) in self.iter() {
            let mut t = c;
            for (s, e) in m.iter() {
                let v = *values
                    .get(s)
                    .ok_or_else(|| NumericError::NotConcrete { what: s.name().to_string() })?;
                for _ in 0..e {
                    t = int::mul(t, v)?;
                }
            }
            total = int::add(total, t)?;
        }
        Ok(total)
    }

    /// Substitutes `sym := replacement` and expands.
    pub fn substitute(&self, sym: &Sym, replacement: &SymPoly) -> Result<SymPoly, NumericError> {
        let mut out = SymPoly::zero();
        for (m, c) in self.iter() {
            let mut factor = SymPoly::constant(c);
            for (s, e) in m.iter() {
                let base = if s == sym { replacement.clone() } else { SymPoly::symbol(s.clone()) };
                for _ in 0..e {
                    factor = factor.checked_mul(&base)?;
                }
            }
            out.checked_add_assign(&factor)?;
        }
        Ok(out)
    }

    /// The set of symbols occurring in the polynomial.
    pub fn symbols(&self) -> Vec<Sym> {
        let mut syms: Vec<Sym> = Vec::new();
        for (m, _) in self.terms.as_slice() {
            for (s, _) in m.iter() {
                if !syms.contains(s) {
                    syms.push(s.clone());
                }
            }
        }
        syms
    }

    /// Visits every symbol occurrence by reference, without allocating the
    /// [`SymPoly::symbols`] vector. Occurrences repeat across terms; the
    /// caller dedups if it needs a set. This is the borrow-only walk the
    /// cache's environment-projection fingerprint is built on.
    pub fn for_each_symbol<'a>(&'a self, f: &mut impl FnMut(&'a Sym)) {
        for (m, _) in self.terms.as_slice() {
            for (s, _) in m.iter() {
                f(s);
            }
        }
    }

    /// Feeds the polynomial's structure into `state` without rendering it:
    /// the term count, then every `(monomial, coefficient)` pair in the
    /// term map's (graded-lexicographic) order. Because terms are stored
    /// normalized — zero coefficients never stored, one entry per monomial
    /// — two polynomials feed identical streams iff they are equal, which
    /// makes this the allocation-free substitute for hashing the `Display`
    /// render. The feed is deterministic across runs, worker threads, and
    /// insertion histories.
    pub fn hash_into<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.terms.len());
        for (m, c) in self.iter() {
            m.hash_into(state);
            state.write_u128(c as u128);
        }
    }

    /// Shifts every symbol by its assumed lower bound (`s := lb + s`), so
    /// that in the result every symbol ranges over `[0, ∞)`.
    fn shift_by_assumptions(&self, a: &Assumptions) -> Result<SymPoly, NumericError> {
        let mut p = self.clone();
        for s in self.symbols() {
            let lb = a.lower_bound(&s);
            if lb != 0 {
                let repl = SymPoly::constant(lb).checked_add(&SymPoly::symbol(s.clone()))?;
                p = p.substitute(&s, &repl)?;
            }
        }
        Ok(p)
    }

    /// The coefficients by degree, lowest first, when the polynomial has at
    /// most one symbol and degree below [`SHIFT_BUF_LEN`]; `None` otherwise.
    fn univariate(&self) -> Option<Univariate<'_>> {
        let mut u = Univariate { sym: None, coeffs: [0; SHIFT_BUF_LEN] };
        for (m, c) in self.terms.as_slice() {
            let mut factors = m.iter();
            let degree = match (factors.next(), factors.next()) {
                (None, _) => 0,
                (Some((s, e)), None) if u.sym.is_none_or(|t| t == s) => {
                    u.sym = Some(s);
                    e as usize
                }
                _ => return None,
            };
            *u.coeffs.get_mut(degree)? = *c;
        }
        Some(u)
    }

    /// The sign summary of the (optionally negated) polynomial after the
    /// lower-bound shift: whether some coefficient is positive, whether
    /// some is negative, and the constant term. `None` when the negation or
    /// the shift overflows. A polynomial in one symbol is shifted in a
    /// fixed buffer; any other goes through [`SymPoly::shift_by_assumptions`].
    fn shifted_signs(&self, a: &Assumptions, negate: bool) -> Option<ShiftedSigns> {
        if let Some(mut u) = self.univariate() {
            if negate {
                for c in &mut u.coeffs {
                    *c = c.checked_neg()?;
                }
            }
            let lb = u.sym.map_or(0, |s| a.lower_bound(s));
            let c = shift_coeffs(&u.coeffs, lb).ok()?;
            return Some(ShiftedSigns::of(c[0], c.iter().copied()));
        }
        let negated;
        let p = if negate {
            negated = self.checked_neg().ok()?;
            &negated
        } else {
            self
        };
        let shifted = p.shift_by_assumptions(a).ok()?;
        Some(ShiftedSigns::of(shifted.coeff_of(&Monomial::unit()), shifted.iter().map(|(_, c)| c)))
    }

    /// Is the value `≥ 0` for every admissible symbol assignment?
    ///
    /// Decision procedure: shift symbols to `[0, ∞)`; if every coefficient
    /// of the shifted polynomial is `≥ 0` the answer is *true*; if every
    /// coefficient is `≤ 0` and the polynomial is nonzero the answer is
    /// *false*; otherwise *unknown*. Sound but (deliberately) incomplete.
    pub fn is_nonneg(&self, a: &Assumptions) -> Trilean {
        match self.shifted_signs(a, false) {
            Some(s) => s.nonneg(),
            None => Trilean::Unknown,
        }
    }

    /// Is the value `> 0` for every admissible symbol assignment?
    pub fn is_pos(&self, a: &Assumptions) -> Trilean {
        match self.shifted_signs(a, false) {
            Some(s) => s.pos(),
            None => Trilean::Unknown,
        }
    }

    /// The definite sign under assumptions, if one can be established.
    pub fn sign(&self, a: &Assumptions) -> Option<Sign> {
        if self.is_zero() {
            return Some(Sign::Zero);
        }
        let pos = |negate| self.shifted_signs(a, negate).is_some_and(|s| s.pos().is_true());
        if pos(false) {
            return Some(Sign::Positive);
        }
        if pos(true) {
            return Some(Sign::Negative);
        }
        None
    }
}

/// Coefficient slots of the single-symbol shift buffer: polynomials in one
/// symbol of degree below this are shifted without building a polynomial.
/// Symbolic strides are `N`, `N²` or `N³`, so the buffer covers them all.
const SHIFT_BUF_LEN: usize = 8;

/// A polynomial in at most one symbol: `coeffs[k]` multiplies `sym^k`.
struct Univariate<'a> {
    sym: Option<&'a Sym>,
    coeffs: [i128; SHIFT_BUF_LEN],
}

/// `Σ coeffs[k]·(lb + s)^k` expanded, by the same checked multiplications
/// and additions in the same order as [`SymPoly::substitute`] performs
/// them, so exactly the same inputs overflow: each term's factor is
/// multiplied by `lb + s` once per power, a factor's terms ascending
/// (`lb·f` onto its own degree, then `f` onto the next), and the factors
/// are summed into the result in ascending degree. `lb = 0` is the
/// identity, as [`SymPoly::shift_by_assumptions`] skips the substitution.
fn shift_coeffs(
    coeffs: &[i128; SHIFT_BUF_LEN],
    lb: i128,
) -> Result<[i128; SHIFT_BUF_LEN], NumericError> {
    if lb == 0 {
        return Ok(*coeffs);
    }
    let mut out = [0i128; SHIFT_BUF_LEN];
    for (k, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let mut factor = [0i128; SHIFT_BUF_LEN];
        factor[0] = c;
        for j in 0..k {
            let mut next = [0i128; SHIFT_BUF_LEN];
            for i in 0..=j {
                if factor[i] != 0 {
                    next[i] = int::add(next[i], int::mul(factor[i], lb)?)?;
                    next[i + 1] = factor[i];
                }
            }
            factor = next;
        }
        for (o, f) in out.iter_mut().zip(&factor[..=k]) {
            *o = int::add(*o, *f)?;
        }
    }
    Ok(out)
}

/// What the sign procedure reads off a shifted polynomial's coefficients.
struct ShiftedSigns {
    any_pos: bool,
    any_neg: bool,
    constant: i128,
}

impl ShiftedSigns {
    /// Summarizes every coefficient (zeros change nothing) and the
    /// constant term.
    fn of(constant: i128, coeffs: impl Iterator<Item = i128>) -> ShiftedSigns {
        let mut s = ShiftedSigns { any_pos: false, any_neg: false, constant };
        for c in coeffs {
            s.any_pos |= c > 0;
            s.any_neg |= c < 0;
        }
        s
    }

    fn nonneg(&self) -> Trilean {
        if !self.any_neg {
            Trilean::True
        } else if !self.any_pos && self.constant < 0 {
            // Strictly negative somewhere only if some admissible
            // assignment makes it nonzero; the all-zero assignment gives
            // exactly the constant term.
            Trilean::False
        } else {
            Trilean::Unknown
        }
    }

    fn pos(&self) -> Trilean {
        if !self.any_neg && self.constant > 0 {
            Trilean::True
        } else if !self.any_pos {
            Trilean::False
        } else {
            Trilean::Unknown
        }
    }
}

impl From<i128> for SymPoly {
    fn from(c: i128) -> SymPoly {
        SymPoly::constant(c)
    }
}

impl From<Sym> for SymPoly {
    fn from(s: Sym) -> SymPoly {
        SymPoly::symbol(s)
    }
}

macro_rules! ref_binop {
    ($trait:ident, $method:ident, $checked:ident, $opname:expr) => {
        impl $trait for &SymPoly {
            type Output = SymPoly;
            /// # Panics
            ///
            /// Panics on `i128` overflow; use the `checked_*` method to
            /// handle overflow as an error.
            fn $method(self, rhs: &SymPoly) -> SymPoly {
                self.$checked(rhs).unwrap_or_else(|e| panic!("SymPoly {}: {e}", $opname))
            }
        }
        impl $trait for SymPoly {
            type Output = SymPoly;
            fn $method(self, rhs: SymPoly) -> SymPoly {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&SymPoly> for SymPoly {
            type Output = SymPoly;
            fn $method(self, rhs: &SymPoly) -> SymPoly {
                (&self).$method(rhs)
            }
        }
    };
}

ref_binop!(Add, add, checked_add, "add");
ref_binop!(Sub, sub, checked_sub, "sub");
ref_binop!(Mul, mul, checked_mul, "mul");

impl Neg for &SymPoly {
    type Output = SymPoly;
    fn neg(self) -> SymPoly {
        self.checked_neg().expect("SymPoly negation overflow")
    }
}

impl Neg for SymPoly {
    type Output = SymPoly;
    fn neg(self) -> SymPoly {
        -&self
    }
}

impl fmt::Display for SymPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (m, c)) in self.terms.as_slice().iter().rev().enumerate() {
            let c = *c;
            let mag = c.unsigned_abs();
            if i == 0 {
                if c < 0 {
                    write!(f, "-")?;
                }
            } else if c < 0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            if m.is_unit() {
                write!(f, "{mag}")?;
            } else if mag == 1 {
                write!(f, "{m}")?;
            } else {
                write!(f, "{mag}*{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n() -> SymPoly {
        SymPoly::symbol("N")
    }

    fn c(x: i128) -> SymPoly {
        SymPoly::constant(x)
    }

    fn m() -> SymPoly {
        SymPoly::symbol("M")
    }

    #[test]
    fn construction_and_basics() {
        assert!(SymPoly::zero().is_zero());
        assert_eq!(SymPoly::one().as_constant(), Some(1));
        assert_eq!(c(0), SymPoly::zero());
        assert!(n().as_constant().is_none());
        assert_eq!((&n() + &c(0)), n());
        assert_eq!(n().degree(), 1);
        assert_eq!((&n() * &n()).degree(), 2);
        assert_eq!(SymPoly::zero().degree(), 0);
    }

    #[test]
    fn arithmetic() {
        let p = &n() * &n() + &n(); // N² + N
        assert_eq!(p.num_terms(), 2);
        assert_eq!((&p - &p), SymPoly::zero());
        let q = &p * &c(3);
        assert_eq!(q.content(), 3);
        assert_eq!((-&n()).to_string(), "-N");
    }

    #[test]
    fn display_format() {
        let p = &(&n() * &n()) + &n() - &c(110);
        assert_eq!(p.to_string(), "N^2 + N - 110");
        assert_eq!(SymPoly::zero().to_string(), "0");
        let m = SymPoly::symbol("KK") * SymPoly::symbol("JJ");
        assert_eq!(m.to_string(), "JJ*KK");
        assert_eq!((c(2) * &n() * &n()).to_string(), "2*N^2");
    }

    #[test]
    fn gcd_paper_columns() {
        // Paper Section 4: coefficients 1, N, N² have suffix gcds 1, N, N².
        let n2 = &n() * &n();
        assert_eq!(SymPoly::one().gcd(&n()), SymPoly::one());
        assert_eq!(n().gcd(&n2), n());
        assert_eq!(n2.gcd(&n2), n2);
        // gcd with zero normalizes sign
        assert_eq!(SymPoly::zero().gcd(&(-&n())), n());
        // concrete contents participate
        assert_eq!(c(100).gcd(&c(10)), c(10));
        let p = c(6) * &n();
        let q = c(4) * &n() * &n();
        assert_eq!(p.gcd(&q), c(2) * &n());
    }

    #[test]
    fn div_rem_paper_examples() {
        // (N² + N) mod N = 0, quotient N + 1
        let p = &n() * &n() + &n();
        let (q, r) = p.div_rem_by(&n()).unwrap();
        assert_eq!(q, &n() + &c(1));
        assert!(r.is_zero());
        // (N² + N) mod N² = N
        let n2 = &n() * &n();
        let (q, r) = p.div_rem_by(&n2).unwrap();
        assert_eq!(q, c(1));
        assert_eq!(r, n());
        // constants: 110 mod 100 = 10
        let (q, r) = c(110).div_rem_by(&c(100)).unwrap();
        assert_eq!(q, c(1));
        assert_eq!(r, c(10));
        // anything mod 1 = 0
        let (_, r) = p.div_rem_by(&SymPoly::one()).unwrap();
        assert!(r.is_zero());
        assert!(p.div_rem_by(&SymPoly::zero()).is_err());
    }

    #[test]
    fn exact_division() {
        let p = (&n() + &c(1)) * (&n() - &c(1)); // N² - 1
        assert_eq!(p.try_div_exact(&(&n() + &c(1))).unwrap(), &n() - &c(1));
        assert!(p.try_div_exact(&n()).is_none());
        assert!(p.try_div_exact(&SymPoly::zero()).is_none());
    }

    #[test]
    fn eval_and_substitute() {
        let p = &n() * &n() + &n() - &c(110);
        let mut vals = BTreeMap::new();
        vals.insert(Sym::new("N"), 10);
        assert_eq!(p.eval(&vals).unwrap(), 0);
        let vals2 = BTreeMap::new();
        assert!(p.eval(&vals2).is_err());
        // substitute N := M + 1
        let repl = SymPoly::symbol("M") + c(1);
        let q = p.substitute(&Sym::new("N"), &repl).unwrap();
        let mut mv = BTreeMap::new();
        mv.insert(Sym::new("M"), 9);
        assert_eq!(q.eval(&mv).unwrap(), 0);
    }

    #[test]
    fn sign_determination_paper_facts() {
        let mut a = Assumptions::new();
        a.set_lower_bound("N", 2);
        // N - 1 < N  <=>  N - (N-1) = 1 > 0 : trivially positive
        assert_eq!(c(1).sign(&a), Some(Sign::Positive));
        // N² - (N² - N) = N > 0 under N >= 2
        assert_eq!(n().sign(&a), Some(Sign::Positive));
        // N² + N - N² = N is positive; but N - N² is negative under N >= 2
        let p = &n() - &(&n() * &n());
        assert_eq!(p.sign(&a), Some(Sign::Negative));
        // N - 2 is nonneg under N >= 2 but not strictly positive
        let q = &n() - &c(2);
        assert_eq!(q.is_nonneg(&a), Trilean::True);
        assert_eq!(q.is_pos(&a), Trilean::Unknown);
        assert_eq!(q.sign(&a), None);
        // N - 3 under N >= 2 is unknown
        let r = &n() - &c(3);
        assert_eq!(r.is_nonneg(&a), Trilean::Unknown);
        // -(N) under N >= 1: negative
        let mut a1 = Assumptions::new();
        a1.set_lower_bound("N", 1);
        assert_eq!((-&n()).sign(&a1), Some(Sign::Negative));
        // N under N >= 0 is only nonneg, not positive
        let a0 = Assumptions::new();
        assert_eq!(n().is_nonneg(&a0), Trilean::True);
        assert_eq!(n().is_pos(&a0), Trilean::Unknown);
        assert_eq!(SymPoly::zero().sign(&a0), Some(Sign::Zero));
    }

    #[test]
    fn normalize_sign() {
        let p = -&(&n() * &n() + &c(3));
        let q = p.normalize_sign();
        assert_eq!(q, &n() * &n() + &c(3));
        assert_eq!(SymPoly::zero().normalize_sign(), SymPoly::zero());
    }

    /// The structural hash feed must discriminate exactly like equality:
    /// equal polynomials feed identical streams, structurally different
    /// ones (coefficient, exponent, symbol name, or term-count changes)
    /// feed different fingerprints — without any `Display` rendering.
    #[test]
    fn hash_into_tracks_structural_equality() {
        use crate::fp128::Fp128;
        let fp = |p: &SymPoly| {
            let mut h = Fp128::new();
            p.hash_into(&mut h);
            h.finish128()
        };
        let p = &(&n() * &n()) + &(&c(3) * &m());
        let q = &(&n() * &n()) + &(&c(3) * &m());
        assert_eq!(fp(&p), fp(&q));
        assert_ne!(fp(&p), fp(&(&p + &c(1))), "constant shift must change the fp");
        assert_ne!(fp(&n()), fp(&m()), "symbol name is structural");
        assert_ne!(fp(&n()), fp(&(&n() * &n())), "exponent is structural");
        assert_ne!(fp(&SymPoly::zero()), fp(&(&c(0) + &c(1))));
        // A two-term poly must not alias the concatenation of its parts.
        let ab = &n() + &m();
        assert_ne!(fp(&ab), fp(&n()));
        // The monomial feed is self-delimiting too.
        let mono_fp = |mo: &Monomial| {
            let mut h = Fp128::new();
            mo.hash_into(&mut h);
            h.finish128()
        };
        assert_ne!(
            mono_fp(&Monomial::symbol("NX")),
            mono_fp(&Monomial::symbol("N").mul(&Monomial::symbol("X")))
        );
    }

    /// The borrow-only symbol walk visits the same set `symbols()` returns.
    #[test]
    fn for_each_symbol_matches_symbols() {
        let p = &(&n() * &m()) + &(&n() + &c(7));
        let mut seen: Vec<Sym> = Vec::new();
        p.for_each_symbol(&mut |s| {
            if !seen.contains(s) {
                seen.push(s.clone());
            }
        });
        let mut expect = p.symbols();
        expect.sort();
        seen.sort();
        assert_eq!(seen, expect);
        let mut count = 0;
        SymPoly::constant(5).for_each_symbol(&mut |_| count += 1);
        assert_eq!(count, 0, "concrete polynomials visit nothing");
    }

    /// Polynomials past [`INLINE_TERMS`] terms spill to the heap; spilling
    /// must be unobservable through equality, hashing, display order and
    /// arithmetic (a spilled store that shrinks back under the inline
    /// capacity stays on the heap but still compares equal).
    #[test]
    fn inline_spill_is_unobservable() {
        // 6 distinct monomials: 1, M, N, M·N, N², M·N².
        let terms = [
            (Monomial::unit(), 7),
            (Monomial::symbol("M"), 2),
            (Monomial::symbol("N"), 3),
            (Monomial::symbol("M").mul(&Monomial::symbol("N")), 5),
            (Monomial::symbol("N").mul(&Monomial::symbol("N")), 11),
            (Monomial::symbol("M").mul(&Monomial::symbol("N")).mul(&Monomial::symbol("N")), 13),
        ];
        // Built ascending vs descending: same polynomial.
        let mut asc = SymPoly::zero();
        for (m, c) in &terms {
            asc = asc.checked_add(&SymPoly::term(*c, m.clone())).unwrap();
        }
        let mut desc = SymPoly::zero();
        for (m, c) in terms.iter().rev() {
            desc = desc.checked_add(&SymPoly::term(*c, m.clone())).unwrap();
        }
        assert_eq!(asc, desc);
        assert_eq!(asc.num_terms(), 6);
        let fp = |p: &SymPoly| {
            let mut h = crate::fp128::Fp128::new();
            p.hash_into(&mut h);
            h.finish128()
        };
        assert_eq!(fp(&asc), fp(&desc));
        // Ascending graded-lex iteration regardless of representation.
        let mons: Vec<&Monomial> = asc.iter().map(|(m, _)| m).collect();
        assert!(mons.windows(2).all(|w| w[0] < w[1]));
        // Shrink a spilled polynomial back under the inline capacity: it
        // must equal (and hash like) a never-spilled twin.
        let spilled_small = asc.checked_sub(&desc.checked_sub(&(&n() + &m())).unwrap()).unwrap();
        let inline_small = &n() + &m();
        assert_eq!(spilled_small, inline_small);
        assert_eq!(fp(&spilled_small), fp(&inline_small));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let std_hash = |p: &SymPoly| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        assert_eq!(std_hash(&spilled_small), std_hash(&inline_small));
    }

    #[test]
    fn checked_add_assign_matches_checked_add() {
        let p = &(&n() * &n()) + &(&c(3) * &m());
        let q = &m() - &c(9);
        let mut acc = p.clone();
        acc.checked_add_assign(&q).unwrap();
        assert_eq!(acc, p.checked_add(&q).unwrap());
        let mut zero_acc = SymPoly::zero();
        zero_acc.checked_add_assign(&p).unwrap();
        assert_eq!(zero_acc, p);
    }

    /// The `BTreeMap` monomial the inline factor store replaced: the
    /// reference the differential tests below hold [`Monomial`] to.
    #[derive(Debug, Clone, Default)]
    struct RefMonomial(BTreeMap<Sym, u32>);

    impl RefMonomial {
        /// `Π name^e` over the listed factors, in any order and with
        /// repeats.
        fn of(factors: &[(&str, u32)]) -> RefMonomial {
            let mut m = BTreeMap::new();
            for (s, e) in factors {
                *m.entry(Sym::new(s)).or_insert(0) += e;
            }
            RefMonomial(m)
        }

        fn degree(&self) -> u32 {
            self.0.values().sum()
        }

        fn mul(&self, other: &RefMonomial) -> RefMonomial {
            let mut out = self.0.clone();
            for (s, &e) in &other.0 {
                *out.entry(s.clone()).or_insert(0) += e;
            }
            RefMonomial(out)
        }

        fn gcd(&self, other: &RefMonomial) -> RefMonomial {
            let mut out = BTreeMap::new();
            for (s, &e) in &self.0 {
                if let Some(&e2) = other.0.get(s) {
                    out.insert(s.clone(), e.min(e2));
                }
            }
            RefMonomial(out)
        }

        fn try_div(&self, other: &RefMonomial) -> Option<RefMonomial> {
            let mut out = self.0.clone();
            for (s, &e) in &other.0 {
                match out.get_mut(s) {
                    Some(cur) if *cur >= e => {
                        *cur -= e;
                        if *cur == 0 {
                            out.remove(s);
                        }
                    }
                    _ => return None,
                }
            }
            Some(RefMonomial(out))
        }

        fn cmp(&self, other: &RefMonomial) -> std::cmp::Ordering {
            self.degree().cmp(&other.degree()).then_with(|| self.0.iter().cmp(other.0.iter()))
        }

        fn render(&self) -> String {
            if self.0.is_empty() {
                return "1".to_string();
            }
            let parts: Vec<String> = self
                .0
                .iter()
                .map(|(s, e)| if *e == 1 { s.to_string() } else { format!("{s}^{e}") })
                .collect();
            parts.join("*")
        }

        fn hash_into<H: Hasher>(&self, state: &mut H) {
            state.write_usize(self.0.len());
            for (s, &e) in &self.0 {
                let name = s.name().as_bytes();
                state.write_usize(name.len());
                state.write(name);
                state.write_u32(e);
            }
        }

        /// The inline monomial with the same factors, built without the
        /// arithmetic under test.
        fn inline(&self) -> Monomial {
            let mut f = Factors::Unit;
            for (s, &e) in &self.0 {
                f.push((s.clone(), e));
            }
            Monomial(f)
        }
    }

    /// Records every `Hasher` call with its kind, so two feeds compare
    /// call by call rather than digest by digest.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(b'w');
            self.0.extend(bytes.len().to_le_bytes());
            self.0.extend_from_slice(bytes);
        }
        fn write_u32(&mut self, n: u32) {
            self.0.push(b'u');
            self.0.extend(n.to_le_bytes());
        }
        fn write_usize(&mut self, n: usize) {
            self.0.push(b'z');
            self.0.extend(n.to_le_bytes());
        }
    }

    fn inline_stream(m: &Monomial) -> Vec<u8> {
        let mut r = Recorder::default();
        m.hash_into(&mut r);
        r.0
    }

    fn ref_stream(m: &RefMonomial) -> Vec<u8> {
        let mut r = Recorder::default();
        m.hash_into(&mut r);
        r.0
    }

    /// Symbols whose names sort in both orders against each other: `N`
    /// against `NX` and `M`, `KK` against `JJ`, one-letter against
    /// two-letter names.
    const SYMBOL_POOL: [&str; 6] = ["N", "NX", "M", "KK", "JJ", "A"];

    /// Zero to three factors drawn from [`SYMBOL_POOL`] in any order,
    /// exponents 1 to 7.
    fn arb_ref_monomial() -> impl Strategy<Value = RefMonomial> {
        prop::collection::vec((0usize..SYMBOL_POOL.len(), 1u32..8), 0..4).prop_map(|fs| {
            let named: Vec<(&str, u32)> = fs.iter().map(|&(k, e)| (SYMBOL_POOL[k], e)).collect();
            RefMonomial::of(&named)
        })
    }

    /// `1`, `N`, `NX` and `N²` hold no heap memory; `KK*JJ` does.
    #[test]
    fn one_symbol_monomials_stay_inline() {
        let n = Monomial::symbol("N");
        assert!(matches!(Monomial::unit().0, Factors::Unit));
        assert!(matches!(n.0, Factors::Power(_)));
        assert!(matches!(n.mul(&n).0, Factors::Power((_, 2))));
        assert!(matches!(Monomial::symbol("NX").0, Factors::Power(_)));
        let kk_jj = Monomial::symbol("KK").mul(&Monomial::symbol("JJ"));
        assert!(matches!(&kk_jj.0, Factors::Product(v) if v.len() == 2));
        // Dividing a product back down to one symbol leaves it inline.
        assert!(matches!(kk_jj.try_div(&Monomial::symbol("JJ")).unwrap().0, Factors::Power(_)));
        assert!(matches!(kk_jj.gcd(&Monomial::symbol("KK")).0, Factors::Power(_)));
    }

    fn arb_poly() -> impl Strategy<Value = SymPoly> {
        prop::collection::vec((0u32..3, 0u32..3, -20i128..20), 0..5).prop_map(|terms| {
            let mut p = SymPoly::zero();
            for (en, em, c) in terms {
                let mut m = Monomial::unit();
                for _ in 0..en {
                    m = m.mul(&Monomial::symbol("N"));
                }
                for _ in 0..em {
                    m = m.mul(&Monomial::symbol("M"));
                }
                p = p.checked_add(&SymPoly::term(c, m)).unwrap();
            }
            p
        })
    }

    /// `Σ coeffs[k]·N^k`.
    fn poly_in_n(coeffs: &[i128]) -> SymPoly {
        let mut p = SymPoly::zero();
        let mut m = Monomial::unit();
        for &c in coeffs {
            p = p.checked_add(&SymPoly::term(c, m.clone())).unwrap();
            m = m.mul(&Monomial::symbol("N"));
        }
        p
    }

    /// The sign procedure as it stood before the single-symbol buffer:
    /// every query expands `shift_by_assumptions`. The differential tests
    /// below hold the buffer path to it.
    fn reference_is_nonneg(p: &SymPoly, a: &Assumptions) -> Trilean {
        match p.shift_by_assumptions(a) {
            Ok(p) => {
                if p.is_zero() || p.iter().all(|(_, c)| c >= 0) {
                    Trilean::True
                } else if p.iter().all(|(_, c)| c <= 0) && p.coeff_of(&Monomial::unit()) < 0 {
                    Trilean::False
                } else {
                    Trilean::Unknown
                }
            }
            Err(_) => Trilean::Unknown,
        }
    }

    fn reference_is_pos(p: &SymPoly, a: &Assumptions) -> Trilean {
        match p.shift_by_assumptions(a) {
            Ok(p) => {
                if p.is_zero() {
                    return Trilean::False;
                }
                if p.iter().all(|(_, c)| c >= 0) && p.coeff_of(&Monomial::unit()) > 0 {
                    Trilean::True
                } else if p.iter().all(|(_, c)| c <= 0) {
                    Trilean::False
                } else {
                    Trilean::Unknown
                }
            }
            Err(_) => Trilean::Unknown,
        }
    }

    fn reference_sign(p: &SymPoly, a: &Assumptions) -> Option<Sign> {
        if p.is_zero() {
            return Some(Sign::Zero);
        }
        if reference_is_pos(p, a).is_true() {
            return Some(Sign::Positive);
        }
        let neg = p.checked_neg().ok()?;
        reference_is_pos(&neg, a).is_true().then_some(Sign::Negative)
    }

    /// Coefficients for the differential tests: small values, zeros, and
    /// values at and near both ends of `i128`, where the shift overflows.
    fn arb_wide_coeff() -> impl Strategy<Value = i128> {
        (0u8..8, -40i128..40).prop_map(|(kind, x)| match kind {
            0 => i128::MAX - x.abs(),
            1 => i128::MIN + x.abs(),
            2 => (1i128 << 100) + x,
            3 => -(1i128 << 60) + x,
            4 => 0,
            _ => x,
        })
    }

    /// Lower bounds in −20..20 and near overflow.
    fn arb_lower_bound() -> impl Strategy<Value = i128> {
        (0u8..6, -20i128..20).prop_map(|(kind, x)| match kind {
            0 => i128::MAX - x.abs(),
            1 => i128::MIN + x.abs(),
            2 => (1i128 << 40) + x,
            3 => -(1i128 << 25) + x,
            _ => x,
        })
    }

    /// Assumptions bounding `N` below by `lb`, explicitly or as the default.
    fn bound_n(lb: i128, explicit: bool) -> Assumptions {
        if explicit {
            let mut a = Assumptions::new();
            a.set_lower_bound("N", lb);
            a
        } else {
            Assumptions::with_default_lower_bound(lb)
        }
    }

    #[test]
    fn univariate_covers_one_symbol_up_to_the_buffer() {
        assert!(SymPoly::zero().univariate().is_some());
        assert!(c(7).univariate().is_some());
        let full = poly_in_n(&[1; SHIFT_BUF_LEN]);
        assert_eq!(full.univariate().map(|u| u.coeffs), Some([1; SHIFT_BUF_LEN]));
        assert!(poly_in_n(&[1; SHIFT_BUF_LEN + 1]).univariate().is_none(), "degree past buffer");
        assert!((&n() + &m()).univariate().is_none(), "two symbols");
        // The paper's KK*JJ: one monomial, two symbols — the general path.
        let kk_jj = SymPoly::symbol("KK") * SymPoly::symbol("JJ");
        assert!(kk_jj.univariate().is_none());
        let mut a = Assumptions::new();
        a.set_lower_bound("KK", 1).set_lower_bound("JJ", 1);
        assert_eq!(kk_jj.sign(&a), Some(Sign::Positive));
        assert_eq!((&kk_jj - &c(1)).is_nonneg(&a), Trilean::True);
        assert_eq!((&kk_jj - &c(1)).is_pos(&a), Trilean::Unknown);
    }

    proptest! {
        /// The inline monomial gives exactly what the `BTreeMap` one gave:
        /// products, gcds, quotients, graded-lex order, degree, display and
        /// the `hash_into` call stream.
        #[test]
        fn inline_monomial_matches_btree_reference(
            a in arb_ref_monomial(),
            b in arb_ref_monomial(),
        ) {
            let (ia, ib) = (a.inline(), b.inline());
            for (r, m) in [(&a, &ia), (&b, &ib)] {
                prop_assert_eq!(m.to_string(), r.render());
                prop_assert_eq!(inline_stream(m), ref_stream(r));
                prop_assert_eq!(m.degree(), r.degree());
                prop_assert_eq!(m.is_unit(), r.0.is_empty());
            }
            prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
            prop_assert_eq!(ia == ib, a.cmp(&b).is_eq());
            let (prod, ref_prod) = (ia.mul(&ib), a.mul(&b));
            prop_assert_eq!(&prod, &ref_prod.inline());
            prop_assert_eq!(prod.to_string(), ref_prod.render());
            prop_assert_eq!(inline_stream(&prod), ref_stream(&ref_prod));
            let (g, ref_g) = (ia.gcd(&ib), a.gcd(&b));
            prop_assert_eq!(g.to_string(), ref_g.render());
            prop_assert_eq!(inline_stream(&g), ref_stream(&ref_g));
            for (m, d, rm, rd) in [(&ia, &ib, &a, &b), (&prod, &ib, &ref_prod, &b), (&prod, &g, &ref_prod, &ref_g)] {
                let (q, ref_q) = (m.try_div(d), rm.try_div(rd));
                prop_assert_eq!(q.as_ref().map(Monomial::to_string), ref_q.as_ref().map(RefMonomial::render));
                prop_assert_eq!(q.as_ref().map(inline_stream), ref_q.as_ref().map(ref_stream));
            }
            // Built through `symbol` and `mul` in the drawn order, the
            // monomial is the same value, and the std hash agrees.
            let built = ib.iter().fold(ia.clone(), |acc, (s, e)| {
                (0..e).fold(acc, |acc, _| acc.mul(&Monomial::symbol(s.clone())))
            });
            prop_assert_eq!(&built, &prod);
            let std_hash = |m: &Monomial| {
                use std::hash::Hash;
                let mut h = std::collections::hash_map::DefaultHasher::new();
                m.hash(&mut h);
                h.finish()
            };
            prop_assert_eq!(std_hash(&built), std_hash(&ib.mul(&ia)));
        }

        /// The single-symbol buffer agrees with `shift_by_assumptions`
        /// exactly: same overflow, same coefficients, same answers.
        #[test]
        fn buffer_shift_matches_substitution(
            coeffs in prop::collection::vec(arb_wide_coeff(), 0..=SHIFT_BUF_LEN),
            lb in arb_lower_bound(),
            explicit in 0u8..2,
        ) {
            let p = poly_in_n(&coeffs);
            let a = bound_n(lb, explicit == 1);
            let u = p.univariate().expect("one symbol, within the buffer");
            match (shift_coeffs(&u.coeffs, lb), p.shift_by_assumptions(&a)) {
                (Ok(buf), Ok(q)) => prop_assert_eq!(q, poly_in_n(&buf)),
                (Err(_), Err(_)) => {}
                (buf, q) => prop_assert!(false, "overflow differs: {:?} vs {:?}", buf, q),
            }
            prop_assert_eq!(p.is_nonneg(&a), reference_is_nonneg(&p, &a));
            prop_assert_eq!(p.is_pos(&a), reference_is_pos(&p, &a));
            prop_assert_eq!(p.sign(&a), reference_sign(&p, &a));
        }

        /// Schwartz–Zippel check of the shift: the buffer's coefficients
        /// evaluated at random points `s` equal the original polynomial
        /// evaluated at `lb + s`.
        #[test]
        fn buffer_shift_evaluates_like_the_original(
            coeffs in prop::collection::vec(-1000i128..1000, 0..=SHIFT_BUF_LEN),
            lb in -20i128..20,
            points in prop::collection::vec(-30i128..30, 8..9),
        ) {
            let p = poly_in_n(&coeffs);
            let u = p.univariate().expect("one symbol, within the buffer");
            let shifted = shift_coeffs(&u.coeffs, lb).unwrap();
            for s in points {
                let horner = shifted.iter().rev().fold(0i128, |acc, &c| acc * s + c);
                let mut at = BTreeMap::new();
                at.insert(Sym::new("N"), lb + s);
                prop_assert_eq!(horner, p.eval(&at).unwrap());
            }
        }

        /// Polynomials in two symbols take the general path, and mixed
        /// lower bounds exercise both shifts: the answers still equal the
        /// pre-change procedure's.
        #[test]
        fn sign_answers_match_reference(a in arb_poly(), lbn in -5i128..5, lbm in -5i128..5) {
            let mut assume = Assumptions::new();
            assume.set_lower_bound("N", lbn);
            assume.set_lower_bound("M", lbm);
            prop_assert_eq!(a.is_nonneg(&assume), reference_is_nonneg(&a, &assume));
            prop_assert_eq!(a.is_pos(&assume), reference_is_pos(&a, &assume));
            prop_assert_eq!(a.sign(&assume), reference_sign(&a, &assume));
        }

        #[test]
        fn ring_axioms(a in arb_poly(), b in arb_poly(), d in arb_poly()) {
            prop_assert_eq!(a.checked_add(&b).unwrap(), b.checked_add(&a).unwrap());
            prop_assert_eq!(a.checked_mul(&b).unwrap(), b.checked_mul(&a).unwrap());
            let left = a.checked_mul(&b.checked_add(&d).unwrap()).unwrap();
            let right = a.checked_mul(&b).unwrap().checked_add(&a.checked_mul(&d).unwrap()).unwrap();
            prop_assert_eq!(left, right);
        }

        #[test]
        fn gcd_divides_operands(a in arb_poly(), b in arb_poly()) {
            let g = a.gcd(&b);
            if !g.is_zero() {
                prop_assert!(a.try_div_exact(&g).is_some() || a.is_zero());
                prop_assert!(b.try_div_exact(&g).is_some() || b.is_zero());
            }
        }

        #[test]
        fn div_rem_reconstructs(a in arb_poly(), c in -20i128..20, en in 0u32..3) {
            prop_assume!(c != 0);
            let mut m = Monomial::unit();
            for _ in 0..en { m = m.mul(&Monomial::symbol("N")); }
            let d = SymPoly::term(c, m);
            let (q, r) = a.div_rem_by(&d).unwrap();
            let back = q.checked_mul(&d).unwrap().checked_add(&r).unwrap();
            prop_assert_eq!(back, a);
        }

        #[test]
        fn eval_homomorphism(a in arb_poly(), b in arb_poly(), nv in 0i128..50, mv in 0i128..50) {
            let mut vals = BTreeMap::new();
            vals.insert(Sym::new("N"), nv);
            vals.insert(Sym::new("M"), mv);
            let sum = a.checked_add(&b).unwrap();
            prop_assert_eq!(sum.eval(&vals).unwrap(), a.eval(&vals).unwrap() + b.eval(&vals).unwrap());
            let prod = a.checked_mul(&b).unwrap();
            prop_assert_eq!(prod.eval(&vals).unwrap(), a.eval(&vals).unwrap() * b.eval(&vals).unwrap());
        }

        #[test]
        fn sign_soundness(a in arb_poly(), nv in 0i128..60, mv in 0i128..60, lbn in 0i128..5, lbm in 0i128..5) {
            // any definite answer must hold at every admissible point
            prop_assume!(nv >= lbn && mv >= lbm);
            let mut assume = Assumptions::new();
            assume.set_lower_bound("N", lbn);
            assume.set_lower_bound("M", lbm);
            let mut vals = BTreeMap::new();
            vals.insert(Sym::new("N"), nv);
            vals.insert(Sym::new("M"), mv);
            let v = a.eval(&vals).unwrap();
            match a.is_nonneg(&assume) {
                Trilean::True => prop_assert!(v >= 0),
                Trilean::False => prop_assert!(v < 0),
                Trilean::Unknown => {}
            }
            match a.is_pos(&assume) {
                Trilean::True => prop_assert!(v > 0),
                Trilean::False => prop_assert!(v <= 0),
                Trilean::Unknown => {}
            }
            if let Some(s) = a.sign(&assume) {
                prop_assert_eq!(s, Sign::of(v));
            }
        }
    }
}
