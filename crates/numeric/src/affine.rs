//! Affine forms `c0 + Σ ci·vi` over interned variables.
//!
//! Subscript expressions extracted from programs, loop bounds, and
//! dependence equations are all affine forms: a constant plus an integer
//! (or symbolic) coefficient per loop variable. [`Affine`] is generic over
//! the coefficient ring [`Coeff`].

use crate::assume::Assumptions;
use crate::coeff::Coeff;
use crate::error::NumericError;
use std::collections::BTreeMap;
use std::fmt;

/// An interned variable identity (a loop variable, or one side of a
/// dependence pair). Plain `u32` newtype: the meaning of the index is owned
/// by whoever constructs the affine form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An affine form `constant + Σ coeff(v)·v` with coefficients in `C`.
///
/// Zero coefficients are never stored.
///
/// ```
/// use delin_numeric::{Affine, VarId};
/// let i = VarId(0);
/// let j = VarId(1);
/// // i + 10*j + 5
/// let f = Affine::<i128>::var(i)
///     .checked_add(&Affine::var_scaled(j, 10)).unwrap()
///     .checked_add(&Affine::constant(5)).unwrap();
/// assert_eq!(f.coeff(i), 1);
/// assert_eq!(f.coeff(j), 10);
/// assert_eq!(f.constant_part(), &5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Affine<C> {
    constant: C,
    terms: BTreeMap<VarId, C>,
}

impl<C: Coeff> Default for Affine<C> {
    fn default() -> Self {
        Affine::constant(C::zero())
    }
}

impl<C: Coeff> Affine<C> {
    /// The zero form.
    pub fn zero() -> Affine<C> {
        Affine::constant(C::zero())
    }

    /// A constant form.
    pub fn constant(c: C) -> Affine<C> {
        Affine { constant: c, terms: BTreeMap::new() }
    }

    /// The form `1·v`.
    pub fn var(v: VarId) -> Affine<C> {
        Affine::var_scaled(v, C::one())
    }

    /// The form `c·v`.
    pub fn var_scaled(v: VarId, c: C) -> Affine<C> {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(v, c);
        }
        Affine { constant: C::zero(), terms }
    }

    /// The form `constant + Σ c·v` from terms in any order; zero
    /// coefficients are dropped and a repeated variable keeps its last
    /// coefficient. Builds the term map in place, one insertion per term.
    pub fn from_terms(constant: C, terms: impl IntoIterator<Item = (VarId, C)>) -> Affine<C> {
        let mut out = Affine::constant(constant);
        for (v, c) in terms {
            if !c.is_zero() {
                out.terms.insert(v, c);
            }
        }
        out
    }

    /// The constant part.
    pub fn constant_part(&self) -> &C {
        &self.constant
    }

    /// The coefficient of `v` (zero when absent).
    pub fn coeff(&self, v: VarId) -> C {
        self.terms.get(&v).cloned().unwrap_or_else(C::zero)
    }

    /// Iterates `(variable, coefficient)` pairs in ascending `VarId` order.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, &C)> {
        self.terms.iter().map(|(&v, c)| (v, c))
    }

    /// The variables with nonzero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.keys().copied()
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the form has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// `true` when the form is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// Checked addition.
    pub fn checked_add(&self, other: &Affine<C>) -> Result<Affine<C>, NumericError> {
        let mut out = self.clone();
        out.constant = out.constant.checked_add(&other.constant)?;
        for (&v, c) in &other.terms {
            let cur = out.coeff(v).checked_add(c)?;
            if cur.is_zero() {
                out.terms.remove(&v);
            } else {
                out.terms.insert(v, cur);
            }
        }
        Ok(out)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Affine<C>) -> Result<Affine<C>, NumericError> {
        self.checked_add(&other.checked_neg()?)
    }

    /// Checked negation.
    pub fn checked_neg(&self) -> Result<Affine<C>, NumericError> {
        let mut out = Affine::constant(self.constant.checked_neg()?);
        for (&v, c) in &self.terms {
            out.terms.insert(v, c.checked_neg()?);
        }
        Ok(out)
    }

    /// Checked scaling by a coefficient.
    pub fn checked_scale(&self, k: &C) -> Result<Affine<C>, NumericError> {
        if k.is_zero() {
            return Ok(Affine::zero());
        }
        let mut out = Affine::constant(self.constant.checked_mul(k)?);
        for (&v, c) in &self.terms {
            let scaled = c.checked_mul(k)?;
            if !scaled.is_zero() {
                out.terms.insert(v, scaled);
            }
        }
        Ok(out)
    }

    /// Replaces variable `v` with an affine form (e.g. loop normalization
    /// `i := L + i'`, or induction-variable substitution).
    pub fn substitute(&self, v: VarId, replacement: &Affine<C>) -> Result<Affine<C>, NumericError> {
        match self.terms.get(&v) {
            None => Ok(self.clone()),
            Some(c) => {
                let mut out = self.clone();
                let c = c.clone();
                out.terms.remove(&v);
                out.checked_add(&replacement.checked_scale(&c)?)
            }
        }
    }

    /// Evaluates the form with concrete variable values.
    pub fn eval(&self, values: &BTreeMap<VarId, C>) -> Result<C, NumericError> {
        let mut total = self.constant.clone();
        for (&v, c) in &self.terms {
            let val = values.get(&v).cloned().unwrap_or_else(C::zero);
            total = total.checked_add(&c.checked_mul(&val)?)?;
        }
        Ok(total)
    }

    /// Whether every coefficient and the constant are concrete integers.
    pub fn is_concrete(&self) -> bool {
        self.constant.as_i128().is_some() && self.terms.values().all(|c| c.as_i128().is_some())
    }
}

struct AffineDisplay<'a, C> {
    form: &'a Affine<C>,
    namer: &'a dyn Fn(VarId) -> String,
}

impl<C: Coeff> fmt::Display for AffineDisplay<'_, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let a = Assumptions::new();
        for (v, c) in self.form.terms() {
            let name = (self.namer)(v);
            let (neg, mag) = match c.sign(&a) {
                Some(crate::sign::Sign::Negative) => {
                    (true, c.checked_neg().map_err(|_| fmt::Error)?)
                }
                _ => (false, c.clone()),
            };
            if first {
                if neg {
                    write!(f, "-")?;
                }
                first = false;
            } else if neg {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            if mag == C::one() {
                write!(f, "{name}")?;
            } else {
                write!(f, "{mag}*{name}")?;
            }
        }
        let c = self.form.constant_part();
        if first {
            write!(f, "{c}")?;
        } else if !c.is_zero() {
            match c.sign(&a) {
                Some(crate::sign::Sign::Negative) => {
                    write!(f, " - {}", c.checked_neg().map_err(|_| fmt::Error)?)?
                }
                _ => write!(f, " + {c}")?,
            }
        }
        Ok(())
    }
}

impl<C: Coeff> fmt::Display for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let namer: &dyn Fn(VarId) -> String = &|v: VarId| v.to_string();
        fmt::Display::fmt(&AffineDisplay { form: self, namer }, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i() -> VarId {
        VarId(0)
    }
    fn j() -> VarId {
        VarId(1)
    }

    fn form(c0: i128, ci: i128, cj: i128) -> Affine<i128> {
        Affine::constant(c0)
            .checked_add(&Affine::var_scaled(i(), ci))
            .unwrap()
            .checked_add(&Affine::var_scaled(j(), cj))
            .unwrap()
    }

    #[test]
    fn construction() {
        let f = form(5, 1, 10);
        assert_eq!(f.coeff(i()), 1);
        assert_eq!(f.coeff(j()), 10);
        assert_eq!(*f.constant_part(), 5);
        assert_eq!(f.coeff(VarId(9)), 0);
        assert_eq!(f.num_vars(), 2);
        assert!(!f.is_constant());
        assert!(Affine::<i128>::zero().is_zero());
        assert!(Affine::<i128>::constant(3).is_constant());
        assert!(f.is_concrete());
    }

    #[test]
    fn arithmetic_cancels_zeros() {
        let f = form(5, 1, 10);
        let g = form(2, -1, 3);
        let s = f.checked_add(&g).unwrap();
        assert_eq!(s.coeff(i()), 0);
        assert_eq!(s.num_vars(), 1);
        assert_eq!(s.coeff(j()), 13);
        assert_eq!(*s.constant_part(), 7);
        let d = f.checked_sub(&f).unwrap();
        assert!(d.is_zero());
        let n = f.checked_neg().unwrap();
        assert_eq!(n.coeff(j()), -10);
        let sc = f.checked_scale(&3).unwrap();
        assert_eq!(sc.coeff(i()), 3);
        assert_eq!(*sc.constant_part(), 15);
        assert!(f.checked_scale(&0).unwrap().is_zero());
    }

    #[test]
    fn substitute_normalizes_loops() {
        // i := 3 + i'  applied to  i + 10j + 5  gives  i' + 10j + 8
        let f = form(5, 1, 10);
        let repl = Affine::constant(3).checked_add(&Affine::var(i())).unwrap();
        let g = f.substitute(i(), &repl).unwrap();
        assert_eq!(*g.constant_part(), 8);
        assert_eq!(g.coeff(i()), 1);
        assert_eq!(g.coeff(j()), 10);
        // substituting an absent variable is the identity
        let h = f.substitute(VarId(42), &repl).unwrap();
        assert_eq!(h, f);
    }

    #[test]
    fn eval() {
        let f = form(5, 1, 10);
        let mut vals = BTreeMap::new();
        vals.insert(i(), 2i128);
        vals.insert(j(), 3i128);
        assert_eq!(f.eval(&vals).unwrap(), 37);
        // missing variables default to zero
        assert_eq!(f.eval(&BTreeMap::new()).unwrap(), 5);
    }

    #[test]
    fn display() {
        let f = form(5, 1, 10);
        assert_eq!(f.to_string(), "v0 + 10*v1 + 5");
        let g = form(-5, -1, 10);
        assert_eq!(g.to_string(), "-v0 + 10*v1 - 5");
        assert_eq!(Affine::<i128>::zero().to_string(), "0");
        assert_eq!(Affine::<i128>::constant(-3).to_string(), "-3");
    }
}
