//! The coefficient-ring abstraction.
//!
//! The delinearization algorithm (paper Fig. 4) is written once, generically
//! over a coefficient ring: concrete `i128` for ordinary programs and
//! [`SymPoly`] for the symbolic analysis of Section 4. [`Coeff`] captures
//! exactly the operations the algorithm performs: ring arithmetic, gcd,
//! division with remainder, and *assumption-relative* sign queries (which
//! are total for `i128` and three-valued for polynomials).

use crate::assume::Assumptions;
use crate::error::NumericError;
use crate::int;
use crate::sign::{Sign, Trilean};
use crate::sympoly::SymPoly;
use std::fmt::{Debug, Display};
use std::hash::Hash;

/// A coefficient ring for dependence equations.
///
/// Implemented for `i128` (concrete analysis) and [`SymPoly`] (symbolic
/// analysis). All arithmetic is checked; sign queries take the current
/// [`Assumptions`] and may be undecided for symbolic values.
pub trait Coeff: Clone + PartialEq + Eq + Hash + Debug + Display + 'static {
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Embeds an integer.
    fn from_i128(n: i128) -> Self;
    /// `true` for the additive identity.
    fn is_zero(&self) -> bool;
    /// The concrete value, when the coefficient is a known integer.
    fn as_i128(&self) -> Option<i128>;

    /// Checked addition.
    fn checked_add(&self, other: &Self) -> Result<Self, NumericError>;
    /// Checked subtraction.
    fn checked_sub(&self, other: &Self) -> Result<Self, NumericError>;
    /// Checked multiplication.
    fn checked_mul(&self, other: &Self) -> Result<Self, NumericError>;
    /// Checked negation.
    fn checked_neg(&self) -> Result<Self, NumericError>;

    /// A (possibly conservative) gcd that divides both operands; never
    /// negative-normalized to a canonical representative.
    fn gcd(&self, other: &Self) -> Self;

    /// Division with remainder: `self = q·d + r`. For integers the remainder
    /// is the Euclidean one (`0 ≤ r < |d|`); for polynomials see
    /// [`SymPoly::div_rem_by`].
    ///
    /// # Errors
    ///
    /// Returns an error when `d` is zero or the division is unsupported.
    fn div_rem(&self, d: &Self) -> Result<(Self, Self), NumericError>;

    /// Exact division when possible.
    fn try_div_exact(&self, d: &Self) -> Option<Self>;

    /// Is `self ≥ 0` under the assumptions?
    fn is_nonneg(&self, a: &Assumptions) -> Trilean;

    /// Is `self > 0` under the assumptions?
    fn is_pos(&self, a: &Assumptions) -> Trilean;

    /// The definite sign, if decidable under the assumptions.
    fn sign(&self, a: &Assumptions) -> Option<Sign> {
        if self.is_zero() {
            return Some(Sign::Zero);
        }
        if self.is_pos(a).is_true() {
            return Some(Sign::Positive);
        }
        if self.is_nonneg(a).is_false() {
            return Some(Sign::Negative);
        }
        None
    }

    /// `|self|`, when the sign is decidable.
    fn abs(&self, a: &Assumptions) -> Option<Self> {
        match self.sign(a)? {
            Sign::Negative => self.checked_neg().ok(),
            _ => Some(self.clone()),
        }
    }

    /// The positive part `c⁺ = max(c, 0)` (paper notation), when decidable.
    fn pos_part(&self, a: &Assumptions) -> Option<Self> {
        match self.sign(a)? {
            Sign::Negative => Some(Self::zero()),
            _ => Some(self.clone()),
        }
    }

    /// The negative part `c⁻ = min(c, 0)` (paper notation: the value itself
    /// when negative, else zero), when decidable.
    fn neg_part(&self, a: &Assumptions) -> Option<Self> {
        match self.sign(a)? {
            Sign::Positive => Some(Self::zero()),
            _ => Some(self.clone()),
        }
    }

    /// Three-valued `self < other`.
    fn lt(&self, other: &Self, a: &Assumptions) -> Trilean {
        match other.checked_sub(self) {
            Ok(diff) => diff.is_pos(a),
            Err(_) => Trilean::Unknown,
        }
    }

    /// Three-valued `self ≤ other`.
    fn le(&self, other: &Self, a: &Assumptions) -> Trilean {
        match other.checked_sub(self) {
            Ok(diff) => diff.is_nonneg(a),
            Err(_) => Trilean::Unknown,
        }
    }
}

impl Coeff for i128 {
    fn zero() -> Self {
        0
    }

    fn one() -> Self {
        1
    }

    fn from_i128(n: i128) -> Self {
        n
    }

    fn is_zero(&self) -> bool {
        *self == 0
    }

    fn as_i128(&self) -> Option<i128> {
        Some(*self)
    }

    fn checked_add(&self, other: &Self) -> Result<Self, NumericError> {
        int::add(*self, *other)
    }

    fn checked_sub(&self, other: &Self) -> Result<Self, NumericError> {
        int::sub(*self, *other)
    }

    fn checked_mul(&self, other: &Self) -> Result<Self, NumericError> {
        int::mul(*self, *other)
    }

    fn checked_neg(&self) -> Result<Self, NumericError> {
        i128::checked_neg(*self).ok_or_else(|| NumericError::overflow("neg"))
    }

    fn gcd(&self, other: &Self) -> Self {
        int::gcd(*self, *other)
    }

    fn div_rem(&self, d: &Self) -> Result<(Self, Self), NumericError> {
        if *d == 0 {
            return Err(NumericError::DivisionByZero);
        }
        // The Euclidean pair, remainder 0 <= r < |d|. Only `MIN / −1`
        // overflows: its quotient 2^127 is out of range.
        match (self.checked_div_euclid(*d), self.checked_rem_euclid(*d)) {
            (Some(q), Some(r)) => Ok((q, r)),
            _ => Err(NumericError::overflow("div_rem")),
        }
    }

    fn try_div_exact(&self, d: &Self) -> Option<Self> {
        if *d == 0 || self % d != 0 {
            None
        } else {
            Some(self / d)
        }
    }

    fn is_nonneg(&self, _a: &Assumptions) -> Trilean {
        Trilean::from_bool(*self >= 0)
    }

    fn is_pos(&self, _a: &Assumptions) -> Trilean {
        Trilean::from_bool(*self > 0)
    }
}

impl Coeff for SymPoly {
    fn zero() -> Self {
        SymPoly::zero()
    }

    fn one() -> Self {
        SymPoly::one()
    }

    fn from_i128(n: i128) -> Self {
        SymPoly::constant(n)
    }

    fn is_zero(&self) -> bool {
        SymPoly::is_zero(self)
    }

    fn as_i128(&self) -> Option<i128> {
        self.as_constant()
    }

    fn checked_add(&self, other: &Self) -> Result<Self, NumericError> {
        SymPoly::checked_add(self, other)
    }

    fn checked_sub(&self, other: &Self) -> Result<Self, NumericError> {
        SymPoly::checked_sub(self, other)
    }

    fn checked_mul(&self, other: &Self) -> Result<Self, NumericError> {
        SymPoly::checked_mul(self, other)
    }

    fn checked_neg(&self) -> Result<Self, NumericError> {
        SymPoly::checked_neg(self)
    }

    fn gcd(&self, other: &Self) -> Self {
        SymPoly::gcd(self, other)
    }

    fn div_rem(&self, d: &Self) -> Result<(Self, Self), NumericError> {
        self.div_rem_by(d)
    }

    fn try_div_exact(&self, d: &Self) -> Option<Self> {
        SymPoly::try_div_exact(self, d)
    }

    fn is_nonneg(&self, a: &Assumptions) -> Trilean {
        SymPoly::is_nonneg(self, a)
    }

    fn is_pos(&self, a: &Assumptions) -> Trilean {
        SymPoly::is_pos(self, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i128_ring() {
        let a = Assumptions::new();
        assert_eq!(<i128 as Coeff>::zero(), 0);
        assert_eq!(<i128 as Coeff>::one(), 1);
        assert_eq!(<i128 as Coeff>::from_i128(7), 7);
        assert_eq!(Coeff::checked_add(&5i128, &3).unwrap(), 8);
        assert_eq!(Coeff::checked_sub(&5i128, &3).unwrap(), 2);
        assert_eq!(Coeff::checked_mul(&5i128, &3).unwrap(), 15);
        assert_eq!(Coeff::checked_neg(&5i128).unwrap(), -5);
        assert_eq!(Coeff::gcd(&12i128, &18), 6);
        assert_eq!(Coeff::sign(&-4i128, &a), Some(Sign::Negative));
        assert_eq!(Coeff::abs(&-4i128, &a), Some(4));
        assert_eq!(Coeff::pos_part(&-4i128, &a), Some(0));
        assert_eq!(Coeff::neg_part(&-4i128, &a), Some(-4));
        assert_eq!(Coeff::pos_part(&4i128, &a), Some(4));
        assert_eq!(Coeff::neg_part(&4i128, &a), Some(0));
        assert!(Coeff::lt(&3i128, &5, &a).is_true());
        assert!(Coeff::le(&5i128, &5, &a).is_true());
        assert!(Coeff::lt(&5i128, &5, &a).is_false());
    }

    #[test]
    fn i128_div_rem_euclidean() {
        for (a, d) in [(110i128, 100i128), (-110, 100), (110, -100), (-110, -100), (7, 3), (-7, 3)]
        {
            let (q, r) = a.div_rem(&d).unwrap();
            assert_eq!(q * d + r, a, "a={a} d={d}");
            assert!(r >= 0 && r < d.abs(), "a={a} d={d} r={r}");
        }
        assert!(0i128.div_rem(&0).is_err());
    }

    #[test]
    fn i128_div_rem_at_the_boundary() {
        // The remainder was `a − q·d`, and q·3 < MIN for a = MIN.
        let (q, r) = i128::MIN.div_rem(&3).unwrap();
        assert_eq!((q, r), (i128::MIN.div_euclid(3), 1));
        assert_eq!(i128::MAX.div_rem(&-2).unwrap(), (-(i128::MAX / 2), 1));
        assert_eq!(i128::MIN.div_rem(&i128::MIN).unwrap(), (1, 0));
        assert!(i128::MIN.div_rem(&-1).is_err());
    }

    #[test]
    fn sympoly_coeff_roundtrip() {
        let a = Assumptions::with_default_lower_bound(1);
        let n = SymPoly::symbol("N");
        let p = n.checked_mul(&n).unwrap(); // N²
        assert_eq!(Coeff::sign(&p, &a), Some(Sign::Positive));
        assert_eq!(Coeff::abs(&p, &a), Some(p.clone()));
        let neg = p.checked_neg().unwrap();
        assert_eq!(Coeff::abs(&neg, &a), Some(p.clone()));
        assert_eq!(Coeff::pos_part(&neg, &a), Some(SymPoly::zero()));
        assert_eq!(Coeff::neg_part(&neg, &a).unwrap(), neg);
        // N < N² under N >= 2
        let mut a2 = Assumptions::new();
        a2.set_lower_bound("N", 2);
        assert!(Coeff::lt(&n, &p, &a2).is_true());
        // N vs N+? unknown example: N < M is unknown
        let m = SymPoly::symbol("M");
        assert!(Coeff::lt(&n, &m, &a2).is_unknown());
    }
}
