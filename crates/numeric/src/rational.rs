//! Exact rational numbers over `i128`.
//!
//! Used by the Banerjee bounds and the Fourier–Motzkin eliminator, where
//! intermediate bounds are genuinely rational even though the dependence
//! problem itself is integral.

use crate::error::NumericError;
use crate::int::{self, gcd};
use crate::sign::Sign;
use std::cmp::Ordering;
use std::fmt;

/// An exact rational `num/den` with `den > 0`, always kept in lowest terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Builds `num/den` in lowest terms.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DivisionByZero`] when `den == 0`, and an
    /// overflow error when moving the sign to the numerator overflows.
    pub fn new(num: i128, den: i128) -> Result<Rational, NumericError> {
        if den == 0 {
            return Err(NumericError::DivisionByZero);
        }
        // The two fractions whose gcd is 2^127, which `gcd` returns as
        // 2^126 (`0/MIN` and `MIN/MIN`), are zero and one.
        if num == 0 {
            return Ok(Rational::ZERO);
        }
        if num == den {
            return Ok(Rational::ONE);
        }
        let g = gcd(num, den);
        let (num, den) = (num / g, den / g);
        if den < 0 {
            // `1/MIN` and `MIN/−1` have no positive-denominator form.
            let neg = |v: i128| v.checked_neg().ok_or_else(|| NumericError::overflow("neg"));
            return Ok(Rational { num: neg(num)?, den: neg(den)? });
        }
        Ok(Rational { num, den })
    }

    /// Builds an integral rational.
    pub fn from_int(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        Sign::of(self.num)
    }

    /// Largest integer `≤ self`.
    pub fn floor(&self) -> i128 {
        int::floor_div(self.num, self.den).expect("denominator is nonzero")
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(&self) -> i128 {
        int::ceil_div(self.num, self.den).expect("denominator is nonzero")
    }

    /// Checked addition.
    pub fn add(&self, other: &Rational) -> Result<Rational, NumericError> {
        let num = int::add(int::mul(self.num, other.den)?, int::mul(other.num, self.den)?)?;
        Rational::new(num, int::mul(self.den, other.den)?)
    }

    /// Checked subtraction.
    pub fn sub(&self, other: &Rational) -> Result<Rational, NumericError> {
        self.add(&other.neg())
    }

    /// Checked multiplication.
    pub fn mul(&self, other: &Rational) -> Result<Rational, NumericError> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, other.den).max(1);
        let g2 = gcd(other.num, self.den).max(1);
        let num = int::mul(self.num / g1, other.num / g2)?;
        let den = int::mul(self.den / g2, other.den / g1)?;
        Rational::new(num, den)
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DivisionByZero`] when `other` is zero.
    pub fn div(&self, other: &Rational) -> Result<Rational, NumericError> {
        if other.num == 0 {
            return Err(NumericError::DivisionByZero);
        }
        self.mul(&Rational { num: other.den, den: other.num }.normalized())
    }

    /// Negation (never overflows for reduced values except `i128::MIN`,
    /// which cannot appear in a reduced positive-denominator rational built
    /// through checked constructors from in-range data).
    pub fn neg(&self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }

    fn normalized(self) -> Rational {
        Rational::new(self.num, self.den).expect("denominator nonzero")
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // a/b vs c/d with b,d > 0  <=>  a*d vs c*b, exactly: in i128 while
        // the products fit, else wider.
        let lhs = self.num.checked_mul(other.den);
        let rhs = other.num.checked_mul(self.den);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            // The sign of a·d − c·b from 256-bit products; −b fits as b > 0.
            _ => int::linear_sign(0, [(self.num, other.den), (other.num, -self.den)]),
        }
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Rational {
        Rational::from_int(n)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d).unwrap()
    }

    #[test]
    fn construction_reduces() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rational::ZERO);
        assert!(Rational::new(1, 0).is_err());
        // Reduced by 2^127, a gcd `gcd` cannot return.
        assert_eq!(r(0, i128::MIN), Rational::ZERO);
        assert_eq!(r(i128::MIN, i128::MIN), Rational::ONE);
        assert_eq!(r(i128::MIN, 1 << 126), r(-2, 1));
    }

    #[test]
    fn arith() {
        assert_eq!(r(1, 2).add(&r(1, 3)).unwrap(), r(5, 6));
        assert_eq!(r(1, 2).sub(&r(1, 3)).unwrap(), r(1, 6));
        assert_eq!(r(2, 3).mul(&r(3, 4)).unwrap(), r(1, 2));
        assert_eq!(r(2, 3).div(&r(4, 3)).unwrap(), r(1, 2));
        assert!(r(1, 2).div(&Rational::ZERO).is_err());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), 3);
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(-7, 2).floor(), -4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(4, 2).floor(), 2);
        assert_eq!(r(4, 2).ceil(), 2);
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }

    #[test]
    fn ordering_past_i128_products() {
        // Cross products of 2^126 and 3 overflow; the order stays exact.
        let big = 1i128 << 126;
        assert!(r(big - 1, 3) < r(big, 3));
        assert!(r(-big, 3) < r(-big + 1, 3));
        assert_eq!(r(i128::MAX, 3).cmp(&r(i128::MAX, 3)), Ordering::Equal);
        assert!(r(i128::MIN, 1) < r(i128::MAX, 2));
        assert!(r(i128::MAX - 1, i128::MAX) < Rational::ONE);
        // The old fallback cross-multiplied the fractional parts, which
        // overflows here: 1 − 2^−126 against 1 − 1/(2^126 − 1).
        assert!(r(big - 1, big) > r(big - 2, big - 1));
        assert!(Rational::new(1, i128::MIN).is_err());
        assert!(Rational::new(i128::MIN, -1).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(-1, 2).to_string(), "-1/2");
    }

    proptest! {
        #[test]
        fn add_commutes(a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50) {
            let x = r(a, b);
            let y = r(c, d);
            prop_assert_eq!(x.add(&y).unwrap(), y.add(&x).unwrap());
        }

        #[test]
        fn sub_then_add_roundtrips(a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50) {
            let x = r(a, b);
            let y = r(c, d);
            prop_assert_eq!(x.sub(&y).unwrap().add(&y).unwrap(), x);
        }

        #[test]
        fn floor_le_value_le_ceil(a in -10_000i128..10_000, b in 1i128..100) {
            let x = r(a, b);
            prop_assert!(Rational::from_int(x.floor()) <= x);
            prop_assert!(x <= Rational::from_int(x.ceil()));
            prop_assert!(x.ceil() - x.floor() <= 1);
        }

        #[test]
        fn ordering_matches_floats(a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50) {
            let x = r(a, b);
            let y = r(c, d);
            let fx = a as f64 / b as f64;
            let fy = c as f64 / d as f64;
            if (fx - fy).abs() > 1e-9 {
                prop_assert_eq!(x < y, fx < fy);
            }
        }
    }
}
