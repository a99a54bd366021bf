//! Checked `i128` integer kernels.
//!
//! Everything here is exact: operations that could overflow return a
//! [`NumericError`] instead of wrapping.

use crate::error::NumericError;
use std::cmp::Ordering;

/// Greatest common divisor of two integers, always non-negative.
///
/// `gcd(0, 0)` is defined as `0`. The one gcd `i128` cannot hold, `2^127`
/// (of `i128::MIN` with itself or with `0`), comes back as `2^126`: still
/// a common divisor, so a divisibility proof built on it stays sound.
///
/// ```
/// assert_eq!(delin_numeric::gcd(12, -18), 6);
/// assert_eq!(delin_numeric::gcd(0, 7), 7);
/// assert_eq!(delin_numeric::gcd(i128::MIN, 0), 1 << 126);
/// ```
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i128::try_from(a).unwrap_or(1 << 126)
}

/// Greatest common divisor of a slice, always non-negative; `0` for an empty
/// slice or a slice of zeros.
pub fn gcd_slice(xs: &[i128]) -> i128 {
    xs.iter().fold(0, |g, &x| gcd(g, x))
}

/// Extended Euclid: returns `(g, x, y)` with `g = gcd(a, b) ≥ 0` and
/// `a·x + b·y = g`, or `None` when a step overflows `i128` (only inputs
/// near `i128::MIN` do, such as `(i128::MIN, -1)` or `(i128::MIN, 0)`).
///
/// ```
/// let (g, x, y) = delin_numeric::ext_gcd(240, 46).unwrap();
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// ```
pub fn ext_gcd(a: i128, b: i128) -> Option<(i128, i128, i128)> {
    // Invariants: old_r = a*old_s + b*old_t, r = a*s + b*t. The step that
    // zeroes r leaves s and t alone: its coefficients, ±b/g and ∓a/g, are
    // never returned and need not fit.
    let (mut old_r, mut r) = (a, b);
    let (mut old_s, mut s) = (1i128, 0i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let q = old_r.checked_div(r)?;
        (old_r, r) = (r, old_r % r);
        if r == 0 {
            (old_s, old_t) = (s, t);
            break;
        }
        (old_s, s) = (s, old_s.checked_sub(q.checked_mul(s)?)?);
        (old_t, t) = (t, old_t.checked_sub(q.checked_mul(t)?)?);
    }
    if old_r < 0 {
        Some((old_r.checked_neg()?, old_s.checked_neg()?, old_t.checked_neg()?))
    } else {
        Some((old_r, old_s, old_t))
    }
}

/// The sign of `c0 + Σ a·b` over `terms`, computed exactly for any `i128`
/// inputs: each product is formed at 256 bits, and positive and negative
/// terms are summed apart, so no partial sum overflows.
///
/// ```
/// use std::cmp::Ordering;
/// // i128::MAX + 1·1 − 2^127·1 = 0, though the first partial sum overflows.
/// let terms = [(1, 1), (i128::MIN, 1)];
/// assert_eq!(delin_numeric::int::linear_sign(i128::MAX, terms), Ordering::Equal);
/// ```
pub fn linear_sign(c0: i128, terms: impl IntoIterator<Item = (i128, i128)>) -> Ordering {
    let (mut pos, mut neg) = (Wide::default(), Wide::default());
    for (a, b) in std::iter::once((c0, 1)).chain(terms) {
        let side = if (a < 0) != (b < 0) { &mut neg } else { &mut pos };
        side.add_product(a.unsigned_abs(), b.unsigned_abs());
    }
    pos.cmp(&neg)
}

/// A non-negative integer `top·2^256 + hi·2^128 + lo`: room for the sum of
/// up to `2^64` products of two `u128`s. Fields in significance order, so
/// the derived order is numeric.
#[derive(Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Wide {
    top: u64,
    hi: u128,
    lo: u128,
}

impl Wide {
    /// Adds `a·b`, formed from four 64-bit partial products.
    fn add_product(&mut self, a: u128, b: u128) {
        const LOW: u128 = u64::MAX as u128;
        let (a1, a0, b1, b0) = (a >> 64, a & LOW, b >> 64, b & LOW);
        let (p00, p01, p10, p11) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
        let mid = (p00 >> 64) + (p01 & LOW) + (p10 & LOW);
        let lo = (p00 & LOW) | (mid << 64);
        let hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
        let (lo, carry) = self.lo.overflowing_add(lo);
        let (hi, c1) = self.hi.overflowing_add(hi);
        let (hi, c2) = hi.overflowing_add(u128::from(carry));
        self.lo = lo;
        self.hi = hi;
        self.top += u64::from(c1) + u64::from(c2);
    }
}

/// Checked addition.
pub fn add(a: i128, b: i128) -> Result<i128, NumericError> {
    a.checked_add(b).ok_or_else(|| NumericError::overflow("add"))
}

/// Checked subtraction.
pub fn sub(a: i128, b: i128) -> Result<i128, NumericError> {
    a.checked_sub(b).ok_or_else(|| NumericError::overflow("sub"))
}

/// Checked multiplication.
pub fn mul(a: i128, b: i128) -> Result<i128, NumericError> {
    a.checked_mul(b).ok_or_else(|| NumericError::overflow("mul"))
}

/// Floor division: rounds towards negative infinity.
///
/// # Errors
///
/// Returns [`NumericError::DivisionByZero`] when `b == 0`, and an overflow
/// error for `(i128::MIN, -1)`, whose quotient does not fit.
///
/// ```
/// assert_eq!(delin_numeric::int::floor_div(7, 2).unwrap(), 3);
/// assert_eq!(delin_numeric::int::floor_div(-7, 2).unwrap(), -4);
/// ```
pub fn floor_div(a: i128, b: i128) -> Result<i128, NumericError> {
    if b == 0 {
        return Err(NumericError::DivisionByZero);
    }
    let q = a.checked_div(b).ok_or_else(|| NumericError::overflow("floor_div"))?;
    let r = a % b;
    Ok(if r != 0 && (r < 0) != (b < 0) { q - 1 } else { q })
}

/// Ceiling division: rounds towards positive infinity.
///
/// # Errors
///
/// Returns [`NumericError::DivisionByZero`] when `b == 0`, and an overflow
/// error for `(i128::MIN, -1)`, whose quotient does not fit.
pub fn ceil_div(a: i128, b: i128) -> Result<i128, NumericError> {
    if b == 0 {
        return Err(NumericError::DivisionByZero);
    }
    let q = a.checked_div(b).ok_or_else(|| NumericError::overflow("ceil_div"))?;
    let r = a % b;
    Ok(if r != 0 && (r < 0) == (b < 0) { q + 1 } else { q })
}

/// Euclidean remainder in `[0, |b|)`.
///
/// # Errors
///
/// Returns [`NumericError::DivisionByZero`] when `b == 0`.
pub fn mod_floor(a: i128, b: i128) -> Result<i128, NumericError> {
    if b == 0 {
        return Err(NumericError::DivisionByZero);
    }
    Ok(a.rem_euclid(b))
}

/// The positive part `c⁺ = max(c, 0)` used by the Banerjee bounds and the
/// delinearization theorem.
pub fn pos_part(c: i128) -> i128 {
    c.max(0)
}

/// The negative part `c⁻ = min(c, 0)` used by the Banerjee bounds and the
/// delinearization theorem. Note this is the paper's convention: `c⁻` is the
/// (non-positive) value itself, not its magnitude.
pub fn neg_part(c: i128) -> i128 {
    c.min(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, -5), 5);
        assert_eq!(gcd(-4, -6), 2);
        assert_eq!(gcd(100, 10), 10);
        assert_eq!(gcd_slice(&[100, 10, 1]), 1);
        assert_eq!(gcd_slice(&[100, 10]), 10);
        assert_eq!(gcd_slice(&[]), 0);
    }

    /// The gcd of `i128::MIN` with `0` or itself is `2^127`, which has no
    /// `i128` form: it comes back as the common divisor `2^126`, never as a
    /// negative number.
    #[test]
    fn gcd_at_i128_min_is_non_negative() {
        assert_eq!(gcd(i128::MIN, 0), 1 << 126);
        assert_eq!(gcd(0, i128::MIN), 1 << 126);
        assert_eq!(gcd(i128::MIN, i128::MIN), 1 << 126);
        assert_eq!(gcd(i128::MIN, 6), 2);
        assert_eq!(gcd(i128::MIN, 1 << 100), 1 << 100);
        assert_eq!(gcd_slice(&[i128::MIN, 0, i128::MIN]), 1 << 126);
    }

    /// Extended Euclid reports the overflow of its steps instead of
    /// panicking: `i128::MIN / −1` in the first quotient, and the negation
    /// of a final remainder of `i128::MIN`.
    #[test]
    fn ext_gcd_overflow_at_i128_min() {
        assert_eq!(ext_gcd(i128::MIN, -1), None);
        assert_eq!(ext_gcd(i128::MIN, i128::MIN), None);
        assert_eq!(ext_gcd(i128::MIN, 0), None);
        let (g, x, y) = ext_gcd(i128::MIN, 3).expect("gcd 1 fits");
        assert_eq!(g, 1);
        assert_eq!(linear_sign(-1, [(i128::MIN, x), (3, y)]), Ordering::Equal);
    }

    /// Sums whose partial sums or products pass `i128` keep their exact sign.
    #[test]
    fn linear_sign_past_i128() {
        let (min, max) = (i128::MIN, i128::MAX);
        assert_eq!(linear_sign(max, [(1, 1), (min, 1)]), Ordering::Equal);
        assert_eq!(linear_sign(1, [(max, 1), (min, 1)]), Ordering::Equal);
        assert_eq!(linear_sign(max, [(1, 2), (min, 1)]), Ordering::Greater);
        assert_eq!(linear_sign(0, [(max, max), (min, max), (1, max)]), Ordering::Equal);
        assert_eq!(linear_sign(0, [(min, min), (min, min), (min, max)]), Ordering::Greater);
        assert_eq!(
            linear_sign(-1, [(max, max), (max, max), (max, max), (max, max)]),
            Ordering::Greater
        );
        let many = std::iter::repeat_n((min, max), 9).chain(std::iter::repeat_n((max, max), 9));
        assert_eq!(linear_sign(0, many), Ordering::Less);
        assert_eq!(linear_sign(0, []), Ordering::Equal);
        assert_eq!(linear_sign(min, []), Ordering::Less);
    }

    #[test]
    fn floor_ceil_div() {
        assert_eq!(floor_div(7, 2).unwrap(), 3);
        assert_eq!(floor_div(-7, 2).unwrap(), -4);
        assert_eq!(floor_div(7, -2).unwrap(), -4);
        assert_eq!(ceil_div(7, 2).unwrap(), 4);
        assert_eq!(ceil_div(-7, 2).unwrap(), -3);
        assert!(floor_div(1, 0).is_err());
        assert!(ceil_div(1, 0).is_err());
        assert!(mod_floor(1, 0).is_err());
    }

    /// `i128::MIN / -1` does not fit: both divisions report the overflow
    /// instead of panicking, and their neighbours still divide exactly.
    #[test]
    fn floor_ceil_div_overflow_at_min_over_minus_one() {
        assert_eq!(floor_div(i128::MIN, -1), Err(NumericError::overflow("floor_div")));
        assert_eq!(ceil_div(i128::MIN, -1), Err(NumericError::overflow("ceil_div")));
        assert_eq!(floor_div(i128::MIN + 1, -1), Ok(i128::MAX));
        assert_eq!(ceil_div(i128::MIN + 1, -1), Ok(i128::MAX));
        assert_eq!(floor_div(i128::MIN, 1), Ok(i128::MIN));
        assert_eq!(ceil_div(i128::MIN, 2), Ok(i128::MIN / 2));
        assert_eq!(floor_div(i128::MIN, -2), Ok(1i128 << 126));
    }

    #[test]
    fn parts() {
        assert_eq!(pos_part(5), 5);
        assert_eq!(pos_part(-5), 0);
        assert_eq!(neg_part(5), 0);
        assert_eq!(neg_part(-5), -5);
    }

    proptest! {
        #[test]
        fn ext_gcd_is_bezout(a in -1_000_000i128..1_000_000, b in -1_000_000i128..1_000_000) {
            let (g, x, y) = ext_gcd(a, b).expect("small inputs never overflow");
            prop_assert_eq!(g, gcd(a, b));
            prop_assert_eq!(a * x + b * y, g);
        }

        /// Where the plain sum fits, the exact sign is its sign.
        #[test]
        fn linear_sign_matches_the_plain_sum(
            c0 in -(1i128 << 100)..(1i128 << 100),
            terms in prop::collection::vec(
                (-(1i128 << 62)..(1i128 << 62), -(1i128 << 62)..(1i128 << 62)),
                0..5,
            ),
        ) {
            let sum = terms.iter().fold(c0, |acc, (a, b)| acc + a * b);
            prop_assert_eq!(linear_sign(c0, terms), sum.cmp(&0));
        }

        /// Full-width products cancel exactly: `a·b − a·b` leaves the sign
        /// of what is added to it.
        #[test]
        fn linear_sign_cancels_full_width_products(
            a in (i128::MIN + 1)..i128::MAX,
            b in (i128::MIN + 1)..i128::MAX,
            c in -3i128..=3,
        ) {
            prop_assert_eq!(linear_sign(c, [(a, b), (-a, b)]), c.cmp(&0));
            prop_assert_eq!(linear_sign(0, [(a, b), (a, -b), (c, b)]), (c * b.signum()).cmp(&0));
        }

        #[test]
        fn gcd_divides_both(a in -1_000_000i128..1_000_000, b in -1_000_000i128..1_000_000) {
            let g = gcd(a, b);
            if g != 0 {
                prop_assert_eq!(a % g, 0);
                prop_assert_eq!(b % g, 0);
            } else {
                prop_assert_eq!(a, 0);
                prop_assert_eq!(b, 0);
            }
        }

        #[test]
        fn floor_div_matches_definition(a in -10_000i128..10_000, b in -100i128..100) {
            prop_assume!(b != 0);
            let q = floor_div(a, b).unwrap();
            // Floor division: the remainder has the divisor's sign and is
            // smaller in magnitude (equivalently q = floor(a/b) exactly).
            let r = a - q * b;
            prop_assert!(r.abs() < b.abs());
            prop_assert!(r == 0 || (r > 0) == (b > 0));
        }

        #[test]
        fn ceil_floor_duality(a in -10_000i128..10_000, b in -100i128..100) {
            prop_assume!(b != 0);
            prop_assert_eq!(ceil_div(a, b).unwrap(), -floor_div(-a, b).unwrap());
        }

        #[test]
        fn mod_floor_in_range(a in -10_000i128..10_000, b in -100i128..100) {
            prop_assume!(b != 0);
            let r = mod_floor(a, b).unwrap();
            prop_assert!(r >= 0 && r < b.abs());
            prop_assert_eq!((a - r) % b, 0);
        }
    }
}
