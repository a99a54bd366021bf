//! Checked `i128` integer kernels.
//!
//! Everything here is exact: operations that could overflow return a
//! [`NumericError`] instead of wrapping.

use crate::error::NumericError;

/// Greatest common divisor of two integers, always non-negative.
///
/// `gcd(0, 0)` is defined as `0`.
///
/// ```
/// assert_eq!(delin_numeric::gcd(12, -18), 6);
/// assert_eq!(delin_numeric::gcd(0, 7), 7);
/// ```
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i128
}

/// Greatest common divisor of a slice, always non-negative; `0` for an empty
/// slice or a slice of zeros.
pub fn gcd_slice(xs: &[i128]) -> i128 {
    xs.iter().fold(0, |g, &x| gcd(g, x))
}

/// Least common multiple, or an error when it does not fit in `i128`.
///
/// `lcm(0, x) = 0`.
pub fn lcm(a: i128, b: i128) -> Result<i128, NumericError> {
    if a == 0 || b == 0 {
        return Ok(0);
    }
    let g = gcd(a, b);
    (a / g).checked_mul(b).map(i128::abs).ok_or_else(|| NumericError::overflow("lcm"))
}

/// Extended Euclid: returns `(g, x, y)` with `g = gcd(a, b) ≥ 0` and
/// `a·x + b·y = g`.
///
/// ```
/// let (g, x, y) = delin_numeric::ext_gcd(240, 46);
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// ```
pub fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    // Invariants: old_r = a*old_s + b*old_t, r = a*s + b*t.
    let (mut old_r, mut r) = (a, b);
    let (mut old_s, mut s) = (1i128, 0i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    if old_r < 0 {
        (-old_r, -old_s, -old_t)
    } else {
        (old_r, old_s, old_t)
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

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6).unwrap(), 12);
        assert_eq!(lcm(0, 9).unwrap(), 0);
        assert_eq!(lcm(-4, 6).unwrap(), 12);
        assert!(lcm(i128::MAX, i128::MAX - 1).is_err());
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
            let (g, x, y) = ext_gcd(a, b);
            prop_assert_eq!(g, gcd(a, b));
            prop_assert_eq!(a * x + b * y, g);
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
