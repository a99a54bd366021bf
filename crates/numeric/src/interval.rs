//! Exact integer interval arithmetic.
//!
//! Used by the exact dependence solver for bounds propagation, and by the
//! concrete Banerjee machinery to bound the range of `Σ ck·zk` with
//! `zk ∈ [0, Zk]`.

use crate::error::NumericError;
use crate::int;

/// A closed integer interval `[lo, hi]`. Invalid (empty) when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower end.
    pub lo: i128,
    /// Inclusive upper end.
    pub hi: i128,
}

impl Interval {
    /// The singleton interval `[x, x]`.
    pub fn point(x: i128) -> Interval {
        Interval { lo: x, hi: x }
    }

    /// The interval `[lo, hi]`.
    pub fn new(lo: i128, hi: i128) -> Interval {
        Interval { lo, hi }
    }

    /// `true` when the interval contains no integers.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// `true` when `x ∈ [lo, hi]`.
    pub fn contains(&self, x: i128) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `true` when `0 ∈ [lo, hi]`.
    pub fn contains_zero(&self) -> bool {
        self.contains(0)
    }

    /// Number of integers in the interval (zero when empty).
    ///
    /// # Errors
    ///
    /// Returns an overflow error when the width does not fit in `i128`.
    pub fn len(&self) -> Result<i128, NumericError> {
        if self.is_empty() {
            return Ok(0);
        }
        int::add(int::sub(self.hi, self.lo)?, 1)
    }

    /// Interval sum.
    pub fn checked_add(&self, other: &Interval) -> Result<Interval, NumericError> {
        Ok(Interval { lo: int::add(self.lo, other.lo)?, hi: int::add(self.hi, other.hi)? })
    }

    /// Interval difference.
    pub fn checked_sub(&self, other: &Interval) -> Result<Interval, NumericError> {
        Ok(Interval { lo: int::sub(self.lo, other.hi)?, hi: int::sub(self.hi, other.lo)? })
    }

    /// Scales by an integer, flipping ends for negative factors.
    pub fn checked_scale(&self, k: i128) -> Result<Interval, NumericError> {
        let a = int::mul(self.lo, k)?;
        let b = int::mul(self.hi, k)?;
        Ok(Interval { lo: a.min(b), hi: a.max(b) })
    }

    /// Intersection (may be empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.max(other.lo), hi: self.hi.min(other.hi) }
    }

    /// Convex hull.
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// The range of `c·z` for `z ∈ [0, ub]` (the paper's `c⁻·Z ≤ c·z ≤ c⁺·Z`
    /// bound for a single normalized variable).
    ///
    /// # Errors
    ///
    /// Returns an overflow error when products do not fit in `i128`.
    pub fn of_scaled_var(c: i128, ub: i128) -> Result<Interval, NumericError> {
        Interval::new(0, ub).checked_scale(c)
    }

    /// Tightens this interval to multiples of `g` only
    /// (`[⌈lo/g⌉·g, ⌊hi/g⌋·g]`); `g = 0` keeps only `0` if contained.
    pub fn tighten_to_multiples(&self, g: i128) -> Result<Interval, NumericError> {
        if g == 0 {
            return Ok(if self.contains_zero() { Interval::point(0) } else { Interval::new(1, 0) });
        }
        let g = g.abs();
        let lo = int::mul(int::ceil_div(self.lo, g)?, g)?;
        let hi = int::mul(int::floor_div(self.hi, g)?, g)?;
        Ok(Interval { lo, hi })
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basics() {
        let i = Interval::new(-3, 5);
        assert!(!i.is_empty());
        assert!(i.contains(0));
        assert!(i.contains_zero());
        assert!(!i.contains(6));
        assert_eq!(i.len().unwrap(), 9);
        assert!(Interval::new(2, 1).is_empty());
        assert_eq!(Interval::new(2, 1).len().unwrap(), 0);
        assert_eq!(Interval::point(4).to_string(), "[4, 4]");
    }

    #[test]
    fn arithmetic() {
        let a = Interval::new(1, 3);
        let b = Interval::new(-2, 4);
        assert_eq!(a.checked_add(&b).unwrap(), Interval::new(-1, 7));
        assert_eq!(a.checked_sub(&b).unwrap(), Interval::new(-3, 5));
        assert_eq!(a.checked_scale(-2).unwrap(), Interval::new(-6, -2));
        assert_eq!(a.intersect(&b), Interval::new(1, 3));
        assert_eq!(a.hull(&b), Interval::new(-2, 4));
        assert_eq!(Interval::new(2, 1).hull(&a), a);
    }

    #[test]
    fn scaled_var() {
        // 10*j for j in [0,9]: [0,90]; -10*j: [-90,0]
        assert_eq!(Interval::of_scaled_var(10, 9).unwrap(), Interval::new(0, 90));
        assert_eq!(Interval::of_scaled_var(-10, 9).unwrap(), Interval::new(-90, 0));
        assert_eq!(Interval::of_scaled_var(0, 9).unwrap(), Interval::point(0));
    }

    #[test]
    fn tighten() {
        let i = Interval::new(-7, 13);
        assert_eq!(i.tighten_to_multiples(5).unwrap(), Interval::new(-5, 10));
        assert_eq!(i.tighten_to_multiples(-5).unwrap(), Interval::new(-5, 10));
        assert_eq!(i.tighten_to_multiples(0).unwrap(), Interval::point(0));
        assert!(Interval::new(1, 4).tighten_to_multiples(0).unwrap().is_empty());
        // 100*k in [-110,-10] for some k: multiples of 100 => [-100,-100]
        assert_eq!(
            Interval::new(-110, -10).tighten_to_multiples(100).unwrap(),
            Interval::point(-100)
        );
    }

    proptest! {
        #[test]
        fn add_is_exact_hull(alo in -50i128..50, aw in 0i128..20, blo in -50i128..50, bw in 0i128..20,
                             x in 0i128..20, y in 0i128..20) {
            let a = Interval::new(alo, alo + aw);
            let b = Interval::new(blo, blo + bw);
            prop_assume!(x <= aw && y <= bw);
            let s = a.checked_add(&b).unwrap();
            prop_assert!(s.contains((alo + x) + (blo + y)));
        }

        #[test]
        fn tighten_keeps_exactly_multiples(lo in -100i128..100, w in 0i128..50, g in 1i128..10) {
            let i = Interval::new(lo, lo + w);
            let t = i.tighten_to_multiples(g).unwrap();
            for x in lo..=(lo + w) {
                if x % g == 0 {
                    prop_assert!(t.contains(x));
                }
            }
            if !t.is_empty() {
                prop_assert_eq!(t.lo % g, 0);
                prop_assert_eq!(t.hi % g, 0);
                prop_assert!(t.lo >= i.lo && t.hi <= i.hi);
            }
        }
    }
}
