//! Signs and three-valued logic.

use std::fmt;
use std::ops::Neg;

/// The sign of an exact quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// Sign of an `i128`.
    pub fn of(x: i128) -> Sign {
        match x.cmp(&0) {
            std::cmp::Ordering::Less => Sign::Negative,
            std::cmp::Ordering::Equal => Sign::Zero,
            std::cmp::Ordering::Greater => Sign::Positive,
        }
    }

    /// `true` for [`Sign::Zero`].
    pub fn is_zero(self) -> bool {
        self == Sign::Zero
    }
}

impl Neg for Sign {
    type Output = Sign;
    fn neg(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sign::Negative => "-",
            Sign::Zero => "0",
            Sign::Positive => "+",
        };
        f.write_str(s)
    }
}

/// Kleene three-valued truth: the answer to a question that may be
/// undecidable under the current symbolic assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trilean {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Cannot be decided with the available information.
    Unknown,
}

impl Trilean {
    /// Lift a `bool`.
    pub fn from_bool(b: bool) -> Trilean {
        if b {
            Trilean::True
        } else {
            Trilean::False
        }
    }

    /// `true` only when definitely true.
    pub fn is_true(self) -> bool {
        self == Trilean::True
    }

    /// `true` only when definitely false.
    pub fn is_false(self) -> bool {
        self == Trilean::False
    }

    /// `true` when undecided.
    pub fn is_unknown(self) -> bool {
        self == Trilean::Unknown
    }

    /// Kleene conjunction.
    pub fn and(self, other: Trilean) -> Trilean {
        use Trilean::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Trilean) -> Trilean {
        use Trilean::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }
}

/// Kleene negation.
impl std::ops::Not for Trilean {
    type Output = Trilean;
    fn not(self) -> Trilean {
        use Trilean::*;
        match self {
            True => False,
            False => True,
            Unknown => Unknown,
        }
    }
}

impl From<bool> for Trilean {
    fn from(b: bool) -> Trilean {
        Trilean::from_bool(b)
    }
}

impl fmt::Display for Trilean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Trilean::True => "true",
            Trilean::False => "false",
            Trilean::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_of() {
        assert_eq!(Sign::of(-3), Sign::Negative);
        assert_eq!(Sign::of(0), Sign::Zero);
        assert_eq!(Sign::of(9), Sign::Positive);
        assert_eq!(-Sign::of(9), Sign::Negative);
        assert!(Sign::of(0).is_zero());
    }

    #[test]
    fn kleene_tables() {
        use Trilean::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(!Unknown, Unknown);
        assert_eq!(!True, False);
        assert_eq!(Trilean::from(true), True);
        assert!(Unknown.is_unknown());
    }

    #[test]
    fn displays() {
        assert_eq!(Sign::Positive.to_string(), "+");
        assert_eq!(Trilean::Unknown.to_string(), "unknown");
    }
}
