//! Exact arithmetic kernels for the delinearization dependence analyzer.
//!
//! This crate provides the numeric substrate shared by every other crate in
//! the workspace:
//!
//! * [`int`] — checked `i128` helpers (gcd, extended gcd, floor division,
//!   exact signs of linear sums) that never silently wrap;
//! * [`sign`] — the [`Sign`] of a quantity and the three-valued logic
//!   [`Trilean`] used when a symbolic comparison cannot be decided;
//! * [`rational`] — exact rationals over `i128`, used by the Banerjee and
//!   Fourier–Motzkin machinery;
//! * [`sym`] and [`sympoly`] — interned symbolic parameters (`N`, `KK`, …)
//!   and multivariate integer polynomials over them, with symbolic gcd,
//!   exact division and remainder;
//! * [`assume`] — lower-bound assumptions on symbols (e.g. `N ≥ 2`) that
//!   drive symbolic sign determination;
//! * [`coeff`] — the [`Coeff`] ring abstraction that lets the
//!   delinearization algorithm run unchanged over concrete `i128`
//!   coefficients and symbolic [`SymPoly`] coefficients;
//! * [`affine`] — affine forms `c0 + Σ ci·vi` over interned variables;
//! * [`interval`] — exact integer interval arithmetic used for bounds
//!   propagation;
//! * [`fp128`] — 128-bit structural fingerprints (two decorrelated FxHash
//!   lanes over one traversal), the allocation-free cache keys of the
//!   dependence engine's interning tables.
//!
//! # Example
//!
//! ```
//! use delin_numeric::{SymPoly, Assumptions, Sign};
//!
//! // N² + N is positive whenever N ≥ 1.
//! let n = SymPoly::symbol("N");
//! let p = (&n * &n) + &n;
//! let mut assume = Assumptions::new();
//! assume.set_lower_bound("N", 1);
//! assert_eq!(p.sign(&assume), Some(Sign::Positive));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod assume;
pub mod coeff;
pub mod error;
pub mod fp128;
pub mod int;
pub mod interval;
pub mod rational;
pub mod sign;
pub mod sym;
pub mod sympoly;

pub use affine::{Affine, VarId};
pub use assume::Assumptions;
pub use coeff::Coeff;
pub use error::NumericError;
pub use int::{ext_gcd, gcd, gcd_slice};
pub use interval::Interval;
pub use rational::Rational;
pub use sign::{Sign, Trilean};
pub use sym::Sym;
pub use sympoly::SymPoly;
