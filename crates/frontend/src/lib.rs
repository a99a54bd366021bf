//! Mini-FORTRAN front end for the delinearization reproduction.
//!
//! The paper's examples — and its survey of where linearized references
//! come from — are all FORTRAN-77 (plus one C pointer loop). This crate
//! implements the front end a vectorizer needs to reproduce them:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — a mini-FORTRAN77 subset: `REAL` /
//!   `INTEGER` array declarations with arbitrary (symbolic) dimension
//!   bounds, `EQUIVALENCE`, labelled and `ENDDO`-delimited `DO` loops,
//!   assignments, `CONTINUE`;
//! * [`affine`] — extraction of affine subscript functions over loop
//!   variables with symbolic loop-invariant coefficients, including loop
//!   normalization (paper Section 2) and rectangular widening of
//!   non-rectangular bounds (footnote 1);
//! * [`access`] — the access sites (array reads/writes with their loop
//!   contexts) that dependence analysis consumes;
//! * [`induction`] — wrap-around induction-variable recognition: the
//!   BOAST `IB = IB + 1` pattern controlled by several loops is replaced
//!   by its closed form `K + J*KK + I*KK*JJ` (paper introduction);
//! * [`linearize`] — array linearization for `EQUIVALENCE`-aliased arrays
//!   of different shape, including the paper's *selective* linearization
//!   (only the dimension prefix that actually differs);
//! * [`delinearize_src`] — the literal source-level delinearization that
//!   rewrites `C(i + 10*j)` back to `C2(i, j)`;
//! * [`cfront`] — the C pointer-loop subset of the paper's Section 1,
//!   lowered onto the same AST by pointer-to-index rewriting;
//! * [`pretty`] — serial FORTRAN-77 and vector (FORTRAN-90 style)
//!   printers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod affine;
pub mod ast;
pub mod cfront;
pub mod delinearize_src;
pub mod induction;
pub mod lexer;
pub mod linearize;
pub mod parser;
pub mod pretty;
#[cfg(test)]
mod testgen;

pub use access::{collect_accesses, AccessKind, AccessSite, LoopContext};
pub use ast::{ArrayDecl, Assign, Expr, Loop, Program, Stmt, StmtId};
pub use parser::{parse_program, ParseError};
