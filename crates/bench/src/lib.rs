//! Experiment harness: the code behind every table and figure of the
//! reproduction (see `DESIGN.md` for the experiment index E1–E9).
//!
//! Each experiment is a plain function returning structured rows that a
//! printing binary in `src/bin/` renders. The corpus binaries additionally
//! share their strict flag parsing ([`cli`]) and their config-driven
//! suites ([`suite`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod suite;
pub mod table;

pub use cli::{Cli, CliError, BAD_USAGE};
pub use suite::{StreamSpec, SuiteConfig};
pub use table::render_table;
