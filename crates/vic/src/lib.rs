//! A VIC-like vectorizer built on delinearization.
//!
//! The paper's algorithm "has been implemented at Moscow State University
//! in a vectorizer named VIC"; this crate reproduces that setting. The
//! pipeline translates serial mini-FORTRAN into vector (FORTRAN-90 style)
//! form:
//!
//! 1. [`deps`] — build the data-dependence graph: for every pair of
//!    references to the same array (or scalar) with at least one write,
//!    construct the Section 2 dependence problem and test it —
//!    delinearization first, with the classical battery as fallback; edges
//!    carry direction vectors and levels and are classified true/anti/
//!    output after the fact, as the paper prescribes;
//! 2. [`scc`] — Tarjan's strongly-connected components over the
//!    level-filtered graph;
//! 3. [`codegen`] — Allen–Kennedy loop distribution: statements not on a
//!    dependence cycle at a level vectorize at that level, cycles are kept
//!    serial and recursed into;
//! 4. [`pipeline`] — the driver: parse → induction substitution →
//!    linearize aliased arrays → analyze → vectorize → print;
//! 5. [`batch`] — the corpus driver: stream many program units through the
//!    pipeline on a bounded worker pool, sharing one verdict cache across
//!    units (optionally bounded via `DELIN_CACHE_CAP` and persisted across
//!    processes via [`persist`]), with a deterministic corpus-level report. The runner is
//!    fault-tolerant: each unit runs under a resource budget ([`delin_dep::budget`])
//!    and behind a panic boundary, so a pathological or crashing unit
//!    degrades to a per-unit failure row instead of taking the batch down;
//! 6. [`chaos`] — a deterministic, seeded fault-injection harness (compiled
//!    out unless the `chaos` cargo feature is on) that proves the above;
//! 7. [`serve`] — analysis as a service: a long-lived jsonl request/response
//!    loop over the batch engine (hand-rolled JSON lives in [`json`]), with
//!    per-request budgets, bounded admission, and cancellation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod cache;
pub mod chaos;
pub mod codegen;
pub mod deps;
pub mod json;
pub mod persist;
pub mod pipeline;
pub mod scc;
pub mod serve;

pub use batch::{
    BatchConfig, BatchJob, BatchRunner, BatchStats, BatchUnit, UnitOutcome, UnitReport,
};
pub use cache::{cache_cap_from_env, env_key, CacheLookup, CachedOutcome, VerdictCache};
pub use chaos::{ChaosCtx, ChaosPlan, FaultKind};
pub use codegen::{vectorize, VectorStmt};
pub use deps::{
    build_dependence_graph, build_dependence_graph_in, build_dependence_graph_with,
    workers_from_env, DepEdge, DepGraph, DepKind, DepStats, EngineConfig, TestChoice, VerdictStats,
};
pub use persist::LoadReport;
pub use pipeline::{run_pipeline, run_pipeline_in, PipelineConfig, PipelineReport};
pub use serve::{serve, ServeConfig, ServeSummary};
