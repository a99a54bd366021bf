//! Synthetic benchmark corpus and workload generators.
//!
//! The paper's only external artifact is the RiCEPS benchmark suite
//! (Fig. 1), which is not publicly available. [`riceps`] generates a
//! *synthetic* mini-FORTRAN stand-in for each of the eight programs,
//! matching the paper's reported size and number of loop nests containing
//! linearized references; [`census`] implements the detector that measures
//! those counts (reproducing Fig. 1 as experiment E1). [`workload`]
//! generates the random linearized dependence problems used by the
//! precision (E8) and scaling (E7) experiments. [`stream`] adapts the
//! RiCEPS programs and three generated nest families (mixed, refinement,
//! pair-dense) into lazy `delin_vic::batch::BatchUnit` streams for the
//! batch engine; the `benchmarks/<suite>` configs compose them. [`trace`]
//! records unit streams as checksummed record files and reads them back;
//! `batch_corpus --record`/`--trace` and perfbench use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod riceps;
pub mod stream;
pub mod trace;
pub mod workload;

pub use census::{census, CensusResult};
pub use riceps::{all_benchmarks, BenchmarkSpec, ExpectedCount};
pub use stream::{dense_units, generated_unit, generated_units, riceps_units};
pub use trace::TraceError;
pub use workload::{linearized_problem, scaling_problem, LinearizedSpec};
