//! Replaying a recorded trace is indistinguishable from running the live
//! generators: the batch report renders byte-identically, across worker
//! counts and arrival orders.
//!
//! This is the property that makes traces trustworthy as benchmark
//! artifacts — a BENCH row measured over a trace file and one measured
//! over freshly generated units are measurements of the *same* workload.
//! The corpus is the checked-in CI suite (`benchmarks/ci/config.json`), so
//! this test also pins that the suite loader and the generators agree.

use delin_bench::suite::SuiteConfig;
use delinearization::corpus::trace;
use delinearization::vic::batch::{BatchConfig, BatchRunner, BatchUnit};
use std::path::{Path, PathBuf};

fn ci_suite() -> SuiteConfig {
    SuiteConfig::load(Path::new("benchmarks/ci/config.json")).expect("checked-in suite loads")
}

fn render(units: Vec<BatchUnit>, workers: usize) -> String {
    BatchRunner::new(BatchConfig { workers, ..BatchConfig::default() }).run(units).render()
}

#[test]
fn trace_replay_matches_the_live_generator_for_all_schedules() {
    let suite = ci_suite();
    let path: PathBuf =
        std::env::temp_dir().join(format!("delin-replay-equiv-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    trace::record(&path, suite.units()).unwrap();

    let reference = render(suite.units().collect(), 1);
    assert!(reference.contains("corpus:"), "report must be the standard corpus render");

    // Workers 1, 4, and auto; forward and reversed arrival order. Every
    // cell of the replay matrix must render byte-identically to the serial
    // live reference. (The live generator's own worker/order determinism
    // is pinned separately by `tests/batch_determinism.rs` — equivalence
    // to the serial live render is the property that is new here.)
    for workers in [1usize, 4, 0] {
        for reversed in [false, true] {
            let mut replayed = trace::read_all(&path).unwrap();
            if reversed {
                replayed.reverse();
            }
            assert_eq!(
                render(replayed, workers),
                reference,
                "trace replay diverged at workers={workers} reversed={reversed}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
