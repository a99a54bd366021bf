//! E1 / Fig. 1: the RiCEPS linearized-reference census.
//!
//! Pass `--full` to generate the corpus at the paper's reported line
//! counts (slower); the default uses size-reduced programs with identical
//! linearized-nest counts.

use delin_vic::deps::{EngineConfig, TestChoice};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    println!("E1 / Figure 1: loop nests containing linearized references (RiCEPS, synthetic)");
    println!();
    print!("{}", delin_bench::render_table(&delin_bench::experiments::fig1_rows(full)));
    if !full {
        println!();
        println!("(size-reduced corpus; run with --full for the reported line counts)");
    }

    // Dependence-engine observability over the same corpus: cache
    // effectiveness, executed attempts per test, and wall-clock cost.
    let lines = if full { None } else { Some(400) };
    let config =
        EngineConfig { choice: TestChoice::DelinearizationFirst, ..EngineConfig::default() };
    let stats = delin_bench::experiments::corpus_engine_stats(lines, &config);
    println!();
    println!("dependence engine over the corpus (cache on):");
    print!("{}", stats.render_summary());
}
