//! Golden pin of the full batch report over the RiCEPS corpus.
//!
//! The batch engine's determinism contract says the rendered report is a
//! pure function of the unit set and the (env-independent) configuration —
//! so the whole render can be checked in and diffed. Any intentional change
//! to verdicts, counters, or report formatting shows up as a reviewable
//! diff of `tests/golden/riceps_batch_report.txt`; regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_report
//! ```

use delinearization::corpus::stream::riceps_units;
use delinearization::dep::budget::BudgetSpec;
use delinearization::numeric::Assumptions;
use delinearization::vic::batch::{BatchConfig, BatchRunner, BatchUnit, RetryPolicy};
use delinearization::vic::cache::KeyMode;
use delinearization::vic::codegen::VectorStmt;
use delinearization::vic::deps::{EngineConfig, TestChoice};
use delinearization::vic::pipeline::{run_pipeline_in, PipelineConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GOLDEN_PATH: &str = "tests/golden/riceps_batch_report.txt";

/// The pinned run: every knob explicit so no environment variable
/// (`DELIN_WORKERS`, `DELIN_CACHE_CAP`, `DELIN_DEADLINE_MS`,
/// `DELIN_CHAOS_SEED`) can leak into the golden bytes. This is the
/// `batch_corpus` default corpus shape (size-reduced RiCEPS) minus the
/// generated units, serial.
fn pinned_report() -> String {
    let units: Vec<BatchUnit> = riceps_units(Some(400)).collect();
    let config = BatchConfig {
        choice: TestChoice::DelinearizationFirst,
        workers: 1,
        shared_cache: true,
        cache: true,
        keying: KeyMode::Fp,
        incremental: true,
        arena: true,
        induction: true,
        linearize: true,
        infer_loop_assumptions: true,
        cache_cap: 0,
        cache_file: None,
        budget: BudgetSpec::nodes_only(1_000_000),
        retry: RetryPolicy::default(),
        chaos: None,
    };
    BatchRunner::new(config).run(units).render()
}

#[test]
fn riceps_batch_report_matches_golden() {
    let report = pinned_report();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &report).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN_PATH} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test golden_report"));
    if report != golden {
        for (i, (got, want)) in report.lines().zip(golden.lines()).enumerate() {
            if got != want {
                panic!(
                    "batch report diverges from golden at line {}:\n  got:  {got}\n  want: {want}\n\
                     regenerate with UPDATE_GOLDEN=1 cargo test --test golden_report",
                    i + 1
                );
            }
        }
        panic!(
            "batch report length diverges from golden ({} vs {} bytes); \
             regenerate with UPDATE_GOLDEN=1 cargo test --test golden_report",
            report.len(),
            golden.len()
        );
    }
}

/// The pinned artifact must actually exercise the incremental solver: the
/// corpus totals carry the refinement counters, and at least one unit row
/// reports saved nodes.
#[test]
fn golden_report_exercises_incremental_counters() {
    let report = pinned_report();
    assert!(
        report.contains("incremental: refines="),
        "pinned report lost the incremental totals line:\n{report}"
    );
    assert!(report.contains(" saved="), "no unit row reports subtree reuse:\n{report}");
}

const VECTOR_GOLDEN_PATH: &str = "tests/golden/vector_code.txt";

/// A small seeded program: one perfect nest of 1–3 loops around 2–4
/// statements over three shared arrays, every subscript its loop variable
/// shifted by −1, 0 or +1. Such bodies form multi-statement cycles, which
/// the RiCEPS corpus lacks, and recurrences carried at inner levels.
fn seeded_program(seed: u64) -> String {
    const VARS: [&str; 3] = ["i", "j", "k"];
    let mut rng = SmallRng::seed_from_u64(seed);
    let depth = rng.gen_range(1..=3);
    let vars = &VARS[..depth];
    let reference = |rng: &mut SmallRng| {
        let array = ["A", "B", "C"][rng.gen_range(0..3)];
        let subscripts: Vec<String> = vars
            .iter()
            .map(|v| match rng.gen_range(0..3) {
                0 => format!("{v} - 1"),
                1 => v.to_string(),
                _ => format!("{v} + 1"),
            })
            .collect();
        format!("{array}({})", subscripts.join(", "))
    };
    let dims = vec!["0:10"; depth].join(", ");
    let mut src = format!("REAL A({dims}), B({dims}), C({dims})\n");
    for v in vars {
        src += &format!("DO {v} = 1, 9\n");
    }
    for _ in 0..rng.gen_range(2..=4) {
        let lhs = reference(&mut rng);
        let rhs: Vec<String> = (0..rng.gen_range(1..=2)).map(|_| reference(&mut rng)).collect();
        src += &format!("{lhs} = {}\n", rhs.join(" + "));
    }
    src += &"ENDDO\n".repeat(depth);
    src + "END\n"
}

/// Walks a code tree; returns (serial loops with two or more statements
/// in their body, serial loops directly inside another serial loop).
fn serial_shapes(code: &[VectorStmt]) -> (usize, usize) {
    let mut shapes = (0, 0);
    for s in code {
        if let VectorStmt::Serial { body, .. } = s {
            let statements = body.iter().filter(|b| matches!(b, VectorStmt::Statement { .. }));
            shapes.0 += usize::from(statements.count() >= 2);
            shapes.1 += usize::from(body.iter().any(|b| matches!(b, VectorStmt::Serial { .. })));
            let inner = serial_shapes(body);
            shapes.0 += inner.0;
            shapes.1 += inner.1;
        }
    }
    shapes
}

/// Pins the rendered vector code of the RiCEPS corpus at the E9 size and
/// of 64 seeded small programs. The batch golden above pins only the
/// `vectorized=` counts, so a reordered statement or loop would pass it;
/// this golden pins every byte of `PipelineReport::vector_code`.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_report`.
#[test]
fn vector_code_matches_golden() {
    let config = PipelineConfig {
        engine: EngineConfig {
            choice: TestChoice::DelinearizationFirst,
            workers: 1,
            cache: true,
            keying: KeyMode::Fp,
            incremental: true,
            cache_cap: 0,
            arena: true,
            budget: BudgetSpec::nodes_only(1_000_000),
            chaos: None,
        },
        induction: true,
        linearize: true,
        assumptions: Assumptions::new(),
        infer_loop_assumptions: true,
    };
    let mut inputs: Vec<BatchUnit> = riceps_units(Some(200)).collect();
    inputs.extend((0..64).map(|s| BatchUnit::new(format!("seeded/{s:02}"), seeded_program(s))));
    let mut golden = String::new();
    let mut seeded_shapes = (0, 0);
    for unit in &inputs {
        let config = PipelineConfig { assumptions: unit.assumptions.clone(), ..config.clone() };
        let report = run_pipeline_in(&unit.source, &config, None)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", unit.name));
        if unit.name.starts_with("seeded/") {
            let shapes = serial_shapes(&report.vectorization.code);
            seeded_shapes.0 += shapes.0;
            seeded_shapes.1 += shapes.1;
        }
        golden += &format!("== {} ==\n{}", unit.name, report.vector_code);
    }
    assert!(
        seeded_shapes.0 > 0 && seeded_shapes.1 > 0,
        "seeded programs lost their multi-statement serial bodies or nested serial loops: \
         {seeded_shapes:?}"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(VECTOR_GOLDEN_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &golden).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {VECTOR_GOLDEN_PATH} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    for (i, (got, want)) in golden.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "vector code diverges from golden at line {}", i + 1);
    }
    assert_eq!(golden.len(), want.len(), "vector code length diverges from golden");
}
