//! The persistent verdict-cache tier: warm starts are invisible, invalid
//! files are harmless, and degraded verdicts never reach disk.
//!
//! The trust chain under test: a cache file is only believed as far as its
//! magic, format version, fingerprint-schema probe, and per-record
//! length/checksum framing allow — the first bad byte stops loading, and a
//! run that loaded nothing is simply a cold run. Soundness-wise the tier
//! may only replay full-fidelity verdicts: budget-degraded outcomes are
//! rejected at memoization, at save, and at load, so a cache file written
//! by a starved run can never poison a well-budgeted one.

use delinearization::corpus::stream::{generated_units, riceps_units};
use delinearization::dep::budget::BudgetSpec;
use delinearization::vic::batch::{BatchConfig, BatchRunner, BatchStats, BatchUnit};
use std::path::{Path, PathBuf};

fn corpus() -> Vec<BatchUnit> {
    riceps_units(Some(300)).chain(generated_units(8, 7)).collect()
}

fn run_with(path: Option<&Path>, budget: BudgetSpec) -> BatchStats {
    let config = BatchConfig {
        workers: 1,
        cache_file: path.map(Path::to_path_buf),
        budget,
        ..BatchConfig::default()
    };
    BatchRunner::new(config).run(corpus())
}

fn temp_cache(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("delin-test-{tag}-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn full_budget() -> BudgetSpec {
    BudgetSpec::nodes_only(1_000_000)
}

#[test]
fn warm_run_is_byte_identical_and_hits_the_tier() {
    let path = temp_cache("warm");
    let cold = run_with(Some(&path), full_budget());
    assert_eq!(cold.persist_error, None);
    assert!(cold.persistent_saved > 0, "cold run persisted nothing");
    assert_eq!(cold.persistent_loaded, 0);

    let warm = run_with(Some(&path), full_budget());
    assert_eq!(warm.persistent_loaded, cold.persistent_saved);
    assert!(warm.persistent_hits > 0, "warm run never hit a disk-seeded entry");
    // Every pair's problem was seeded, so every referencing pair counts as
    // a disk hit — not one hit per pair class.
    assert_eq!(warm.persistent_hits, warm.totals.pairs_tested as u64);
    // The whole point: disk seeding changes where verdicts come from,
    // never what is reported.
    assert_eq!(warm.render(), cold.render());
    let _ = std::fs::remove_file(&path);
}

/// `tests/golden/persist_v3_generated.bin` was written by `BatchRunner`
/// over `generated_units(12, 7)` (four of them symbolic) when monomials
/// were still `BTreeMap`s. Symbolic verdict-cache keys hash their
/// polynomials through `SymPoly::hash_into`, so a monomial representation
/// that fed another byte stream would load the file and then miss on
/// every symbolic pair.
#[test]
fn cache_file_from_an_earlier_monomial_store_still_hits() {
    use delinearization::vic::cache::VerdictCache;
    use delinearization::vic::persist::{load, LoadReport};
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/persist_v3_generated.bin");
    let units: Vec<BatchUnit> = generated_units(12, 7).collect();
    assert!(units.iter().any(|u| u.source.contains("NX")), "the corpus has symbolic units");
    let path = temp_cache("fixture");
    std::fs::copy(&fixture, &path).expect("fixture copies");
    assert_eq!(load(&VerdictCache::shared(), &path), LoadReport { loaded: 22, rejected: 0 });
    let config = BatchConfig {
        workers: 1,
        cache_file: Some(path.clone()),
        budget: full_budget(),
        ..BatchConfig::default()
    };
    let warm = BatchRunner::new(config).run(units.clone());
    assert_eq!(warm.persistent_loaded, 22);
    assert_eq!(warm.persistent_hits, warm.totals.pairs_tested as u64);
    assert_eq!(warm.render(), run_cold(units).render());
    let _ = std::fs::remove_file(&path);
}

fn run_cold(units: Vec<BatchUnit>) -> BatchStats {
    let config = BatchConfig { workers: 1, budget: full_budget(), ..BatchConfig::default() };
    BatchRunner::new(config).run(units)
}

#[test]
fn invalid_cache_files_degrade_to_a_cold_start() {
    let path = temp_cache("invalid");
    let cold = run_with(Some(&path), full_budget());
    let reference = cold.render();
    let bytes = std::fs::read(&path).expect("cache file written");
    assert!(bytes.len() > 32, "file too small to mutate meaningfully");

    // (tag, mutated bytes, must-load-nothing)
    let variants: Vec<(&str, Vec<u8>, bool)> = vec![
        (
            "wrong-magic",
            {
                let mut b = bytes.clone();
                b[0] ^= 0xff;
                b
            },
            true,
        ),
        (
            "wrong-version",
            {
                let mut b = bytes.clone();
                b[8] ^= 0xff;
                b
            },
            true,
        ),
        ("truncated", bytes[..bytes.len() / 2].to_vec(), false),
        (
            "corrupt-payload",
            {
                let mut b = bytes.clone();
                let mid = 28 + (b.len() - 28) / 2;
                b[mid] ^= 0xff;
                b
            },
            false,
        ),
        ("empty", Vec::new(), true),
    ];
    for (tag, mutated, must_load_nothing) in variants {
        std::fs::write(&path, &mutated).expect("write mutated file");
        let got = run_with(Some(&path), full_budget());
        assert!(
            got.persistent_loaded < cold.persistent_saved,
            "{tag}: a damaged file must not load fully"
        );
        if must_load_nothing {
            assert_eq!(got.persistent_loaded, 0, "{tag}: header damage must reject the file");
        }
        // Whatever valid prefix loaded, the report is untouched.
        assert_eq!(got.render(), reference, "{tag}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_is_a_cold_start_not_an_error() {
    let path = temp_cache("missing");
    let stats = run_with(Some(&path), full_budget());
    assert_eq!(stats.persistent_loaded, 0);
    assert_eq!(stats.persist_error, None);
    assert!(stats.persistent_saved > 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn degraded_verdicts_never_survive_a_round_trip() {
    let path = temp_cache("degraded");
    // A starved cold run degrades most exact decisions...
    let starved = run_with(Some(&path), BudgetSpec::nodes_only(0));
    assert!(
        starved.totals.verdict_stats().degraded_pairs > 0,
        "zero-node budget should degrade decisions"
    );
    // ...and its cache file must not carry them: a well-budgeted warm run
    // over the starved file reports exactly what a well-budgeted cold run
    // reports — same verdicts, same (zero) degradation.
    let warm_full = run_with(Some(&path), full_budget());
    let cold_full = run_with(None, full_budget());
    assert_eq!(warm_full.render(), cold_full.render());
    assert_eq!(
        warm_full.totals.verdict_stats().degraded_pairs,
        cold_full.totals.verdict_stats().degraded_pairs
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn persistence_composes_with_a_bounded_cache() {
    let path = temp_cache("bounded");
    let cold = run_with(Some(&path), full_budget());
    let bounded = BatchRunner::new(BatchConfig {
        workers: 1,
        cache_cap: 4,
        cache_file: Some(path.clone()),
        budget: full_budget(),
        ..BatchConfig::default()
    })
    .run(corpus());
    // A tiny capacity evicts most of the loaded entries, but attribution
    // is charged at decide time, so the analysis itself cannot tell.
    assert!(bounded.cache_evictions > 0);
    assert!(bounded.persistent_loaded > 0);
    for (a, b) in bounded.units.iter().zip(&cold.units) {
        assert_eq!(a.stats.verdict_stats(), b.stats.verdict_stats(), "{}", a.name);
        assert_eq!(a.edges_fp, b.edges_fp, "{}", a.name);
    }
    let _ = std::fs::remove_file(&path);
}
