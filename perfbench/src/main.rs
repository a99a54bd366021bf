//! The repository benchmark: two seeded workloads (riceps-large and
//! miss-cold), end-to-end metrics measured with tracing off, and a separate
//! traced run (`--trace 1`) that times each layer from outside by wrapping
//! calls to its public functions. The end-to-end timings are rescaled by a
//! machine-speed reference of the benchmark's own (`calib`), which cancels
//! the VM's speed swings and leaves the program's.
//!
//! ```text
//! perfbench --workload riceps-large|miss-cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run ends with the correctness checks (byte-identical renders
//! against a one-worker reference, byte-identical serve responses against
//! in-process analysis in miss-cold's traced run, and the brute-force
//! soundness oracle) and prints one JSON result object as its last line.
//! See `perfbench/README.md`.

mod batch;
mod calib;
mod gen;
mod oracle;
mod serve;
mod stats;
mod trace;

use delin_vic::batch::{BatchConfig, BatchUnit};
use delin_vic::cache::{KeyMode, VerdictCache};
use std::io::Write as _;
use std::path::{Path, PathBuf};

const USAGE: &str =
    "usage: perfbench --workload riceps-large|miss-cold --seed N --seconds S --trace 0|1 [--out DIR] [--bin-dir DIR]";

/// Engine workers of every batch workload and of the daemon.
pub const WORKERS: usize = 2;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Directory for traces, cache files and spans.
    pub out: PathBuf,
    /// Directory holding the `delin_serve` binary.
    pub bin_dir: PathBuf,
}

/// What a workload run produced.
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: stats::Metrics,
    /// Failed correctness checks, described.
    pub violations: Vec<String>,
    /// Operations attempted (units or requests).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "riceps-large" | "miss-cold" => batch::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    });
    println!("metrics ({}, seed {}, trace {}):", args.workload, args.seed, u8::from(args.trace));
    outcome.metrics.print();
    println!("operations: attempted={} failed={}", outcome.attempted, outcome.failed);
    for v in &outcome.violations {
        println!("CORRECTNESS VIOLATION: {v}");
    }
    let expected: Vec<&str> = if args.trace {
        trace::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        stats::END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    assert_eq!(outcome.metrics.names(), expected, "the harness prints exactly the listed metrics");
    let correct = outcome.violations.is_empty();
    println!("{}", outcome.metrics.result_json(correct, outcome.attempted, outcome.failed));
    if !correct {
        std::process::exit(1);
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    const FLAGS: [&str; 6] = ["--workload", "--seed", "--seconds", "--trace", "--out", "--bin-dir"];
    if !argv.len().is_multiple_of(2) || argv.chunks(2).any(|p| !FLAGS.contains(&p[0].as_str())) {
        return Err("expected `--flag value` pairs".into());
    }
    let get = |flag: &str| argv.chunks(2).find(|p| p[0] == flag).map(|p| p[1].clone());
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    let seed = need(get("--seed"), "--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = need(get("--seconds"), "--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out = PathBuf::from(get("--out").unwrap_or_else(|| "perfbench/out".into()));
    let bin_dir = PathBuf::from(get("--bin-dir").unwrap_or_else(|| ".bench_build/release".into()));
    Ok(Args { workload, seed, seconds, trace, out, bin_dir })
}

/// The batch configuration every workload runs: defaults, two workers.
pub fn batch_config(workers: usize) -> BatchConfig {
    BatchConfig { workers, ..BatchConfig::default() }
}

/// A fresh shared cache as the batch runner builds one.
pub fn fresh_cache() -> VerdictCache {
    let config = BatchConfig::default();
    VerdictCache::shared_with_cap(KeyMode::Fp, config.cache_cap)
}

/// Records `units` as a `corpus::trace` file.
pub fn record(path: &Path, units: &[BatchUnit]) -> Result<(), String> {
    delin_corpus::trace::record(path, units.iter().cloned())
        .map(|_| ())
        .map_err(|e| format!("record trace: {e}"))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints a progress note to stderr (stdout is reserved for the report).
pub fn note(msg: &str) {
    let _ = writeln!(std::io::stderr(), "perfbench: {msg}");
}

/// Runs the soundness oracle on a seeded sample of up to `want` concrete
/// pairs of `units`: each sampled pair's verdict and the unit's emitted
/// edges, re-built by the engine on one worker, are checked against
/// brute-force enumeration. Returns the pairs checked; checking fewer than
/// half of `want` is itself a violation, so the check cannot silently turn
/// empty. When `edges_fp` maps unit names to the measured runs' edge
/// fingerprints, the re-built graph must match them.
pub fn oracle_sample(
    units: &[BatchUnit],
    seed: u64,
    want: usize,
    edges_fp: Option<&std::collections::HashMap<String, u64>>,
    violations: &mut Vec<String>,
) -> usize {
    use delin_vic::cache::CachedOutcome;
    use delin_vic::deps::{build_dependence_graph_in, concretize, pair_problem};
    const CAP: u128 = 200_000;
    let config = batch_config(1);
    let engine = trace::engine_config(&config);
    let mut rng = gen::Rng::new(seed ^ 0x6f72_6163_6c65);
    let mut order: Vec<usize> = (0..units.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range(0, i as i64) as usize);
    }
    let mut checked = 0;
    for &u in &order {
        if checked >= want {
            break;
        }
        let unit = &units[u];
        let Some((program, assumptions)) =
            trace::frontend(&unit.source, &unit.assumptions, &config, |_, f| f())
        else {
            continue;
        };
        let cache = fresh_cache();
        let graph = build_dependence_graph_in(&program, &assumptions, &engine, Some(&cache));
        let measured = edges_fp.and_then(|m| m.get(&unit.name));
        if measured.is_some_and(|&fp| fp != delin_vic::batch::fingerprint_edges(&graph.edges)) {
            violations.push(format!(
                "oracle: {} re-built graph differs from the measured fingerprint",
                unit.name
            ));
        }
        let sites = delin_frontend::collect_accesses(&program, &assumptions);
        for (i, j) in trace::worklist(&sites) {
            if checked >= want {
                break;
            }
            let problem = pair_problem(&sites[i], &sites[j]);
            let Some(concrete) = concretize(&problem) else { continue };
            let Some(ground) = oracle::enumerate(&concrete, CAP) else { continue };
            let reported = cache.lookup(&assumptions, &problem, |_| CachedOutcome {
                verdict: delin_dep::Verdict::Unknown,
                tested_by: "absent",
                attempts: Vec::new(),
                solver_nodes: 0,
                refine_queries: 0,
                subtree_reuses: 0,
                nodes_saved: 0,
                solver_state: None,
                degraded: None,
            });
            checked += 1;
            let checks = [
                (!reported.computed)
                    .then_some(())
                    .ok_or_else(|| "pair missing from the engine's cache".to_string()),
                oracle::check_verdict(&reported.outcome.verdict, &ground),
                oracle::check_edges(&sites[i], &sites[j], &ground, &graph.edges),
            ];
            for e in checks.into_iter().filter_map(Result::err) {
                violations.push(format!("oracle: {} pair ({i}, {j}): {e}", unit.name));
            }
        }
    }
    if checked < want / 2 {
        violations.push(format!("oracle: only {checked} of {want} sampled pairs were checkable"));
    }
    checked
}

#[cfg(test)]
mod tests {
    use delin_vic::json::{self, Json};

    fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = spec.as_obj().and_then(|o| o.get(key)) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| {
                let o = m.as_obj().expect("metric object");
                let field =
                    |f: &str| o.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn an_oracle_sample_with_too_few_checkable_pairs_fails() {
        let mut violations = Vec::new();
        assert_eq!(crate::oracle_sample(&[], 1, 10, None, &mut violations), 0);
        assert_eq!(violations, ["oracle: only 0 of 10 sampled pairs were checkable"]);
    }

    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let e2e = names(&spec, "end_to_end");
        let expected: Vec<(String, String)> =
            crate::stats::END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(e2e, expected);
        let layers = names(&spec, "per_layer");
        let expected: Vec<(String, String)> =
            crate::trace::PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(layers, expected);
        for (name, unit) in e2e.iter().chain(&layers) {
            assert!(crate::stats::valid_name(name), "{name}");
            assert!(crate::stats::valid_unit(unit), "{unit}");
        }
        let workloads = names(&spec, "workloads");
        let workloads: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(workloads, ["riceps-large", "miss-cold"]);
    }
}
