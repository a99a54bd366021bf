//! The batch engine over the full corpus: RiCEPS plus generated workloads
//! streamed through one shared verdict cache, with the corpus-level table.
//!
//! Flags:
//!
//! * `--full` — generate RiCEPS at the paper's reported line counts
//!   (default: size-reduced programs with the same linearized-nest counts);
//! * `--workers N` — total worker budget (default: auto / `DELIN_WORKERS`);
//! * `--units N` — number of generated workload units (default 24);
//! * `--verify` — instead of one run, execute the determinism matrix
//!   (workers ∈ {1, 4, auto} × {forward, reversed} arrival order) and fail
//!   unless every run renders byte-identically; then run the incremental
//!   A/B (same corpus with incremental solving disabled) and fail unless
//!   edges and verdicts are identical, subtrees were actually reused, and
//!   the incremental run spent strictly fewer solver nodes; then run the
//!   warm-start A/B (a cold run that writes the persistent tier, a warm
//!   run that loads it) and fail unless the two reports are byte-identical
//!   and the warm run actually hit disk-seeded entries;
//! * `--cache-file PATH` — persistent verdict cache: seed the shared cache
//!   from `PATH` before the run and rewrite it atomically after, so a
//!   later invocation starts warm. Stale or corrupt files degrade to a
//!   cold start. The `persistent-cache:` summary goes to stderr, keeping
//!   stdout byte-identical between cold and warm runs;
//! * `--cache-cap N` — bound the verdict caches to `N` entries with LRU
//!   eviction (default: `DELIN_CACHE_CAP`, 0 = unbounded);
//! * `--no-incremental` — disable incremental exact solving (the A/B
//!   baseline; equivalent to `DELIN_INCREMENTAL=0`);
//! * `--chaos` — inject deterministic faults (panics, zero-node budgets,
//!   expired deadlines) from the seed in `DELIN_CHAOS_SEED` (default 42).
//!   Requires building with `--features chaos`. Because every injection is
//!   a pure function of `(seed, site)`, `--chaos --verify` must *still*
//!   render byte-identically across worker counts and arrival orders —
//!   the same determinism contract, now including the failures;
//! * `--suite PATH` — replace the hardcoded corpus with a config-driven
//!   suite (`benchmarks/<suite>/config.json`, see `delin_bench::suite`).
//!   Composes with `--verify`: the determinism matrix then runs over the
//!   suite's corpus;
//! * `--sampled` — SimPoint-style sampled run: cluster the suite's units
//!   by structural feature vector (`delin_corpus::sample`), analyze only
//!   the weighted representatives, and print the extrapolated full-corpus
//!   estimate. Defaults to `benchmarks/verify/config.json` when `--suite`
//!   is not given;
//! * `--sampled-check` — `--sampled` plus the measured full corpus: fails
//!   (exit 1) unless the weighted-vs-full verdict-mix error is within the
//!   suite's pinned `tolerance_pct`;
//! * `--trajectory` — `--sampled-check` plus a machine-readable row
//!   appended to the trajectory report (default `BENCH_9.json`; see the
//!   README's Corpus traces & sampling section for the schema). Rows
//!   accumulate across PRs, so the file is the repo's perf history;
//! * `--bench-out PATH` — where `--trajectory` appends its row (so a trial
//!   run never touches the committed history);
//! * `--label S` — the row label `--trajectory` writes (default `dev`).
//!
//! Ctrl-C requests cooperative cancellation through the run's
//! [`CancelToken`]: in-flight dependence decisions degrade to the sound
//! conservative verdict (`DegradeReason::Cancelled`), the partial report
//! still prints, and the process exits with the conventional 130.

use delin_bench::cli::Cli;
use delin_bench::suite::SuiteConfig;
use delin_corpus::sample::{sample_units, WeightedEstimate};
use delin_corpus::stream::{generated_units, riceps_units};
use delin_dep::budget::{BudgetSpec, CancelToken};
use delin_vic::batch::{BatchConfig, BatchRunner, BatchStats, BatchUnit};
use delin_vic::cache::cache_cap_from_env;
use delin_vic::chaos::ChaosPlan;
use delin_vic::deps::VerdictStats;
use delin_vic::json::str_token;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

const GENERATED_SEED: u64 = 20260805;
const DEFAULT_TRAJECTORY_PATH: &str = "BENCH_9.json";
const DEFAULT_SAMPLED_SUITE: &str = "benchmarks/verify/config.json";

const USAGE: &str = "usage: batch_corpus [--full] [--verify] [--chaos] [--no-incremental] \
[--sampled] [--sampled-check] [--trajectory] [--units N] [--workers N] [--cache-cap N] \
[--cache-file PATH] [--bench-out PATH] [--suite PATH] [--label S]";

fn corpus(spec: &RunSpec) -> Vec<BatchUnit> {
    match &spec.suite {
        Some(suite) => suite.units().collect(),
        None => {
            let lines = if spec.full { None } else { Some(400) };
            riceps_units(lines).chain(generated_units(spec.gen_units, GENERATED_SEED)).collect()
        }
    }
}

/// Everything one batch run needs; the `--verify` legs derive their
/// variants from a base spec instead of threading loose arguments.
#[derive(Clone)]
struct RunSpec {
    workers: usize,
    reversed: bool,
    full: bool,
    gen_units: usize,
    suite: Option<SuiteConfig>,
    chaos: Option<ChaosPlan>,
    incremental: bool,
    cache_cap: usize,
    cache_file: Option<PathBuf>,
    cancel: CancelToken,
}

impl RunSpec {
    fn config(&self) -> BatchConfig {
        BatchConfig {
            workers: self.workers,
            chaos: self.chaos,
            incremental: self.incremental,
            cache_cap: self.cache_cap,
            cache_file: self.cache_file.clone(),
            budget: BudgetSpec { cancel: Some(self.cancel.clone()), ..BudgetSpec::default() },
            ..BatchConfig::default()
        }
    }
}

/// One batch run's corpus-level statistics.
fn stats(spec: &RunSpec) -> BatchStats {
    let mut units = corpus(spec);
    if spec.reversed {
        units.reverse();
    }
    BatchRunner::new(spec.config()).run(units)
}

/// One batch run rendered deterministically.
fn run(spec: &RunSpec) -> String {
    stats(spec).render()
}

fn main() {
    let cli = Cli::from_env("batch_corpus", USAGE);
    cli.validate_or_exit(
        &[
            "--full",
            "--verify",
            "--chaos",
            "--no-incremental",
            "--sampled",
            "--sampled-check",
            "--trajectory",
        ],
        &[
            "--units",
            "--workers",
            "--cache-cap",
            "--cache-file",
            "--bench-out",
            "--suite",
            "--label",
        ],
    );
    let full = cli.flag("--full");
    let verify = cli.flag("--verify");
    let trajectory = cli.flag("--trajectory");
    let sampled_check = cli.flag("--sampled-check") || trajectory;
    let sampled = cli.flag("--sampled") || sampled_check;
    let gen_units = cli.count_or_exit("--units").unwrap_or(24);
    let workers = cli.count_or_exit("--workers").unwrap_or_else(delin_vic::deps::workers_from_env);
    let cache_cap = cli.count_or_exit("--cache-cap").unwrap_or_else(cache_cap_from_env);
    let incremental =
        if cli.flag("--no-incremental") { false } else { delin_vic::deps::incremental_from_env() };
    let suite_path = cli.string("--suite").map(PathBuf::from).or_else(|| {
        // Sampled modes are suite-driven by definition; without an explicit
        // suite they measure the fidelity corpus the trajectory gates pin.
        sampled.then(|| PathBuf::from(DEFAULT_SAMPLED_SUITE))
    });
    let suite = suite_path.map(|path| match SuiteConfig::load(&path) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("batch_corpus: {e}");
            std::process::exit(1);
        }
    });
    let chaos = chaos_plan(cli.flag("--chaos"));
    let cancel = install_ctrl_c();
    let spec = RunSpec {
        workers,
        reversed: false,
        full,
        gen_units,
        suite,
        chaos,
        incremental,
        cache_cap,
        cache_file: cli.string("--cache-file").map(PathBuf::from),
        cancel,
    };

    if sampled {
        let label = cli.string("--label").unwrap_or_else(|| "dev".into());
        let out = trajectory.then(|| {
            PathBuf::from(cli.string("--bench-out").unwrap_or(DEFAULT_TRAJECTORY_PATH.into()))
        });
        std::process::exit(run_sampled(&spec, sampled_check, out.as_deref(), &label));
    }

    match &spec.suite {
        Some(suite) => println!(
            "batch engine: suite {} ({} units), shared verdict cache",
            suite.name,
            suite.declared_units()
        ),
        None => {
            println!("batch engine: RiCEPS + {gen_units} generated units, shared verdict cache")
        }
    }
    if spec.chaos.is_some() {
        println!("chaos: deterministic fault injection enabled");
        // Injected panics are caught and attributed by the batch runner;
        // the default hook would spray a backtrace per injection.
        std::panic::set_hook(Box::new(|_| {}));
    }
    println!();

    if verify {
        let reference = run(&spec);
        let mut failures = 0;
        for w in [1usize, 4, 0] {
            for reversed in [false, true] {
                let render = run(&RunSpec { workers: w, reversed, ..spec.clone() });
                let label = format!(
                    "workers={} order={}",
                    if w == 0 { "auto".into() } else { w.to_string() },
                    if reversed { "reversed" } else { "forward" }
                );
                if render == reference {
                    println!("OK   {label}");
                } else {
                    println!("FAIL {label}: render differs from reference");
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!("{failures} determinism violation(s)");
            std::process::exit(1);
        }
        if let Err(msg) = verify_incremental_ab(&spec) {
            eprintln!("FAIL incremental A/B: {msg}");
            std::process::exit(1);
        }
        if let Err(msg) = verify_persistence_ab(&spec) {
            eprintln!("FAIL warm-start A/B: {msg}");
            std::process::exit(1);
        }
        println!();
        println!("all runs byte-identical; reference report:");
        println!();
        print!("{reference}");
        finish(&spec.cancel);
    }

    let stats = stats(&spec);
    print!("{}", stats.render());
    report_persistence(&spec, &stats);
    finish(&spec.cancel);
}

/// The `--cache-file` summary. Deliberately on stderr: stdout must stay
/// byte-identical between a cold and a warm run (the determinism contract),
/// while these counters are exactly what differs between them.
fn report_persistence(spec: &RunSpec, stats: &BatchStats) {
    if spec.cache_file.is_none() {
        return;
    }
    eprintln!(
        "persistent-cache: loaded={} hits={} saved={}",
        stats.persistent_loaded, stats.persistent_hits, stats.persistent_saved
    );
    if let Some(e) = &stats.persist_error {
        eprintln!("persistent-cache: flush failed: {e}");
    }
}

/// Exits, reporting cancellation: a run interrupted by ctrl-C still printed
/// a *sound* report (remaining pairs degraded conservatively), but it is
/// partial, and the exit code says so.
fn finish(cancel: &CancelToken) -> ! {
    if cancel.is_cancelled() {
        eprintln!();
        eprintln!(
            "interrupted: remaining dependence decisions degraded to the \
             conservative verdict; the report above is sound but partial"
        );
        std::process::exit(130);
    }
    std::process::exit(0);
}

/// A nest whose rows overlap (`A(i + 5*j)` with `i` in `0..=7`), so
/// delinearization cannot separate them and its direction walk needs the
/// exact solver. The generated units decide without search, and under
/// `--chaos` every RiCEPS unit fails, so the incremental A/B leg decides
/// [`OVERLAPPING_COPIES`] copies of this unit beside the corpus to keep
/// solver work to compare when injected faults degrade some of them.
const OVERLAPPING_UNIT: &str =
    "REAL A(0:99)\nDO 1 j = 0, 3\nDO 1 i = 0, 7\n1   A(i + 5*j) = A(i + 5*j + 2)\nEND\n";
const OVERLAPPING_COPIES: usize = 8;

/// The incremental A/B leg of `--verify`: the same corpus (plus the
/// [`OVERLAPPING_UNIT`] copies) with incremental solving on and off must
/// produce identical units, edges, and verdicts, while the incremental run
/// actually reuses subtrees and spends strictly fewer exact-solver nodes.
fn verify_incremental_ab(spec: &RunSpec) -> Result<(), String> {
    let run = |incremental| {
        let mut units = corpus(spec);
        units.extend(
            (0..OVERLAPPING_COPIES)
                .map(|k| BatchUnit::new(format!("ab/overlapping-{k}"), OVERLAPPING_UNIT)),
        );
        BatchRunner::new(RunSpec { incremental, ..spec.clone() }.config()).run(units)
    };
    let (on, off) = (run(true), run(false));
    if on.units.len() != off.units.len() {
        return Err(format!("unit counts differ: {} vs {}", on.units.len(), off.units.len()));
    }
    for (a, b) in on.units.iter().zip(&off.units) {
        let va = a.stats.verdict_stats();
        let vb = b.stats.verdict_stats();
        if a.name != b.name
            || a.edges != b.edges
            || a.edges_fp != b.edges_fp
            || a.vectorized_statements != b.vectorized_statements
            || va.pairs_tested != vb.pairs_tested
            || va.proven_independent != vb.proven_independent
            || va.conservative_pairs != vb.conservative_pairs
            || va.decided_by != vb.decided_by
        {
            return Err(format!("unit {} differs between incremental on/off", a.name));
        }
    }
    let on_t = on.totals.verdict_stats();
    let off_t = off.totals.verdict_stats();
    if on_t.subtree_reuses == 0 {
        return Err("incremental run reused no subtrees".into());
    }
    if on_t.solver_nodes >= off_t.solver_nodes {
        return Err(format!(
            "incremental run must spend strictly fewer solver nodes ({} vs {})",
            on_t.solver_nodes, off_t.solver_nodes
        ));
    }
    println!(
        "OK   incremental A/B: edges/verdicts identical, {} subtree reuses, \
         nodes {} -> {} ({} saved)",
        on_t.subtree_reuses, off_t.solver_nodes, on_t.solver_nodes, on_t.nodes_saved
    );
    Ok(())
}

/// The warm-start A/B leg of `--verify`: a cold run writes the persistent
/// verdict cache, a warm run of the same corpus loads it. Because cache
/// attribution is charged at decide time (never read back from live cache
/// state), disk-seeded entries may change only *where* a verdict comes
/// from, never what is reported — so the two renders must be byte-identical
/// while the warm run demonstrably hits the persistent tier.
fn verify_persistence_ab(spec: &RunSpec) -> Result<(), String> {
    let path = std::env::temp_dir().join(format!("delin-verify-cache-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ab = RunSpec { cache_file: Some(path.clone()), ..spec.clone() };
    let cold = stats(&ab);
    let warm = stats(&ab);
    let verdict = (|| {
        if let Some(e) = &cold.persist_error {
            return Err(format!("cold run failed to flush: {e}"));
        }
        if cold.persistent_saved == 0 {
            return Err("cold run persisted no entries".into());
        }
        if warm.persistent_loaded == 0 {
            return Err("warm run loaded no entries".into());
        }
        if warm.persistent_hits == 0 {
            return Err("warm run never hit a disk-seeded entry".into());
        }
        if cold.render() != warm.render() {
            return Err("warm report differs from cold report".into());
        }
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    verdict?;
    println!(
        "OK   warm-start A/B: reports byte-identical, {} persisted, {} loaded, {} disk hits",
        cold.persistent_saved, warm.persistent_loaded, warm.persistent_hits
    );
    Ok(())
}

/// Resolves the fault-injection plan for this invocation. Without `--chaos`
/// the environment gate applies as everywhere else (`DELIN_CHAOS_SEED`,
/// feature-gated); with `--chaos` a plan is mandatory, so the flag is a
/// hard error in builds that compiled chaos out.
fn chaos_plan(requested: bool) -> Option<ChaosPlan> {
    if !requested {
        return ChaosPlan::from_env();
    }
    #[cfg(feature = "chaos")]
    {
        let seed =
            std::env::var("DELIN_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
        Some(ChaosPlan::new(seed))
    }
    #[cfg(not(feature = "chaos"))]
    {
        eprintln!("--chaos requires a build with the fault-injection harness compiled in:");
        eprintln!("    cargo run --features chaos --bin batch_corpus -- --chaos");
        std::process::exit(2);
    }
}

// ---------------------------------------------------------------------------
// Ctrl-C → cooperative cancellation.
//
// The analysis libraries forbid unsafe code; the one `unsafe` block the
// corpus binary needs — registering a C signal handler — lives here in the
// binary crate root. The handler only performs async-signal-safe work: an
// atomic load out of an already-initialized `OnceLock` and an atomic store
// through the `CancelToken`. No allocation, no locking, no I/O.

const SIGINT: i32 = 2;

static CANCEL: OnceLock<CancelToken> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    if let Some(token) = CANCEL.get() {
        token.cancel();
    }
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
}

/// Installs the SIGINT handler once and returns the process-wide token it
/// trips. Every run spec threads the token into its [`BudgetSpec`], so a
/// ctrl-C drains in-flight analysis by degrading the remaining decisions.
fn install_ctrl_c() -> CancelToken {
    let token = CANCEL.get_or_init(CancelToken::new).clone();
    // SAFETY: `on_sigint` matches the C `void (*)(int)` handler signature
    // and performs only async-signal-safe operations (see above).
    unsafe {
        signal(SIGINT, on_sigint);
    }
    token
}

// ---------------------------------------------------------------------------
// `--sampled` / `--sampled-check` / `--trajectory`: the SimPoint-style
// weighted subset over a config-driven suite.

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".into()
    }
}

/// One timed leg of a sampled run.
struct TimedRun {
    stats: BatchStats,
    wall_nanos: u128,
}

fn timed_run(spec: &RunSpec, units: Vec<BatchUnit>) -> TimedRun {
    let started = Instant::now();
    let stats = BatchRunner::new(spec.config()).run(units);
    TimedRun { stats, wall_nanos: started.elapsed().as_nanos() }
}

/// Runs the weighted representative subset of the suite's corpus,
/// extrapolates the full-corpus verdict mix, and — in check mode — measures
/// the full corpus and holds the estimate to the suite's pinned tolerance.
/// With `trajectory_out`, appends the machine-readable row.
fn run_sampled(spec: &RunSpec, check: bool, trajectory_out: Option<&Path>, label: &str) -> i32 {
    let suite = spec.suite.as_ref().expect("sampled modes always carry a suite");
    let units: Vec<BatchUnit> = suite.units().collect();
    let plan = sample_units(&units, &suite.sample);
    let reps: Vec<BatchUnit> =
        plan.representatives.iter().map(|r| units[r.index].clone()).collect();
    println!(
        "sampled run: suite {} — {} units -> {} representatives ({:.1}% of corpus, \
         clusters={}, seed={})",
        suite.name,
        plan.total_units,
        plan.representatives.len(),
        plan.sampled_fraction() * 100.0,
        suite.sample.clusters,
        suite.sample.seed
    );
    let sampled = timed_run(spec, reps);
    if spec.cancel.is_cancelled() {
        eprintln!("interrupted: sampled run aborted");
        return 130;
    }
    let rep_stats: Vec<VerdictStats> = plan
        .representatives
        .iter()
        .map(|r| {
            sampled
                .stats
                .units
                .iter()
                .find(|u| u.name == units[r.index].name)
                .expect("every representative gets a report")
                .stats
                .verdict_stats()
        })
        .collect();
    let est = WeightedEstimate::from_stats(&plan, &rep_stats);
    println!(
        "  estimated: pairs={:.0} independent={:.0} conservative={:.0} solver-nodes={:.0}",
        est.pairs_tested, est.proven_independent, est.conservative_pairs, est.solver_nodes
    );
    let mix: Vec<String> = est.decided_by.iter().map(|(k, v)| format!("{k}={v:.0}")).collect();
    println!("  estimated decided-by: {}", mix.join(" "));
    println!(
        "  sampled wall: {:.1} ms ({} pairs analyzed)",
        sampled.wall_nanos as f64 / 1.0e6,
        sampled.stats.totals.verdict_stats().pairs_tested
    );
    if !check {
        return 0;
    }

    let full = timed_run(spec, units);
    if spec.cancel.is_cancelled() {
        eprintln!("interrupted: sampled-check aborted");
        return 130;
    }
    let full_totals = full.stats.totals.verdict_stats();
    let error_pct = est.mix_error_pct(&full_totals);
    let within = error_pct <= suite.tolerance_pct;
    println!(
        "  measured:  pairs={} independent={} conservative={} solver-nodes={}",
        full_totals.pairs_tested,
        full_totals.proven_independent,
        full_totals.conservative_pairs,
        full_totals.solver_nodes
    );
    println!(
        "  full wall: {:.1} ms ({:.1}x the sampled run)",
        full.wall_nanos as f64 / 1.0e6,
        full.wall_nanos as f64 / sampled.wall_nanos.max(1) as f64
    );
    println!(
        "{} sampled-check: weighted-vs-full verdict-mix error {error_pct:.2}% \
         (tolerance {:.0}%)",
        if within { "OK  " } else { "FAIL" },
        suite.tolerance_pct
    );
    if let Some(out) = trajectory_out {
        let row = render_trajectory_row(
            spec, suite, label, &plan, &est, &sampled, &full, error_pct, within,
        );
        match append_trajectory_row(out, &row) {
            Ok(rows) => println!("trajectory: {} now holds {rows} row(s)", out.display()),
            Err(e) => {
                eprintln!("batch_corpus: cannot append trajectory row: {e}");
                return 1;
            }
        }
    }
    i32::from(!within)
}

/// Renders one trajectory row (the element appended to `rows` in the
/// `delin-trajectory` file; schema documented in the README).
#[allow(clippy::too_many_arguments)]
fn render_trajectory_row(
    spec: &RunSpec,
    suite: &SuiteConfig,
    label: &str,
    plan: &delin_corpus::sample::SamplePlan,
    est: &WeightedEstimate,
    sampled: &TimedRun,
    full: &TimedRun,
    error_pct: f64,
    within: bool,
) -> String {
    let full_totals = full.stats.totals.verdict_stats();
    let sampled_totals = sampled.stats.totals.verdict_stats();
    let lookups = full_totals.cache_hits + full_totals.cache_misses;
    let hit_rate_pct =
        if lookups == 0 { 0.0 } else { full_totals.cache_hits as f64 * 100.0 / lookups as f64 };
    let mut out = String::new();
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"label\": {},", str_token(label));
    let _ = writeln!(out, "      \"suite\": {},", str_token(&suite.name));
    let _ = writeln!(out, "      \"units\": {},", plan.total_units);
    let _ = writeln!(out, "      \"sampled_units\": {},", plan.representatives.len());
    let _ = writeln!(out, "      \"workers\": {},", spec.workers);
    let _ = writeln!(out, "      \"full\": {{");
    let _ = writeln!(out, "        \"wall_ms\": {},", json_f64(full.wall_nanos as f64 / 1.0e6));
    let _ = writeln!(out, "        \"dep_test_nanos\": {},", full.stats.totals.test_nanos);
    let _ = writeln!(out, "        \"pairs_tested\": {},", full_totals.pairs_tested);
    let _ = writeln!(out, "        \"proven_independent\": {},", full_totals.proven_independent);
    let _ = writeln!(out, "        \"conservative_pairs\": {},", full_totals.conservative_pairs);
    let _ = writeln!(out, "        \"solver_nodes\": {},", full_totals.solver_nodes);
    let _ = writeln!(out, "        \"cache_hits\": {},", full_totals.cache_hits);
    let _ = writeln!(out, "        \"cache_misses\": {},", full_totals.cache_misses);
    let _ = writeln!(out, "        \"hit_rate_pct\": {}", json_f64(hit_rate_pct));
    let _ = writeln!(out, "      }},");
    let _ = writeln!(out, "      \"sampled\": {{");
    let _ = writeln!(out, "        \"wall_ms\": {},", json_f64(sampled.wall_nanos as f64 / 1.0e6));
    let _ = writeln!(out, "        \"dep_test_nanos\": {},", sampled.stats.totals.test_nanos);
    let _ = writeln!(out, "        \"pairs_analyzed\": {},", sampled_totals.pairs_tested);
    let _ = writeln!(out, "        \"pairs_est\": {},", json_f64(est.pairs_tested));
    let _ = writeln!(out, "        \"independent_est\": {},", json_f64(est.proven_independent));
    let _ = writeln!(out, "        \"solver_nodes_est\": {}", json_f64(est.solver_nodes));
    let _ = writeln!(out, "      }},");
    let _ = writeln!(
        out,
        "      \"speedup\": {},",
        json_f64(full.wall_nanos as f64 / sampled.wall_nanos.max(1) as f64)
    );
    let _ = writeln!(out, "      \"mix_error_pct\": {},", json_f64(error_pct));
    let _ = writeln!(out, "      \"tolerance_pct\": {},", json_f64(suite.tolerance_pct));
    let _ = writeln!(out, "      \"within_tolerance\": {within}");
    let _ = write!(out, "    }}");
    out
}

/// Appends `row` to the `rows` array of the trajectory file at `path`,
/// creating the file when absent. Returns the resulting row count.
///
/// Existing files are validated (strict JSON parse + schema marker) before
/// the textual splice, so a hand-damaged history fails loudly instead of
/// accumulating garbage.
fn append_trajectory_row(path: &Path, row: &str) -> Result<usize, String> {
    let fresh = |row: &str| {
        format!(
            "{{\n  \"schema\": \"delin-trajectory\",\n  \"bench_id\": 9,\n  \"rows\": [\n{row}\n  ]\n}}\n"
        )
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(path, fresh(row)).map_err(|e| format!("{}: {e}", path.display()))?;
            return Ok(1);
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let parsed = delin_vic::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let obj = parsed.as_obj().ok_or_else(|| format!("{}: not a JSON object", path.display()))?;
    let schema = obj.get("schema").and_then(delin_vic::json::Json::as_str).unwrap_or_default();
    if schema != "delin-trajectory" {
        return Err(format!(
            "{}: schema is {schema:?}, expected \"delin-trajectory\" — refusing to append",
            path.display()
        ));
    }
    let rows = match obj.get("rows") {
        Some(delin_vic::json::Json::Arr(rows)) => rows.len(),
        _ => return Err(format!("{}: \"rows\" is not an array", path.display())),
    };
    // The file is machine-written with a fixed layout; splice the new row
    // in front of the closing "  ]".
    let close = text
        .rfind("\n  ]")
        .ok_or_else(|| format!("{}: cannot find the rows terminator", path.display()))?;
    let mut next = String::with_capacity(text.len() + row.len() + 8);
    next.push_str(&text[..close]);
    if rows > 0 {
        next.push(',');
    }
    next.push('\n');
    next.push_str(row);
    next.push_str(&text[close..]);
    std::fs::write(path, next).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(rows + 1)
}
