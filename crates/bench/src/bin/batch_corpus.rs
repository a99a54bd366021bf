//! The corpus driver: the batch engine over a corpus (RiCEPS plus generated
//! workloads, a suite config, or a recorded trace) streamed through one
//! shared verdict cache, with the corpus-level table. It checks the
//! engine's contracts (determinism, persistence, cancellation, fault
//! isolation) and measures nothing: wall-clock numbers come from perfbench
//! (`BENCHMARK.json`), the repository's one benchmark.
//!
//! Flags:
//!
//! * `--full` — generate RiCEPS at the paper's reported line counts
//!   (default: size-reduced programs with the same linearized-nest counts);
//! * `--workers N` — total worker budget (default: auto / `DELIN_WORKERS`);
//! * `--units N` — number of generated workload units (default 24);
//! * `--verify` — instead of one run, execute the determinism matrix
//!   (workers ∈ {1, 4, auto} × {forward, reversed} arrival order) and fail
//!   unless every run renders byte-identically; then run the warm-start
//!   A/B (a cold run that writes the persistent tier, a warm
//!   run that loads it) and fail unless the two reports are byte-identical
//!   and the warm run actually hit disk-seeded entries;
//! * `--cache-file PATH` — persistent verdict cache: seed the shared cache
//!   from `PATH` before the run and rewrite it atomically after, so a
//!   later invocation starts warm. Stale or corrupt files degrade to a
//!   cold start. The `persistent-cache:` summary goes to stderr, keeping
//!   stdout byte-identical between cold and warm runs;
//! * `--cache-cap N` — bound the verdict caches to `N` entries with LRU
//!   eviction (default: `DELIN_CACHE_CAP`, 0 = unbounded);
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
//! * `--trace PATH` — replace the hardcoded corpus with a recorded trace
//!   (`delin_corpus::trace`), read whole before any unit is analyzed: a
//!   truncated, corrupt or malformed trace fails with the structured error
//!   naming its first bad record and exit 1, and nothing is analyzed.
//!   Composes with `--verify`, `--cache-file` and `--chaos` like `--suite`,
//!   and excludes it (both together exit 2);
//! * `--record PATH` — write the selected corpus (hardcoded, `--suite` or
//!   `--trace`) to `PATH` as a trace and exit 0 without analyzing it; the
//!   analysis flags have no effect. Recording the same corpus twice
//!   writes the same bytes.
//!
//! Ctrl-C requests cooperative cancellation through the run's
//! [`CancelToken`]: in-flight dependence decisions degrade to the sound
//! conservative verdict (`DegradeReason::Cancelled`), the partial report
//! still prints, and the process exits with the conventional 130.

use delin_bench::cli::{Cli, CliError};
use delin_bench::suite::SuiteConfig;
use delin_corpus::stream::{generated_units, riceps_units};
use delin_corpus::trace;
use delin_dep::budget::{BudgetSpec, CancelToken};
use delin_vic::batch::{BatchConfig, BatchRunner, BatchStats, BatchUnit};
use delin_vic::cache::cache_cap_from_env;
use delin_vic::chaos::ChaosPlan;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const GENERATED_SEED: u64 = 20260805;

const USAGE: &str = "usage: batch_corpus [--full] [--verify] [--chaos] [--units N] \
[--workers N] [--cache-cap N] [--cache-file PATH] [--suite PATH | --trace PATH] [--record PATH]";

/// Everything one batch run needs; the `--verify` legs derive their
/// variants from a base spec instead of threading loose arguments.
#[derive(Clone)]
struct RunSpec {
    workers: usize,
    reversed: bool,
    units: Arc<[BatchUnit]>,
    chaos: Option<ChaosPlan>,
    cache_cap: usize,
    cache_file: Option<PathBuf>,
    cancel: CancelToken,
}

impl RunSpec {
    fn config(&self) -> BatchConfig {
        BatchConfig {
            workers: self.workers,
            chaos: self.chaos,
            cache_cap: self.cache_cap,
            cache_file: self.cache_file.clone(),
            budget: BudgetSpec { cancel: Some(self.cancel.clone()), ..BudgetSpec::default() },
            ..BatchConfig::default()
        }
    }
}

/// One batch run's corpus-level statistics.
fn stats(spec: &RunSpec) -> BatchStats {
    let mut units = spec.units.to_vec();
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
        &["--full", "--verify", "--chaos"],
        &["--units", "--workers", "--cache-cap", "--cache-file", "--suite", "--trace", "--record"],
    );
    let verify = cli.flag("--verify");
    let gen_units = cli.count_or_exit("--units").unwrap_or(24);
    let workers = cli.count_or_exit("--workers").unwrap_or_else(delin_vic::batch::workers_from_env);
    let cache_cap = cli.count_or_exit("--cache-cap").unwrap_or_else(cache_cap_from_env);
    let (units, label): (Vec<BatchUnit>, String) =
        match (cli.string("--suite"), cli.string("--trace")) {
            (Some(_), Some(_)) => cli.exit_usage(&CliError {
                message: "--suite and --trace are mutually exclusive".into(),
            }),
            (Some(path), None) => {
                let suite = SuiteConfig::load(Path::new(&path)).unwrap_or_else(|e| fail(&e));
                let label = format!("suite {} ({} units)", suite.name, suite.declared_units());
                (suite.units().collect(), label)
            }
            (None, Some(path)) => {
                let units = trace::read_all(Path::new(&path))
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
                let label = format!("trace {path} ({} units)", units.len());
                (units, label)
            }
            (None, None) => {
                let lines = if cli.flag("--full") { None } else { Some(400) };
                let units = riceps_units(lines).chain(generated_units(gen_units, GENERATED_SEED));
                (units.collect(), format!("RiCEPS + {gen_units} generated units"))
            }
        };
    if let Some(out) = cli.string("--record") {
        match trace::record(Path::new(&out), units) {
            Ok(written) => {
                let bytes = std::fs::metadata(&out).map_or(0, |m| m.len());
                println!("recorded {written} units ({bytes} bytes) from {label} to {out}");
                std::process::exit(0);
            }
            Err(e) => fail(&format!("cannot record {out}: {e}")),
        }
    }
    let chaos = chaos_plan(cli.flag("--chaos"));
    let cancel = install_ctrl_c();
    let spec = RunSpec {
        workers,
        reversed: false,
        units: units.into(),
        chaos,
        cache_cap,
        cache_file: cli.string("--cache-file").map(PathBuf::from),
        cancel,
    };

    println!("batch engine: {label}, shared verdict cache");
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

/// Reports a corpus that cannot be loaded or recorded and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("batch_corpus: {msg}");
    std::process::exit(1);
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
