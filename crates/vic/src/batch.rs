//! The batch engine: many program units through one pipeline.
//!
//! The ROADMAP's scaling step beyond PR 1's single-unit engine: a
//! [`BatchRunner`] streams [`BatchUnit`]s from any iterator (so corpora
//! larger than memory can be processed one unit at a time), drives them
//! through [`crate::pipeline::run_pipeline_in`] on a bounded pool of unit
//! workers, and shares **one** canonicalizing [`VerdictCache`] across all
//! units, so a subscript shape solved in one unit is a cache hit in every
//! other unit that repeats it (cross-unit memoization).
//!
//! # Worker budgeting
//!
//! [`BatchConfig::workers`] is the thread budget, spent at one level: that
//! many units are in flight at once, and each tests its dependence pairs
//! on its own worker thread, one after another — units are the only unit
//! of parallelism. Every worker count, `1` included, runs the same pool
//! loop.
//!
//! # Determinism contract
//!
//! For any worker count and any unit arrival order, the per-unit edges
//! (counts and fingerprints), the per-unit [`DepStats::verdict_stats`], and
//! the corpus totals in [`BatchStats`] are byte-identical under
//! [`BatchStats::render`]:
//!
//! * verdicts are pure functions of the canonical cache key
//!   ([`crate::cache`]), so *which* unit populates a shared entry first
//!   cannot change any verdict;
//! * per-unit cache hit/miss and charged-work counters attribute each
//!   canonical problem to its first reference **in that unit's source-pair
//!   order** (see [`DepStats::attempts_by`]), making them equal to a
//!   private-cache run of the same unit — sharing changes who executes,
//!   never what a unit reports;
//! * unit reports are collected into a name-sorted table, so scheduling
//!   cannot leak into the rendered output.
//!
//! Only the corpus-level sharing counters ([`BatchStats::distinct_problems`],
//! [`BatchStats::cross_unit_hits`]) and wall-clock nanos depend on whether
//! the shared cache is enabled — and the former two are themselves
//! deterministic for a given unit *set*, because the set of distinct
//! canonical keys is order-independent.
//!
//! # Fault tolerance
//!
//! One pathological unit must not take the batch down. Three mechanisms,
//! designed to compose:
//!
//! * **resource budgets** — every unit runs its dependence analysis under
//!   [`BatchConfig::budget`] (node limit, optional `DELIN_DEADLINE_MS`
//!   deadline, optional cancellation). Exhaustion degrades individual pair
//!   verdicts to the conservative `Unknown` (recorded per
//!   [`delin_dep::budget::DegradeReason`] in [`DepStats::degraded_by`] and
//!   surfaced in the unit's report row) instead of running away;
//! * **panic isolation** — each unit attempt runs behind
//!   [`std::panic::catch_unwind`]. A panicking unit (a dependence test
//!   that panics unwinds to the unit boundary) yields
//!   [`UnitOutcome::Failed`] with the panic message, and
//!   the thread-local solver node counter is drained so the leak cannot
//!   corrupt the next unit on that worker. The shared stream, sink, and
//!   cache recover from lock poisoning, and the shared cache resets a
//!   mid-compute cell whose owner unwound;
//! * **retry with escalation** — a failed *or budget-degraded* attempt is
//!   retried up to [`RetryPolicy::max_retries`] times, each retry under a
//!   budget multiplied by [`RetryPolicy::escalation`] (saturating, so the
//!   backoff is bounded). Only the final attempt's report is kept, which
//!   keeps reports deterministic.

use crate::cache::{cache_cap_from_env, KeyMode, VerdictCache};
use crate::chaos::{ChaosCtx, ChaosPlan, FaultKind};
use crate::deps::{DepEdge, DepKind, DepStats, EngineConfig, TestChoice, VerdictStats};
use crate::persist;
use crate::pipeline::{run_pipeline_in, PipelineConfig};
use delin_dep::budget::BudgetSpec;
use delin_dep::dirvec::{Dir, DirVec};
use delin_numeric::Assumptions;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One program unit of a batch: a named mini-FORTRAN source plus the
/// symbolic assumptions it is analyzed under.
#[derive(Debug, Clone)]
pub struct BatchUnit {
    /// Unique display name (unit reports are sorted by it).
    pub name: String,
    /// Mini-FORTRAN source text.
    pub source: String,
    /// Symbolic assumptions for this unit (e.g. `N ≥ 2`). Units with
    /// different assumptions safely share the batch cache: lookups are
    /// keyed per-unit (see [`crate::cache::env_key`]).
    pub assumptions: Assumptions,
}

impl BatchUnit {
    /// A unit with no symbolic assumptions.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> BatchUnit {
        BatchUnit { name: name.into(), source: source.into(), assumptions: Assumptions::new() }
    }

    /// Replaces the unit's assumptions.
    #[must_use]
    pub fn with_assumptions(mut self, assumptions: Assumptions) -> BatchUnit {
        self.assumptions = assumptions;
        self
    }

    /// A stable structural fingerprint over everything that determines the
    /// unit's analysis: name, source, and the full assumption environment.
    /// Equal fingerprints mean a recorded trace replays this unit
    /// byte-identically; the trace layer (`delin_corpus::trace`) and its
    /// differential suites compare streams by this without materializing
    /// both sides.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.name.hash(&mut h);
        self.source.hash(&mut h);
        self.assumptions.default_lower_bound().hash(&mut h);
        for (sym, lb) in self.assumptions.iter() {
            sym.name().hash(&mut h);
            lb.hash(&mut h);
        }
        h.finish()
    }
}

/// One scheduled item of a channel-fed batch: a [`BatchUnit`] plus the
/// per-job controls the serving layer needs. [`BatchRunner::run`] wraps
/// plain units into default jobs; [`BatchRunner::run_jobs`] accepts them
/// directly (for example off an [`std::sync::mpsc::Receiver`], which turns
/// the runner's pull loop into a long-lived work queue).
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The unit to analyze.
    pub unit: BatchUnit,
    /// Per-job resource budget; `None` inherits [`BatchConfig::budget`].
    /// Like the config-level budget it is armed afresh per attempt, so
    /// deadlines are per-unit, never per-batch.
    pub budget: Option<BudgetSpec>,
    /// Collect the full dependence edge list into [`UnitReport::dep_edges`]
    /// (off for plain batch runs, which only need counts + fingerprints).
    pub want_edges: bool,
    /// Opaque tag echoed to the completion sink; the serving layer keys
    /// responses by it. Plain batch runs leave it `0`.
    pub tag: u64,
}

impl From<BatchUnit> for BatchJob {
    fn from(unit: BatchUnit) -> BatchJob {
        BatchJob { unit, budget: None, want_edges: false, tag: 0 }
    }
}

/// Configuration of the batch engine.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Which dependence tests drive the analysis.
    pub choice: TestChoice,
    /// Units in flight at once, each testing its pairs on its own worker
    /// thread; `0` means one per available CPU. The default reads
    /// `DELIN_WORKERS` ([`workers_from_env`]).
    pub workers: usize,
    /// Share one verdict cache across all units (cross-unit memoization).
    pub shared_cache: bool,
    /// With `shared_cache` off, still memoize within each unit.
    pub cache: bool,
    /// No effect (see [`KeyMode`]); kept only because perfbench names it.
    pub keying: KeyMode,
    /// No effect (incremental solving is always on); kept only because perfbench names it.
    pub incremental: bool,
    /// No effect (the miss path always recycles); kept only because perfbench names it.
    pub arena: bool,
    /// Apply induction-variable substitution.
    pub induction: bool,
    /// Linearize `EQUIVALENCE`-aliased arrays first.
    pub linearize: bool,
    /// Derive symbol bounds from loop bounds (loops execute at least once).
    pub infer_loop_assumptions: bool,
    /// Entry capacity of the shared cross-unit cache — and of per-unit
    /// private caches — in entries; `0` = unbounded (the historical
    /// behavior). Bounded caches evict least-recently-used entries;
    /// per-unit rows and corpus totals are byte-identical under any
    /// capacity (only the eviction counter itself, rendered only when a
    /// capacity is set, observes eviction). The default reads
    /// `DELIN_CACHE_CAP`.
    pub cache_cap: usize,
    /// Persistent verdict-cache file (see [`crate::persist`]). When set
    /// (and the shared cache is enabled), the runner seeds the shared cache
    /// from this file before the batch and rewrites it atomically after — a
    /// later run starts warm. Stale, corrupt, truncated or wrong-version
    /// files degrade to a cold start.
    pub cache_file: Option<PathBuf>,
    /// Per-unit resource budget for dependence analysis. Armed afresh for
    /// every unit attempt, so one slow unit cannot consume another's
    /// allowance. The default reads `DELIN_DEADLINE_MS`.
    pub budget: BudgetSpec,
    /// Retry policy for failed or budget-degraded unit attempts.
    pub retry: RetryPolicy,
    /// Deterministic fault-injection plan; compiled out (statically `None`)
    /// without the `chaos` cargo feature.
    pub chaos: Option<ChaosPlan>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            choice: TestChoice::default(),
            workers: workers_from_env(),
            shared_cache: true,
            cache: true,
            keying: KeyMode::Fp,
            incremental: true,
            arena: true,
            induction: true,
            linearize: true,
            infer_loop_assumptions: true,
            cache_cap: cache_cap_from_env(),
            cache_file: None,
            budget: BudgetSpec::default(),
            retry: RetryPolicy::default(),
            chaos: ChaosPlan::from_env(),
        }
    }
}

/// The default worker count: the `DELIN_WORKERS` environment variable when
/// set to a number, else `0` (one worker per available CPU).
///
/// CI runs the whole test suite under `DELIN_WORKERS=1` and
/// `DELIN_WORKERS=4` so that any scheduling-dependence in code using
/// default configurations fails the determinism gate.
pub fn workers_from_env() -> usize {
    std::env::var("DELIN_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// How failed or degraded unit attempts are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first; `0` disables retry.
    pub max_retries: u32,
    /// Budget multiplier applied per retry (node limit and deadline,
    /// saturating — the escalation is bounded by `u64::MAX`, never a
    /// runaway).
    pub escalation: u64,
}

impl Default for RetryPolicy {
    /// One retry under a 4× budget.
    fn default() -> Self {
        RetryPolicy { max_retries: 1, escalation: 4 }
    }
}

/// How processing one unit ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitOutcome {
    /// The unit was analyzed (possibly with budget-degraded pairs — see
    /// [`DepStats::degraded_pairs`]).
    Analyzed,
    /// The unit was rejected by the parser.
    ParseError(String),
    /// Every attempt panicked: the unit is reported failed and the batch
    /// moves on. `reason` is the (deterministic) panic message of the last
    /// attempt; `attempts` counts how many were made.
    Failed {
        /// Panic message of the final attempt.
        reason: String,
        /// Total attempts made (initial try plus retries).
        attempts: u32,
    },
}

/// What the batch engine did with one unit. Everything here is
/// deterministic: scheduling-dependent wall-clock figures live only in
/// [`UnitReport::stats`]' nanos fields, which [`BatchStats::render`] omits.
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// The unit's name.
    pub name: String,
    /// How processing ended.
    pub outcome: UnitOutcome,
    /// Dependence edges emitted.
    pub edges: usize,
    /// Order-sensitive fingerprint of the full edge list (statements,
    /// kinds, direction vectors, levels) — byte-identical edges iff equal.
    pub edges_fp: u64,
    /// Statements the vectorizer emitted in vector form.
    pub vectorized_statements: usize,
    /// Full engine statistics for the unit.
    pub stats: DepStats,
    /// Sorted fingerprints of the canonical problems charged to this unit
    /// (see [`crate::deps::DepGraph::charged_keys`]); the batch unions them
    /// to count corpus-wide distinct problems.
    pub charged_keys: Vec<u64>,
    /// The full dependence edge list, populated only when the job asked for
    /// it ([`BatchJob::want_edges`]); empty for plain [`BatchRunner::run`]
    /// batches, which report only [`UnitReport::edges`]/[`UnitReport::edges_fp`].
    pub dep_edges: Vec<DepEdge>,
}

impl UnitReport {
    /// The deterministic one-line table row for this unit.
    pub fn render_row(&self) -> String {
        match &self.outcome {
            UnitOutcome::ParseError(e) => return format!("{}: PARSE ERROR: {e}", self.name),
            UnitOutcome::Failed { reason, attempts } => {
                return format!("{}: FAILED after {attempts} attempt(s): {reason}", self.name)
            }
            UnitOutcome::Analyzed => {}
        }
        let v = self.stats.verdict_stats();
        // `saved=` appears only when the incremental solver replayed a
        // subtree, and `degraded=` only when something degraded, so
        // reuse-free, clean rows keep the historical byte-identical shape.
        let mut tail = String::new();
        if v.subtree_reuses > 0 {
            tail.push_str(&format!(" saved={}/{}", v.nodes_saved, v.subtree_reuses));
        }
        if v.degraded_pairs > 0 {
            tail.push_str(&format!(" degraded={}", v.degraded_pairs));
        }
        format!(
            "{}: pairs={} independent={} conservative={} cache={}h/{}m nodes={} \
             edges={} fp={:016x} vectorized={}{tail}",
            self.name,
            v.pairs_tested,
            v.proven_independent,
            v.conservative_pairs,
            v.cache_hits,
            v.cache_misses,
            v.solver_nodes,
            self.edges,
            self.edges_fp,
            self.vectorized_statements
        )
    }
}

/// The corpus-level aggregate of a batch run.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Per-unit reports, sorted by unit name (ties broken structurally) so
    /// arrival order cannot leak into the output. Empty when the caller
    /// opted out of collection ([`BatchRunner::run_jobs`] with
    /// `collect_reports = false` — long-lived servers stream reports
    /// through the sink instead of accumulating them here).
    pub units: Vec<UnitReport>,
    /// Units processed. Equal to `units.len()` when reports were collected;
    /// still counts every unit when they were not.
    pub unit_count: usize,
    /// Units that failed to parse.
    pub parse_failures: usize,
    /// Units whose every attempt panicked ([`UnitOutcome::Failed`]).
    pub failed_units: usize,
    /// Times the unit *stream* itself panicked while being pulled. The
    /// puller treats a panicking iterator as exhausted (after recovering
    /// the lock), so a broken stream truncates the batch instead of
    /// wedging it.
    pub stream_failures: usize,
    /// Sum of all unit statistics.
    pub totals: DepStats,
    /// Distinct canonical problems charged across all units (the union of
    /// per-unit [`UnitReport::charged_keys`]); `None` when the shared cache
    /// was disabled. Counting charged keys instead of live cache entries
    /// keeps the figure deterministic even when failed attempts left
    /// partial state behind.
    pub distinct_problems: Option<usize>,
    /// Unit-local first references that were already present in the shared
    /// cache because *another* unit computed them: the work cross-unit
    /// memoization saved. `0` without a shared cache.
    pub cross_unit_hits: usize,
    /// Total vectorized statements across units.
    pub vectorized_statements: usize,
    /// Shared-cache entry capacity in force (`0` = unbounded). Rendered
    /// (with [`BatchStats::cache_evictions`]) only when nonzero, so
    /// unbounded corpora keep the historical render.
    pub cache_capacity: usize,
    /// Entries the shared cache evicted during this run. Deterministic for
    /// a fixed arrival order on one worker; scheduling-dependent otherwise,
    /// which is why it lives outside [`VerdictStats`] and the per-unit rows.
    pub cache_evictions: u64,
    /// Verdicts seeded into the shared cache from [`BatchConfig::cache_file`]
    /// before the run. `0` when no file was given (or it was cold/invalid).
    pub persistent_loaded: usize,
    /// Unit lookups answered by a disk-seeded entry: the work the
    /// persistent tier saved this process. Excluded from [`BatchStats::render`]
    /// so warm and cold runs stay byte-identical.
    pub persistent_hits: u64,
    /// Entries written back to [`BatchConfig::cache_file`] after the run.
    pub persistent_saved: usize,
    /// I/O error from the post-run flush, if any: persistence failures
    /// never fail the batch, they surface here.
    pub persist_error: Option<String>,
}

impl BatchStats {
    /// The scheduling-independent corpus totals.
    pub fn verdict_totals(&self) -> VerdictStats {
        self.totals.verdict_stats()
    }

    /// Renders the deterministic corpus table: per-unit rows (name-sorted)
    /// plus corpus totals. Contains no wall-clock figures, so two runs of
    /// the same unit set render byte-identically for any worker count and
    /// any arrival order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for unit in &self.units {
            let _ = writeln!(out, "{}", unit.render_row());
        }
        let t = self.totals.verdict_stats();
        // Failure/degradation segments appear only when nonzero: clean runs
        // render the historical corpus line byte for byte.
        let mut tail = String::new();
        if self.failed_units > 0 {
            let _ = write!(tail, " failed={}", self.failed_units);
        }
        if self.stream_failures > 0 {
            let _ = write!(tail, " stream-failures={}", self.stream_failures);
        }
        if t.degraded_pairs > 0 {
            let _ = write!(tail, " degraded={}", t.degraded_pairs);
        }
        let _ = writeln!(
            out,
            "corpus: units={} failures={} pairs={} independent={} conservative={} \
             cache={}h/{}m nodes={} vectorized={}{tail}",
            self.unit_count,
            self.parse_failures,
            t.pairs_tested,
            t.proven_independent,
            t.conservative_pairs,
            t.cache_hits,
            t.cache_misses,
            t.solver_nodes,
            self.vectorized_statements
        );
        let decided: Vec<String> =
            t.decided_by.iter().map(|(name, n)| format!("{name}={n}")).collect();
        let _ = writeln!(out, "decided-by: {}", decided.join(" "));
        // Attributes degradation to its budget axis (nodes / deadline /
        // cancelled); absent on clean runs, so those keep the historical
        // render. This is what makes a ctrl-C'd corpus report legible as
        // "partial because cancelled" rather than merely degraded.
        if t.degraded_pairs > 0 {
            let reasons: Vec<String> =
                t.degraded_by.iter().map(|(reason, n)| format!("{reason}={n}")).collect();
            let _ = writeln!(out, "degraded-by: {}", reasons.join(" "));
        }
        // Rendered only when the engine refined at all, so battery-only
        // corpora keep the historical render.
        if t.refine_queries > 0 {
            let _ = writeln!(
                out,
                "incremental: refines={} subtree-reuses={} nodes-saved={}",
                t.refine_queries, t.subtree_reuses, t.nodes_saved
            );
        }
        match self.distinct_problems {
            Some(d) => {
                // The capacity segment appears only when a bound is set:
                // unbounded corpora keep the historical line, and the
                // eviction counter (the one scheduling-sensitive figure)
                // stays out of determinism-checked renders by default.
                let mut cache_tail = String::new();
                if self.cache_capacity > 0 {
                    let _ = write!(
                        cache_tail,
                        " capacity={} evictions={}",
                        self.cache_capacity, self.cache_evictions
                    );
                }
                let _ = writeln!(
                    out,
                    "shared-cache: distinct={} cross-unit-hits={}{cache_tail}",
                    d, self.cross_unit_hits
                );
            }
            None => {
                let _ = writeln!(out, "shared-cache: off");
            }
        }
        out
    }
}

/// Streams program units through the pipeline under a [`BatchConfig`].
#[derive(Debug, Clone)]
pub struct BatchRunner {
    config: BatchConfig,
    /// The per-unit pipeline configuration, built once from `config`; each
    /// unit attempt fills in its assumptions, budget and fault context.
    pipeline: PipelineConfig,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new(BatchConfig::default())
    }
}

impl BatchRunner {
    /// A runner with the given configuration.
    pub fn new(config: BatchConfig) -> BatchRunner {
        let engine = EngineConfig {
            choice: config.choice,
            cache: config.cache,
            cache_cap: config.cache_cap,
            ..EngineConfig::default()
        };
        let pipeline = PipelineConfig {
            engine,
            induction: config.induction,
            linearize: config.linearize,
            assumptions: Assumptions::new(),
            infer_loop_assumptions: config.infer_loop_assumptions,
        };
        BatchRunner { config, pipeline }
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Runs every unit the iterator yields and aggregates the corpus
    /// report. Units are pulled from the iterator one at a time as workers
    /// free up, so the whole corpus never needs to be resident at once.
    ///
    /// Fault tolerance: a panicking unit becomes a [`UnitOutcome::Failed`]
    /// row (after retries), a panicking *stream* is treated as exhausted
    /// (counted in [`BatchStats::stream_failures`]), and the shared
    /// stream/sink/cache locks recover from poisoning — the batch always
    /// completes and always returns a report for every unit it received.
    pub fn run<I>(&self, units: I) -> BatchStats
    where
        I: IntoIterator<Item = BatchUnit>,
        I::IntoIter: Send,
    {
        self.run_jobs(units.into_iter().map(BatchJob::from), true, |_, _| {})
    }

    /// Runs every job the iterator yields, invoking `sink(tag, report)` as
    /// each unit completes. This is the channel-fed entry point: handing it
    /// an [`std::sync::mpsc::Receiver`]'s iterator turns the worker pool
    /// into a long-lived service loop that blocks for work and drains when
    /// the sender side hangs up.
    ///
    /// `collect_reports` controls whether per-unit reports are also
    /// accumulated into [`BatchStats::units`]; servers pass `false` so an
    /// unbounded request stream cannot grow the report table without bound
    /// (corpus totals are still aggregated incrementally).
    ///
    /// The sink runs on the worker that finished the unit, outside all
    /// runner locks, so it may block (e.g. on response back-pressure)
    /// without stalling other workers.
    pub fn run_jobs<I, F>(&self, jobs: I, collect_reports: bool, sink: F) -> BatchStats
    where
        I: IntoIterator<Item = BatchJob>,
        I::IntoIter: Send,
        F: Fn(u64, &UnitReport) + Sync,
    {
        self.run_jobs_in(jobs, None, collect_reports, sink)
    }

    /// [`BatchRunner::run_jobs`] against a caller-owned shared cache.
    ///
    /// When `external` is `Some`, it is used as the shared verdict cache
    /// regardless of [`BatchConfig::shared_cache`], and the persistent tier
    /// ([`BatchConfig::cache_file`]) is **not** loaded or saved here — the
    /// cache outlives this batch, so its owner decides when to persist.
    /// Cache counters in the returned stats ([`BatchStats::cache_evictions`],
    /// [`BatchStats::persistent_hits`]) are deltas over this run.
    pub fn run_jobs_in<I, F>(
        &self,
        jobs: I,
        external: Option<&VerdictCache>,
        collect_reports: bool,
        sink: F,
    ) -> BatchStats
    where
        I: IntoIterator<Item = BatchJob>,
        I::IntoIter: Send,
        F: Fn(u64, &UnitReport) + Sync,
    {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let unit_workers = match self.config.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let owned = (external.is_none() && self.config.shared_cache)
            .then(|| VerdictCache::bounded(self.config.cache_cap));
        let shared = external.or(owned.as_ref());
        // Warm start: seed an owned shared cache from the persistent tier
        // before any unit runs. Invalid files load partially or not at all.
        // External caches are seeded (and flushed) by their owner.
        let mut persistent_loaded = 0;
        if let (Some(cache), Some(path)) = (owned.as_ref(), self.config.cache_file.as_ref()) {
            persistent_loaded = persist::load(cache, path).loaded;
        }
        // Counter snapshots: an owned cache starts at zero, an external one
        // carries history from earlier batches — report this run's share.
        let evictions_before = shared.map_or(0, VerdictCache::evictions);
        let persistent_hits_before = shared.map_or(0, VerdictCache::persistent_hits);
        let stream_panics = AtomicUsize::new(0);

        let stream = Mutex::new(jobs.into_iter());
        let agg = Mutex::new(Aggregate::new(collect_reports));
        std::thread::scope(|scope| {
            for _ in 0..unit_workers {
                scope.spawn(|| loop {
                    // Hold the stream lock only while pulling: units larger
                    // than the lock hold-time stream freely. A
                    // previously-poisoned lock is recovered (the iterator
                    // state is whatever the panicking `next` left behind),
                    // and a panicking pull is treated as end-of-stream for
                    // this worker. A blocking pull (a channel with no job
                    // ready) holds the lock — which is fine: the stream is
                    // the one source of work, so waiting workers would
                    // block either way.
                    let job = {
                        let mut guard = lock_recover(&stream);
                        match catch_unwind(AssertUnwindSafe(|| guard.next())) {
                            Ok(j) => j,
                            Err(_) => {
                                stream_panics.fetch_add(1, Ordering::SeqCst);
                                None
                            }
                        }
                    };
                    let Some(job) = job else { break };
                    let report = self.run_unit(&job, shared);
                    sink(job.tag, &report);
                    lock_recover(&agg).absorb(report);
                });
            }
        });
        let mut agg = agg.into_inner().unwrap_or_else(PoisonError::into_inner);

        // Name-sorted output: arrival order and scheduling cannot leak.
        agg.reports
            .sort_by(|a, b| (&a.name, a.edges_fp, a.edges).cmp(&(&b.name, b.edges_fp, b.edges)));

        let distinct_problems = shared.is_some().then_some(agg.charged.len());
        // Every unit-local miss is a globally distinct problem unless some
        // other unit had already charged it.
        let cross_unit_hits =
            distinct_problems.map_or(0, |d| agg.totals.cache_misses.saturating_sub(d));
        // Flush the persistent tier on the way out (clean or cancelled runs
        // alike — degraded verdicts are never memoized, so the cache holds
        // only sound entries). I/O failure degrades to a reported error.
        let mut persistent_saved = 0;
        let mut persist_error = None;
        if let (Some(cache), Some(path)) = (owned.as_ref(), self.config.cache_file.as_ref()) {
            match persist::save(cache, path) {
                Ok(n) => persistent_saved = n,
                Err(e) => persist_error = Some(format!("{path:?}: {e}")),
            }
        }
        BatchStats {
            units: agg.reports,
            unit_count: agg.count,
            parse_failures: agg.parse_failures,
            failed_units: agg.failed_units,
            stream_failures: stream_panics.into_inner(),
            totals: agg.totals,
            distinct_problems,
            cross_unit_hits,
            vectorized_statements: agg.vectorized_statements,
            cache_capacity: shared.map_or(0, |c| c.capacity()),
            cache_evictions: shared.map_or(0, |c| c.evictions()).saturating_sub(evictions_before),
            persistent_loaded,
            persistent_hits: shared
                .map_or(0, |c| c.persistent_hits())
                .saturating_sub(persistent_hits_before),
            persistent_saved,
            persist_error,
        }
    }

    /// Processes one unit: attempt, catch panics, retry under an escalated
    /// budget, and always return a report. The job's own budget (when set)
    /// replaces the config budget as the base of the escalation ladder, so
    /// per-request allowances are honored exactly when retries are off.
    fn run_unit(&self, job: &BatchJob, shared: Option<&VerdictCache>) -> UnitReport {
        let unit = &job.unit;
        let base_budget = job.budget.as_ref().unwrap_or(&self.config.budget);
        let attempts = self.config.retry.max_retries.saturating_add(1);
        let mut reason = String::new();
        for attempt in 0..attempts {
            let mut budget = if attempt == 0 {
                base_budget.clone()
            } else {
                base_budget.escalated(self.config.retry.escalation.saturating_pow(attempt))
            };
            let chaos =
                self.config.chaos.map(|plan| ChaosCtx { plan, unit: unit.name.clone(), attempt });
            let unit_fault = chaos.as_ref().and_then(ChaosCtx::unit_fault);
            if let Some(fault) = unit_fault {
                if fault != FaultKind::Panic {
                    budget = ChaosCtx::faulted_spec(fault, &budget);
                }
            }
            // A budget-starved attempt must not be rescued by verdicts other
            // units already memoized: whether a key is present depends on
            // arrival order, and a rescue would leak that order into the
            // starved unit's degradation stats. Starved attempts therefore
            // run against a private cache only.
            let attempt_shared =
                if unit_fault.is_some_and(|f| f != FaultKind::Panic) { None } else { shared };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if unit_fault == Some(FaultKind::Panic) {
                    panic!("{}", crate::chaos::CHAOS_PANIC_MSG);
                }
                self.process_unit_attempt(job, attempt_shared, budget, chaos)
            }));
            // Drain the thread-local solver node and refinement counters
            // unconditionally: a panic mid-solve would otherwise leak this
            // attempt's tallies into whatever this worker thread processes
            // next.
            delin_dep::exact::reset_thread_nodes();
            delin_dep::exact::reset_thread_refine();
            match outcome {
                Ok(report) => {
                    // A degraded-but-complete attempt is worth one escalated
                    // retry too: the next budget may afford the full proof.
                    if report.stats.degraded_pairs > 0 && attempt + 1 < attempts {
                        continue;
                    }
                    return report;
                }
                Err(payload) => reason = panic_message(payload),
            }
        }
        UnitReport {
            name: unit.name.clone(),
            outcome: UnitOutcome::Failed { reason, attempts },
            edges: 0,
            edges_fp: 0,
            vectorized_statements: 0,
            stats: DepStats::default(),
            charged_keys: Vec::new(),
            dep_edges: Vec::new(),
        }
    }

    fn process_unit_attempt(
        &self,
        job: &BatchJob,
        shared: Option<&VerdictCache>,
        budget: BudgetSpec,
        chaos: Option<ChaosCtx>,
    ) -> UnitReport {
        let unit = &job.unit;
        let mut config = self.pipeline.clone();
        config.assumptions = unit.assumptions.clone();
        config.engine.budget = budget;
        config.engine.chaos = chaos;
        match run_pipeline_in(&unit.source, &config, shared) {
            Ok(report) => UnitReport {
                name: unit.name.clone(),
                outcome: UnitOutcome::Analyzed,
                edges: report.graph.edges.len(),
                edges_fp: fingerprint_edges(&report.graph.edges),
                vectorized_statements: report.vectorization.vectorized_statements,
                charged_keys: report.graph.charged_keys,
                dep_edges: if job.want_edges { report.graph.edges } else { Vec::new() },
                stats: report.graph.stats,
            },
            Err(e) => UnitReport {
                name: unit.name.clone(),
                outcome: UnitOutcome::ParseError(e.to_string()),
                edges: 0,
                edges_fp: 0,
                vectorized_statements: 0,
                stats: DepStats::default(),
                charged_keys: Vec::new(),
                dep_edges: Vec::new(),
            },
        }
    }
}

/// Incrementally folded corpus totals: what [`BatchStats`] needs beyond the
/// (optional) report table, accumulated per completed unit so a server that
/// never collects reports still gets exact totals.
struct Aggregate {
    reports: Vec<UnitReport>,
    collect: bool,
    count: usize,
    totals: DepStats,
    parse_failures: usize,
    failed_units: usize,
    vectorized_statements: usize,
    charged: HashSet<u64>,
}

impl Aggregate {
    fn new(collect: bool) -> Aggregate {
        Aggregate {
            reports: Vec::new(),
            collect,
            count: 0,
            totals: DepStats::default(),
            parse_failures: 0,
            failed_units: 0,
            vectorized_statements: 0,
            charged: HashSet::new(),
        }
    }

    fn absorb(&mut self, report: UnitReport) {
        self.count += 1;
        self.totals.merge(&report.stats);
        self.parse_failures += usize::from(matches!(report.outcome, UnitOutcome::ParseError(_)));
        self.failed_units += usize::from(matches!(report.outcome, UnitOutcome::Failed { .. }));
        self.vectorized_statements += report.vectorized_statements;
        self.charged.extend(report.charged_keys.iter().copied());
        if self.collect {
            self.reports.push(report);
        }
    }
}

/// Locks a mutex, recovering the guard when a previous holder panicked.
/// The protected values (a unit iterator and a report vector) are only
/// observed between whole operations, so recovery is safe: a poisoned sink
/// holds every fully-pushed report, and a poisoned stream resumes wherever
/// the panicking `next` left off.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a human-readable message from a panic payload. `panic!` with a
/// format string yields `String`, `panic!` with a literal yields `&str`;
/// anything else is reported generically.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// A stable fingerprint of an edge list: hashes every structural field in
/// order, so equal fingerprints mean byte-identical edges in identical
/// order.
///
/// Reports and serve responses pin the value, so the hashed byte stream is
/// fixed: per edge the statements, the kind's `Debug` name, the array, the
/// `Debug` text of the direction vectors (each text `0xff`-terminated, as
/// `str` hashing does), the level and the deciding test. The texts are
/// written without formatting into a [`ChunkedHasher`].
pub fn fingerprint_edges(edges: &[DepEdge]) -> u64 {
    let mut h = ChunkedHasher::new();
    edges.len().hash(&mut h);
    for e in edges {
        e.src.hash(&mut h);
        e.dst.hash(&mut h);
        kind_name(e.kind).hash(&mut h);
        e.array.hash(&mut h);
        push_dir_vecs_debug(&mut h.buf, &e.dir_vecs);
        h.write_u8(0xff);
        e.level.hash(&mut h);
        e.tested_by.hash(&mut h);
        h.flush_full();
    }
    h.finish()
}

/// A [`DefaultHasher`] fed through a buffer: writes append to it, and
/// [`ChunkedHasher::flush_full`] hands a full chunk to SipHash in one
/// call. SipHash is a streaming hash, so the result equals writing the
/// same bytes to a `DefaultHasher` directly.
struct ChunkedHasher {
    buf: Vec<u8>,
    sip: DefaultHasher,
}

impl ChunkedHasher {
    /// Bytes buffered before a flush: a chunk stays in L1 cache.
    const CHUNK: usize = 15 * 1024;

    fn new() -> ChunkedHasher {
        ChunkedHasher { buf: Vec::with_capacity(Self::CHUNK + 1024), sip: DefaultHasher::new() }
    }

    fn flush_full(&mut self) {
        if self.buf.len() >= Self::CHUNK {
            self.sip.write(&self.buf);
            self.buf.clear();
        }
    }
}

impl Hasher for ChunkedHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        let mut sip = self.sip.clone();
        sip.write(&self.buf);
        sip.finish()
    }
}

/// `format!("{kind:?}")` without the `String`.
fn kind_name(kind: DepKind) -> &'static str {
    match kind {
        DepKind::True => "True",
        DepKind::Anti => "Anti",
        DepKind::Output => "Output",
    }
}

/// Appends `format!("{dir_vecs:?}")` to `buf` without formatting.
fn push_dir_vecs_debug(buf: &mut Vec<u8>, dir_vecs: &[DirVec]) {
    buf.push(b'[');
    for (i, dv) in dir_vecs.iter().enumerate() {
        if i > 0 {
            buf.extend_from_slice(b", ");
        }
        buf.extend_from_slice(b"DirVec([");
        for (j, dir) in dv.0.iter().enumerate() {
            if j > 0 {
                buf.extend_from_slice(b", ");
            }
            buf.extend_from_slice(match dir {
                Dir::Lt => b"Lt",
                Dir::Eq => b"Eq",
                Dir::Gt => b"Gt",
                Dir::Le => b"Le",
                Dir::Ge => b"Ge",
                Dir::Ne => b"Ne",
                Dir::Any => b"Any",
            });
        }
        buf.extend_from_slice(b"])");
    }
    buf.push(b']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(name: &str, stride: i128, off: i128) -> BatchUnit {
        BatchUnit::new(
            name,
            format!(
                "REAL C(0:399)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n\
                 1   C(i + {stride}*j) = C(i + {stride}*j + {off})\nEND\n"
            ),
        )
    }

    /// The classic unit's independent statement beside a nest whose rows
    /// overlap (`A(i + 5*j)`, `i` in `0..=7`), so delinearization cannot
    /// separate them and the direction walk needs the exact solver: a
    /// starved node budget degrades that pair.
    fn starvable_unit(name: &str) -> BatchUnit {
        BatchUnit::new(
            name,
            "REAL C(0:399), A(0:99)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n\
             1   C(i + 10*j) = C(i + 10*j + 5)\nDO 2 j = 0, 3\nDO 2 i = 0, 7\n\
             2   A(i + 5*j) = A(i + 5*j + 2)\nEND\n",
        )
    }

    fn units() -> Vec<BatchUnit> {
        vec![
            unit("u0-classic", 10, 5),
            unit("u1-repeat", 10, 5), // same shape as u0: cross-unit hit
            unit("u2-other", 12, 7),
            BatchUnit::new("u3-bad", "DO 1 i = \nEND\n"),
        ]
    }

    #[test]
    fn unit_fingerprint_tracks_every_field() {
        let base = unit("u0", 10, 5);
        assert_eq!(base.fingerprint(), unit("u0", 10, 5).fingerprint());
        assert_ne!(base.fingerprint(), unit("u1", 10, 5).fingerprint());
        assert_ne!(base.fingerprint(), unit("u0", 12, 5).fingerprint());
        let mut assumptions = delin_numeric::Assumptions::new();
        assumptions.set_lower_bound("NX", 2);
        assert_ne!(
            base.fingerprint(),
            unit("u0", 10, 5).with_assumptions(assumptions).fingerprint()
        );
    }

    #[test]
    fn batch_processes_and_sorts_units() {
        let stats = BatchRunner::default().run(units());
        assert_eq!(stats.units.len(), 4);
        assert_eq!(stats.parse_failures, 1);
        let names: Vec<&str> = stats.units.iter().map(|u| u.name.as_str()).collect();
        assert_eq!(names, vec!["u0-classic", "u1-repeat", "u2-other", "u3-bad"]);
        assert!(stats.totals.pairs_tested > 0);
        assert!(stats.vectorized_statements >= 3);
        let render = stats.render();
        assert!(render.contains("corpus: units=4 failures=1"), "{render}");
    }

    #[test]
    fn identical_units_share_cache_entries() {
        let stats = BatchRunner::default().run(units());
        // u1 repeats u0's canonical problems exactly.
        assert!(stats.cross_unit_hits > 0, "{:?}", stats.distinct_problems);
        let d = stats.distinct_problems.expect("shared cache on by default");
        assert!(d > 0);
        assert_eq!(stats.totals.verdict_stats().cache_misses, d + stats.cross_unit_hits);
    }

    #[test]
    fn arrival_order_and_workers_do_not_change_the_render() {
        let base = BatchRunner::default().run(units());
        let mut reversed = units();
        reversed.reverse();
        let rev = BatchRunner::default().run(reversed);
        assert_eq!(base.render(), rev.render());

        for workers in [1, 2, 5] {
            let runner = BatchRunner::new(BatchConfig { workers, ..BatchConfig::default() });
            assert_eq!(runner.run(units()).render(), base.render(), "workers={workers}");
        }
    }

    #[test]
    fn shared_cache_toggle_preserves_unit_reports() {
        let on = BatchRunner::default().run(units());
        let off = BatchRunner::new(BatchConfig { shared_cache: false, ..BatchConfig::default() })
            .run(units());
        assert_eq!(off.distinct_problems, None);
        assert_eq!(off.cross_unit_hits, 0);
        for (a, b) in on.units.iter().zip(&off.units) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.edges_fp, b.edges_fp);
            assert_eq!(a.stats.verdict_stats(), b.stats.verdict_stats());
        }
    }

    /// A panicking unit stream must truncate the batch, not wedge or kill
    /// it: units pulled before the panic are still fully processed and the
    /// failure is counted.
    #[test]
    fn panicking_stream_truncates_batch() {
        for workers in [1, 3] {
            let it = (0..5i128).map(|k| {
                if k == 2 {
                    panic!("stream exploded");
                }
                unit(&format!("s{k}"), 10 + k, 3)
            });
            let stats = BatchRunner::new(BatchConfig { workers, ..BatchConfig::default() }).run(it);
            assert!(stats.stream_failures >= 1, "workers={workers}");
            // The faulted element is lost; serially the whole tail is too
            // (the one puller stops), while parallel pullers may still
            // drain elements after the faulted one.
            assert!(stats.units.len() < 5, "workers={workers}: {:?}", stats.units.len());
            if workers == 1 {
                assert_eq!(stats.units.len(), 2);
            }
            assert!(stats.units.iter().all(|u| u.outcome == UnitOutcome::Analyzed));
            assert!(stats.render().contains("stream-failures="), "{}", stats.render());
        }
    }

    /// A zero-node budget degrades the overlapping nest's direction walk;
    /// the report row and corpus line must say so, and the verdicts must
    /// stay conservative (no independence claimed by delinearization).
    #[test]
    fn budget_degradation_is_reported_per_unit() {
        let config = BatchConfig {
            workers: 1,
            budget: BudgetSpec::nodes_only(0),
            retry: RetryPolicy { max_retries: 0, escalation: 4 },
            ..BatchConfig::default()
        };
        let stats = BatchRunner::new(config).run(vec![starvable_unit("u0-starvable")]);
        let report = &stats.units[0];
        assert_eq!(report.outcome, UnitOutcome::Analyzed);
        assert!(report.stats.degraded_pairs > 0, "{:?}", report.stats);
        assert!(report.render_row().contains(" degraded="), "{}", report.render_row());
        assert!(stats.render().contains(" degraded="), "{}", stats.render());
    }

    /// A cancelled batch still produces a *conservative partial report*:
    /// every unit is analyzed (no failures), every dependence decision
    /// degrades to the sound `Unknown` verdict attributed to cancellation,
    /// and no independence is claimed anywhere. This is what the corpus
    /// binary's ctrl-C handler relies on — it only trips the token.
    #[test]
    fn cancelled_batch_degrades_conservatively() {
        let cancel = delin_dep::budget::CancelToken::new();
        cancel.cancel(); // ctrl-C arrived before (or during) the batch
        let config = BatchConfig {
            workers: 2,
            budget: BudgetSpec { cancel: Some(cancel), ..BudgetSpec::nodes_only(1_000_000) },
            retry: RetryPolicy { max_retries: 1, escalation: 4 },
            ..BatchConfig::default()
        };
        let stats = BatchRunner::new(config).run(units());
        assert_eq!(stats.units.len(), 4);
        assert_eq!(stats.failed_units, 0);
        let totals = stats.totals.verdict_stats();
        // Escalated retries cannot out-budget a cancellation, so every
        // tested pair stays degraded-by-cancellation and conservative.
        assert_eq!(totals.degraded_pairs, totals.pairs_tested, "{totals:?}");
        assert_eq!(
            totals.degraded_by.get(&delin_dep::budget::DegradeReason::Cancelled).copied(),
            Some(totals.pairs_tested),
            "{totals:?}"
        );
        assert_eq!(totals.proven_independent, 0, "{totals:?}");
        let render = stats.render();
        assert!(render.contains("cancelled"), "degradation must be attributed:\n{render}");
    }

    /// An escalated retry turns a first-attempt degradation into a clean
    /// report: node budget 1 is too small for the overlapping nest, but a
    /// large escalation factor succeeds.
    #[test]
    fn degraded_attempts_retry_with_escalated_budget() {
        let config = BatchConfig {
            workers: 1,
            budget: BudgetSpec::nodes_only(1),
            retry: RetryPolicy { max_retries: 1, escalation: 1_000_000 },
            ..BatchConfig::default()
        };
        let stats = BatchRunner::new(config).run(vec![starvable_unit("u0-starvable")]);
        let report = &stats.units[0];
        assert_eq!(report.outcome, UnitOutcome::Analyzed);
        assert_eq!(report.stats.degraded_pairs, 0, "{:?}", report.stats);
        assert!(report.stats.proven_independent >= 1);
        // And without the retry the degradation would have stuck:
        let stuck = BatchRunner::new(BatchConfig {
            workers: 1,
            budget: BudgetSpec::nodes_only(1),
            retry: RetryPolicy { max_retries: 0, escalation: 1 },
            ..BatchConfig::default()
        })
        .run(vec![starvable_unit("u0-starvable")]);
        assert!(stuck.units[0].stats.degraded_pairs > 0);
    }

    /// With injected faults active, the batch still completes, every unit
    /// gets a report, and the render is byte-identical across worker
    /// counts: the fault set is a pure function of the seed, never of
    /// scheduling.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_faulted_batch_is_deterministic_across_workers() {
        // Pick a seed that actually faults at least one of our units.
        let seed = (0..500u64)
            .find(|&s| {
                let plan = ChaosPlan::new(s);
                units().iter().any(|u| plan.unit_fault(&u.name, 0).is_some())
            })
            .expect("some seed in 0..500 must fault a unit");
        let run = |workers: usize| {
            BatchRunner::new(BatchConfig {
                workers,
                chaos: Some(ChaosPlan::new(seed)),
                ..BatchConfig::default()
            })
            .run(units())
        };
        let base = run(1);
        assert_eq!(base.units.len(), 4, "every unit reports, faulted or not");
        for workers in [3, 0] {
            assert_eq!(run(workers).render(), base.render(), "workers={workers}");
        }
    }

    #[test]
    fn streaming_pulls_lazily() {
        // An iterator that counts how far it was consumed; the runner must
        // drain it completely without collecting it up front.
        let produced = std::sync::atomic::AtomicUsize::new(0);
        let it = (0..6i128).map(|k| {
            produced.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            unit(&format!("s{k}"), 10 + k, 3)
        });
        let stats = BatchRunner::new(BatchConfig { workers: 2, ..BatchConfig::default() }).run(it);
        assert_eq!(stats.units.len(), 6);
        assert_eq!(produced.load(std::sync::atomic::Ordering::SeqCst), 6);
    }

    /// The fingerprint as first written, with two `format!` calls per
    /// edge: the reference [`fingerprint_edges`] must agree with.
    fn fingerprint_edges_formatted(edges: &[DepEdge]) -> u64 {
        let mut h = DefaultHasher::new();
        edges.len().hash(&mut h);
        for e in edges {
            e.src.hash(&mut h);
            e.dst.hash(&mut h);
            format!("{:?}", e.kind).hash(&mut h);
            e.array.hash(&mut h);
            format!("{:?}", e.dir_vecs).hash(&mut h);
            e.level.hash(&mut h);
            e.tested_by.hash(&mut h);
        }
        h.finish()
    }

    const DIRS: [Dir; 7] = [Dir::Lt, Dir::Eq, Dir::Gt, Dir::Le, Dir::Ge, Dir::Ne, Dir::Any];
    const KINDS: [DepKind; 3] = [DepKind::True, DepKind::Anti, DepKind::Output];

    /// An edge built from plain indices: `vecs` picks directions from
    /// [`DIRS`], and `level` 0 is loop-independent.
    fn edge(src: u32, dst: u32, kind: usize, vecs: &[Vec<usize>], level: usize) -> DepEdge {
        DepEdge {
            src: delin_frontend::ast::StmtId(src),
            dst: delin_frontend::ast::StmtId(dst),
            kind: KINDS[kind % 3],
            array: ["A", "W", "XY", "COEF"][(src + dst) as usize % 4].into(),
            dir_vecs: vecs
                .iter()
                .map(|v| DirVec(v.iter().map(|&d| DIRS[d % 7]).collect()))
                .collect(),
            level: (level > 0).then_some(level),
            tested_by: ["delinearization", "gcd", "conservative"][kind % 3],
        }
    }

    #[test]
    fn fingerprint_matches_reference_on_corpus_edges() {
        use delin_corpus::stream::{dense_units, generated_units, refinement_units, riceps_units};
        let units =
            riceps_units(Some(200)).chain(generated_units(24, 7)).chain(refinement_units(12, 7));
        let mut edges = 0;
        for unit in units.chain(dense_units(4, 7)) {
            let config = PipelineConfig {
                assumptions: unit.assumptions.clone(),
                ..PipelineConfig::default()
            };
            let graph = run_pipeline_in(&unit.source, &config, None).expect("corpus parses").graph;
            let fp = fingerprint_edges(&graph.edges);
            assert_eq!(fp, fingerprint_edges_formatted(&graph.edges), "{}", unit.name);
            edges += graph.edges.len();
        }
        assert!(edges > 1000, "the corpora emit {edges} edges");
    }

    #[test]
    fn fingerprint_matches_reference_across_chunk_flushes() {
        // Every direction, kind and level shape, with vector lists from
        // empty to four vectors of up to seven directions.
        let edges: Vec<DepEdge> = (0..1000u32)
            .map(|n| {
                let n_us = n as usize;
                let vecs: Vec<Vec<usize>> = (0..n_us % 5)
                    .map(|k| (0..(n_us + k) % 8).map(|d| n_us + k + d).collect())
                    .collect();
                edge(n % 9, n % 5, n_us, &vecs, n_us % 4)
            })
            .collect();
        let text: usize = edges.iter().map(|e| format!("{:?}", e.dir_vecs).len()).sum();
        assert!(text > 3 * ChunkedHasher::CHUNK, "only {text} bytes of vector text");
        for len in 0..=edges.len() {
            let prefix = &edges[..len];
            assert_eq!(
                fingerprint_edges(prefix),
                fingerprint_edges_formatted(prefix),
                "{len} edges"
            );
        }
    }

    mod fingerprint_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fingerprint_matches_reference_on_hand_built_lists(
                parts in prop::collection::vec(
                    (
                        (0u32..6, 0u32..6, 0usize..3, 0usize..4),
                        prop::collection::vec(prop::collection::vec(0usize..7, 0..4), 0..4),
                    ),
                    0..24,
                ),
            ) {
                let edges: Vec<DepEdge> = parts
                    .iter()
                    .map(|&((src, dst, kind, level), ref vecs)| edge(src, dst, kind, vecs, level))
                    .collect();
                prop_assert_eq!(fingerprint_edges(&edges), fingerprint_edges_formatted(&edges));
            }
        }
    }
}
