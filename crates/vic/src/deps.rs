//! Dependence-graph construction for the vectorizer.
//!
//! For every pair of references to the same array (with at least one
//! write), a Section 2 dependence problem is built over the union of both
//! statements' normalized loop variables, tested — delinearization first —
//! and turned into direction-vector-labelled edges. Dependences whose
//! leftmost non-`=` direction is `>` flow backwards and are reversed;
//! loop-independent (all-`=`) dependences follow textual order. Edge kinds
//! (true/anti/output) are assigned *after* testing, as the paper notes.
//!
//! The pair-testing loop is the scalability bottleneck of the whole
//! pipeline. Programs repeat a handful of subscript shapes, so
//! [`build_dependence_graph_in`] first groups the reference-pair worklist
//! into *pair classes*: pairs whose sites have equal shapes (loop names,
//! upper bounds, subscripts) at the same common loop depth build equal
//! problems, so only each class's first pair is built, keyed, probed and
//! decided. Those representatives are sharded across scoped worker threads
//! ([`EngineConfig::workers`]) and decided through the memoizing verdict
//! cache ([`crate::cache`]). Each class then charges its counters once,
//! weighted by its member count, and plans its edges once; every member
//! pair stamps its own statements, kinds and array onto the planned edges
//! in source-pair order, so the emitted edges are identical for any worker
//! count. Chaos-faulted pairs and the members of a class whose
//! representative degraded are tested alone, exactly as an unclassed
//! engine would test them.

use crate::cache::{CacheLookup, CachedOutcome, KeyMode, VerdictCache};
use crate::chaos::{ChaosCtx, FaultKind};
use delin_core::DelinearizationTest;
use delin_dep::acyclic::AcyclicTest;
use delin_dep::banerjee::{BanerjeeTest, DirectionMode};
use delin_dep::budget::{BudgetSpec, DegradeReason, ResourceBudget};
use delin_dep::dirvec::{summarize, Dir, DirVec};
use delin_dep::exact::SubtreeStore;
use delin_dep::gcd::GcdTest;
use delin_dep::hierarchy;
use delin_dep::problem::{DependenceProblem, ProblemArena, ProblemBuilder};
use delin_dep::residue::LoopResidueTest;
use delin_dep::siv::SivTest;
use delin_dep::svpc::SvpcTest;
use delin_dep::verdict::{DependenceTest, Verdict};
use delin_frontend::access::{AccessKind, AccessSite, Subscript};
use delin_frontend::ast::{Program, StmtId};
use delin_numeric::{Assumptions, SymPoly};
use fxhash::FxBuildHasher;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The classification of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write then read (flow).
    True,
    /// Read then write.
    Anti,
    /// Write then write.
    Output,
}

/// One dependence edge of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// Source statement.
    pub src: StmtId,
    /// Sink statement.
    pub dst: StmtId,
    /// Kind (true/anti/output).
    pub kind: DepKind,
    /// The involved array (or scalar), shared with its access sites.
    pub array: Arc<str>,
    /// Direction vectors over the common loops (summarized; all leading
    /// atoms are `<` or `=` after reversal), shared with every edge its
    /// pair class plans alike.
    pub dir_vecs: Arc<[DirVec]>,
    /// Carrying level: 1-based index of the outermost loop that carries the
    /// dependence; `None` for loop-independent edges.
    pub level: Option<usize>,
    /// Which dependence test decided this pair.
    pub tested_by: &'static str,
}

/// Statistics from graph construction.
///
/// Every field except the wall-clock timings is deterministic for a given
/// program/configuration, independent of the worker count — see
/// [`DepStats::verdict_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepStats {
    /// Reference pairs examined.
    pub pairs_tested: usize,
    /// Pairs proven independent.
    pub proven_independent: usize,
    /// Pairs proven independent, per deciding test.
    pub independent_by: BTreeMap<&'static str, usize>,
    /// Pairs that fell back to the conservative all-`*` answer.
    pub conservative_pairs: usize,
    /// Pairs decided by each test (any verdict), cache hits included.
    pub decided_by: BTreeMap<&'static str, usize>,
    /// Test invocations charged to this run, per technique. With caching
    /// enabled each distinct canonical problem is charged exactly once, at
    /// its *first reference in source-pair order* — not at whichever pair's
    /// worker happened to compute it — so the counts are deterministic for
    /// any worker count, and a run against a shared cross-unit cache
    /// reports the same numbers as a run with a private cache (the shared
    /// cache changes who *executes*, never what a unit is charged).
    pub attempts_by: BTreeMap<&'static str, usize>,
    /// Pairs whose canonical problem was already charged to this run (see
    /// [`DepStats::attempts_by`] for the attribution rule).
    pub cache_hits: usize,
    /// Pairs charged as this run's first reference of their canonical
    /// problem.
    pub cache_misses: usize,
    /// Exact-solver search nodes charged across all decisions (same
    /// attribution rule as [`DepStats::attempts_by`]).
    pub solver_nodes: u64,
    /// Direction-refinement queries issued against the incremental
    /// solve-tree store (same attribution rule as
    /// [`DepStats::attempts_by`]: each canonical problem charged once, at
    /// its first reference in source-pair order).
    pub refine_queries: u64,
    /// Refinement queries answered by replaying a memoized subtree instead
    /// of re-enumerating. Zero when incremental solving is disabled.
    pub subtree_reuses: u64,
    /// Exact-solver nodes the subtree replays avoided re-spending (the
    /// incremental win; compare against [`DepStats::solver_nodes`]).
    pub nodes_saved: u64,
    /// Entries evicted from the verdict cache while this run executed, to
    /// respect [`DepStats::cache_capacity`]. Deterministic for a serial run
    /// with a fixed arrival order; under concurrent workers (or a cache
    /// shared with concurrently-running units) the victim choice depends on
    /// scheduling. Deliberately **excluded** from [`VerdictStats`] and every
    /// determinism-checked report — eviction never changes verdicts or
    /// attribution, only who re-computes. `0` with an unbounded cache.
    pub cache_evictions: u64,
    /// The verdict-cache entry capacity in force (`0` = unbounded; see
    /// `DELIN_CACHE_CAP`).
    pub cache_capacity: usize,
    /// Pairs whose verdict was reached under an exhausted resource budget
    /// and therefore degraded to a conservative answer. Deterministic for
    /// node-limit budgets; deadline and cancellation trips depend on wall
    /// clock by nature.
    pub degraded_pairs: usize,
    /// Degraded pairs broken down by the budget axis that tripped.
    pub degraded_by: BTreeMap<DegradeReason, usize>,
    /// Total wall-clock nanoseconds spent testing pairs. Only tested pairs
    /// count: a class's other members take its outcome for free. Not
    /// deterministic.
    pub test_nanos: u128,
    /// Wall-clock nanoseconds per deciding test, over tested pairs only.
    /// Not deterministic.
    pub nanos_by: BTreeMap<&'static str, u128>,
}

/// The scheduling-independent subset of [`DepStats`]: equal between serial
/// and parallel runs of the same configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictStats {
    /// Reference pairs examined.
    pub pairs_tested: usize,
    /// Pairs proven independent.
    pub proven_independent: usize,
    /// Pairs proven independent, per deciding test.
    pub independent_by: BTreeMap<&'static str, usize>,
    /// Pairs that fell back to the conservative all-`*` answer.
    pub conservative_pairs: usize,
    /// Pairs decided by each test.
    pub decided_by: BTreeMap<&'static str, usize>,
    /// Executed test invocations per technique.
    pub attempts_by: BTreeMap<&'static str, usize>,
    /// Pairs answered from the verdict cache.
    pub cache_hits: usize,
    /// Pairs that had to be solved.
    pub cache_misses: usize,
    /// Exact-solver search nodes spent across all decisions.
    pub solver_nodes: u64,
    /// Direction-refinement queries issued.
    pub refine_queries: u64,
    /// Refinement queries answered from a memoized subtree.
    pub subtree_reuses: u64,
    /// Exact-solver nodes the subtree replays avoided.
    pub nodes_saved: u64,
    /// Pairs degraded by budget exhaustion.
    pub degraded_pairs: usize,
    /// Degraded pairs per tripped budget axis.
    pub degraded_by: BTreeMap<DegradeReason, usize>,
}

impl DepStats {
    /// Everything except wall-clock timings.
    ///
    /// Each distinct canonical problem is computed exactly once even under
    /// parallel construction (racing workers block on the same cache cell),
    /// so hit/miss counts, executed attempts, and solver node totals are
    /// all deterministic — only the `nanos` fields vary run to run.
    pub fn verdict_stats(&self) -> VerdictStats {
        VerdictStats {
            pairs_tested: self.pairs_tested,
            proven_independent: self.proven_independent,
            independent_by: self.independent_by.clone(),
            conservative_pairs: self.conservative_pairs,
            decided_by: self.decided_by.clone(),
            attempts_by: self.attempts_by.clone(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            solver_nodes: self.solver_nodes,
            refine_queries: self.refine_queries,
            subtree_reuses: self.subtree_reuses,
            nodes_saved: self.nodes_saved,
            degraded_pairs: self.degraded_pairs,
            degraded_by: self.degraded_by.clone(),
        }
    }

    /// A compact multi-line human-readable summary, used by the bench
    /// binaries.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pairs: {} tested, {} independent, {} conservative",
            self.pairs_tested, self.proven_independent, self.conservative_pairs
        );
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses, solver nodes: {}, test time: {:.3} ms",
            self.cache_hits,
            self.cache_misses,
            self.solver_nodes,
            self.test_nanos as f64 / 1.0e6
        );
        // Only rendered when the incremental solver actually refined, so
        // battery-only (and incremental-off, reuse-free) runs keep the
        // historical summary shape.
        if self.refine_queries > 0 {
            let _ = writeln!(
                out,
                "refines: {} queries, {} subtree reuses, {} nodes saved",
                self.refine_queries, self.subtree_reuses, self.nodes_saved
            );
        }
        // Only rendered when a bounded cache actually evicted, keeping the
        // historical summary shape for unbounded runs.
        if self.cache_evictions > 0 {
            let _ = writeln!(
                out,
                "evictions: {} (capacity {})",
                self.cache_evictions, self.cache_capacity
            );
        }
        // Only rendered when something actually degraded, so budget-clean
        // runs keep the historical byte-identical summary.
        if self.degraded_pairs > 0 {
            let by: Vec<String> =
                self.degraded_by.iter().map(|(reason, n)| format!("{reason}={n}")).collect();
            let _ = writeln!(out, "degraded: {} pairs ({})", self.degraded_pairs, by.join(", "));
        }
        let names: std::collections::BTreeSet<&'static str> =
            self.decided_by.keys().chain(self.attempts_by.keys()).copied().collect();
        let mut by_test: Vec<String> = Vec::new();
        for name in names {
            let decided = self.decided_by.get(name).copied().unwrap_or(0);
            let attempts = self.attempts_by.get(name).copied().unwrap_or(0);
            let nanos = self.nanos_by.get(name).copied().unwrap_or(0);
            by_test.push(format!(
                "{name}: {decided} decided, {attempts} ran, {:.3} ms",
                nanos as f64 / 1.0e6
            ));
        }
        let _ = writeln!(out, "per-test: {}", by_test.join("; "));
        out
    }

    /// Accumulates another run's statistics into this one. The bench
    /// binaries use this to aggregate over a whole corpus.
    pub fn merge(&mut self, other: &DepStats) {
        self.pairs_tested += other.pairs_tested;
        self.proven_independent += other.proven_independent;
        self.conservative_pairs += other.conservative_pairs;
        for (name, n) in &other.independent_by {
            *self.independent_by.entry(name).or_insert(0) += n;
        }
        for (name, n) in &other.decided_by {
            *self.decided_by.entry(name).or_insert(0) += n;
        }
        for (name, n) in &other.attempts_by {
            *self.attempts_by.entry(name).or_insert(0) += n;
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_capacity = self.cache_capacity.max(other.cache_capacity);
        self.solver_nodes += other.solver_nodes;
        self.refine_queries += other.refine_queries;
        self.subtree_reuses += other.subtree_reuses;
        self.nodes_saved += other.nodes_saved;
        self.degraded_pairs += other.degraded_pairs;
        for (reason, n) in &other.degraded_by {
            *self.degraded_by.entry(*reason).or_insert(0) += n;
        }
        self.test_nanos += other.test_nanos;
        for (name, n) in &other.nanos_by {
            *self.nanos_by.entry(name).or_insert(0) += n;
        }
    }

    /// Folds a tested pair's outcome in for the `members` worklist pairs
    /// it decides, attributing cached work to the first reference of each
    /// canonical problem in fold (source-pair) order. `seen_keys` is the
    /// per-run set of already-charged key fingerprints. Members share the
    /// tested pair's key and follow it in source-pair order, so at most
    /// the tested pair is a first reference; with the cache disabled every
    /// member is charged as its own reference.
    fn absorb_class(&mut self, pair: &PairOutcome, members: usize, seen_keys: &mut HashSet<u64>) {
        let outcome = &*pair.outcome;
        self.pairs_tested += members;
        *self.decided_by.entry(outcome.tested_by).or_insert(0) += members;
        let charged = match pair.key_fp {
            Some(fp) => {
                let first = usize::from(seen_keys.insert(fp));
                self.cache_misses += first;
                self.cache_hits += members - first;
                first
            }
            None => members,
        };
        if charged > 0 {
            for name in &outcome.attempts {
                *self.attempts_by.entry(name).or_insert(0) += charged;
            }
            let charged = charged as u64;
            self.solver_nodes += outcome.solver_nodes * charged;
            // The reuse counters ride the same single-charge rule: a pair
            // that hits the verdict cache contributes *nothing* here even
            // though the entry it reused also reused subtrees — otherwise a
            // refinement could be double-counted (once as a cache hit, once
            // as a subtree reuse). See `cache_hits_charge_reuse_counters_once`.
            self.refine_queries += outcome.refine_queries * charged;
            self.subtree_reuses += outcome.subtree_reuses * charged;
            self.nodes_saved += outcome.nodes_saved * charged;
        }
        match outcome.verdict {
            Verdict::Independent => {
                self.proven_independent += members;
                *self.independent_by.entry(outcome.tested_by).or_insert(0) += members;
            }
            Verdict::Unknown => self.conservative_pairs += members,
            Verdict::Dependent { .. } => {}
        }
        if let Some(reason) = outcome.degraded {
            self.degraded_pairs += members;
            *self.degraded_by.entry(reason).or_insert(0) += members;
        }
        self.test_nanos += pair.nanos;
        *self.nanos_by.entry(outcome.tested_by).or_insert(0) += pair.nanos;
    }
}

/// The dependence graph of a program.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Statements in source order.
    pub stmts: Vec<StmtId>,
    /// Edges.
    pub edges: Vec<DepEdge>,
    /// Construction statistics.
    pub stats: DepStats,
    /// Sorted fingerprints of the canonical problems charged to this run
    /// (empty when the verdict cache is disabled). The batch layer unions
    /// these across units to count corpus-wide distinct problems without
    /// consulting live cache state — which keeps the count deterministic
    /// even when some units fail or are retried.
    pub charged_keys: Vec<u64>,
}

/// Which dependence tests drive the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TestChoice {
    /// Delinearization first; classical battery on `Unknown` (the VIC
    /// configuration).
    #[default]
    DelinearizationFirst,
    /// Delinearization only.
    DelinearizationOnly,
    /// Classical battery only (the ablation baseline: GCD + Banerjee +
    /// exact single-index tests + SVPC + Acyclic + Loop Residue).
    BatteryOnly,
}

/// Configuration of the dependence-graph engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which dependence tests drive the analysis.
    pub choice: TestChoice,
    /// Worker threads for the pair worklist; `0` means one per available
    /// CPU. `1` runs the serial code path (bit-for-bit the pre-parallel
    /// behaviour); any other count produces identical edges and verdict
    /// stats because results are folded in source-pair order.
    pub workers: usize,
    /// Memoize verdicts of canonicalized problems (see [`crate::cache`]).
    pub cache: bool,
    /// No effect (see [`KeyMode`]); kept only because perfbench names it.
    pub keying: KeyMode,
    /// Incremental exact solving: direction-refinement queries replay
    /// memoized solve subtrees (see [`delin_dep::exact::SubtreeStore`])
    /// instead of re-enumerating, and the verdict cache stores each
    /// problem's solver state alongside its verdict. Off reproduces the
    /// fresh-solve engine node for node — the A/B baseline; verdicts and
    /// edges are identical either way. Defaults to
    /// [`incremental_from_env`].
    pub incremental: bool,
    /// Entry capacity for the private verdict cache (`0` = unbounded; see
    /// [`crate::cache::cache_cap_from_env`] / `DELIN_CACHE_CAP`). Bounded
    /// caches evict least-recently-used entries; edges, verdicts and all
    /// determinism-checked statistics are identical under any capacity.
    /// Ignored when a shared cache is passed in (the cache carries its own
    /// capacity).
    pub cache_cap: usize,
    /// No effect (the miss path always recycles); kept only because perfbench names it.
    pub arena: bool,
    /// Resource budget specification. Armed once per graph construction
    /// (the deadline covers the whole run); each pair then observes the
    /// armed limits through a fresh trip flag, so exhaustion degrades that
    /// pair to a conservative verdict without corrupting its neighbours.
    pub budget: BudgetSpec,
    /// Deterministic fault injection, threaded in by the batch layer.
    /// `None` (always, unless the `chaos` cargo feature is enabled *and* a
    /// seed was requested) runs the engine unfaulted.
    pub chaos: Option<ChaosCtx>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            choice: TestChoice::default(),
            workers: workers_from_env(),
            cache: true,
            keying: KeyMode::Fp,
            incremental: incremental_from_env(),
            arena: true,
            cache_cap: crate::cache::cache_cap_from_env(),
            budget: BudgetSpec::default(),
            chaos: None,
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

/// The default incremental-solving switch: on, unless the
/// `DELIN_INCREMENTAL` environment variable is set to `0`.
///
/// The bench binaries and CI use `DELIN_INCREMENTAL=0` as the A/B baseline:
/// it must produce byte-identical edges and verdicts, spending strictly
/// more solver nodes on any workload with reusable refinements.
pub fn incremental_from_env() -> bool {
    std::env::var("DELIN_INCREMENTAL").map(|v| v != "0").unwrap_or(true)
}

impl EngineConfig {
    /// The worker-thread count after resolving `0` to the machine's
    /// available parallelism and clamping by the number of pairs to test.
    pub fn effective_workers(&self, worklist_len: usize) -> usize {
        let auto = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let requested = if self.workers == 0 { auto() } else { self.workers };
        requested.max(1).min(worklist_len.max(1))
    }
}

/// Builds the dependence graph of a program with the default engine
/// configuration (all cores, verdict cache enabled) and the given test
/// choice.
pub fn build_dependence_graph(
    program: &Program,
    assumptions: &Assumptions,
    choice: TestChoice,
) -> DepGraph {
    build_dependence_graph_with(
        program,
        assumptions,
        &EngineConfig { choice, ..EngineConfig::default() },
    )
}

/// The outcome of testing one pair, recorded off-thread and folded into
/// the graph in source-pair order on behalf of every member of its class.
///
/// Holds the cache's `Arc` directly: a cache hit costs one reference-count
/// bump, never a clone of the outcome payload (the per-entry `attempts`
/// vector in particular). Verdict, attempts and the incremental-solving
/// counters are pure functions of the cache key; the fold charges them to
/// the first reference of the key in source-pair order, never to later
/// hits.
struct PairOutcome {
    outcome: Arc<CachedOutcome>,
    /// Wall-clock spent by *this* pair (lookup included), not by whoever
    /// computed the entry.
    nanos: u128,
    /// Fingerprint of the canonical cache key; `None` when the cache is
    /// disabled (every pair then counts as its own first reference).
    key_fp: Option<u64>,
}

/// Builds the dependence graph of a program under an explicit engine
/// configuration, with a private verdict cache (when enabled).
pub fn build_dependence_graph_with(
    program: &Program,
    assumptions: &Assumptions,
    config: &EngineConfig,
) -> DepGraph {
    build_dependence_graph_in(program, assumptions, config, None)
}

/// Builds the dependence graph of a program under an explicit engine
/// configuration, optionally against a shared cross-unit verdict cache
/// (see [`crate::batch`]).
///
/// When `shared` is given it is used regardless of `config.cache`; lookups
/// key on this unit's `assumptions`, so units with conflicting assumption
/// environments can safely share one cache. The emitted edges and the
/// [`DepStats::verdict_stats`] subset are identical whether the cache is
/// private, shared, or shared-and-pre-populated by other units: verdicts
/// are pure functions of the cache key, and cached work is charged to the
/// first reference in source-pair order (not to whoever computed it).
pub fn build_dependence_graph_in(
    program: &Program,
    assumptions: &Assumptions,
    config: &EngineConfig,
    shared: Option<&VerdictCache>,
) -> DepGraph {
    let sites = delin_frontend::access::collect_accesses(program, assumptions);
    let mut stmts: Vec<StmtId> = Vec::new();
    program.visit_assigns(&mut |a| stmts.push(a.id));
    let mut graph = DepGraph { stmts, ..DepGraph::default() };

    let worklist = worklist(&sites);
    let private =
        (shared.is_none() && config.cache).then(|| VerdictCache::bounded(config.cache_cap));
    let cache = shared.or(private.as_ref());
    // Snapshot so a shared cache only charges this run the evictions that
    // happened during it (best-effort attribution under concurrency; exact
    // for private caches — and excluded from all determinism contracts).
    let evictions_before = cache.map_or(0, VerdictCache::evictions);
    // Arm once: the deadline clock covers the whole construction. Pairs
    // derive per-pair trip flags from this via `ResourceBudget::fresh`.
    let budget = config.budget.arm();
    let ctx = PairCtx {
        assumptions,
        choice: config.choice,
        cache,
        incremental: config.incremental,
        budget: &budget,
    };

    let chaos = config.chaos.as_ref();
    let mut classes =
        PairClasses::new(&sites, &worklist, |i, j| chaos.and_then(|c| c.pair_fault(i, j)));
    let run = |tasks: &[Task]| {
        let workers = config.effective_workers(tasks.len());
        run_tasks(&sites, &worklist, tasks, &ctx, workers)
    };
    let mut outcomes = run(&classes.tasks);
    let split = classes.split_degraded(&outcomes);
    outcomes.extend(run(&classes.tasks[split..]));

    let plans: Vec<EdgePlan> = classes
        .tasks
        .iter()
        .zip(&outcomes)
        .map(|(task, pair)| {
            let (i, j) = worklist[task.pair];
            EdgePlan::new(&pair.outcome, sites[i].common_loops_with(&sites[j]))
        })
        .collect();
    // One allocation of the planned count (stamping may skip a few): an
    // edge list grown by doubling left riceps-large's peak RSS a third
    // higher.
    graph.edges.reserve_exact(classes.task_of.iter().map(|&t| plans[t].edges.len()).sum());
    let mut seen_keys: HashSet<u64> = HashSet::new();
    for (k, (&(i, j), &t)) in worklist.iter().zip(&classes.task_of).enumerate() {
        let task = &classes.tasks[t];
        if task.pair == k {
            graph.stats.absorb_class(&outcomes[t], task.members, &mut seen_keys);
        }
        plans[t].stamp(&sites[i], &sites[j], i == j, &mut graph.edges);
    }
    let mut charged: Vec<u64> = seen_keys.into_iter().collect();
    charged.sort_unstable();
    graph.charged_keys = charged;
    graph.stats.cache_capacity = cache.map_or(0, VerdictCache::capacity);
    graph.stats.cache_evictions =
        cache.map_or(0, VerdictCache::evictions).saturating_sub(evictions_before);
    graph
}

/// The reference-pair worklist in source-pair order: every unordered pair
/// of sites on the same array with at least one write, so same-site pairs
/// only for writes (self output deps are subsumed by the W-W pair of the
/// same site, which `i == j` covers).
fn worklist(sites: &[AccessSite]) -> Vec<(usize, usize)> {
    let mut worklist: Vec<(usize, usize)> = Vec::new();
    for (i, a) in sites.iter().enumerate() {
        for (j, b) in sites.iter().enumerate().skip(i) {
            let writes = a.kind == AccessKind::Write || b.kind == AccessKind::Write;
            if a.array == b.array && writes {
                worklist.push((i, j));
            }
        }
    }
    worklist
}

/// Everything a pair decision needs besides the pair itself; one borrow
/// bundle shared by the serial and sharded paths.
#[derive(Clone, Copy)]
struct PairCtx<'a> {
    assumptions: &'a Assumptions,
    choice: TestChoice,
    cache: Option<&'a VerdictCache>,
    incremental: bool,
    /// The run-armed budget; pairs observe it via `fresh()`.
    budget: &'a ResourceBudget,
}

/// Dense shape ids for `sites`, numbered in order of first occurrence. A
/// site's shape is what [`pair_problem`] reads from it: loop names, upper
/// bounds and subscripts. Loop identity is left out (a pair's common depth
/// carries it), and so are the statement, kind and array, which only
/// label edges. The map keeps the default keyed hasher because shapes
/// come from source text.
fn intern_shapes(sites: &[AccessSite]) -> Vec<u32> {
    type Shape<'a> = (Vec<(&'a str, &'a SymPoly)>, &'a [Subscript]);
    let mut ids: HashMap<Shape<'_>, u32> = HashMap::new();
    sites
        .iter()
        .map(|site| {
            let loops = site.loops.iter().map(|l| (l.var.as_str(), &l.upper)).collect();
            let next = ids.len() as u32;
            *ids.entry((loops, &site.subscripts)).or_insert(next)
        })
        .collect()
}

/// One pair the engine tests; its outcome stands for `members` worklist
/// pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Task {
    /// Worklist index of the tested pair: its class's first member.
    pair: usize,
    /// Worklist pairs that take this pair's outcome, itself included.
    members: usize,
    /// The chaos fault drawn for the pair, if any.
    fault: Option<FaultKind>,
}

/// The worklist grouped into pair classes.
///
/// Two pairs share a class when their sources have equal shapes, their
/// sinks have equal shapes, and both have the same common loop depth:
/// [`pair_problem`] then builds equal problems for them, variable names
/// included, so one test decides the whole class. The representative is
/// the class's first pair in worklist order. A pair that draws a chaos
/// fault is tested alone: it neither represents a class nor joins one.
struct PairClasses {
    /// The pairs to test. The first pass's tasks are in worklist order;
    /// [`PairClasses::split_degraded`] appends more.
    tasks: Vec<Task>,
    /// Per worklist pair, the task whose outcome it takes.
    task_of: Vec<usize>,
}

impl PairClasses {
    fn new(
        sites: &[AccessSite],
        worklist: &[(usize, usize)],
        fault: impl Fn(usize, usize) -> Option<FaultKind>,
    ) -> PairClasses {
        let shapes = intern_shapes(sites);
        let mut by_key: HashMap<(u32, u32, usize), usize, FxBuildHasher> = HashMap::default();
        let mut tasks: Vec<Task> = Vec::new();
        let task_of = worklist
            .iter()
            .enumerate()
            .map(|(k, &(i, j))| {
                let fault = fault(i, j);
                let next = tasks.len();
                let t = match fault {
                    Some(_) => next,
                    None => {
                        let key = (shapes[i], shapes[j], sites[i].common_loops_with(&sites[j]));
                        *by_key.entry(key).or_insert(next)
                    }
                };
                if t == next {
                    tasks.push(Task { pair: k, members: 0, fault });
                }
                tasks[t].members += 1;
                t
            })
            .collect();
        PairClasses { tasks, task_of }
    }

    /// Splits every class whose representative degraded, since a degraded
    /// outcome is never shared: each other member becomes a task of its
    /// own, tested like any unclassed pair. `outcomes` covers the current
    /// tasks. Returns the index of the first new task.
    fn split_degraded(&mut self, outcomes: &[PairOutcome]) -> usize {
        let split = self.tasks.len();
        let tasks = &mut self.tasks;
        for (k, t) in self.task_of.iter_mut().enumerate() {
            if tasks[*t].pair != k && outcomes[*t].outcome.degraded.is_some() {
                tasks[*t].members -= 1;
                *t = tasks.len();
                tasks.push(Task { pair: k, members: 1, fault: None });
            }
        }
        split
    }
}

/// Tests `tasks` on `workers` scoped threads: an atomic cursor hands the
/// pairs out one at a time, each worker keeps `(index, outcome)` locally,
/// and the merged results are put back in task order, so scheduling
/// changes who computes, never what is computed.
///
/// A panicking worker (a bug in a dependence test, or an injected chaos
/// fault) does not bring the process down here: every worker is joined
/// first — so no outcome is silently dropped and the scope never detaches
/// a thread — and then exactly one captured payload is re-raised with
/// [`std::panic::resume_unwind`]. The batch layer catches it at the unit
/// boundary and converts it into a per-unit failure.
fn run_tasks(
    sites: &[AccessSite],
    worklist: &[(usize, usize)],
    tasks: &[Task],
    ctx: &PairCtx<'_>,
    workers: usize,
) -> Vec<PairOutcome> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let test = |task: &Task| {
        let (i, j) = worklist[task.pair];
        test_pair(&sites[i], &sites[j], task, ctx)
    };
    if workers <= 1 {
        return tasks.iter().map(test).collect();
    }
    let cursor = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, PairOutcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, PairOutcome)> = Vec::new();
                    loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(t) else { break };
                        local.push((t, test(task)));
                    }
                    local
                })
            })
            .collect();
        let mut done: Vec<Vec<(usize, PairOutcome)>> = Vec::with_capacity(handles.len());
        let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(local) => done.push(local),
                Err(p) => payload = Some(p),
            }
        }
        if let Some(p) = payload {
            std::panic::resume_unwind(p);
        }
        done
    });

    let mut slots: Vec<Option<PairOutcome>> = Vec::with_capacity(tasks.len());
    slots.resize_with(tasks.len(), || None);
    for (t, outcome) in chunks.into_iter().flatten() {
        slots[t] = Some(outcome);
    }
    // Every task should have produced exactly one outcome. If a slot is
    // nevertheless empty (a worker ended without reporting — which the
    // join/re-raise above is designed to prevent), substitute the
    // conservative degraded outcome instead of crashing the engine: the
    // pair keeps every direction vector and is attributed to
    // [`DegradeReason::Lost`].
    slots.into_iter().map(|s| s.unwrap_or_else(lost_outcome)).collect()
}

/// The conservative stand-in for a pair whose outcome never arrived:
/// `Unknown` (all directions survive), charged as its own reference,
/// degraded by [`DegradeReason::Lost`] so reports attribute the gap.
fn lost_outcome() -> PairOutcome {
    PairOutcome {
        outcome: Arc::new(CachedOutcome {
            verdict: Verdict::Unknown,
            tested_by: "degraded",
            attempts: Vec::new(),
            solver_nodes: 0,
            refine_queries: 0,
            subtree_reuses: 0,
            nodes_saved: 0,
            solver_state: None,
            degraded: Some(DegradeReason::Lost),
        }),
        nanos: 0,
        key_fp: None,
    }
}

/// Tests one pair, through the verdict cache when enabled.
///
/// Chaos pair faults are applied *here*, outside the cache: a panic fault
/// unwinds before any lookup, and a budget fault bypasses the cache
/// entirely (computing under the exhausted budget, charging the pair as
/// its own reference) so injected degradation can never leak into — or be
/// masked by — memoized full-budget entries.
fn test_pair(a: &AccessSite, b: &AccessSite, task: &Task, ctx: &PairCtx<'_>) -> PairOutcome {
    let started = std::time::Instant::now();
    match task.fault {
        Some(FaultKind::Panic) => panic!("{}", crate::chaos::CHAOS_PANIC_MSG),
        Some(fault) => {
            let spec =
                ChaosCtx::faulted_spec(fault, &BudgetSpec::nodes_only(ctx.budget.node_limit()));
            let problem = pair_problem(a, b);
            let computed =
                decide_counted(&problem, ctx.assumptions, ctx.choice, &spec.arm(), ctx.incremental);
            return PairOutcome {
                outcome: Arc::new(computed),
                nanos: started.elapsed().as_nanos(),
                key_fp: None,
            };
        }
        None => {}
    }
    let problem = pair_problem_pooled(a, b);
    let outcome = match ctx.cache {
        Some(cache) => {
            let CacheLookup { outcome, key_fp, .. } =
                cache.lookup_class(ctx.assumptions, &problem, task.members as u64, |canonical| {
                    // The per-pair budget is armed inside the compute slot:
                    // only a miss spends solver effort, so a hit never pays
                    // for the tracker.
                    decide_counted(
                        canonical,
                        ctx.assumptions,
                        ctx.choice,
                        &ctx.budget.fresh(),
                        ctx.incremental,
                    )
                });
            // A hit shares the cache entry's `Arc` — no payload clone.
            PairOutcome { outcome, nanos: 0, key_fp: Some(key_fp) }
        }
        None => {
            let computed = decide_counted(
                &problem,
                ctx.assumptions,
                ctx.choice,
                &ctx.budget.fresh(),
                ctx.incremental,
            );
            PairOutcome { outcome: Arc::new(computed), nanos: 0, key_fp: None }
        }
    };
    recycle_pair_problem(problem);
    PairOutcome { nanos: started.elapsed().as_nanos(), ..outcome }
}

/// Runs [`decide`] with exact-solver node and refinement accounting
/// around it.
///
/// When `incremental` is on the decision refines through a private
/// [`SubtreeStore`] created here — private, so the counters stay pure
/// functions of the canonical problem regardless of scheduling — and the
/// store is stowed in the returned outcome: the verdict cache memoizes it
/// alongside the verdict, which is how sibling refinements across a unit
/// (and across units sharing one cache) reach the same subtrees.
fn decide_counted(
    problem: &DependenceProblem<SymPoly>,
    assumptions: &Assumptions,
    choice: TestChoice,
    budget: &ResourceBudget,
    incremental: bool,
) -> CachedOutcome {
    let _ = delin_dep::exact::take_thread_nodes();
    delin_dep::exact::reset_thread_refine();
    let store = incremental.then(|| Arc::new(SubtreeStore::new()));
    let (verdict, tested_by, attempts) =
        decide(problem, assumptions, choice, budget, incremental, store.as_ref());
    let refine = delin_dep::exact::take_thread_refine();
    CachedOutcome {
        verdict,
        tested_by,
        attempts,
        solver_nodes: delin_dep::exact::take_thread_nodes(),
        refine_queries: refine.refine_queries,
        subtree_reuses: refine.subtree_reuses,
        nodes_saved: refine.nodes_saved,
        solver_state: store,
        degraded: budget.tripped(),
    }
}

/// Builds the dependence problem for a pair of sites: variables are the
/// source loops then the sink loops; one equation per array dimension
/// where both subscripts are affine.
pub fn pair_problem(a: &AccessSite, b: &AccessSite) -> DependenceProblem<SymPoly> {
    let mut builder = DependenceProblem::<SymPoly>::builder();
    let common = a.common_loops_with(b);
    let src_vars: Vec<usize> =
        a.loops.iter().map(|l| builder.var(format!("{}1", l.var), l.upper.clone())).collect();
    let snk_vars: Vec<usize> =
        b.loops.iter().map(|l| builder.var(format!("{}2", l.var), l.upper.clone())).collect();
    for k in 0..common {
        builder.common_pair(src_vars[k], snk_vars[k]);
    }
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        if let (Subscript::Affine(fa), Subscript::Affine(fb)) = (sa, sb) {
            let _ = builder.equation_from_subscripts(fa, &src_vars, fb, &snk_vars);
        }
    }
    builder.build()
}

/// The worker's recycled storage for per-pair problem construction: a
/// builder that overwrites retired slots in place plus the pool
/// of retired problems feeding it. Per thread, so no locking on the pair
/// hot path.
#[derive(Default)]
struct PairScratch {
    builder: ProblemBuilder<SymPoly>,
    free: Vec<DependenceProblem<SymPoly>>,
    src_vars: Vec<usize>,
    snk_vars: Vec<usize>,
}

/// Retired problems a worker keeps for pair construction; one is in
/// flight at a time, the rest cover shape churn between consecutive pairs.
const PAIR_SLABS: usize = 4;

thread_local! {
    static PAIR_SCRATCH: RefCell<PairScratch> = RefCell::new(PairScratch::default());
}

/// [`pair_problem`] through the worker's recycled storage: byte-identical
/// problems, but the builder overwrites the previous pair's vectors, rows
/// and name strings instead of allocating fresh ones. Falls back to the
/// allocating path if the scratch is unavailable (re-entrancy).
fn pair_problem_pooled(a: &AccessSite, b: &AccessSite) -> DependenceProblem<SymPoly> {
    PAIR_SCRATCH.with(|cell| {
        let Ok(mut scratch) = cell.try_borrow_mut() else {
            return pair_problem(a, b);
        };
        let s = &mut *scratch;
        if let Some(slab) = s.free.pop() {
            s.builder.recycle(slab);
        }
        let common = a.common_loops_with(b);
        s.src_vars.clear();
        s.snk_vars.clear();
        for l in &a.loops {
            s.src_vars.push(s.builder.var_suffixed(&l.var, '1', &l.upper));
        }
        for l in &b.loops {
            s.snk_vars.push(s.builder.var_suffixed(&l.var, '2', &l.upper));
        }
        for k in 0..common {
            s.builder.common_pair(s.src_vars[k], s.snk_vars[k]);
        }
        for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
            if let (Subscript::Affine(fa), Subscript::Affine(fb)) = (sa, sb) {
                let _ = s.builder.equation_from_subscripts(fa, &s.src_vars, fb, &s.snk_vars);
            }
        }
        s.builder.build()
    })
}

/// Returns a pair problem's storage to the worker's pool once its verdict
/// is in, closing the recycle loop of [`pair_problem_pooled`].
fn recycle_pair_problem(problem: DependenceProblem<SymPoly>) {
    PAIR_SCRATCH.with(|cell| {
        if let Ok(mut s) = cell.try_borrow_mut() {
            if s.free.len() < PAIR_SLABS {
                s.free.push(problem);
            }
        }
    });
}

/// Converts a symbolic problem to a concrete one when every quantity is a
/// known integer.
pub fn concretize(p: &DependenceProblem<SymPoly>) -> Option<DependenceProblem<i128>> {
    if !p.is_concrete() {
        return None;
    }
    let mut b = DependenceProblem::<i128>::builder();
    for v in p.vars() {
        b.var(v.name.clone(), v.upper.as_constant()?);
    }
    for eq in p.equations() {
        b.equation(
            eq.c0.as_constant()?,
            eq.coeffs.iter().map(|c| c.as_constant()).collect::<Option<Vec<_>>>()?,
        );
    }
    for (x, y) in p.common_loops() {
        b.common_pair(*x, *y);
    }
    Some(b.build())
}

/// Runs the configured tests; returns the verdict, the deciding test's
/// name, and the names of the test invocations that executed.
///
/// Budget checks bracket every expensive phase: an exhausted budget at
/// entry, between the delinearization pass and the classical battery, or
/// before direction-vector refinement short-circuits to the conservative
/// `Unknown` with `tested_by = "degraded"`. Inside the delinearization
/// pass the same budget throttles the exact solver node by node.
fn decide(
    problem: &DependenceProblem<SymPoly>,
    assumptions: &Assumptions,
    choice: TestChoice,
    budget: &ResourceBudget,
    incremental: bool,
    store: Option<&Arc<SubtreeStore>>,
) -> (Verdict, &'static str, Vec<&'static str>) {
    if budget.exhausted().is_some() {
        return (Verdict::Unknown, "degraded", Vec::new());
    }
    // The decision works on a copy of the canonical problem with this
    // unit's assumptions installed, leased from the worker's recycled pool.
    let mut sym = DECIDE_ARENA.with(|a| a.borrow_mut().lease_clone(problem));
    sym.set_assumptions(assumptions.clone());
    let concrete = concretize(&sym);

    let mut delin = DelinearizationTest::with_budget(budget.clone());
    delin.config.incremental = incremental;
    delin.config.solve_store = store.map(Arc::clone);
    let delin = delin;
    let run_delin =
        |name: &'static str, attempts: &mut Vec<&'static str>| -> (Verdict, &'static str) {
            attempts.push(name);
            match &concrete {
                Some(c) => (DependenceTest::<i128>::test(&delin, c), name),
                None => (DependenceTest::<SymPoly>::test(&delin, &sym), name),
            }
        };
    let run_battery = |attempts: &mut Vec<&'static str>| -> (Verdict, &'static str) {
        if let Some(c) = &concrete {
            let tests: Vec<(&'static str, Verdict)> = vec![
                ("gcd", GcdTest.test(c)),
                ("siv", SivTest.test(c)),
                ("svpc", SvpcTest.test(c)),
                ("acyclic", AcyclicTest.test(c)),
                ("loop-residue", LoopResidueTest.test(c)),
                ("banerjee", BanerjeeTest.test(c)),
            ];
            for (name, _) in &tests {
                attempts.push(name);
            }
            for (name, v) in &tests {
                if v.is_independent() {
                    return (Verdict::Independent, name);
                }
            }
            if budget.exhausted().is_some() {
                return (Verdict::Unknown, "degraded");
            }
            // Direction vectors through the Banerjee hierarchy in the
            // classical mode: exact on single-index equations, real-valued
            // (the paper's reading) on coupled multi-index equations.
            attempts.push("dir-vectors");
            let dirs = hierarchy::banerjee_direction_vectors(c, DirectionMode::Hybrid);
            if dirs.is_empty() {
                return (Verdict::Independent, "banerjee");
            }
            (Verdict::dependent_with_dirs(dirs), "banerjee")
        } else {
            attempts.push("gcd");
            let v = GcdTest.test(&sym);
            if v.is_independent() {
                return (Verdict::Independent, "gcd");
            }
            if budget.exhausted().is_some() {
                return (Verdict::Unknown, "degraded");
            }
            attempts.push("dir-vectors");
            let dirs = hierarchy::banerjee_direction_vectors(&sym, DirectionMode::Hybrid);
            if dirs.is_empty() {
                return (Verdict::Independent, "banerjee");
            }
            (Verdict::dependent_with_dirs(dirs), "banerjee")
        }
    };

    let mut attempts: Vec<&'static str> = Vec::new();
    let (verdict, tested_by) = match choice {
        TestChoice::DelinearizationOnly => run_delin("delinearization", &mut attempts),
        TestChoice::BatteryOnly => run_battery(&mut attempts),
        TestChoice::DelinearizationFirst => {
            let (v, name) = run_delin("delinearization", &mut attempts);
            if v.is_unknown() {
                if budget.exhausted().is_some() {
                    (Verdict::Unknown, "degraded")
                } else {
                    run_battery(&mut attempts)
                }
            } else {
                (v, name)
            }
        }
    };
    DECIDE_ARENA.with(|a| a.borrow_mut().recycle(sym));
    (verdict, tested_by, attempts)
}

thread_local! {
    /// The worker's recycled pool for [`decide`]'s working problems: each
    /// decision leases its assumption-installed copy of the
    /// canonical problem here and returns it on exit, so after warmup the
    /// install step reuses the previous decision's buffers.
    static DECIDE_ARENA: RefCell<ProblemArena<SymPoly>> = RefCell::new(ProblemArena::new());
}

/// The edges a tested pair's outcome implies, planned once per class: the
/// atomic split into forward, backward and loop-independent vectors, the
/// per-level grouping and [`summarize`]. Each member pair then only
/// stamps its own statements, kinds and array on ([`EdgePlan::stamp`]),
/// sharing the planned vectors by reference.
struct EdgePlan {
    edges: Vec<PlannedEdge>,
    tested_by: &'static str,
}

/// One planned edge. A carried edge (`level: Some`) runs source → sink,
/// or sink → source with reversed vectors when `backward`; the
/// loop-independent edge (`level: None`) follows textual order.
struct PlannedEdge {
    backward: bool,
    /// A backward edge with the level and vectors of a forward edge. A
    /// same-site pair (a write with itself) stamps both as the same edge,
    /// so it skips this one.
    mirrors_forward: bool,
    level: Option<usize>,
    dir_vecs: Arc<[DirVec]>,
}

impl EdgePlan {
    fn new(outcome: &CachedOutcome, common: usize) -> EdgePlan {
        let any = [DirVec::any(common)];
        let (dirs, tested_by): (&[DirVec], _) = match &outcome.verdict {
            Verdict::Independent => (&[], outcome.tested_by),
            Verdict::Dependent { info, .. } if !info.dir_vecs.is_empty() => {
                (&info.dir_vecs, outcome.tested_by)
            }
            Verdict::Dependent { .. } => (&any, outcome.tested_by),
            Verdict::Unknown => (&any, "conservative"),
        };
        let mut forward: Vec<DirVec> = Vec::new(); // source -> sink
        let mut backward: Vec<DirVec> = Vec::new(); // sink -> source (reversed vectors)
        let mut loop_independent = false;
        for dv in dirs {
            for atom in dv.atomic_decompositions() {
                if atom.0.iter().all(|d| *d == Dir::Eq) {
                    loop_independent = true;
                } else if atom.is_backward() {
                    backward.push(atom.reverse());
                } else {
                    forward.push(atom);
                }
            }
        }
        let mut edges = Vec::new();
        // Carried dependences, grouped by carrying level.
        for (is_backward, mut vectors) in [(false, forward), (true, backward)] {
            vectors.sort();
            vectors.dedup();
            let mut by_level: BTreeMap<usize, Vec<DirVec>> = BTreeMap::new();
            for v in vectors {
                if let Some(p) = v.0.iter().position(|d| *d == Dir::Lt) {
                    by_level.entry(p + 1).or_default().push(v);
                }
            }
            edges.extend(by_level.into_iter().map(|(level, vs)| PlannedEdge {
                backward: is_backward,
                mirrors_forward: false,
                level: Some(level),
                dir_vecs: summarize(vs).into(),
            }));
        }
        for k in 0..edges.len() {
            let e = &edges[k];
            let mirrors = e.backward
                && edges
                    .iter()
                    .any(|f| !f.backward && f.level == e.level && f.dir_vecs == e.dir_vecs);
            edges[k].mirrors_forward = mirrors;
        }
        if loop_independent {
            edges.push(PlannedEdge {
                backward: false,
                mirrors_forward: false,
                level: None,
                dir_vecs: summarize(vec![DirVec(vec![Dir::Eq; common])]).into(),
            });
        }
        EdgePlan { edges, tested_by }
    }

    /// Emits the planned edges for the member pair `(a, b)`, classified
    /// by its own reference kinds; `same_site` when `a` and `b` are one
    /// access. Allocates nothing: the array name and the vectors are
    /// reference-counted copies.
    fn stamp(&self, a: &AccessSite, b: &AccessSite, same_site: bool, out: &mut Vec<DepEdge>) {
        for edge in &self.edges {
            if same_site && edge.mirrors_forward {
                continue; // the forward twin already stamped this edge
            }
            let (src, dst) = match edge.level {
                Some(_) if edge.backward => (b, a),
                Some(_) => (a, b),
                None if a.stmt <= b.stmt => (a, b),
                None => (b, a),
            };
            if src.stmt == dst.stmt && edge.level.is_none() {
                continue; // intra-statement, same iteration: not a dependence edge
            }
            let kind = match (src.kind, dst.kind) {
                (AccessKind::Write, AccessKind::Read) => DepKind::True,
                (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
                (AccessKind::Write, AccessKind::Write) => DepKind::Output,
                (AccessKind::Read, AccessKind::Read) => continue,
            };
            out.push(DepEdge {
                src: src.stmt,
                dst: dst.stmt,
                kind,
                array: Arc::clone(&src.array),
                dir_vecs: Arc::clone(&edge.dir_vecs),
                level: edge.level,
                tested_by: self.tested_by,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_frontend::parse_program;

    fn graph(src: &str) -> DepGraph {
        let p = parse_program(src).unwrap();
        build_dependence_graph(&p, &Assumptions::new(), TestChoice::DelinearizationFirst)
    }

    #[test]
    fn intro_dependent_loop() {
        // D(i+1) = D(i): true dependence carried by the loop, distance 1.
        let g = graph(
            "
            REAL D(0:9)
            DO 1 i = 0, 8
        1   D(i + 1) = D(i)
            END
        ",
        );
        assert_eq!(g.stats.pairs_tested, 2); // W-W and W-R
        let true_edges: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::True).collect();
        assert_eq!(true_edges.len(), 1);
        assert_eq!(true_edges[0].level, Some(1));
        assert_eq!(*true_edges[0].dir_vecs, [DirVec(vec![Dir::Lt])]);
        // The W-W pair (same site with itself) is independent:
        // i1 + 1 = i2 + 1 with i1 != i2 impossible... actually i1 = i2 is
        // the only solution: loop-independent self-output-dep is dropped.
        assert!(g.edges.iter().all(|e| !(e.kind == DepKind::Output && e.src == e.dst)));
    }

    /// A write paired with itself stamps each carried edge once: the
    /// reversed backward twin of `(<, =)` is the same `S0 → S0` edge. A
    /// class that mixes self pairs and distinct-site pairs still gives the
    /// distinct-site pairs both directions.
    #[test]
    fn same_site_pairs_stamp_each_edge_once() {
        let g = graph(
            "
            REAL B(0:9)
            DO 1 i = 0, 9
            DO 1 j = 0, 9
            B(j) = i
        1   B(j) = j
            END
        ",
        );
        for s in 0..2 {
            let own: Vec<_> = g.edges.iter().filter(|e| e.src.0 == s && e.dst.0 == s).collect();
            assert_eq!(own.len(), 1, "{own:?}");
            assert_eq!((own[0].kind, own[0].level), (DepKind::Output, Some(1)));
            assert_eq!(*own[0].dir_vecs, [DirVec(vec![Dir::Lt, Dir::Eq])]);
        }
        let across = |a: u32, b: u32| {
            g.edges.iter().filter(|e| (e.src.0, e.dst.0) == (a, b) && e.level == Some(1)).count()
        };
        assert_eq!((across(0, 1), across(1, 0)), (1, 1), "{:?}", g.edges);
    }

    #[test]
    fn intro_independent_loop() {
        // D(i) = D(i+5) over i in [0,4]: no dependence at all.
        let g = graph(
            "
            REAL D(0:9)
            DO 1 i = 0, 4
        1   D(i) = D(i + 5)
            END
        ",
        );
        let array_edges: Vec<_> = g.edges.iter().filter(|e| &*e.array == "D").collect();
        assert!(array_edges.iter().all(|e| e.kind == DepKind::Output), "{array_edges:?}");
        assert!(g.stats.proven_independent >= 1);
    }

    #[test]
    fn motivating_example_needs_delinearization() {
        let src = "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ";
        let p = parse_program(src).unwrap();
        // With delinearization: the W-R pair is proven independent.
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::DelinearizationFirst);
        assert!(g.edges.iter().all(|e| e.kind != DepKind::True), "{:?}", g.edges);
        assert_eq!(g.stats.independent_by.get("delinearization"), Some(&1));
        // Battery only: the pair cannot be disproven; a true or anti edge
        // appears.
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::BatteryOnly);
        assert!(g.edges.iter().any(|e| e.kind != DepKind::Output));
    }

    #[test]
    fn backward_vectors_are_reversed() {
        // A(i) = A(i+1): the write at i touches what iteration i-1 read;
        // raw direction is '>', so the edge is an anti dependence read->write
        // with '<'.
        let g = graph(
            "
            REAL A(0:9)
            DO 1 i = 0, 8
        1   A(i) = A(i + 1)
            END
        ",
        );
        let anti: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::Anti).collect();
        assert_eq!(anti.len(), 1);
        assert_eq!(*anti[0].dir_vecs, [DirVec(vec![Dir::Lt])]);
        assert_eq!(anti[0].level, Some(1));
        assert!(g.edges.iter().all(|e| e.kind != DepKind::True));
    }

    #[test]
    fn loop_independent_ordering() {
        // S1 writes A(i); S2 reads A(i): loop-independent true dep S1->S2.
        let g = graph(
            "
            REAL A(0:9), B(0:9)
            DO 1 i = 0, 9
              A(i) = 1
        1   B(i) = A(i)
            END
        ",
        );
        let t: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::True).collect();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].level, None);
        assert!(t[0].src < t[0].dst);
    }

    #[test]
    fn scalar_dependences() {
        // Q accumulates: true, anti, and output deps on Q.
        let g = graph(
            "
            REAL A(0:9)
            DO 1 i = 0, 9
        1   Q = Q + A(i)
            END
        ",
        );
        let kinds: Vec<DepKind> =
            g.edges.iter().filter(|e| &*e.array == "Q").map(|e| e.kind).collect();
        assert!(kinds.contains(&DepKind::True));
        assert!(kinds.contains(&DepKind::Output));
    }

    #[test]
    fn symbolic_bounds_analyzed() {
        // Independent even with symbolic N (needs N >= 1 to know bounds
        // behave; without assumptions the conservative answer is kept).
        let src = "
            REAL A(0:N + N)
            DO 1 i = 0, N - 1
        1   A(i) = A(i + N)
            END
        ";
        let p = parse_program(src).unwrap();
        let mut assume = Assumptions::new();
        assume.set_lower_bound("N", 1);
        let g = build_dependence_graph(&p, &assume, TestChoice::DelinearizationFirst);
        // A(i1) = A(i2 + N) requires i1 - i2 = N with i's in [0, N-1]:
        // Banerjee range [-(N-1) - N, (N-1) - N] = [.., -1] < 0: independent.
        assert!(g.edges.iter().all(|e| e.kind == DepKind::Output), "{:?}", g.edges);
    }

    #[test]
    fn opaque_subscripts_are_conservative() {
        // Fully opaque subscripts: no equations at all, so every direction
        // survives and carried edges appear in both orientations.
        let g = graph(
            "
            REAL A(0:9)
            DO 1 i = 0, 9
        1   A(IFUN(i)) = A(IFUN(i + 1)) + 1
            END
        ",
        );
        assert!(g.edges.iter().any(|e| e.level == Some(1)), "{:?}", g.edges);
        // A second dimension with an affine subscript restores precision:
        // A(IFUN(i), i) can only collide within an iteration.
        let g = graph(
            "
            REAL A(0:9, 0:9)
            DO 1 i = 0, 9
        1   A(IFUN(i), i) = A(IFUN(i + 1), i) + 1
            END
        ",
        );
        assert!(g.edges.iter().all(|e| e.level.is_none()), "{:?}", g.edges);
    }

    /// `A(i + 5*j)` with `i` in `0..=7`: the rows overlap, so
    /// delinearization cannot separate them and the direction walk itself
    /// needs the exact solver — a starved budget degrades it, and the
    /// subtree store saves nodes on it.
    const OVERLAPPING: &str = "
            REAL A(0:99)
            DO 1 j = 0, 3
            DO 1 i = 0, 7
        1   A(i + 5*j) = A(i + 5*j + 2)
            END
        ";

    /// [`OVERLAPPING`] with a second array whose pairs repeat `A`'s shapes.
    const OVERLAPPING_TWICE: &str = "
            REAL A(0:99), B(0:99)
            DO 1 j = 0, 3
            DO 1 i = 0, 7
              A(i + 5*j) = A(i + 5*j + 2)
        1   B(i + 5*j) = B(i + 5*j + 2)
            END
        ";

    /// A zero-node budget starves the exact solver, so the direction walk
    /// over overlapping rows is out of reach — the pair must degrade to a
    /// conservative answer (counted per tripped axis), never to a bogus
    /// independence claim. The repeated statement on `B` puts a second
    /// member in every class: a degraded representative's outcome is never
    /// shared, so each member is tested, and counted, on its own.
    #[test]
    fn zero_node_budget_degrades_but_stays_sound() {
        let single = OVERLAPPING;
        let repeated = OVERLAPPING_TWICE;
        let run = |src: &str, workers: usize| {
            let config = EngineConfig {
                workers,
                budget: BudgetSpec::nodes_only(0),
                ..EngineConfig::default()
            };
            build_dependence_graph_with(&parse_program(src).unwrap(), &Assumptions::new(), &config)
        };
        let g = run(single, 1);
        assert!(g.stats.degraded_pairs > 0, "{:?}", g.stats);
        assert!(g.stats.degraded_by.contains_key(&DegradeReason::Nodes), "{:?}", g.stats);
        // Independence may still be proven by solver-free interval
        // reasoning (that proof is sound under any budget) — only the
        // starved solver's own answers degrade, and those surface as
        // degraded pairs above, never as extra independence.
        let rendered = g.stats.render_summary();
        assert!(rendered.contains("degraded:"), "{rendered}");

        let (_, classes) = classes_of(repeated);
        assert!(classes.tasks.iter().all(|t| t.members == 2), "{:?}", classes.tasks);
        let r1 = run(repeated, 1);
        assert_eq!(r1.stats.pairs_tested, 2 * g.stats.pairs_tested);
        assert_eq!(r1.stats.degraded_pairs, 2 * g.stats.degraded_pairs, "{:?}", r1.stats);
        assert_eq!(
            r1.stats.degraded_by[&DegradeReason::Nodes],
            2 * g.stats.degraded_by[&DegradeReason::Nodes]
        );
        assert_eq!(r1.stats.conservative_pairs, 2 * g.stats.conservative_pairs);
        assert_eq!(r1.stats.proven_independent, 2 * g.stats.proven_independent);
        let r4 = run(repeated, 4);
        assert_eq!(r1.stats.verdict_stats(), r4.stats.verdict_stats());
        assert_eq!(r1.edges, r4.edges);
    }

    /// An already-expired deadline short-circuits every decision at entry:
    /// all pairs degrade, all edges are the conservative all-`*` answer,
    /// and the outcome is identical for any worker count.
    #[test]
    fn expired_deadline_degrades_every_pair() {
        let src = "
            REAL A(0:9)
            DO 1 i = 0, 8
        1   A(i + 1) = A(i)
            END
        ";
        let p = parse_program(src).unwrap();
        let spec = BudgetSpec { node_limit: 1_000_000, deadline_ms: Some(0), cancel: None };
        let run = |workers: usize| {
            let config = EngineConfig { workers, budget: spec.clone(), ..EngineConfig::default() };
            build_dependence_graph_with(&p, &Assumptions::new(), &config)
        };
        let g = run(1);
        assert_eq!(g.stats.degraded_pairs, g.stats.pairs_tested);
        assert_eq!(g.stats.conservative_pairs, g.stats.pairs_tested);
        assert_eq!(g.stats.decided_by.get("degraded"), Some(&g.stats.pairs_tested));
        assert_eq!(g.stats.degraded_by.get(&DegradeReason::Deadline), Some(&g.stats.pairs_tested));
        let g4 = run(4);
        assert_eq!(g.stats.verdict_stats(), g4.stats.verdict_stats());
        assert_eq!(g.edges, g4.edges);
    }

    /// Satellite bugfix audit: a pair that hits the verdict cache reuses an
    /// entry whose own refinements reused subtrees. The fold must charge
    /// the entry's attempts, solver nodes, *and* reuse counters exactly
    /// once — at the key's first reference in source-pair order — never
    /// once per referencing pair, and never a second time because the hit
    /// "also" reused a subtree.
    #[test]
    fn cache_hits_charge_reuse_counters_once() {
        // B's pairs canonicalize to exactly A's problems (variable names
        // and array names are dropped), so the second statement's pairs are
        // pure verdict-cache hits.
        let doubled = parse_program(OVERLAPPING_TWICE).unwrap();
        let single = parse_program(OVERLAPPING).unwrap();
        let config = EngineConfig { workers: 1, incremental: true, ..EngineConfig::default() };
        let g2 = build_dependence_graph_with(&doubled, &Assumptions::new(), &config);
        let g1 = build_dependence_graph_with(&single, &Assumptions::new(), &config);

        assert_eq!(g2.stats.pairs_tested, 2 * g1.stats.pairs_tested);
        assert_eq!(g2.stats.cache_hits, g1.stats.pairs_tested, "B's pairs must hit");
        assert_eq!(g2.stats.cache_misses, g1.stats.cache_misses);
        // The dependent W-R problem refines and reuses; the counters (and
        // every other charged quantity) must match the single-array run
        // exactly — cache hits charge nothing.
        assert!(g2.stats.refine_queries > 0, "{:?}", g2.stats);
        assert!(g2.stats.subtree_reuses > 0, "{:?}", g2.stats);
        assert_eq!(g2.stats.refine_queries, g1.stats.refine_queries);
        assert_eq!(g2.stats.subtree_reuses, g1.stats.subtree_reuses);
        assert_eq!(g2.stats.nodes_saved, g1.stats.nodes_saved);
        assert_eq!(g2.stats.solver_nodes, g1.stats.solver_nodes);
        assert_eq!(g2.stats.attempts_by, g1.stats.attempts_by);
    }

    /// The incremental toggle is a pure perf knob: identical edges and
    /// verdicts, strictly fewer solver nodes when refinements reuse.
    #[test]
    fn incremental_toggle_preserves_graphs_and_saves_nodes() {
        let p = parse_program(OVERLAPPING).unwrap();
        let run = |incremental: bool| {
            let config = EngineConfig { workers: 1, incremental, ..EngineConfig::default() };
            build_dependence_graph_with(&p, &Assumptions::new(), &config)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.edges, off.edges);
        assert_eq!(on.stats.proven_independent, off.stats.proven_independent);
        assert_eq!(on.stats.conservative_pairs, off.stats.conservative_pairs);
        assert_eq!(on.stats.decided_by, off.stats.decided_by);
        assert_eq!(on.stats.refine_queries, off.stats.refine_queries);
        assert_eq!(off.stats.subtree_reuses, 0);
        assert_eq!(off.stats.nodes_saved, 0);
        assert!(on.stats.subtree_reuses > 0, "{:?}", on.stats);
        assert!(on.stats.nodes_saved > 0, "{:?}", on.stats);
        assert!(on.stats.solver_nodes < off.stats.solver_nodes, "{:?}", (on.stats, off.stats));
        let rendered = on.stats.render_summary();
        assert!(rendered.contains("refines:"), "{rendered}");
    }

    /// A degraded representative's outcome is never shared: each other
    /// member of its class becomes a task of its own, while classes whose
    /// representative decided keep their members.
    #[test]
    fn degraded_representatives_split_their_class() {
        let (_, mut classes) = classes_of(
            "
            REAL A(0:9), B(0:9), C(0:9)
            DO 1 i = 0, 8
              A(i + 1) = A(i)
              B(i + 1) = B(i)
        1   C(i + 1) = C(i)
            END
        ",
        );
        let before = classes.tasks.clone();
        assert!(before.iter().all(|t| t.members == 3), "{before:?}");
        let decided =
            Arc::new(CachedOutcome { degraded: None, ..(*lost_outcome().outcome).clone() });
        let outcomes: Vec<PairOutcome> = (0..before.len())
            .map(|t| match t {
                0 => lost_outcome(),
                _ => PairOutcome { outcome: Arc::clone(&decided), nanos: 0, key_fp: None },
            })
            .collect();
        let split = classes.split_degraded(&outcomes);
        assert_eq!(split, before.len());
        assert_eq!(classes.tasks[0], Task { members: 1, ..before[0] });
        assert_eq!(classes.tasks[1..split], before[1..]);
        let alone: Vec<usize> = classes.tasks[split..].iter().map(|t| t.pair).collect();
        let members: Vec<usize> =
            (0..classes.task_of.len()).filter(|&k| classes.task_of[k] >= split).collect();
        assert_eq!(alone, members);
        assert_eq!(alone.len(), 2);
        assert!(classes.tasks[split..].iter().all(|t| t.members == 1 && t.fault.is_none()));
    }

    /// With the cache off nothing is memoized, so every member of a class
    /// is charged as its own reference — exactly as if each were decided.
    #[test]
    fn uncached_members_are_charged_as_their_own_references() {
        let single = OVERLAPPING;
        let repeated = OVERLAPPING_TWICE;
        let run = |src: &str| {
            let config = EngineConfig { workers: 1, cache: false, ..EngineConfig::default() };
            build_dependence_graph_with(&parse_program(src).unwrap(), &Assumptions::new(), &config)
        };
        let (g1, g2) = (run(single), run(repeated));
        assert_eq!(g2.stats.pairs_tested, 2 * g1.stats.pairs_tested);
        assert_eq!((g2.stats.cache_hits, g2.stats.cache_misses), (0, 0));
        assert!(g1.stats.solver_nodes > 0, "{:?}", g1.stats);
        assert_eq!(g2.stats.solver_nodes, 2 * g1.stats.solver_nodes);
        assert_eq!(g2.stats.refine_queries, 2 * g1.stats.refine_queries);
        for (name, n) in &g1.stats.attempts_by {
            assert_eq!(g2.stats.attempts_by[name], 2 * n, "{name}");
        }
        assert!(g2.charged_keys.is_empty());
    }

    /// Chaos draws and applies its faults per pair, class members
    /// included: a Deadline fault on a pair that is not its class's
    /// representative must still degrade exactly that pair.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_faults_reach_class_members() {
        use crate::chaos::ChaosPlan;
        let src = "
            REAL A(0:99), B(0:99)
            DO 1 i = 0, 8
              A(i + 1) = A(i) + B(i)
              A(i + 1) = A(i) + B(i)
              B(i + 1) = B(i) + A(i)
        1   B(i + 1) = B(i) + A(i)
            END
        ";
        let (sites, clean) = classes_of(src);
        let worklist = worklist(&sites);
        let (chaos, deadlines) = (0u64..10_000)
            .find_map(|seed| {
                let plan = ChaosPlan { seed, unit_rate: 0, pair_rate: 100 };
                let chaos = ChaosCtx { plan, unit: "members".into(), attempt: 0 };
                let faults: Vec<_> =
                    worklist.iter().map(|&(i, j)| chaos.pair_fault(i, j)).collect();
                let member_deadline = faults.iter().enumerate().any(|(k, f)| {
                    *f == Some(FaultKind::Deadline) && clean.tasks[clean.task_of[k]].pair != k
                });
                let deadlines = faults.iter().filter(|f| **f == Some(FaultKind::Deadline)).count();
                let panics = faults.contains(&Some(FaultKind::Panic));
                (member_deadline && !panics).then_some((chaos, deadlines))
            })
            .expect("some seed puts a Deadline fault on a class member");
        let p = parse_program(src).unwrap();
        let run = |workers: usize| {
            let config =
                EngineConfig { workers, chaos: Some(chaos.clone()), ..EngineConfig::default() };
            build_dependence_graph_with(&p, &Assumptions::new(), &config)
        };
        let g = run(1);
        assert_eq!(g.stats.degraded_by.get(&DegradeReason::Deadline), Some(&deadlines));
        let g4 = run(4);
        assert_eq!(g.stats.verdict_stats(), g4.stats.verdict_stats());
        assert_eq!(g.edges, g4.edges);
    }

    /// The sites and pair classes of a source program.
    fn classes_of(src: &str) -> (Vec<AccessSite>, PairClasses) {
        let p = parse_program(src).unwrap();
        let sites = delin_frontend::access::collect_accesses(&p, &Assumptions::new());
        let classes = PairClasses::new(&sites, &worklist(&sites), |_, _| None);
        (sites, classes)
    }

    /// Every pair builds exactly its class representative's problem,
    /// variable names included.
    fn assert_classes_sound(src: &str) {
        let (sites, classes) = classes_of(src);
        let worklist = worklist(&sites);
        for (&(i, j), &t) in worklist.iter().zip(&classes.task_of) {
            let (ri, rj) = worklist[classes.tasks[t].pair];
            assert_eq!(
                pair_problem(&sites[i], &sites[j]),
                pair_problem(&sites[ri], &sites[rj]),
                "pair ({i}, {j}) differs from its representative ({ri}, {rj}) in\n{src}"
            );
        }
        assert_eq!(classes.tasks.iter().map(|t| t.members).sum::<usize>(), worklist.len());
    }

    /// The class of the pair of sites `(i, j)`.
    fn class_of(classes: &PairClasses, sites: &[AccessSite], i: usize, j: usize) -> usize {
        let k = worklist(sites).iter().position(|&p| p == (i, j)).expect("pair is in the worklist");
        classes.task_of[k]
    }

    #[test]
    fn pair_classes_split_on_names_bounds_and_depth() {
        // Sites: 0 = A(I+1) write, 1 = A(I) read, in the first nest; 2 and
        // 3 the same in a second, identical nest.
        let (sites, classes) = classes_of(
            "
            REAL A(0:99)
            DO 10 I = 0, 9
        10  A(I + 1) = A(I)
            DO 20 I = 0, 9
        20  A(I + 1) = A(I)
            END
        ",
        );
        assert_eq!(class_of(&classes, &sites, 0, 1), class_of(&classes, &sites, 2, 3));
        // Same shapes, but no common loop: a different class.
        assert_ne!(class_of(&classes, &sites, 0, 1), class_of(&classes, &sites, 0, 3));
        assert_eq!(class_of(&classes, &sites, 0, 0), class_of(&classes, &sites, 2, 2));
        assert_ne!(class_of(&classes, &sites, 0, 0), class_of(&classes, &sites, 0, 2));

        // One differing loop name, or one differing bound, splits the class.
        for (var, bound, what) in [("J", "9", "name"), ("I", "8", "bound")] {
            let src = format!(
                "
                REAL A(0:99)
                DO 10 I = 0, 9
            10  A(I + 1) = A(I)
                DO 20 {var} = 0, {bound}
            20  A({var} + 1) = A({var})
                END
            "
            );
            let (sites, classes) = classes_of(&src);
            assert_ne!(
                class_of(&classes, &sites, 0, 1),
                class_of(&classes, &sites, 2, 3),
                "a differing loop {what} must split the class"
            );
            assert_classes_sound(&src);
        }
    }

    #[test]
    fn pair_classes_sound_on_hand_written_nests() {
        for src in [
            "
            REAL X(200), Y(200), B(100)
            REAL A(100,100), C(100,100)
            DO 30 i = 1, 100
              X(i) = Y(i) + 10
              DO 20 j = 1, 99
                B(j) = A(j, 20)
                DO 10 k = 1, 100
                  A(j+1, k) = B(j) + C(j, k)
        10      CONTINUE
                Y(i+j) = A(j+1, 20)
        20    CONTINUE
        30  CONTINUE
            END
        ",
            "
            REAL A(0:N + N)
            DO 1 i = 0, N - 1
              A(i) = A(i + N)
        1   A(i + N) = A(i)
            END
        ",
            "
            REAL C(0:99), D(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
              C(i + 10*j) = C(i + 10*j + 5)
              D(i + 10*j) = D(i + 10*j + 5) + Q
        1   Q = C(IFUN(i)) + Q
            END
        ",
        ] {
            assert_classes_sound(src);
        }
    }

    /// A generated nest: depth, loop-name pool, and per statement the
    /// array and the write and read subscript picks.
    type Nest = (usize, usize, Vec<(usize, usize, usize)>);

    /// Loop-variable names, bounds and subscripts from small pools, so
    /// generated programs repeat shapes across statements and nests.
    fn generated_program(nests: &[Nest]) -> String {
        const NAMES: [[&str; 3]; 3] = [["I", "J", "K"], ["J", "I", "K"], ["I", "K", "J"]];
        const BOUNDS: [&str; 2] = ["9", "N"];
        const SUBS: [&str; 6] = ["$0", "$0 + 1", "$0 + 10*$1", "$0 + 10*$1 + 5", "3", "IFUN($0)"];
        let mut src = String::from("REAL A(0:999), B(0:999)\n");
        for (n, (depth, names, stmts)) in nests.iter().enumerate() {
            let vars = &NAMES[*names][..*depth];
            let label = 10 * (n + 1);
            for (d, v) in vars.iter().enumerate() {
                src += &format!("DO {label} {v} = 0, {}\n", BOUNDS[(n + d) % 2]);
            }
            let sub =
                |pick: usize| SUBS[pick].replace("$0", vars[0]).replace("$1", vars[vars.len() - 1]);
            for &(array, write, read) in stmts {
                let (lhs, rhs) = if array == 0 { ("A", "B") } else { ("B", "A") };
                src += &format!(
                    "{lhs}({}) = {rhs}({}) + {lhs}({})\n",
                    sub(write),
                    sub(read),
                    sub(read)
                );
            }
            src += &format!("{label} CONTINUE\n");
        }
        src + "END\n"
    }

    proptest::proptest! {
        /// Class keys are sound: on generated programs every pair's problem
        /// equals its representative's, variable names included.
        #[test]
        fn pair_classes_are_sound_on_generated_programs(
            nests in proptest::collection::vec(
                (
                    1usize..=3,
                    0usize..3,
                    proptest::collection::vec((0usize..2, 0usize..6, 0usize..6), 1..4),
                ),
                1..4,
            ),
        ) {
            assert_classes_sound(&generated_program(&nests));
        }
    }
}
