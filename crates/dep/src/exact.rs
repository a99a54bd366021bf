//! Exact integer feasibility for dependence problems.
//!
//! The paper (after Maydan–Hennessy–Lam) notes that deciding a dependence
//! system exactly is integer programming. For the problem sizes dependence
//! analysis produces (a handful of variables with modest bounds) an
//! interval- and divisibility-pruned depth-first search with first-fail
//! variable ordering is exact and fast; we use it as the *ground truth*
//! against which every approximate test — and delinearization itself — is
//! validated.
//!
//! Solves reuse per-thread scratch: the DFS domain buffers come from a pool
//! the previous solve on the same worker left behind, and a refinement
//! query overwrites a recycled problem instead of cloning its base. After
//! warmup a solve allocates only the witness it hands back.

use crate::budget::{DegradeReason, ResourceBudget};
use crate::dirvec::Dir;
use crate::problem::DependenceProblem;
use crate::verdict::{DependenceInfo, DependenceTest, Verdict};
use delin_numeric::fp128::Fp128;
use delin_numeric::{gcd, Interval, NumericError};
use fxhash::FxBuildHasher;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher as _;
use std::sync::Mutex;

thread_local! {
    /// Search nodes explored by [`ExactSolver::solve`] on this thread since
    /// the last [`take_thread_nodes`] call.
    static THREAD_NODES: Cell<u64> = const { Cell::new(0) };
}

/// Returns (and resets) the number of exact-solver search nodes explored on
/// the current thread since the previous call.
///
/// Every [`ExactSolver::solve`] adds its node count to a thread-local
/// accumulator; observability layers bracket a unit of work with two calls
/// to attribute solver effort to it. Thread-local (rather than global)
/// accounting keeps the attribution exact under parallel graph
/// construction.
pub fn take_thread_nodes() -> u64 {
    THREAD_NODES.with(|c| c.replace(0))
}

/// Discards any node count accumulated on the current thread.
///
/// Recovery paths call this after catching a panic that unwound through a
/// solve: whatever partial count the interrupted bracket left behind must
/// not leak into the *next* unit of work's attribution, or post-failure
/// statistics become scheduling-dependent.
pub fn reset_thread_nodes() {
    let _ = take_thread_nodes();
}

/// Reads the current thread's accumulated node count without resetting it.
///
/// [`SubtreeStore::solve_refined`] brackets a fresh solve with two peeks to
/// measure the cost of the subtree it is about to memoize, without
/// disturbing whatever outer bracket (e.g. the engine's per-decision
/// accounting) owns the take/reset cycle.
pub fn peek_thread_nodes() -> u64 {
    THREAD_NODES.with(|c| c.get())
}

fn record_nodes(n: u64) {
    THREAD_NODES.with(|c| c.set(c.get().saturating_add(n)));
}

/// Counters describing incremental-refinement activity (see
/// [`SubtreeStore`]). Accumulated thread-locally alongside the node count
/// and drained with [`take_thread_refine`] by the same observability
/// brackets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineCounters {
    /// Direction-refinement queries answered (fresh or reused).
    pub refine_queries: u64,
    /// Queries answered from a memoized subtree instead of a fresh solve.
    pub subtree_reuses: u64,
    /// Search nodes the reused subtrees cost when first solved — the work
    /// fresh solves would have repeated.
    pub nodes_saved: u64,
}

impl RefineCounters {
    /// Component-wise saturating addition.
    pub fn add(&mut self, other: &RefineCounters) {
        self.refine_queries = self.refine_queries.saturating_add(other.refine_queries);
        self.subtree_reuses = self.subtree_reuses.saturating_add(other.subtree_reuses);
        self.nodes_saved = self.nodes_saved.saturating_add(other.nodes_saved);
    }
}

thread_local! {
    /// Refinement counters accumulated on this thread since the last
    /// [`take_thread_refine`] call.
    static THREAD_REFINE: Cell<RefineCounters> = const {
        Cell::new(RefineCounters { refine_queries: 0, subtree_reuses: 0, nodes_saved: 0 })
    };
}

/// Returns (and resets) the refinement counters accumulated on the current
/// thread since the previous call — the [`RefineCounters`] companion of
/// [`take_thread_nodes`].
pub fn take_thread_refine() -> RefineCounters {
    THREAD_REFINE.with(|c| c.replace(RefineCounters::default()))
}

/// Discards any refinement counters accumulated on the current thread (the
/// companion of [`reset_thread_nodes`], for the same recovery paths).
pub fn reset_thread_refine() {
    let _ = take_thread_refine();
}

fn record_refine(f: impl FnOnce(&mut RefineCounters)) {
    THREAD_REFINE.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// The outcome of an exact solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The system has no integer solution.
    NoSolution,
    /// A witness assignment (one value per problem variable).
    Solution(Vec<i128>),
    /// The search gave up before deciding: its [`ResourceBudget`] exhausted
    /// along the recorded axis. Consumers must treat this as "maybe
    /// dependent" — it is never a proof in either direction.
    Degraded(DegradeReason),
}

impl SolveOutcome {
    /// `true` when a witness was found.
    pub fn is_solution(&self) -> bool {
        matches!(self, SolveOutcome::Solution(_))
    }

    /// `true` when the search exhausted its budget before deciding.
    pub fn is_degraded(&self) -> bool {
        matches!(self, SolveOutcome::Degraded(_))
    }
}

/// Exact solver bounded by a [`ResourceBudget`] (search nodes, wall-clock
/// deadline, cancellation).
#[derive(Debug, Clone)]
pub struct ExactSolver {
    /// The budget every [`ExactSolver::solve`] call runs under. The default
    /// is a node-only budget of 5,000,000 (ground-truth usage); engine code
    /// threads its own per-decision budget in via
    /// [`ExactSolver::with_budget`].
    pub budget: ResourceBudget,
}

/// The default ground-truth node budget.
const DEFAULT_SOLVER_NODES: u64 = 5_000_000;

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver::with_budget(ResourceBudget::with_node_limit(DEFAULT_SOLVER_NODES))
    }
}

/// Per-thread solve scratch: the DFS buffers one solve leaves behind,
/// picked up by the next solve on the same worker thread. After a handful
/// of pairs the miss path stops allocating domain vectors entirely — every
/// `dfs` child frame pops a recycled buffer from `pool`.
#[derive(Default)]
struct SolveScratch {
    assignment: Vec<i128>,
    assigned: Vec<bool>,
    domains: Vec<Interval>,
    pool: Vec<Vec<Interval>>,
}

thread_local! {
    /// The worker's [`SolveScratch`]; `ExactSolver::solve` borrows it for
    /// the duration of one search (the solver never re-enters itself, but a
    /// failed borrow falls back to fresh buffers rather than panicking).
    static SOLVE_SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::default());

    /// The worker's recycled refinement problem: `fresh_solve` overwrites
    /// it via `clone_from` + `impose_directions` instead of cloning the
    /// base problem per query, so after warmup a refinement costs no
    /// problem allocation at all.
    static REFINE_SCRATCH: RefCell<Option<DependenceProblem<i128>>> = const { RefCell::new(None) };
}

struct Search<'a> {
    problem: &'a DependenceProblem<i128>,
    assignment: Vec<i128>,
    assigned: Vec<bool>,
    nodes: u64,
    budget: &'a ResourceBudget,
    /// Recycled domain buffers for child DFS frames.
    pool: Vec<Vec<Interval>>,
}

/// Propagation rounds are capped: bounds consistency can converge slowly
/// (shrinking an interval by one element per round), and the cap keeps the
/// solver sound — propagation only narrows optional information.
const MAX_PROPAGATION_ROUNDS: usize = 64;

impl ExactSolver {
    /// Creates a solver with the given node budget (no deadline, no
    /// cancellation).
    pub fn with_limit(node_limit: u64) -> ExactSolver {
        ExactSolver::with_budget(ResourceBudget::with_node_limit(node_limit))
    }

    /// Creates a solver bounded by an explicit budget. Exhaustion along any
    /// axis is recorded in the budget's trip flag and surfaced as
    /// [`SolveOutcome::Degraded`].
    pub fn with_budget(budget: ResourceBudget) -> ExactSolver {
        ExactSolver { budget }
    }

    /// The solver's search-node limit.
    pub fn node_limit(&self) -> u64 {
        self.budget.node_limit()
    }

    /// Solves the problem exactly.
    ///
    /// Bounds, equations, and inequality constraints are all honoured.
    /// Problems with any empty variable range (`upper < 0`, a zero-trip
    /// loop) have no solution by definition.
    pub fn solve(&self, problem: &DependenceProblem<i128>) -> SolveOutcome {
        if let Some(reason) = self.budget.exhausted() {
            // Already past the deadline (or cancelled): degrade before
            // spending a single node.
            return SolveOutcome::Degraded(reason);
        }
        let n = problem.num_vars();
        if problem.vars().iter().any(|v| v.upper < 0) {
            return SolveOutcome::NoSolution;
        }
        for eq in problem.equations() {
            if equation_obviously_infeasible(problem, eq) {
                return SolveOutcome::NoSolution;
            }
        }
        SOLVE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.run_search(problem, n, &mut scratch),
            // The solver never re-enters itself on one thread; if it
            // somehow does, fresh buffers keep the search correct.
            Err(_) => self.run_search(problem, n, &mut SolveScratch::default()),
        })
    }

    /// The search proper: every buffer comes from (and returns to) the
    /// thread's [`SolveScratch`]. After warmup a solve allocates only the
    /// witness vector it hands back, and only when one exists.
    fn run_search(
        &self,
        problem: &DependenceProblem<i128>,
        n: usize,
        scratch: &mut SolveScratch,
    ) -> SolveOutcome {
        scratch.assignment.clear();
        scratch.assignment.resize(n, 0);
        scratch.assigned.clear();
        scratch.assigned.resize(n, false);
        let mut domains = std::mem::take(&mut scratch.domains);
        domains.clear();
        domains.extend(problem.vars().iter().map(|v| Interval::new(0, v.upper)));
        let mut search = Search {
            problem,
            assignment: std::mem::take(&mut scratch.assignment),
            assigned: std::mem::take(&mut scratch.assigned),
            nodes: 0,
            budget: &self.budget,
            pool: std::mem::take(&mut scratch.pool),
        };
        let result = search.dfs(&mut domains);
        record_nodes(search.nodes);
        let outcome = match result {
            Ok(true) => SolveOutcome::Solution(search.assignment.clone()),
            Ok(false) => SolveOutcome::NoSolution,
            Err(reason) => SolveOutcome::Degraded(reason),
        };
        scratch.assignment = search.assignment;
        scratch.assigned = search.assigned;
        scratch.pool = search.pool;
        scratch.domains = domains;
        outcome
    }
}

/// One decided refinement of a base problem: the outcome of solving the
/// base under a direction vector, plus what the search cost. Degraded
/// outcomes are never stored — an aborted search proves nothing worth
/// replaying.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TreeEntry {
    outcome: SolveOutcome,
    nodes: u64,
}

/// The resumable solve tree of one base problem: every direction-vector
/// refinement decided so far, keyed by the (ordered) vector. Reuse works in
/// two ways:
///
/// * an *exact hit* replays the stored outcome — the solver's DFS is
///   deterministic, so replaying is identical to re-running;
/// * an *ancestor hit* serves a child query from a looser stored vector:
///   `NoSolution` propagates down (the child's solution region is a subset
///   of the ancestor's), and a stored witness answers the child whenever it
///   happens to satisfy the child's direction predicates.
#[derive(Debug, Default)]
pub struct SolveTree {
    entries: BTreeMap<Vec<Dir>, TreeEntry>,
}

/// Shared store of [`SolveTree`]s, keyed by a 128-bit structural
/// fingerprint of the base problem (see [`problem_fp`]) — refinement
/// queries are hot enough that rendering a `String` key per query was a
/// measurable share of their cost. One store is threaded through a whole
/// unit of refinement work (a direction-hierarchy walk, plus the distance
/// extraction that follows it when distances are asked for), so sibling
/// queries — and, via the verdict cache, repeat decisions of the same
/// canonical problem — share subtrees instead of re-solving.
///
/// A disabled store (see [`SubtreeStore::disabled`]) still counts
/// refinement queries but answers every one with a fresh solve: the
/// reference the store is tested against (`hierarchy::exact_oracle`, and
/// the differential tests that compare the two).
#[derive(Debug, Default)]
pub struct SubtreeStore {
    enabled: bool,
    trees: Mutex<HashMap<u128, SolveTree, FxBuildHasher>>,
}

/// One exported solve tree: the base problem's fingerprint plus its
/// refinements as `(direction prefix, outcome, nodes spent)` triples — the
/// plain-data shape [`SubtreeStore::export`] produces and
/// [`SubtreeStore::import`] accepts.
pub type TreeRecord = (u128, Vec<(Vec<Dir>, SolveOutcome, u64)>);

impl SubtreeStore {
    /// An enabled store (the default configuration).
    pub fn new() -> SubtreeStore {
        SubtreeStore { enabled: true, trees: Mutex::new(HashMap::default()) }
    }

    /// A store that never memoizes: every query is a fresh solve. Tests
    /// compare the memoizing store against it.
    pub fn disabled() -> SubtreeStore {
        SubtreeStore { enabled: false, trees: Mutex::new(HashMap::default()) }
    }

    /// Whether this store memoizes subtrees.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of base problems with a memoized tree.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no tree has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every memoized solve tree as plain data, in deterministic order:
    /// base-problem fingerprints ascending, each tree's refinements in the
    /// `BTreeMap` key order. This is the serialization boundary the
    /// persistent verdict cache uses; degraded outcomes never enter a tree,
    /// so the export only ever contains replayable proofs.
    pub fn export(&self) -> Vec<TreeRecord> {
        let trees = self.lock();
        let mut out: Vec<_> = trees
            .iter()
            .map(|(k, tree)| {
                let entries = tree
                    .entries
                    .iter()
                    .map(|(dirs, e)| (dirs.clone(), e.outcome.clone(), e.nodes))
                    .collect();
                (*k, entries)
            })
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Rebuilds memoized trees from records produced by
    /// [`SubtreeStore::export`]. Degraded outcomes are skipped (they are
    /// never storable), and a disabled store imports nothing.
    pub fn import(&self, records: &[TreeRecord]) {
        if !self.enabled {
            return;
        }
        let mut trees = self.lock();
        for (k, entries) in records {
            let tree = trees.entry(*k).or_default();
            for (dirs, outcome, nodes) in entries {
                if outcome.is_degraded() {
                    continue;
                }
                tree.entries
                    .insert(dirs.clone(), TreeEntry { outcome: outcome.clone(), nodes: *nodes });
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u128, SolveTree, FxBuildHasher>> {
        // A panic while holding the lock (chaos fault injection) poisons
        // it; the map itself is always in a consistent state because every
        // mutation is a single insert.
        self.trees.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Solves `base` refined by the direction predicates `dirs`, reusing
    /// any subtree this store has already decided for the same base.
    ///
    /// Node accounting still flows through the solver's [`ResourceBudget`]:
    /// fresh solves are charged exactly as [`ExactSolver::solve`] charges
    /// them, while reuses replay a stored proof at zero node cost (sound
    /// even after budget exhaustion — the proof was paid for when it was
    /// first found). `Degraded` outcomes are never stored and never
    /// replayed.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from imposing the direction
    /// predicates (`Dir::Ne` is handled here by atom-splitting, so it does
    /// *not* error like [`DependenceProblem::with_direction`]).
    pub fn solve_refined(
        &self,
        solver: &ExactSolver,
        base: &DependenceProblem<i128>,
        dirs: &[Dir],
    ) -> Result<SolveOutcome, NumericError> {
        record_refine(|c| c.refine_queries += 1);
        self.solve_refined_inner(solver, base, dirs)
    }

    fn solve_refined_inner(
        &self,
        solver: &ExactSolver,
        base: &DependenceProblem<i128>,
        dirs: &[Dir],
    ) -> Result<SolveOutcome, NumericError> {
        // `≠` is not convex; split it into `<` and `>` (the engine's
        // hierarchy walk never asks for it, but the API stays total).
        if let Some(k) = dirs.iter().position(|&d| d == Dir::Ne) {
            let mut split = dirs.to_vec();
            split[k] = Dir::Lt;
            let lt = self.solve_refined_inner(solver, base, &split)?;
            if lt.is_solution() {
                return Ok(lt);
            }
            split[k] = Dir::Gt;
            let gt = self.solve_refined_inner(solver, base, &split)?;
            if gt.is_solution() {
                return Ok(gt);
            }
            return Ok(match (lt, gt) {
                (SolveOutcome::NoSolution, SolveOutcome::NoSolution) => SolveOutcome::NoSolution,
                (SolveOutcome::Degraded(r), _) | (_, SolveOutcome::Degraded(r)) => {
                    SolveOutcome::Degraded(r)
                }
                _ => unreachable!("solutions returned early"),
            });
        }
        if !self.enabled {
            return Ok(self.fresh_solve(solver, base, dirs)?.0);
        }
        let key = problem_fp(base);
        if let Some(tree) = self.lock().get(&key) {
            if let Some(entry) = tree.entries.get(dirs) {
                let (outcome, nodes) = (entry.outcome.clone(), entry.nodes);
                record_refine(|c| {
                    c.subtree_reuses += 1;
                    c.nodes_saved = c.nodes_saved.saturating_add(nodes);
                });
                return Ok(outcome);
            }
            // Ancestor scan: any stored vector that subsumes `dirs`
            // element-wise decided a superset of this query's region.
            for (anc, entry) in &tree.entries {
                if !subsumes(anc, dirs) {
                    continue;
                }
                match &entry.outcome {
                    SolveOutcome::NoSolution => {
                        let nodes = entry.nodes;
                        record_refine(|c| {
                            c.subtree_reuses += 1;
                            c.nodes_saved = c.nodes_saved.saturating_add(nodes);
                        });
                        return Ok(SolveOutcome::NoSolution);
                    }
                    SolveOutcome::Solution(w) if witness_satisfies(base, dirs, w) => {
                        let (outcome, nodes) = (entry.outcome.clone(), entry.nodes);
                        record_refine(|c| {
                            c.subtree_reuses += 1;
                            c.nodes_saved = c.nodes_saved.saturating_add(nodes);
                        });
                        return Ok(outcome);
                    }
                    _ => {}
                }
            }
        }
        // Fresh solve outside the lock: concurrent sharers may duplicate a
        // solve (benign — the duplicate entry is identical, the DFS being
        // deterministic) but never serialize on each other's search.
        let (outcome, nodes) = self.fresh_solve(solver, base, dirs)?;
        if outcome.is_degraded() {
            return Ok(outcome);
        }
        let mut trees = self.lock();
        let tree = trees.entry(key).or_default();
        // Move the outcome into the tree and answer from the stored entry:
        // a store costs the key allocation alone, not the key plus extra
        // outcome clones (and cloning `NoSolution` — the common memoized
        // case — back out is free).
        let entry = tree.entries.entry(dirs.to_vec()).or_insert(TreeEntry { outcome, nodes });
        Ok(entry.outcome.clone())
    }

    fn fresh_solve(
        &self,
        solver: &ExactSolver,
        base: &DependenceProblem<i128>,
        dirs: &[Dir],
    ) -> Result<(SolveOutcome, u64), NumericError> {
        let before = peek_thread_nodes();
        // Overwrite the thread's recycled refinement problem in place:
        // `clone_from` reuses every equation/inequality/name buffer the
        // previous query left behind, so imposing the directions is the
        // only work that grows it.
        let outcome = REFINE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut slot) => {
                let scratch = match slot.as_mut() {
                    Some(s) => {
                        s.clone_from(base);
                        s
                    }
                    None => slot.insert(base.clone()),
                };
                scratch.impose_directions(dirs)?;
                Ok(solver.solve(scratch))
            }
            Err(_) => Ok(solver.solve(&base.with_directions(dirs)?)),
        })?;
        Ok((outcome, peek_thread_nodes().saturating_sub(before)))
    }
}

/// `true` when every element of `child` is subsumed by the corresponding
/// element of `anc` — i.e. the child's constrained region is a subset.
fn subsumes(anc: &[Dir], child: &[Dir]) -> bool {
    anc.len() == child.len() && child.iter().zip(anc).all(|(&c, &a)| c.subsumed_by(a))
}

/// Does a stored witness satisfy a (tighter) direction vector? Mirrors the
/// encoding of [`DependenceProblem::with_direction`]: `<` means the source
/// variable is strictly below the sink variable.
fn witness_satisfies(base: &DependenceProblem<i128>, dirs: &[Dir], w: &[i128]) -> bool {
    base.common_loops().iter().zip(dirs).all(|(&(x, y), &d)| {
        let rel = match w[x].cmp(&w[y]) {
            std::cmp::Ordering::Less => Dir::Lt,
            std::cmp::Ordering::Equal => Dir::Eq,
            std::cmp::Ordering::Greater => Dir::Gt,
        };
        rel.subsumed_by(d)
    })
}

/// A 128-bit structural fingerprint of a base problem, used as the
/// [`SubtreeStore`] key. Like the `String` render it replaces, this ignores
/// variable *names* (two textually different but structurally identical
/// problems share a tree) and includes the common-loop pairing (direction
/// predicates mean different constraints under different pairings); unlike
/// the render it costs no allocation per refinement query. Every section is
/// length-prefixed and tagged so sections cannot alias, and the two
/// decorrelated [`Fp128`] lanes make collisions negligible at the scale of
/// one store (the trees of a single canonical problem's refinements).
fn problem_fp(p: &DependenceProblem<i128>) -> u128 {
    let mut h = Fp128::new();
    h.write_u8(1);
    h.write_usize(p.vars().len());
    for v in p.vars() {
        h.write_u128(v.upper as u128);
    }
    h.write_u8(2);
    h.write_usize(p.equations().len());
    for eq in p.equations() {
        h.write_u128(eq.c0 as u128);
        h.write_usize(eq.coeffs.len());
        for &c in &eq.coeffs {
            h.write_u128(c as u128);
        }
    }
    h.write_u8(3);
    h.write_usize(p.inequalities().len());
    for iq in p.inequalities() {
        h.write_u128(iq.c0 as u128);
        h.write_usize(iq.coeffs.len());
        for &c in &iq.coeffs {
            h.write_u128(c as u128);
        }
    }
    h.write_u8(4);
    h.write_usize(p.common_loops().len());
    for &(x, y) in p.common_loops() {
        h.write_usize(x);
        h.write_usize(y);
    }
    h.finish128()
}

/// Cheap whole-equation screen: value interval must contain zero and the
/// gcd of the coefficients must divide the constant.
fn equation_obviously_infeasible(
    problem: &DependenceProblem<i128>,
    eq: &crate::problem::LinEq<i128>,
) -> bool {
    let mut iv = Interval::point(eq.c0);
    for (k, &c) in eq.coeffs.iter().enumerate() {
        let Ok(scaled) = Interval::of_scaled_var(c, problem.vars()[k].upper) else {
            return false; // overflow: cannot conclude anything
        };
        let Ok(next) = iv.checked_add(&scaled) else {
            return false;
        };
        iv = next;
    }
    if !iv.contains_zero() {
        return true;
    }
    let g = eq.coeffs.iter().fold(0i128, |g, &c| gcd(g, c));
    if g == 0 {
        return eq.c0 != 0;
    }
    eq.c0 % g != 0
}

impl Search<'_> {
    /// Returns `Ok(true)` on success, `Ok(false)` on exhaustion of the
    /// search space, `Err(reason)` on budget exhaustion.
    fn dfs(&mut self, domains: &mut [Interval]) -> Result<bool, DegradeReason> {
        self.nodes += 1;
        self.budget.check(self.nodes)?;
        let n = self.problem.num_vars();
        // Bounds-consistency propagation to (capped) fixpoint: narrow every
        // unassigned variable's domain against every constraint. This keeps
        // infeasibility proofs polynomial when contradictions sit between
        // variables the branching order would otherwise reach late.
        for _round in 0..MAX_PROPAGATION_ROUNDS {
            let mut changed = false;
            for var in 0..n {
                if self.assigned[var] {
                    continue;
                }
                let range = self.feasible_range(var, domains).unwrap_or(domains[var]);
                if range.is_empty() {
                    return Ok(false);
                }
                if range != domains[var] {
                    domains[var] = range;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // First-fail: branch on the unassigned variable with the smallest
        // domain.
        let mut pick: Option<usize> = None;
        for var in 0..n {
            if self.assigned[var] {
                continue;
            }
            let better = match pick {
                None => true,
                Some(best) => {
                    domains[var].len().unwrap_or(i128::MAX)
                        < domains[best].len().unwrap_or(i128::MAX)
                }
            };
            if better {
                pick = Some(var);
            }
        }
        let Some(var) = pick else {
            return Ok(self.check_full());
        };
        // Divisibility prune over the partially-assigned equations.
        if self.divisibility_prune() {
            return Ok(false);
        }
        let range = domains[var];
        self.assigned[var] = true;
        for v in range.lo..=range.hi {
            self.assignment[var] = v;
            // Child frames copy the parent's post-propagation domains into
            // a buffer recycled through the pool.
            let mut child = self.pool.pop().unwrap_or_default();
            child.clear();
            child.extend_from_slice(domains);
            let found = self.dfs(&mut child);
            self.pool.push(child);
            if found? {
                return Ok(true);
            }
        }
        self.assigned[var] = false;
        self.assignment[var] = 0;
        Ok(false)
    }

    fn check_full(&self) -> bool {
        self.problem.is_solution(&self.assignment).unwrap_or(false)
    }

    /// The interval of values for `var` consistent with every constraint
    /// given the current partial assignment and the other variables'
    /// current domains. `None` on arithmetic overflow (callers fall back
    /// to the current domain).
    fn feasible_range(&self, var: usize, domains: &[Interval]) -> Option<Interval> {
        let mut range = domains[var];
        for eq in self.problem.equations() {
            range = range.intersect(&self.constraint_range(eq.c0, &eq.coeffs, var, true, domains)?);
            if range.is_empty() {
                return Some(range);
            }
        }
        for iq in self.problem.inequalities() {
            range =
                range.intersect(&self.constraint_range(iq.c0, &iq.coeffs, var, false, domains)?);
            if range.is_empty() {
                return Some(range);
            }
        }
        Some(range)
    }

    /// For constraint `c0 + Σ ck·zk (= | ≥) 0`, the interval of `var`
    /// values that keep it satisfiable given the other variables'
    /// intervals.
    fn constraint_range(
        &self,
        c0: i128,
        coeffs: &[i128],
        var: usize,
        is_equation: bool,
        domains: &[Interval],
    ) -> Option<Interval> {
        let c_var = coeffs[var];
        let full = domains[var];
        if c_var == 0 {
            return Some(full);
        }
        // rest = c0 + assigned terms + interval of other unassigned terms
        let mut rest = Interval::point(c0);
        for (k, &c) in coeffs.iter().enumerate() {
            if k == var || c == 0 {
                continue;
            }
            let contrib = if self.assigned[k] {
                Interval::point(c.checked_mul(self.assignment[k])?)
            } else {
                domains[k].checked_scale(c).ok()?
            };
            rest = rest.checked_add(&contrib).ok()?;
        }
        // Equation: need c_var·v ∈ [-rest.hi, -rest.lo].
        // Inequality (≥ 0): need c_var·v ≥ -rest.hi, i.e. c_var·v ∈
        // [-rest.hi, +∞) regardless of the sign of c_var (the sign only
        // affects the conversion to bounds on v below).
        let (lo, hi) = if is_equation { (-rest.hi, -rest.lo) } else { (-rest.hi, i128::MAX / 2) };
        // v ∈ [ceil(lo/c), floor(hi/c)] for c>0; reversed for c<0.
        let (vlo, vhi) = if c_var > 0 {
            (
                delin_numeric::int::ceil_div(lo, c_var).ok()?,
                delin_numeric::int::floor_div(hi, c_var).ok()?,
            )
        } else {
            (
                delin_numeric::int::ceil_div(hi, c_var).ok()?,
                delin_numeric::int::floor_div(lo, c_var).ok()?,
            )
        };
        Some(full.intersect(&Interval::new(vlo, vhi)))
    }

    /// `true` when some equation's fixed residual cannot be matched by the
    /// remaining terms for divisibility reasons.
    fn divisibility_prune(&self) -> bool {
        'eqs: for eq in self.problem.equations() {
            let mut fixed = eq.c0;
            let mut g = 0i128;
            for (k, &c) in eq.coeffs.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if self.assigned[k] {
                    let Some(t) = c.checked_mul(self.assignment[k]) else {
                        continue 'eqs;
                    };
                    let Some(f) = fixed.checked_add(t) else {
                        continue 'eqs;
                    };
                    fixed = f;
                } else {
                    g = gcd(g, c);
                }
            }
            if g == 0 {
                if fixed != 0 {
                    return true;
                }
            } else if fixed % g != 0 {
                return true;
            }
        }
        false
    }
}

impl DependenceTest<i128> for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn test(&self, problem: &DependenceProblem<i128>) -> Verdict {
        match self.solve(problem) {
            SolveOutcome::NoSolution => Verdict::Independent,
            SolveOutcome::Solution(w) => Verdict::Dependent {
                exact: true,
                info: DependenceInfo { witness: Some(w), ..DependenceInfo::default() },
            },
            // Budget exhaustion is the sound conservative answer: the pair
            // may depend, nothing was proven.
            SolveOutcome::Degraded(_) => Verdict::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::DegradeReason;
    use crate::dirvec::Dir;
    use crate::problem::DependenceProblem;

    fn motivating() -> DependenceProblem<i128> {
        // i1 + 10 j1 - i2 - 10 j2 - 5 = 0
        DependenceProblem::single_equation(-5, vec![1, 10, -1, -10], vec![4, 9, 4, 9])
    }

    #[test]
    fn motivating_example_has_no_solution() {
        assert_eq!(ExactSolver::default().solve(&motivating()), SolveOutcome::NoSolution);
    }

    #[test]
    fn intro_dependent_example() {
        // D(i+1) = D(i): i1 + 1 - i2 = 0, i in [0,8] — dependent.
        let p = DependenceProblem::single_equation(1, vec![1, -1], vec![8, 8]);
        let out = ExactSolver::default().solve(&p);
        match out {
            SolveOutcome::Solution(w) => {
                assert!(p.is_solution(&w).unwrap());
            }
            other => panic!("expected a solution, got {other:?}"),
        }
    }

    #[test]
    fn intro_independent_example() {
        // D(i) = D(i+5): i1 - i2 - 5 = 0, i in [0,4] — independent.
        let p = DependenceProblem::single_equation(-5, vec![1, -1], vec![4, 4]);
        assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::NoSolution);
    }

    #[test]
    fn zero_trip_loop() {
        let p = DependenceProblem::single_equation(0, vec![1, -1], vec![-1, 4]);
        assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::NoSolution);
    }

    #[test]
    fn honors_inequalities_and_directions() {
        // i1 - i2 = 0 with direction `<` is infeasible; with `=` feasible.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 8);
        let y = b.var("i2", 8);
        b.equation(0, vec![1, -1]);
        b.common_pair(x, y);
        let p = b.build();
        let lt = p.with_direction(0, Dir::Lt).unwrap();
        assert_eq!(ExactSolver::default().solve(&lt), SolveOutcome::NoSolution);
        let eq = p.with_direction(0, Dir::Eq).unwrap();
        assert!(ExactSolver::default().solve(&eq).is_solution());
    }

    #[test]
    fn multi_equation_system() {
        // x = 3, y = x, y + z = 5 over [0,10]^3
        let mut b = DependenceProblem::<i128>::builder();
        b.var("x", 10);
        b.var("y", 10);
        b.var("z", 10);
        b.equation(-3, vec![1, 0, 0]);
        b.equation(0, vec![1, -1, 0]);
        b.equation(-5, vec![0, 1, 1]);
        let p = b.build();
        match ExactSolver::default().solve(&p) {
            SolveOutcome::Solution(w) => assert_eq!(w, vec![3, 3, 2]),
            other => panic!("expected solution, got {other:?}"),
        }
    }

    #[test]
    fn gcd_screen() {
        // 2x - 4y = 1 is infeasible by divisibility alone, with huge bounds.
        let p = DependenceProblem::single_equation(1, vec![2, -4], vec![1_000_000, 1_000_000]);
        assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::NoSolution);
    }

    #[test]
    fn divisibility_prune_with_partial_assignment() {
        // x + 2y + 4z = 3 over small bounds: solutions exist (x=1, y=1);
        // and x + 2y = 1, 4z = 2-ish cases get pruned by divisibility.
        let p = DependenceProblem::single_equation(-3, vec![1, 2, 4], vec![1, 1, 1]);
        assert!(ExactSolver::default().solve(&p).is_solution());
        let p = DependenceProblem::single_equation(-1, vec![2, 4, 8], vec![5, 5, 5]);
        assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::NoSolution);
    }

    #[test]
    fn node_limit_reports_unknown() {
        // Many variables, a constraint structure the prunes cannot collapse:
        // Σ xi - Σ yi = 0 admits huge search with a tiny budget.
        let n = 10;
        let mut coeffs = vec![1i128; n];
        coeffs.extend(vec![-1i128; n]);
        let p = DependenceProblem::single_equation(-1, coeffs, vec![9; 2 * n]);
        let tiny = ExactSolver::with_limit(2);
        assert_eq!(tiny.solve(&p), SolveOutcome::Degraded(DegradeReason::Nodes));
        assert!(tiny.solve(&p).is_degraded());
        assert_eq!(tiny.budget.tripped(), Some(DegradeReason::Nodes));
        assert!(DependenceTest::test(&tiny, &p).is_unknown());
    }

    #[test]
    fn expired_deadline_degrades_before_searching() {
        use crate::budget::{CancelToken, ResourceBudget};
        let p = DependenceProblem::single_equation(1, vec![1, -1], vec![8, 8]);
        let solver = ExactSolver::with_budget(
            ResourceBudget::unlimited().deadline_at(std::time::Instant::now()),
        );
        assert_eq!(solver.solve(&p), SolveOutcome::Degraded(DegradeReason::Deadline));
        assert!(DependenceTest::test(&solver, &p).is_unknown());

        let token = CancelToken::new();
        let cancelled =
            ExactSolver::with_budget(ResourceBudget::unlimited().with_cancel(token.clone()));
        assert!(cancelled.solve(&p).is_solution(), "un-cancelled budget solves normally");
        token.cancel();
        assert_eq!(cancelled.solve(&p), SolveOutcome::Degraded(DegradeReason::Cancelled));
    }

    #[test]
    fn free_variables_cost_nothing() {
        // A contradiction between j1/j2 with two completely free i's: the
        // first-fail ordering must detect it without enumerating the i's.
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 1_000_000);
        let j1 = b.var("j1", 97);
        let i2 = b.var("i2", 1_000_000);
        let j2 = b.var("j2", 97);
        b.common_pair(i1, i2).common_pair(j1, j2);
        b.equation(0, vec![0, 1, 0, -1]); // j1 = j2
        let p = b
            .build()
            .with_direction(1, Dir::Gt) // j1 >= j2 + 1: contradiction
            .unwrap();
        let quick = ExactSolver::with_limit(10_000);
        assert_eq!(quick.solve(&p), SolveOutcome::NoSolution);
    }

    #[test]
    fn verdict_mapping() {
        let s = ExactSolver::default();
        assert_eq!(s.name(), "exact");
        assert!(DependenceTest::test(&s, &motivating()).is_independent());
        let dep = DependenceProblem::single_equation(1, vec![1, -1], vec![8, 8]);
        let v = DependenceTest::test(&s, &dep);
        assert!(matches!(v, Verdict::Dependent { exact: true, .. }));
        assert!(v.info().unwrap().witness.is_some());
    }

    #[test]
    fn node_accounting_is_per_thread() {
        let _ = take_thread_nodes(); // drain whatever earlier tests left
        assert_eq!(take_thread_nodes(), 0);
        let _ = ExactSolver::default().solve(&motivating());
        assert!(take_thread_nodes() > 0);
        assert_eq!(take_thread_nodes(), 0);
        // Screened-out problems may cost zero nodes but must not panic.
        let zero_trip = DependenceProblem::single_equation(0, vec![1, -1], vec![-1, 4]);
        let _ = ExactSolver::default().solve(&zero_trip);
        let _ = take_thread_nodes();
    }

    /// A single-`<`-dependence problem with one common pair:
    /// `i1 + 1 = i2` over `[0,8]²`.
    fn shift_by_one() -> DependenceProblem<i128> {
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 8);
        let y = b.var("i2", 8);
        b.equation(1, vec![1, -1]);
        b.common_pair(x, y);
        b.build()
    }

    #[test]
    fn solve_refined_exact_hit_replays_at_zero_cost() {
        reset_thread_refine();
        reset_thread_nodes();
        let store = SubtreeStore::new();
        let solver = ExactSolver::default();
        let p = shift_by_one();
        let first = store.solve_refined(&solver, &p, &[Dir::Lt]).unwrap();
        assert!(first.is_solution());
        let after_first = peek_thread_nodes();
        assert!(after_first > 0, "a fresh refinement costs nodes");
        let second = store.solve_refined(&solver, &p, &[Dir::Lt]).unwrap();
        assert_eq!(first, second, "replay must be identical to the fresh solve");
        assert_eq!(peek_thread_nodes(), after_first, "an exact hit costs zero nodes");
        let c = take_thread_refine();
        assert_eq!(c.refine_queries, 2);
        assert_eq!(c.subtree_reuses, 1);
        assert!(c.nodes_saved > 0);
        reset_thread_nodes();
    }

    #[test]
    fn solve_refined_propagates_ancestor_no_solution() {
        reset_thread_refine();
        reset_thread_nodes();
        let store = SubtreeStore::new();
        let solver = ExactSolver::default();
        // An independent problem: i1 = i2 + 5 over [0,4]². The root `*`
        // proof must serve every tighter query without another solve.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 4);
        let y = b.var("i2", 4);
        b.equation(-5, vec![1, -1]);
        b.common_pair(x, y);
        let indep = b.build();
        let root = store.solve_refined(&solver, &indep, &[Dir::Any]).unwrap();
        assert_eq!(root, SolveOutcome::NoSolution);
        let nodes_after_root = peek_thread_nodes();
        for d in [Dir::Lt, Dir::Eq, Dir::Gt, Dir::Le, Dir::Ge] {
            let out = store.solve_refined(&solver, &indep, &[d]).unwrap();
            assert_eq!(out, SolveOutcome::NoSolution);
        }
        assert_eq!(peek_thread_nodes(), nodes_after_root, "children served from the root proof");
        let c = take_thread_refine();
        assert_eq!(c.refine_queries, 6);
        assert_eq!(c.subtree_reuses, 5);
        reset_thread_nodes();
    }

    #[test]
    fn solve_refined_reuses_ancestor_witness_when_it_fits() {
        reset_thread_refine();
        reset_thread_nodes();
        let store = SubtreeStore::new();
        let solver = ExactSolver::default();
        let p = shift_by_one();
        // The root solve finds some witness; every witness of this problem
        // has i1 < i2, so the `<` child must be served from it.
        let root = store.solve_refined(&solver, &p, &[Dir::Any]).unwrap();
        assert!(root.is_solution());
        let nodes_after_root = peek_thread_nodes();
        let child = store.solve_refined(&solver, &p, &[Dir::Lt]).unwrap();
        assert_eq!(root, child);
        assert_eq!(peek_thread_nodes(), nodes_after_root, "witness replay costs zero nodes");
        // `=` is NOT satisfied by the witness: a fresh solve runs and
        // proves infeasibility.
        let eq = store.solve_refined(&solver, &p, &[Dir::Eq]).unwrap();
        assert_eq!(eq, SolveOutcome::NoSolution);
        assert!(peek_thread_nodes() > nodes_after_root);
        let c = take_thread_refine();
        assert_eq!(c.refine_queries, 3);
        assert_eq!(c.subtree_reuses, 1);
        reset_thread_nodes();
    }

    #[test]
    fn disabled_store_counts_queries_but_never_reuses() {
        reset_thread_refine();
        reset_thread_nodes();
        let store = SubtreeStore::disabled();
        assert!(!store.is_enabled());
        let solver = ExactSolver::default();
        let p = shift_by_one();
        let a = store.solve_refined(&solver, &p, &[Dir::Lt]).unwrap();
        let cost_one = peek_thread_nodes();
        let b = store.solve_refined(&solver, &p, &[Dir::Lt]).unwrap();
        assert_eq!(a, b);
        assert_eq!(peek_thread_nodes(), cost_one * 2, "every query re-solves");
        assert!(store.is_empty());
        let c = take_thread_refine();
        assert_eq!(c.refine_queries, 2);
        assert_eq!(c.subtree_reuses, 0);
        assert_eq!(c.nodes_saved, 0);
        reset_thread_nodes();
    }

    #[test]
    fn solve_refined_splits_ne() {
        let store = SubtreeStore::new();
        let solver = ExactSolver::default();
        // i1 + 1 = i2: `≠` holds (via `<`), `=` does not.
        let p = shift_by_one();
        assert!(store.solve_refined(&solver, &p, &[Dir::Ne]).unwrap().is_solution());
        // i1 = i2: `≠` is infeasible.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 8);
        let y = b.var("i2", 8);
        b.equation(0, vec![1, -1]);
        b.common_pair(x, y);
        let same = b.build();
        assert_eq!(
            store.solve_refined(&solver, &same, &[Dir::Ne]).unwrap(),
            SolveOutcome::NoSolution
        );
        reset_thread_refine();
        reset_thread_nodes();
    }

    #[test]
    fn degraded_refinements_are_never_stored_or_replayed() {
        reset_thread_refine();
        reset_thread_nodes();
        let store = SubtreeStore::new();
        let starved = ExactSolver::with_limit(0);
        let p = shift_by_one();
        let a = store.solve_refined(&starved, &p, &[Dir::Lt]).unwrap();
        assert!(a.is_degraded());
        assert!(store.is_empty(), "degraded outcomes must not be memoized");
        let b = store.solve_refined(&starved, &p, &[Dir::Lt]).unwrap();
        assert!(b.is_degraded());
        let c = take_thread_refine();
        assert_eq!(c.subtree_reuses, 0);
        // A proof stored under a healthy budget still replays after the
        // budget starves: the proof was paid for once and stays sound.
        let healthy = ExactSolver::default();
        let proof = store.solve_refined(&healthy, &p, &[Dir::Eq]).unwrap();
        assert_eq!(proof, SolveOutcome::NoSolution);
        let replay = store.solve_refined(&starved, &p, &[Dir::Eq]).unwrap();
        assert_eq!(replay, SolveOutcome::NoSolution);
        assert_eq!(take_thread_refine().subtree_reuses, 1);
        reset_thread_nodes();
    }

    #[test]
    fn structurally_identical_problems_share_a_tree() {
        reset_thread_refine();
        let store = SubtreeStore::new();
        let solver = ExactSolver::default();
        let p = shift_by_one();
        // Same structure, different variable names.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("a", 8);
        let y = b.var("b", 8);
        b.equation(1, vec![1, -1]);
        b.common_pair(x, y);
        let q = b.build();
        let _ = store.solve_refined(&solver, &p, &[Dir::Lt]).unwrap();
        let _ = store.solve_refined(&solver, &q, &[Dir::Lt]).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(take_thread_refine().subtree_reuses, 1);
        reset_thread_nodes();
    }

    #[test]
    fn brute_force_agreement_small() {
        // Exhaustive cross-check on a family of small random-ish systems.
        let mut cases = Vec::new();
        for c0 in -6i128..=6 {
            for a in [-3i128, -1, 2, 5] {
                for b in [-2i128, 1, 4] {
                    cases.push((c0, a, b));
                }
            }
        }
        for (c0, a, b) in cases {
            let p = DependenceProblem::single_equation(c0, vec![a, b], vec![3, 4]);
            let brute = (0..=3).any(|x| (0..=4).any(|y| c0 + a * x + b * y == 0));
            let got = ExactSolver::default().solve(&p).is_solution();
            assert_eq!(got, brute, "c0={c0} a={a} b={b}");
        }
    }
}
