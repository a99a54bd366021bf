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
//! Bounds propagation works on a sparse copy of the constraints: each row's
//! nonzero terms, and for each variable the rows that mention it, so a
//! node narrows a variable against only those rows and sums only their
//! nonzero terms.
//!
//! Solves reuse per-thread scratch: the DFS domain buffers and the sparse
//! rows come from the previous solve on the same worker, and the queries
//! of one direction walk ([`ExactWalk`]) share one copy of their base
//! problem, each pushing and popping only its direction rows. After warmup
//! a solve allocates only the witness it hands back.

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

/// Per-thread solve scratch: the DFS buffers and sparse rows one solve
/// leaves behind, picked up by the next solve on the same worker thread.
/// After a handful of pairs the miss path stops allocating them entirely —
/// every `dfs` child frame pops a recycled buffer from `pool`, and the
/// sparse tables are rebuilt in place.
#[derive(Default)]
struct SolveScratch {
    assignment: Vec<i128>,
    assigned: Vec<bool>,
    domains: Vec<Interval>,
    pool: Vec<Vec<Interval>>,
    rows: SparseRows,
}

thread_local! {
    /// The worker's [`SolveScratch`]; `ExactSolver::solve` borrows it for
    /// the duration of one search (the solver never re-enters itself, but a
    /// failed borrow falls back to fresh buffers rather than panicking).
    static SOLVE_SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::default());

    /// The worker's recycled refinement problem. An [`ExactWalk`] (a lone
    /// [`SubtreeStore::solve_refined`] is a walk of one query) borrows it
    /// for the whole walk and overwrites it with its base via `clone_from`,
    /// which reuses every buffer the previous walk left behind. After
    /// warmup a refinement costs no problem allocation at all.
    static REFINE_SCRATCH: RefCell<Option<DependenceProblem<i128>>> = const { RefCell::new(None) };
}

/// A problem's constraints in sparse form, rebuilt at the start of every
/// solve: each row's nonzero terms, and each variable's uses (the rows
/// that mention it, with its coefficient there).
#[derive(Default)]
struct SparseRows {
    /// The rows in the problem's order: equations, then inequalities.
    rows: Vec<SparseRow>,
    /// Every row's nonzero `(variable, coefficient)` terms, row after row,
    /// variables ascending within a row.
    terms: Vec<(usize, i128)>,
    /// Every variable's `(row, coefficient)` uses, variable after variable,
    /// rows ascending within a variable.
    uses: Vec<(usize, i128)>,
    /// Per variable, the end of its run in `uses`.
    uses_end: Vec<usize>,
}

/// One constraint `c0 + Σ terms (= | ≥) 0` of a [`SparseRows`] table.
struct SparseRow {
    c0: i128,
    is_equation: bool,
    /// The row's terms are `terms[start..end]`.
    start: usize,
    end: usize,
}

impl SparseRows {
    /// Overwrites the tables with `problem`'s constraints, reusing their
    /// buffers.
    fn rebuild(&mut self, problem: &DependenceProblem<i128>) {
        self.rows.clear();
        self.terms.clear();
        self.uses.clear();
        self.uses_end.clear();
        for (c0, coeffs, is_equation) in dense_rows(problem) {
            let start = self.terms.len();
            self.terms
                .extend(coeffs.iter().enumerate().filter(|(_, &c)| c != 0).map(|(k, &c)| (k, c)));
            self.rows.push(SparseRow { c0, is_equation, start, end: self.terms.len() });
        }
        for var in 0..problem.num_vars() {
            for (r, (_, coeffs, _)) in dense_rows(problem).enumerate() {
                if coeffs[var] != 0 {
                    self.uses.push((r, coeffs[var]));
                }
            }
            self.uses_end.push(self.uses.len());
        }
    }

    fn terms(&self, row: &SparseRow) -> &[(usize, i128)] {
        &self.terms[row.start..row.end]
    }

    fn uses(&self, var: usize) -> &[(usize, i128)] {
        let start = if var == 0 { 0 } else { self.uses_end[var - 1] };
        &self.uses[start..self.uses_end[var]]
    }

    fn equations(&self) -> impl Iterator<Item = &SparseRow> {
        self.rows.iter().take_while(|row| row.is_equation)
    }
}

/// The problem's rows as `(c0, coefficients, is_equation)`: the equations,
/// then the inequalities.
fn dense_rows(
    problem: &DependenceProblem<i128>,
) -> impl Iterator<Item = (i128, &[i128], bool)> + '_ {
    let eqs = problem.equations().iter().map(|eq| (eq.c0, &eq.coeffs[..], true));
    eqs.chain(problem.inequalities().iter().map(|iq| (iq.c0, &iq.coeffs[..], false)))
}

struct Search<'a> {
    problem: &'a DependenceProblem<i128>,
    rows: &'a SparseRows,
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
        scratch.rows.rebuild(problem);
        let mut search = Search {
            problem,
            rows: &scratch.rows,
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
/// unit of refinement work (one decision's direction-hierarchy walks, plus
/// the distance extraction that follows them when distances are asked
/// for), so sibling queries share subtrees instead of re-solving.
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

    /// Number of base problems with a memoized tree.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no tree has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        ExactWalk::new(solver, self, base).query(dirs, SolveOutcome::clone)
    }

    /// One convex query of `base` (store key `key`, `None` when the store
    /// does not memoize) under the store's rules: an exact hit, else the
    /// first ancestor in `BTreeMap` order whose proof covers the query,
    /// else `fresh`, whose outcome is stored unless degraded. `answer`
    /// reads the outcome in place, so a caller that needs only its kind
    /// clones no witness.
    fn refine<R>(
        &self,
        key: Option<u128>,
        base: &DependenceProblem<i128>,
        dirs: &[Dir],
        fresh: impl FnOnce() -> Result<(SolveOutcome, u64), NumericError>,
        answer: impl Fn(&SolveOutcome) -> R,
    ) -> Result<R, NumericError> {
        let Some(key) = key else {
            return Ok(answer(&fresh()?.0));
        };
        let reused = |nodes: u64| {
            record_refine(|c| {
                c.subtree_reuses += 1;
                c.nodes_saved = c.nodes_saved.saturating_add(nodes);
            })
        };
        if let Some(tree) = self.lock().get(&key) {
            if let Some(entry) = tree.entries.get(dirs) {
                reused(entry.nodes);
                return Ok(answer(&entry.outcome));
            }
            // Ancestor scan: any stored vector that subsumes `dirs`
            // element-wise decided a superset of this query's region. Its
            // `NoSolution` covers the query; its witness covers it when
            // the witness meets the tighter directions.
            for (anc, entry) in &tree.entries {
                let covers = subsumes(anc, dirs)
                    && match &entry.outcome {
                        SolveOutcome::NoSolution => true,
                        SolveOutcome::Solution(w) => witness_satisfies(base, dirs, w),
                        SolveOutcome::Degraded(_) => false,
                    };
                if covers {
                    reused(entry.nodes);
                    return Ok(answer(&entry.outcome));
                }
            }
        }
        // Fresh solve outside the lock: concurrent sharers may duplicate a
        // solve (benign — the duplicate entry is identical, the DFS being
        // deterministic) but never serialize on each other's search.
        let (outcome, nodes) = fresh()?;
        if outcome.is_degraded() {
            return Ok(answer(&outcome));
        }
        let mut trees = self.lock();
        let tree = trees.entry(key).or_default();
        // Move the outcome into the tree and answer from the stored entry:
        // a store costs the key allocation alone.
        let entry = tree.entries.entry(dirs.to_vec()).or_insert(TreeEntry { outcome, nodes });
        Ok(answer(&entry.outcome))
    }
}

/// The exact solver and a [`SubtreeStore`] bound to one base problem for
/// the length of one direction walk (`hierarchy::exact_atomic_vectors`),
/// as [`crate::banerjee::BanerjeeWalk`] binds the Banerjee test.
///
/// A walk asks about many direction vectors of the same base. The walk
/// fingerprints the base once, and copies it into the thread's refinement
/// scratch once, on its first fresh solve; each fresh solve then pushes
/// its direction rows and pops them after. Every query follows
/// [`SubtreeStore::solve_refined`]'s rules and counters exactly, but
/// answers with the outcome's kind only, so no witness is cloned.
pub struct ExactWalk<'a> {
    solver: &'a ExactSolver,
    store: &'a SubtreeStore,
    base: &'a DependenceProblem<i128>,
    /// The store key of `base`; `None` when the store does not memoize.
    key: Option<u128>,
    /// `base`, plus the direction rows of the fresh solve in progress;
    /// handed back to the thread when the walk ends.
    refined: RefCell<Option<DependenceProblem<i128>>>,
}

impl<'a> ExactWalk<'a> {
    /// A walk over `base` whose queries run under `solver`'s budget and
    /// share `store`.
    pub fn new(
        solver: &'a ExactSolver,
        store: &'a SubtreeStore,
        base: &'a DependenceProblem<i128>,
    ) -> ExactWalk<'a> {
        let key = store.enabled.then(|| problem_fp(base));
        ExactWalk { solver, store, base, key, refined: RefCell::new(None) }
    }

    /// [`SubtreeStore::solve_refined`] on the walk's base, as a verdict:
    /// `Independent` for a proof of no solution, an exact `Dependent`
    /// (without the witness) for a solution, `Unknown` when the search
    /// degraded or the directions could not be imposed.
    pub fn test(&self, dirs: &[Dir]) -> Verdict {
        record_refine(|c| c.refine_queries += 1);
        self.query(dirs, verdict_of).unwrap_or(Verdict::Unknown)
    }

    /// The outcome of the walk's base under `dirs`, read through `answer`.
    fn query<R>(
        &self,
        dirs: &[Dir],
        answer: impl Fn(&SolveOutcome) -> R,
    ) -> Result<R, NumericError> {
        // `≠` is not convex; split it into `<` and `>` (the engine's
        // hierarchy walk never asks for it, but the API stays total).
        let Some(k) = dirs.iter().position(|&d| d == Dir::Ne) else {
            return self.store.refine(self.key, self.base, dirs, || self.fresh_solve(dirs), answer);
        };
        let mut split = dirs.to_vec();
        split[k] = Dir::Lt;
        let lt = self.query(&split, SolveOutcome::clone)?;
        if lt.is_solution() {
            return Ok(answer(&lt));
        }
        split[k] = Dir::Gt;
        let gt = self.query(&split, SolveOutcome::clone)?;
        if gt.is_solution() {
            return Ok(answer(&gt));
        }
        Ok(answer(&match (lt, gt) {
            (SolveOutcome::NoSolution, SolveOutcome::NoSolution) => SolveOutcome::NoSolution,
            (SolveOutcome::Degraded(r), _) | (_, SolveOutcome::Degraded(r)) => {
                SolveOutcome::Degraded(r)
            }
            _ => unreachable!("solutions returned early"),
        }))
    }

    /// Solves the base under `dirs` afresh, returning the outcome and the
    /// nodes it cost.
    fn fresh_solve(&self, dirs: &[Dir]) -> Result<(SolveOutcome, u64), NumericError> {
        let before = peek_thread_nodes();
        let mut slot = self.refined.borrow_mut();
        let refined = slot.get_or_insert_with(|| {
            let recycled = REFINE_SCRATCH
                .try_with(|cell| cell.try_borrow_mut().ok().and_then(|mut s| s.take()))
                .ok()
                .flatten();
            match recycled {
                Some(mut p) => {
                    p.clone_from(self.base);
                    p
                }
                None => self.base.clone(),
            }
        });
        let outcome = refined.impose_directions(dirs).map(|()| self.solver.solve(refined));
        refined.truncate_constraints(self.base.equations().len(), self.base.inequalities().len());
        Ok((outcome?, peek_thread_nodes().saturating_sub(before)))
    }
}

impl Drop for ExactWalk<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.refined.get_mut().take() {
            let _ = REFINE_SCRATCH.try_with(|cell| {
                if let Ok(mut slot) = cell.try_borrow_mut() {
                    slot.get_or_insert(p);
                }
            });
        }
    }
}

/// The verdict an outcome proves, without its witness.
fn verdict_of(outcome: &SolveOutcome) -> Verdict {
    match outcome {
        SolveOutcome::NoSolution => Verdict::Independent,
        SolveOutcome::Solution(_) => {
            Verdict::Dependent { exact: true, info: DependenceInfo::default() }
        }
        SolveOutcome::Degraded(_) => Verdict::Unknown,
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

    /// Whether the complete assignment is a solution. `is_solution` decides
    /// integer rows exactly, so it cannot fail here, and a solution whose
    /// partial sums pass `i128` still counts as one.
    fn check_full(&self) -> bool {
        self.problem.is_solution(&self.assignment) == Ok(true)
    }

    /// The interval of values for `var` consistent with every constraint
    /// given the current partial assignment and the other variables'
    /// current domains. Only the rows that mention `var` can narrow it;
    /// they are visited in the problem's order (equations, then
    /// inequalities), so an empty range or an overflow is met at the same
    /// row as in a visit of every row. `None` on arithmetic overflow
    /// (callers fall back to the current domain).
    fn feasible_range(&self, var: usize, domains: &[Interval]) -> Option<Interval> {
        let mut range = domains[var];
        for &(r, c_var) in self.rows.uses(var) {
            let row = &self.rows.rows[r];
            range = range.intersect(&self.constraint_range(row, var, c_var, domains)?);
            if range.is_empty() {
                return Some(range);
            }
        }
        Some(range)
    }

    /// For constraint `c0 + Σ ck·zk (= | ≥) 0`, in which `var` has the
    /// nonzero coefficient `c_var`, the interval of `var` values that keep
    /// it satisfiable given the other variables' intervals.
    fn constraint_range(
        &self,
        row: &SparseRow,
        var: usize,
        c_var: i128,
        domains: &[Interval],
    ) -> Option<Interval> {
        // rest = c0 + assigned terms + interval of other unassigned terms,
        // summed in ascending variable order.
        let mut rest = Interval::point(row.c0);
        for &(k, c) in self.rows.terms(row) {
            if k == var {
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
        // affects the conversion to bounds on v below). A bound of
        // `i128::MIN` has no negation: give up on the row like any other
        // overflow.
        let lo = rest.hi.checked_neg()?;
        let hi = if row.is_equation { rest.lo.checked_neg()? } else { i128::MAX / 2 };
        // v ∈ [ceil(lo/c), floor(hi/c)] for c>0; reversed for c<0. A unit
        // coefficient needs no division.
        let (vlo, vhi) = match c_var {
            1 => (lo, hi),
            -1 => (hi.checked_neg()?, lo.checked_neg()?),
            c if c > 0 => (
                delin_numeric::int::ceil_div(lo, c).ok()?,
                delin_numeric::int::floor_div(hi, c).ok()?,
            ),
            c => (
                delin_numeric::int::ceil_div(hi, c).ok()?,
                delin_numeric::int::floor_div(lo, c).ok()?,
            ),
        };
        Some(domains[var].intersect(&Interval::new(vlo, vhi)))
    }

    /// `true` when some equation's fixed residual cannot be matched by the
    /// remaining terms for divisibility reasons.
    fn divisibility_prune(&self) -> bool {
        'eqs: for row in self.rows.equations() {
            let mut fixed = row.c0;
            let mut g = 0i128;
            for &(k, c) in self.rows.terms(row) {
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

    /// `MAX·z0 − z1 + (MIN + 5) = 0` over `z0 ∈ [0, 1]`, `z1 ∈ [0, 5]` is
    /// solved by `(1, 4)` alone. Narrowing `z0` meets a rest interval whose
    /// low end is `i128::MIN`, which has no negation: propagation must keep
    /// the domain there, not wrap the bound into a false independence.
    #[test]
    fn a_rest_bound_of_i128_min_keeps_the_domain() {
        let p = DependenceProblem::single_equation(i128::MIN + 5, vec![i128::MAX, -1], vec![1, 5]);
        assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::Solution(vec![1, 4]));
        assert_eq!(dense::solve(&p, DEFAULT_SOLVER_NODES).0, SolveOutcome::Solution(vec![1, 4]));
    }

    /// Two equations that `(1, 1)` solves although their left-to-right
    /// partial sums overflow: `z1 − 2^127·z2 + (2^127 − 1) = 0` and
    /// `(2^127 − 1)·z1 − 2^127·z2 + 1 = 0` over `z ∈ [0, 1]²`. The leaf check
    /// sums exactly, so the solver finds the solution instead of reporting
    /// independence.
    #[test]
    fn an_overflowing_partial_sum_keeps_its_solution() {
        for (c0, coeffs) in [(i128::MAX, vec![1, i128::MIN]), (1, vec![i128::MAX, i128::MIN])] {
            let p = DependenceProblem::single_equation(c0, coeffs, vec![1, 1]);
            assert_eq!(ExactSolver::default().solve(&p), SolveOutcome::Solution(vec![1, 1]));
            assert_eq!(
                dense::solve(&p, DEFAULT_SOLVER_NODES).0,
                SolveOutcome::Solution(vec![1, 1])
            );
            assert!(p.is_solution(&[1, 1]).unwrap());
            assert!(!p.is_solution(&[0, 1]).unwrap());
        }
    }

    /// The dense propagation the solver ran before its rows went sparse,
    /// kept as the reference the sparse form must match node for node:
    /// every variable is narrowed against every row, summing every
    /// coefficient, with a division for every bound.
    mod dense {
        use super::super::{equation_obviously_infeasible, SolveOutcome, MAX_PROPAGATION_ROUNDS};
        use crate::budget::{DegradeReason, ResourceBudget};
        use crate::problem::DependenceProblem;
        use delin_numeric::{gcd, Interval};

        /// Solves `problem` under a node limit, returning the outcome and
        /// the nodes it cost.
        pub(super) fn solve(
            problem: &DependenceProblem<i128>,
            node_limit: u64,
        ) -> (SolveOutcome, u64) {
            if problem.vars().iter().any(|v| v.upper < 0)
                || problem.equations().iter().any(|eq| equation_obviously_infeasible(problem, eq))
            {
                return (SolveOutcome::NoSolution, 0);
            }
            let budget = ResourceBudget::with_node_limit(node_limit);
            let n = problem.num_vars();
            let mut search = Search {
                problem,
                assignment: vec![0; n],
                assigned: vec![false; n],
                nodes: 0,
                budget: &budget,
            };
            let mut domains: Vec<Interval> =
                problem.vars().iter().map(|v| Interval::new(0, v.upper)).collect();
            let outcome = match search.dfs(&mut domains) {
                Ok(true) => SolveOutcome::Solution(search.assignment.clone()),
                Ok(false) => SolveOutcome::NoSolution,
                Err(reason) => SolveOutcome::Degraded(reason),
            };
            (outcome, search.nodes)
        }

        struct Search<'a> {
            problem: &'a DependenceProblem<i128>,
            assignment: Vec<i128>,
            assigned: Vec<bool>,
            nodes: u64,
            budget: &'a ResourceBudget,
        }

        impl Search<'_> {
            fn dfs(&mut self, domains: &mut [Interval]) -> Result<bool, DegradeReason> {
                self.nodes += 1;
                self.budget.check(self.nodes)?;
                let n = self.problem.num_vars();
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
                let mut pick: Option<usize> = None;
                for var in (0..n).filter(|&v| !self.assigned[v]) {
                    let better = pick.is_none_or(|best| {
                        domains[var].len().unwrap_or(i128::MAX)
                            < domains[best].len().unwrap_or(i128::MAX)
                    });
                    if better {
                        pick = Some(var);
                    }
                }
                let Some(var) = pick else {
                    return Ok(self.problem.is_solution(&self.assignment).unwrap_or(false));
                };
                if self.divisibility_prune() {
                    return Ok(false);
                }
                let range = domains[var];
                self.assigned[var] = true;
                for v in range.lo..=range.hi {
                    self.assignment[var] = v;
                    if self.dfs(&mut domains.to_vec())? {
                        return Ok(true);
                    }
                }
                self.assigned[var] = false;
                self.assignment[var] = 0;
                Ok(false)
            }

            fn feasible_range(&self, var: usize, domains: &[Interval]) -> Option<Interval> {
                let mut range = domains[var];
                let eqs = self.problem.equations().iter().map(|eq| (eq.c0, &eq.coeffs[..], true));
                let iqs =
                    self.problem.inequalities().iter().map(|iq| (iq.c0, &iq.coeffs[..], false));
                for (c0, coeffs, is_equation) in eqs.chain(iqs) {
                    range = range.intersect(&self.constraint_range(
                        c0,
                        coeffs,
                        var,
                        is_equation,
                        domains,
                    )?);
                    if range.is_empty() {
                        return Some(range);
                    }
                }
                Some(range)
            }

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
                let (lo, hi) = if is_equation {
                    (rest.hi.checked_neg()?, rest.lo.checked_neg()?)
                } else {
                    (rest.hi.checked_neg()?, i128::MAX / 2)
                };
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
    }

    /// A coefficient drawn from `r`: mostly zero (rows stay sparse), else
    /// ±1, small, around ±2^100, or next to `i128::MAX`/`MIN`.
    fn drawn_coeff(r: i128) -> i128 {
        let m = r.abs() % 8;
        match r.rem_euclid(16) {
            0..=5 => 0,
            6 | 7 => 1,
            8 | 9 => -1,
            10 => 2 + m,
            11 => -2 - m,
            12 => (1i128 << 100) + m,
            13 => -(1i128 << 100) - m,
            14 => i128::MAX - m,
            _ => i128::MIN + 1 + m,
        }
    }

    /// A constant drawn from `r`: small, or next to `i128::MIN`/`MAX`, or
    /// around ±2^100.
    fn drawn_constant(r: i128) -> i128 {
        let m = r.abs() % 8;
        match r.rem_euclid(8) {
            0..=3 => r % 13,
            4 => i128::MIN + m,
            5 => i128::MAX - m,
            6 => (1i128 << 100) - m,
            _ => -(1i128 << 100) + m,
        }
    }

    /// A problem with `vars` variables, `eqs` equations and `ineqs`
    /// inequalities, its numbers drawn from `raw` in turn. Bounds are
    /// small, with an occasional zero-trip loop or a bound of 2^62.
    fn drawn_problem(
        vars: usize,
        eqs: usize,
        ineqs: usize,
        raw: &[i128],
    ) -> DependenceProblem<i128> {
        let mut draws = raw.iter().copied().cycle();
        let mut draw = || draws.next().expect("cycled");
        let mut b = DependenceProblem::<i128>::builder();
        for v in 0..vars {
            let r = draw();
            let upper = match r.rem_euclid(20) {
                0 => -1,
                1 => 1i128 << 62,
                k => k % 7,
            };
            b.var(format!("z{v}"), upper);
        }
        let row = |draw: &mut dyn FnMut() -> i128| {
            let c0 = drawn_constant(draw());
            let coeffs: Vec<i128> = (0..vars).map(|_| drawn_coeff(draw())).collect();
            (c0, coeffs)
        };
        for _ in 0..eqs {
            let (c0, coeffs) = row(&mut draw);
            b.equation(c0, coeffs);
        }
        let mut p = b.build();
        for _ in 0..ineqs {
            let (c0, coeffs) = row(&mut draw);
            p = p.with_inequality(c0, coeffs);
        }
        p
    }

    proptest::proptest! {
        /// Sparse propagation reaches the dense reference's fixpoints: the
        /// same outcome, witness included, after the same number of nodes,
        /// over 1–6 variables, 1–3 equations and 0–6 inequalities with unit,
        /// large and extreme coefficients and constants.
        #[test]
        fn sparse_propagation_matches_the_dense_reference(
            vars in 1usize..7,
            eqs in 1usize..4,
            ineqs in 0usize..7,
            raw in proptest::collection::vec(-1000i128..1000, 96..97),
        ) {
            let p = drawn_problem(vars, eqs, ineqs, &raw);
            let limit = 3_000;
            let (expect, expect_nodes) = dense::solve(&p, limit);
            reset_thread_nodes();
            let got = ExactSolver::with_limit(limit).solve(&p);
            let nodes = take_thread_nodes();
            proptest::prop_assert_eq!(&got, &expect, "{:?}", p);
            proptest::prop_assert_eq!(nodes, expect_nodes, "{:?}", p);
        }
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
