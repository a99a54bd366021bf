//! Canonicalization and memoization of dependence verdicts.
//!
//! Programs repeat subscript shapes constantly — `B(j)` read by two
//! statements in the same nest produces byte-identical dependence problems
//! for several reference pairs — so the engine normalizes each
//! [`DependenceProblem`] to a canonical form and solves every distinct form
//! exactly once. Corpora repeat shapes *across* program units too, so a
//! single [`VerdictCache::shared`] instance can back any number of
//! concurrent graph constructions (see [`crate::batch`]).
//!
//! Canonicalization renames variables away (only their positions and upper
//! bounds survive), sorts the equations into a stable structural order, and
//! prefixes an *environment key*: the assumptions in force, projected onto
//! the symbols the problem actually mentions. Two pairs whose problems
//! agree up to variable names and equation order — even when they come from
//! different program units — share one cache entry exactly when their
//! assumption environments agree on every symbol the problem uses. Fully
//! concrete problems mention no symbols, so they share across *any*
//! environments; symbolic problems from units with conflicting assumptions
//! never collide (see `shared_cache_separates_assumption_environments`).
//!
//! # Keying modes
//!
//! The cache supports two interchangeable key representations, selected by
//! [`KeyMode`] (env knob `DELIN_KEYING`, default fingerprints):
//!
//! * [`KeyMode::Fp`] — the hot path. Each lookup folds the canonical
//!   structure (environment projection, bounds, common pairs, equations,
//!   inequalities) through a 128-bit structural fingerprint
//!   ([`delin_numeric::fp128::Fp128`], two decorrelated FxHash lanes) with
//!   **no string rendering, no `SymPoly` clones, and no heap allocation**.
//!   Equation-order insensitivity comes from combining per-equation
//!   fingerprints commutatively (wrapping add), so the fingerprint never
//!   needs the sorted order that the string key materializes. The shard
//!   maps are `u128 → cell` behind [`fxhash::FxBuildHasher`], so a hit is
//!   an integer hash plus one shard probe. The full string key — and the
//!   canonical problem — are only produced on a miss, inside the cell's
//!   compute slot; the rendered key is stashed in the cell for debug dumps
//!   and the `--verify` keying A/B leg (see [`VerdictCache::debug_keys`]).
//! * [`KeyMode::Str`] — the legacy baseline: every lookup eagerly renders
//!   the environment key and the canonical string key and probes
//!   `String`-keyed shards. Kept bit-for-bit faithful so `--verify` can
//!   prove the two modes partition problems identically and measure the
//!   fingerprint path's win honestly.
//!
//! Both modes key on the same information, so hits, misses, memoized
//! verdicts and the final graphs are identical between them; only the cost
//! of a lookup differs.
//!
//! The store is a sharded `RwLock` map of [`ComputeCell`]s: concurrent
//! workers that race on the same key agree on a single cell, and exactly
//! one of them runs the solver while the rest block on the cell. Every
//! distinct key is therefore computed exactly once per cache lifetime, no
//! matter how many units or worker threads touch it — with two
//! fault-tolerance refinements over a plain `OnceLock`:
//!
//! * **panic safety** — if the computing worker panics, the cell resets to
//!   idle and wakes its waiters, so a later lookup retries instead of
//!   deadlocking or observing a poisoned lock;
//! * **degraded outcomes are never memoized** — an outcome produced under
//!   an exhausted [`delin_dep::budget::ResourceBudget`] carries a
//!   [`DegradeReason`] and is returned to its caller but *not* stored.
//!   Every cached entry is therefore a full-budget verdict, which keeps
//!   cached results a pure function of the canonical key even when units
//!   run under different (or escalating retry) budgets.
//!
//! # Bounded capacity
//!
//! The cache is bounded by an optional capacity
//! ([`VerdictCache::capacity`], env knob `DELIN_CACHE_CAP`, `0` =
//! unbounded — bit-compatible with the historical cache). Capacity is split
//! evenly across the shards; when an insert pushes a shard over its share,
//! the least-recently-touched entry is evicted — except entries whose
//! compute slot is in flight (`Computing`), which are never evicted. Eviction is invisible to every determinism contract: per-run
//! hit/miss/attempt statistics are attributed at fold time from key
//! fingerprints (see [`crate::deps::DepStats::attempts_by`]), not from live
//! cache state, and a re-computed entry is a pure function of its canonical
//! key — so edges, verdicts and reports are byte-identical under any
//! capacity. Only the [`VerdictCache::evictions`] counter itself observes
//! eviction; it is deterministic for a serial run with a fixed arrival
//! order and excluded from `VerdictStats` and all rendered reports (the
//! corpus render appends it only when a capacity is set).
//!
//! # Persistent tier
//!
//! [`crate::persist`] serializes memoized entries (fingerprint, rendered
//! canonical key, outcome, solver state) to a versioned, checksummed file
//! and seeds them back at startup. Seeded cells are marked, so
//! [`VerdictCache::persistent_hits`] counts the lookups a warm start
//! answered without solving. Only full-budget outcomes ever reach the
//! cache, so a warm start can never replay a degraded verdict.

use delin_dep::budget::DegradeReason;
use delin_dep::exact::SubtreeStore;
use delin_dep::problem::DependenceProblem;
use delin_dep::verdict::Verdict;
use delin_numeric::fp128::Fp128;
use delin_numeric::{Assumptions, Sym, SymPoly};
use fxhash::FxBuildHasher;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// Number of independent lock shards. The critical sections only
/// insert/lookup an `Arc`, never solve — but every read still bumps its
/// shard lock's reader count, so with a dozen workers streaming lookups the
/// shard count is really about keeping two threads off the same reader
/// cacheline. 64 makes same-shard collisions the exception.
const SHARDS: usize = 64;

/// The default cache capacity: the `DELIN_CACHE_CAP` environment variable
/// when set to a number of entries, else `0` — unbounded, bit-compatible
/// with the historical cache.
pub fn cache_cap_from_env() -> usize {
    std::env::var("DELIN_CACHE_CAP").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(0)
}

/// How the verdict cache represents its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// 128-bit structural fingerprints; canonical strings only on miss.
    Fp,
    /// Eagerly rendered canonical string keys (the legacy baseline).
    Str,
}

impl KeyMode {
    /// Reads `DELIN_KEYING`: `string`/`str` selects [`KeyMode::Str`],
    /// anything else (including unset) the default [`KeyMode::Fp`].
    pub fn from_env() -> KeyMode {
        match std::env::var("DELIN_KEYING").as_deref() {
            Ok("string") | Ok("str") => KeyMode::Str,
            _ => KeyMode::Fp,
        }
    }

    /// The name the bench/verify reports use for this mode.
    pub fn label(self) -> &'static str {
        match self {
            KeyMode::Fp => "fp",
            KeyMode::Str => "string",
        }
    }
}

impl Default for KeyMode {
    fn default() -> Self {
        KeyMode::from_env()
    }
}

/// The memoized result of deciding one canonical dependence problem.
#[derive(Debug, Clone)]
pub struct CachedOutcome {
    /// The verdict for the canonical problem.
    pub verdict: Verdict,
    /// The deciding test's name.
    pub tested_by: &'static str,
    /// Names of the test invocations that ran while deciding. A pure
    /// function of the canonical problem, so callers may attribute these to
    /// any reference of the entry (see `DepStats` fold attribution).
    pub attempts: Vec<&'static str>,
    /// Exact-solver search nodes spent computing this entry.
    pub solver_nodes: u64,
    /// Refinement queries issued against the incremental solve-tree store
    /// while deciding this entry. Like `attempts`, a pure function of the
    /// canonical problem and configuration, so callers may attribute it to
    /// any reference of the entry.
    pub refine_queries: u64,
    /// Refinement queries answered by replaying a stored subtree instead of
    /// re-enumerating.
    pub subtree_reuses: u64,
    /// Exact-solver nodes those subtree replays avoided re-spending.
    pub nodes_saved: u64,
    /// The per-problem incremental solver state (the solve trees built
    /// while refining this problem's direction hierarchy). Memoized
    /// alongside the verdict so sibling refinements across a unit — and
    /// across units sharing this cache — reach the already-built subtrees
    /// through a cache hit instead of rebuilding them. `None` when
    /// incremental solving is disabled or the decision never refined.
    pub solver_state: Option<Arc<SubtreeStore>>,
    /// `Some(reason)` when the verdict was reached under an exhausted
    /// resource budget. Degraded outcomes are conservative (`Unknown`, or
    /// `Dependent` with a superset of the true direction vectors) and are
    /// never memoized — see the module docs.
    pub degraded: Option<DegradeReason>,
}

/// One memoization slot: at most one worker computes, the rest wait.
///
/// Unlike `OnceLock`, a cell survives a panicking compute closure (it
/// resets to [`CellState::Idle`] and wakes waiters so a later lookup can
/// retry) and refuses to store budget-degraded outcomes.
struct ComputeCell {
    state: Mutex<CellState>,
    cond: Condvar,
    /// Lock-free mirror of [`CellState::Ready`]: set exactly when the state
    /// transitions to `Ready` (which is terminal), so hits read an atomic
    /// pointer instead of serializing on the state mutex. A popular cell —
    /// one canonical problem shared by thousands of pairs — is otherwise a
    /// mutex every worker thread hammers.
    ready: OnceLock<Arc<CachedOutcome>>,
    /// The rendered canonical string key, set by the first compute under
    /// fingerprint keying (string keying keeps the key in the shard map
    /// instead). Exists for debug dumps and the keying A/B verification —
    /// never consulted on the hit path.
    rendered: OnceLock<String>,
    /// `true` when this cell was seeded from the persistent tier; hits on
    /// such cells count toward [`VerdictCache::persistent_hits`]. Fixed at
    /// construction, so the hit path reads a plain bool.
    from_disk: bool,
}

enum CellState {
    /// Nobody has produced a storable outcome yet.
    Idle,
    /// Some worker is running the solver; waiters block on the condvar.
    Computing,
    /// A full-budget outcome is memoized. Behind an `Arc` so a hit hands
    /// out a reference-count bump instead of cloning the payload (the
    /// `attempts` vector and solver-state handle in particular).
    Ready(Arc<CachedOutcome>),
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Cell state transitions are single assignments, so a poisoned lock
/// cannot leave the state half-written.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ComputeCell {
    fn new() -> ComputeCell {
        ComputeCell {
            state: Mutex::new(CellState::Idle),
            cond: Condvar::new(),
            ready: OnceLock::new(),
            rendered: OnceLock::new(),
            from_disk: false,
        }
    }

    /// A cell seeded from the persistent tier: born `Ready` with its
    /// rendered key attached and marked so hits on it count as persistent.
    fn seeded(rendered: String, outcome: CachedOutcome) -> ComputeCell {
        let outcome = Arc::new(outcome);
        let cell = ComputeCell {
            state: Mutex::new(CellState::Ready(Arc::clone(&outcome))),
            cond: Condvar::new(),
            ready: OnceLock::new(),
            rendered: OnceLock::new(),
            from_disk: true,
        };
        let _ = cell.ready.set(outcome);
        let _ = cell.rendered.set(rendered);
        cell
    }

    /// `true` when a full-budget outcome is memoized in this cell.
    fn is_ready(&self) -> bool {
        matches!(*lock_recover(&self.state), CellState::Ready(_))
    }

    /// `true` unless some worker is computing into this cell right now:
    /// in-flight compute slots are never evicted (the worker holds the
    /// cell `Arc`, so eviction would orphan its memoization, and waiters
    /// parked on the condvar must find the outcome where they left it).
    fn is_evictable(&self) -> bool {
        !matches!(*lock_recover(&self.state), CellState::Computing)
    }

    /// Returns the memoized outcome, computing it first if necessary.
    /// The boolean is `true` when *this* call ran `compute`.
    fn get_or_compute(
        &self,
        compute: impl FnOnce() -> CachedOutcome,
    ) -> (Arc<CachedOutcome>, bool) {
        if let Some(out) = self.ready.get() {
            return (Arc::clone(out), false);
        }
        {
            let mut state = lock_recover(&self.state);
            loop {
                match &*state {
                    CellState::Ready(out) => return (Arc::clone(out), false),
                    CellState::Computing => {
                        state = self.cond.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                    CellState::Idle => break,
                }
            }
            *state = CellState::Computing;
        }
        // Reset to Idle on every exit path that does not store an outcome:
        // a panic inside `compute` (the guard drops during unwinding) or a
        // degraded outcome below. Either way waiters wake up and the next
        // lookup retries the computation.
        let mut guard = ComputeReset { cell: self, disarm: false };
        let outcome = Arc::new(compute());
        if outcome.degraded.is_none() {
            *lock_recover(&self.state) = CellState::Ready(Arc::clone(&outcome));
            let _ = self.ready.set(Arc::clone(&outcome));
            self.cond.notify_all();
            guard.disarm = true;
        }
        drop(guard);
        (outcome, true)
    }
}

struct ComputeReset<'a> {
    cell: &'a ComputeCell,
    disarm: bool,
}

impl Drop for ComputeReset<'_> {
    fn drop(&mut self) {
        if !self.disarm {
            *lock_recover(&self.cell.state) = CellState::Idle;
            self.cell.cond.notify_all();
        }
    }
}

/// The result of one cache lookup.
#[derive(Debug, Clone)]
pub struct CacheLookup {
    /// The (possibly memoized) outcome, shared with the cache entry.
    pub outcome: Arc<CachedOutcome>,
    /// `true` when *this* lookup ran the solver (a global cache miss).
    pub computed: bool,
    /// A 64-bit fingerprint of the full cache key (environment key plus
    /// canonical structure). Equal problems under equal relevant
    /// assumptions produce equal fingerprints; graph construction uses it
    /// to attribute hits and misses deterministically in source-pair order.
    pub key_fp: u64,
}

/// One shard-map slot: the cell plus its LRU stamp.
struct Slot {
    cell: Arc<ComputeCell>,
    /// Value of the cache clock at this slot's last touch; the eviction
    /// scan removes the smallest stamp first. Atomic so hits can refresh
    /// it under the shard's *read* lock, keeping the hit path wait-free
    /// with respect to other readers.
    last_use: AtomicU64,
}

/// The shard array in either key representation. Both variants map the
/// same partition of problems to cells; see the module docs.
enum ShardMap {
    Fp(Vec<RwLock<HashMap<u128, Slot, FxBuildHasher>>>),
    Str(Vec<RwLock<HashMap<String, Slot>>>),
}

/// A verdict cache keyed by canonicalized dependence problems.
///
/// Construct with [`VerdictCache::new`] for a single graph construction
/// under one assumption environment, or with [`VerdictCache::shared`] for a
/// cache shared across program units with *different* environments (every
/// lookup then goes through [`VerdictCache::lookup`], which keys on the
/// per-unit assumptions). Both pick their [`KeyMode`] from the
/// `DELIN_KEYING` environment knob; the `_with` constructors pin it
/// explicitly (the `--verify` keying A/B runs both side by side).
pub struct VerdictCache {
    shards: ShardMap,
    /// The environment baked in by [`VerdictCache::new`]; `None` for shared
    /// caches, whose lookups carry their environment explicitly.
    env: Option<Assumptions>,
    /// Total entry capacity; `0` = unbounded (the historical behavior).
    capacity: usize,
    /// Per-shard entry cap derived from `capacity` (`0` = unbounded).
    shard_cap: usize,
    /// Monotonic logical clock stamping every touch, for LRU eviction.
    clock: AtomicU64,
    /// Entries evicted to stay within `capacity`.
    evictions: AtomicU64,
    /// Lookups answered by an entry seeded from the persistent tier.
    persistent_hits: AtomicU64,
    /// Entries seeded from the persistent tier at load time.
    persistent_seeded: AtomicU64,
}

impl VerdictCache {
    /// An empty cache for one run under the given assumptions, keyed per
    /// [`KeyMode::from_env`] and bounded per [`cache_cap_from_env`].
    pub fn new(assumptions: &Assumptions) -> VerdictCache {
        VerdictCache::new_with(assumptions, KeyMode::from_env())
    }

    /// An empty cache for one run under the given assumptions, with an
    /// explicit key representation (capacity per [`cache_cap_from_env`]).
    pub fn new_with(assumptions: &Assumptions, mode: KeyMode) -> VerdictCache {
        VerdictCache::with_parts(mode, Some(assumptions.clone()), cache_cap_from_env())
    }

    /// An empty cache safe to share across program units analyzed under
    /// different assumption environments, keyed per [`KeyMode::from_env`]
    /// and bounded per [`cache_cap_from_env`].
    pub fn shared() -> VerdictCache {
        VerdictCache::shared_with(KeyMode::from_env())
    }

    /// An empty shareable cache with an explicit key representation
    /// (capacity per [`cache_cap_from_env`]).
    pub fn shared_with(mode: KeyMode) -> VerdictCache {
        VerdictCache::with_parts(mode, None, cache_cap_from_env())
    }

    /// An empty shareable cache with an explicit key representation and an
    /// explicit entry capacity (`0` = unbounded).
    pub fn shared_with_cap(mode: KeyMode, capacity: usize) -> VerdictCache {
        VerdictCache::with_parts(mode, None, capacity)
    }

    fn with_parts(mode: KeyMode, env: Option<Assumptions>, capacity: usize) -> VerdictCache {
        VerdictCache {
            shards: new_shards(mode),
            env,
            capacity,
            shard_cap: capacity.div_ceil(SHARDS),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persistent_hits: AtomicU64::new(0),
            persistent_seeded: AtomicU64::new(0),
        }
    }

    /// The entry capacity this cache enforces (`0` = unbounded). Capacity
    /// splits evenly across the shards, so a shard may evict while the
    /// total entry count is still a little below this number.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries have been evicted to respect [`VerdictCache::capacity`].
    /// Deterministic for a serial run with a fixed arrival order; under
    /// concurrent workers the victim choice depends on scheduling, so this
    /// counter is surfaced but never enters any determinism-checked report.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lookups answered by an entry seeded from the persistent tier (every
    /// hit on a seeded cell counts, so one warm entry referenced by many
    /// pairs counts many times).
    pub fn persistent_hits(&self) -> u64 {
        self.persistent_hits.load(Ordering::Relaxed)
    }

    /// Entries seeded from the persistent tier at load time.
    pub fn persistent_seeded(&self) -> u64 {
        self.persistent_seeded.load(Ordering::Relaxed)
    }

    /// The key representation this cache was built with.
    pub fn key_mode(&self) -> KeyMode {
        match &self.shards {
            ShardMap::Fp(_) => KeyMode::Fp,
            ShardMap::Str(_) => KeyMode::Str,
        }
    }

    /// Number of memoized outcomes across all shards (distinct canonical
    /// problems decided under a full budget). Cells whose computation
    /// panicked or degraded hold no outcome and are not counted.
    pub fn len(&self) -> usize {
        self.for_each_cell_count(|c| c.is_ready())
    }

    /// `true` when no problem has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn for_each_cell_count(&self, pred: impl Fn(&ComputeCell) -> bool) -> usize {
        let count_in =
            |slots: &mut dyn Iterator<Item = Arc<ComputeCell>>| slots.filter(|c| pred(c)).count();
        match &self.shards {
            ShardMap::Fp(shards) => shards
                .iter()
                .map(|s| {
                    let map = s.read().unwrap_or_else(PoisonError::into_inner);
                    count_in(&mut map.values().map(|slot| Arc::clone(&slot.cell)))
                })
                .sum(),
            ShardMap::Str(shards) => shards
                .iter()
                .map(|s| {
                    let map = s.read().unwrap_or_else(PoisonError::into_inner);
                    count_in(&mut map.values().map(|slot| Arc::clone(&slot.cell)))
                })
                .sum(),
        }
    }

    /// The rendered canonical string keys of every memoized entry, sorted.
    ///
    /// Under string keying these are the shard-map keys themselves; under
    /// fingerprint keying they are the strings rendered once per miss and
    /// stashed in the cells. Either way the result describes the same
    /// partition, which is exactly what the keying A/B verification
    /// asserts: if two distinct canonical strings ever collided into one
    /// fingerprint cell, the fingerprint cache would report fewer keys
    /// here than the string cache.
    pub fn debug_keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        match &self.shards {
            ShardMap::Fp(shards) => {
                for s in shards {
                    let map = s.read().unwrap_or_else(PoisonError::into_inner);
                    for slot in map.values() {
                        if slot.cell.is_ready() {
                            if let Some(k) = slot.cell.rendered.get() {
                                keys.push(k.clone());
                            }
                        }
                    }
                }
            }
            ShardMap::Str(shards) => {
                for s in shards {
                    let map = s.read().unwrap_or_else(PoisonError::into_inner);
                    for (k, slot) in map.iter() {
                        if slot.cell.is_ready() {
                            keys.push(k.clone());
                        }
                    }
                }
            }
        }
        keys.sort_unstable();
        keys
    }

    /// Looks up the canonical form of `problem` under the environment baked
    /// in at construction, running `compute` on it on the first sighting.
    /// Returns the outcome and whether it was a hit.
    ///
    /// On a cache built with [`VerdictCache::shared`] — no baked-in
    /// environment — this degrades to a conservative no-memoize path: the
    /// canonical problem is computed and the outcome returned, but nothing
    /// is stored or reused, because without an environment the entry's key
    /// would be wrong for symbolic problems. Shared lookups that want
    /// memoization must pass their environment to [`VerdictCache::lookup`].
    /// (This misuse used to panic, which poisoned the calling worker; see
    /// `envless_get_or_compute_degrades_to_no_memoize`.)
    pub fn get_or_compute(
        &self,
        problem: &DependenceProblem<SymPoly>,
        compute: impl FnOnce(&DependenceProblem<SymPoly>) -> CachedOutcome,
    ) -> (Arc<CachedOutcome>, bool) {
        let Some(env) = self.env.as_ref() else {
            let (_, canonical) = canonicalize(problem, "");
            return (Arc::new(compute(&canonical)), false);
        };
        let l = self.lookup(env, problem, compute);
        (l.outcome, !l.computed)
    }

    /// Looks up the canonical form of `problem` under `assumptions`,
    /// running `compute` on the canonical problem on the first sighting of
    /// the (environment, structure) pair.
    ///
    /// `compute` receives the *canonical* problem, so the stored verdict is
    /// a pure function of the cache key — this is what keeps parallel and
    /// multi-unit runs deterministic regardless of which worker (or which
    /// unit) populates an entry first. Under fingerprint keying, a hit
    /// performs no string rendering, no `SymPoly` clone and no heap
    /// allocation: the canonical problem (and its string key) only
    /// materialize inside the cell's compute slot on a miss.
    pub fn lookup(
        &self,
        assumptions: &Assumptions,
        problem: &DependenceProblem<SymPoly>,
        compute: impl FnOnce(&DependenceProblem<SymPoly>) -> CachedOutcome,
    ) -> CacheLookup {
        self.lookup_class(assumptions, problem, 1, compute)
    }

    /// [`VerdictCache::lookup`] on behalf of a class of `members` pairs
    /// that all build `problem` (see [`crate::deps`]): one probe, but a hit
    /// on an entry seeded from the persistent tier counts `members` times
    /// toward [`VerdictCache::persistent_hits`], as `members` separate
    /// lookups would.
    pub(crate) fn lookup_class(
        &self,
        assumptions: &Assumptions,
        problem: &DependenceProblem<SymPoly>,
        members: u64,
        compute: impl FnOnce(&DependenceProblem<SymPoly>) -> CachedOutcome,
    ) -> CacheLookup {
        match &self.shards {
            ShardMap::Fp(shards) => {
                let fp = fingerprint_problem(problem, assumptions);
                // Lane A (the high half) doubles as the 64-bit attribution
                // fingerprint; lane B picks the shard, so attribution and
                // shard choice stay decorrelated.
                let key_fp = (fp >> 64) as u64;
                let shard = &shards[(fp as usize) % SHARDS];
                let cell = self.probe_fp(shard, fp);
                let (outcome, computed) = cell.get_or_compute(|| {
                    // Miss: now (and only now) materialize the canonical
                    // problem for the solver and the string key for debug.
                    let env = env_key(problem, assumptions);
                    let (key, canonical) = canonicalize(problem, &env);
                    let _ = cell.rendered.set(key);
                    compute(&canonical)
                });
                if !computed && cell.from_disk {
                    self.persistent_hits.fetch_add(members, Ordering::Relaxed);
                }
                CacheLookup { outcome, computed, key_fp }
            }
            ShardMap::Str(shards) => {
                // The legacy baseline: render everything eagerly per lookup.
                let env = env_key(problem, assumptions);
                let (key, canonical) = canonicalize(problem, &env);
                let key_fp = fingerprint(&key);
                let shard = &shards[(key_fp as usize) % SHARDS];
                let cell = self.probe_str(shard, key);
                let (outcome, computed) = cell.get_or_compute(|| compute(&canonical));
                CacheLookup { outcome, computed, key_fp }
            }
        }
    }

    /// Fast path probe for the fingerprint shard: read-lock first (hits
    /// never take the write lock, refreshing their LRU stamp atomically),
    /// insert an idle cell under the write lock on miss and evict if the
    /// shard ran over its share of the capacity. A poisoned shard lock only
    /// means some worker panicked while holding it; the map itself is never
    /// left mid-mutation (inserts are single entry operations), so recover
    /// the guard and keep going.
    fn probe_fp(
        &self,
        shard: &RwLock<HashMap<u128, Slot, FxBuildHasher>>,
        fp: u128,
    ) -> Arc<ComputeCell> {
        {
            let read = shard.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = read.get(&fp) {
                self.touch(slot);
                return Arc::clone(&slot.cell);
            }
        }
        let mut write = shard.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = write.get(&fp) {
            self.touch(slot);
            return Arc::clone(&slot.cell);
        }
        let cell = Arc::new(ComputeCell::new());
        write.insert(fp, self.new_slot(Arc::clone(&cell)));
        self.evict_over_cap(&mut write, &fp);
        cell
    }

    /// The string-keyed analogue of `probe_fp`.
    fn probe_str(&self, shard: &RwLock<HashMap<String, Slot>>, key: String) -> Arc<ComputeCell> {
        {
            let read = shard.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = read.get(&key) {
                self.touch(slot);
                return Arc::clone(&slot.cell);
            }
        }
        let mut write = shard.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = write.get(&key) {
            self.touch(slot);
            return Arc::clone(&slot.cell);
        }
        let cell = Arc::new(ComputeCell::new());
        let guard_key = key.clone();
        write.insert(key, self.new_slot(Arc::clone(&cell)));
        self.evict_over_cap(&mut write, &guard_key);
        cell
    }

    /// Refreshes a slot's LRU stamp. Unbounded caches never evict, so they
    /// skip the stamp — the clock `fetch_add` is a shared atomic every
    /// worker's hit path would otherwise contend on for nothing.
    fn touch(&self, slot: &Slot) {
        if self.shard_cap == 0 {
            return;
        }
        slot.last_use.store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    fn new_slot(&self, cell: Arc<ComputeCell>) -> Slot {
        let stamp =
            if self.shard_cap == 0 { 0 } else { self.clock.fetch_add(1, Ordering::Relaxed) };
        Slot { cell, last_use: AtomicU64::new(stamp) }
    }

    /// Evicts least-recently-touched entries until the shard is back under
    /// its share of the capacity. The entry just inserted and entries with
    /// a compute in flight are never victims; if nothing else is evictable
    /// the shard briefly exceeds its share instead.
    fn evict_over_cap<K: Hash + Eq + Clone, S: std::hash::BuildHasher>(
        &self,
        map: &mut HashMap<K, Slot, S>,
        just_inserted: &K,
    ) {
        if self.shard_cap == 0 {
            return;
        }
        while map.len() > self.shard_cap {
            let victim = map
                .iter()
                .filter(|(k, slot)| *k != just_inserted && slot.cell.is_evictable())
                .min_by_key(|(_, slot)| slot.last_use.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Seeds one entry loaded from the persistent tier: inserted `Ready`
    /// with its rendered canonical key attached, marked so later hits count
    /// as persistent. Returns `false` (storing nothing) for string-keyed
    /// caches (persistence is fingerprint-only), for degraded outcomes
    /// (never persisted, and never memoized even if a file claimed one),
    /// and for fingerprints already present.
    pub(crate) fn seed_entry(&self, fp: u128, rendered: String, outcome: CachedOutcome) -> bool {
        let ShardMap::Fp(shards) = &self.shards else { return false };
        if outcome.degraded.is_some() {
            return false;
        }
        let shard = &shards[(fp as usize) % SHARDS];
        let mut write = shard.write().unwrap_or_else(PoisonError::into_inner);
        if write.contains_key(&fp) {
            return false;
        }
        let cell = Arc::new(ComputeCell::seeded(rendered, outcome));
        write.insert(fp, self.new_slot(cell));
        self.evict_over_cap(&mut write, &fp);
        self.persistent_seeded.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Every memoized fingerprint entry with its rendered canonical key and
    /// outcome, sorted by fingerprint — the deterministic export the
    /// persistent tier serializes. Empty for string-keyed caches (the
    /// string baseline exists only for A/B verification).
    pub(crate) fn export_entries(&self) -> Vec<(u128, String, Arc<CachedOutcome>)> {
        let ShardMap::Fp(shards) = &self.shards else { return Vec::new() };
        let mut out = Vec::new();
        for s in shards {
            let map = s.read().unwrap_or_else(PoisonError::into_inner);
            for (fp, slot) in map.iter() {
                let ready = match &*lock_recover(&slot.cell.state) {
                    CellState::Ready(o) => Some(Arc::clone(o)),
                    _ => None,
                };
                if let (Some(outcome), Some(key)) = (ready, slot.cell.rendered.get()) {
                    out.push((*fp, key.clone(), outcome));
                }
            }
        }
        out.sort_unstable_by_key(|(fp, _, _)| *fp);
        out
    }
}

fn new_shards(mode: KeyMode) -> ShardMap {
    match mode {
        KeyMode::Fp => ShardMap::Fp((0..SHARDS).map(|_| RwLock::new(HashMap::default())).collect()),
        KeyMode::Str => ShardMap::Str((0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect()),
    }
}

fn fingerprint(key: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Computes the 128-bit structural fingerprint of `problem` under the
/// projection of `assumptions` onto its symbols — the exact information the
/// canonical string key renders, folded through [`Fp128`] without
/// materializing any string or cloning any polynomial.
///
/// Two problems receive the same fingerprint exactly when [`canonicalize`]
/// (with [`env_key`]) would give them the same string key, modulo the
/// negligible 128-bit collision probability:
///
/// * variable *names* never enter the hash (positions and upper bounds do),
///   matching the key's renaming invariance;
/// * per-equation fingerprints are combined with a commutative wrapping
///   add, so equation order is invisible without ever sorting — the string
///   key achieves the same by sorting rendered equations;
/// * inequalities, bounds and common pairs hash in order, matching the
///   key's order-sensitive rendering of those sections;
/// * the environment section hashes the sorted, deduplicated symbols the
///   problem mentions with their effective lower bounds plus the default
///   bound — and hashes *nothing* for concrete problems, matching the
///   empty [`env_key`] that lets concrete entries shard across any
///   environments.
///
/// Every section is length-prefixed and tagged, so sections cannot bleed
/// into one another. This function performs no heap allocation unless the
/// problem mentions more than a handful of distinct symbols (the symbol
/// set is gathered in a fixed inline array, spilling to a sort+dedup
/// vector only on overflow).
pub fn fingerprint_problem(
    problem: &DependenceProblem<SymPoly>,
    assumptions: &Assumptions,
) -> u128 {
    let mut h = Fp128::new();

    // Environment projection (tag 1): sorted deduped symbols with bounds.
    fn walk_symbols<'a>(p: &'a DependenceProblem<SymPoly>, add: &mut impl FnMut(&'a Sym)) {
        for v in p.vars() {
            v.upper.for_each_symbol(add);
        }
        for eq in p.equations() {
            eq.c0.for_each_symbol(add);
            for c in &eq.coeffs {
                c.for_each_symbol(add);
            }
        }
        for iq in p.inequalities() {
            iq.c0.for_each_symbol(add);
            for c in &iq.coeffs {
                c.for_each_symbol(add);
            }
        }
    }
    // The sorted deduped symbol set is built in a fixed inline array by
    // insertion — real problems mention a handful of symbols, and this
    // function runs once per pair, so the common case must not allocate a
    // scratch vector or call the sorter. Overflowing problems spill to a
    // vector and take the classic sort+dedup path; the emitted byte stream
    // is identical either way.
    const INLINE_SYMS: usize = 8;
    let mut inline: [Option<&Sym>; INLINE_SYMS] = [None; INLINE_SYMS];
    let mut len = 0usize;
    let mut spill: Vec<&Sym> = Vec::new();
    walk_symbols(problem, &mut |s| {
        if !spill.is_empty() {
            spill.push(s);
            return;
        }
        let mut i = 0;
        while i < len {
            let Some(cur) = inline[i] else { break };
            match cur.cmp(s) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Equal => return,
                std::cmp::Ordering::Greater => break,
            }
        }
        if len < INLINE_SYMS {
            let mut j = len;
            while j > i {
                inline[j] = inline[j - 1];
                j -= 1;
            }
            inline[i] = Some(s);
            len += 1;
        } else {
            spill.extend(inline.iter().flatten().copied());
            spill.push(s);
        }
    });
    h.write_u8(1);
    let emit = |h: &mut Fp128, s: &Sym| {
        let name = s.name().as_bytes();
        h.write_usize(name.len());
        h.write(name);
        h.write_u128(assumptions.lower_bound(s) as u128);
    };
    if !spill.is_empty() {
        spill.sort_unstable();
        spill.dedup();
        h.write_usize(spill.len());
        for s in &spill {
            emit(&mut h, s);
        }
        h.write_u128(assumptions.default_lower_bound() as u128);
    } else if len > 0 {
        h.write_usize(len);
        for o in inline[..len].iter().flatten() {
            emit(&mut h, o);
        }
        h.write_u128(assumptions.default_lower_bound() as u128);
    }

    // Variable bounds in position order (tag 2); names are canonicalized
    // away, so only the upper-bound polynomials enter.
    h.write_u8(2);
    h.write_usize(problem.vars().len());
    for v in problem.vars() {
        v.upper.hash_into(&mut h);
    }

    // Common loop pairs in order (tag 3).
    h.write_u8(3);
    h.write_usize(problem.common_loops().len());
    for (x, y) in problem.common_loops() {
        h.write_usize(*x);
        h.write_usize(*y);
    }

    // Equations as an order-free multiset (tag 4): sum of per-equation
    // fingerprints. Duplicate equations contribute multiplicity times.
    h.write_u8(4);
    h.write_usize(problem.equations().len());
    let mut eq_acc: u128 = 0;
    for eq in problem.equations() {
        let mut eh = Fp128::new();
        eq.c0.hash_into(&mut eh);
        eh.write_usize(eq.coeffs.len());
        for c in &eq.coeffs {
            c.hash_into(&mut eh);
        }
        eq_acc = eq_acc.wrapping_add(eh.finish128());
    }
    h.write_u128(eq_acc);

    // Inequalities in order (tag 5) — the string key renders them in
    // order too, so order sensitivity here matches its partition.
    h.write_u8(5);
    h.write_usize(problem.inequalities().len());
    for iq in problem.inequalities() {
        iq.c0.hash_into(&mut h);
        h.write_usize(iq.coeffs.len());
        for c in &iq.coeffs {
            c.hash_into(&mut h);
        }
    }

    h.finish128()
}

/// Renders the assumption environment restricted to the symbols `problem`
/// mentions (in bounds, coefficients, or constants).
///
/// Dependence tests only ever consult assumptions about symbols reachable
/// from the problem's own polynomials, so this projection is the *exact*
/// environment the verdict depends on: including more would split entries
/// that must agree (units with irrelevant extra symbols), including less
/// would merge entries that may differ — the cross-unit collision this
/// function exists to prevent. Concrete problems project to the empty key.
pub fn env_key(problem: &DependenceProblem<SymPoly>, assumptions: &Assumptions) -> String {
    use std::fmt::Write as _;
    let mut syms: Vec<Sym> = Vec::new();
    let mut add = |p: &SymPoly| syms.extend(p.symbols());
    for v in problem.vars() {
        add(&v.upper);
    }
    for eq in problem.equations() {
        add(&eq.c0);
        eq.coeffs.iter().for_each(&mut add);
    }
    for iq in problem.inequalities() {
        add(&iq.c0);
        iq.coeffs.iter().for_each(&mut add);
    }
    syms.sort();
    syms.dedup();
    let mut out = String::new();
    if syms.is_empty() {
        return out; // concrete: the verdict cannot depend on any assumption
    }
    for s in &syms {
        let _ = write!(out, "{s}>={},", assumptions.lower_bound(s));
    }
    let _ = write!(out, "*>={}", assumptions.default_lower_bound());
    out
}

/// Renders one linear form (`c0` plus dense coefficients) structurally.
fn render_linear(c0: &SymPoly, coeffs: &[SymPoly]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{c0}|");
    for c in coeffs {
        let _ = write!(out, "{c},");
    }
    out
}

/// Produces the canonical key and canonical problem for `problem` under the
/// environment key `env` (see [`env_key`]).
///
/// The key drops variable names (positions and bounds remain), sorts the
/// equations structurally, and prefixes the environment key. The returned
/// problem is `problem` with its equations in that same sorted order —
/// solving it instead of the original makes the memoized verdict
/// independent of which reference pair inserted the entry. Downstream edge
/// emission sorts and dedups atomic direction vectors, so equation order
/// cannot leak into the final graph.
pub fn canonicalize(
    problem: &DependenceProblem<SymPoly>,
    env: &str,
) -> (String, DependenceProblem<SymPoly>) {
    use std::fmt::Write as _;

    let mut eq_keys: Vec<(String, usize)> = problem
        .equations()
        .iter()
        .enumerate()
        .map(|(i, eq)| (render_linear(&eq.c0, &eq.coeffs), i))
        .collect();
    eq_keys.sort();

    let mut key = String::new();
    let _ = write!(key, "a[{env}];");
    for v in problem.vars() {
        let _ = write!(key, "v{};", v.upper);
    }
    for (x, y) in problem.common_loops() {
        let _ = write!(key, "c{x},{y};");
    }
    for (ek, _) in &eq_keys {
        let _ = write!(key, "e{ek};");
    }
    for iq in problem.inequalities() {
        let _ = write!(key, "i{};", render_linear(&iq.c0, &iq.coeffs));
    }

    let mut builder = DependenceProblem::<SymPoly>::builder();
    for v in problem.vars() {
        builder.var(v.name.clone(), v.upper.clone());
    }
    for (_, i) in &eq_keys {
        let eq = &problem.equations()[*i];
        builder.equation(eq.c0.clone(), eq.coeffs.clone());
    }
    for iq in problem.inequalities() {
        builder.inequality(iq.c0.clone(), iq.coeffs.clone());
    }
    for (x, y) in problem.common_loops() {
        builder.common_pair(*x, *y);
    }
    builder.assumptions(problem.assumptions().clone());
    (key, builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_numeric::SymPoly;

    fn poly(n: i128) -> SymPoly {
        SymPoly::constant(n)
    }

    fn two_eq_problem(order: [usize; 2]) -> DependenceProblem<SymPoly> {
        let eqs = [(poly(-5), vec![poly(1), poly(10)]), (poly(3), vec![poly(2), poly(0)])];
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("x", poly(4));
        b.var("y", poly(9));
        for &i in &order {
            b.equation(eqs[i].0.clone(), eqs[i].1.clone());
        }
        b.build()
    }

    /// A symbolic single-equation problem `i1 - i2 - N = 0`, `i ∈ [0, N-1]`.
    fn symbolic_problem() -> DependenceProblem<SymPoly> {
        let upper = SymPoly::symbol("N").checked_sub(&poly(1)).unwrap();
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("i1", upper.clone());
        b.var("i2", upper);
        b.equation(SymPoly::symbol("N").checked_neg().unwrap(), vec![poly(1), poly(-1)]);
        b.build()
    }

    fn outcome(nodes: u64) -> CachedOutcome {
        CachedOutcome {
            verdict: Verdict::Independent,
            tested_by: "test",
            attempts: vec!["test"],
            solver_nodes: nodes,
            refine_queries: 0,
            subtree_reuses: 0,
            nodes_saved: 0,
            solver_state: None,
            degraded: None,
        }
    }

    #[test]
    fn key_ignores_names_and_equation_order() {
        let a = two_eq_problem([0, 1]);
        let b = two_eq_problem([1, 0]);
        let (ka, ca) = canonicalize(&a, "env");
        let (kb, cb) = canonicalize(&b, "env");
        assert_eq!(ka, kb);
        assert_eq!(ca.equations(), cb.equations());

        let mut renamed = DependenceProblem::<SymPoly>::builder();
        renamed.var("totally", poly(4));
        renamed.var("different", poly(9));
        renamed.equation(poly(-5), vec![poly(1), poly(10)]);
        renamed.equation(poly(3), vec![poly(2), poly(0)]);
        let (kr, _) = canonicalize(&renamed.build(), "env");
        assert_eq!(ka, kr);
    }

    #[test]
    fn key_separates_distinct_structures() {
        let a = two_eq_problem([0, 1]);
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("x", poly(4));
        b.var("y", poly(9));
        b.equation(poly(-6), vec![poly(1), poly(10)]); // different constant
        b.equation(poly(3), vec![poly(2), poly(0)]);
        let (ka, _) = canonicalize(&a, "env");
        let (kb, _) = canonicalize(&b.build(), "env");
        assert_ne!(ka, kb);
        // Different environment key, same structure: different key.
        let (kc, _) = canonicalize(&a, "other-env");
        assert_ne!(ka, kc);
    }

    /// The structural fingerprint partitions problems exactly like the
    /// canonical string key: invariant under renaming and equation order,
    /// sensitive to structure and to relevant assumptions only.
    #[test]
    fn fingerprint_matches_string_key_partition() {
        let env = Assumptions::new();
        // Equation order is invisible.
        assert_eq!(
            fingerprint_problem(&two_eq_problem([0, 1]), &env),
            fingerprint_problem(&two_eq_problem([1, 0]), &env),
        );
        // Variable names are invisible.
        let mut renamed = DependenceProblem::<SymPoly>::builder();
        renamed.var("totally", poly(4));
        renamed.var("different", poly(9));
        renamed.equation(poly(-5), vec![poly(1), poly(10)]);
        renamed.equation(poly(3), vec![poly(2), poly(0)]);
        assert_eq!(
            fingerprint_problem(&two_eq_problem([0, 1]), &env),
            fingerprint_problem(&renamed.build(), &env),
        );
        // A different constant is visible.
        let mut b = DependenceProblem::<SymPoly>::builder();
        b.var("x", poly(4));
        b.var("y", poly(9));
        b.equation(poly(-6), vec![poly(1), poly(10)]);
        b.equation(poly(3), vec![poly(2), poly(0)]);
        assert_ne!(
            fingerprint_problem(&two_eq_problem([0, 1]), &env),
            fingerprint_problem(&b.build(), &env),
        );
        // Concrete problems ignore every environment (empty projection).
        let mut rich = Assumptions::new();
        rich.set_lower_bound("N", 5).set_lower_bound("M", 2);
        assert_eq!(
            fingerprint_problem(&two_eq_problem([0, 1]), &env),
            fingerprint_problem(&two_eq_problem([0, 1]), &rich),
        );
        // Symbolic problems see bounds on their own symbols, the default
        // bound, and nothing else.
        let sym = symbolic_problem();
        let mut n2 = Assumptions::new();
        n2.set_lower_bound("N", 2);
        let mut n2_extra = n2.clone();
        n2_extra.set_lower_bound("UNRELATED", 9);
        assert_eq!(fingerprint_problem(&sym, &n2), fingerprint_problem(&sym, &n2_extra));
        assert_ne!(fingerprint_problem(&sym, &n2), fingerprint_problem(&sym, &env));
        assert_ne!(
            fingerprint_problem(&sym, &n2),
            fingerprint_problem(&sym, &Assumptions::with_default_lower_bound(1)),
        );
    }

    /// Both key modes produce the same hit/miss pattern and the same set of
    /// rendered canonical keys over a mixed workload — the unit-scale
    /// version of the `--verify` keying A/B.
    #[test]
    fn key_modes_partition_identically() {
        let fp_cache = VerdictCache::shared_with(KeyMode::Fp);
        let str_cache = VerdictCache::shared_with(KeyMode::Str);
        assert_eq!(fp_cache.key_mode(), KeyMode::Fp);
        assert_eq!(str_cache.key_mode(), KeyMode::Str);

        let mut n2 = Assumptions::new();
        n2.set_lower_bound("N", 2);
        let lookups: Vec<(Assumptions, DependenceProblem<SymPoly>)> = vec![
            (Assumptions::new(), two_eq_problem([0, 1])),
            (Assumptions::new(), two_eq_problem([1, 0])),
            (n2.clone(), two_eq_problem([0, 1])),
            (Assumptions::new(), symbolic_problem()),
            (n2.clone(), symbolic_problem()),
            (n2, symbolic_problem()),
        ];
        for (env, p) in &lookups {
            let a = fp_cache.lookup(env, p, |_| outcome(1));
            let b = str_cache.lookup(env, p, |_| outcome(1));
            assert_eq!(a.computed, b.computed, "modes must hit and miss together");
        }
        assert_eq!(fp_cache.len(), str_cache.len());
        assert_eq!(
            fp_cache.debug_keys(),
            str_cache.debug_keys(),
            "fingerprint cells must carry the exact canonical strings"
        );
        assert_eq!(fp_cache.debug_keys().len(), fp_cache.len());
    }

    #[test]
    fn env_key_projects_onto_problem_symbols() {
        // Concrete problems have an empty environment key under any env.
        let concrete = two_eq_problem([0, 1]);
        let mut rich = Assumptions::new();
        rich.set_lower_bound("N", 5).set_lower_bound("M", 2);
        assert_eq!(env_key(&concrete, &Assumptions::new()), "");
        assert_eq!(env_key(&concrete, &rich), "");

        // Symbolic problems pick up exactly the bounds of their symbols.
        let sym = symbolic_problem();
        let mut n2 = Assumptions::new();
        n2.set_lower_bound("N", 2);
        let mut n2_extra = n2.clone();
        n2_extra.set_lower_bound("UNRELATED", 9);
        // Irrelevant symbols do not split the key...
        assert_eq!(env_key(&sym, &n2), env_key(&sym, &n2_extra));
        // ...but bounds on mentioned symbols, and the default bound, do.
        assert_ne!(env_key(&sym, &n2), env_key(&sym, &Assumptions::new()));
        assert_ne!(env_key(&sym, &n2), env_key(&sym, &Assumptions::with_default_lower_bound(1)));
        // Pin the rendered form so accidental format drift is caught.
        assert_eq!(env_key(&sym, &n2), "N>=2,*>=0");
    }

    /// Regression test for the cross-unit collision audit: two units with
    /// byte-identical (renamed) equations but different assumption
    /// environments must not share a cache entry, while a third unit whose
    /// environment agrees on the relevant symbol must. Pinned in both key
    /// modes.
    #[test]
    fn shared_cache_separates_assumption_environments() {
        for mode in [KeyMode::Fp, KeyMode::Str] {
            let cache = VerdictCache::shared_with(mode);
            let p = symbolic_problem();
            let mut unit_a = Assumptions::new();
            unit_a.set_lower_bound("N", 1);
            let mut unit_b = Assumptions::new();
            unit_b.set_lower_bound("N", 8);
            let mut unit_c = unit_a.clone();
            unit_c.set_lower_bound("OTHER", 3); // irrelevant to `p`

            let a = cache.lookup(&unit_a, &p, |_| outcome(1));
            let b = cache.lookup(&unit_b, &p, |_| outcome(2));
            let c = cache.lookup(&unit_c, &p, |_| outcome(3));
            assert!(a.computed, "first sighting under env A must compute");
            assert!(b.computed, "env B must not reuse env A's entry");
            assert!(!c.computed, "env C agrees with A on N, must share");
            assert_ne!(a.key_fp, b.key_fp);
            assert_eq!(a.key_fp, c.key_fp);
            assert_eq!(c.outcome.solver_nodes, 1, "C must see A's entry");
            assert_eq!(cache.len(), 2);
        }
    }

    #[test]
    fn cache_computes_each_canonical_form_once() {
        for mode in [KeyMode::Fp, KeyMode::Str] {
            let cache = VerdictCache::new_with(&Assumptions::new(), mode);
            let mut runs = 0;
            for order in [[0, 1], [1, 0], [0, 1]] {
                let p = two_eq_problem(order);
                let (out, _) = cache.get_or_compute(&p, |_| {
                    runs += 1;
                    outcome(11)
                });
                assert!(out.verdict.is_independent());
                assert_eq!(out.solver_nodes, 11);
            }
            assert_eq!(runs, 1, "equation order must not defeat the cache");
            assert_eq!(cache.len(), 1);
            assert!(!cache.is_empty());
        }
    }

    #[test]
    fn cache_reports_hits_and_stable_fingerprints() {
        for mode in [KeyMode::Fp, KeyMode::Str] {
            let cache = VerdictCache::new_with(&Assumptions::new(), mode);
            let p = two_eq_problem([0, 1]);
            let (_, hit) = cache.get_or_compute(&p, |_| outcome(0));
            assert!(!hit);
            let (_, hit) = cache.get_or_compute(&p, |_| outcome(0));
            assert!(hit);
            // The two equation orders share one key fingerprint.
            let env = Assumptions::new();
            let a = cache.lookup(&env, &two_eq_problem([0, 1]), |_| outcome(0));
            let b = cache.lookup(&env, &two_eq_problem([1, 0]), |_| outcome(0));
            assert_eq!(a.key_fp, b.key_fp);
            assert!(!a.computed && !b.computed);
        }
    }

    /// A hit hands back the cache's own `Arc`, not a payload clone.
    #[test]
    fn hits_share_the_memoized_allocation() {
        let cache = VerdictCache::new_with(&Assumptions::new(), KeyMode::Fp);
        let p = two_eq_problem([0, 1]);
        let (first, _) = cache.get_or_compute(&p, |_| outcome(1));
        let (second, hit) = cache.get_or_compute(&p, |_| outcome(2));
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the stored Arc");
    }

    /// Regression: an envless `get_or_compute` on a shared cache used to
    /// panic (`expect("shared caches must use lookup()")`), turning an API
    /// misuse into a poisoned worker. It now degrades to a conservative
    /// no-memoize path: the canonical problem is computed and returned on
    /// every call, and nothing is ever stored.
    #[test]
    fn envless_get_or_compute_degrades_to_no_memoize() {
        let cache = VerdictCache::shared();
        let mut runs = 0;
        for _ in 0..2 {
            let (out, hit) = cache.get_or_compute(&two_eq_problem([0, 1]), |canon| {
                assert_eq!(canon.equations().len(), 2, "compute still sees the canonical form");
                runs += 1;
                outcome(runs)
            });
            assert!(!hit, "the no-memoize path can never report a hit");
            assert_eq!(out.solver_nodes, runs);
        }
        assert_eq!(runs, 2, "every envless call recomputes");
        assert!(cache.is_empty(), "nothing may be memoized without an environment");
    }

    /// A bounded cache evicts least-recently-touched entries once a shard
    /// exceeds its share of the capacity, stays bounded, keeps answering
    /// correctly for evicted keys (by recomputing), and counts evictions
    /// deterministically for a fixed serial arrival order.
    #[test]
    fn capacity_bounds_entries_and_counts_evictions_deterministically() {
        fn problem(c: i128) -> DependenceProblem<SymPoly> {
            let mut b = DependenceProblem::<SymPoly>::builder();
            b.var("x", poly(4));
            b.var("y", poly(9));
            b.equation(poly(c), vec![poly(1), poly(10)]);
            b.build()
        }
        let mut counts = Vec::new();
        for _ in 0..2 {
            let cache = VerdictCache::shared_with_cap(KeyMode::Fp, 1);
            assert_eq!(cache.capacity(), 1);
            let env = Assumptions::new();
            for c in 0..200 {
                let l = cache.lookup(&env, &problem(c), |_| outcome(c as u64));
                assert!(l.computed, "distinct structures always miss");
            }
            // Capacity 1 rounds up to one entry per shard.
            assert!(cache.len() <= SHARDS, "cache must stay bounded, got {}", cache.len());
            assert!(cache.evictions() >= (200 - SHARDS) as u64);
            // Evicted keys recompute and still answer correctly.
            let l = cache.lookup(&env, &problem(0), |_| outcome(0));
            assert_eq!(l.outcome.solver_nodes, 0);
            counts.push(cache.evictions());
        }
        assert_eq!(counts[0], counts[1], "serial eviction counts must be reproducible");

        // Unbounded (capacity 0) never evicts.
        let cache = VerdictCache::shared_with_cap(KeyMode::Fp, 0);
        let env = Assumptions::new();
        for c in 0..50 {
            let _ = cache.lookup(&env, &problem(c), |_| outcome(0));
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.evictions(), 0);
    }

    /// Entries whose compute slot is in flight are never evicted: a cell
    /// that inserts heavy pressure *during its own compute* still gets
    /// memoized and hits afterwards.
    #[test]
    fn in_flight_compute_slots_are_never_evicted() {
        fn problem(c: i128) -> DependenceProblem<SymPoly> {
            let mut b = DependenceProblem::<SymPoly>::builder();
            b.var("x", poly(4));
            b.var("y", poly(9));
            b.equation(poly(c), vec![poly(1), poly(10)]);
            b.build()
        }
        let cache = VerdictCache::shared_with_cap(KeyMode::Fp, 1);
        let env = Assumptions::new();
        let l = cache.lookup(&env, &problem(1000), |_| {
            // While this cell is `Computing`, flood every shard.
            for c in 0..200 {
                let _ = cache.lookup(&env, &problem(c), |_| outcome(0));
            }
            outcome(77)
        });
        assert!(l.computed);
        let again = cache.lookup(&env, &problem(1000), |_| outcome(0));
        assert!(!again.computed, "the in-flight cell must have survived the flood");
        assert_eq!(again.outcome.solver_nodes, 77);
    }

    /// Both key modes evict; the string baseline stays behaviorally aligned.
    #[test]
    fn string_keyed_caches_evict_too() {
        let cache = VerdictCache::shared_with_cap(KeyMode::Str, 1);
        let env = Assumptions::new();
        for c in 0..200 {
            let mut b = DependenceProblem::<SymPoly>::builder();
            b.var("x", poly(4));
            b.var("y", poly(9));
            b.equation(poly(c), vec![poly(1), poly(10)]);
            let _ = cache.lookup(&env, &b.build(), |_| outcome(0));
        }
        assert!(cache.len() <= SHARDS);
        assert!(cache.evictions() > 0);
    }

    /// Degraded outcomes reach their caller but never the store: the next
    /// lookup of the same key recomputes, and once a full-budget outcome
    /// lands it is the one memoized.
    #[test]
    fn degraded_outcomes_are_not_memoized() {
        for mode in [KeyMode::Fp, KeyMode::Str] {
            let cache = VerdictCache::new_with(&Assumptions::new(), mode);
            let p = two_eq_problem([0, 1]);
            let degraded = CachedOutcome {
                verdict: Verdict::Unknown,
                degraded: Some(delin_dep::budget::DegradeReason::Nodes),
                ..outcome(7)
            };
            let (out, hit) = cache.get_or_compute(&p, |_| degraded.clone());
            assert!(!hit);
            assert!(out.degraded.is_some());
            assert_eq!(cache.len(), 0, "degraded outcome must not be stored");
            // Recompute with a full budget: stored this time.
            let (out, hit) = cache.get_or_compute(&p, |_| outcome(9));
            assert!(!hit, "idle cell must recompute, not replay the degraded run");
            assert_eq!(out.solver_nodes, 9);
            assert_eq!(cache.len(), 1);
            let (out, hit) = cache.get_or_compute(&p, |_| outcome(99));
            assert!(hit);
            assert_eq!(out.solver_nodes, 9, "full-budget outcome is the memoized one");
        }
    }

    /// A panic inside the compute closure leaves the cell (and its shard
    /// lock) usable: the same key can be looked up again and computed.
    #[test]
    fn panicking_compute_leaves_cache_usable() {
        for mode in [KeyMode::Fp, KeyMode::Str] {
            let cache = VerdictCache::new_with(&Assumptions::new(), mode);
            let p = two_eq_problem([0, 1]);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_compute(&p, |_| panic!("injected solver fault"))
            }));
            assert!(unwound.is_err());
            assert_eq!(cache.len(), 0);
            let (out, hit) = cache.get_or_compute(&p, |_| outcome(5));
            assert!(!hit, "post-panic lookup must recompute");
            assert_eq!(out.solver_nodes, 5);
            assert_eq!(cache.len(), 1);
        }
    }

    /// The memoized outcome carries the incremental solver state: every
    /// later hit — from any reference pair or unit — sees the *same*
    /// [`SubtreeStore`] instance, so sibling refinements share subtrees
    /// instead of rebuilding them.
    #[test]
    fn cache_hits_carry_the_stored_solver_state() {
        let cache = VerdictCache::new(&Assumptions::new());
        let store = Arc::new(SubtreeStore::new());
        let miss = cache.get_or_compute(&two_eq_problem([0, 1]), |_| CachedOutcome {
            solver_state: Some(Arc::clone(&store)),
            ..outcome(3)
        });
        // Equation order must not defeat the state either.
        let (hit, was_hit) = cache.get_or_compute(&two_eq_problem([1, 0]), |_| outcome(0));
        assert!(was_hit);
        let carried = hit.solver_state.clone().expect("hit must carry the stored solver state");
        assert!(Arc::ptr_eq(&carried, &store));
        let first = miss.0.solver_state.clone().expect("miss returns the state it stored");
        assert!(Arc::ptr_eq(&first, &store));
    }

    #[test]
    fn compute_sees_the_canonical_problem() {
        for mode in [KeyMode::Fp, KeyMode::Str] {
            let cache = VerdictCache::new_with(&Assumptions::new(), mode);
            let p = two_eq_problem([1, 0]); // reversed order on purpose
            cache.get_or_compute(&p, |canon| {
                // Sorted structural order puts the -5 equation first (its
                // rendition sorts before the "3|2,0," one).
                assert_eq!(canon.equations().len(), 2);
                assert_eq!(canon.vars().len(), 2);
                outcome(0)
            });
        }
    }

    #[test]
    fn key_mode_env_knob_parses() {
        // `from_env` itself reads the live environment (unsafe to mutate in
        // a threaded test harness), so pin the match arms directly.
        assert_eq!(KeyMode::Fp.label(), "fp");
        assert_eq!(KeyMode::Str.label(), "string");
    }
}
