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
//! # Keys
//!
//! Each lookup folds the canonical structure (environment projection,
//! bounds, common pairs, equations, inequalities) through a 128-bit
//! structural fingerprint ([`fingerprint_problem`]:
//! [`delin_numeric::fp128::Fp128`], two decorrelated FxHash lanes) with
//! **no string rendering, no `SymPoly` clones, and no heap allocation**.
//! Equation-order insensitivity comes from combining per-equation
//! fingerprints commutatively (wrapping add), so the fingerprint never
//! needs the sorted order that [`canonicalize`] materializes. The shard
//! maps are `u128 → cell` behind [`fxhash::FxBuildHasher`], so a hit is an
//! integer hash plus one shard probe. The canonical problem is only built
//! on a miss, inside the cell's compute slot.
//!
//! A fingerprint partitions problems exactly like the canonical string key
//! [`canonicalize`] renders under [`env_key`]; `tests/key_partition.rs`
//! checks both directions of that equivalence over a corpus.
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
//! [`crate::persist`] serializes memoized entries (fingerprint and
//! outcome; decisions keep no solver state, so none is written) to a
//! versioned, checksummed file and seeds them back at startup. Seeded cells are marked, so [`VerdictCache::persistent_hits`]
//! counts the lookups a warm start answered without solving. Only
//! full-budget outcomes ever reach the cache, so a warm start can never
//! replay a degraded verdict.

use delin_dep::budget::DegradeReason;
use delin_dep::exact::SubtreeStore;
use delin_dep::problem::DependenceProblem;
use delin_dep::verdict::Verdict;
use delin_numeric::fp128::Fp128;
use delin_numeric::{Assumptions, Sym, SymPoly};
use fxhash::FxBuildHasher;
use std::collections::HashMap;
use std::hash::Hasher as _;
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

/// No effect (fingerprints are the only keys); kept only because perfbench names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// 128-bit structural fingerprints.
    Fp,
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
    /// Not filled by the engine, and read by nothing: a decision's solve
    /// trees end with the decision, because a cache hit returns the stored
    /// verdict without walking again, and the persistent tier writes no
    /// trees. Kept only because perfbench names it.
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
            from_disk: false,
        }
    }

    /// A cell seeded from the persistent tier: born `Ready` and marked so
    /// hits on it count as persistent.
    fn seeded(outcome: CachedOutcome) -> ComputeCell {
        let outcome = Arc::new(outcome);
        let cell = ComputeCell {
            state: Mutex::new(CellState::Ready(Arc::clone(&outcome))),
            cond: Condvar::new(),
            ready: OnceLock::new(),
            from_disk: true,
        };
        let _ = cell.ready.set(outcome);
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

/// One lock shard: fingerprint → slot.
type Shard = RwLock<HashMap<u128, Slot, FxBuildHasher>>;

/// A verdict cache keyed by canonicalized dependence problems.
///
/// Every lookup ([`VerdictCache::lookup`]) carries the assumption
/// environment it runs under, so one cache may serve program units with
/// *different* environments.
pub struct VerdictCache {
    shards: Vec<Shard>,
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
}

impl VerdictCache {
    /// An empty cache safe to share across program units analyzed under
    /// different assumption environments, bounded per [`cache_cap_from_env`].
    pub fn shared() -> VerdictCache {
        VerdictCache::bounded(cache_cap_from_env())
    }

    /// An empty shareable cache holding at most `capacity` entries (`0` =
    /// unbounded).
    pub fn bounded(capacity: usize) -> VerdictCache {
        VerdictCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::default())).collect(),
            capacity,
            shard_cap: capacity.div_ceil(SHARDS),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persistent_hits: AtomicU64::new(0),
        }
    }

    /// [`VerdictCache::bounded`]; the [`KeyMode`] is kept only because perfbench names it.
    pub fn shared_with_cap(_mode: KeyMode, capacity: usize) -> VerdictCache {
        VerdictCache::bounded(capacity)
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

    /// Number of memoized outcomes across all shards (distinct canonical
    /// problems decided under a full budget). Cells whose computation
    /// panicked or degraded hold no outcome and are not counted.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let map = s.read().unwrap_or_else(PoisonError::into_inner);
                map.values().filter(|slot| slot.cell.is_ready()).count()
            })
            .sum()
    }

    /// `true` when no problem has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the canonical form of `problem` under `assumptions`,
    /// running `compute` on the canonical problem on the first sighting of
    /// the (environment, structure) pair.
    ///
    /// `compute` receives the *canonical* problem, so the stored verdict is
    /// a pure function of the cache key — this is what keeps parallel and
    /// multi-unit runs deterministic regardless of which worker (or which
    /// unit) populates an entry first. A hit performs no string rendering,
    /// no `SymPoly` clone and no heap allocation: the canonical problem only
    /// materializes inside the cell's compute slot on a miss.
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
        let fp = fingerprint_problem(problem, assumptions);
        // Lane A (the high half) doubles as the 64-bit attribution
        // fingerprint; lane B picks the shard, so attribution and shard
        // choice stay decorrelated.
        let key_fp = (fp >> 64) as u64;
        let cell = self.probe(fp);
        let (outcome, computed) = cell.get_or_compute(|| {
            // Miss: now (and only now) materialize the canonical problem.
            // Its equation order does not depend on the environment key.
            let (_, canonical) = canonicalize(problem, "");
            compute(&canonical)
        });
        if !computed && cell.from_disk {
            self.persistent_hits.fetch_add(members, Ordering::Relaxed);
        }
        CacheLookup { outcome, computed, key_fp }
    }

    /// The shard that holds fingerprint `fp` (picked by lane B).
    fn shard(&self, fp: u128) -> &Shard {
        &self.shards[(fp as usize) % SHARDS]
    }

    /// Shard probe: read-lock first (hits never take the write lock,
    /// refreshing their LRU stamp atomically), insert an idle cell under
    /// the write lock on miss and evict if the shard ran over its share of
    /// the capacity. A poisoned shard lock only means some worker panicked
    /// while holding it; the map itself is never left mid-mutation (inserts
    /// are single entry operations), so recover the guard and keep going.
    fn probe(&self, fp: u128) -> Arc<ComputeCell> {
        let shard = self.shard(fp);
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
        self.evict_over_cap(&mut write, fp);
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
    fn evict_over_cap(&self, map: &mut HashMap<u128, Slot, FxBuildHasher>, just_inserted: u128) {
        if self.shard_cap == 0 {
            return;
        }
        while map.len() > self.shard_cap {
            let victim = map
                .iter()
                .filter(|(k, slot)| **k != just_inserted && slot.cell.is_evictable())
                .min_by_key(|(_, slot)| slot.last_use.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Seeds one entry loaded from the persistent tier: inserted `Ready`,
    /// marked so later hits count as persistent. Returns `false` (storing
    /// nothing) for degraded outcomes (never persisted, and never memoized
    /// even if a file claimed one) and for fingerprints already present.
    pub(crate) fn seed_entry(&self, fp: u128, outcome: CachedOutcome) -> bool {
        if outcome.degraded.is_some() {
            return false;
        }
        let mut write = self.shard(fp).write().unwrap_or_else(PoisonError::into_inner);
        if write.contains_key(&fp) {
            return false;
        }
        let cell = Arc::new(ComputeCell::seeded(outcome));
        write.insert(fp, self.new_slot(cell));
        self.evict_over_cap(&mut write, fp);
        true
    }

    /// Every memoized entry with its outcome, sorted by fingerprint — the
    /// deterministic export the persistent tier serializes.
    pub(crate) fn export_entries(&self) -> Vec<(u128, Arc<CachedOutcome>)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let map = s.read().unwrap_or_else(PoisonError::into_inner);
            for (fp, slot) in map.iter() {
                if let CellState::Ready(outcome) = &*lock_recover(&slot.cell.state) {
                    out.push((*fp, Arc::clone(outcome)));
                }
            }
        }
        out.sort_unstable_by_key(|(fp, _)| *fp);
        out
    }
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

    /// Fingerprints partition a mixed workload exactly like the rendered
    /// canonical keys, in both directions, and the cache misses exactly on
    /// each key's first sighting — the unit-scale version of
    /// `tests/key_partition.rs`.
    #[test]
    fn fingerprints_partition_like_canonical_keys() {
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
        let keys: Vec<(u128, String)> = lookups
            .iter()
            .map(|(env, p)| (fingerprint_problem(p, env), canonicalize(p, &env_key(p, env)).0))
            .collect();
        for a in &keys {
            for b in &keys {
                assert_eq!(a.0 == b.0, a.1 == b.1, "fingerprint and key partition differently");
            }
        }
        let cache = VerdictCache::shared();
        let mut seen = std::collections::HashSet::new();
        for ((env, p), (_, key)) in lookups.iter().zip(&keys) {
            let l = cache.lookup(env, p, |_| outcome(1));
            assert_eq!(l.computed, seen.insert(key.clone()), "miss exactly on a new key");
        }
        assert_eq!(cache.len(), seen.len());
        assert_eq!(cache.len(), 3);
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
    /// environment agrees on the relevant symbol must.
    #[test]
    fn shared_cache_separates_assumption_environments() {
        let cache = VerdictCache::shared();
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

    #[test]
    fn cache_computes_each_canonical_form_once() {
        let cache = VerdictCache::bounded(0);
        let env = Assumptions::new();
        let mut runs = 0;
        for order in [[0, 1], [1, 0], [0, 1]] {
            let p = two_eq_problem(order);
            let out = cache.lookup(&env, &p, |_| {
                runs += 1;
                outcome(11)
            });
            assert!(out.outcome.verdict.is_independent());
            assert_eq!(out.outcome.solver_nodes, 11);
        }
        assert_eq!(runs, 1, "equation order must not defeat the cache");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cache_reports_hits_and_stable_fingerprints() {
        let cache = VerdictCache::bounded(0);
        let env = Assumptions::new();
        let p = two_eq_problem([0, 1]);
        assert!(cache.lookup(&env, &p, |_| outcome(0)).computed);
        assert!(!cache.lookup(&env, &p, |_| outcome(0)).computed);
        // The two equation orders share one key fingerprint.
        let a = cache.lookup(&env, &two_eq_problem([0, 1]), |_| outcome(0));
        let b = cache.lookup(&env, &two_eq_problem([1, 0]), |_| outcome(0));
        assert_eq!(a.key_fp, b.key_fp);
        assert!(!a.computed && !b.computed);
    }

    /// A hit hands back the cache's own `Arc`, not a payload clone.
    #[test]
    fn hits_share_the_memoized_allocation() {
        let cache = VerdictCache::bounded(0);
        let env = Assumptions::new();
        let p = two_eq_problem([0, 1]);
        let first = cache.lookup(&env, &p, |_| outcome(1));
        let second = cache.lookup(&env, &p, |_| outcome(2));
        assert!(!second.computed);
        assert!(Arc::ptr_eq(&first.outcome, &second.outcome), "hit must share the stored Arc");
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
            let cache = VerdictCache::bounded(1);
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
        let cache = VerdictCache::bounded(0);
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
        let cache = VerdictCache::bounded(1);
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

    /// Degraded outcomes reach their caller but never the store: the next
    /// lookup of the same key recomputes, and once a full-budget outcome
    /// lands it is the one memoized.
    #[test]
    fn degraded_outcomes_are_not_memoized() {
        let cache = VerdictCache::bounded(0);
        let env = Assumptions::new();
        let p = two_eq_problem([0, 1]);
        let degraded = CachedOutcome {
            verdict: Verdict::Unknown,
            degraded: Some(delin_dep::budget::DegradeReason::Nodes),
            ..outcome(7)
        };
        let out = cache.lookup(&env, &p, |_| degraded.clone());
        assert!(out.computed);
        assert!(out.outcome.degraded.is_some());
        assert_eq!(cache.len(), 0, "degraded outcome must not be stored");
        // Recompute with a full budget: stored this time.
        let out = cache.lookup(&env, &p, |_| outcome(9));
        assert!(out.computed, "idle cell must recompute, not replay the degraded run");
        assert_eq!(out.outcome.solver_nodes, 9);
        assert_eq!(cache.len(), 1);
        let out = cache.lookup(&env, &p, |_| outcome(99));
        assert!(!out.computed);
        assert_eq!(out.outcome.solver_nodes, 9, "full-budget outcome is the memoized one");
    }

    /// A panic inside the compute closure leaves the cell (and its shard
    /// lock) usable: the same key can be looked up again and computed.
    #[test]
    fn panicking_compute_leaves_cache_usable() {
        let cache = VerdictCache::bounded(0);
        let env = Assumptions::new();
        let p = two_eq_problem([0, 1]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.lookup(&env, &p, |_| panic!("injected solver fault"))
        }));
        assert!(unwound.is_err());
        assert_eq!(cache.len(), 0);
        let out = cache.lookup(&env, &p, |_| outcome(5));
        assert!(out.computed, "post-panic lookup must recompute");
        assert_eq!(out.outcome.solver_nodes, 5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compute_sees_the_canonical_problem() {
        let cache = VerdictCache::bounded(0);
        let p = two_eq_problem([1, 0]); // reversed order on purpose
        cache.lookup(&Assumptions::new(), &p, |canon| {
            // Sorted structural order puts the -5 equation first (its
            // rendition sorts before the "3|2,0," one).
            assert_eq!(canon.equations().len(), 2);
            assert_eq!(canon.vars().len(), 2);
            outcome(0)
        });
    }
}
