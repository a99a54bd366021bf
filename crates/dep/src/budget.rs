//! Resource budgets: node limits, monotonic deadlines, and cancellation.
//!
//! Exact Diophantine dependence testing is integer programming, and a
//! production engine serving whole corpora must survive adversarial
//! subscripts rather than merely fast ones. A [`ResourceBudget`] bounds a
//! unit of analysis work along three axes — exact-solver search nodes, a
//! monotonic wall-clock deadline, and an externally owned [`CancelToken`] —
//! and records *which* axis tripped first as a [`DegradeReason`]. Exceeding
//! a budget is never an error: every consumer degrades to the sound
//! conservative answer (`Verdict::Unknown`, "every direction survives") and
//! keeps going.
//!
//! Budgets are cheap to clone: the limits are plain values and the trip
//! flag is a shared atomic, so one budget can be handed to many solver
//! invocations and later asked whether *any* of them degraded. Engines that
//! want per-work-item attribution instead clone a fresh flag with
//! [`ResourceBudget::fresh`].
//!
//! The node-limit axis is fully deterministic (search nodes are a pure
//! function of the problem), so two runs under the same limits degrade
//! identically. The deadline and cancellation axes are wall-clock driven
//! and therefore inherently scheduling-dependent; they are opt-in and
//! documented as such wherever determinism contracts apply.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which resource axis exhausted first when an analysis degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradeReason {
    /// The exact-solver search-node limit was exceeded.
    Nodes,
    /// The monotonic wall-clock deadline passed.
    Deadline,
    /// The owning [`CancelToken`] was cancelled.
    Cancelled,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeReason::Nodes => "nodes",
            DegradeReason::Deadline => "deadline",
            DegradeReason::Cancelled => "cancelled",
        })
    }
}

/// One node of a cancellation tree: a flag plus an optional parent link.
/// Cancellation is observed *upward* — a token is cancelled when its own
/// flag or any ancestor's flag is set — so tripping a root reaches every
/// descendant at the very next probe, with no watcher thread fanning the
/// signal out.
#[derive(Debug, Default)]
struct CancelNode {
    flag: AtomicBool,
    parent: Option<Arc<CancelNode>>,
}

impl CancelNode {
    fn is_set(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        let mut node = &self.parent;
        while let Some(parent) = node {
            if parent.flag.load(Ordering::Acquire) {
                return true;
            }
            node = &parent.parent;
        }
        false
    }
}

/// A shared cancellation flag: cloned freely, cancelled once, observed by
/// every budget holding a clone.
///
/// Tokens form a tree (see [`CancelToken::child`]): cancelling a token
/// cancels every token derived from it, while a child's own cancellation
/// leaves its parent (and siblings) untouched. This is how the serving
/// layer scopes cancellation — daemon shutdown > connection > request —
/// without any polling thread relaying the daemon-wide signal into
/// per-request tokens.
///
/// [`CancelToken::cancel`] performs a single atomic store: it is safe to
/// call from a signal handler.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<CancelNode>);

impl CancelToken {
    /// A fresh, un-cancelled root token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token cancelled when *either* it or `self` (or any ancestor of
    /// `self`) is cancelled. Cancelling the child does not affect the
    /// parent. Chains stay shallow in practice (shutdown > connection >
    /// request is three levels); [`CancelToken::is_cancelled`] walks the
    /// chain with one atomic load per level.
    #[must_use]
    pub fn child(&self) -> CancelToken {
        CancelToken(Arc::new(CancelNode {
            flag: AtomicBool::new(false),
            parent: Some(self.0.clone()),
        }))
    }

    /// Requests cancellation of this token and every descendant. Idempotent;
    /// analyses drain quickly by degrading every remaining decision to
    /// `Unknown`. A single atomic store — async-signal-safe.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on this token or
    /// any of its ancestors.
    pub fn is_cancelled(&self) -> bool {
        self.0.is_set()
    }
}

/// How many search nodes between wall-clock/cancellation probes. Node
/// checks are branch-cheap and run every node; `Instant::now()` and the
/// atomic load are amortized over this stride.
const CLOCK_STRIDE: u64 = 256;

/// The default node limit: matches the engine's historical per-decision
/// solver budget, so an unconfigured budget reproduces pre-budget behaviour
/// exactly.
pub const DEFAULT_NODE_LIMIT: u64 = 1_000_000;

/// Trip-flag encoding (0 = clear) for the shared atomic.
fn encode(reason: DegradeReason) -> u8 {
    match reason {
        DegradeReason::Nodes => 1,
        DegradeReason::Deadline => 2,
        DegradeReason::Cancelled => 3,
    }
}

fn decode(code: u8) -> Option<DegradeReason> {
    match code {
        1 => Some(DegradeReason::Nodes),
        2 => Some(DegradeReason::Deadline),
        3 => Some(DegradeReason::Cancelled),
        _ => None,
    }
}

/// An armed resource budget: limits plus a shared first-trip record.
#[derive(Debug, Clone)]
pub struct ResourceBudget {
    node_limit: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// First exhaustion observed through this budget (or any clone of it);
    /// `0` until tripped.
    trip: Arc<AtomicU8>,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::with_node_limit(DEFAULT_NODE_LIMIT)
    }
}

impl ResourceBudget {
    /// A budget bounded by search nodes only.
    pub fn with_node_limit(node_limit: u64) -> ResourceBudget {
        ResourceBudget { node_limit, deadline: None, cancel: None, trip: Arc::default() }
    }

    /// An effectively unbounded budget.
    pub fn unlimited() -> ResourceBudget {
        ResourceBudget::with_node_limit(u64::MAX)
    }

    /// Adds an absolute monotonic deadline. The budget counts as expired
    /// once `Instant::now() >= deadline`, so a deadline of "now" is already
    /// expired — useful for deterministic expiry tests.
    #[must_use]
    pub fn deadline_at(mut self, deadline: Instant) -> ResourceBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a deadline `timeout` from now.
    #[must_use]
    pub fn deadline_in(self, timeout: Duration) -> ResourceBudget {
        let now = Instant::now();
        self.deadline_at(now.checked_add(timeout).unwrap_or(now))
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> ResourceBudget {
        self.cancel = Some(cancel);
        self
    }

    /// The search-node limit.
    pub fn node_limit(&self) -> u64 {
        self.node_limit
    }

    /// A budget with the same limits but a fresh (untripped) trip record,
    /// for engines that attribute degradation per work item.
    pub fn fresh(&self) -> ResourceBudget {
        ResourceBudget { trip: Arc::default(), ..self.clone() }
    }

    /// Records the first exhaustion reason; later trips keep the first.
    pub fn trip(&self, reason: DegradeReason) {
        let _ = self.trip.compare_exchange(0, encode(reason), Ordering::AcqRel, Ordering::Acquire);
    }

    /// The first exhaustion recorded through this budget, if any.
    pub fn tripped(&self) -> Option<DegradeReason> {
        decode(self.trip.load(Ordering::Acquire))
    }

    /// Probes the wall-clock axes (cancellation first, then deadline),
    /// recording and returning the reason when exhausted. Does not consult
    /// the node limit — that is [`ResourceBudget::check`]'s job.
    pub fn exhausted(&self) -> Option<DegradeReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.trip(DegradeReason::Cancelled);
            return Some(DegradeReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.trip(DegradeReason::Deadline);
            return Some(DegradeReason::Deadline);
        }
        None
    }

    /// Per-search-node probe: the node limit is checked on every call, the
    /// wall-clock axes every [`CLOCK_STRIDE`] nodes. Trips and returns the
    /// exhaustion reason as an error so solvers can `?` out of the search.
    ///
    /// # Errors
    ///
    /// Returns the [`DegradeReason`] that exhausted first.
    pub fn check(&self, nodes: u64) -> Result<(), DegradeReason> {
        if nodes > self.node_limit {
            self.trip(DegradeReason::Nodes);
            return Err(DegradeReason::Nodes);
        }
        if nodes.is_multiple_of(CLOCK_STRIDE) {
            if let Some(reason) = self.exhausted() {
                return Err(reason);
            }
        }
        Ok(())
    }
}

/// A *specification* of a resource budget, carried in configurations and
/// armed into a [`ResourceBudget`] at run start. Splitting spec from armed
/// budget keeps deadlines relative ("500 ms per run") rather than absolute,
/// so retries and fresh runs each get their full allowance.
#[derive(Debug, Clone)]
pub struct BudgetSpec {
    /// Exact-solver search-node limit per dependence decision.
    pub node_limit: u64,
    /// Wall-clock allowance in milliseconds per run; `None` means no
    /// deadline. `Some(0)` arms an already-expired deadline (every decision
    /// degrades — deterministic, used by expiry tests and fault injection).
    pub deadline_ms: Option<u64>,
    /// Cooperative cancellation, observed by every decision of the run.
    pub cancel: Option<CancelToken>,
}

impl Default for BudgetSpec {
    /// Node limit [`DEFAULT_NODE_LIMIT`]; deadline from the
    /// `DELIN_DEADLINE_MS` environment variable when set to a number, else
    /// none; no cancellation token.
    fn default() -> Self {
        BudgetSpec {
            node_limit: DEFAULT_NODE_LIMIT,
            deadline_ms: deadline_ms_from_env(),
            cancel: None,
        }
    }
}

/// The `DELIN_DEADLINE_MS` environment knob: a per-run wall-clock deadline
/// in milliseconds for every engine run that uses default budgets.
pub fn deadline_ms_from_env() -> Option<u64> {
    std::env::var("DELIN_DEADLINE_MS").ok().and_then(|v| v.parse().ok())
}

impl BudgetSpec {
    /// A spec bounded by search nodes only (no deadline, no cancellation,
    /// no environment consultation).
    pub fn nodes_only(node_limit: u64) -> BudgetSpec {
        BudgetSpec { node_limit, deadline_ms: None, cancel: None }
    }

    /// Arms the spec into a live budget: the deadline clock starts now.
    pub fn arm(&self) -> ResourceBudget {
        let mut budget = ResourceBudget::with_node_limit(self.node_limit);
        if let Some(ms) = self.deadline_ms {
            budget = budget.deadline_in(Duration::from_millis(ms));
        }
        if let Some(cancel) = &self.cancel {
            budget = budget.with_cancel(cancel.clone());
        }
        budget
    }

    /// The spec with node and deadline allowances multiplied by `factor`
    /// (saturating): the escalated budget a retry runs under.
    #[must_use]
    pub fn escalated(&self, factor: u64) -> BudgetSpec {
        BudgetSpec {
            node_limit: self.node_limit.saturating_mul(factor),
            deadline_ms: self.deadline_ms.map(|ms| ms.saturating_mul(factor)),
            cancel: self.cancel.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_limit_trips_and_records() {
        let b = ResourceBudget::with_node_limit(10);
        assert_eq!(b.check(10), Ok(()));
        assert_eq!(b.tripped(), None);
        assert_eq!(b.check(11), Err(DegradeReason::Nodes));
        assert_eq!(b.tripped(), Some(DegradeReason::Nodes));
    }

    #[test]
    fn first_trip_wins() {
        let b = ResourceBudget::with_node_limit(0);
        b.trip(DegradeReason::Deadline);
        b.trip(DegradeReason::Nodes);
        assert_eq!(b.tripped(), Some(DegradeReason::Deadline));
        // Clones share the record; fresh() does not.
        assert_eq!(b.clone().tripped(), Some(DegradeReason::Deadline));
        assert_eq!(b.fresh().tripped(), None);
    }

    #[test]
    fn expired_deadline_is_observed() {
        let b = ResourceBudget::unlimited().deadline_at(Instant::now());
        assert_eq!(b.exhausted(), Some(DegradeReason::Deadline));
        assert_eq!(b.tripped(), Some(DegradeReason::Deadline));
    }

    #[test]
    fn child_tokens_observe_ancestors_not_siblings() {
        let root = CancelToken::new();
        let conn = root.child();
        let req_a = conn.child();
        let req_b = conn.child();

        // A leaf's own cancellation stays scoped to the leaf.
        req_a.cancel();
        assert!(req_a.is_cancelled());
        assert!(!req_b.is_cancelled(), "sibling unaffected");
        assert!(!conn.is_cancelled(), "parent unaffected");
        assert!(!root.is_cancelled());

        // Cancelling an interior node reaches every descendant.
        conn.cancel();
        assert!(req_b.is_cancelled());
        assert!(!root.is_cancelled());

        // And a root cancellation reaches a fresh grandchild instantly —
        // this is the event path that replaced the serve-layer watcher
        // thread: no relay, the probe itself sees the ancestor flag.
        let root2 = CancelToken::new();
        let leaf = root2.child().child();
        root2.cancel();
        assert!(leaf.is_cancelled());
    }

    #[test]
    fn child_cancellation_degrades_budgets() {
        let shutdown = CancelToken::new();
        let request = shutdown.child();
        let b = ResourceBudget::unlimited().with_cancel(request.clone());
        assert_eq!(b.exhausted(), None);
        shutdown.cancel();
        assert_eq!(b.exhausted(), Some(DegradeReason::Cancelled));
    }

    #[test]
    fn cancellation_beats_deadline() {
        let token = CancelToken::new();
        let b = ResourceBudget::unlimited().deadline_at(Instant::now()).with_cancel(token.clone());
        assert!(!token.is_cancelled());
        token.cancel();
        assert_eq!(b.exhausted(), Some(DegradeReason::Cancelled));
    }

    #[test]
    fn clock_axes_probed_on_stride() {
        let b = ResourceBudget::unlimited().deadline_at(Instant::now());
        assert_eq!(b.check(1), Ok(()), "off-stride nodes skip the clock");
        assert_eq!(b.check(CLOCK_STRIDE), Err(DegradeReason::Deadline));
    }

    #[test]
    fn spec_arms_and_escalates() {
        let spec = BudgetSpec::nodes_only(100);
        assert_eq!(spec.arm().node_limit(), 100);
        let up = spec.escalated(4);
        assert_eq!(up.node_limit, 400);
        assert_eq!(up.deadline_ms, None);
        let timed = BudgetSpec { deadline_ms: Some(0), ..BudgetSpec::nodes_only(5) };
        assert_eq!(timed.escalated(3).deadline_ms, Some(0));
        assert_eq!(timed.arm().exhausted(), Some(DegradeReason::Deadline));
        assert_eq!(BudgetSpec { node_limit: u64::MAX, ..timed }.escalated(2).node_limit, u64::MAX);
    }

    #[test]
    fn reason_renders_lowercase() {
        assert_eq!(DegradeReason::Nodes.to_string(), "nodes");
        assert_eq!(DegradeReason::Deadline.to_string(), "deadline");
        assert_eq!(DegradeReason::Cancelled.to_string(), "cancelled");
    }
}
