//! Deterministic fault injection for the analysis runtime.
//!
//! The robustness contract of the batch engine — panics isolated per unit,
//! budget exhaustion degrading to conservative verdicts, reports
//! byte-identical for any worker count *modulo the injected failures* — is
//! only worth anything if it can be exercised on demand. This module
//! injects faults at three granularities:
//!
//! * **unit** — a whole program unit panics on arrival, or runs under a
//!   zero-node / already-expired budget;
//! * **pair** — one reference-pair decision panics (the unit's graph
//!   build unwinds; [`crate::batch`] catches, retries, and attributes);
//! * **solver** — one reference-pair decision runs under an exhausted
//!   budget and degrades to `Unknown` (exercises the degraded-not-memoized
//!   cache policy, since the faulted pair bypasses the shared cache).
//!
//! Every decision is a pure function of `(seed, site identity)` — a
//! splitmix64-style hash, no RNG state, no ordering sensitivity — so a
//! given seed produces the *same* fault set for any worker count, arrival
//! order, or retry schedule. That determinism is what lets the chaos suite
//! assert byte-identical corpus reports across `workers ∈ {1, 4, auto}`
//! while faults are firing.
//!
//! The whole module is compiled in both configurations, but with the
//! `chaos` cargo feature **off** (the default, and the only configuration
//! shipped by `cargo build`), [`ChaosPlan`] is an *uninhabited* enum: no
//! plan value can exist, `Option<ChaosPlan>` is statically `None`, and
//! every injection site in the engine folds to the no-fault path at
//! compile time. Production builds therefore carry zero chaos overhead and
//! cannot be faulted by any environment variable.

use delin_dep::budget::BudgetSpec;

/// The kind of fault injected at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic at the injection site (exercises unwind isolation).
    Panic,
    /// Run under a zero-node budget (deterministic exhaustion).
    Nodes,
    /// Run under an already-expired deadline.
    Deadline,
}

/// The panic payload of every injected panic, at every granularity.
///
/// Deliberately constant and site-free: a failed unit's report says that
/// an injected panic ended it, not which site fired, so its reason reads
/// the same whether a unit or a pair fault struck.
pub const CHAOS_PANIC_MSG: &str = "chaos: injected panic";

/// A seeded fault-injection plan (feature `chaos` enabled).
#[cfg(feature = "chaos")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed mixed into every site decision.
    pub seed: u64,
    /// Unit-fault rate in permille (out of 1000).
    pub unit_rate: u16,
    /// Pair/solver-fault rate in permille (out of 1000).
    pub pair_rate: u16,
}

/// A seeded fault-injection plan (feature `chaos` disabled: uninhabited,
/// so no plan can exist and injection sites compile to nothing).
#[cfg(not(feature = "chaos"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPlan {}

#[cfg(feature = "chaos")]
impl ChaosPlan {
    /// A plan with the default rates: roughly one unit in four faulted,
    /// roughly three pair decisions in a hundred faulted.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan { seed, unit_rate: 250, pair_rate: 30 }
    }

    /// The plan requested by the `DELIN_CHAOS_SEED` environment variable,
    /// if set to a number.
    pub fn from_env() -> Option<ChaosPlan> {
        std::env::var("DELIN_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).map(ChaosPlan::new)
    }

    /// The fault (if any) for processing `unit` on retry `attempt`.
    pub fn unit_fault(&self, unit: &str, attempt: u32) -> Option<FaultKind> {
        self.decide(self.unit_rate, &format!("unit:{unit}:{attempt}"))
    }

    /// The fault (if any) for deciding reference pair `(src, dst)` of
    /// `unit` on retry `attempt`. Keyed on the worklist site indices, which
    /// are a pure function of the unit's source.
    pub fn pair_fault(
        &self,
        unit: &str,
        attempt: u32,
        src: usize,
        dst: usize,
    ) -> Option<FaultKind> {
        self.decide(self.pair_rate, &format!("pair:{unit}:{attempt}:{src}:{dst}"))
    }

    fn decide(&self, rate: u16, site: &str) -> Option<FaultKind> {
        let h = site_hash(self.seed, site);
        if h % 1000 >= u64::from(rate) {
            return None;
        }
        Some(match (h / 1000) % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Nodes,
            _ => FaultKind::Deadline,
        })
    }
}

#[cfg(not(feature = "chaos"))]
impl ChaosPlan {
    /// Chaos is compiled out: there is never a plan in the environment.
    pub fn from_env() -> Option<ChaosPlan> {
        None
    }

    /// Unreachable (no plan value exists with the feature off).
    pub fn unit_fault(&self, _unit: &str, _attempt: u32) -> Option<FaultKind> {
        match *self {}
    }

    /// Unreachable (no plan value exists with the feature off).
    pub fn pair_fault(
        &self,
        _unit: &str,
        _attempt: u32,
        _src: usize,
        _dst: usize,
    ) -> Option<FaultKind> {
        match *self {}
    }
}

/// A plan bound to the unit (and retry attempt) it is faulting, threaded
/// from [`crate::batch`] through the engine so pair-granular sites can key
/// their decisions. Uninhabited whenever [`ChaosPlan`] is.
#[derive(Debug, Clone)]
pub struct ChaosCtx {
    /// The active plan.
    pub plan: ChaosPlan,
    /// The unit being processed.
    pub unit: String,
    /// The 0-based retry attempt — retries draw an independent fault set,
    /// so an escalated retry is not doomed to replay the same faults.
    pub attempt: u32,
}

impl ChaosCtx {
    /// The fault (if any) for this unit as a whole.
    pub fn unit_fault(&self) -> Option<FaultKind> {
        self.plan.unit_fault(&self.unit, self.attempt)
    }

    /// The fault (if any) for one reference-pair decision.
    pub fn pair_fault(&self, src: usize, dst: usize) -> Option<FaultKind> {
        self.plan.pair_fault(&self.unit, self.attempt, src, dst)
    }

    /// Applies a budget-class fault to a spec: [`FaultKind::Nodes`] zeroes
    /// the node allowance, [`FaultKind::Deadline`] arms an already-expired
    /// deadline. [`FaultKind::Panic`] leaves the spec alone (the caller
    /// panics instead).
    pub fn faulted_spec(fault: FaultKind, spec: &BudgetSpec) -> BudgetSpec {
        match fault {
            FaultKind::Panic => spec.clone(),
            FaultKind::Nodes => BudgetSpec { node_limit: 0, ..spec.clone() },
            FaultKind::Deadline => BudgetSpec { deadline_ms: Some(0), ..spec.clone() },
        }
    }
}

/// splitmix64-style avalanche: decisions depend on every bit of the seed
/// and the site identity, nothing else. (Used by both the feature-gated
/// engine faults and the always-compiled transport faults below.)
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn site_hash(seed: u64, site: &str) -> u64 {
    let mut h = mix(seed ^ 0x9e37_79b9_7f4a_7c15);
    for b in site.bytes() {
        h = mix(h ^ u64::from(b));
    }
    h
}

// ---------------------------------------------------------------------------
// Transport faults
// ---------------------------------------------------------------------------
//
// Unlike the engine faults above, the transport layer is **always
// compiled**: the wrappers are pure adapter types over any reader/writer,
// cost nothing unless a transport is actually wrapped, and are needed by
// the (always-built) `delin_loadgen` bench binary and the serving test
// suites. The same determinism contract applies: every decision is a pure
// function of `(seed, connection index)`.

/// A connection-level transport fault, injected by wrapping one side of a
/// client connection. Each models a distinct real-world failure the
/// multi-connection daemon must confine to the faulted client:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportFault {
    /// The peer vanishes after `after` bytes of its request stream have
    /// been read — a mid-request disconnect (possibly mid-line: the
    /// half-written-line case) or a killed socket. Reads then fail with
    /// `ConnectionReset`.
    CutRead {
        /// Bytes readable before the reset.
        after: usize,
    },
    /// The peer's socket dies on the response side after `after` response
    /// bytes — writes then fail with `BrokenPipe` (the client-gone path).
    CutWrite {
        /// Bytes writable before the pipe breaks.
        after: usize,
    },
    /// The peer goes silent: reads yield `WouldBlock` forever (a stalled
    /// writer on the client side; trips the daemon's idle timeout).
    Stall,
}

/// A seeded per-connection transport fault plan: which connections of a
/// multi-client run are faulted, and how, as a pure function of
/// `(seed, connection index)` — the same connection set faults identically
/// for any accept order or thread schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportPlan {
    /// Seed mixed into every connection decision.
    pub seed: u64,
    /// Faulted-connection rate in permille (out of 1000).
    pub rate: u16,
}

impl TransportPlan {
    /// A plan with the default rate: roughly one connection in four.
    pub fn new(seed: u64) -> TransportPlan {
        TransportPlan { seed, rate: 250 }
    }

    /// The fault (if any) for connection number `conn`. Cut points land in
    /// `[1, 257)` bytes, early enough to interrupt the first requests.
    pub fn connection_fault(&self, conn: u64) -> Option<TransportFault> {
        let h = site_hash(self.seed, &format!("conn:{conn}"));
        if h % 1000 >= u64::from(self.rate) {
            return None;
        }
        let after = 1 + (h / 1000 % 256) as usize;
        Some(match (h / 256_000) % 3 {
            0 => TransportFault::CutRead { after },
            1 => TransportFault::CutWrite { after },
            _ => TransportFault::Stall,
        })
    }
}

/// A reader that injects [`TransportFault::CutRead`] / [`TransportFault::Stall`]
/// over any inner reader. Wrap it in a `BufReader` to feed the daemon.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    fault: Option<TransportFault>,
    seen: usize,
}

impl<R: std::io::Read> FaultyReader<R> {
    /// Wraps `inner` under `fault` (write-side faults are ignored here).
    pub fn new(inner: R, fault: Option<TransportFault>) -> FaultyReader<R> {
        FaultyReader { inner, fault, seen: 0 }
    }
}

impl<R: std::io::Read> std::io::Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.fault {
            Some(TransportFault::Stall) => Err(std::io::ErrorKind::WouldBlock.into()),
            Some(TransportFault::CutRead { after }) => {
                if self.seen >= after {
                    return Err(std::io::ErrorKind::ConnectionReset.into());
                }
                let cap = buf.len().min(after - self.seen);
                let n = self.inner.read(&mut buf[..cap])?;
                self.seen += n;
                Ok(n)
            }
            _ => self.inner.read(buf),
        }
    }
}

/// A writer that injects [`TransportFault::CutWrite`] over any inner
/// writer: after the cut point, every write fails with `BrokenPipe` — how
/// a vanished client looks to the daemon's response path.
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    fault: Option<TransportFault>,
    seen: usize,
}

impl<W: std::io::Write> FaultyWriter<W> {
    /// Wraps `inner` under `fault` (read-side faults are ignored here).
    pub fn new(inner: W, fault: Option<TransportFault>) -> FaultyWriter<W> {
        FaultyWriter { inner, fault, seen: 0 }
    }
}

impl<W: std::io::Write> std::io::Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.fault {
            Some(TransportFault::CutWrite { after }) => {
                if self.seen >= after {
                    return Err(std::io::ErrorKind::BrokenPipe.into());
                }
                let cap = buf.len().min(after - self.seen);
                let n = self.inner.write(&buf[..cap])?;
                self.seen += n;
                Ok(n)
            }
            _ => self.inner.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod transport_tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn plans_are_deterministic_and_cover_all_faults() {
        let plan = TransportPlan::new(11);
        for conn in 0..100 {
            assert_eq!(plan.connection_fault(conn), plan.connection_fault(conn));
        }
        let kinds: std::collections::HashSet<_> = (0..4000)
            .filter_map(|c| plan.connection_fault(c))
            .map(|f| std::mem::discriminant(&f))
            .collect();
        assert_eq!(kinds.len(), 3, "all three transport faults must occur");
        let fired = (0..4000).filter(|&c| plan.connection_fault(c).is_some()).count();
        assert!((600..1400).contains(&fired), "faults fired: {fired}");
    }

    #[test]
    fn cut_read_delivers_a_prefix_then_resets() {
        let data = b"hello world";
        let mut r = FaultyReader::new(&data[..], Some(TransportFault::CutRead { after: 5 }));
        let mut buf = Vec::new();
        let err = r.read_to_end(&mut buf).expect_err("must reset");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(buf, b"hello", "exactly the prefix before the cut");
    }

    #[test]
    fn stall_yields_would_block() {
        let mut r = FaultyReader::new(&b"x"[..], Some(TransportFault::Stall));
        let mut buf = [0u8; 1];
        assert_eq!(r.read(&mut buf).unwrap_err().kind(), std::io::ErrorKind::WouldBlock);
    }

    #[test]
    fn cut_write_accepts_a_prefix_then_breaks() {
        let mut sink = Vec::new();
        let mut w = FaultyWriter::new(&mut sink, Some(TransportFault::CutWrite { after: 3 }));
        assert_eq!(w.write(b"abcdef").unwrap(), 3);
        assert_eq!(w.write(b"def").unwrap_err().kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(sink, b"abc");
    }

    #[test]
    fn unfaulted_wrappers_are_transparent() {
        let mut r = FaultyReader::new(&b"pass"[..], None);
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"pass");
        let mut sink = Vec::new();
        let mut w = FaultyWriter::new(&mut sink, None);
        w.write_all(b"pass").unwrap();
        assert_eq!(sink, b"pass");
    }
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::new(42);
        let b = ChaosPlan::new(42);
        for i in 0..50 {
            assert_eq!(a.unit_fault("u", i), b.unit_fault("u", i));
            assert_eq!(a.pair_fault("u", 0, i as usize, 2), b.pair_fault("u", 0, i as usize, 2));
        }
        // Some seed pair must disagree somewhere across a modest site set
        // (rates are permille, so scan enough sites).
        let c = ChaosPlan::new(43);
        let differs = (0..2000)
            .any(|i| a.unit_fault(&format!("u{i}"), 0) != c.unit_fault(&format!("u{i}"), 0));
        assert!(differs, "different seeds must produce different fault sets");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = ChaosPlan::new(7);
        let fired =
            (0..4000).filter(|i| plan.unit_fault(&format!("unit-{i}"), 0).is_some()).count();
        // 250‰ of 4000 = 1000 expected; accept a generous band.
        assert!((600..1400).contains(&fired), "unit faults fired: {fired}");
        let kinds: std::collections::HashSet<_> =
            (0..4000).filter_map(|i| plan.unit_fault(&format!("unit-{i}"), 0)).collect();
        assert_eq!(kinds.len(), 3, "all three fault kinds must occur: {kinds:?}");
    }

    #[test]
    fn env_gate_parses_seed() {
        // Do not mutate the process environment (tests run in parallel);
        // just pin the parse contract via new().
        assert_eq!(ChaosPlan::new(9).seed, 9);
    }

    #[test]
    fn faulted_specs_degrade_deterministically() {
        let spec = BudgetSpec::nodes_only(1000);
        let z = ChaosCtx::faulted_spec(FaultKind::Nodes, &spec);
        assert_eq!(z.node_limit, 0);
        let d = ChaosCtx::faulted_spec(FaultKind::Deadline, &spec);
        assert_eq!(d.deadline_ms, Some(0));
        assert!(d.arm().exhausted().is_some(), "expired deadline must trip immediately");
        let p = ChaosCtx::faulted_spec(FaultKind::Panic, &spec);
        assert_eq!(p.node_limit, 1000);
    }
}
