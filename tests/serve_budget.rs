//! Per-request budget isolation on the live daemon: one client's starved
//! budget degrades only that client's verdicts, never reaches the shared
//! memo (in memory or on disk), and a warm daemon restart answers repeat
//! requests from the persistent tier byte-identically. This extends the
//! batch-layer invariant — "a starved file cannot poison a well-budgeted
//! one" (`cache_persistence.rs`) — to the serving path.

use delinearization::dep::budget::BudgetSpec;
use delinearization::vic::batch::{BatchConfig, RetryPolicy};
use delinearization::vic::cache::KeyMode;
use delinearization::vic::deps::TestChoice;
use delinearization::vic::json::Json;
use delinearization::vic::serve::ServeConfig;
use std::path::PathBuf;

#[path = "util/serve_io.rs"]
mod serve_io;
use serve_io::{
    analyze_request, analyze_request_with, parse_response, response_type, Session, DELINEARIZED,
    DELINEARIZED_AND_OVERLAPPING, OVERLAPPING, RECURRENCE,
};

/// Every knob explicit so no environment variable can perturb the
/// byte-identity assertions; retries off so a request's budget is final.
fn config_with(cache_file: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        batch: BatchConfig {
            choice: TestChoice::DelinearizationFirst,
            workers: 1,
            shared_cache: true,
            cache: true,
            keying: KeyMode::Fp,
            incremental: true,
            arena: true,
            induction: true,
            linearize: true,
            infer_loop_assumptions: true,
            cache_cap: 0,
            cache_file,
            budget: BudgetSpec::nodes_only(1_000_000),
            retry: RetryPolicy { max_retries: 0, escalation: 1 },
            chaos: None,
        },
        max_in_flight: 64,
        max_request_bytes: 1 << 20,
        idle_timeout_ms: None,
    }
}

fn temp_cache(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("delin-test-{tag}-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A numeric field out of a result response's `stats` object.
fn stat(line: &str, key: &str) -> u64 {
    let value = parse_response(line);
    let n = value
        .as_obj()
        .and_then(|m| m.get("stats"))
        .and_then(Json::as_obj)
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64);
    match n {
        Some(n) => n,
        None => panic!("no stats.{key} in {line}"),
    }
}

/// The reason map out of a result response (`degraded_by`).
fn degraded_by(line: &str, reason: &str) -> u64 {
    let value = parse_response(line);
    value
        .as_obj()
        .and_then(|m| m.get("stats"))
        .and_then(Json::as_obj)
        .and_then(|s| s.get("degraded_by"))
        .and_then(Json::as_obj)
        .and_then(|d| d.get(reason))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One request → one response on a fresh session.
fn one_request(
    config: ServeConfig,
    request: &str,
) -> (String, delinearization::vic::serve::ServeSummary) {
    let mut session = Session::spawn(config);
    session.send(request);
    let line = session.recv();
    let summary = session.close();
    (line, summary)
}

/// The tentpole acceptance path: a starved session writes nothing to disk,
/// a well-budgeted session does, and a restarted daemon serves the same
/// request from the persistent tier — nonzero disk hits, identical bytes.
#[test]
fn warm_restart_serves_disk_hits_and_starved_sessions_never_poison() {
    let path = temp_cache("serve-starved");

    // Session A: an already-expired deadline — every decision degrades
    // conservatively (deterministically, unlike a node limit, which can
    // still let solver-free proofs through) and none may reach disk.
    let starved = analyze_request_with("r", DELINEARIZED, "{\"deadline_ms\":0}", "");
    let (line, summary) = one_request(config_with(Some(path.clone())), &starved);
    assert_eq!(response_type(&line), "result");
    let pairs = stat(&line, "pairs");
    assert!(pairs > 0);
    assert_eq!(stat(&line, "degraded"), pairs, "expired deadline must degrade all: {line}");
    assert!(degraded_by(&line, "deadline") > 0, "{line}");
    assert_eq!(stat(&line, "independent"), 0, "degraded pairs are conservative: {line}");
    assert_eq!(
        summary.batch.persistent_saved, 0,
        "a starved session must never write verdicts to disk"
    );

    // Session B: the same problems under a real budget — exact verdicts,
    // memoized to disk. The starved session left nothing to poison them.
    let exact_req = analyze_request("r", DELINEARIZED);
    let (exact_line, summary) = one_request(config_with(Some(path.clone())), &exact_req);
    assert_eq!(stat(&exact_line, "degraded"), 0, "{exact_line}");
    assert!(
        stat(&exact_line, "independent") > 0,
        "the paper's flagship pair is provably independent: {exact_line}"
    );
    assert!(summary.batch.persistent_saved > 0, "exact verdicts must persist");
    assert_eq!(summary.batch.persistent_hits, 0);

    // Session C: a daemon restart. The repeat request is answered through
    // the disk-seeded cache — nonzero persistent hits — and the response
    // bytes are identical to the cold exact ones.
    let (warm_line, summary) = one_request(config_with(Some(path.clone())), &exact_req);
    assert_eq!(warm_line, exact_line, "warm restart must be invisible on the wire");
    assert!(summary.batch.persistent_loaded > 0, "restart must seed from disk");
    assert!(summary.batch.persistent_hits > 0, "restart must actually hit disk entries");

    let _ = std::fs::remove_file(&path);
}

/// Budget isolation inside one live session: a starved request and a
/// well-budgeted request on the same problems coexist — the starved one
/// degrades, the well-budgeted one is exact off the shared cache, and a
/// later starved request is served full-fidelity from that cache (cached
/// exact verdicts need no solver budget).
#[test]
fn starved_and_well_budgeted_coexist_in_one_session() {
    let mut session = Session::spawn(config_with(None));

    session.send(&analyze_request_with("s1", DELINEARIZED_AND_OVERLAPPING, "{\"nodes\":0}", ""));
    let starved_line = session.recv();
    assert!(stat(&starved_line, "degraded") > 0, "{starved_line}");
    assert!(stat(&starved_line, "independent") < stat(&starved_line, "pairs"), "{starved_line}");

    // Same problems, real budget: exact — the starved attempt was not
    // memoized, so nothing stale comes back.
    session.send(&analyze_request("w1", DELINEARIZED_AND_OVERLAPPING));
    let exact_line = session.recv();
    assert_eq!(stat(&exact_line, "degraded"), 0, "{exact_line}");
    assert!(stat(&exact_line, "independent") > 0, "{exact_line}");

    // Same id again, still starved: the shared cache now holds exact
    // verdicts, replaying them costs no solver nodes, so even a zero-node
    // client gets the full-fidelity response — byte-identical to w1's.
    session.send(&analyze_request_with("w1", DELINEARIZED_AND_OVERLAPPING, "{\"nodes\":0}", ""));
    let cached_line = session.recv();
    assert_eq!(
        cached_line, exact_line,
        "cached exact verdicts must serve identically regardless of the client's budget"
    );

    let summary = session.close();
    assert_eq!(summary.admitted, 3);
    assert!(
        summary.batch.cross_unit_hits > 0,
        "the repeat requests must have been served by the shared cache"
    );
}

/// An already-expired deadline degrades every pair — attributed to the
/// deadline axis — while the session keeps serving.
#[test]
fn expired_deadline_degrades_all_pairs() {
    let mut session = Session::spawn(config_with(None));
    session.send(&analyze_request_with("d", RECURRENCE, "{\"deadline_ms\":0}", ""));
    let line = session.recv();
    assert_eq!(response_type(&line), "result");
    let pairs = stat(&line, "pairs");
    assert!(pairs > 0);
    assert_eq!(stat(&line, "degraded"), pairs, "{line}");
    assert!(degraded_by(&line, "deadline") > 0, "{line}");

    // The deadline was the request's, not the daemon's: the next request
    // runs exact.
    session.send(&analyze_request("after", RECURRENCE));
    let line = session.recv();
    assert_eq!(stat(&line, "degraded"), 0, "{line}");
    session.close();
}

/// Degraded verdicts from a starved request are not memoized even within
/// the session: re-asking with a real budget re-solves instead of replaying
/// the degraded answer. (The in-memory analogue of the disk invariant.)
#[test]
fn degraded_verdicts_are_not_replayed_within_a_session() {
    let mut session = Session::spawn(config_with(None));
    session.send(&analyze_request_with("s", OVERLAPPING, "{\"nodes\":0}", ""));
    let starved_line = session.recv();
    assert!(stat(&starved_line, "degraded") > 0, "{starved_line}");

    session.send(&analyze_request("w", OVERLAPPING));
    let exact_line = session.recv();
    assert_eq!(stat(&exact_line, "degraded"), 0, "{exact_line}");
    assert!(stat(&exact_line, "solver_nodes") > 0, "must re-solve, not replay: {exact_line}");
    session.close();
}
