//! Protocol conformance for the serving layer ([`delinearization::vic::serve`]).
//!
//! The daemon's contract extends the batch engine's determinism guarantee
//! to the wire: every result response is a pure function of its request —
//! identical bytes for any worker count, any request arrival order, and
//! any cache-sharing schedule. The matrix test proves it the same way
//! `batch_corpus --verify` does for reports; the golden test pins the
//! single-worker response stream byte-for-byte (regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test serve_protocol`, which also rewrites
//! the request script `ci.sh` pipes through the `delin_serve` binary).

use delinearization::corpus::stream::{generated_units, riceps_units};
use delinearization::dep::budget::{BudgetSpec, CancelToken};
use delinearization::vic::batch::{BatchConfig, BatchUnit, RetryPolicy};
use delinearization::vic::cache::KeyMode;
use delinearization::vic::deps::TestChoice;
use delinearization::vic::json;
use delinearization::vic::serve::{serve, ServeConfig};
use std::collections::BTreeMap;
use std::io::Cursor;

#[path = "util/serve_io.rs"]
mod serve_io;
use serve_io::{
    analyze_request, parse_response, response_id, response_type, Session, DELINEARIZED,
    OVERLAPPING, RECURRENCE,
};

/// Every knob explicit (mirroring `golden_report.rs`) so no environment
/// variable can leak into the matrix or the golden bytes.
fn pinned_config(workers: usize) -> ServeConfig {
    ServeConfig {
        batch: BatchConfig {
            choice: TestChoice::DelinearizationFirst,
            workers,
            unit_parallelism: 0,
            shared_cache: true,
            cache: true,
            keying: KeyMode::Fp,
            incremental: true,
            arena: true,
            induction: true,
            linearize: true,
            infer_loop_assumptions: true,
            cache_cap: 0,
            cache_file: None,
            budget: BudgetSpec::nodes_only(1_000_000),
            retry: RetryPolicy { max_retries: 0, escalation: 1 },
            chaos: None,
        },
        max_in_flight: 256,
        max_request_bytes: 1 << 20,
        idle_timeout_ms: None,
    }
}

fn corpus() -> Vec<BatchUnit> {
    riceps_units(Some(300)).chain(generated_units(6, 11)).collect()
}

/// Renders one corpus unit as an analyze request, assumptions included.
fn request_for(unit: &BatchUnit, id: &str) -> String {
    let mut req = format!(
        "{{\"id\":{},\"name\":{},\"source\":{}",
        json::str_token(id),
        json::str_token(&unit.name),
        json::str_token(&unit.source)
    );
    let assumptions: Vec<_> = unit.assumptions.iter().collect();
    if !assumptions.is_empty() {
        req.push_str(",\"assumptions\":{");
        for (i, (sym, lb)) in assumptions.iter().enumerate() {
            if i > 0 {
                req.push(',');
            }
            req.push_str(&format!("{}:{lb}", json::str_token(&sym.to_string())));
        }
        req.push('}');
    }
    req.push('}');
    req
}

/// One daemon session over the whole corpus; responses keyed by request id.
fn run_matrix_leg(workers: usize, reversed: bool) -> BTreeMap<String, String> {
    let units = corpus();
    let mut order: Vec<usize> = (0..units.len()).collect();
    if reversed {
        order.reverse();
    }
    let mut session = Session::spawn(pinned_config(workers));
    for &i in &order {
        session.send(&request_for(&units[i], &format!("u{i}")));
    }
    let summary = session.close();
    let lines = session.drain();
    assert_eq!(summary.admitted, units.len(), "workers={workers} reversed={reversed}");
    assert_eq!(summary.completed, units.len());
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.protocol_errors, 0);
    assert_eq!(summary.io_error, None);
    let mut by_id = BTreeMap::new();
    for line in lines {
        assert_eq!(response_type(&line), "result", "{line}");
        let id = response_id(&line).unwrap_or_else(|| panic!("result without id: {line}"));
        assert!(by_id.insert(id, line).is_none(), "duplicate response id");
    }
    assert_eq!(by_id.len(), units.len());
    by_id
}

/// The determinism matrix on the wire: worker counts {1, 4, auto} crossed
/// with both request orderings must produce byte-identical per-request
/// responses.
#[test]
fn responses_identical_across_workers_and_orderings() {
    let baseline = run_matrix_leg(1, false);
    for (workers, reversed) in [(1, true), (4, false), (4, true), (0, false), (0, true)] {
        let leg = run_matrix_leg(workers, reversed);
        assert_eq!(
            leg, baseline,
            "per-request responses diverged at workers={workers} reversed={reversed}"
        );
    }
}

/// The golden request script: valid analyze requests only — error and
/// shutdown responses are written by the reader thread and may interleave
/// with runner-written results, so only an all-results stream has a
/// deterministic line order (at one worker: request order). r5's
/// overlapping rows need the exact solver, so the golden pins its
/// counters too.
fn golden_requests() -> Vec<String> {
    vec![
        analyze_request("r1", RECURRENCE),
        analyze_request("r2", DELINEARIZED),
        format!(
            "{{\"id\":\"r3\",\"source\":{},\"budget\":{{\"nodes\":100000,\"deadline_ms\":60000}},\"edges\":false}}",
            json::str_token(RECURRENCE)
        ),
        analyze_request("r4", "this is not fortran"),
        analyze_request("r5", OVERLAPPING),
    ]
}

const REQUESTS_PATH: &str = "tests/golden/serve_requests.jsonl";
const RESPONSES_PATH: &str = "tests/golden/serve_responses.jsonl";

/// Pins the full single-worker response stream — and the request script
/// `ci.sh` replays through the `delin_serve` binary — byte-for-byte.
#[test]
fn golden_stream_matches() {
    let script = golden_requests().join("\n") + "\n";
    let mut out: Vec<u8> = Vec::new();
    let summary =
        serve(Cursor::new(script.as_bytes()), &mut out, &pinned_config(1), &CancelToken::new());
    assert_eq!(summary.admitted, 5);
    assert_eq!(summary.protocol_errors, 0);
    let responses = String::from_utf8(out).expect("responses are utf-8");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let req_path = root.join(REQUESTS_PATH);
    let resp_path = root.join(RESPONSES_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&req_path, &script).expect("write golden requests");
        std::fs::write(&resp_path, &responses).expect("write golden responses");
        return;
    }
    let golden_req = std::fs::read_to_string(&req_path).unwrap_or_else(|e| {
        panic!("missing {REQUESTS_PATH} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test serve_protocol")
    });
    let golden_resp = std::fs::read_to_string(&resp_path).unwrap_or_else(|e| {
        panic!("missing {RESPONSES_PATH} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test serve_protocol")
    });
    assert_eq!(script, golden_req, "request script drifted from {REQUESTS_PATH}");
    assert_eq!(responses, golden_resp, "response stream drifted from {RESPONSES_PATH}");

    // The stream is ordered at one worker: result ids in request order.
    let ids: Vec<_> = responses.lines().map(|l| response_id(l).expect("result id")).collect();
    assert_eq!(ids, ["r1", "r2", "r3", "r4", "r5"]);

    // r5 is the request that reaches the exact solver.
    let r5 = parse_response(responses.lines().last().expect("r5 answered"));
    let stats = r5.as_obj().and_then(|m| m.get("stats")).and_then(|s| s.as_obj()).expect("stats");
    for counter in ["solver_nodes", "refine_queries", "subtree_reuses"] {
        let value = stats.get(counter).and_then(|v| v.as_u64());
        assert!(value.is_some_and(|v| v > 0), "r5 {counter} = {value:?}");
    }
}

/// Bounded admission, proven deterministic via a rendezvous transport: the
/// daemon's response write blocks until the test receives it, so request
/// r1's slot is provably still occupied when r2 arrives.
#[test]
fn overloaded_daemon_rejects_instead_of_queueing() {
    let config = ServeConfig { max_in_flight: 1, ..pinned_config(1) };
    let mut session = Session::spawn_rendezvous(config);
    session.send(&analyze_request("r1", RECURRENCE));
    session.send(&analyze_request("r2", RECURRENCE));
    // Until the first `recv`, r1's response write is rendezvous-blocked,
    // so its admission slot *cannot* free — but nothing yet proves the
    // daemon's reader has dequeued r2. Wait before receiving: the slot
    // stays pinned for the whole pause, and the reader only needs to
    // parse one line to reach r2's admission check within it. Receiving
    // immediately races the reader against r1's slot release.
    std::thread::sleep(std::time::Duration::from_millis(300));
    // Two lines are owed: r1's result and r2's rejection. Their relative
    // order depends on which thread wins the output lock — distinguish by
    // id, not position.
    let mut lines = [session.recv(), session.recv()];
    lines.sort_by_key(|l| response_id(l));
    assert_eq!(response_id(&lines[0]).as_deref(), Some("r1"));
    assert_eq!(response_type(&lines[0]), "result");
    assert_eq!(response_id(&lines[1]).as_deref(), Some("r2"));
    assert_eq!(response_type(&lines[1]), "error");
    assert!(lines[1].contains("\"error\":\"overloaded\""), "{}", lines[1]);

    // The slot frees once r1's response is consumed; a later request is
    // admitted again (retry until the sink thread finishes releasing it).
    let mut attempts = 0;
    loop {
        session.send(&analyze_request(&format!("r3-{attempts}"), RECURRENCE));
        let line = session.recv();
        if response_type(&line) == "result" {
            assert!(line.contains("\"outcome\":\"analyzed\""), "{}", line);
            break;
        }
        assert!(line.contains("\"error\":\"overloaded\""), "{}", line);
        attempts += 1;
        assert!(attempts < 100, "admission slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let summary = session.close();
    assert!(summary.rejected >= 1);
    assert_eq!(summary.io_error, None);
}

/// A single-stream session has no per-connection quota below the global
/// bound: with every response write rendezvous-blocked, 20 requests are all
/// in flight at once, and all 20 are admitted under `max_in_flight` 32
/// (a quota of 8, the multi-connection default, would reject the ninth).
#[test]
fn single_stream_is_capped_only_by_max_in_flight() {
    let config = ServeConfig { max_in_flight: 32, ..pinned_config(1) };
    let mut session = Session::spawn_rendezvous(config);
    for i in 0..20 {
        session.send(&analyze_request(&format!("r{i}"), RECURRENCE));
    }
    // The first result write blocks until the first `recv`, so no slot can
    // free during the pause; the reader admits (or rejects) all 20 in it.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let lines: Vec<String> = (0..20).map(|_| session.recv()).collect();
    for line in &lines {
        assert_eq!(response_type(line), "result", "{line}");
    }
    let summary = session.close();
    assert_eq!(summary.admitted, 20);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.connections, 1);
}

/// Cancelling an in-flight request acknowledges with `cancel_ok`. The
/// rendezvous transport holds r1 in flight (its result write is blocked on
/// the test), so the cancel deterministically finds it.
#[test]
fn cancel_of_in_flight_request_acknowledges() {
    let mut session = Session::spawn_rendezvous(pinned_config(1));
    session.send(&analyze_request("r1", RECURRENCE));
    session.send("{\"cancel\":\"r1\"}");
    let mut lines = [session.recv(), session.recv()];
    lines.sort_by_key(|l| response_type(l));
    assert_eq!(response_type(&lines[0]), "cancel_ok");
    assert_eq!(response_id(&lines[0]).as_deref(), Some("r1"));
    assert_eq!(response_type(&lines[1]), "result");
    let summary = session.close();
    assert_eq!(summary.cancel_requests, 1);
    assert_eq!(summary.protocol_errors, 0);
}

/// A daemon-level shutdown (what SIGINT trips in the binary) cancels every
/// in-flight request: its response still arrives, degraded conservatively,
/// and the session summary reflects a completed — not hung — request.
#[test]
fn daemon_shutdown_degrades_in_flight_requests() {
    // Sequencing: the reader handles lines in order, so receiving the
    // error response for the garbage line proves the slow request before
    // it was already admitted — only then is the shutdown tripped. (If the
    // analysis wins the race and finishes first anyway, the test still
    // passes: completed == 1 either way.)
    let mut session = Session::spawn(pinned_config(1));
    let unit =
        delinearization::corpus::stream::refinement_units(1, 3).next().expect("refinement unit");
    session.send(&request_for(&unit, "slow"));
    session.send("garbage");
    // The analysis may legitimately finish before the reader reaches the
    // garbage line; skip any result that beats the marker to the output.
    let mut results = Vec::new();
    let marker = loop {
        let line = session.recv();
        if response_type(&line) == "error" {
            break line;
        }
        results.push(line);
    };
    assert!(marker.contains("\"error\":\"invalid_json\""), "{marker}");
    session.shutdown.cancel();
    let summary = session.close();
    results.extend(session.drain());
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.completed, 1, "in-flight request must answer, not hang");
    assert_eq!(results.len(), 1);
    assert_eq!(response_type(&results[0]), "result");
    assert_eq!(response_id(&results[0]).as_deref(), Some("slow"));
}
