//! The concurrent-serving contract ([`delinearization::vic::serve::multi`]):
//! N simultaneous connections multiplexed onto one worker pool must produce
//! per-request responses byte-identical to a sequential replay; admission
//! fairness (per-connection quota under the global bound) must be
//! deterministic; and transport faults — killed sockets, vanished readers,
//! idle clients — must be confined to the faulted connection while every
//! other client's stream is unaffected.

use delinearization::corpus::stream::{generated_units, riceps_units};
use delinearization::dep::budget::{BudgetSpec, CancelToken};
use delinearization::vic::batch::{BatchConfig, BatchUnit, RetryPolicy};
use delinearization::vic::cache::KeyMode;
use delinearization::vic::chaos::{TransportFault, TransportPlan};
use delinearization::vic::deps::TestChoice;
use delinearization::vic::json;
use delinearization::vic::serve::multi::MultiConfig;
use delinearization::vic::serve::{serve, ServeConfig};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::Duration;

#[path = "util/serve_io.rs"]
mod serve_io;
use serve_io::{analyze_request, response_id, response_type, MultiHarness, RECURRENCE};

/// Every knob explicit (mirroring `serve_protocol.rs`) so no environment
/// variable can perturb the byte-identity comparison.
fn pinned_serve(workers: usize) -> ServeConfig {
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

fn pinned_multi(workers: usize) -> MultiConfig {
    MultiConfig { serve: pinned_serve(workers), max_connections: 8, conn_quota: 64 }
}

fn corpus() -> Vec<BatchUnit> {
    riceps_units(Some(40)).chain(generated_units(4, 9)).collect()
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

/// The sequential ground truth: the whole corpus through one single-worker
/// session, responses keyed by request id.
fn sequential_baseline(units: &[BatchUnit]) -> BTreeMap<String, String> {
    let script: String =
        units.iter().enumerate().map(|(i, u)| request_for(u, &format!("u{i}")) + "\n").collect();
    let mut out: Vec<u8> = Vec::new();
    let summary =
        serve(Cursor::new(script.into_bytes()), &mut out, &pinned_serve(1), &CancelToken::new());
    assert_eq!(summary.admitted, units.len());
    assert_eq!(summary.completed, units.len());
    let text = String::from_utf8(out).expect("responses are utf-8");
    let mut by_id = BTreeMap::new();
    for line in text.lines() {
        let id = response_id(line).expect("result id");
        assert!(by_id.insert(id, line.to_string()).is_none());
    }
    by_id
}

/// (a) N concurrent connections, interleaved arrivals, one shared pool:
/// per-request responses must be byte-identical to the sequential replay
/// for workers 1, 4, and auto.
#[test]
fn concurrent_connections_match_sequential_replay() {
    const CLIENTS: usize = 4;
    let units = corpus();
    let baseline = sequential_baseline(&units);
    for workers in [1, 4, 0] {
        let mut harness = MultiHarness::spawn(pinned_multi(workers));
        let mut clients: Vec<_> = (0..CLIENTS).map(|_| harness.connect()).collect();
        // Interleave: unit i goes to client i % CLIENTS, requests issued
        // round-robin so every connection is mid-stream at once.
        for (i, unit) in units.iter().enumerate() {
            clients[i % CLIENTS].send(&request_for(unit, &format!("u{i}")));
        }
        for client in &mut clients {
            client.close_input();
        }
        let mut by_id = BTreeMap::new();
        for client in &clients {
            for line in client.drain() {
                assert_eq!(response_type(&line), "result", "workers={workers}: {line}");
                let id = response_id(&line).expect("result id");
                assert!(by_id.insert(id, line).is_none(), "duplicate response id");
            }
        }
        let summary = harness.close();
        assert_eq!(by_id, baseline, "concurrent responses diverged at workers={workers}");
        assert_eq!(summary.connections, CLIENTS);
        assert_eq!(summary.admitted, units.len());
        assert_eq!(summary.completed, units.len());
        assert_eq!(summary.rejected, 0);
        assert_eq!(summary.client_gone, 0);
        assert_eq!(summary.io_error, None);
    }
}

/// (b) Per-connection fairness: a greedy client saturating its quota draws
/// `overloaded` while a second connection still admits. Deterministic via
/// rendezvous delivery — the greedy client's slots are provably still
/// occupied (its responses unconsumed) when its over-quota request lands.
#[test]
fn greedy_client_hits_quota_while_others_admit() {
    let config = MultiConfig { conn_quota: 2, ..pinned_multi(1) };
    let mut harness = MultiHarness::spawn(config);
    let mut greedy = harness.connect_with(None, None, true);
    let mut polite = harness.connect();

    greedy.send(&analyze_request("g1", RECURRENCE));
    greedy.send(&analyze_request("g2", RECURRENCE));
    greedy.send(&analyze_request("g3", RECURRENCE));
    // The polite client admits while the greedy one is saturated: its
    // quota is untouched and the global bound has plenty of room.
    polite.send(&analyze_request("p1", RECURRENCE));
    let line = polite.recv();
    assert_eq!(response_type(&line), "result", "{line}");
    assert_eq!(response_id(&line).as_deref(), Some("p1"));

    // The greedy connection is owed three lines: results for g1 and g2,
    // and the quota rejection for g3 (order depends on lock arbitration).
    let mut results = 0;
    let mut rejected = 0;
    for _ in 0..3 {
        let line = greedy.recv();
        match response_type(&line).as_str() {
            "result" => results += 1,
            "error" => {
                assert!(line.contains("\"error\":\"overloaded\""), "{line}");
                assert!(line.contains("connection quota exceeded"), "{line}");
                assert_eq!(response_id(&line).as_deref(), Some("g3"));
                rejected += 1;
            }
            other => panic!("unexpected response type {other}: {line}"),
        }
    }
    assert_eq!((results, rejected), (2, 1));

    greedy.close_input();
    polite.close_input();
    let summary = harness.close();
    assert_eq!(summary.admitted, 3);
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.io_error, None);
}

/// (c) Seeded transport chaos kills exactly one connection mid-request;
/// every other client's stream is byte-identical to the sequential replay
/// and the daemon keeps admitting afterwards.
#[test]
fn seeded_chaos_confines_the_kill_to_one_connection() {
    const CLIENTS: u64 = 4;
    // Deterministic seed search: the first seed whose fault set cuts
    // exactly one of the four connections' read sides and leaves the rest
    // clean. Pure function of (seed, conn), so this is stable forever.
    let (plan, victim) = (0u64..)
        .find_map(|seed| {
            let plan = TransportPlan { seed, rate: 250 };
            let faults: Vec<_> = (0..CLIENTS).map(|c| plan.connection_fault(c)).collect();
            let cuts: Vec<usize> = faults
                .iter()
                .enumerate()
                .filter(|(_, f)| matches!(f, Some(TransportFault::CutRead { .. })))
                .map(|(i, _)| i)
                .collect();
            let faulted = faults.iter().filter(|f| f.is_some()).count();
            (cuts.len() == 1 && faulted == 1).then(|| (plan, cuts[0]))
        })
        .expect("a one-victim seed exists");

    let units = corpus();
    let baseline = sequential_baseline(&units);
    let mut harness = MultiHarness::spawn(pinned_multi(4));
    let mut clients: Vec<_> = (0..CLIENTS as usize)
        .map(|c| harness.connect_with(plan.connection_fault(c as u64), None, false))
        .collect();
    for (i, unit) in units.iter().enumerate() {
        let c = i % CLIENTS as usize;
        let request = request_for(unit, &format!("u{i}"));
        if c == victim {
            // The victim's read side may already be cut and its reader
            // gone; what it is sent after that is lost by design.
            let _ = clients[c].try_send(&request);
        } else {
            clients[c].send(&request);
        }
    }
    // The victim's read side resets once the daemon consumes past the cut
    // point — confined there by contract. Survivors must still serve new
    // requests after the kill.
    clients[victim].close_input();
    let survivor = (victim + 1) % CLIENTS as usize;
    clients[survivor].send(&analyze_request("after-kill", RECURRENCE));
    for client in &mut clients {
        client.close_input();
    }
    let mut by_id = BTreeMap::new();
    for (c, client) in clients.iter().enumerate() {
        let lines = client.drain();
        if c == victim {
            continue; // whatever partial stream it saw is unspecified
        }
        for line in lines {
            assert_eq!(response_type(&line), "result", "client {c}: {line}");
            let id = response_id(&line).expect("result id");
            assert!(by_id.insert(id, line).is_none(), "duplicate response id");
        }
    }
    let summary = harness.close();
    assert_eq!(summary.client_gone, 1, "exactly the victim died");
    assert_eq!(summary.io_error, None);
    let after = by_id.remove("after-kill").expect("daemon kept serving after the kill");
    assert!(after.contains("\"outcome\":\"analyzed\""), "{after}");
    // Survivors saw exactly their share, byte-identical to the replay.
    for (id, line) in &by_id {
        let expected = baseline.get(id).unwrap_or_else(|| panic!("unexpected id {id}"));
        assert_eq!(line, expected, "survivor response diverged for {id}");
    }
    let expected_ids: Vec<&String> =
        baseline.keys().filter(|id| id[1..].parse::<usize>().unwrap() % 4 != victim).collect();
    assert_eq!(by_id.len(), expected_ids.len(), "every survivor request was answered");
}

/// The connection cap: excess connections get one machine-readable `busy`
/// line and a graceful close; accepted sessions are untouched.
#[test]
fn connection_cap_rejects_gracefully() {
    let config = MultiConfig { max_connections: 1, ..pinned_multi(1) };
    let mut harness = MultiHarness::spawn(config);
    let mut held = harness.connect();
    held.send(&analyze_request("h1", RECURRENCE));
    assert_eq!(response_type(&held.recv()), "result");

    let rejected = harness.connect();
    let lines = rejected.drain();
    assert_eq!(lines.len(), 1, "exactly one busy line: {lines:?}");
    assert!(lines[0].contains("\"error\":\"busy\""), "{}", lines[0]);
    assert!(lines[0].contains("connection limit reached"), "{}", lines[0]);

    // The held session is unaffected by the rejection.
    held.send(&analyze_request("h2", RECURRENCE));
    assert_eq!(response_type(&held.recv()), "result");
    held.close_input();
    let summary = harness.close();
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.rejected_connections, 1);
    assert_eq!(summary.admitted, 2);
}

/// An idle client (read-polling transport, no traffic past the timeout)
/// gets a structured `idle_timeout` error and its session drains; a
/// blocking client on the same daemon is untouched.
#[test]
fn idle_connection_times_out_and_drains() {
    let mut config = pinned_multi(1);
    config.serve.idle_timeout_ms = Some(50);
    let mut harness = MultiHarness::spawn(config);
    let idle = harness.connect_with(None, Some(Duration::from_millis(5)), false);
    let mut busy = harness.connect();

    idle.send(&analyze_request("i1", RECURRENCE));
    assert_eq!(response_type(&idle.recv()), "result");
    // Silence: the idle probe fires until the timeout trips.
    let line = idle.recv();
    assert_eq!(response_type(&line), "error", "{line}");
    assert!(line.contains("\"error\":\"idle_timeout\""), "{line}");
    // The connection is over: its output channel closes without input EOF.
    assert!(idle.drain().is_empty());

    busy.send(&analyze_request("b1", RECURRENCE));
    assert_eq!(response_type(&busy.recv()), "result");
    busy.close_input();
    let summary = harness.close();
    assert_eq!(summary.idle_timeouts, 1);
    assert_eq!(summary.io_error, None);
}

/// A client that vanishes while a response is in flight (broken pipe on
/// the write) is treated as that connection's cancellation — not a daemon
/// error — and every other connection keeps serving.
#[test]
fn vanished_client_is_cancelled_not_fatal() {
    let mut harness = MultiHarness::spawn(pinned_multi(1));
    // Rendezvous delivery: the response write is provably in flight
    // (blocked) when the output is dropped, forcing the broken pipe.
    let mut doomed = harness.connect_with(None, None, true);
    let mut healthy = harness.connect();

    doomed.send(&analyze_request("d1", RECURRENCE));
    // Give the write a moment to block on the rendezvous, then vanish.
    std::thread::sleep(Duration::from_millis(50));
    doomed.drop_output();
    doomed.close_input();

    healthy.send(&analyze_request("h1", RECURRENCE));
    let line = healthy.recv();
    assert_eq!(response_type(&line), "result", "{line}");
    healthy.close_input();
    let summary = harness.close();
    assert_eq!(summary.client_gone, 1);
    assert_eq!(summary.io_error, None, "client-gone is not a transport error");
    assert_eq!(summary.admitted, 2);
    assert_eq!(summary.completed, 2, "the doomed request still drained");
}
