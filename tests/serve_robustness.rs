//! Malformed-input fuzzing for the serving layer: whatever arrives on the
//! wire — truncated lines, invalid JSON, wrong types, unknown fields,
//! oversized requests, cancels of unknown ids, mid-stream EOF — the daemon
//! answers with a structured, machine-readable error and keeps serving.
//! Never a panic, never a hang, never a silently dropped line.

use delinearization::dep::budget::{BudgetSpec, CancelToken};
use delinearization::vic::batch::{BatchConfig, RetryPolicy};
use delinearization::vic::chaos::{FaultyReader, TransportFault};
use delinearization::vic::json::Json;
use delinearization::vic::serve::{serve, ServeConfig};
use proptest::prelude::*;
use std::io::{BufReader, Cursor};

#[path = "util/serve_io.rs"]
mod serve_io;
use serve_io::{analyze_request, parse_response, response_type, PollReader, Session, RECURRENCE};

/// Serial, modestly budgeted, with a small line bound so oversized-input
/// handling is cheap to exercise.
fn small_config() -> ServeConfig {
    ServeConfig {
        batch: BatchConfig {
            workers: 1,
            budget: BudgetSpec::nodes_only(10_000),
            retry: RetryPolicy { max_retries: 0, escalation: 1 },
            ..BatchConfig::default()
        },
        max_in_flight: 8,
        max_request_bytes: 4096,
        idle_timeout_ms: None,
    }
}

/// Runs a finite request script through a one-shot daemon and returns the
/// response lines. The daemon exits at EOF, so completion of this function
/// is itself the no-hang check (under the test harness timeout).
fn one_shot(script: &[u8]) -> Vec<String> {
    let mut out: Vec<u8> = Vec::new();
    let summary = serve(Cursor::new(script), &mut out, &small_config(), &CancelToken::new());
    assert_eq!(summary.io_error, None);
    let text = String::from_utf8(out).expect("responses are utf-8");
    text.lines().map(str::to_string).collect()
}

/// The deterministic battery: every malformed line gets exactly one error
/// response with the expected machine-readable code, on one live session —
/// proving each failure leaves the daemon serving.
#[test]
fn malformed_inputs_get_structured_errors() {
    let oversized = format!("{{\"id\":\"{}\"}}", "x".repeat(8192));
    let deep = format!("{}1{}", "[".repeat(80), "]".repeat(80));
    let cases: Vec<(String, &str)> = vec![
        ("{".into(), "invalid_json"),
        ("}".into(), "invalid_json"),
        ("[1,2".into(), "invalid_json"),
        ("not json at all".into(), "invalid_json"),
        ("{\"id\":\"x\",\"id\":\"y\"}".into(), "invalid_json"), // duplicate key
        (deep, "invalid_json"),                                 // nesting bomb
        ("123".into(), "invalid_request"),
        ("\"just a string\"".into(), "invalid_request"),
        ("[]".into(), "invalid_request"),
        ("{}".into(), "invalid_request"),
        ("{\"id\":5,\"source\":\"END\\n\"}".into(), "invalid_request"),
        ("{\"id\":\"x\"}".into(), "invalid_request"), // missing source
        ("{\"id\":\"x\",\"source\":42}".into(), "invalid_request"),
        ("{\"id\":\"x\",\"source\":\"END\\n\",\"bogus\":1}".into(), "invalid_request"),
        ("{\"id\":\"x\",\"source\":\"END\\n\",\"name\":[]}".into(), "invalid_request"),
        ("{\"id\":\"x\",\"source\":\"END\\n\",\"assumptions\":[]}".into(), "invalid_request"),
        (
            "{\"id\":\"x\",\"source\":\"END\\n\",\"assumptions\":{\"n\":\"lo\"}}".into(),
            "invalid_request",
        ),
        ("{\"id\":\"x\",\"source\":\"END\\n\",\"budget\":5}".into(), "invalid_request"),
        ("{\"id\":\"x\",\"source\":\"END\\n\",\"budget\":{\"fuel\":1}}".into(), "invalid_request"),
        (
            "{\"id\":\"x\",\"source\":\"END\\n\",\"budget\":{\"nodes\":-1}}".into(),
            "invalid_request",
        ),
        (
            "{\"id\":\"x\",\"source\":\"END\\n\",\"budget\":{\"deadline_ms\":true}}".into(),
            "invalid_request",
        ),
        ("{\"id\":\"x\",\"source\":\"END\\n\",\"edges\":\"yes\"}".into(), "invalid_request"),
        ("{\"cancel\":5}".into(), "invalid_request"),
        ("{\"cancel\":\"a\",\"extra\":1}".into(), "invalid_request"),
        ("{\"shutdown\":false}".into(), "invalid_request"),
        ("{\"shutdown\":\"yes\"}".into(), "invalid_request"),
        ("{\"shutdown\":true,\"x\":1}".into(), "invalid_request"),
        ("{\"cancel\":\"ghost\"}".into(), "unknown_id"),
        (oversized, "oversized"),
    ];
    let mut session = Session::spawn(small_config());
    for (input, code) in &cases {
        session.send(input);
        let line = session.recv();
        assert_eq!(response_type(&line), "error", "for input {input:?}: {line}");
        assert!(
            line.contains(&format!("\"error\":{:?}", code)),
            "expected code {code} for input {input:?}: {line}"
        );
    }
    // The session survived all of it: a well-formed request still works.
    session.send(&analyze_request("alive", RECURRENCE));
    let line = session.recv();
    assert_eq!(response_type(&line), "result");
    assert!(line.contains("\"outcome\":\"analyzed\""), "{line}");

    let summary = session.close();
    assert_eq!(summary.protocol_errors, cases.len());
    assert_eq!(summary.cancel_requests, 1);
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.completed, 1);
}

/// Blank and whitespace-only lines are protocol chatter, not errors.
#[test]
fn blank_lines_are_skipped() {
    let lines = one_shot(b"\n   \n\t\n{\"shutdown\":true}\n");
    assert_eq!(lines, ["{\"type\":\"shutdown\"}"]);
}

/// Non-UTF-8 bytes are an error on that line only.
#[test]
fn invalid_utf8_gets_a_structured_error() {
    let mut script = b"\xff\xfe{\"oops\"\n".to_vec();
    script.extend_from_slice(b"{\"shutdown\":true}\n");
    let lines = one_shot(&script);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"error\":\"invalid_json\""), "{}", lines[0]);
    assert_eq!(lines[1], "{\"type\":\"shutdown\"}");
}

/// A final line cut off by EOF mid-request still gets a response.
#[test]
fn mid_stream_eof_is_answered() {
    // Truncated JSON: a syntax error.
    let lines = one_shot(b"{\"id\":\"x\", \"sou");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"error\":\"invalid_json\""), "{}", lines[0]);

    // Complete JSON that merely lacks its newline: handled normally.
    let lines = one_shot(b"{\"cancel\":\"ghost\"}");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"error\":\"unknown_id\""), "{}", lines[0]);
}

/// A client that disconnects mid-request — the transport yields part of a
/// line, then resets — is a clean connection cancellation: completed work
/// is answered, the session ends without a hang, and the reset is recorded
/// as client-gone rather than a session-fatal transport error.
#[test]
fn mid_request_disconnect_is_clean_cancellation() {
    // The first line is answered synchronously by the reader (so its
    // response provably precedes the cut); the second is severed halfway.
    let first = "{\"cancel\":\"ghost\"}";
    let second = analyze_request("never-arrives", RECURRENCE);
    let script = format!("{first}\n{second}\n");
    let cut = first.len() + 1 + second.len() / 2;
    let input = BufReader::new(FaultyReader::new(
        Cursor::new(script.into_bytes()),
        Some(TransportFault::CutRead { after: cut }),
    ));
    let mut out: Vec<u8> = Vec::new();
    let summary = serve(input, &mut out, &small_config(), &CancelToken::new());
    assert_eq!(summary.client_gone, 1, "reset on read is the client vanishing");
    assert_eq!(summary.io_error, None, "client-gone is not a transport error");
    assert_eq!(summary.admitted, 0, "the severed request never admitted");
    let text = String::from_utf8(out).expect("responses are utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"error\":\"unknown_id\""), "{}", lines[0]);
}

/// A connection that ends with a half-written line — a complete request,
/// then a truncated one with no trailing newline at EOF — answers both:
/// the whole request normally, the fragment with a structured error.
#[test]
fn half_written_final_line_is_answered_at_eof() {
    let whole = analyze_request("whole", RECURRENCE);
    let fragment = &analyze_request("torn", RECURRENCE)[..20];
    let lines = one_shot(format!("{whole}\n{fragment}").as_bytes());
    // Protocol errors are written by the reader, results by the workers,
    // so the two lines may arrive in either order.
    assert_eq!(lines.len(), 2, "{lines:?}");
    let result = lines.iter().find(|l| l.contains("\"id\":\"whole\""));
    assert!(result.unwrap().contains("\"outcome\":\"analyzed\""), "{lines:?}");
    assert!(lines.iter().any(|l| l.contains("\"error\":\"invalid_json\"")), "{lines:?}");
}

/// A reader that stalls past the idle-timeout — the transport keeps
/// yielding read-timeout probes but no bytes — ends the session with a
/// structured `idle_timeout` error instead of blocking forever.
#[test]
fn stalled_reader_trips_the_idle_timeout() {
    let mut config = small_config();
    config.idle_timeout_ms = Some(50);
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    tx.send(format!("{}\n", analyze_request("only", RECURRENCE)).into_bytes()).unwrap();
    // The sender stays alive: no EOF. The poll interval models an OS read
    // timeout, so the daemon sees idle probes, not a blocked read.
    let input = BufReader::new(PollReader::new(rx, Some(std::time::Duration::from_millis(5))));
    let mut out: Vec<u8> = Vec::new();
    let summary = serve(input, &mut out, &config, &CancelToken::new());
    drop(tx);
    assert_eq!(summary.idle_timeouts, 1);
    assert_eq!(summary.io_error, None);
    assert_eq!(summary.completed, 1);
    let text = String::from_utf8(out).expect("responses are utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"only\""), "{}", lines[0]);
    assert!(lines[1].contains("\"error\":\"idle_timeout\""), "{}", lines[1]);
}

/// A request split across arbitrary transport chunks is reassembled: the
/// daemon's framing is the newline, not the read boundary.
#[test]
fn split_writes_reassemble_into_one_request() {
    let session = Session::spawn(small_config());
    let request = format!("{}\n", analyze_request("split", RECURRENCE));
    let bytes = request.as_bytes();
    for chunk in bytes.chunks(7) {
        session.send_raw(chunk);
    }
    let line = session.recv();
    assert_eq!(response_type(&line), "result");
    assert!(line.contains("\"id\":\"split\""), "{line}");
}

/// An oversized line is consumed whole — the parser never sees its tail as
/// a fresh line — and the stream recovers on the next request.
#[test]
fn oversized_tail_is_not_mistaken_for_requests() {
    // The tail beyond the bound is itself a valid request; if the reader
    // failed to discard it, a second (result) response would appear.
    let inner = analyze_request("smuggled", RECURRENCE);
    let script = format!("{}{inner}\n{{\"shutdown\":true}}\n", "x".repeat(5000));
    let lines = one_shot(script.as_bytes());
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"error\":\"oversized\""), "{}", lines[0]);
    assert_eq!(lines[1], "{\"type\":\"shutdown\"}");
}

proptest! {
    /// Random mutations of a valid request line — truncation, byte
    /// insertion (including newlines, splitting the line in two), byte
    /// overwrite, byte deletion — always yield a session that terminates
    /// with every response line valid JSON carrying a `type` field.
    #[test]
    fn mutated_requests_always_get_structured_responses(
        kind in 0usize..4,
        pos in 0usize..4096,
        byte in 0u8..=255,
    ) {
        let base = analyze_request("p", RECURRENCE).into_bytes();
        let pos = pos % base.len();
        let mut mutated = base.clone();
        match kind {
            0 => mutated.truncate(pos),
            1 => mutated.insert(pos, byte),
            2 => mutated[pos] = byte,
            _ => { mutated.remove(pos); }
        }
        mutated.push(b'\n');
        let mut out: Vec<u8> = Vec::new();
        let summary = serve(
            Cursor::new(&mutated[..]),
            &mut out,
            &small_config(),
            &CancelToken::new(),
        );
        prop_assert!(summary.io_error.is_none());
        for raw in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            prop_assert!(std::str::from_utf8(raw).is_ok(), "non-utf8 response");
            let line = String::from_utf8_lossy(raw);
            let value = parse_response(&line);
            let has_type = value
                .as_obj()
                .and_then(|m| m.get("type"))
                .and_then(Json::as_str)
                .is_some();
            prop_assert!(has_type, "response without type: {line}");
        }
    }
}
