//! Analysis as a service: a long-lived jsonl daemon over the batch engine.
//!
//! A serving session reads newline-delimited JSON requests from a
//! [`BufRead`], feeds them through a channel into
//! [`crate::batch::BatchRunner::run_jobs_in`]'s worker pool, and streams
//! one JSON response per unit back over a [`Write`] — tagged with the
//! client's request id, carrying the verdict edges, the
//! scheduling-independent [`crate::deps::VerdictStats`], and any
//! degradation reasons. The request protocol (documented in the repository
//! README's "Serving" section):
//!
//! * **Analyze** — `{"id": "r1", "source": "...", "name"?: "...",
//!   "assumptions"?: {"N": 1}, "budget"?: {"nodes": 10000,
//!   "deadline_ms": 500}, "edges"?: false}`. `assumptions` maps symbols to
//!   lower bounds; `budget` overrides the configured per-request allowance
//!   (enforced **per unit** — each request's deadline clock starts when its
//!   analysis starts, not when the daemon did).
//! * **Cancel** — `{"cancel": "r1"}` trips the in-flight request's
//!   [`CancelToken`]; its analysis degrades conservatively (the response
//!   still arrives, attributed `cancelled`).
//! * **Shutdown** — `{"shutdown": true}` stops admission on its session,
//!   acknowledges, and drains in-flight work.
//!
//! Every response is a single line with a `"type"` field: `"result"`,
//! `"cancel_ok"`, `"shutdown"`, or `"error"` (machine-readable `error`
//! codes: `invalid_json`, `invalid_request`, `oversized`, `overloaded`,
//! `unknown_id`, `idle_timeout`, `busy`, `internal`). Malformed input of any
//! shape gets a structured error, never a panic or a hang.
//!
//! # One serve loop
//!
//! There is one implementation of the session loop:
//! [`multi::serve_connections`], which runs every connection an
//! [`multi::Accept`] source yields on one shared worker pool. [`serve`] is
//! that loop over exactly one connection — its reader and writer — with
//! [`multi::MultiConfig::single_stream`], so a lone client is bounded only
//! by [`ServeConfig::max_in_flight`]. Admission, cancellation, idle
//! timeouts, client-gone handling and the shutdown drain are documented
//! once, on [`multi`]; both return the same [`ServeSummary`].
//!
//! # Determinism
//!
//! Result responses are a pure function of the request (source,
//! assumptions, budget) — the per-unit fold-time attribution of
//! [`crate::batch`] makes the embedded statistics independent of worker
//! count, arrival order, and cache sharing, so the *bytes* of each
//! response are too. Response *interleaving* is scheduling-dependent under
//! parallel workers; with `workers = 1` result responses additionally
//! arrive in request order (what the golden-stream gate pins).

use crate::batch::{BatchConfig, BatchJob, BatchStats, BatchUnit, UnitOutcome, UnitReport};
use crate::deps::DepEdge;
use crate::json::{self, Json};
use delin_dep::budget::{BudgetSpec, CancelToken};
use delin_numeric::Assumptions;
use std::io::{BufRead, Write};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[path = "serve_multi.rs"]
pub mod multi;

/// Configuration of the serving layer.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The batch engine configuration requests run under. Per-request
    /// budgets override [`BatchConfig::budget`]; a config-level
    /// cancellation token is superseded by the per-request tokens (use the
    /// `shutdown` argument of [`serve`] for daemon-wide cancellation).
    ///
    /// [`ServeConfig::default`] disables retries so a client's budget is
    /// honored exactly — a degraded verdict is reported, not silently
    /// re-run under an escalated allowance.
    pub batch: BatchConfig,
    /// Requests admitted at once (admitted = response not yet written);
    /// further requests are rejected with an `overloaded` error. Clamped to
    /// at least 1.
    pub max_in_flight: usize,
    /// Longest accepted request line in bytes; longer lines are consumed
    /// (bounded memory) and rejected with an `oversized` error.
    pub max_request_bytes: usize,
    /// Maximum quiet time on the request stream before the session is ended
    /// with an `idle_timeout` error (pending requests degrade
    /// conservatively, their responses are still flushed). `None` disables.
    /// Enforced only on transports whose reads time out — a read returning
    /// `WouldBlock`/`TimedOut` is the idle probe; a transport that blocks
    /// forever is never probed (stdin sessions are not idle-limited).
    pub idle_timeout_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch: BatchConfig {
                retry: crate::batch::RetryPolicy { max_retries: 0, escalation: 1 },
                ..BatchConfig::default()
            },
            max_in_flight: 64,
            max_request_bytes: 1 << 20,
            idle_timeout_ms: None,
        }
    }
}

/// What one serving run did, aggregated over every connection it served
/// (exactly one for [`serve`]). Returned once every connection has drained.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Connections accepted into a session.
    pub connections: usize,
    /// Connections rejected with `busy` at the connection cap.
    pub rejected_connections: usize,
    /// Analyze requests admitted into the shared worker pool.
    pub admitted: usize,
    /// Result responses completed (rendered and released; writes to a
    /// vanished client are skipped but still counted as completed).
    pub completed: usize,
    /// Analyze requests rejected with `overloaded` (global bound or
    /// connection quota).
    pub rejected: usize,
    /// Cancel messages received (known or unknown id).
    pub cancel_requests: usize,
    /// Error responses written for malformed or unserviceable input
    /// (everything except `overloaded`, which [`ServeSummary::rejected`]
    /// counts).
    pub protocol_errors: usize,
    /// Connections ended by [`ServeConfig::idle_timeout_ms`].
    pub idle_timeouts: usize,
    /// Connections whose client vanished mid-session (a response write or
    /// request read failed with `EPIPE`/`ECONNRESET`/`ECONNABORTED`): their
    /// pending requests were cancelled and drained conservatively.
    pub client_gone: usize,
    /// Corpus-level totals from the shared batch run.
    pub batch: BatchStats,
    /// First I/O error observed anywhere except a client vanishing
    /// mid-session (which [`ServeSummary::client_gone`] counts): a failed
    /// accept, request read, or response write. None of these stops the
    /// other connections: after a failed write later writes are still
    /// attempted, a failed read ends its own session like EOF, and an
    /// accept failing with a client-gone kind (`ECONNABORTED`,
    /// `ECONNRESET`, `EPIPE`) skips that one connection. Any other accept
    /// failure ends the accept loop; live connections still drain before
    /// the run returns.
    pub io_error: Option<String>,
}

/// Serves one jsonl session over the given transport: a one-connection
/// [`multi::serve_connections`] whose connection may hold the whole
/// [`ServeConfig::max_in_flight`] bound. Returns when the input reaches
/// EOF or a shutdown request arrives and the session has drained. Tripping
/// `shutdown` degrades in-flight requests at once and stops admission at
/// the next line or idle probe.
pub fn serve<R, W>(
    input: R,
    output: W,
    config: &ServeConfig,
    shutdown: &CancelToken,
) -> ServeSummary
where
    R: BufRead + Send,
    W: Write + Send,
{
    let mut stream = Some((input, output));
    let single = multi::MultiConfig::single_stream(config.clone());
    multi::serve_connections(move || Ok(stream.take()), &single, shutdown, None)
}

/// The `cancel_ok` acknowledgement line for request `id`.
pub(crate) fn render_cancel_ok(id: &str) -> String {
    let mut line = String::from("{\"id\":");
    json::write_str(&mut line, id);
    line.push_str(",\"type\":\"cancel_ok\"}");
    line
}

/// Builds the batch job for a validated analyze request: the request's
/// budget overrides layered over `base`, the per-request cancellation token
/// attached.
pub(crate) fn job_for(
    req: AnalyzeRequest,
    base: &BudgetSpec,
    cancel: CancelToken,
    tag: u64,
) -> BatchJob {
    let mut spec = base.clone();
    if let Some(nodes) = req.budget_nodes {
        spec.node_limit = nodes;
    }
    if let Some(ms) = req.budget_deadline_ms {
        spec.deadline_ms = Some(ms);
    }
    spec.cancel = Some(cancel);
    let name = req.name.unwrap_or_else(|| req.id.clone());
    let unit = BatchUnit::new(name, req.source).with_assumptions(req.assumptions);
    BatchJob { unit, budget: Some(spec), want_edges: req.edges, tag }
}

/// The all-zero [`BatchStats`] reported when a runner panic escapes (a bug
/// by construction; the session degrades to an empty report instead of
/// propagating).
pub(crate) fn empty_batch_stats(stream_failures: usize) -> BatchStats {
    BatchStats {
        units: Vec::new(),
        unit_count: 0,
        parse_failures: 0,
        failed_units: 0,
        stream_failures,
        totals: crate::deps::DepStats::default(),
        distinct_problems: None,
        cross_unit_hits: 0,
        vectorized_statements: 0,
        cache_capacity: 0,
        cache_evictions: 0,
        persistent_loaded: 0,
        persistent_hits: 0,
        persistent_saved: 0,
        persist_error: None,
    }
}

/// A validated analyze request.
pub(crate) struct AnalyzeRequest {
    pub(crate) id: String,
    pub(crate) name: Option<String>,
    pub(crate) source: String,
    pub(crate) assumptions: Assumptions,
    pub(crate) budget_nodes: Option<u64>,
    pub(crate) budget_deadline_ms: Option<u64>,
    pub(crate) edges: bool,
}

pub(crate) enum Request {
    Analyze(AnalyzeRequest),
    Cancel(String),
    Shutdown,
}

/// Validates one parsed request. The protocol is strict: unknown fields are
/// rejected (with the offending name in the error detail), so a client typo
/// like `"budgets"` fails loudly instead of silently running unbudgeted.
/// Errors carry the request's `id` when one was legible, for correlation.
pub(crate) fn interpret(value: &Json) -> Result<Request, (Option<String>, String)> {
    let Some(map) = value.as_obj() else {
        return Err((None, "request must be a JSON object".to_string()));
    };
    let legible_id = map.get("id").and_then(Json::as_str).map(str::to_string);
    let fail = |detail: &str| Err((legible_id.clone(), detail.to_string()));

    if map.contains_key("cancel") {
        if map.len() != 1 {
            return fail("cancel takes no other fields");
        }
        return match map.get("cancel").and_then(Json::as_str) {
            Some(id) => Ok(Request::Cancel(id.to_string())),
            None => fail("cancel must name a request id string"),
        };
    }
    if map.contains_key("shutdown") {
        if map.len() != 1 {
            return fail("shutdown takes no other fields");
        }
        return match map.get("shutdown").and_then(Json::as_bool) {
            Some(true) => Ok(Request::Shutdown),
            _ => fail("shutdown must be true"),
        };
    }

    for key in map.keys() {
        if !matches!(key.as_str(), "id" | "name" | "source" | "assumptions" | "budget" | "edges") {
            return fail(&format!("unknown field {key:?}"));
        }
    }
    let Some(id) = map.get("id").and_then(Json::as_str) else {
        return fail("id must be a string");
    };
    let Some(source) = map.get("source").and_then(Json::as_str) else {
        return fail("source must be a string");
    };
    let name = match map.get("name") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) => Some(s.to_string()),
            None => return fail("name must be a string"),
        },
    };
    let mut assumptions = Assumptions::new();
    if let Some(v) = map.get("assumptions") {
        let Some(bounds) = v.as_obj() else {
            return fail("assumptions must map symbols to integer lower bounds");
        };
        for (sym, bound) in bounds {
            let Some(lb) = bound.as_i64() else {
                return fail("assumptions must map symbols to integer lower bounds");
            };
            assumptions.set_lower_bound(sym.as_str(), i128::from(lb));
        }
    }
    let mut budget_nodes = None;
    let mut budget_deadline_ms = None;
    if let Some(v) = map.get("budget") {
        let Some(budget) = v.as_obj() else {
            return fail("budget must be an object");
        };
        for key in budget.keys() {
            if !matches!(key.as_str(), "nodes" | "deadline_ms") {
                return fail(&format!("unknown budget field {key:?}"));
            }
        }
        if let Some(v) = budget.get("nodes") {
            match v.as_u64() {
                Some(n) => budget_nodes = Some(n),
                None => return fail("budget.nodes must be a non-negative integer"),
            }
        }
        if let Some(v) = budget.get("deadline_ms") {
            match v.as_u64() {
                Some(ms) => budget_deadline_ms = Some(ms),
                None => return fail("budget.deadline_ms must be a non-negative integer"),
            }
        }
    }
    let edges = match map.get("edges") {
        None => true,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return fail("edges must be a boolean"),
        },
    };
    Ok(Request::Analyze(AnalyzeRequest {
        id: id.to_string(),
        name,
        source: source.to_string(),
        assumptions,
        budget_nodes,
        budget_deadline_ms,
        edges,
    }))
}

/// Renders one error response line. `id` is `null` when the offending line
/// never yielded one.
pub(crate) fn render_error(id: Option<&str>, code: &str, detail: &str) -> String {
    let mut out = String::from("{\"id\":");
    match id {
        Some(id) => json::write_str(&mut out, id),
        None => out.push_str("null"),
    }
    out.push_str(",\"type\":\"error\",\"error\":");
    json::write_str(&mut out, code);
    out.push_str(",\"detail\":");
    json::write_str(&mut out, detail);
    out.push('}');
    out
}

/// Renders one result response line. Every field is deterministic for a
/// given request: the statistics come from
/// [`crate::deps::DepStats::verdict_stats`] (no wall-clock figures), the
/// edge list and fingerprint from the fold in source-pair order.
pub(crate) fn render_result(id: Option<&str>, report: &UnitReport) -> String {
    let mut out = String::from("{\"id\":");
    match id {
        Some(id) => json::write_str(&mut out, id),
        None => out.push_str("null"),
    }
    out.push_str(",\"type\":\"result\",\"name\":");
    json::write_str(&mut out, &report.name);
    match &report.outcome {
        UnitOutcome::Analyzed => out.push_str(",\"outcome\":\"analyzed\""),
        UnitOutcome::ParseError(e) => {
            out.push_str(",\"outcome\":\"parse_error\",\"error\":");
            json::write_str(&mut out, e);
        }
        UnitOutcome::Failed { reason, attempts } => {
            out.push_str(",\"outcome\":\"failed\",\"error\":");
            json::write_str(&mut out, reason);
            out.push_str(&format!(",\"attempts\":{attempts}"));
        }
    }
    out.push_str(&format!(
        ",\"edges\":{},\"edges_fp\":\"{:016x}\",\"vectorized\":{}",
        report.edges, report.edges_fp, report.vectorized_statements
    ));
    out.push_str(",\"dep_edges\":[");
    for (i, edge) in report.dep_edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_edge(&mut out, edge);
    }
    out.push(']');
    let v = report.stats.verdict_stats();
    out.push_str(&format!(
        ",\"stats\":{{\"pairs\":{},\"independent\":{},\"conservative\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"solver_nodes\":{},\"refine_queries\":{},\"subtree_reuses\":{},\
         \"nodes_saved\":{},\"degraded\":{}",
        v.pairs_tested,
        v.proven_independent,
        v.conservative_pairs,
        v.cache_hits,
        v.cache_misses,
        v.solver_nodes,
        v.refine_queries,
        v.subtree_reuses,
        v.nodes_saved,
        v.degraded_pairs
    ));
    out.push_str(",\"degraded_by\":{");
    for (i, (reason, n)) in v.degraded_by.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, &reason.to_string());
        out.push_str(&format!(":{n}"));
    }
    out.push('}');
    for (label, counts) in [("decided_by", &v.decided_by), ("independent_by", &v.independent_by)] {
        out.push_str(&format!(",\"{label}\":{{"));
        for (i, (name, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push_str(&format!(":{n}"));
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn render_edge(out: &mut String, edge: &DepEdge) {
    out.push_str(&format!("{{\"src\":{},\"dst\":{},\"kind\":", edge.src.0, edge.dst.0));
    json::write_str(
        out,
        match edge.kind {
            crate::deps::DepKind::True => "true",
            crate::deps::DepKind::Anti => "anti",
            crate::deps::DepKind::Output => "output",
        },
    );
    out.push_str(",\"array\":");
    json::write_str(out, &edge.array);
    out.push_str(",\"dirs\":[");
    for (i, dv) in edge.dir_vecs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, &dv.to_string());
    }
    out.push_str("],\"level\":");
    match edge.level {
        Some(level) => out.push_str(&level.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"tested_by\":");
    json::write_str(out, edge.tested_by);
    out.push('}');
}

/// I/O error kinds that mean the client vanished rather than the transport
/// misbehaving: a session drains instead of recording an error, and the
/// accept loop skips a connection that died before its session began.
pub(crate) fn is_client_gone(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

pub(crate) enum LineRead {
    Eof,
    /// The transport's read timed out (`WouldBlock`/`TimedOut`) with no
    /// complete line available: the idle probe. Partial-line progress is
    /// preserved for the next call.
    Idle,
    Line {
        oversized: bool,
    },
}

/// A bounded, idle-aware line accumulator. Never keeps more than `max + 1`
/// bytes: the tail of an oversized line is consumed and discarded, so a
/// hostile client cannot grow daemon memory with one giant line. A final
/// line without a terminator is returned as a line (mid-stream EOF still
/// gets a response), and partial progress survives [`LineRead::Idle`]
/// returns, so a request split across read timeouts still reassembles.
pub(crate) struct LineBuf {
    buf: Vec<u8>,
    total: usize,
}

impl LineBuf {
    pub(crate) fn new() -> LineBuf {
        LineBuf { buf: Vec::new(), total: 0 }
    }

    /// Takes the completed line (call once per [`LineRead::Line`]),
    /// resetting for the next one. One trailing `\r` is stripped, so CRLF
    /// clients are served transparently.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        self.total = 0;
        let mut buf = std::mem::take(&mut self.buf);
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        buf
    }

    pub(crate) fn read_line<R: BufRead>(
        &mut self,
        input: &mut R,
        max: usize,
    ) -> std::io::Result<LineRead> {
        loop {
            let available = match input.fill_buf() {
                Ok(available) => available,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineRead::Idle);
                }
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(if self.total == 0 {
                    LineRead::Eof
                } else {
                    LineRead::Line { oversized: self.total > max }
                });
            }
            let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
                Some(newline) => (&available[..newline], true),
                None => (available, false),
            };
            let keep = chunk.len().min((max + 1).saturating_sub(self.buf.len()));
            self.buf.extend_from_slice(&chunk[..keep]);
            self.total += chunk.len();
            let consumed = chunk.len() + usize::from(done);
            input.consume(consumed);
            if done {
                return Ok(LineRead::Line { oversized: self.total > max });
            }
        }
    }
}

/// Locks a mutex, recovering the guard when a previous holder panicked. The
/// protected values (the pending-request registry, the output writer, the
/// error slot) are only observed between whole operations, so recovery is
/// safe.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req(id: &str, source: &str) -> String {
        format!("{{\"id\":{},\"source\":{}}}", json::str_token(id), json::str_token(source))
    }

    const SRC: &str = "REAL A(0:99)\nDO 1 i = 1, 50\n1   A(i) = A(i - 1)\nEND\n";

    fn serve_script(script: &str, config: &ServeConfig) -> (Vec<String>, ServeSummary) {
        let mut out: Vec<u8> = Vec::new();
        let summary = serve(Cursor::new(script.as_bytes()), &mut out, config, &CancelToken::new());
        let text = String::from_utf8(out).expect("responses are utf-8");
        (text.lines().map(str::to_string).collect(), summary)
    }

    #[test]
    fn analyze_request_round_trips() {
        let script = format!("{}\n", req("r1", SRC));
        let config = ServeConfig {
            batch: BatchConfig { workers: 1, ..BatchConfig::default() },
            ..ServeConfig::default()
        };
        let (lines, summary) = serve_script(&script, &config);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"id\":\"r1\",\"type\":\"result\",\"name\":\"r1\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"outcome\":\"analyzed\""));
        assert!(lines[0].contains("\"dep_edges\":[{\"src\":"));
        assert_eq!(summary.admitted, 1);
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.protocol_errors, 0);
        assert_eq!(summary.io_error, None);
        // The response is itself valid JSON under our own parser.
        assert!(json::parse(&lines[0]).is_ok());
    }

    #[test]
    fn malformed_lines_get_structured_errors() {
        let script = "not json\n{\"id\":\"a\"}\n{\"cancel\":\"nope\"}\n{\"shutdown\":true}\n";
        let (lines, summary) = serve_script(script, &ServeConfig::default());
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines[0].contains("\"error\":\"invalid_json\""), "{}", lines[0]);
        assert!(lines[1].contains("\"error\":\"invalid_request\""), "{}", lines[1]);
        assert!(lines[2].contains("\"error\":\"unknown_id\""), "{}", lines[2]);
        assert_eq!(lines[3], "{\"type\":\"shutdown\"}");
        assert_eq!(summary.protocol_errors, 3);
        assert_eq!(summary.admitted, 0);
    }

    #[test]
    fn unknown_fields_are_rejected_with_the_field_name() {
        let script = "{\"id\":\"x\",\"source\":\"END\\n\",\"bogus\":1}\n";
        let (lines, _) = serve_script(script, &ServeConfig::default());
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"id\":\"x\""), "{}", lines[0]);
        assert!(lines[0].contains("unknown field \\\"bogus\\\""), "{}", lines[0]);
    }

    #[test]
    fn oversized_lines_are_consumed_and_rejected() {
        let big = "x".repeat(4096);
        let script = format!("{{\"id\":\"{big}\"}}\n{}\n", req("after", SRC));
        let config = ServeConfig {
            max_request_bytes: 1024,
            batch: BatchConfig { workers: 1, ..BatchConfig::default() },
            ..ServeConfig::default()
        };
        let (lines, summary) = serve_script(&script, &config);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"error\":\"oversized\""), "{}", lines[0]);
        assert!(lines[1].contains("\"id\":\"after\""), "the stream recovers: {}", lines[1]);
        assert_eq!(summary.admitted, 1);
    }

    #[test]
    fn bounded_reader_handles_split_lines() {
        // A reader that hands out one byte at a time exercises every
        // chunk-boundary path in read_line_bounded.
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let data = b"abc\ndefgh\nij";
        let mut reader = std::io::BufReader::with_capacity(1, OneByte(data));
        let mut lines = LineBuf::new();
        assert!(matches!(
            lines.read_line(&mut reader, 5).unwrap(),
            LineRead::Line { oversized: false }
        ));
        assert_eq!(lines.take(), b"abc");
        assert!(matches!(
            lines.read_line(&mut reader, 4).unwrap(),
            LineRead::Line { oversized: true }
        ));
        lines.take();
        assert!(matches!(
            lines.read_line(&mut reader, 5).unwrap(),
            LineRead::Line { oversized: false }
        ));
        assert_eq!(lines.take(), b"ij", "unterminated final line is still a line");
        assert!(matches!(lines.read_line(&mut reader, 5).unwrap(), LineRead::Eof));
    }

    #[test]
    fn partial_lines_survive_idle_probes() {
        // A reader that alternates one payload byte with a WouldBlock
        // models a socket under a read timeout: the accumulated prefix must
        // persist across Idle returns and reassemble into one line.
        struct Stutter<'a>(&'a [u8], bool);
        impl std::io::Read for Stutter<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 {
                    self.1 = false;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.1 = true;
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut reader = std::io::BufReader::with_capacity(1, Stutter(b"wx\r\nyz", false));
        let mut lines = LineBuf::new();
        let mut idles = 0usize;
        loop {
            match lines.read_line(&mut reader, 64).unwrap() {
                LineRead::Idle => idles += 1,
                LineRead::Line { oversized } => {
                    assert!(!oversized);
                    break;
                }
                LineRead::Eof => panic!("line arrives before EOF"),
            }
        }
        assert!(idles >= 2, "every other read stalls");
        assert_eq!(lines.take(), b"wx", "CR stripped, progress preserved across idles");
    }
}
