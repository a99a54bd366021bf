//! The serve loop: jsonl sessions over every connection an [`Accept`]
//! source yields, multiplexed onto one shared [`BatchRunner`] worker pool
//! and verdict cache.
//!
//! [`serve_connections`] is the crate's only session loop. The Unix-socket
//! daemon runs it over accepted sockets; [`super::serve`] runs it over a
//! single reader/writer pair (a one-shot acceptor under
//! [`MultiConfig::single_stream`]), which is also how `delin_serve` serves
//! stdin. Each connection is a failure-isolated session speaking the
//! protocol of [`super`], with one reader thread and one writer thread; the
//! whole run has one worker pool. The contract, per connection:
//!
//! * **Fair admission.** A request is admitted only if the *global*
//!   in-flight bound ([`ServeConfig::max_in_flight`]) and the connection's
//!   own quota ([`MultiConfig::conn_quota`]) both have room; either
//!   exhaustion answers `overloaded` (the detail names which bound). A
//!   greedy client therefore saturates its quota and starts drawing
//!   rejections while other connections still admit — it cannot starve
//!   them through the global bound as long as
//!   `conn_quota * max_connections <= max_in_flight`. Nothing queues
//!   unboundedly, and no reader ever waits on analysis progress.
//! * **Backpressure isolation.** Result responses are written by the
//!   connection's own writer thread, so a client that stops reading stalls
//!   only its own stream: workers hand rendered lines to the writer's
//!   queue and move on. The queue is bounded by the quota invariant —
//!   a connection never has more queued results than admitted requests,
//!   and its slots release only after the physical write, keeping
//!   `overloaded` deterministic. Control lines (errors, acks) are written
//!   by the connection's reader itself, so a client spamming junk while
//!   refusing to read blocks only its own reader.
//! * **Failure isolation.** A client that vanishes (`EPIPE`/`ECONNRESET`
//!   on read or write), or sends nothing for
//!   [`ServeConfig::idle_timeout_ms`] (answered with an `idle_timeout`
//!   error), ends *its* session: its in-flight requests are cancelled
//!   (degrading conservatively; a vanished client's responses are
//!   dropped), its slots release, and every other connection is
//!   untouched. `{"shutdown":true}` ends its session after its in-flight
//!   requests answer. A connection that dies before its session begins
//!   (a client-gone accept error) is skipped. Even a panic on a connection
//!   thread is confined to that connection. The idle clock runs only on
//!   transports whose reads time out (`WouldBlock`/`TimedOut` is the idle
//!   probe, and partial lines survive it); a blocking stdin never idles.
//! * **Connection cap.** At most [`MultiConfig::max_connections`] sessions
//!   run at once; excess connections receive one machine-readable
//!   `{"type":"error","error":"busy",...}` line and are closed gracefully.
//! * **Drain on shutdown.** Tripping the daemon [`CancelToken`] stops
//!   admission at each reader's next line or idle probe, reaches every
//!   in-flight budget immediately through the token ancestry
//!   (daemon → connection → request), and flushes the conservative
//!   responses before [`serve_connections`] returns. There is no polling
//!   thread anywhere: wakeup is event-driven (token ancestry plus the
//!   transport's own read timeouts), and the [`Accept`] source is
//!   responsible for waking its blocked `accept` when the token trips. A
//!   reader blocked on a transport without read timeouts stays blocked
//!   until its next line or EOF. No thread outlives the run.
//!
//! Determinism is inherited from [`super`]: result responses are a pure
//! function of their request, so any interleaving of clients produces
//! per-request bytes identical to a sequential replay — what
//! `tests/serve_concurrency.rs` and the `delin_loadgen` bench verify.

use super::{
    empty_batch_stats, interpret, is_client_gone, job_for, lock_recover, render_cancel_ok,
    render_error, render_result, LineBuf, LineRead, Request, ServeConfig, ServeSummary,
};
use crate::batch::{BatchJob, BatchRunner, UnitReport};
use crate::cache::VerdictCache;
use crate::json;
use delin_dep::budget::CancelToken;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A source of client connections. Implementations must return `Ok(None)`
/// when the daemon should stop accepting — and are responsible for waking
/// a blocked `accept` when the daemon's shutdown token trips (e.g. the
/// Unix-socket binary wakes itself with a loopback connection from its
/// signal watcher). An error of a client-gone kind (`ECONNABORTED`,
/// `ECONNRESET`, `EPIPE`) skips one connection; any other error, except
/// `Interrupted`, ends the accept loop.
pub trait Accept {
    /// The read half of an accepted connection.
    type Reader: BufRead + Send;
    /// The write half of an accepted connection.
    type Writer: Write + Send;
    /// Blocks for the next connection; `Ok(None)` ends the accept loop.
    fn accept(&mut self) -> std::io::Result<Option<(Self::Reader, Self::Writer)>>;
}

/// Closures are acceptors: handy for tests and in-memory transports.
impl<F, R, W> Accept for F
where
    F: FnMut() -> std::io::Result<Option<(R, W)>>,
    R: BufRead + Send,
    W: Write + Send,
{
    type Reader = R;
    type Writer = W;
    fn accept(&mut self) -> std::io::Result<Option<(R, W)>> {
        self()
    }
}

/// Configuration of the multi-connection layer, wrapping the per-session
/// [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct MultiConfig {
    /// The per-session protocol and the shared batch engine configuration.
    /// [`ServeConfig::max_in_flight`] is the *global* admission bound
    /// across all connections.
    pub serve: ServeConfig,
    /// Concurrent connections served at once; excess connections get one
    /// `busy` error line and are closed. Clamped to at least 1.
    pub max_connections: usize,
    /// Per-connection in-flight quota under the global bound. Clamped to
    /// at least 1. Fairness holds when
    /// `conn_quota * max_connections <= max_in_flight`.
    pub conn_quota: usize,
}

impl Default for MultiConfig {
    fn default() -> Self {
        MultiConfig { serve: ServeConfig::default(), max_connections: 8, conn_quota: 8 }
    }
}

impl MultiConfig {
    /// One connection that may hold the whole global admission bound: the
    /// shape of a single-stream session ([`super::serve`], stdin), where a
    /// smaller quota would only reject requests the global bound admits.
    pub fn single_stream(serve: ServeConfig) -> MultiConfig {
        MultiConfig { conn_quota: serve.max_in_flight, max_connections: 1, serve }
    }
}

/// Daemon-wide counters, shared across connection threads.
#[derive(Default)]
struct Counters {
    admitted: AtomicUsize,
    completed: AtomicUsize,
    rejected: AtomicUsize,
    cancel_requests: AtomicUsize,
    protocol_errors: AtomicUsize,
    idle_timeouts: AtomicUsize,
    client_gone: AtomicUsize,
}

/// One live connection's shared write-side state: the transport's write
/// half (reader and writer threads both write under this lock), the
/// client-gone flag, the connection token (a child of the daemon token,
/// parent of every request token), and the quota counter.
struct Conn<W> {
    out: Mutex<W>,
    gone: AtomicBool,
    token: CancelToken,
    in_flight: AtomicUsize,
}

/// One admitted request in the daemon-wide registry: who asked (connection
/// and request id), how to cancel it, and where its rendered response line
/// goes. The held sender clone keeps the connection's writer thread alive
/// until this entry drains.
struct PendingConn<W> {
    conn_id: usize,
    id: String,
    cancel: CancelToken,
    tx: mpsc::Sender<(u64, String)>,
    conn: Arc<Conn<W>>,
}

impl<W: Write> Conn<W> {
    /// Writes one line plus newline, flushing. After client-gone, writes
    /// are no-ops: the responses are undeliverable by definition.
    fn write_line(&self, line: &str, io_error: &Mutex<Option<String>>, counters: &Counters) {
        if self.gone.load(Ordering::Acquire) {
            return;
        }
        let mut guard = lock_recover(&self.out);
        let result = guard
            .write_all(line.as_bytes())
            .and_then(|()| guard.write_all(b"\n"))
            .and_then(|()| guard.flush());
        drop(guard);
        if let Err(e) = result {
            self.fail(&e, io_error, counters);
        }
    }

    /// Books a failed read or write. A client-gone failure cancels the
    /// connection (once, counted) so its requests degrade and drain; any
    /// other failure lands in the shared error slot, and later writes are
    /// still attempted.
    fn fail(&self, e: &std::io::Error, io_error: &Mutex<Option<String>>, counters: &Counters) {
        if !is_client_gone(e.kind()) {
            record_io_error(io_error, e.to_string());
        } else if !self.gone.swap(true, Ordering::AcqRel) {
            counters.client_gone.fetch_add(1, Ordering::SeqCst);
            self.token.cancel();
        }
    }
}

/// Keeps the first I/O error of the run.
fn record_io_error(slot: &Mutex<Option<String>>, detail: String) {
    let mut slot = lock_recover(slot);
    if slot.is_none() {
        *slot = Some(detail);
    }
}

/// The one `busy` line a connection beyond the cap receives.
pub fn busy_line(max_connections: usize) -> String {
    let mut out = String::from("{\"id\":null,\"type\":\"error\",\"error\":\"busy\",\"detail\":");
    json::write_str(
        &mut out,
        &format!("connection limit reached ({max_connections} concurrent connections)"),
    );
    out.push('}');
    out
}

/// Serves jsonl sessions over every connection `accept` yields, all
/// multiplexed onto one worker pool and verdict cache. With `cache` set the
/// run shares that caller-owned cache (which then warms across runs and,
/// if its owner persists it, across restarts); with `None` the run owns its
/// cache and honors [`crate::batch::BatchConfig::cache_file`] directly.
/// Returns when the accept source ends — `Ok(None)`, typically after the
/// daemon token trips, or an error that is not a one-connection failure
/// (see [`Accept`]) — and every accepted connection has drained.
pub fn serve_connections<A>(
    mut accept: A,
    config: &MultiConfig,
    shutdown: &CancelToken,
    cache: Option<&VerdictCache>,
) -> ServeSummary
where
    A: Accept,
{
    let max_in_flight = config.serve.max_in_flight.max(1);
    let conn_quota = config.conn_quota.max(1);
    let max_connections = config.max_connections.max(1);
    let idle_timeout = config.serve.idle_timeout_ms.map(Duration::from_millis);
    let max_request_bytes = config.serve.max_request_bytes;

    let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
    let registry: Mutex<HashMap<u64, PendingConn<A::Writer>>> = Mutex::new(HashMap::new());
    let next_tag = AtomicU64::new(0);
    let counters = Counters::default();
    let io_error: Mutex<Option<String>> = Mutex::new(None);
    let active = AtomicUsize::new(0);
    let runner = BatchRunner::new(config.serve.batch.clone());
    let mut connections = 0usize;
    let mut rejected_connections = 0usize;

    let batch = std::thread::scope(|scope| {
        let registry = &registry;
        let counters = &counters;
        let io_error = &io_error;
        let active = &active;
        let next_tag = &next_tag;

        // Shared sink: render on the worker that finished the unit, then
        // hand the line to the owning connection's writer thread. Workers
        // never touch a socket — a stalled client cannot stall the pool.
        let sink = |tag: u64, report: &UnitReport| {
            let routed = {
                let reg = lock_recover(registry);
                reg.get(&tag).map(|p| (p.id.clone(), p.tx.clone()))
            };
            let Some((id, tx)) = routed else { return };
            let line = render_result(Some(&id), report);
            // A send failure means the writer is gone, which cannot happen
            // while the registry entry (holding a sender clone) exists;
            // release defensively anyway so the slot never leaks.
            if tx.send((tag, line)).is_err() {
                if let Some(p) = lock_recover(registry).remove(&tag) {
                    p.conn.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                counters.completed.fetch_add(1, Ordering::SeqCst);
            }
        };
        let runner_handle = scope.spawn(move || runner.run_jobs_in(job_rx, cache, false, sink));

        let mut conn_id = 0usize;
        loop {
            if shutdown.is_cancelled() {
                break;
            }
            let (input, output) = match accept.accept() {
                Ok(Some(conn)) => conn,
                Ok(None) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    record_io_error(io_error, e.to_string());
                    // A connection that died before its session began costs
                    // only itself; any other failure ends accepting.
                    if is_client_gone(e.kind()) {
                        continue;
                    }
                    break;
                }
            };
            // Connection cap: reject gracefully with one machine-readable
            // line. `active` counts reader threads still running; writers
            // may flush a moment longer, which the cap need not count.
            if active.load(Ordering::SeqCst) >= max_connections {
                rejected_connections += 1;
                let mut output = output;
                let _ = output
                    .write_all(busy_line(max_connections).as_bytes())
                    .and_then(|()| output.write_all(b"\n"))
                    .and_then(|()| output.flush());
                continue;
            }
            connections += 1;
            active.fetch_add(1, Ordering::SeqCst);
            let id = conn_id;
            conn_id += 1;
            let conn = Arc::new(Conn {
                out: Mutex::new(output),
                gone: AtomicBool::new(false),
                token: shutdown.child(),
                in_flight: AtomicUsize::new(0),
            });
            let (resp_tx, resp_rx) = mpsc::channel::<(u64, String)>();

            // Writer thread: physical writes of result lines, then slot
            // release. Exits when the reader is done *and* every pending
            // entry has drained (each holds a sender clone).
            let writer_conn = conn.clone();
            scope.spawn(move || {
                for (tag, line) in resp_rx {
                    writer_conn.write_line(&line, io_error, counters);
                    if let Some(p) = lock_recover(registry).remove(&tag) {
                        p.conn.in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                    counters.completed.fetch_add(1, Ordering::SeqCst);
                }
            });

            // Reader thread: the protocol loop. A panic is confined to
            // this connection — its requests cancel and drain, the daemon
            // keeps serving.
            let job_tx = job_tx.clone();
            let serve_cfg = &config.serve;
            scope.spawn(move || {
                let session = ConnSession {
                    conn_id: id,
                    conn: conn.clone(),
                    registry,
                    counters,
                    io_error,
                    job_tx,
                    resp_tx,
                    next_tag,
                    max_in_flight,
                    conn_quota,
                    max_request_bytes,
                    idle_timeout,
                    budget: &serve_cfg.batch.budget,
                };
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run(input)));
                if outcome.is_err() {
                    conn.token.cancel();
                    record_io_error(io_error, "connection thread panicked".to_string());
                }
                active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(job_tx);
        runner_handle.join()
    });

    let batch = match batch {
        Ok(stats) => stats,
        Err(_) => empty_batch_stats(1),
    };
    ServeSummary {
        connections,
        rejected_connections,
        admitted: counters.admitted.into_inner(),
        completed: counters.completed.into_inner(),
        rejected: counters.rejected.into_inner(),
        cancel_requests: counters.cancel_requests.into_inner(),
        protocol_errors: counters.protocol_errors.into_inner(),
        idle_timeouts: counters.idle_timeouts.into_inner(),
        client_gone: counters.client_gone.into_inner(),
        batch,
        io_error: io_error.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner),
    }
}

/// One connection's protocol loop over the shared pool: borrowed daemon
/// state plus this connection's identity.
struct ConnSession<'a, W> {
    conn_id: usize,
    conn: Arc<Conn<W>>,
    registry: &'a Mutex<HashMap<u64, PendingConn<W>>>,
    counters: &'a Counters,
    io_error: &'a Mutex<Option<String>>,
    job_tx: mpsc::Sender<BatchJob>,
    resp_tx: mpsc::Sender<(u64, String)>,
    next_tag: &'a AtomicU64,
    max_in_flight: usize,
    conn_quota: usize,
    max_request_bytes: usize,
    idle_timeout: Option<Duration>,
    budget: &'a delin_dep::budget::BudgetSpec,
}

impl<W: Write> ConnSession<'_, W> {
    /// A control line (error, ack): written by the reader itself, so a
    /// non-reading client backpressures only its own request stream.
    fn control(&self, line: &str) {
        self.conn.write_line(line, self.io_error, self.counters);
    }

    fn run<R: BufRead>(&self, mut input: R) {
        let mut reader = LineBuf::new();
        let mut idle_since = Instant::now();
        loop {
            if self.conn.token.is_cancelled() {
                break;
            }
            let read = match reader.read_line(&mut input, self.max_request_bytes) {
                Ok(read) => read,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // A read failing because the peer reset is the same
                    // client-gone case as a write failing that way.
                    self.conn.fail(&e, self.io_error, self.counters);
                    break;
                }
            };
            let oversized = match read {
                LineRead::Eof => break,
                LineRead::Idle => {
                    if self.conn.token.is_cancelled() {
                        break;
                    }
                    if let Some(limit) = self.idle_timeout {
                        if idle_since.elapsed() >= limit {
                            self.counters.idle_timeouts.fetch_add(1, Ordering::SeqCst);
                            self.control(&render_error(
                                None,
                                "idle_timeout",
                                "no request within the idle timeout",
                            ));
                            self.conn.token.cancel();
                            break;
                        }
                    }
                    continue;
                }
                LineRead::Line { oversized } => oversized,
            };
            idle_since = Instant::now();
            let buf = reader.take();
            if oversized {
                self.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
                self.control(&render_error(None, "oversized", "request line too long"));
                continue;
            }
            if buf.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            let Ok(line) = std::str::from_utf8(&buf) else {
                self.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
                self.control(&render_error(None, "invalid_json", "invalid utf-8"));
                continue;
            };
            let value = match json::parse(line) {
                Ok(value) => value,
                Err(e) => {
                    self.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    self.control(&render_error(None, "invalid_json", &e.to_string()));
                    continue;
                }
            };
            match interpret(&value) {
                Ok(Request::Shutdown) => {
                    // Ends *this* connection (its requests drain); daemon
                    // lifetime belongs to the daemon token, not a client.
                    self.control("{\"type\":\"shutdown\"}");
                    break;
                }
                Ok(Request::Cancel(id)) => {
                    self.counters.cancel_requests.fetch_add(1, Ordering::SeqCst);
                    let mut found = false;
                    for p in lock_recover(self.registry).values() {
                        if p.conn_id == self.conn_id && p.id == id {
                            p.cancel.cancel();
                            found = true;
                        }
                    }
                    if found {
                        self.control(&render_cancel_ok(&id));
                    } else {
                        self.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
                        self.control(&render_error(
                            Some(&id),
                            "unknown_id",
                            "no such request in flight",
                        ));
                    }
                }
                Ok(Request::Analyze(req)) => self.admit(req),
                Err((id, detail)) => {
                    self.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    self.control(&render_error(id.as_deref(), "invalid_request", &detail));
                }
            }
        }
    }

    /// Admission under both bounds, atomically against the registry lock:
    /// two racing readers cannot both squeeze past the global check.
    fn admit(&self, req: super::AnalyzeRequest) {
        let tag = self.next_tag.fetch_add(1, Ordering::SeqCst);
        let cancel = self.conn.token.child();
        {
            let mut reg = lock_recover(self.registry);
            let verdict = if reg.len() >= self.max_in_flight {
                Some("too many requests in flight")
            } else if self.conn.in_flight.load(Ordering::SeqCst) >= self.conn_quota {
                Some("connection quota exceeded")
            } else {
                None
            };
            if let Some(detail) = verdict {
                drop(reg);
                self.counters.rejected.fetch_add(1, Ordering::SeqCst);
                self.control(&render_error(Some(&req.id), "overloaded", detail));
                return;
            }
            reg.insert(
                tag,
                PendingConn {
                    conn_id: self.conn_id,
                    id: req.id.clone(),
                    cancel: cancel.clone(),
                    tx: self.resp_tx.clone(),
                    conn: self.conn.clone(),
                },
            );
            self.conn.in_flight.fetch_add(1, Ordering::SeqCst);
        }
        let id = req.id.clone();
        let job = job_for(req, self.budget, cancel, tag);
        self.counters.admitted.fetch_add(1, Ordering::SeqCst);
        if self.job_tx.send(job).is_err() {
            // The pool outlives every reader by construction; degrade
            // structurally if it somehow did not.
            self.counters.admitted.fetch_sub(1, Ordering::SeqCst);
            if let Some(p) = lock_recover(self.registry).remove(&tag) {
                p.conn.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            self.counters.protocol_errors.fetch_add(1, Ordering::SeqCst);
            self.control(&render_error(Some(&id), "internal", "worker pool unavailable"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchConfig;
    use std::io::Cursor;

    /// A writer whose bytes outlive the daemon run.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn config() -> MultiConfig {
        MultiConfig {
            serve: ServeConfig {
                batch: BatchConfig { workers: 2, ..BatchConfig::default() },
                ..ServeConfig::default()
            },
            max_connections: 4,
            conn_quota: 4,
        }
    }

    const SRC: &str = "REAL A(0:99)\nDO 1 i = 1, 50\n1   A(i) = A(i - 1)\nEND\n";

    fn request(id: &str) -> String {
        format!("{{\"id\":{},\"source\":{}}}\n", json::str_token(id), json::str_token(SRC))
    }

    #[test]
    fn connections_multiplex_onto_one_pool() {
        let scripts: Vec<String> = (0..3).map(|i| request(&format!("c{i}"))).collect();
        let outs: Vec<SharedBuf> = (0..3).map(|_| SharedBuf::default()).collect();
        let mut queue: Vec<_> = scripts
            .iter()
            .zip(&outs)
            .map(|(s, o)| (Cursor::new(s.clone().into_bytes()), o.clone()))
            .collect();
        queue.reverse();
        let acceptor = move || Ok(queue.pop());
        let summary = serve_connections(acceptor, &config(), &CancelToken::new(), None);
        assert_eq!(summary.connections, 3);
        assert_eq!(summary.admitted, 3);
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.rejected, 0);
        assert_eq!(summary.io_error, None);
        for (i, out) in outs.iter().enumerate() {
            let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
            let lines: Vec<_> = text.lines().collect();
            assert_eq!(lines.len(), 1, "one response per connection: {lines:?}");
            assert!(lines[0].contains(&format!("\"id\":\"c{i}\"")), "{}", lines[0]);
            assert!(lines[0].contains("\"outcome\":\"analyzed\""), "{}", lines[0]);
        }
    }

    /// A connection that dies while queued (`ECONNABORTED` from accept)
    /// costs only itself: the daemon keeps accepting and serves the next.
    #[test]
    fn aborted_accept_skips_one_connection() {
        let out = SharedBuf::default();
        let live = out.clone();
        let mut step = 0;
        let acceptor = move || {
            step += 1;
            match step {
                1 => Err(std::io::Error::from(std::io::ErrorKind::ConnectionAborted)),
                2 => Ok(Some((Cursor::new(request("after").into_bytes()), live.clone()))),
                _ => Ok(None),
            }
        };
        let summary = serve_connections(acceptor, &config(), &CancelToken::new(), None);
        assert_eq!(summary.connections, 1, "the connection after the abort is served");
        assert_eq!(summary.completed, 1);
        assert!(summary.io_error.is_some(), "the aborted accept is still reported");
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"id\":\"after\""), "{text}");
    }

    /// Any other accept failure means the source itself is broken: the
    /// loop ends instead of spinning on it.
    #[test]
    fn broken_accept_source_ends_the_loop() {
        let out = SharedBuf::default();
        let live = out.clone();
        let mut step = 0;
        let acceptor = move || {
            step += 1;
            match step {
                1 => Err(std::io::Error::other("listener gone")),
                2 => Ok(Some((Cursor::new(request("never").into_bytes()), live.clone()))),
                _ => Ok(None),
            }
        };
        let summary = serve_connections(acceptor, &config(), &CancelToken::new(), None);
        assert_eq!(summary.connections, 0);
        assert_eq!(summary.io_error.as_deref(), Some("listener gone"));
        assert!(out.0.lock().unwrap().is_empty());
    }

    #[test]
    fn connection_cap_rejects_with_busy() {
        // One long-lived connection (blocks on a channel-backed reader
        // that we never feed — modelled here by a reader returning
        // WouldBlock forever) occupies the only slot; the second
        // connection must be rejected with `busy` before any session runs.
        struct Stall;
        impl std::io::Read for Stall {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let held = SharedBuf::default();
        let second = SharedBuf::default();
        let shutdown = CancelToken::new();
        let trip = shutdown.clone();
        let second_out = second.clone();
        let held_out = held.clone();
        let mut step = 0;
        let acceptor = move || {
            step += 1;
            match step {
                1 => Ok(Some((
                    Box::new(std::io::BufReader::new(
                        Box::new(Stall) as Box<dyn std::io::Read + Send>
                    )),
                    held_out.clone(),
                ))),
                2 => Ok(Some((
                    Box::new(std::io::BufReader::new(
                        Box::new(Cursor::new(Vec::new())) as Box<dyn std::io::Read + Send>
                    )),
                    second_out.clone(),
                ))),
                _ => {
                    // Both connections dispatched: end the daemon.
                    trip.cancel();
                    Ok(None)
                }
            }
        };
        let cfg = MultiConfig { max_connections: 1, ..config() };
        let summary = serve_connections(acceptor, &cfg, &shutdown, None);
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.rejected_connections, 1);
        let text = String::from_utf8(second.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text, busy_line(1) + "\n");
        assert!(held.0.lock().unwrap().is_empty(), "held connection saw no traffic");
    }
}
